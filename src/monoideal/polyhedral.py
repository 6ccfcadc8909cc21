"""Ideals presented by systems of linear inequalities.

An inequality system is a nonnegative integer matrix A together with a
finite set W of threshold vectors; it presents the up-closed set of
nonnegative integer vectors x with Ax >= w for some w in W.  The module
supplies membership, minimal-generator enumeration by a depth-first
search that carries each threshold's residual demand, unions, a
convexity test by exact rational feasibility, verifiers for the three
kinds of negative certificates, and the SAT reduction instance
factories.  The coordinate box that bounds every minimal generator is
not scanned; its size only serves the lattice budget.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Sequence

from .core import (
    BudgetExceededError,
    Monomial,
    MonoidealError,
    Ordering,
    _Frozen,
    _some_row_divides,
    monomial_set,
    some_assignment_passes,
)
from .preimage import preimage_fg
from .sorted_ideal import is_fg_sorted

DEFAULT_LATTICE_BUDGET = 10_000_000


def _check_integers(values: Iterable, what: str) -> None:
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise MonoidealError(f"{what} {v!r} is not an integer")


class IneqSystem(_Frozen):
    __slots__ = __match_args__ = ("rows", "thresholds", "names")
    rows: tuple[tuple[int, ...], ...]
    thresholds: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None

    def __init__(
        self,
        rows: tuple[tuple[int, ...], ...],
        thresholds: tuple[tuple[int, ...], ...],
        names: tuple[str, ...] | None = None,
    ):
        # set first: the checks read ``ncols``
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "names", names)
        for row in self.rows:
            _check_integers(row, "matrix entry")
            if any(a < 0 for a in row):
                raise MonoidealError("matrix entries must be nonnegative")
            if len(row) != self.ncols:
                raise MonoidealError("ragged matrix")
        for w in self.thresholds:
            _check_integers(w, "threshold entry")
            if len(w) != len(self.rows):
                raise MonoidealError("threshold length must equal the number of rows")
            if any(x < 0 for x in w):
                raise MonoidealError("threshold entries must be nonnegative")
        if self.names is not None and len(self.names) != self.ncols:
            raise MonoidealError("variable names do not match the column count")

    @property
    def ncols(self) -> int:
        if self.rows:
            return len(self.rows[0])
        if self.names is not None:
            return len(self.names)
        return 0

    @staticmethod
    def make(
        rows: Iterable[Sequence[int]],
        thresholds: Iterable[Sequence[int]],
        names: Sequence[str] | None = None,
    ) -> "IneqSystem":
        rs = tuple(tuple(r) for r in rows)
        ws = tuple(dict.fromkeys(tuple(w) for w in thresholds))
        return IneqSystem(rs, ws, tuple(names) if names else None)

    def to_json_dict(self) -> dict:
        out = {"A": [list(r) for r in self.rows], "W": [list(w) for w in self.thresholds]}
        if self.names is not None:
            out["vars"] = list(self.names)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "IneqSystem":
        if not isinstance(data, dict):
            raise MonoidealError("an inequality system must be a JSON object")
        names = data.get("vars")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(x, str) for x in names)
        ):
            raise MonoidealError(f'"vars" must be a list of strings, got {names!r}')
        return IneqSystem.make(data.get("A", []), data.get("W", []), names or None)


def _check_vector(sys: IneqSystem, x: Sequence[int]) -> tuple[int, ...]:
    xt = tuple(x)
    if len(xt) != sys.ncols:
        raise MonoidealError(
            f"vector of length {len(xt)} against a system with {sys.ncols} columns"
        )
    if any(v < 0 for v in xt):
        raise MonoidealError("vectors must be nonnegative")
    return xt


def _member(sys: IneqSystem, x: Sequence[int]) -> bool:
    # unchecked kernel: x has the system's length and no negative entry.  An
    # entry may be math.inf; summing over the nonzero a only, a row that
    # meets it is met, and 0 * inf (NaN) never arises
    ax = [sum(a * v for a, v in zip(row, x) if a) for row in sys.rows]
    return _some_row_divides(sys.thresholds, ax)


def _is_minimal(sys: IneqSystem, x: Sequence[int]) -> bool:
    # unchecked kernel; decrementing x_j lowers Ax by column j
    ax = [sum(a * v for a, v in zip(row, x)) for row in sys.rows]
    thresholds = sys.thresholds
    return _some_row_divides(thresholds, ax) and not any(
        v > 0 and _some_row_divides(thresholds, [a - row[j] for a, row in zip(ax, sys.rows)])
        for j, v in enumerate(x)
    )


def membership(sys: IneqSystem, x: Sequence[int]) -> bool:
    """Whether Ax >= w componentwise for some threshold w."""
    return _member(sys, _check_vector(sys, x))


def enumerate_minimal_generators(
    sys: IneqSystem, budget: int = DEFAULT_LATTICE_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """All minimal generators, sorted, by a depth-first search per threshold.

    The box.  Every minimal generator has each coordinate at most the
    largest threshold entry: above it, decrementing the coordinate keeps
    every inequality satisfied.  The search stays inside that box, and
    a box of more than ``budget`` points raises ``BudgetExceededError``
    before any search, exactly as a scan of the box would.

    The search.  For one threshold w it fixes x_0, x_1, ... in turn and
    carries the residual demand r = max(0, w - Ax) of the prefix.  A
    prefix whose residual is zero is recorded with every later
    coordinate 0.  Column j is raised from x_j = v to v + 1 only while
    it lowers some positive residual entry, and a prefix is dropped when
    a row with positive residual has no positive entry in columns j on.
    Each raise of x_j lowers every positive residual row that column j
    meets by at least 1, so x_j never passes the largest entry of w:
    every node is a distinct in-box prefix, and the search makes at most
    about 2 |W| (box + 1)^ncols steps.  The stack is explicit, so
    ``ncols`` is not bounded by the recursion limit.

    Why every minimal generator is found.  The ideal is the union of
    the solution sets S_w of Ax >= w, so a minimal generator g of the
    ideal lies in some S_w and is minimal there.  Take x minimal in S_w
    and j with x_j > 0.  Since x - e_j is not in S_w, some row r with
    A[r][j] > 0 has (A(x - e_j))_r < w_r.  Every prefix of x with
    x_j = v < x_j lies below x - e_j, and A >= 0, so its residual at
    row r is positive: the search raises x_j and no prune fires (x
    itself covers every row).  No prefix of x is recorded early, as that
    would be a solution below x.  So the search records x.

    Why nothing else is returned.  Every recorded candidate is in the
    ideal.  A candidate that is not minimal lies above a minimal
    generator, so one decrement of it stays in the ideal, and the final
    test (``_is_minimal``, one Ax per candidate) removes it.  The result
    equals the box points that are minimal generators, in the same sorted
    order.
    """
    if not sys.thresholds:
        return ()
    box = max((x for w in sys.thresholds for x in w), default=0)
    _check_box(box, sys.ncols, budget)
    n = sys.ncols
    columns = [[row[j] for row in sys.rows] for j in range(n)]
    # the rows column j meets, and the rows no column from j on meets
    meets = [[i for i, a in enumerate(column) if a > 0] for column in columns]
    stranded = [list(range(len(sys.rows)))]
    for j in reversed(range(n)):
        stranded.insert(0, [i for i in stranded[0] if columns[j][i] == 0])
    candidates = set()
    for w in sys.thresholds:
        stack = [(0, tuple(w), ())]
        while stack:
            j, residual, prefix = stack.pop()
            if not any(residual):
                candidates.add(prefix + (0,) * (n - j))
                continue
            if any(residual[i] for i in stranded[j]):
                continue
            column = columns[j]
            v = 0
            while True:
                stack.append((j + 1, residual, prefix + (v,)))
                if not any(residual[i] for i in meets[j]):
                    break
                residual = tuple(
                    r - a if r > a else 0 for r, a in zip(residual, column)
                )
                v += 1
    return tuple(sorted(x for x in candidates if _is_minimal(sys, x)))


def _check_box(top: int, n: int, budget: int) -> None:
    """Refuse a box [0, top]^n of more than ``budget`` lattice points."""
    if (top + 1) ** n > budget:
        raise BudgetExceededError(
            f"lattice box of {(top + 1) ** n} points exceeds the budget {budget}"
        )


def from_generators(M: Sequence[Monomial]) -> IneqSystem:
    """Identity-matrix presentation: membership is divisibility by a member."""
    ms = monomial_set(M)
    if not ms:
        raise MonoidealError("need at least one monomial")
    n = ms[0].n
    identity = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return IneqSystem.make(identity, [m.exponents for m in ms])


def union(systems: Sequence[IneqSystem]) -> IneqSystem:
    """Union of single-threshold systems by stacking and zero padding."""
    if not systems:
        raise MonoidealError("union of no systems")
    n = systems[0].ncols
    for s in systems:
        if s.ncols != n:
            raise MonoidealError("union requires a common column count")
        if len(s.thresholds) != 1:
            raise MonoidealError("union takes systems with a single threshold each")
    rows = [row for s in systems for row in s.rows]
    thresholds = []
    offset = 0
    for s in systems:
        w = [0] * len(rows)
        w[offset : offset + len(s.rows)] = s.thresholds[0]
        thresholds.append(w)
        offset += len(s.rows)
    return IneqSystem.make(rows, thresholds, systems[0].names)


# ---------------------------------------------------------------------------
# convexity via exact rational feasibility

def _fourier_motzkin_feasible(
    constraints: list[tuple[list[int], int]], nvars: int
) -> bool:
    """Decide whether {lam : coeffs . lam <= rhs for all constraints} is nonempty.

    The coefficients are integers, and each elimination step combines two
    constraints with positive integer multipliers, so the arithmetic stays
    exact in plain integers.
    """
    cons = constraints
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, rhs in cons:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        for (pc, pr), (nc, nr) in itertools.product(pos, neg):
            scale_p, scale_n = -nc[var], pc[var]
            coeffs = [
                scale_p * pc[i] + scale_n * nc[i] for i in range(var)
            ]
            rest.append((coeffs + [0] * (nvars - var), scale_p * pr + scale_n * nr))
        cons = rest
    return all(rhs >= 0 for _, rhs in cons)


def _hull_test(rows: Sequence[tuple[int, ...]]) -> Callable[[Sequence[int]], bool]:
    """Whether a point dominates a convex combination of the rows.

    A point above the hull of the rows lies above the hull of at most n of
    them (Caratheodory): pushed down along -(1, ..., 1) to the boundary of
    the hull plus the orthant, it lies in a proper face, of dimension at
    most n - 1.  So each test tries every subset of min(k, max(n, 1)) rows,
    and Fourier-Motzkin eliminates at most n - 1 variables; with k <= n
    the one subset is the rows in their order.  The constraints that do not
    depend on the point are built once; each test adds only the right-hand
    sides of the per-column constraints.
    """
    n = len(rows[0])
    # variables lam_0..lam_{nv-1}; a subset's last row has 1 - sum of the others
    nv = min(len(rows), max(n, 1)) - 1
    fixed: list[tuple[list[int], int]] = []
    for i in range(nv):
        coeffs = [0] * nv
        coeffs[i] = -1
        fixed.append((coeffs, 0))  # lam_i >= 0
    fixed.append(([1] * nv, 1))  # lam_last >= 0
    subsets = [
        (subset[-1], [[row[j] - subset[-1][j] for row in subset[:nv]] for j in range(n)])
        for subset in itertools.combinations(rows, nv + 1)
    ]

    def test(x: Sequence[int]) -> bool:
        return any(
            _fourier_motzkin_feasible(
                fixed + [(c, xj - lj) for c, xj, lj in zip(columns, x, last)], nv
            )
            for last, columns in subsets
        )

    return test


def convexity_check(
    M: Sequence[Monomial], budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """Whether the ideal of M consists exactly of the lattice points above conv(M).

    Scans the box [0, maxdeg+1]^n: the ideal is convex iff no box point in
    the dominated-hull region lies outside the ideal.  Points that a
    member divides are skipped before the exact feasibility test.  Each
    box point may try every member subset of the hull test, so a scan of
    more than ``budget`` (point, subset) pairs is refused before it starts.
    """
    ms = monomial_set(M)
    if not ms:
        return True
    n = ms[0].n
    top = max(m.degree for m in ms) + 1
    _check_box(top, n, budget)
    points, subsets = (top + 1) ** n, math.comb(len(ms), min(len(ms), max(n, 1)))
    if points * subsets > budget:
        raise BudgetExceededError(
            f"convexity scan of {points} box points times {subsets} member subsets "
            f"= {points * subsets} hull tests exceeds the budget {budget}"
        )
    exponents = [m.exponents for m in ms]
    in_hull = _hull_test(exponents)
    for point in itertools.product(range(top + 1), repeat=n):
        # a point of the ideal is never a counterexample
        if _some_row_divides(exponents, point):
            continue
        if in_hull(point):
            return False
    return True


# ---------------------------------------------------------------------------
# negative certificates

CERTIFICATE_KINDS = ("support3", "preimage_not_fg", "sorted_not_fg")


class Certificate(_Frozen):
    __slots__ = __match_args__ = ("kind", "generator", "letter", "ordering")
    kind: str
    generator: tuple[int, ...]
    letter: int | None
    ordering: Ordering | None

    def __init__(
        self,
        kind: str,
        generator: tuple[int, ...],
        letter: int | None = None,
        ordering: Ordering | None = None,
    ):
        if kind not in CERTIFICATE_KINDS:
            raise MonoidealError(f"unknown certificate kind {kind!r}")
        if kind != "support3" and letter is None:
            raise MonoidealError(f"certificate kind {kind!r} requires a letter")
        _check_integers(generator, "generator entry")
        if letter is not None:
            _check_integers([letter], "letter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "ordering", ordering)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "generator": list(self.generator)}
        if self.letter is not None:
            out["letter"] = self.letter
        if self.ordering is not None:
            out["order"] = list(self.ordering.sequence())
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise MonoidealError("a certificate must be a JSON object")
        ordering = None
        if data.get("order") is not None:
            _check_integers(data["order"], "order entry")
            ordering = Ordering.from_sequence(tuple(data["order"]))
        return Certificate(
            data["kind"],
            tuple(data["generator"]),
            data.get("letter"),
            ordering,
        )


def verify_certificate(sys: IneqSystem, cert: Certificate) -> bool:
    """Check a claimed negative certificate in polynomial time."""
    m = _check_vector(sys, cert.generator)
    if not _is_minimal(sys, m):
        return False
    if cert.kind == "support3":
        return sum(1 for v in m if v > 0) >= 3

    z = cert.letter
    if z is None or not 0 <= z < sys.ncols:
        raise MonoidealError("certificate letter out of range")

    # both letter certificates claim that no member exists once z is
    # raised without bound
    if cert.kind == "preimage_not_fg":
        if sum(v for i, v in enumerate(m) if i != z) < 2:
            return False
        # membership is closed upward, so z alone needs no test of its own
        return not any(
            _member(sys, [math.inf if i == z else int(i == t) for i in range(sys.ncols)])
            for t, v in enumerate(m)
            if t != z and v > 0
        )

    # sorted_not_fg
    ordering = cert.ordering or Ordering.identity(sys.ncols)
    if ordering.n != sys.ncols:
        raise MonoidealError("certificate ordering does not match the columns")
    rank = ordering.rank
    ranks = [rank[i] for i, v in enumerate(m) if v > 0]
    if not ranks or not min(ranks) < rank[z] < max(ranks):
        return False
    left = [v if rank[i] < rank[z] else 0 for i, v in enumerate(m)]
    right = [v if rank[i] > rank[z] else 0 for i, v in enumerate(m)]
    left[z] = right[z] = math.inf
    return not _member(sys, left) and not _member(sys, right)


# ---------------------------------------------------------------------------
# SAT reductions

SAT_TARGETS = ("mdois", "imfg", "pinfg")


class SatInstance(_Frozen):
    """CNF over variables 1..n; a literal is k or -k, clauses are nonempty."""

    __slots__ = __match_args__ = ("variable_count", "clauses")
    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, variable_count: int, clauses: tuple[tuple[int, ...], ...]):
        if variable_count < 1:
            raise MonoidealError("need at least one variable")
        for clause in clauses:
            if not clause:
                raise MonoidealError("clauses must be nonempty")
            for lit in clause:
                if lit == 0 or abs(lit) > variable_count:
                    raise MonoidealError(f"literal {lit} out of range")
        object.__setattr__(self, "variable_count", variable_count)
        object.__setattr__(self, "clauses", clauses)


def brute_force_sat(inst: SatInstance) -> bool:
    return some_assignment_passes(
        inst.variable_count, inst.clauses, lambda cols: reduce(or_, cols)
    )


def _literal_column(lit: int, offset: int) -> int:
    # variables i=1..n occupy columns offset + 2(i-1) (positive literal)
    # and offset + 2(i-1) + 1 (negated literal)
    return offset + 2 * (abs(lit) - 1) + (0 if lit > 0 else 1)


def sat_reduction(inst: SatInstance, which: str) -> IneqSystem:
    """Build the inequality-presented instance for one of the three targets.

    mdois: clause and boolean inequalities joined with the per-variable
    pair systems (x_i + nx_i >= 2).  imfg: two extra letters y, z ordered
    first; the base system additionally demands y >= 1.  pinfg: one extra
    letter y; the pair systems additionally demand y >= 1 and a separate
    system demands y >= 2.
    """
    if which not in SAT_TARGETS:
        raise MonoidealError(f"unknown reduction target {which!r}")
    if inst.variable_count < 3:
        raise MonoidealError("the reductions require at least three variables")
    nv = inst.variable_count
    names = {"mdois": [], "imfg": ["y", "z"], "pinfg": ["y"]}[which]
    offset = len(names)
    for i in range(1, nv + 1):
        names.extend([f"x{i}", f"nx{i}"])
    ncols = len(names)

    def clause_row(clause: Iterable[int]) -> list[int]:
        row = [0] * ncols
        for lit in clause:
            row[_literal_column(lit, offset)] += 1
        return row

    # x_i + nx_i is the clause row of (x_i, -x_i); y is column 0
    boolean_rows = [clause_row((i, -i)) for i in range(1, nv + 1)]
    y_row = [1] + [0] * (ncols - 1)
    base_rows = [clause_row(c) for c in inst.clauses] + boolean_rows
    base_w = [1] * len(base_rows)

    if which == "mdois":
        systems = [IneqSystem.make(base_rows, [base_w], names)]
        systems += [IneqSystem.make([row], [[2]], names) for row in boolean_rows]
    elif which == "imfg":
        systems = [IneqSystem.make(base_rows + [y_row], [base_w + [1]], names)]
        systems += [IneqSystem.make([row], [[2]], names) for row in boolean_rows]
    else:  # pinfg
        systems = [
            IneqSystem.make(base_rows, [base_w], names),
            IneqSystem.make([y_row], [[2]], names),
        ]
        systems += [
            IneqSystem.make([row, y_row], [[2, 1]], names) for row in boolean_rows
        ]
    return union(systems)


def reduction_is_negative(sys: IneqSystem, which: str) -> bool:
    """Decide the negative answer of a reduced instance from its generators.

    mdois: some minimal generator has support of size three or more.
    imfg: the antichain of minimal generators fails the sorted-ideal
    finite-generation criterion under the declared column order.
    pinfg: the antichain fails the preimage criterion.
    """
    if which not in SAT_TARGETS:
        raise MonoidealError(f"unknown reduction target {which!r}")
    gens = enumerate_minimal_generators(sys)
    if which == "mdois":
        return any(sum(1 for v in g if v > 0) >= 3 for g in gens)
    monomials = tuple(Monomial(g) for g in gens)
    if which == "imfg":
        return not is_fg_sorted(monomials, Ordering.identity(sys.ncols)).verdict
    return not preimage_fg(monomials).verdict
