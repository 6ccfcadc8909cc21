"""Ideals presented by systems of linear inequalities.

An inequality system is a nonnegative integer matrix A together with a
finite set W of threshold vectors; it presents the up-closed set of
nonnegative integer vectors x with Ax >= w for some w in W.  The module
supplies membership, minimal-generator enumeration by a depth-first
search that carries each threshold's residual demand, unions, a
convexity test by one exact integer linear program at each point of
the grid of the members' column values, verifiers for the three kinds
of negative certificates, and the SAT reduction instance factories.
The coordinate box that bounds every minimal generator is not scanned;
its size only serves the lattice budget of that enumeration.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

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
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "thresholds", tuple(map(tuple, thresholds)))
        object.__setattr__(self, "names", None if names is None else tuple(names))
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
        ws = dict.fromkeys(map(tuple, thresholds))
        return IneqSystem(rows, tuple(ws), names or None)

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
    _check_integers(xt, "vector entry")
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
# convexity via one exact linear program per point

def _above_hull(rows: Sequence[tuple[int, ...]], x: Sequence[int]) -> bool:
    """Whether x dominates a convex combination of the rows.

    The simplex method maximizes sum(lam) subject to sum_k lam_k r_k <= x
    and lam >= 0.  The rows and x are nonnegative, so the slack basis
    (lam = 0) is feasible, and a solution of value t >= 1 divided by t sums
    to 1 and stays below x / t <= x: x is above the hull exactly when the
    optimum reaches 1, and the search stops as soon as it does.  Bland's
    rule (the lowest column enters; among the rows of least ratio, the one
    of lowest basic index leaves) keeps degenerate pivots from cycling.

    The tableau holds integers over the common denominator d, the last
    pivot (Bareiss): every entry is d times that of the rational tableau,
    and d is the basis determinant up to sign, so the update
    (a * p - f * b) // d divides exactly and no exponent is rounded.
    """
    n, k = len(x), len(rows)
    # one row per letter over lam_0..lam_{k-1}, the n slacks and the bound;
    # the objective row reads z - sum(lam) = 0
    tableau = [
        [r[j] for r in rows] + [int(i == j) for i in range(n)] + [x[j]] for j in range(n)
    ]
    objective = [-1] * k + [0] * (n + 1)
    basis = list(range(k, k + n))
    d = 1
    while objective[-1] < d:
        c = next((j for j, v in enumerate(objective[:-1]) if v < 0), None)
        if c is None:
            return False  # optimal below 1
        r = None
        for i, row in enumerate(tableau):
            if row[c] > 0:
                if r is None:
                    r = i
                    continue
                # compare the ratios row[-1] / row[c] across positive denominators
                gap = row[-1] * tableau[r][c] - tableau[r][-1] * row[c]
                if gap < 0 or gap == 0 and basis[i] < basis[r]:
                    r = i
        if r is None:
            return True  # unbounded
        pivot = tableau[r]
        p = pivot[c]
        for row in tableau + [objective]:
            if row is not pivot:
                f = row[c]
                row[:] = [(a * p - f * b) // d for a, b in zip(row, pivot)]
        basis[r] = c
        d = p
    return True


def convexity_check(
    M: Sequence[Monomial], budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """Whether the ideal of M consists exactly of the lattice points above conv(M).

    It is not iff some non-member x lies above the hull, and then one lies
    on the column grid, where coordinate j takes the values e - 1 for the
    exponents e >= 1 of column j, and the column maximum.  Capping x at the
    column maxima keeps it above the hull, which lies below the cap, and
    outside the ideal.  Raising each coordinate to the least grid value at
    or above it keeps it above the hull, and flips no comparison r_j <= x_j
    with a member r: if r_j > x_j, r_j - 1 is a grid value at or above x_j.
    So at most (k + 1)^n points are tested, whatever the exponents, each by
    one exact linear program (``_above_hull``: the largest sum(lam) with
    sum_k lam_k r_k <= x reaches 1), and a grid of more than ``budget``
    points is refused before the scan starts.
    """
    ms = monomial_set(M)
    if not ms:
        return True
    exponents = [m.exponents for m in ms]
    grid = [sorted({e - 1 for e in col if e} | {max(col)}) for col in zip(*exponents)]
    points = math.prod(map(len, grid))
    if points > budget:
        raise BudgetExceededError(
            f"convexity scan of {points} grid points exceeds the budget {budget}"
        )
    # a point of the ideal is never a counterexample
    return not any(
        _above_hull(exponents, x)
        for x in itertools.product(*grid)
        if not _some_row_divides(exponents, x)
    )


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
        generator = tuple(generator)
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
            data["kind"], tuple(data["generator"]), data.get("letter"), ordering
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
        clauses = tuple(map(tuple, clauses))
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
