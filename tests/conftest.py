import functools
import itertools
import math
from operator import le
from typing import Iterable, Sequence

import pytest

from monoideal.core import (
    Monomial,
    MonoidealError,
    Ordering,
    Word,
    _distinct_rows,
    _is_antichain_rows,
    _some_row_divides,
    checked_antichain,
    divides,
    extremal_internal,
    monomial_set,
    pi,
    support,
)
from monoideal.cool_orderings import helps
from monoideal.crosscheck import representative_quadratic_sets
from monoideal.polyhedral import IneqSystem, _check_vector, _hull_test, _is_minimal
from monoideal.sorted_ideal import FgWitness, _scan_order
from monoideal.torientation import (
    Orientation,
    TGraph,
    _Solver,
    is_valid_t_orientation,
    ordering_to_orientation,
)


def M(*vectors) -> tuple[Monomial, ...]:
    return tuple(Monomial(tuple(v)) for v in vectors)


def W(*seqs) -> tuple[Word, ...]:
    return tuple(Word(tuple(s)) for s in seqs)


@functools.cache
def quadratic_family(n: int) -> tuple[tuple[Monomial, ...], ...]:
    """``representative_quadratic_sets(n)``, built once per test session."""
    return tuple(representative_quadratic_sets(n))


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("error", type(exc), str(exc))


def brute_minimal_under_division(monomials):
    """Independent oracle: keep members no other member divides."""
    out = []
    for m in monomials:
        if not any(o != m and divides(o, m) for o in monomials):
            out.append(m)
    return set(out)


def naive_sorted_ideal_member(u: Word, monomials, ord: Ordering) -> bool:
    """Independent oracle: scan every factor for sortedness and divisibility."""
    n = ord.n
    letters = u.letters
    for i in range(len(letters)):
        for j in range(i + 1, len(letters) + 1):
            chunk = letters[i:j]
            ranks = [ord.rank[x] for x in chunk]
            if any(a > b for a, b in zip(ranks, ranks[1:])):
                continue
            counts = pi(Word(chunk), n)
            if any(divides(m, counts) for m in monomials):
                return True
    return False


def internal_letters(w: Monomial, ord: Ordering) -> frozenset[int]:
    return frozenset() if w.is_unit else extremal_internal(w, ord)[2]


def is_extremal(w: Monomial, x: int, ord: Ordering) -> bool:
    """Whether ``x`` is the smallest or largest support letter of ``w``."""
    return x in support(w) and x in extremal_internal(w, ord)[:2]


# The cover kernels of the former row scan, verbatim: the candidate supports
# as frozensets, and extremality as a subset test against the letters ranked
# before x.
def frozenset_cover_supports(rows, w, x):
    """``supp(s) - {x}`` for each exponent row ``s`` holding ``x`` with ``erase(s, x) | w``."""
    # erase(s, x) | w exactly when s | w with the entry of x raised past every exponent
    cap = w[:x] + (math.inf,) + w[x + 1 :]
    return [
        frozenset(itertools.compress(range(len(s)), s)) - {x}
        for s in rows
        if s[x] and all(map(le, s, cap))
    ]


# The bitmask cover kernel of the former eager cover table, verbatim.
def _cover_masks(rows: Sequence[tuple[int, ...]], w: tuple[int, ...], x: int) -> list[int]:
    """Letter bitmasks, less ``x``, of the rows ``s`` holding ``x`` with ``erase(s, x) | w``."""
    # erase(s, x) | w exactly when s | w with the entry of x raised past every exponent
    cap = w[:x] + (math.inf,) + w[x + 1 :]
    return [
        sum(1 << y for y, e in enumerate(s) if e and y != x)
        for s in rows
        if s[x] and all(map(le, s, cap))
    ]


def frozenset_has_extremal_cover(cands, before):
    """Whether a candidate is a subset of, or disjoint from, the letters ranked before ``x``."""
    return any(c <= before or c.isdisjoint(before) for c in cands)


# The extremal-filing referee of is_fg_sorted, which shares no code with the
# step table: each member is filed under the two letters extremal in it.
def _first_violator(ms: Sequence[Monomial], ord: Ordering) -> tuple[Monomial, int] | None:
    """The first member ``w`` of ``ms``, in the order given, with an internal
    letter ``x`` that no member covers, and ``x``; None when there is none.

    A member covers ``x`` in ``w`` when ``x`` is extremal in it and it
    divides ``w`` once ``x`` is erased: it lies below ``w`` with the entry
    of ``x`` raised to infinity.  A member is extremal only at its lowest-
    and highest-ranked letters, so one pass files it under those two.
    ``ms`` is a checked antichain; its order decides which violator is first.
    """
    rank, seq = ord.rank, ord.sequence()
    extremal: list[list[tuple[int, ...]]] = [[] for _ in seq]
    spans = []
    for m in ms:
        s = m.exponents
        ranks = list(itertools.compress(rank, s))
        lo, hi = min(ranks), max(ranks)
        extremal[seq[lo]].append(s)
        if hi != lo:
            extremal[seq[hi]].append(s)
        spans.append((lo, hi))
    for w, (lo, hi) in zip(ms, spans):
        e = w.exponents
        for x in seq[lo + 1 : hi]:
            if not _some_row_divides(extremal[x], e[:x] + (math.inf,) + e[x + 1 :]):
                return w, x
    return None


def referee_witness(members, ord: Ordering) -> FgWitness:
    """What ``is_fg_sorted`` must return, from the extremal-filing scan."""
    violator = _first_violator(_scan_order(checked_antichain(members, ord.n), ord), ord)
    return FgWitness(violator is None, violator)


def all_words_up_to(n_letters: int, cap: int):
    for length in range(cap + 1):
        for tup in itertools.product(range(n_letters), repeat=length):
            yield Word(tup)


# ---------------------------------------------------------------------------
# T-orientation referees

class ReferenceSolver:
    """Backtracking search for T-orientations with unit propagation.

    The state of edge ``i`` is its arc ``arcs[i]``, or None while free.
    Propagation closes directed two-paths through T-vertices: an oriented
    pair forces the chord, and a missing chord forces the still-free half
    of the pair to point the same way at the T-vertex.  An arc is refused
    when its head already reaches its tail along assigned arcs (``heads``
    lists them per tail, in assignment order); arcs are only ever added, so
    this fails a branch exactly when the orientation it reaches is cyclic.
    Branching picks the free edge with the most endpoints in T (ties by
    edge index, as the sort is stable), trying the stored direction first,
    so the first solution found is deterministic.

    The package's ``_Solver`` computes the same search per edge index; this
    copy of its former arc-keyed form is its referee: equal solutions in
    equal order, and equal node counts.
    """

    def __init__(self, g: TGraph):
        self.g = g
        self.index: dict[tuple[int, int], int] = {}
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
        for i, (u, v) in enumerate(g.edges):
            self.index[u, v] = self.index[v, u] = i
            self.adj[u].append((i, v))
            self.adj[v].append((i, u))
        self.arcs: list[tuple[int, int] | None] = [None] * len(g.edges)
        self.heads: list[list[int]] = [[] for _ in range(g.vertex_count)]
        self.trail: list[int] = []
        self.nodes = 0
        self.branch_order = sorted(
            range(len(g.edges)), key=lambda i: -len(g.tset.intersection(g.edges[i]))
        )

    def _reaches(self, src: int, dst: int) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in self.heads[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def _assign(self, tail: int, head: int, queue: list[int]) -> bool:
        i = self.index.get((tail, head))
        if i is None:
            return False
        if self.arcs[i] is not None:
            return self.arcs[i] == (tail, head)
        if self._reaches(head, tail):
            return False
        self.arcs[i] = (tail, head)
        self.heads[tail].append(head)
        self.trail.append(i)
        queue.append(i)
        return True

    def _propagate(self, queue: list[int]) -> bool:
        # y is the T-endpoint of the popped arc and x its other endpoint;
        # only the popped edge joins y to x in a simple graph
        while queue:
            i = queue.pop()
            tail, head = self.arcs[i]
            for y, x, inward in ((head, tail, True), (tail, head, False)):
                if y not in self.g.tset:
                    continue
                for j, z in self.adj[y]:
                    a = self.arcs[j]
                    if a is None and (x, z) not in self.index:
                        # no chord x-z: j must point the same way at y
                        arc = (z, y) if inward else (y, z)
                    elif a is not None and j != i and (a[1] == y) != inward:
                        # a directed two-path through y: force its chord
                        arc = (x, z) if inward else (z, x)
                    else:
                        continue
                    if not self._assign(*arc, queue):
                        return False
        return True

    def solve(self, limit: int | None) -> list[Orientation]:
        solutions: list[Orientation] = []

        def descend() -> bool:
            i = next((i for i in self.branch_order if self.arcs[i] is None), None)
            if i is None:
                solutions.append(Orientation(tuple(self.arcs)))
                return limit is not None and len(solutions) >= limit
            u, v = self.g.edges[i]
            for arc in ((u, v), (v, u)):
                mark = len(self.trail)
                self.nodes += 1
                q: list[int] = []
                if self._assign(*arc, q) and self._propagate(q):
                    if descend():
                        return True
                # the trail is undone last arc first, so each tail's last head goes
                while len(self.trail) > mark:
                    j = self.trail.pop()
                    self.heads[self.arcs[j][0]].pop()
                    self.arcs[j] = None
            return False

        descend()
        return solutions


def enumerate_t_orientations(g: TGraph) -> list[Orientation]:
    return _Solver(g).solve(limit=None)


# Edges past which the brute force refuses a graph: 2^20 assignments.
BRUTE_FORCE_MAX_EDGES = 20


def brute_force_t_orientations(g: TGraph) -> list[Orientation]:
    """All valid T-orientations by trying every one of the 2^m assignments."""
    if len(g.edges) > BRUTE_FORCE_MAX_EDGES:
        raise MonoidealError(f"brute force refuses more than {BRUTE_FORCE_MAX_EDGES} edges")
    out = []
    for signs in itertools.product((False, True), repeat=len(g.edges)):
        arcs = tuple(
            (v, u) if flip else (u, v) for (u, v), flip in zip(g.edges, signs)
        )
        o = Orientation(arcs)
        if is_valid_t_orientation(g, o):
            out.append(o)
    return out


def direct_small_t_orientation(g: TGraph) -> Orientation:
    """A valid T-orientation built directly when |T| <= 2.

    One T-vertex is placed globally first (a source) and the other globally
    last (a sink); transitivity at a source or sink is vacuous and the
    positional orientation is acyclic.
    """
    if len(g.tset) > 2:
        raise MonoidealError("direct construction only applies when |T| <= 2")
    tlist = sorted(g.tset)
    middle = [v for v in range(g.vertex_count) if v not in g.tset]
    if len(tlist) == 2:
        seq = [tlist[0]] + middle + [tlist[1]]
    else:
        seq = tlist + middle
    return ordering_to_orientation(g, Ordering.from_sequence(seq))


# Checks that only the tests call.


def is_antichain(M: Iterable[Monomial]) -> bool:
    return _is_antichain_rows(_distinct_rows(M)[1])


def closed_subset_check(M: Sequence[Monomial], N: Sequence[Monomial]) -> bool:
    """True when N already contains every member of M that helps it."""
    ms = monomial_set(M)
    ns = monomial_set(N)
    if not set(ns) <= set(ms):
        raise MonoidealError("N must be a subset of M")
    n_letters = ms[0].n if ms else 0
    nset = set(ns)
    for w in ms:
        if w in nset:
            continue
        for m in ns:
            if any(helps(w, m, x) for x in range(n_letters)):
                return False
    return True


def is_minimal_generator(sys: IneqSystem, x: Sequence[int]) -> bool:
    """In the ideal, but out of it after decrementing any positive coordinate."""
    return _is_minimal(sys, _check_vector(sys, x))


def in_hull_plus_orthant(M: Sequence[Monomial], x: Sequence[int]) -> bool:
    """Whether x dominates a convex combination of the members of M."""
    ms = monomial_set(M)
    if not ms:
        return False
    if len(x) != ms[0].n:
        raise MonoidealError("vector length does not match the alphabet")
    return _hull_test([m.exponents for m in ms])(x)
