"""Search for letter orderings making the sorted-word ideal finite.

We call such an ordering cool for the antichain.  Whether a letter may
follow the letters already placed depends only on the set of those
letters, so every test here reads the set's one step table
(``sorted_ideal._StepTable``), which also gives ``is_fg_sorted`` its
witness.  A fixed ordering is cool iff each of its steps passes, and the
all-orderings test reads the same covers.  Existence is decided by a
complete search: quadratic sets reduce to finding an acyclic orientation of
an associated graph that is transitive at the letters whose square is
missing, and the general case runs a branch-and-bound over letter
permutations that asks the table at each step, prunes at the first step
that fails, and searches each set of placed letters at most once.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Monomial,
    MonoidealError,
    Ordering,
    _Frozen,
    checked_antichain,
    divides,
    erase,
    monomial_set,
    support,
)
from .sorted_ideal import _step_table
from .torientation import (
    TGraph,
    orientation_to_ordering,
    t_orientation_search_stats,
)


class CoolSearchResult(_Frozen):
    __slots__ = __match_args__ = ("found", "ordering", "nodes_explored")
    found: bool
    ordering: Ordering | None
    nodes_explored: int

    def __init__(self, found: bool, ordering: Ordering | None, nodes_explored: int):
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "nodes_explored", nodes_explored)


def is_cool(M: Sequence[Monomial], ord: Ordering) -> bool:
    """Whether the sorted-word ideal of the antichain is finitely generated.

    The verdict of :func:`is_fg_sorted`, read step by step off the set's
    step table instead of by sorting the members to find a witness.
    """
    table = _step_table(tuple(M), ord.n)
    placed = 0
    for x in ord.sequence():
        if not table.passes(placed, x):
            return False
        placed |= 1 << x
    return True


def all_orderings_cool(M: Sequence[Monomial]) -> bool:
    """Every ordering is cool iff erasures are covered by small-support members.

    For each member ``m`` and letter ``x`` whose erasure from ``m`` leaves
    support of size at least two, some member of support size at most two
    must contain ``x`` (so ``x`` is extremal in it under any ordering) and
    divide ``m`` once ``x`` is erased: a cover candidate with at most one letter.
    """
    ms = tuple(M)
    table = _step_table(ms, ms[0].n if ms else 0)
    return all(
        any(c & (c - 1) == 0 for c in table.covers(i, x))
        for i, supp in enumerate(table.supports)
        for x in range(table.n)
        if (supp & ~(1 << x)).bit_count() >= 2
    )


def helps(w: Monomial, m: Monomial, x: int) -> bool:
    """Whether ``w`` can serve as the extremal cover of ``m`` at letter ``x``."""
    if x not in support(w):
        return False
    if not divides(erase(w, x), m):
        return False
    return support(erase(w, x)) < support(erase(m, x))


def support_filter(M: Sequence[Monomial], k: int) -> tuple[Monomial, ...]:
    if k < 0:
        raise ValueError("support size bound must be nonnegative")
    return tuple(m for m in monomial_set(M) if 0 < len(support(m)) <= k)


def _alphabet_size(ms: tuple[Monomial, ...], alphabet_size: int | None) -> int:
    if alphabet_size is None:
        if not ms:
            raise MonoidealError("alphabet size required for an empty set")
        return ms[0].n
    if ms and alphabet_size != ms[0].n:
        raise MonoidealError("alphabet size does not match the monomials")
    return alphabet_size


def _split_quadratic(
    M: Sequence[Monomial],
) -> tuple[tuple[Monomial, ...], set[int], set[tuple[int, int]]]:
    """The set, the letters whose square it holds, and its products ``(x, y)``, x < y."""
    ms = monomial_set(M)
    squares = set()
    pairs = set()
    for m in ms:
        if m.degree != 2:
            raise MonoidealError(f"member of total degree {m.degree} is not quadratic")
        supp = sorted(support(m))
        if len(supp) == 1:
            squares.add(supp[0])
        else:
            pairs.add((supp[0], supp[1]))
    return ms, squares, pairs


def quadratic_graph(M: Sequence[Monomial], alphabet_size: int | None = None) -> TGraph:
    """Complement encoding of a quadratic set.

    Letters are vertices; two letters are joined exactly when their product
    is missing from ``M``; T consists of the letters whose square is
    missing.
    """
    ms, squares, pairs = _split_quadratic(M)
    alphabet_size = _alphabet_size(ms, alphabet_size)
    edges = [
        (x, y)
        for x in range(alphabet_size)
        for y in range(x + 1, alphabet_size)
        if (x, y) not in pairs
    ]
    tset = [x for x in range(alphabet_size) if x not in squares]
    return TGraph.make(alphabet_size, edges, tset)


def quadratic_to_support2(M: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Replace squares by support-two members with the same cool orderings.

    Keeps the genuine products and, for each square ``x^2`` in ``M``, adds
    ``x^2 y`` for every other letter ``y`` whose product with ``x`` is
    missing from ``M``.
    """
    ms, squares, pairs = _split_quadratic(M)
    if not ms:
        return ()
    n = ms[0].n
    out = [m for m in ms if len(support(m)) == 2]
    for x in sorted(squares):
        for y in range(n):
            if y != x and (min(x, y), max(x, y)) not in pairs:
                e = [0] * n
                e[x] = 2
                e[y] = 1
                out.append(Monomial(e))
    return monomial_set(out)


def square_free_total_degree_guard(M: Sequence[Monomial]) -> bool:
    """For square-free sets: degree above two rules out any cool ordering."""
    ms = monomial_set(M)
    for m in ms:
        if any(e > 1 for e in m.exponents):
            raise MonoidealError("member is not square-free")
    return all(m.degree <= 2 for m in ms)


def find_cool_ordering(
    M: Sequence[Monomial], alphabet_size: int | None = None
) -> CoolSearchResult:
    """Complete search for a cool ordering.

    Quadratic sets go through the graph encoding and the T-orientation
    engine (square-free ones are the special case where T is everything).
    Everything else runs the permutation branch-and-bound.
    """
    ms = checked_antichain(M)
    alphabet_size = _alphabet_size(ms, alphabet_size)
    if not ms:
        return CoolSearchResult(True, Ordering.identity(alphabet_size), 0)
    if all(m.degree == 2 for m in ms):
        g = quadratic_graph(ms, alphabet_size)
        orientation, nodes = t_orientation_search_stats(g)
        if orientation is None:
            return CoolSearchResult(False, None, nodes)
        return CoolSearchResult(True, orientation_to_ordering(g, orientation), nodes)
    return _permutation_search(ms, alphabet_size)


def _permutation_search(M: tuple[Monomial, ...], n: int) -> CoolSearchResult:
    table = _step_table(M, n)
    # Letters held by more members are tried first: they decide the most
    # (member, letter) pairs once placed.
    order = sorted(range(n), key=lambda y: (-sum(supp >> y & 1 for supp in table.supports), y))
    prefix: list[int] = []
    nodes = 0
    # The subtree under a set of placed letters depends on that set alone, so
    # a set found dead is not searched again: a revisit adds the nodes its
    # first search took and fails, and the count reads as without the memo.
    dead: dict[int, int] = {}

    def descend(placed: int) -> bool:
        nonlocal nodes
        if len(prefix) == n:
            return True
        if placed in dead:
            nodes += dead[placed]
            return False
        start = nodes
        for y in order:
            # an ordering and its reverse are cool together: keep letter 0
            # in the first half of the positions
            if placed >> y & 1 or (y == 0 and 2 * len(prefix) > n - 1):
                continue
            nodes += 1
            prefix.append(y)
            if table.passes(placed, y) and descend(placed | 1 << y):
                return True
            prefix.pop()
        dead[placed] = nodes - start
        return False

    found = descend(0)
    return CoolSearchResult(found, Ordering.from_sequence(prefix) if found else None, nodes)
