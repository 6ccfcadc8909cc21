"""Brute-force ground truth for word-ideal questions.

Membership tests for the two word ideals attached to a monomial set, a
bounded enumeration of minimal word generators driven by any factor-closed
membership predicate, and a finiteness probe that cross-checks the fast
finite-generation criterion.  The enumerations of the two word ideals
carry letter counts with each stem instead of calling the membership
tests, which stay their referee in the tests.  Everything here is
deliberately independent of the fast decision procedures so it can
referee them: the walk shares only core's dominance test with the code it
referees, and ``divides`` with the ``word_in_*`` tests referee that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    BudgetExceededError,
    Monomial,
    Ordering,
    Word,
    _some_row_divides,
    divides,
    nonunit_set,
    pi,
    sorted_words,
)
from .sorted_ideal import complete_enumeration_bound

DEFAULT_MEMBERSHIP_BUDGET = 20_000_000


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of a bounded minimal-generator enumeration.

    ``saturated`` records whether the top half of the searched length range
    (lengths strictly above ``cap // 2 + 1``) contained no minimal
    generator; an unsaturated report is evidence that generators keep
    appearing near the cap.
    """

    cap: int
    minimal_generators: tuple[Word, ...]
    saturated: bool


def _sorted_segments(u: Word, ord: Ordering) -> list[tuple[int, ...]]:
    """Maximal weakly increasing (by rank) blocks of ``u``."""
    segs = []
    current: list[int] = []
    for x in u.letters:
        if current and ord.rank[x] < ord.rank[current[-1]]:
            segs.append(tuple(current))
            current = []
        current.append(x)
    if current:
        segs.append(tuple(current))
    return segs


def word_in_sorted_ideal(u: Word, M: Sequence[Monomial], ord: Ordering) -> bool:
    """Membership in the ideal generated by sorted words of multiples of M.

    A word belongs exactly when it contains a sorted factor whose letter
    counts dominate some member; maximal sorted segments are the only
    candidates worth checking, and within a segment the whole segment is
    the best one.
    """
    ms = nonunit_set(M)
    if not ms:
        return False
    n = ord.n
    for seg in _sorted_segments(u, ord):
        counts = pi(Word(seg), n)
        if any(divides(m, counts) for m in ms):
            return True
    return False


def word_in_preimage(u: Word, M: Sequence[Monomial]) -> bool:
    """Membership in the full preimage: some member divides the letter counts."""
    ms = nonunit_set(M)
    if not ms:
        return False
    counts = pi(u, ms[0].n)
    return any(divides(m, counts) for m in ms)


def _check_walk(cap: int, alphabet_size: int) -> None:
    if cap < 0 or alphabet_size < 1:
        raise ValueError("cap must be nonnegative and the alphabet nonempty")


def _walk(
    root: Callable[[], object],
    successors: Callable[[tuple[int, ...], object], Sequence[object]],
    alphabet_size: int,
    cap: int,
    budget: int,
) -> EnumerationReport:
    """Breadth-first walk over the non-members of a factor-closed word ideal.

    Non-members are closed under factors, so every non-member extends a
    shorter one and only non-members are extended.  Each stored stem
    carries a state: ``root()`` gives the state of the empty word, and
    ``successors(stem, state)`` the state of ``stem + z`` for each letter
    ``z``; None marks a member.  A member is a minimal generator when
    dropping its first letter leaves a non-member (dropping its last
    letter gives its stem).  Each word examined counts as one membership
    test against ``budget``; a level that would pass the budget raises
    before it is examined.
    """
    _check_walk(cap, alphabet_size)
    tests = 1
    if tests > budget:
        raise BudgetExceededError(
            f"membership budget of {budget} tests exceeded at length 0"
        )
    state = root()
    if state is None:
        return EnumerationReport(cap, (Word(()),), True)

    letters = [(z,) for z in range(alphabet_size)]
    found: list[Word] = []
    level: dict[tuple[int, ...], object] = {(): state}
    for length in range(1, cap + 1):
        tests += len(level) * alphabet_size
        if tests > budget:
            raise BudgetExceededError(
                f"membership budget of {budget} tests exceeded at length {length}"
            )
        following: dict[tuple[int, ...], object] = {}
        for stem, state in level.items():
            for z, after in zip(letters, successors(stem, state)):
                w = stem + z
                if after is not None:
                    following[w] = after
                elif w[1:] in level:
                    found.append(Word(w))
        level = following
        if not level:
            break
    threshold = cap // 2 + 1
    saturated = all(len(w) <= threshold for w in found)
    return EnumerationReport(cap, sorted_words(found), saturated)


def enumerate_minimal_generators(
    membership: Callable[[Word], bool],
    alphabet_size: int,
    cap: int,
    budget: int = DEFAULT_MEMBERSHIP_BUDGET,
) -> EnumerationReport:
    """All minimal generators of a factor-closed ideal, up to length ``cap``.

    ``membership`` must be factor-monotone: a word is in the ideal whenever
    one of its factors is.  A word is a minimal generator when it is in the
    ideal but dropping its first or its last letter leaves the ideal.  The
    enumeration walks the tree of non-members breadth-first by length and
    asks ``membership`` about each one-letter extension once.
    """

    # the stem is all the state a predicate needs
    def successors(stem, state):
        return [
            None if membership(Word(stem + (z,))) else True
            for z in range(alphabet_size)
        ]

    return _walk(
        lambda: None if membership(Word(())) else True,
        successors,
        alphabet_size,
        cap,
        budget,
    )


def _count_walk(
    rows: tuple[tuple[int, ...], ...],
    rank: Sequence[int],
    cap: int,
    budget: int,
) -> EnumerationReport:
    """Walk whose states carry the letter counts of each stem's trailing
    maximal sorted segment under ``rank``.

    A stem is a non-member, so every segment before its last one already
    fails: ``stem + z`` is a member exactly when the trailing segment,
    extended by ``z``, dominates a row.  A state is the stem's last letter
    with the counts of that segment; the counts restart when ``z`` ranks
    below the last letter.  Counts are capped at the largest exponent of
    their letter in the rows, which decides the same dominance and keeps
    the states few.  Each state's successors are computed once per call,
    so stems with equal states share one row of successor states.
    """
    n = len(rank)
    top = tuple(map(max, zip(*rows)))
    zero = (0,) * n
    table: dict[object, list[object]] = {}

    def successors(stem, state):
        row = table.get(state)
        if row is None:
            last, counts = state
            row = table[state] = []
            for z in range(n):
                c = zero if rank[z] < rank[last] else counts
                if c[z] < top[z]:
                    c = c[:z] + (c[z] + 1,) + c[z + 1 :]
                row.append(None if _some_row_divides(rows, c) else (z, c))
        return row

    first = min(range(n), key=rank.__getitem__)
    return _walk(lambda: (first, zero), successors, n, cap, budget)


def sorted_ideal_report(
    M: Sequence[Monomial],
    ord: Ordering,
    cap: int,
    budget: int = DEFAULT_MEMBERSHIP_BUDGET,
) -> EnumerationReport:
    """Minimal generators of the sorted-word ideal of M, up to length ``cap``."""
    rows = tuple(m.exponents for m in nonunit_set(M, ord.n))
    if not rows:
        # the empty set generates the empty ideal: no word is a member
        _check_walk(cap, ord.n)
        return EnumerationReport(cap, (), True)
    return _count_walk(rows, ord.rank, cap, budget)


def preimage_report(
    M: Sequence[Monomial],
    cap: int,
    budget: int = DEFAULT_MEMBERSHIP_BUDGET,
) -> EnumerationReport:
    """Minimal generators of the preimage ideal of M, up to length ``cap``.

    Membership reads the counts of the whole word, which is one segment
    when every letter has the same rank.
    """
    ms = nonunit_set(M)
    if not ms:
        raise ValueError("preimage enumeration needs a nonempty monomial set")
    n = ms[0].n
    return _count_walk(tuple(m.exponents for m in ms), (0,) * n, cap, budget)


def finiteness_probe(M: Sequence[Monomial], ord: Ordering) -> bool:
    """Finiteness evidence for the sorted-word ideal, by exhaustion.

    Positive instances have all minimal generators within the completeness
    bound, so finding none beyond it (searching two letters past, to expose
    the pumped families of negative instances) decides finite generation at
    desk scale.
    """
    M = tuple(M)  # read twice below
    bound = complete_enumeration_bound(M, ord)
    report = sorted_ideal_report(M, ord, bound + 2)
    return all(len(w) <= bound for w in report.minimal_generators)
