"""Brute-force ground truth for word-ideal questions.

Membership tests for the two word ideals attached to a monomial set, a
bounded enumeration of minimal word generators driven by any factor-closed
membership predicate, and an exact finiteness probe that cross-checks the
fast finite-generation criterion.  The enumerations of the two word ideals
carry letter counts with each stem instead of calling the membership
tests, which stay their referee in the tests.  They walk words depth first,
as they return words, while the probe walks levels of pairs of states and
stops at the period of those levels, with no length cap; both read
minimality off the pair of a stem's state and its tail's, and expand only
the pairs whose two states differ.  Everything here is independent of the
fast decision procedures so it can referee them: the count walks decide
dominance on their own per-letter row masks, and the ``word_in_*`` tests
decide it with ``divides``.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import and_, getitem
from typing import Callable, Sequence

from .core import (
    BudgetExceededError,
    Monomial,
    Ordering,
    Word,
    _Frozen,
    divides,
    nonunit_set,
    pi,
    sorted_words,
)

DEFAULT_MEMBERSHIP_BUDGET = 20_000_000


class EnumerationReport(_Frozen):
    """Outcome of a bounded minimal-generator enumeration.

    ``saturated`` records whether the top half of the searched length range
    (lengths strictly above ``cap // 2 + 1``) contained no minimal
    generator; an unsaturated report is evidence that generators keep
    appearing near the cap.
    """

    __slots__ = __match_args__ = ("cap", "minimal_generators", "saturated")
    cap: int
    minimal_generators: tuple[Word, ...]
    saturated: bool

    def __init__(self, cap: int, minimal_generators: tuple[Word, ...], saturated: bool):
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "minimal_generators", tuple(minimal_generators))
        object.__setattr__(self, "saturated", saturated)


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


def _pairs(successors, root, state, tail):
    """Letter by letter, the successors of a stem's state and of its tail's
    (the stem less its first letter; None for the empty stem, and the root
    for a one-letter stem).  ``stem + z`` is a minimal generator exactly
    when the stem's successor on ``z`` is a member (None) and the tail's is
    not."""
    return zip(successors(state), successors(tail) if tail is not None else repeat(root))


def _walk(
    root: object,
    successors: Callable[[object], Sequence[object]],
    alphabet_size: int,
    cap: int,
    budget: int,
) -> EnumerationReport:
    """Depth-first walk over the non-members of a factor-closed word ideal.

    Non-members are closed under factors, so only non-members are
    extended.  ``root`` is the state of the empty word, and
    ``successors(state)`` the state of each one-letter extension, None for
    a member.  Each stem on the stack carries its state and its tail's, and
    the stack holds only the stems beside the current path.  A stem whose
    state equals its tail's is not extended: equal states have equal
    successors on every suffix, and an emission needs the stem's successor
    to be a member and the tail's not, so no extension of it can emit.
    Each expanded stem counts as one membership test per letter against
    ``budget`` (the empty word as one more); the walk raises once the count
    passes it, naming the length then under test.
    """
    _check_walk(cap, alphabet_size)
    tests = 1
    if tests > budget:
        raise BudgetExceededError(
            f"membership budget of {budget} tests exceeded at length 0"
        )
    if root is None:
        return EnumerationReport(cap, (Word(()),), True)

    found: list[Word] = []
    stack = [((), root, None)] if cap else []
    while stack:
        stem, state, tail = stack.pop()
        tests += alphabet_size
        if tests > budget:
            raise BudgetExceededError(
                f"membership budget of {budget} tests exceeded at length {len(stem) + 1}"
            )
        for z, (s, t) in enumerate(_pairs(successors, root, state, tail)):
            w = stem + (z,)
            if s is None:
                if t is not None:
                    found.append(Word(w))
            elif len(w) < cap and s != t:
                stack.append((w, s, t))
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
    enumeration walks the tree of non-members depth first, with the stem
    itself as its state, so no stem's state equals its tail's and every
    non-member shorter than ``cap`` is expanded.  A stem is asked about
    again as the tail of a longer one, so each stem's row is kept, and
    ``membership`` is still asked about each one-letter extension once.
    """
    _check_walk(cap, alphabet_size)
    rows: dict[tuple[int, ...], list[object]] = {}

    def successors(stem):
        row = rows.get(stem)
        if row is None:
            row = rows[stem] = [
                None if membership(Word(stem + (z,))) else stem + (z,)
                for z in range(alphabet_size)
            ]
        return row

    root = None if membership(Word(())) else ()
    return _walk(root, successors, alphabet_size, cap, budget)


def _count_states(rows: tuple[tuple[int, ...], ...], rank: Sequence[int]):
    """The empty word's count state, and the successor table of the states.

    A state carries the letter counts of a non-member's trailing maximal
    sorted segment under ``rank``.  Every segment before the last one
    already fails, so ``u + z`` is a member exactly when the trailing
    segment, extended by ``z``, dominates a row.  A state is the rank of
    the last letter with the counts of that segment; the counts restart
    when ``z`` ranks below it.  Under an ordering the ranks are distinct,
    and under the preimage (every rank equal) the states of all last
    letters merge.  Counts are capped at the largest exponent of their
    letter in the rows, which decides the same dominance and keeps the
    states few.  Dominance is read off row masks: ``below[y][k]`` holds the
    rows whose entry at ``y`` is at most ``k``, and a count vector
    dominates a row when its masks share one.  Each list grows by one entry
    when a count first reaches a new value, so the masks are bounded by the
    counts reached, never by the exponents.  ``successors(state)``,
    computed once per state, lists the state of each one-letter extension,
    None for a member.
    """
    n = len(rank)
    top = tuple(map(max, zip(*rows)))
    zero = (0,) * n
    table: dict[object, list[object]] = {}

    def within(y, k):
        return sum(1 << i for i, r in enumerate(rows) if r[y] <= k)

    below = [[within(y, 0)] for y in range(n)]

    def successors(state):
        row = table.get(state)
        if row is None:
            level, counts = state
            row = table[state] = []
            for z in range(n):
                c = zero if rank[z] < level else counts
                k = c[z]
                if k < top[z]:
                    k += 1
                    c = c[:z] + (k,) + c[z + 1 :]
                    if k == len(below[z]):
                        below[z].append(within(z, k))
                row.append(None if reduce(and_, map(getitem, below, c)) else (rank[z], c))
        return row

    return (min(rank), zero), successors


def _pair_walk(rows, rank: Sequence[int], budget: int) -> bool:
    """Whether the sorted-word ideal of ``rows`` under ``rank`` (the
    preimage ideal when every rank is equal) has finitely many minimal
    generators: a walk over levels of pairs of count states, of a
    non-member stem and of its tail, read by ``_pairs``.  A pair of equal
    states is left out of the next level: equal states have equal
    successors on every suffix, so no extension of it can emit, which
    needs the stem's successor to be a member and the tail's not.  Each
    level is still a function of the one before it and decides which
    lengths emit, so the levels are eventually periodic; the walk stops at
    the first level seen twice, and the generators are finite exactly when
    the period emits none.  Tests count against ``budget`` as in ``_walk``,
    one per (pair, letter) of each level.
    """
    root, successors = _count_states(rows, rank)
    # the empty word counts as one test, and is each one-letter word's tail
    tests, level, length = 1, frozenset({(root, None)}), 0
    seen: dict[frozenset, int] = {}
    last_emission = 0
    while level not in seen:
        seen[level] = length
        length += 1
        tests += len(level) * len(rank)
        if tests > budget:
            raise BudgetExceededError(
                f"membership budget of {budget} tests exceeded at length {length}"
            )
        following = set()
        for stem, tail in level:
            for s, t in _pairs(successors, root, stem, tail):
                if s is None:
                    if t is not None:
                        last_emission = length
                elif s != t:
                    following.add((s, t))
        level = frozenset(following)
    # a level of length-l stems emits generators of length l + 1, so the
    # period emits none when the last emission is no longer than its start
    return last_emission <= seen[level]


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
    return _walk(*_count_states(rows, ord.rank), ord.n, cap, budget)


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
    return _walk(*_count_states(tuple(m.exponents for m in ms), (0,) * n), n, cap, budget)


def finiteness_probe(M: Sequence[Monomial], ord: Ordering) -> bool:
    """Finite generation of the sorted-word ideal, decided by exhaustion.

    The walk over pairs of count states stops at the period of its levels,
    so it is exact with no length cap and reads nothing of the criterion
    it referees.
    """
    rows = tuple(m.exponents for m in nonunit_set(M, ord.n))
    return not rows or _pair_walk(rows, ord.rank, DEFAULT_MEMBERSHIP_BUDGET)
