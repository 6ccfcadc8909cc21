"""Finite generation of the sorted-word ideal of a monomial antichain.

Given an antichain ``M`` and a letter ordering, the word ideal generated by
the sorted words of all multiples of ``M`` is finitely generated exactly
when every internal letter of every member is "covered": some member has
that letter extremal and divides the first member once the letter is
erased.  This module decides that criterion, emits generating sets and
minimal generators, evaluates the size bound, and lifts the answer to the
leading-word data of a finite noncommutative Groebner basis.  Whether a
member's letter is covered depends only on which letters come before it, so
each antichain gets one step table (``_StepTable``), which states the cover
rule once: the cover candidates of each (member, letter) pair as letter
bitmasks, built when first asked for, and a bounded memo of step verdicts.
``is_fg_sorted`` reads it for a witness, and ``cool_orderings`` reads it to
test and search orderings.
"""

from __future__ import annotations

import itertools
import math
from operator import is_
from typing import Iterable, Sequence

from .core import (
    BudgetExceededError,
    Monomial,
    NotFinitelyGeneratedError,
    Ordering,
    Word,
    _Frozen,
    _extremal_scan,
    _letter_strings,
    _some_row_divides,
    checked_antichain,
    extremal_internal,
    monomial_set,
    sigma,
    sorted_words,
)

# Letters a generating set may hold before it is refused unbuilt.
DEFAULT_LETTER_BUDGET = 10_000_000


class FgWitness(_Frozen):
    """Decision plus, on a negative answer, the first failing pair."""

    __slots__ = ("verdict", "violator")
    __match_args__ = ("verdict", "violator")
    verdict: bool
    violator: tuple[Monomial, int] | None

    def __init__(self, verdict: bool, violator: tuple[Monomial, int] | None = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "violator", violator)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.verdict == other.verdict and self.violator == other.violator
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.verdict, self.violator))


def _scan_order(M: Sequence[Monomial], ord: Ordering) -> list[Monomial]:
    # Members are scanned by their sorted word, lexicographically in rank;
    # this reproduces the reference violators independently of input order.
    # The words are compared run by run without being built: a shorter run
    # of a letter comes first when the word ends there, and last when a
    # later letter follows it, so exponents may be arbitrarily large.
    seq = ord.sequence()

    def key(m: Monomial) -> list[tuple[int, int]]:
        out = []
        ended = True  # no later run is nonzero
        for x in reversed(seq):
            e = m.exponents[x]
            out.append((0, e) if ended else (1, -e))
            ended = ended and not e
        return out[::-1]

    return sorted(M, key=key)


def is_fg_sorted(M: Sequence[Monomial], ord: Ordering) -> FgWitness:
    """Decide finite generation of the sorted-word ideal of ``M``.

    ``M`` must be an antichain of nonunits.  The verdict is positive iff for
    every member ``w`` and every letter ``x`` internal to ``w`` some member
    has ``x`` extremal and, with ``x`` erased, divides ``w``.  On a negative
    verdict the violator is the first such pair: members in the order of
    their sorted words, lexicographic in rank, and their letters by rank.
    """
    table = _step_table(tuple(M), ord.n)
    rank, seq = ord.rank, ord.sequence()
    below = [0]  # below[r]: the letters ranked below r, as a bitmask
    for x in seq:
        below.append(below[-1] | 1 << x)
    for w in _scan_order(table.members, ord):
        i = table.index[w.exponents]
        ranks = list(itertools.compress(rank, w.exponents))
        for r in range(min(ranks) + 1, max(ranks)):
            if not table.covered(i, seq[r], below[r]):
                return FgWitness(False, (w, seq[r]))
    return FgWitness(True)


# Step verdicts one table remembers; past this many it computes the rest
# each time, so a scan over many orderings of many letters stays bounded.
_STEP_MEMO_CAP = 1 << 16


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class _StepTable:
    """The ordering-free facts of a checked antichain over ``n`` letters.

    Member ``i`` has a cover at letter ``x`` when some member holding ``x``
    divides it once ``x`` is erased and has its other letters all before
    ``x`` or all after it (:meth:`covered`).  Letter ``x`` may follow the
    placed letters (a bitmask) when each member to which it is then
    internal, holding a placed letter and a letter placed later, has a cover
    at ``x`` (:meth:`passes`); an ordering is cool iff each of its steps passes.
    """

    def __init__(self, M: tuple[Monomial, ...], n: int):
        self.n = n
        self.members = checked_antichain(M, n)
        self.rows = [m.exponents for m in self.members]
        self.index = {s: i for i, s in enumerate(self.rows)}
        bits = [1 << y for y in range(n)]
        self.supports = [sum(itertools.compress(bits, s)) for s in self.rows]
        # _holders[x]: the rows holding x, filed when x is first asked about
        self._holders: list[dict[int, list[list[tuple[int, int]]]] | None] = [None] * n
        # _covers[x][i]: the cover masks of member i at x, once asked for
        self._covers: list[dict[int, list[int]]] = [{} for _ in range(n)]
        self.steps: dict[int, bool] = {}

    def holders(self, x: int) -> dict[int, list[list[tuple[int, int]]]]:
        """The rows holding ``x``, filed under their letter mask less ``x``,
        each as its entries above 1 off ``x``: a row whose mask lies inside a
        member's support divides it off ``x`` unless one of those is too large."""
        filed = self._holders[x]
        if filed is None:
            filed = self._holders[x] = {}
            bit = 1 << x
            for s, supp in zip(self.rows, self.supports):
                if supp & bit:
                    high = [(y, e) for y, e in enumerate(s) if e > 1 and y != x]
                    filed.setdefault(supp & ~bit, []).append(high)
        return filed

    def covers(self, i: int, x: int) -> list[int]:
        """The distinct letter masks, less ``x``, of the rows holding ``x``
        that divide member ``i`` once ``x`` is erased."""
        masks = self._covers[x].get(i)
        if masks is None:
            w, holders = self.rows[i], self.holders(x)
            # a cover's other letters lie in the member's support; the fewer
            # of its submasks and the filed masks are tried
            room = self.supports[i] & ~(1 << x)
            if 1 << room.bit_count() < len(holders):
                masks = [c for c in _submasks(room) if c in holders]
            else:
                masks = [c for c in holders if c & room == c]
            masks = self._covers[x][i] = [
                c for c in masks if any(all(w[y] >= e for y, e in high) for high in holders[c])
            ]
        return masks

    def covered(self, i: int, x: int, placed: int) -> bool:
        """Whether member ``i`` has a cover at ``x`` when the letters of the
        bitmask ``placed`` come before ``x`` and the others after it."""
        return any(c & placed == c or not c & placed for c in self.covers(i, x))

    def passes(self, placed: int, x: int) -> bool:
        """Whether ``x`` may follow the letters of the bitmask ``placed``."""
        key = placed * self.n + x
        verdict = self.steps.get(key)
        if verdict is None:
            later = ~(placed | 1 << x)
            verdict = all(
                self.covered(i, x, placed)
                for i, supp in enumerate(self.supports)
                if supp & placed and supp & later  # x is internal to member i
            )
            if len(self.steps) < _STEP_MEMO_CAP:
                self.steps[key] = verdict
        return verdict


# The set last asked about: its members as given, their exponent rows, the
# letter count and the set's table.
_last: tuple = ((), (), -1, None)


def _step_table(M: tuple[Monomial, ...], n: int) -> _StepTable:
    """The step table of the set last asked about; a failed check is not kept.

    The members are compared with the last set's by identity first, in one
    pass in C, and then by their exponent rows, so no member hash runs.
    """
    global _last
    given, rows, size, table = _last
    if size == n and len(M) == len(given) and all(map(is_, M, given)):
        return table
    key = tuple(m.exponents for m in M)
    if size != n or key != rows:
        table = _StepTable(M, n)
    _last = M, key, n, table
    return table


def fg_generating_set(
    M: Sequence[Monomial], ord: Ordering, budget: int = DEFAULT_LETTER_BUDGET
) -> tuple[Word, ...]:
    """The finite generating set: each member padded by internal letters.

    Member ``w`` contributes the sorted words of ``w * u`` where ``u`` runs
    over products of letters internal to ``w`` and the total degree of each
    internal letter ``x`` stays below the extremal maximum ``r_x(M)``.
    A negative :func:`is_fg_sorted` decision raises
    :class:`NotFinitelyGeneratedError` carrying it as ``witness``.  A set
    that may hold more than ``budget`` letters (:func:`generator_count_bound`
    times :func:`complete_enumeration_bound`) is refused before it is built.
    """
    ms = monomial_set(M)
    witness = is_fg_sorted(ms, ord)
    if not witness.verdict:
        raise NotFinitelyGeneratedError(
            "the sorted-word ideal is not finitely generated under this ordering", witness
        )
    r, internal_sets = _extremal_scan(ms, ord)
    letters = _count_bound(ms, r, internal_sets) * _length_bound(ms, r, internal_sets)
    if letters > budget:
        raise BudgetExceededError(
            f"the generating set may hold up to {letters} letters, "
            f"past the budget of {budget}"
        )
    words: list[Word] = []
    for w, internal in zip(ms, internal_sets):
        internals = sorted(internal)
        ranges = [range(r[x] - w.exponents[x]) for x in internals]
        for extras in itertools.product(*ranges):
            e = list(w.exponents)
            for x, extra in zip(internals, extras):
                e[x] += extra
            words.append(sigma(Monomial(tuple(e)), ord))
    return sorted_words(words)


def minimal_word_generators(S: Iterable[Word]) -> tuple[Word, ...]:
    """Members of ``S`` having no proper factor in ``S``.

    Words are taken shortest first and each is compared with the shorter
    words kept so far only: a proper factor is shorter, and when it is not
    kept it has a kept factor of its own, which is then a factor of the word.
    """
    words = sorted_words(S)
    out: list[Word] = []
    kept: list[str] = []
    for w, text in zip(words, _letter_strings(words)):
        if not any(len(k) < len(text) and k in text for k in kept):
            out.append(w)
            kept.append(text)
    return tuple(out)


def eps_minimal_generators(
    M: Sequence[Monomial], ord: Ordering, length_cap: int
) -> tuple[Word, ...]:
    """Minimal generators by the antichain description, up to a length cap.

    Emits the sorted words of ``m * u`` with ``u`` a product of letters
    internal to ``m`` such that erasing one copy of either extremal letter
    of ``m`` leaves the ideal.  When the ideal is finitely generated and the
    cap dominates the completeness bound, this is the whole minimal
    generating set; otherwise it is the truncation to short words.  When
    the candidates, times ``length_cap`` letters each, could pass
    ``DEFAULT_LETTER_BUDGET`` letters, :class:`BudgetExceededError` is
    raised before any is examined.
    """
    ms = checked_antichain(M, ord.n)
    rows = [m.exponents for m in ms]
    extremal = [extremal_internal(m, ord) for m in ms]
    # k-vectors with sum <= L number comb(k + L, k)
    candidates = sum(
        math.comb(len(internal) + length_cap - m.degree, len(internal))
        for m, (_, _, internal) in zip(ms, extremal)
        if m.degree <= length_cap
    )
    if candidates * length_cap > DEFAULT_LETTER_BUDGET:
        raise BudgetExceededError(
            f"the enumeration may examine up to {candidates * length_cap} letters, "
            f"past the budget of {DEFAULT_LETTER_BUDGET}"
        )
    out: list[Word] = []
    for m, (lo, hi, internal) in zip(ms, extremal):
        internals = sorted(internal)
        for extras in _bounded_vectors(len(internals), length_cap - m.degree):
            e = list(m.exponents)
            for x, extra in zip(internals, extras):
                e[x] += extra
            # a generator leaves the ideal when one copy of either extremal letter goes
            shaved = (e[:x] + [e[x] - 1] + e[x + 1 :] for x in {lo, hi})
            if not any(_some_row_divides(rows, s) for s in shaved):
                out.append(sigma(Monomial(tuple(e)), ord))
    return sorted_words(out)


def _bounded_vectors(k: int, total: int):
    """All k-vectors of nonnegative integers with sum <= total; none when total < 0."""
    if k == 0:
        if total >= 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _bounded_vectors(k - 1, total - head):
            yield (head,) + tail


def generator_count_bound(M: Sequence[Monomial], ord: Ordering) -> int:
    """Upper bound on the number of generators when the ideal is finite."""
    ms = monomial_set(M)
    return _count_bound(ms, *_extremal_scan(ms, ord))


def _count_bound(
    ms: Sequence[Monomial], r: Sequence[int], internals: Sequence[frozenset[int]]
) -> int:
    with_internal = [i for i in internals if i]
    product = 1
    for x in set().union(*with_internal):
        product *= r[x]
    return len(with_internal) * product + len(ms) - len(with_internal)


def tight_family(m: int, r: Sequence[int]) -> tuple[Monomial, ...]:
    """The family attaining the generator-count bound exactly.

    Over ``n = len(r) + 2`` letters: the binomials ``x1^(i+1) * xn^(m-i)``
    for ``0 <= i < m`` plus the pure powers ``x_j^(r_j)`` of the middle
    letters.
    """
    if m < 1 or any(ri < 1 for ri in r):
        raise ValueError("m and all middle exponents must be positive")
    n = len(r) + 2
    out = []
    for i in range(m):
        e = [0] * n
        e[0] = i + 1
        e[n - 1] = m - i
        out.append(Monomial(tuple(e)))
    for j, rj in enumerate(r):
        e = [0] * n
        e[j + 1] = rj
        out.append(Monomial(tuple(e)))
    return tuple(out)


def commutator_leading_words(ord: Ordering) -> tuple[Word, ...]:
    """Leading words ``xy`` (with ``x`` after ``y``) of the commutators."""
    seq = ord.sequence()
    words = []
    for i, y in enumerate(seq):
        for x in seq[i + 1 :]:
            words.append(Word((x, y)))
    return sorted_words(words)


def groebner_lift(
    M: Sequence[Monomial], ord: Ordering, budget: int = DEFAULT_LETTER_BUDGET
) -> tuple[Word, ...]:
    """Leading-word set of a finite Groebner basis of the lifted ideal.

    The commutator leading words together with the minimal generators of
    the sorted-word ideal.  The basis is not interreduced: a commutator
    word stays when a generator is a factor of it, so M = {b} under
    a < b gives ``b`` and ``b a``.  Defined exactly when the sorted-word
    ideal is finitely generated; errors and ``budget`` as in
    :func:`fg_generating_set`.
    """
    gens = minimal_word_generators(fg_generating_set(M, ord, budget))
    return sorted_words(commutator_leading_words(ord) + gens)


def complete_enumeration_bound(M: Sequence[Monomial], ord: Ordering) -> int:
    """Length bound covering every minimal generator on positive instances.

    When the finite-generation criterion holds, every minimal generator is
    a sorted word of some ``w * u`` with ``u`` supported on the internal
    letters of ``w`` and the degree of each internal ``x`` capped by
    ``r_x(M) - 1``.  Its length is therefore at most
    ``deg(w) + sum_x (r_x(M) - 1 - deg_x(w)) <= deg(w) + sum_x (r_x(M) - 1)``,
    and the maximum of the right-hand side over ``w`` bounds all of them.
    On a negative instance it bounds nothing and can fall below a member's
    degree: an internal letter that is never extremal has ``r_x(M) = 0``,
    so {a e^2} under a < b < c < d < e gives 0.
    """
    ms = monomial_set(M)
    return _length_bound(ms, *_extremal_scan(ms, ord))


def _length_bound(
    ms: Sequence[Monomial], r: Sequence[int], internals: Sequence[frozenset[int]]
) -> int:
    best = 0
    for w, internal in zip(ms, internals):
        total = w.degree
        for x in internal:
            total += r[x] - 1
        best = max(best, total)
    return best
