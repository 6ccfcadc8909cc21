"""Finite generation of the sorted-word ideal of a monomial antichain.

Given an antichain ``M`` and a letter ordering, the word ideal generated by
the sorted words of all multiples of ``M`` is finitely generated exactly
when every internal letter of every member is "covered": some member has
that letter extremal and divides the first member once the letter is
erased.  This module decides that criterion, emits generating sets and
minimal generators, evaluates the size bound, and lifts the answer to the
leading-word data of a finite noncommutative Groebner basis.  The cover
rule is one tuple kernel, ``_cover_supports``, shared with ``cool_orderings``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le
from typing import Iterable, Sequence

from .core import (
    BudgetExceededError,
    Monomial,
    NotFinitelyGeneratedError,
    Ordering,
    Word,
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


@dataclass(frozen=True)
class FgWitness:
    """Decision plus, on a negative answer, the first failing pair."""

    verdict: bool
    violator: tuple[Monomial, int] | None = None


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


def _cover_supports(rows: Sequence[tuple], w: tuple, x: int) -> list[frozenset[int]]:
    """``supp(s) - {x}`` for each exponent row ``s`` holding ``x`` with ``erase(s, x) | w``."""
    # erase(s, x) | w exactly when s | w with the entry of x raised past every exponent
    cap = w[:x] + (math.inf,) + w[x + 1 :]
    return [
        frozenset(itertools.compress(range(len(s)), s)) - {x}
        for s in rows
        if s[x] and all(map(le, s, cap))
    ]


def _has_extremal_cover(cands: Iterable[frozenset[int]], before: set[int]) -> bool:
    """Whether a candidate is a subset of, or disjoint from, the letters ranked before ``x``."""
    return any(c <= before or c.isdisjoint(before) for c in cands)


def is_fg_sorted(M: Sequence[Monomial], ord: Ordering) -> FgWitness:
    """Decide finite generation of the sorted-word ideal of ``M``.

    ``M`` must be an antichain of nonunits.  The verdict is positive iff for
    every member ``w`` and every letter ``x`` internal to ``w`` some member
    has ``x`` extremal and, with ``x`` erased, divides ``w``.
    """
    ms = checked_antichain(M, ord.n)
    rows = [m.exponents for m in ms]
    seq = ord.sequence()
    for w in _scan_order(ms, ord):
        ranks = [ord.rank[y] for y, e in enumerate(w.exponents) if e]
        for r in range(min(ranks) + 1, max(ranks)):
            x = seq[r]
            if not _has_extremal_cover(_cover_supports(rows, w.exponents, x), set(seq[:r])):
                return FgWitness(False, (w, x))
    return FgWitness(True, None)


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
    the sorted-word ideal.  Defined exactly when the sorted-word ideal is
    finitely generated; errors and ``budget`` as in :func:`fg_generating_set`.
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
