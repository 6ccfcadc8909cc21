import itertools
import math
from operator import le
from typing import Sequence

import pytest

from monoideal.core import (
    Monomial,
    Ordering,
    Word,
    _some_row_divides,
    checked_antichain,
    divides,
    extremal_internal,
    pi,
    support,
)
from monoideal.sorted_ideal import FgWitness, _scan_order


def M(*vectors) -> tuple[Monomial, ...]:
    return tuple(Monomial(tuple(v)) for v in vectors)


def W(*seqs) -> tuple[Word, ...]:
    return tuple(Word(tuple(s)) for s in seqs)


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
