import itertools

import pytest

from monoideal.core import Monomial, Ordering, Word, divides, extremal_internal, pi, support


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


def all_words_up_to(n_letters: int, cap: int):
    for length in range(cap + 1):
        for tup in itertools.product(range(n_letters), repeat=length):
            yield Word(tup)
