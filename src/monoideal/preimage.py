"""Finite generation of the full preimage of a commutative monomial ideal.

The preimage of the ideal of an antichain ``M`` under abelianization is
finitely generated exactly when every member ``m`` and every letter ``z``
without a pure power in ``M`` satisfy: once ``z`` is erased from ``m`` at
degree two or more, some member ``z^r * t`` (support exactly ``{z, t}``,
``t`` to the first power) has ``t`` in the support of ``m``.  An equivalent
pairwise condition and the resulting degree bounds are provided as well.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import (
    Monomial,
    _some_row_divides,
    checked_antichain,
    monomial_set,
    sorted_monomials,
    support,
)
from .sorted_ideal import FgWitness


class PreimageWitness(FgWitness):
    __slots__ = ()


def _pair_members(M: Sequence[Monomial]) -> list[tuple[int, int]]:
    """(z, t) for members of shape z^r * t with t in the first power."""
    pairs = []
    for m in M:
        supp = sorted(support(m))
        if len(supp) != 2:
            continue
        a, b = supp
        if m.exponents[b] == 1:
            pairs.append((a, b))
        if m.exponents[a] == 1:
            pairs.append((b, a))
    return pairs


def preimage_fg(M: Sequence[Monomial]) -> PreimageWitness:
    """Decide finite generation of the preimage ideal (erasure form)."""
    ms = checked_antichain(M)
    pairs = _pair_members(ms)
    pure = {min(s) for s in map(support, ms) if len(s) == 1}
    n = ms[0].n if ms else 0
    for m in sorted_monomials(ms):
        supp_m = support(m)
        for z in range(n):
            if z in pure or m.degree - m.exponents[z] < 2:
                continue
            if not any(a == z and t in supp_m for a, t in pairs):
                return PreimageWitness(False, (m, z))
    return PreimageWitness(True, None)


def preimage_fg_pairs(M: Sequence[Monomial]) -> PreimageWitness:
    """Decide the same question through the pairwise divisibility form.

    For every member ``m``, letters ``x, y`` with ``x*y`` dividing ``m``
    (``x == y`` allowed) and every third letter ``z``, some member with
    ``z`` erased must divide ``m/x`` or ``m/y``.
    """
    ms = checked_antichain(M)
    rows = [m.exponents for m in ms]
    n = ms[0].n if ms else 0
    for m in sorted_monomials(ms):
        supp_m = sorted(support(m))
        pairs_xy = []
        for x in supp_m:
            for y in supp_m:
                if x < y or (x == y and m.exponents[x] >= 2):
                    pairs_xy.append((x, y))
        for z in range(n):
            for x, y in pairs_xy:
                if z == x or z == y:
                    continue
                if _pair_condition(rows, m.exponents, x, y, z):
                    continue
                return PreimageWitness(False, (m, z))
    return PreimageWitness(True, None)


def _pair_condition(
    rows: Sequence[tuple[int, ...]], m: tuple[int, ...], x: int, y: int, z: int
) -> bool:
    """Whether some row with ``z`` erased divides ``m/x`` or ``m/y``."""
    # erase(s, z) | t exactly when s | t with the entry of z raised past every exponent
    cap = list(m)
    cap[z] = math.inf
    return any(_some_row_divides(rows, cap[:a] + [cap[a] - 1] + cap[a + 1 :]) for a in {x, y})


def preimage_degree_bounds(M: Sequence[Monomial]) -> tuple[int, ...]:
    """Per-letter degree bounds from the support-size-two members.

    On positive instances the preimage ideal is generated by the words
    whose letter counts stay within these bounds.
    """
    ms = monomial_set(M)
    if not ms:
        return ()
    n = ms[0].n
    small = [m for m in ms if len(support(m)) <= 2]
    return tuple(max((m.exponents[x] for m in small), default=0) for x in range(n))


def square_letters(M: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Substitute each letter by its square: double every exponent."""
    return tuple(Monomial(2 * e for e in m.exponents) for m in monomial_set(M))
