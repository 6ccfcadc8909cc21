"""Cross-check harness: every fast decision is refereed by brute force.

Sweep generators enumerate small antichains, quadratic sets, NAE and CNF
instances (optionally deduplicated up to letter or variable permutation,
which none of the checked predicates distinguish), and the check functions
return the list of disagreements found, empty when all is well.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .core import Monomial, all_orderings, divides, support
from .cool_orderings import (
    all_orderings_cool,
    find_cool_ordering,
    is_cool,
    quadratic_graph,
)
from .polyhedral import (
    SatInstance,
    brute_force_sat,
    reduction_is_negative,
    sat_reduction,
)
from .preimage import preimage_fg, preimage_fg_pairs, square_letters
from .sorted_ideal import is_fg_sorted
from .torientation import NaeInstance, nae3sat_brute, nae3sat_reduce, t_orientation_search
from .word_oracle import finiteness_probe


def nonunit_monomials(n: int, max_total_degree: int) -> tuple[Monomial, ...]:
    out = []
    for exps in itertools.product(range(max_total_degree + 1), repeat=n):
        if 0 < sum(exps) <= max_total_degree:
            out.append(Monomial(exps))
    return tuple(sorted(out, key=lambda m: m.exponents))


def antichains(n: int, max_total_degree: int) -> Iterable[tuple[Monomial, ...]]:
    """All nonempty antichains of nonunit monomials, by depth-first extension."""
    pool = nonunit_monomials(n, max_total_degree)

    def extend(chosen: list[Monomial], start: int):
        if chosen:
            yield tuple(chosen)
        for i in range(start, len(pool)):
            cand = pool[i]
            if all(
                not divides(cand, c) and not divides(c, cand) for c in chosen
            ):
                chosen.append(cand)
                yield from extend(chosen, i + 1)
                chosen.pop()

    yield from extend([], 0)


def _least_relabeling(rows: Sequence[tuple], n: int) -> tuple:
    """Least sorted image of the rows over all permutations of their n columns.

    The rows are transposed once; each permutation then rebuilds its rows
    from the permuted columns in one ``zip``.
    """
    if not (rows and n):
        return ((),) * len(rows)
    cols = list(zip(*rows))
    return tuple(
        min(
            sorted(zip(*map(cols.__getitem__, perm)))
            for perm in itertools.permutations(range(n))
        )
    )


def _representatives(items: Iterable, canonical) -> Iterable:
    """The first item of each class, in order; equal canonical forms share a class."""
    seen: set[tuple] = set()
    for item in items:
        canon = canonical(item)
        if canon not in seen:
            seen.add(canon)
            yield item


def permutation_canonical(M: Sequence[Monomial], n: int) -> tuple:
    """Least relabeling of the letters, for deduplication."""
    return _least_relabeling([m.exponents for m in M], n)


def representative_antichains(
    n: int, max_total_degree: int
) -> Iterable[tuple[Monomial, ...]]:
    return _representatives(
        antichains(n, max_total_degree), lambda M: permutation_canonical(M, n)
    )


def check_fg_vs_probe(n: int, max_total_degree: int) -> list:
    """Fast finite-generation criterion against the enumeration oracle."""
    bad = []
    for M in representative_antichains(n, max_total_degree):
        for ord in all_orderings(n):
            fast = is_fg_sorted(M, ord).verdict
            slow = finiteness_probe(M, ord)
            if fast != slow:
                bad.append((M, ord, fast, slow))
    return bad


def check_preimage_conditions(n: int, max_total_degree: int) -> list:
    """The two equivalent preimage criteria must agree everywhere."""
    bad = []
    for M in representative_antichains(n, max_total_degree):
        a = preimage_fg(M).verdict
        b = preimage_fg_pairs(M).verdict
        if a != b:
            bad.append((M, a, b))
    return bad


def check_preimage_implies_all_cool(n: int, max_total_degree: int) -> list:
    bad = []
    for M in representative_antichains(n, max_total_degree):
        if preimage_fg(M).verdict and not all_orderings_cool(M):
            bad.append(M)
    return bad


def check_squaring(n: int, max_total_degree: int) -> tuple[list, list]:
    """Behaviour of letter squaring on sets cool for every ordering.

    Returns two disagreement lists: squarings that lost the every-ordering
    property, and squarings whose preimage verdict does not match the exact
    law (finitely generated after squaring iff every letter already has a
    pure power).
    """
    lost_cool = []
    wrong_verdict = []
    for M in representative_antichains(n, max_total_degree):
        if not all_orderings_cool(M):
            continue
        sq = square_letters(M)
        if not all_orderings_cool(sq):
            lost_cool.append(M)
        every_letter_powered = all(
            any(support(m) == {z} for m in M) for z in range(n)
        )
        if preimage_fg(sq).verdict != every_letter_powered:
            wrong_verdict.append(M)
    return lost_cool, wrong_verdict


def quadratic_sets(n: int) -> Iterable[tuple[Monomial, ...]]:
    """Every set of quadratic monomials over n letters (always an antichain)."""
    # squares x*x first, then products x*y with x < y: the enumeration order
    # decides which set of each class is its representative
    letter_pairs = [(x, x) for x in range(n)] + list(itertools.combinations(range(n), 2))
    quads = [
        Monomial(tuple((i == x) + (i == y) for i in range(n))) for x, y in letter_pairs
    ]
    for size in range(1, len(quads) + 1):
        for combo in itertools.combinations(quads, size):
            yield combo


def representative_quadratic_sets(n: int) -> Iterable[tuple[Monomial, ...]]:
    return _representatives(quadratic_sets(n), lambda M: permutation_canonical(M, n))


def check_quadratic_bridge(n: int) -> list:
    """Search, exhaustive ordering scan, and graph orientation must agree."""
    bad = []
    for M in representative_quadratic_sets(n):
        search = find_cool_ordering(M).found
        exhaustive = any(is_cool(M, ord) for ord in all_orderings(n))
        graph = t_orientation_search(quadratic_graph(M, n)) is not None
        if not (search == exhaustive == graph):
            bad.append((M, search, exhaustive, graph))
    return bad


def _clause_sets(variable_count: int, max_clauses: int, clauses, make) -> Iterable:
    """Instances of 1..max_clauses distinct clauses, each clause's literals sorted."""
    pool = sorted({tuple(sorted(c)) for c in clauses})
    for count in range(1, max_clauses + 1):
        for chosen in itertools.combinations(pool, count):
            yield make(variable_count, chosen)


def _literals(variable_count: int) -> list[int]:
    return [l for v in range(1, variable_count + 1) for l in (v, -v)]


def _clause_canonical(inst: NaeInstance | SatInstance) -> tuple:
    """Least relabeling of the variables.

    A clause becomes the row of its (positive, negative) occurrence counts
    per variable, which forgets only the order of its literals.
    """
    variables = range(1, inst.variable_count + 1)
    rows = [tuple((c.count(v), c.count(-v)) for v in variables) for c in inst.clauses]
    return _least_relabeling(rows, inst.variable_count)


def nae_instances(
    variable_count: int, max_clauses: int
) -> Iterable[NaeInstance]:
    """All instances up to clause order and within-clause literal order."""
    clauses = itertools.combinations_with_replacement(_literals(variable_count), 3)
    return _clause_sets(variable_count, max_clauses, clauses, NaeInstance)


def representative_nae_instances(
    variable_count: int, max_clauses: int
) -> Iterable[NaeInstance]:
    return _representatives(
        nae_instances(variable_count, max_clauses), _clause_canonical
    )


def check_nae_reduction(variable_count: int, max_clauses: int) -> list:
    bad = []
    for inst in representative_nae_instances(variable_count, max_clauses):
        brute = nae3sat_brute(inst)
        reduced = t_orientation_search(nae3sat_reduce(inst)) is not None
        if brute != reduced:
            bad.append((inst, brute, reduced))
    return bad


# Literals a clause of an enumerated CNF may hold.
MAX_CLAUSE_SIZE = 3


def cnf_instances(variable_count: int, max_clauses: int) -> Iterable[SatInstance]:
    """All CNFs with distinct-literal clauses, up to clause and literal order."""
    literals = _literals(variable_count)
    clauses = (
        combo
        for size in range(1, MAX_CLAUSE_SIZE + 1)
        for combo in itertools.combinations(literals, size)
    )
    return _clause_sets(variable_count, max_clauses, clauses, SatInstance)


def representative_cnf_instances(
    variable_count: int, max_clauses: int
) -> Iterable[SatInstance]:
    return _representatives(cnf_instances(variable_count, max_clauses), _clause_canonical)


def check_sat_reduction(
    target: str, variable_count: int, max_clauses: int
) -> list:
    bad = []
    for inst in representative_cnf_instances(variable_count, max_clauses):
        sat = brute_force_sat(inst)
        negative = reduction_is_negative(sat_reduction(inst, target), target)
        if sat != negative:
            bad.append((inst, sat, negative))
    return bad


def run_all(
    letters: int, max_degree: int, quadratic_letters: int, nae_variables: int,
    nae_clauses: int, sat_variables: int, sat_clauses: int,
) -> dict:
    """Configurable battery behind ``monoideal crosscheck``, whose flags hold the defaults."""
    results = {}
    results["fg_vs_probe"] = len(check_fg_vs_probe(letters, max_degree))
    results["preimage_conditions"] = len(
        check_preimage_conditions(letters, max_degree)
    )
    results["preimage_implies_all_cool"] = len(
        check_preimage_implies_all_cool(letters, max_degree)
    )
    lost, wrong = check_squaring(letters, max_degree)
    results["squaring_keeps_all_cool"] = len(lost)
    results["squaring_verdict_law"] = len(wrong)
    results["quadratic_bridge"] = len(check_quadratic_bridge(quadratic_letters))
    results["nae_reduction"] = len(check_nae_reduction(nae_variables, nae_clauses))
    for target in ("mdois", "imfg"):
        results[f"sat_{target}"] = len(
            check_sat_reduction(target, sat_variables, sat_clauses)
        )
    return results
