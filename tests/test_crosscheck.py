import hashlib
import itertools
import random

import pytest

from monoideal.core import AlphabetMismatchError, Monomial
from monoideal.crosscheck import (
    _clause_canonical,
    _least_relabeling,
    antichains,
    permutation_canonical,
    quadratic_sets,
    representative_antichains,
    representative_cnf_instances,
    representative_nae_instances,
    representative_quadratic_sets,
)
from monoideal.polyhedral import SatInstance
from monoideal.torientation import NaeInstance

from conftest import M


@pytest.mark.parametrize(
    "n, degree, count", [(2, 3, 24), (3, 2, 28), (3, 3, 498), (4, 2, 118)]
)
def test_representative_antichain_counts(n, degree, count):
    assert sum(1 for _ in representative_antichains(n, degree)) == count


@pytest.mark.parametrize("n, count", [(2, 5), (3, 19), (4, 89)])
def test_representative_quadratic_set_counts(n, count):
    assert sum(1 for _ in representative_quadratic_sets(n)) == count


def test_representative_clause_instance_counts():
    assert sum(1 for _ in representative_cnf_instances(3, 2)) == 175
    assert sum(1 for _ in representative_nae_instances(3, 2)) == 297


def _permuted(members, perm):
    return tuple(Monomial(tuple(m.exponents[i] for i in perm)) for m in members)


def test_permutation_canonical_worked_example():
    # x^2 y and z: the least image puts z's column last, then 1 before 2
    assert permutation_canonical(M((2, 1, 0), (0, 0, 1)), 3) == (
        (0, 0, 1),
        (1, 2, 0),
    )


@pytest.mark.parametrize("members", list(itertools.islice(antichains(3, 3), 0, 2000, 97)))
def test_permutation_canonical_ignores_letter_names(members):
    canon = permutation_canonical(members, 3)
    for perm in itertools.permutations(range(3)):
        assert permutation_canonical(_permuted(members, perm), 3) == canon
    # the canonical form is a relabeling: each member keeps its exponents
    assert sorted(sorted(m.exponents) for m in members) == sorted(
        sorted(row) for row in canon
    )


def test_clause_canonical_renaming_and_signs():
    cnf = SatInstance(3, ((1, -2), (3,)))
    renamed = SatInstance(3, ((-3, 2), (1,)))  # 1 -> 2, 2 -> 3, 3 -> 1
    reordered = SatInstance(3, ((3,), (-2, 1)))
    flipped = SatInstance(3, ((-1, -2), (3,)))
    assert _clause_canonical(cnf) == _clause_canonical(renamed)
    assert _clause_canonical(cnf) == _clause_canonical(reordered)
    assert _clause_canonical(cnf) != _clause_canonical(flipped)

    nae = NaeInstance(3, ((1, -2, 3), (2, 2, -3)))
    nae_renamed = NaeInstance(3, ((-1, 2, 3), (1, 1, -3)))  # swap 1 and 2
    nae_flipped = NaeInstance(3, ((1, -2, 3), (-2, -2, -3)))
    assert _clause_canonical(nae) == _clause_canonical(nae_renamed)
    assert _clause_canonical(nae) != _clause_canonical(nae_flipped)


def _least_relabeling_by_rows(rows, n):
    """Referee: the per-row canonicalizer, one ``map`` per row and permutation."""
    return min(
        tuple(sorted(tuple(map(row.__getitem__, perm)) for row in rows))
        for perm in itertools.permutations(range(n))
    )


def _random_rows(rng, width, entry):
    rows = [tuple(entry() for _ in range(width)) for _ in range(rng.randint(1, 6))]
    # repeat some rows, so duplicates reach the canonicalizer
    return rows + rng.sample(rows, rng.randint(0, len(rows)))


def test_column_canonicalizer_matches_the_per_row_referee():
    rng = random.Random(20031)
    exponent = lambda: rng.randint(0, 2)
    # a clause row holds the (positive, negative) occurrence counts per variable
    occurrences = lambda: (rng.randint(0, 2), rng.randint(0, 1))
    cases = [([], n) for n in range(4)] + [([()] * k, 0) for k in range(4)]
    for n in range(1, 7):
        repeats = 40 if n < 6 else 6
        cases += [(_random_rows(rng, n, exponent), n) for _ in range(repeats)]
        cases += [(_random_rows(rng, n, occurrences), n) for _ in range(repeats // 2)]
    # quadratic sets drawn as the benchmark's search sweep draws them
    for _ in range(20):
        cases.append((_sweep_quadratic_rows(rng, 6), 6))
    # the rows of NAE clauses, as _clause_canonical builds them
    for v in (4, 5):
        for _ in range(10):
            clauses = [
                [rng.choice((1, -1)) * x for x in rng.sample(range(1, v + 1), 3)]
                for _ in range(rng.randint(1, 2 * v))
            ]
            rows = [tuple((c.count(x), c.count(-x)) for x in range(1, v + 1)) for c in clauses]
            cases.append((rows, v))
    # entries on both sides of 2^63, past any machine-word shortcut
    near_word = lambda: 2**63 + rng.randint(-2, 2)
    cases += [(_random_rows(rng, n, near_word), n) for n in (2, 3, 4, 5) for _ in range(5)]
    cases += [(_random_rows(rng, 7, exponent), 7) for _ in range(3)]
    for rows, n in cases:
        assert _least_relabeling(rows, n) == _least_relabeling_by_rows(rows, n), (rows, n)


def _sweep_quadratic_rows(rng, n):
    """Each square with probability 0.1, each product of two letters with 0.6."""
    squares = [tuple(2 * (i == x) for i in range(n)) for x in range(n) if rng.random() < 0.1]
    products = [
        tuple(int(i in pair) for i in range(n))
        for pair in itertools.combinations(range(n), 2)
        if rng.random() < 0.6
    ]
    return squares + products


def test_canonical_forms_are_pinned():
    # the benchmark's search sweep digests these values, so a faster
    # canonicalizer must return exactly the same least relabeling
    families = ((3, antichains(3, 3)), (4, antichains(4, 2)), (4, quadratic_sets(4)))
    canon = [permutation_canonical(members, n) for n, family in families for members in family]
    assert len(canon) == 2496 + 1336 + 1023
    assert hashlib.sha256(repr(canon).encode()).hexdigest() == (
        "9c49d35e74cac700ee1471fd676960a6751e7b2d308d4357de2dfaa2090ea10b"
    )


def test_permutation_canonical_checks_the_alphabet():
    # a and c over three letters: two columns would drop c's, so c read as the unit
    members = M((1, 0, 0), (0, 0, 1))
    for n in (2, 4):
        with pytest.raises(AlphabetMismatchError, match="monomial and alphabet sizes differ"):
            permutation_canonical(members, n)
    with pytest.raises(AlphabetMismatchError):
        permutation_canonical(M((1, 0, 0), (0, 1)), 3)
    assert permutation_canonical((), 3) == ()
    assert permutation_canonical(members, 3) == ((0, 0, 1), (0, 1, 0))
