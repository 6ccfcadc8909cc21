import itertools
import random

import pytest

from monoideal.core import (
    Monomial,
    MonoidealError,
    Ordering,
    all_orderings,
    support,
)
from monoideal.cool_orderings import (
    all_orderings_cool,
    closed_subset_check,
    find_cool_ordering,
    helps,
    is_cool,
    quadratic_graph,
    quadratic_to_support2,
    square_free_total_degree_guard,
    support_filter,
)
from monoideal.crosscheck import (
    check_quadratic_bridge,
    representative_antichains,
    representative_quadratic_sets,
)
from monoideal.torientation import ordering_to_orientation, is_valid_t_orientation
from monoideal.word_oracle import finiteness_probe

from conftest import M, internal_letters

AB2C_A3B = M((1, 2, 1), (3, 1, 0))


def quadratic_cool_by_triples(members, ord):
    """Independent formulation: x < y < z with xz present needs y^2, xy or yz."""
    n = ord.n
    present = {tuple(sorted(support(m))) * (2 - len(support(m)) + 1) for m in members}
    pairs = {tuple(sorted(support(m))) for m in members if len(support(m)) == 2}
    squares = {min(support(m)) for m in members if len(support(m)) == 1}
    seq = ord.sequence()
    for i, x in enumerate(seq):
        for j in range(i + 1, n):
            y = seq[j]
            for k in range(j + 1, n):
                z = seq[k]
                if tuple(sorted((x, z))) in pairs:
                    if (
                        y not in squares
                        and tuple(sorted((x, y))) not in pairs
                        and tuple(sorted((y, z))) not in pairs
                    ):
                        return False
    return True


def test_is_cool_examples():
    assert is_cool(AB2C_A3B, Ordering.from_sequence((1, 0, 2)))
    assert not is_cool(AB2C_A3B, Ordering.identity(3))
    for members in (M((2, 0), (1, 1)), M((3, 1),)):
        for ord in all_orderings(2):
            assert is_cool(members, ord)


def test_all_orderings_cool_examples():
    assert all_orderings_cool(M((2, 0, 0), (0, 1, 1)))
    assert not all_orderings_cool(AB2C_A3B)
    assert all_orderings_cool(M((1, 1, 0), (0, 1, 1)))


def test_all_orderings_cool_matches_exhaustive_scan():
    from monoideal.crosscheck import representative_antichains

    for n in (2, 3):
        for members in representative_antichains(n, 2):
            exhaustive = all(is_cool(members, ord) for ord in all_orderings(n))
            assert all_orderings_cool(members) == exhaustive, members


def test_word_oracle_referees_both_searches():
    # is_cool shares the cover kernel with both searches, so the word
    # oracle is the independent referee here
    for n, degree in [(3, 3), (4, 2)]:
        for members in representative_antichains(n, degree):
            probes = [finiteness_probe(members, ord) for ord in all_orderings(n)]
            assert find_cool_ordering(members, n).found == any(probes), members
            assert all_orderings_cool(members) == all(probes), members


def test_helps():
    # ba^3 helps b^2ac with a: era(ba^3, a) = b divides a b^2 c
    assert helps(Monomial((3, 1, 0)), Monomial((1, 2, 1)), 0)
    m = Monomial((1, 2, 1))
    assert not helps(m, m, 0)
    assert not helps(Monomial((0, 1, 1)), Monomial((1, 2, 1)), 0)


def test_closed_subset_check():
    members = M((2, 0, 0), (0, 1, 1))
    assert closed_subset_check(members, members)
    assert closed_subset_check(members, ())
    # a^2 helps bc with a (erasing a leaves 1), so {bc} alone is not closed
    assert helps(members[0], members[1], 0)
    assert not closed_subset_check(members, M((0, 1, 1)))
    # nothing helps a^2, so {a^2} is closed
    assert not any(helps(w, members[0], x) for w in members for x in range(3))
    assert closed_subset_check(members, M((2, 0, 0)))
    with pytest.raises(MonoidealError):
        closed_subset_check(members, M((1, 1, 1)))


def test_closed_subset_inherits_cool_orderings():
    from monoideal.crosscheck import representative_antichains

    for members in representative_antichains(3, 2):
        for size in range(1, len(members)):
            for sub in itertools.combinations(members, size):
                if not closed_subset_check(members, sub):
                    continue
                for ord in all_orderings(3):
                    if is_cool(members, ord):
                        assert is_cool(sub, ord), (members, sub)


def test_support_filter():
    seven = M(
        (0, 0, 3, 0, 0, 0, 0),
        (2, 0, 5, 0, 0, 2, 0),
        (0, 0, 1, 0, 0, 3, 1),
        (2, 2, 2, 0, 0, 0, 0),
    )
    assert support_filter(seven, 2) == M((0, 0, 3, 0, 0, 0, 0))
    assert support_filter(seven, 7) == seven
    assert support_filter(seven, 0) == ()


def test_quadratic_graph():
    g = quadratic_graph(M((1, 0, 1)), 3)
    assert set(g.edges) == {(0, 1), (1, 2)}
    assert g.tset == {0, 1, 2}
    full = [
        Monomial(tuple(e))
        for e in itertools.product(range(3), repeat=3)
        if sum(e) == 2
    ]
    g_full = quadratic_graph(full, 3)
    assert g_full.edges == () and g_full.tset == frozenset()
    g_empty = quadratic_graph((), 3)
    assert len(g_empty.edges) == 3 and g_empty.tset == {0, 1, 2}
    with pytest.raises(MonoidealError):
        quadratic_graph(M((1, 1, 1)), 3)


def test_quadratic_to_support2():
    assert quadratic_to_support2(M((2, 0), (1, 1))) == M((1, 1))
    pairs = M((1, 1, 0), (0, 1, 1))
    assert quadratic_to_support2(pairs) == pairs
    assert quadratic_to_support2(M((2, 0))) == M((2, 1))


def test_quadratic_to_support2_preserves_cool_orderings():
    for n in (2, 3, 4):
        for members in representative_quadratic_sets(n):
            image = quadratic_to_support2(members)
            for ord in all_orderings(n):
                got = is_cool(image, ord) if image else True
                assert is_cool(members, ord) == got, (members, ord)


def test_square_free_guard():
    assert not square_free_total_degree_guard(M((1, 1, 1)))
    assert square_free_total_degree_guard(M((1, 1, 0), (0, 0, 1)))
    assert square_free_total_degree_guard(())
    with pytest.raises(MonoidealError):
        square_free_total_degree_guard(M((2, 0, 0)))
    # degree three square-free really has no cool ordering
    assert not find_cool_ordering(M((1, 1, 1))).found


def test_find_cool_ordering_examples():
    res = find_cool_ordering(AB2C_A3B)
    assert res.found and is_cool(AB2C_A3B, res.ordering)

    family = M((1, 2, 0, 0), (1, 1, 2, 0), (1, 1, 1, 2))
    res = find_cool_ordering(family)
    assert res.found and is_cool(family, res.ordering)
    assert is_cool(family, Ordering.identity(4))

    # quadratic set whose graph is a five-cycle with T everything
    c5 = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    members = []
    for x, y in itertools.combinations(range(5), 2):
        if (x, y) not in c5:
            e = [0] * 5
            e[x] = e[y] = 1
            members.append(Monomial(tuple(e)))
    res = find_cool_ordering(members, 5)
    assert not res.found
    assert not any(is_cool(members, ord) for ord in all_orderings(5))


def test_quadratic_bridge_small():
    assert check_quadratic_bridge(2) == []
    assert check_quadratic_bridge(3) == []
    assert check_quadratic_bridge(4) == []


def test_quadratic_cool_equals_induced_orientation_validity():
    for members in representative_quadratic_sets(3):
        g = quadratic_graph(members, 3)
        for ord in all_orderings(3):
            induced_valid = is_valid_t_orientation(g, ordering_to_orientation(g, ord))
            assert is_cool(members, ord) == induced_valid


def test_quadratic_cool_equals_triple_formulation():
    for n in (3, 4):
        for members in representative_quadratic_sets(n):
            for ord in all_orderings(n):
                assert is_cool(members, ord) == quadratic_cool_by_triples(
                    members, ord
                ), (members, ord)


def test_max_degree_letter_never_internal():
    # letters attaining the global maximum degree cannot sit inside a member
    instances = [AB2C_A3B, M((2, 1, 0), (0, 2, 1)), M((1, 2, 0), (2, 0, 1))]
    for members in instances:
        res = find_cool_ordering(members)
        if not res.found:
            continue
        ord = res.ordering
        n = members[0].n
        for w in members:
            for x in internal_letters(w, ord):
                assert w.exponents[x] < max(m.exponents[x] for m in members)


def test_exponent_doubling_keeps_cool_set():
    rng = random.Random(5)
    from monoideal.crosscheck import representative_antichains

    for members in itertools.islice(representative_antichains(3, 3), 0, 400, 7):
        doubled = tuple(
            Monomial(tuple(2 * e for e in m.exponents)) for m in members
        )
        for ord in all_orderings(3):
            assert is_cool(members, ord) == is_cool(doubled, ord)


def test_search_agrees_with_exhaustive_scan_on_eight_letters():
    # one wide instance: the guard degree pattern blocks many orderings
    members = M(
        (1, 2, 0, 0, 0, 0, 0, 0),
        (0, 1, 2, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 2, 1, 1),
    )
    res = find_cool_ordering(members)
    exhaustive = any(is_cool(members, ord) for ord in all_orderings(8))
    assert res.found == exhaustive
    if res.found:
        assert is_cool(members, res.ordering)


def test_not_found_answers_are_exhaustive():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 5)
        pool = [
            Monomial(tuple(e))
            for e in itertools.product(range(4), repeat=n)
            if 0 < sum(e) <= 4
        ]
        members = []
        for cand in rng.sample(pool, rng.randint(1, 4)):
            from monoideal.core import divides

            if all(not divides(cand, c) and not divides(c, cand) for c in members):
                members.append(cand)
        res = find_cool_ordering(tuple(members), n)
        exhaustive = any(is_cool(tuple(members), ord) for ord in all_orderings(n))
        assert res.found == exhaustive, members
        if res.found:
            assert is_cool(tuple(members), res.ordering)
