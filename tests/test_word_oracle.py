import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoideal.core import (
    BudgetExceededError,
    Monomial,
    Ordering,
    UnitMonomialError,
    Word,
    all_orderings,
    antichain_reduce,
    divides,
    pi,
    sigma,
    sort_word,
    word_is_factor,
)
from monoideal.crosscheck import antichains, representative_antichains
from monoideal.sorted_ideal import complete_enumeration_bound, is_fg_sorted
from monoideal.word_oracle import (
    EnumerationReport,
    _pair_walk,
    enumerate_minimal_generators,
    finiteness_probe,
    preimage_report,
    sorted_ideal_report,
    word_in_preimage,
    word_in_sorted_ideal,
)

from conftest import M, W, all_words_up_to, naive_sorted_ideal_member

AB2C_A3B = M((1, 2, 1), (3, 1, 0))
IDENT3 = Ordering.identity(3)
BAC = Ordering.from_sequence((1, 0, 2))


def test_sorted_membership_examples():
    # a b^5 c contains the pumped pattern of a b^2 c
    assert word_in_sorted_ideal(Word((0, 1, 1, 1, 1, 1, 2)), M((1, 2, 1)), IDENT3)
    # b a c abelianizes below both members
    assert not word_in_sorted_ideal(Word((1, 0, 2)), AB2C_A3B, IDENT3)
    for m in AB2C_A3B:
        assert word_in_sorted_ideal(sigma(m, BAC), AB2C_A3B, BAC)


def test_sorted_membership_pumps_missing_internal_letters():
    # under a < c < b the sorted words of multiples of a^3 b include a^3 c^n b
    acb = Ordering.from_sequence((0, 2, 1))
    m = M((3, 1, 0))
    assert word_in_sorted_ideal(Word((0, 0, 0, 2, 1)), m, acb)
    assert word_in_sorted_ideal(Word((0, 0, 0, 2, 2, 2, 1)), m, acb)
    # but not under a < b < c, where c follows b
    assert not word_in_sorted_ideal(Word((0, 0, 0, 2, 1)), m, IDENT3)


def test_sorted_membership_matches_naive_factor_scan():
    words = list(all_words_up_to(3, 6))
    for ord in (IDENT3, BAC, Ordering.from_sequence((0, 2, 1))):
        for u in words:
            assert word_in_sorted_ideal(u, AB2C_A3B, ord) == naive_sorted_ideal_member(
                u, AB2C_A3B, ord
            )


def test_preimage_membership_examples():
    xx = M((2, 0))
    assert word_in_preimage(Word((0, 1, 1, 1, 0)), xx)
    assert not word_in_preimage(Word((0, 1, 1, 1)), xx)
    assert not word_in_preimage(Word(()), xx)


def test_unit_member_rejected():
    with pytest.raises(UnitMonomialError):
        word_in_preimage(Word((0,)), M((0, 0)))
    with pytest.raises(UnitMonomialError):
        word_in_sorted_ideal(Word((0,)), M((0, 0)), Ordering.identity(2))


small_words = st.lists(st.integers(0, 2), max_size=6).map(lambda l: Word(tuple(l)))


@given(small_words, small_words, small_words)
def test_factor_monotone(u, left, right):
    wrapped = Word(left.letters + u.letters + right.letters)
    if word_in_sorted_ideal(u, AB2C_A3B, BAC):
        assert word_in_sorted_ideal(wrapped, AB2C_A3B, BAC)
    if word_in_preimage(u, AB2C_A3B):
        assert word_in_preimage(wrapped, AB2C_A3B)


@given(small_words)
def test_sorted_ideal_subset_of_preimage(u):
    if word_in_sorted_ideal(u, AB2C_A3B, BAC):
        assert word_in_preimage(u, AB2C_A3B)


@given(small_words)
def test_sorted_word_membership_collapses_to_divisibility(u):
    s = sort_word(u, BAC)
    expected = any(divides(m, pi(s, 3)) for m in AB2C_A3B)
    assert word_in_sorted_ideal(s, AB2C_A3B, BAC) == expected


def test_enumeration_preimage_of_square():
    report = preimage_report(M((2, 0)), 6)
    assert report.minimal_generators == W(
        (0, 0), (0, 1, 0), (0, 1, 1, 0), (0, 1, 1, 1, 0), (0, 1, 1, 1, 1, 0)
    )
    assert report.saturated is False


def test_enumeration_sorted_example():
    report = sorted_ideal_report(AB2C_A3B, BAC, 8)
    assert report.minimal_generators == W(
        (1, 0, 0, 0), (1, 1, 0, 2), (1, 1, 0, 0, 2)
    )
    assert report.saturated is True


def test_enumeration_single_word_ideal():
    w = Word((0, 1, 0))

    def member(u: Word) -> bool:
        return word_is_factor(w, u)

    for cap in range(3, 9):
        report = enumerate_minimal_generators(member, 2, cap)
        assert report.minimal_generators == (w,)
        if cap >= 2 * len(w.letters):
            assert report.saturated


def test_enumeration_matches_direct_scan():
    # definition check on the raw word list, independent of the tree walk
    def member(u):
        return word_in_sorted_ideal(u, AB2C_A3B, BAC)

    report = sorted_ideal_report(AB2C_A3B, BAC, 6)
    direct = [
        u
        for u in all_words_up_to(3, 6)
        if len(u.letters) >= 1
        and member(u)
        and not member(Word(u.letters[1:]))
        and not member(Word(u.letters[:-1]))
    ]
    assert set(report.minimal_generators) == set(direct)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        preimage_report(M((2, 0)), 12, budget=50)


def test_finiteness_probe():
    assert finiteness_probe(AB2C_A3B, BAC) is True
    assert finiteness_probe(AB2C_A3B, IDENT3) is False
    assert finiteness_probe(AB2C_A3B, Ordering.from_sequence((0, 2, 1))) is False


def test_finiteness_probe_singletons():
    # a pure power has no internal letters: finite
    assert finiteness_probe(M((0, 4, 0)), IDENT3) is True
    # a singleton with an internal letter pumps forever: infinite
    assert finiteness_probe(M((2, 3, 1)), IDENT3) is False
    assert finiteness_probe(M((2, 0, 3)), IDENT3) is False
    # over five letters the completeness bound, which holds on finite
    # instances only, can fall below a member's degree: it is 0 for {a e^2},
    # yet a b^i c^j d^k e^2 are minimal generators for all i, j, k
    assert finiteness_probe(M((1, 0, 0, 0, 2)), Ordering.identity(5)) is False
    assert finiteness_probe(M((6, 4, 3, 0, 0)), Ordering.from_sequence((2, 1, 3, 4, 0))) is False


def test_finiteness_probe_matches_criterion_on_five_letters():
    rng = random.Random(2)
    verdicts = set()
    for _ in range(200):
        members = []
        for _ in range(rng.randint(1, 3)):
            exponents = [0] * 5
            for x in rng.sample(range(5), rng.randint(1, 3)):
                exponents[x] = rng.randint(1, 3)
            members.append(Monomial(tuple(exponents)))
        members = antichain_reduce(members)
        ord = Ordering.from_sequence(rng.sample(range(5), 5))
        verdict = is_fg_sorted(members, ord).verdict
        assert finiteness_probe(members, ord) == verdict, (members, ord)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _word_probe(members, ord):
    """The probe by the word walk: no minimal generator found up to two
    letters past the completeness bound lies beyond it."""
    bound = complete_enumeration_bound(members, ord)
    report = sorted_ideal_report(members, ord, bound + 2)
    return all(len(w) <= bound for w in report.minimal_generators)


def test_pair_walk_probe_matches_word_walk_probe():
    pairs = 0
    for n, degree in ((3, 3), (4, 2)):
        for members in representative_antichains(n, degree):
            for ord in all_orderings(n):
                assert finiteness_probe(members, ord) == _word_probe(members, ord), (members, ord)
                pairs += 1
    assert pairs == 5820


@pytest.mark.parametrize(
    "members",
    [M((12, 0, 12), (0, 3, 0)), M((5, 0, 5), (0, 4, 0), (2, 2, 0)), M((6, 0, 6))],
    ids=["a12c12-b3", "a5c5-b4-a2b2", "a6c6"],
)
def test_probe_on_exponent_heavy_sets(members):
    # the word walk's levels grow exponentially with the exponents here
    # (from 3 s to past a 2e7-test budget); the pair walk's levels are
    # bounded by the count states
    start = time.process_time()
    probe = finiteness_probe(members, IDENT3)
    assert time.process_time() - start < 1
    assert probe == is_fg_sorted(members, IDENT3).verdict


def test_pair_walk_budget_names_the_length():
    # one test for the empty word and three for its extensions; the three
    # non-member letters' nine extensions then pass a budget of 5
    rows = tuple(m.exponents for m in AB2C_A3B)
    with pytest.raises(BudgetExceededError) as info:
        _pair_walk(rows, IDENT3.rank, 5)
    assert str(info.value) == "membership budget of 5 tests exceeded at length 2"
    assert _pair_walk(rows, BAC.rank, 10**6)


def _predicate_report(target, M, ord, cap, budget):
    if target == "sorted":
        return enumerate_minimal_generators(
            lambda u: word_in_sorted_ideal(u, M, ord), ord.n, cap, budget
        )
    return enumerate_minimal_generators(
        lambda u: word_in_preimage(u, M), ord.n, cap, budget
    )


def _count_report(target, M, ord, cap, budget):
    if target == "sorted":
        return sorted_ideal_report(M, ord, cap, budget)
    return preimage_report(M, cap, budget)


def _outcome(walk, *args):
    try:
        return walk(*args)
    except BudgetExceededError as e:
        return str(e)


def test_count_walks_match_predicate_walk():
    # the count walks never call the predicates, which stay their referee
    for n, degree in ((2, 3), (3, 2)):
        for members in antichains(n, degree):
            for ord in all_orderings(n):
                cap = complete_enumeration_bound(members, ord) + 2
                assert _count_report("sorted", members, ord, cap, 10**6) == (
                    _predicate_report("sorted", members, ord, cap, 10**6)
                ), (members, ord)
            ident = Ordering.identity(n)
            assert _count_report("preimage", members, ident, 5, 10**6) == (
                _predicate_report("preimage", members, ident, 5, 10**6)
            ), members


@pytest.mark.parametrize("target", ["sorted", "preimage"])
def test_count_walks_spend_the_predicate_budget(target):
    # a full walk to length 4 takes 121 tests, so both outcomes occur
    for budget in range(1, 130):
        args = (target, AB2C_A3B, BAC, 4, budget)
        assert _outcome(_count_report, *args) == _outcome(_predicate_report, *args), budget


def test_empty_set_has_no_generators():
    assert sorted_ideal_report((), BAC, 40) == EnumerationReport(40, (), True)
    assert finiteness_probe((), BAC) is True
    with pytest.raises(ValueError):
        preimage_report((), 4)
