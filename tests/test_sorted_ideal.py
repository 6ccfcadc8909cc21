import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoideal.core import (
    Alphabet,
    AlphabetMismatchError,
    Monomial,
    NotAntichainError,
    NotFinitelyGeneratedError,
    Ordering,
    UnitMonomialError,
    Word,
    all_orderings,
    divides,
    erase,
    extremal_degree_max,
    format_word,
    internal_letters,
    is_extremal,
    sigma,
    support,
    word_is_factor,
)
from monoideal.cool_orderings import is_cool
from monoideal.sorted_ideal import (
    _extremal_scan,
    commutator_leading_words,
    complete_enumeration_bound,
    eps_minimal_generators,
    fg_generating_set,
    generator_count_bound,
    groebner_lift,
    is_fg_sorted,
    minimal_word_generators,
    tight_family,
)
from monoideal.word_oracle import finiteness_probe, sorted_ideal_report

from conftest import M, W

AB2C_A3B = M((1, 2, 1), (3, 1, 0))
ABC = Ordering.identity(3)  # a < b < c
BAC = Ordering.from_sequence((1, 0, 2))  # b < a < c
ACB = Ordering.from_sequence((0, 2, 1))  # a < c < b


def test_worked_example_verdicts_and_violators():
    bad1 = is_fg_sorted(AB2C_A3B, ABC)
    assert not bad1.verdict
    assert bad1.violator == (Monomial((1, 2, 1)), 1)  # (a b^2 c, b)

    good = is_fg_sorted(AB2C_A3B, BAC)
    assert good.verdict and good.violator is None

    bad2 = is_fg_sorted(AB2C_A3B, ACB)
    assert not bad2.verdict
    assert bad2.violator == (Monomial((3, 1, 0)), 2)  # (a^3 b, c)


def test_is_fg_sorted_validates_input():
    with pytest.raises(NotAntichainError):
        is_fg_sorted(M((1, 0), (1, 1)), Ordering.identity(2))
    with pytest.raises(UnitMonomialError):
        is_fg_sorted(M((0, 0)), Ordering.identity(2))


@pytest.mark.parametrize(
    "verdict",
    [lambda members, ord: is_fg_sorted(members, ord).verdict, is_cool],
    ids=["is_fg_sorted", "is_cool"],
)
@pytest.mark.parametrize("size", [1, 3])
def test_ordering_of_the_wrong_size_is_refused(verdict, size):
    with pytest.raises(AlphabetMismatchError, match="monomial and ordering sizes differ"):
        verdict(M((1, 1)), Ordering.identity(size))
    assert verdict((), Ordering.identity(size)) is True  # the empty set fits every ordering


def referee_violator(members, ord):
    """First uncovered (member, internal letter) pair, from the core predicates.

    Members are scanned by their sorted words in rank-lexicographic order,
    internal letters by rank.
    """

    def covered(w, x):
        return any(is_extremal(s, x, ord) and divides(erase(s, x), w) for s in members)

    for w in sorted(members, key=lambda m: [ord.rank[x] for x in sigma(m, ord).letters]):
        for x in sorted(internal_letters(w, ord), key=lambda i: ord.rank[i]):
            if not covered(w, x):
                return (w, x)
    return None


def test_violator_matches_referee():
    from monoideal.crosscheck import antichains

    for n, degree, step in [(2, 3, 1), (3, 2, 1), (3, 3, 5), (4, 2, 5)]:
        for members in itertools.islice(antichains(n, degree), 0, None, step):
            for ord in all_orderings(n):
                found = is_fg_sorted(members, ord).violator
                assert found == referee_violator(members, ord), (members, ord.rank)


def test_fg_generating_set_worked_example():
    gens = fg_generating_set(AB2C_A3B, BAC)
    assert set(gens) == set(W((1, 1, 0, 2), (1, 1, 0, 0, 2), (1, 0, 0, 0)))
    with pytest.raises(NotFinitelyGeneratedError) as info:
        fg_generating_set(AB2C_A3B, ABC)
    assert info.value.witness == is_fg_sorted(AB2C_A3B, ABC)


def test_fg_generating_set_no_internal_letters():
    members = M((2, 1), (0, 3))
    gens = fg_generating_set(members, Ordering.identity(2))
    assert set(gens) == {sigma(m, Ordering.identity(2)) for m in members}


def test_fg_generating_set_tight_family_small():
    # m=2, r=(2): five generators, cross-checked against the oracle below
    fam = tight_family(2, (2,))
    assert set(fam) == set(M((1, 0, 2), (2, 0, 1), (0, 2, 0)))
    gens = fg_generating_set(fam, ABC)
    assert len(gens) == 5
    bound = complete_enumeration_bound(fam, ABC)
    report = sorted_ideal_report(fam, ABC, bound)
    assert set(report.minimal_generators) == set(gens)


def test_minimal_word_generators():
    words = W((0, 1), (0, 0, 1), (1, 0))
    assert set(minimal_word_generators(words)) == set(W((0, 1), (1, 0)))
    anti = W((0, 1), (1, 0, 0))
    assert minimal_word_generators(anti) == minimal_word_generators(minimal_word_generators(anti))
    gens = fg_generating_set(AB2C_A3B, BAC)
    assert set(minimal_word_generators(gens)) == set(gens)


def test_minimal_word_generators_no_internal_factors():
    out = minimal_word_generators(W((0, 1, 2), (1, 2), (2, 2, 2), (2, 2)))
    for u, v in itertools.permutations(out, 2):
        assert not word_is_factor(u, v)


def test_eps_minimal_generators_worked_example():
    gens = eps_minimal_generators(AB2C_A3B, BAC, 10)
    assert set(gens) == set(W((1, 1, 0, 2), (1, 1, 0, 0, 2), (1, 0, 0, 0)))


def test_eps_minimal_generators_truncated_infinite_family():
    # under a < b < c the family a b^(2+j) c never stops; cap 8 keeps j <= 4
    gens = eps_minimal_generators(AB2C_A3B, ABC, 8)
    expected = {Word((0,) * 3 + (1,))}  # a^3 b
    for j in range(5):
        expected.add(Word((0,) + (1,) * (2 + j) + (2,)))
    assert set(gens) == expected


def test_eps_minimal_generators_single_letter():
    assert eps_minimal_generators(M((1,)), Ordering.identity(1), 5) == W((0,))


def test_eps_equals_minimized_generating_set_when_cap_dominates():
    for members, ord in [
        (AB2C_A3B, BAC),
        (tight_family(2, (2,)), ABC),
        (tight_family(3, (2,)), ABC),
        (M((2, 1), (0, 3)), Ordering.identity(2)),
    ]:
        cap = complete_enumeration_bound(members, ord)
        via_fg = minimal_word_generators(fg_generating_set(members, ord))
        assert eps_minimal_generators(members, ord, cap) == via_fg


def all_pairs_minimal(S):
    """Referee: each word compared with every other word of ``S`` no longer than it."""
    words = sorted(set(S), key=lambda w: (len(w.letters), w.letters))
    return tuple(
        w for w in words
        if not any(v != w and word_is_factor(v, w) for v in words if len(v) <= len(w))
    )


def test_minimal_word_generators_match_all_pairs_filter():
    from monoideal.crosscheck import antichains

    checked = 0
    for n, degree in [(3, 2), (3, 3)]:
        for members in antichains(n, degree):
            for ord in all_orderings(n):
                if is_fg_sorted(members, ord).verdict:
                    gens = fg_generating_set(members, ord)
                    assert minimal_word_generators(gens) == all_pairs_minimal(gens)
                    checked += 1
    assert checked == 14688


def referee_extremal_internal(members, ord):
    """r_x(M) for every letter and each member's internal letters, read off
    the sorted words: the first and last letters of sigma(w) are extremal,
    and the letters ranked strictly between them are internal."""
    r = [0] * ord.n
    internals = []
    for w in members:
        word = sigma(w, ord).letters
        first, last = word[0], word[-1]
        for x in (first, last):
            r[x] = max(r[x], w.exponents[x])
        internals.append(
            frozenset(x for x in range(ord.n) if ord.rank[first] < ord.rank[x] < ord.rank[last])
        )
    return r, internals


def test_extremal_scan_matches_per_letter():
    # the one-pass scan and the per-letter helpers, which all read
    # extremal_internal, against a referee on sorted words; both bounds
    # against their per-letter formulas
    from monoideal.crosscheck import antichains

    for n, degree in [(3, 3), (4, 2)]:
        for members in antichains(n, degree):
            for ord in all_orderings(n):
                r, internals = referee_extremal_internal(members, ord)
                assert _extremal_scan(members, ord) == (r, internals)
                assert [extremal_degree_max(members, x, ord) for x in range(n)] == r
                assert [internal_letters(w, ord) for w in members] == internals
                padded = [i for i in internals if i]
                product = 1
                for x in set().union(*padded):
                    product *= r[x]
                count = len(padded) * product + len(members) - len(padded)
                assert generator_count_bound(members, ord) == count
                length = max(
                    w.degree + sum(r[x] - 1 for x in i) for w, i in zip(members, internals)
                )
                assert complete_enumeration_bound(members, ord) == length


def test_generator_count_bound():
    assert generator_count_bound(tight_family(2, (2,)), ABC) == 5
    assert generator_count_bound(M((2, 1), (0, 3)), Ordering.identity(2)) == 2
    assert generator_count_bound(AB2C_A3B, BAC) == 4  # >= the actual 3
    assert len(fg_generating_set(AB2C_A3B, BAC)) <= 4


def test_tight_family_shapes():
    assert set(tight_family(1, ())) == set(M((1, 1)))
    fam = tight_family(3, (2, 2))
    assert set(fam) == set(
        M((1, 0, 0, 3), (2, 0, 0, 2), (3, 0, 0, 1), (0, 2, 0, 0), (0, 0, 2, 0))
    )
    assert generator_count_bound(fam, Ordering.identity(4)) == 3 * 4 + 2
    with pytest.raises(ValueError):
        tight_family(0, (2,))


def test_groebner_lift():
    words = groebner_lift(AB2C_A3B, BAC)
    commutators = W((0, 1), (2, 1), (2, 0))  # ab, cb, ca under b < a < c
    gens = W((1, 0, 0, 0), (1, 1, 0, 2), (1, 1, 0, 0, 2))
    assert set(words) == set(commutators) | set(gens)
    assert set(groebner_lift((), BAC)) == set(commutators)
    assert groebner_lift(M((3,)), Ordering.identity(1)) == W((0, 0, 0))
    with pytest.raises(NotFinitelyGeneratedError):
        groebner_lift(AB2C_A3B, ABC)


def test_commutator_count():
    assert len(commutator_leading_words(Ordering.identity(4))) == 6


def test_support_level_transfer():
    # positive verdicts survive restriction to small-support members
    for members, ord in [(AB2C_A3B, BAC), (tight_family(2, (2,)), ABC)]:
        assert is_fg_sorted(members, ord).verdict
        for k in range(1, 4):
            mk = tuple(w for w in members if len(support(w)) <= k)
            if mk:
                assert is_fg_sorted(mk, ord).verdict


def test_exponent_rescaling_transfer():
    # doubling exponents preserves extremal letters and degree comparisons
    for members in [AB2C_A3B, tight_family(2, (2,)), M((2, 1), (0, 3))]:
        doubled = tuple(Monomial(tuple(2 * e for e in m.exponents)) for m in members)
        n = members[0].n
        for ord in all_orderings(n):
            assert (
                is_fg_sorted(members, ord).verdict
                == is_fg_sorted(doubled, ord).verdict
            )


def test_verdict_matches_probe_exhaustively_n2():
    # all antichains over two letters with degree <= 3, all orderings
    from monoideal.crosscheck import check_fg_vs_probe

    assert check_fg_vs_probe(2, 3) == []


def test_verdict_matches_probe_sampled_n4():
    import random

    from monoideal.core import divides
    from monoideal.word_oracle import finiteness_probe

    rng = random.Random(13)
    pool = [
        Monomial(tuple(e))
        for e in itertools.product(range(5), repeat=4)
        if 0 < sum(e) <= 4
    ]
    for _ in range(25):
        members = []
        for cand in rng.sample(pool, rng.randint(1, 4)):
            if all(not divides(cand, c) and not divides(c, cand) for c in members):
                members.append(cand)
        members = tuple(members)
        for _ in range(3):
            seq = rng.sample(range(4), 4)
            ord = Ordering.from_sequence(tuple(seq))
            assert is_fg_sorted(members, ord).verdict == finiteness_probe(
                members, ord
            ), (members, seq)


def test_generating_set_spans_ideal_up_to_cap():
    # every word up to the cap is in the ideal iff it has a generator factor
    from monoideal.word_oracle import word_in_sorted_ideal
    from conftest import all_words_up_to
    from monoideal.core import word_is_factor

    for members, ord in [(AB2C_A3B, BAC), (tight_family(2, (2,)), ABC)]:
        gens = fg_generating_set(members, ord)
        cap = complete_enumeration_bound(members, ord) + 1
        for u in all_words_up_to(3, cap):
            spanned = any(word_is_factor(g, u) for g in gens)
            assert spanned == word_in_sorted_ideal(u, members, ord), u


def test_huge_exponents_scale_the_witness():
    # the criterion reads supports and divisibility only, so scaling every
    # exponent scales the witness; the scan order must not build the words
    import time

    from monoideal.crosscheck import antichains

    k = 2**61  # total degrees up to 2 * 2^61, near the 2^63 limit
    start = time.process_time()
    for members in antichains(3, 2):
        huge = tuple(Monomial(tuple(k * e for e in m.exponents)) for m in members)
        for ord in all_orderings(3):
            small = is_fg_sorted(members, ord)
            scaled = is_fg_sorted(huge, ord)
            assert scaled.verdict == small.verdict
            if small.violator is not None:
                m, x = small.violator
                assert scaled.violator == (Monomial(tuple(k * e for e in m.exponents)), x)
    assert time.process_time() - start < 5.0
