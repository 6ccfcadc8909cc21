import contextlib
import io
import itertools
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoideal.core import (
    Alphabet,
    AlphabetMismatchError,
    BudgetExceededError,
    Monomial,
    NotAntichainError,
    NotFinitelyGeneratedError,
    Ordering,
    UnitMonomialError,
    Word,
    all_orderings,
    antichain_reduce,
    checked_antichain,
    divides,
    erase,
    extremal_degree_max,
    extremal_internal,
    format_word,
    sigma,
    sorted_words,
    support,
    word_is_factor,
)
from monoideal.cool_orderings import is_cool
from monoideal.sorted_ideal import (
    FgWitness,
    _extremal_scan,
    _scan_order,
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

from conftest import (
    M,
    W,
    frozenset_cover_supports,
    frozenset_has_extremal_cover,
    internal_letters,
    is_extremal,
    outcome,
)

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


# The row scan that the per-letter extremal lists replaced, as it was: every
# row is tried for every (member, internal letter) pair.
def row_scan_violator(ms, ord):
    rows = [m.exponents for m in ms]
    rank, seq = ord.rank, ord.sequence()
    for w in ms:
        ranks = [rank[y] for y, e in enumerate(w.exponents) if e]
        for r in range(min(ranks) + 1, max(ranks)):
            x = seq[r]
            if not frozenset_has_extremal_cover(
                frozenset_cover_supports(rows, w.exponents, x), set(seq[:r])
            ):
                return w, x
    return None


def random_antichain(rng, n, top):
    """A seeded antichain over ``n`` letters mixing small exponents with ones up to ``top``."""
    while True:
        rows = set()
        for _ in range(rng.randint(1, 8)):
            palette = (1, 1, 2, 3, rng.randint(1, top))
            rows.add(tuple(rng.choice(palette) if rng.random() < 0.5 else 0 for _ in range(n)))
        members = antichain_reduce(Monomial(r) for r in rows if any(r))
        if members:
            return members


def test_violator_matches_the_row_scan():
    from monoideal.crosscheck import antichains

    pairs = 0
    for members in itertools.chain(antichains(3, 3), antichains(4, 2)):
        for ord in all_orderings(members[0].n):
            expected = row_scan_violator(_scan_order(members, ord), ord)
            assert is_fg_sorted(members, ord) == FgWitness(expected is None, expected)
            pairs += 1
    assert pairs == 2496 * 6 + 1336 * 24
    rng = random.Random(16)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(2, 9)
        members = random_antichain(rng, n, 10**18)
        ord = Ordering.from_sequence(rng.sample(range(n), n))
        expected = row_scan_violator(_scan_order(members, ord), ord)
        assert is_fg_sorted(members, ord) == FgWitness(expected is None, expected), members
        verdicts.add(expected is None)
    assert verdicts == {True, False}


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


def member_eps_minimal_generators(ms_in, ord, length_cap):
    """The antichain description built on Monomials, as the row kernels' referee."""
    ms = checked_antichain(ms_in, ord.n)
    out = []
    for m in ms:
        lo, hi, internal = extremal_internal(m, ord)
        internals = sorted(internal)
        for extras in itertools.product(range(length_cap + 1), repeat=len(internals)):
            if m.degree + sum(extras) > length_cap:
                continue
            e = list(m.exponents)
            for x, extra in zip(internals, extras):
                e[x] += extra
            mu = Monomial(tuple(e))
            shaved = []
            for x in {lo, hi}:
                f = list(mu.exponents)
                f[x] -= 1
                shaved.append(Monomial(tuple(f)))
            if not any(divides(s, t) for s in ms for t in shaved):
                out.append(sigma(mu, ord))
    return sorted_words(out)


def test_eps_row_kernel_matches_member_loop():
    # every set up to relabeling under every ordering, caps 0..8: a cap only
    # drops the longer words, so the referee runs at cap 8 and is truncated
    from monoideal.crosscheck import representative_antichains

    for n, degree in [(3, 3), (4, 2)]:
        orderings = list(all_orderings(n))
        for members in representative_antichains(n, degree):
            for ord in orderings:
                full = member_eps_minimal_generators(members, ord, 8)
                for cap in range(9):
                    expected = tuple(w for w in full if len(w) <= cap)
                    assert eps_minimal_generators(members, ord, cap) == expected
    for bad in [M((1, 0), (1, 1)), M((0, 0)), M((1, 0, 0))]:
        assert outcome(eps_minimal_generators, bad, Ordering.identity(2), 4) == outcome(
            member_eps_minimal_generators, bad, Ordering.identity(2), 4)


def test_eps_minimal_generators_refuses_past_the_letter_budget():
    # one internal letter and cap 10^9: about 10^9 candidates, refused unexamined
    with pytest.raises(BudgetExceededError, match="past the budget of 10000000"):
        eps_minimal_generators(M((1, 1, 1)), Ordering.identity(3), 10**9)


def test_readme_library_example_prints_its_comments():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    alphabet = Alphabet(("a", "b", "c"))
    witness = is_fg_sorted(AB2C_A3B, ABC)
    assert witness == FgWitness(False, (Monomial((1, 2, 1)), 1))  # a b^2 c, b
    words = fg_generating_set(AB2C_A3B, BAC)
    assert [format_word(w, alphabet) for w in words] == ["b a^3", "b^2 a c", "b^2 a^2 c"]
    assert out.getvalue() == f"{witness}\n{words}\n"
    assert "# verdict False, witness (a b^2 c, b)" in code
    assert "# b a^3, b^2 a c, b^2 a^2 c" in code


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
