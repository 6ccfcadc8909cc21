import pytest

from monoideal.core import (
    Monomial,
    NotAntichainError,
    Ordering,
    checked_antichain,
    divides,
    erase,
    sorted_monomials,
    support,
)
from monoideal.cool_orderings import all_orderings_cool
from monoideal.crosscheck import (
    antichains,
    check_preimage_conditions,
    check_preimage_implies_all_cool,
    check_squaring,
    representative_antichains,
)
from monoideal.preimage import (
    PreimageWitness,
    _pair_members,
    preimage_degree_bounds,
    preimage_fg,
    preimage_fg_pairs,
    square_letters,
)
from monoideal.word_oracle import _pair_walk, preimage_report

from conftest import M, outcome


def test_preimage_fg_examples():
    w = preimage_fg(M((2, 0)))
    assert not w.verdict
    assert w.violator == (Monomial((2, 0)), 1)

    # {a^2, bc}: not finitely generated although every ordering is cool
    assert not preimage_fg(M((2, 0, 0), (0, 1, 1))).verdict

    # every letter has a pure power: finitely generated
    assert preimage_fg(M((2, 0), (1, 1), (0, 2))).verdict


def test_preimage_fg_pairs_examples():
    assert not preimage_fg_pairs(M((2, 0))).verdict
    assert not preimage_fg_pairs(M((2, 0, 0), (0, 1, 1))).verdict
    assert preimage_fg_pairs(M((5,))).verdict  # one letter: no third letter exists


def test_preimage_validates_antichain():
    with pytest.raises(NotAntichainError):
        preimage_fg(M((1, 0), (1, 1)))


def member_preimage_fg(ms_in):
    """The erasure form built on Monomials, as the row kernels' referee."""
    ms = checked_antichain(ms_in)
    pairs = _pair_members(ms)
    pure = {min(s) for s in map(support, ms) if len(s) == 1}
    for m in sorted_monomials(ms):
        for z in range(m.n):
            if z in pure or erase(m, z).degree < 2:
                continue
            if not any(a == z and t in support(m) for a, t in pairs):
                return PreimageWitness(False, (m, z))
    return PreimageWitness(True, None)


def member_preimage_fg_pairs(ms_in):
    """The pairwise form built on Monomials, as the row kernels' referee."""
    ms = checked_antichain(ms_in)
    for m in sorted_monomials(ms):
        supp = sorted(support(m))
        xy = [(x, y) for x in supp for y in supp if x < y or (x == y and m.exponents[x] >= 2)]
        for z in range(m.n):
            for x, y in xy:
                if z in (x, y):
                    continue
                targets = []
                for shaved in {x, y}:
                    e = list(m.exponents)
                    e[shaved] -= 1
                    targets.append(Monomial(tuple(e)))
                if not any(divides(erase(w, z), t) for t in targets for w in ms):
                    return PreimageWitness(False, (m, z))
    return PreimageWitness(True, None)


def test_row_kernels_match_member_loops():
    # verdict, witness and error, on every antichain of both sweeps and on bad sets
    bad = [M((1, 0), (1, 1)), M((0, 0)), (Monomial((1,)), Monomial((0, 1))), ()]
    for ms in [*antichains(3, 3), *antichains(4, 2), *bad]:
        assert outcome(preimage_fg, ms) == outcome(member_preimage_fg, ms), ms
        assert outcome(preimage_fg_pairs, ms) == outcome(member_preimage_fg_pairs, ms), ms


def test_conditions_agree_on_small_sweep():
    assert check_preimage_conditions(2, 3) == []
    assert check_preimage_conditions(3, 2) == []


def test_degree_bounds():
    assert preimage_degree_bounds(M((2, 0), (1, 1), (0, 2))) == (2, 2)
    assert preimage_degree_bounds(M((1, 1, 1))) == (0, 0, 0)
    seven = M(
        (0, 0, 3, 0, 0, 0, 0),
        (2, 0, 5, 0, 0, 2, 0),
        (0, 0, 1, 0, 0, 3, 1),
        (2, 2, 2, 0, 0, 0, 0),
    )
    assert preimage_degree_bounds(seven) == (0, 0, 3, 0, 0, 0, 0)


def test_square_letters():
    assert square_letters(M((2, 0, 0), (0, 1, 1))) == M((4, 0, 0), (0, 2, 2))
    assert square_letters(()) == ()
    assert square_letters(M((0, 0))) == M((0, 0))


def test_preimage_fg_implies_every_ordering_cool():
    assert check_preimage_implies_all_cool(2, 3) == []
    assert check_preimage_implies_all_cool(3, 2) == []
    # and the converse fails on {a^2, bc}
    bc = M((2, 0, 0), (0, 1, 1))
    assert all_orderings_cool(bc) and not preimage_fg(bc).verdict


def test_squaring_keeps_every_ordering_cool():
    lost, _ = check_squaring(3, 2)
    assert lost == []


def test_squaring_verdict_law():
    # squaring is finitely generated exactly when every letter already has
    # a pure power; otherwise squaring forces infinite generation
    _, wrong = check_squaring(2, 3)
    assert wrong == []
    _, wrong = check_squaring(3, 2)
    assert wrong == []
    assert not preimage_fg(square_letters(M((2, 0, 0), (0, 1, 1)))).verdict
    assert preimage_fg(square_letters(M((2, 0), (1, 1), (0, 2)))).verdict


def test_verdict_matches_bounded_word_enumeration():
    # two letters, degree <= 3: the verdict agrees with the oracle probe at
    # the derived cap (no minimal generator beyond it iff finitely generated)
    for members in representative_antichains(2, 3):
        bound = sum(preimage_degree_bounds(members)) + max(m.degree for m in members)
        report = preimage_report(members, bound + 2)
        finite = all(len(w.letters) <= bound for w in report.minimal_generators)
        assert finite == preimage_fg(members).verdict, members


def test_verdict_matches_bounded_word_enumeration_n3():
    # three letters, degree <= 3, restricted to caps the enumeration can
    # afford; both verdict values occur in the sample
    seen = set()
    for members in representative_antichains(3, 3):
        bound = sum(preimage_degree_bounds(members)) + max(m.degree for m in members)
        if bound > 6:
            continue
        report = preimage_report(members, bound + 2)
        finite = all(len(w.letters) <= bound for w in report.minimal_generators)
        verdict = preimage_fg(members).verdict
        assert finite == verdict, members
        seen.add(verdict)
    assert seen == {True, False}


def test_verdict_matches_pair_walk():
    # the pair walk with every letter of one rank walks the preimage ideal
    # to the period of its levels: exact, with no cap, on every set the
    # bounded enumerations above skip too
    seen = set()
    for n, degree in ((2, 3), (3, 3), (4, 2)):
        for members in representative_antichains(n, degree):
            rows = tuple(m.exponents for m in members)
            verdict = preimage_fg(members).verdict
            assert _pair_walk(rows, (0,) * n, 10**7) == verdict, members
            seen.add(verdict)
    assert seen == {True, False}
