import ast
import copy
import enum
import importlib
import inspect
import itertools
import pathlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoideal
from monoideal import cool_orderings, core, preimage, sorted_ideal, word_oracle
from monoideal.core import (
    Alphabet,
    AlphabetMismatchError,
    ExponentOverflowError,
    Monomial,
    MonoidealError,
    NotAntichainError,
    Ordering,
    UnitMonomialError,
    Word,
    antichain_reduce,
    checked_antichain,
    divides,
    erase,
    extremal_degree_max,
    extremal_internal,
    format_monomial,
    format_word,
    monomial_set,
    nonunit_set,
    pi,
    sigma,
    sort_word,
    support,
    word_is_factor,
)

from monoideal.cool_orderings import CoolSearchResult, all_orderings_cool, find_cool_ordering
from monoideal.polyhedral import Certificate, IneqSystem, SatInstance, brute_force_sat
from monoideal.preimage import PreimageWitness, preimage_fg, preimage_fg_pairs
from monoideal.sorted_ideal import (
    FgWitness,
    eps_minimal_generators,
    fg_generating_set,
    is_fg_sorted,
)
from monoideal.torientation import NaeInstance, Orientation, TGraph, nae3sat_brute
from monoideal.word_oracle import (
    EnumerationReport,
    preimage_report,
    sorted_ideal_report,
    word_in_preimage,
    word_in_sorted_ideal,
)

from conftest import M, W, brute_minimal_under_division, is_antichain, outcome

# alphabet a..g used by several worked examples
ABC = Alphabet(("a", "b", "c"))
ABCDEFG = Alphabet(("a", "b", "c", "d", "e", "f", "g"))


def test_divides_componentwise():
    u, v = M((1, 2, 0), (1, 2, 1))
    assert divides(u, v)
    assert divides(u, u)
    # a^3 does not divide a b^2 c
    assert not divides(Monomial((3, 0, 0)), Monomial((1, 2, 1)))


def test_divides_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        divides(Monomial((1,)), Monomial((1, 0)))


def test_erase():
    # w = b^2 d f over six letters a..f
    w = Monomial((0, 2, 0, 1, 0, 1))
    assert erase(w, 1) == Monomial((0, 0, 0, 1, 0, 1))  # df
    assert erase(w, 5) == Monomial((0, 2, 0, 1, 0, 0))  # b^2 d
    assert erase(Monomial((7,)), 0) == Monomial((0,))
    with pytest.raises(MonoidealError):
        erase(w, 9)


def test_support():
    assert support(Monomial((0, 2, 0, 1, 0, 1))) == {1, 3, 5}
    assert support(Monomial((0, 0))) == frozenset()
    assert support(Monomial((2, 0))) == {0}


def test_extremal_internal_sparse_support():
    # x2^3 x3 x5^2 x7 over seven letters, index order
    w = Monomial((0, 3, 1, 0, 2, 0, 1))
    lo, hi, internal = extremal_internal(w, Ordering.identity(7))
    assert (lo, hi) == (1, 6)
    assert internal == {2, 3, 4, 5}


def test_extremal_internal_alphabetical():
    # b^2 d f over a..f: min b, max f, internal c,d,e
    w = Monomial((0, 2, 0, 1, 0, 1))
    lo, hi, internal = extremal_internal(w, Ordering.identity(6))
    assert (lo, hi) == (1, 5)
    assert internal == {2, 3, 4}


def test_extremal_internal_single_letter():
    lo, hi, internal = extremal_internal(Monomial((2, 0)), Ordering.identity(2))
    assert lo == hi == 0
    assert internal == frozenset()
    with pytest.raises(UnitMonomialError):
        extremal_internal(Monomial((0, 0)), Ordering.identity(2))


def test_antichain_reduce():
    # {a, ab, b^2} -> {a, b^2}
    assert set(antichain_reduce(M((1, 0), (1, 1), (0, 2)))) == set(M((1, 0), (0, 2)))
    anti = M((1, 0, 1), (0, 2, 0))
    assert antichain_reduce(anti) == anti
    # {x^2, x^2 y, x y^3, y^3}: expected set computed by the brute filter
    mixed = M((2, 0), (2, 1), (1, 3), (0, 3))
    expected = brute_minimal_under_division(mixed)
    assert expected == set(M((2, 0), (0, 3)))
    assert set(antichain_reduce(mixed)) == expected


def test_some_row_divides_matches_divides():
    # the one dominance test against the referee divides, row by row
    rng = random.Random(12)
    for n in range(4):
        zero = (0,) * n
        for _ in range(300):
            w = tuple(rng.randrange(4) for _ in range(n))
            rows = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(5))]
            rows += rng.sample([w, zero] + [tuple(int(i == j) for i in range(n)) for j in range(n)],
                               rng.randrange(2))
            expected = any(divides(Monomial(s), Monomial(w)) for s in rows)
            assert core._some_row_divides(rows, w) == expected, (rows, w)
        assert not core._some_row_divides([], zero)
        assert core._some_row_divides([zero], zero)


def member_antichain_reduce(ms_in):
    """The member-by-member loop on Monomials, as the row kernel's referee."""
    ms = monomial_set(ms_in)
    return tuple(m for m in ms if not any(o is not m and divides(o, m) for o in ms))


def test_antichain_reduce_matches_member_loop():
    # exact tuples, duplicates and non-antichains included: the order is output
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randrange(1, 4)
        pool = [Monomial(tuple(rng.randrange(3) for _ in range(n))) for _ in range(4)]
        ms = [rng.choice(pool) for _ in range(rng.randrange(8))]
        assert outcome(antichain_reduce, ms) == outcome(member_antichain_reduce, ms)
    mixed = [Monomial((1,)), Monomial((1, 0))]
    assert outcome(antichain_reduce, mixed) == outcome(member_antichain_reduce, mixed)


def test_row_kernels_build_no_monomial(monkeypatch):
    # below the entry check the decisions read exponent rows; only the
    # antichain description builds a Monomial, one per emitted word
    from monoideal.crosscheck import representative_antichains

    built = [0]
    build = Monomial.__init__

    def counted(self, exponents):
        built[0] += 1
        build(self, exponents)

    sets = list(representative_antichains(3, 3)) + list(representative_antichains(4, 2))
    monkeypatch.setattr(Monomial, "__init__", counted)
    for ms in sets:
        for decide in (preimage_fg, preimage_fg_pairs, antichain_reduce):
            decide(ms)
        assert built[0] == 0
        words = eps_minimal_generators(ms, Ordering.identity(ms[0].n), 6)
        assert built[0] == len(words)
        built[0] = 0


def test_sigma():
    bac = Ordering.from_sequence((1, 0, 2))  # b < a < c
    assert sigma(Monomial((1, 2, 1)), bac) == Word((1, 1, 0, 2))
    assert sigma(Monomial((3, 1, 0)), bac) == Word((1, 0, 0, 0))
    assert sigma(Monomial((0, 0, 0)), bac) == Word(())


def test_pi():
    assert pi(Word((0, 1, 0)), 2) == Monomial((2, 1))
    assert pi(Word(()), 3) == Monomial((0, 0, 0))
    with pytest.raises(MonoidealError):
        pi(Word((5,)), 2)


def test_sort_word():
    assert sort_word(Word((2, 0, 1)), Ordering.identity(3)) == Word((0, 1, 2))
    # S(tx) for t = bbac, x = a under b < a < c
    bac = Ordering.from_sequence((1, 0, 2))
    assert sort_word(Word((1, 1, 0, 2, 0)), bac) == Word((1, 1, 0, 0, 2))


def test_word_is_factor():
    assert word_is_factor(Word((1, 0)), Word((0, 1, 0, 2)))
    assert not word_is_factor(Word((0, 2)), Word((0, 1, 2)))
    assert word_is_factor(Word(()), Word((0, 1)))


def referee_word_check(letters):
    """The per-letter check of every ``Word``: the letters, or the error message."""
    for x in letters:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            return f"invalid letter index {x!r}"
    return letters


class Letter(enum.IntEnum):
    A = 0
    B = 7


def test_word_check_matches_per_letter_referee():
    rng = random.Random(5)
    odd = [True, False, -1, -(2**70), 1.0, 0.5, "a", None, Letter.A, Letter.B,
           0x110000, 2**70, 2**63 - 1]
    cases = [(), (0,), (True,), (Letter.B, 0), (2**70, -1), (0, "a", -1), (1.0,)]
    for _ in range(2000):
        pool = [0, 1, 2, 3] + rng.sample(odd, rng.randint(0, 3))
        cases.append(tuple(rng.choice(pool) for _ in range(rng.randint(0, 6))))
    for letters in cases:
        expected = referee_word_check(letters)
        if isinstance(expected, str):
            with pytest.raises(MonoidealError) as info:
                Word(letters)
            assert info.type is MonoidealError and str(info.value) == expected, letters
        else:
            assert Word(letters).letters == expected


def referee_is_factor(u, v):
    """Compare a slice of ``v`` with ``u`` at every offset."""
    a, b = u.letters, v.letters
    if not a:
        return True
    return any(b[i : i + len(a)] == a for i in range(len(b) - len(a) + 1))


def random_words(rng, count, letters):
    """Words over a few of ``letters``, with long runs now and then."""
    out = []
    for _ in range(count):
        alphabet = rng.sample(letters, rng.randint(1, min(4, len(letters))))
        w = []
        while len(w) < rng.randint(0, 12):
            w.extend([rng.choice(alphabet)] * rng.choice((1, 1, 2, 5)))
        out.append(Word(tuple(w)))
    return out


@pytest.mark.parametrize("chars", [None, 4], ids=["one-char", "two-char"])
def test_word_is_factor_matches_slice_referee(monkeypatch, chars):
    if chars is not None:
        # more distinct letters than characters: two characters per letter
        monkeypatch.setattr(core, "_CHARS", chars)
    rng = random.Random(11)
    letters = [0, 1, 2, 3, 0x110000, 0x110001, 2**70, 2**70 + 1, 5, 9, 12, 40]
    pairs = [((0, 0, 1), (0, 0, 0, 1)), ((0, 1, 0, 1), (0, 1, 0, 0, 1, 0, 1)),
             ((1, 0), (0,)), ((), ()), ((), (2**70,)), ((2**70,), (2**70 + 1,)),
             (tuple(letters), tuple(letters * 2)), (tuple(letters), tuple(letters[::-1]))]
    pairs = [(Word(u), Word(v)) for u, v in pairs]
    words = random_words(rng, 60, letters)
    pairs += [(rng.choice(words), rng.choice(words)) for _ in range(3000)]
    for v in words:  # every factor of v, and one letter off
        for i in range(len(v)):
            j = rng.randint(i, len(v))
            pairs.append((Word(v.letters[i:j]), v))
            pairs.append((Word(v.letters[i:j] + (rng.choice(letters),)), v))
    six = (0, 1, 2, 0x110000, 2**70, 9)
    short = [Word(w) for k in range(3) for w in itertools.product(six, repeat=k)]
    long = [Word(w) for k in range(5) for w in itertools.product(six, repeat=k)]
    pairs += itertools.product(short, long)
    for u, v in pairs:
        assert word_is_factor(u, v) == referee_is_factor(u, v), (u, v)


R_EXAMPLE = M(
    (0, 0, 3, 0, 0, 0, 0),  # c^3
    (2, 0, 5, 0, 0, 2, 0),  # a^2 c^5 f^2
    (0, 0, 1, 0, 0, 3, 1),  # c f^3 g
    (2, 2, 2, 0, 0, 0, 0),  # a^2 b^2 c^2
)


def test_extremal_degree_max():
    alphabetical = Ordering.identity(7)
    assert extremal_degree_max(R_EXAMPLE, 2, alphabetical) == 3  # r_c
    assert extremal_degree_max(R_EXAMPLE, 5, alphabetical) == 2  # r_f
    assert extremal_degree_max(R_EXAMPLE, 3, alphabetical) == 0  # d unused
    # the letter is checked against the ordering, so an empty set is no exception
    for members in (R_EXAMPLE, ()):
        with pytest.raises(MonoidealError, match="letter index 99 out of range for 7 letters"):
            extremal_degree_max(members, 99, alphabetical)
    with pytest.raises(AlphabetMismatchError, match="monomial and ordering sizes differ"):
        extremal_degree_max(R_EXAMPLE, 3, Ordering.identity(8))


def test_overflow_checked():
    with pytest.raises(ExponentOverflowError):
        Monomial((2**62, 2**62))
    with pytest.raises(MonoidealError):
        Monomial((-1, 0))


def test_ordering_basics():
    o = Ordering.from_sequence((1, 0, 2))
    assert o.rank == (1, 0, 2)
    assert o.sequence() == (1, 0, 2)
    assert o.precedes(1, 0)
    assert o.reversed().sequence() == (2, 0, 1)
    # the sequence is kept on the ordering but is not a field
    assert repr(o) == "Ordering(rank=(1, 0, 2))"
    assert o == Ordering((1, 0, 2)) and hash(o) == hash(Ordering((1, 0, 2)))
    with pytest.raises(MonoidealError):
        Ordering((0, 0, 1))
    for rank in [(0.0, 1), (1, 0.0), (True, 0), (0, "1")]:
        with pytest.raises(MonoidealError, match="is not an integer"):
            Ordering(rank)


@pytest.mark.parametrize("seq", [(0, True), (True, 0), (0, 1.5), ("a", 0), (0, 0), (0, 2)])
def test_from_sequence_takes_permutations_only(seq):
    # one rule with the rank check: bools, floats and strings are not letters
    with pytest.raises(MonoidealError) as info:
        Ordering.from_sequence(seq)
    assert type(info.value) is MonoidealError
    assert str(info.value) == "ordering sequence must list each letter once"


def test_from_sequence_inverts_the_rank():
    for n in range(5):
        for seq in itertools.permutations(range(n)):
            o = Ordering.from_sequence(seq)
            assert o.sequence() == seq
            assert all(o.rank[x] == pos for pos, x in enumerate(seq))


def test_formatting():
    assert format_monomial(Monomial((1, 2, 1)), ABC) == "a b^2 c"
    assert format_monomial(Monomial((0, 0, 0)), ABC) == "1"
    assert format_word(Word((1, 1, 0, 2)), ABC) == "b^2 a c"
    assert format_word(Word(()), ABC) == "1"


def test_monomial_set_dedups_preserving_order():
    ms = monomial_set(M((1, 0), (0, 1), (1, 0)))
    assert ms == M((1, 0), (0, 1))


def member_monomial_set(monomials):
    """Dedupe on the members' own hash, then check the sizes: the row-keyed set's referee."""
    out = tuple(dict.fromkeys(monomials))
    if out:
        n = out[0].n
        for m in out:
            if m.n != n:
                raise AlphabetMismatchError("monomial set mixes alphabet sizes")
    return out


def test_monomial_set_matches_member_dedupe():
    rng = random.Random(7)
    mixed = 0
    for _ in range(300):
        # fresh objects for equal rows, so the kept member is told apart by identity;
        # one set in five may mix two alphabet sizes
        n = rng.randint(0, 3)
        sizes = (n, n + 1) if rng.random() < 0.2 else (n,)
        ms = [Monomial(tuple(rng.randrange(3) for _ in range(rng.choice(sizes))))
              for _ in range(rng.randrange(8))]
        want = outcome(member_monomial_set, ms)
        assert outcome(monomial_set, ms) == want, ms
        if want[0] == "value":
            for got in (monomial_set(ms), monomial_set(iter(ms))):
                assert all(a is b for a, b in zip(want[1], got)), ms
        else:
            mixed += 1
    assert mixed > 20
    with pytest.raises(AlphabetMismatchError, match="^monomial set mixes alphabet sizes$"):
        monomial_set(M((1, 0), (1, 0, 0)))


small_monomials = st.builds(
    lambda exps: Monomial(tuple(exps)),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
orderings3 = st.sampled_from([Ordering.from_sequence(p) for p in itertools.permutations(range(3))])


@given(small_monomials, orderings3)
def test_pi_sigma_identity(m, ord):
    assert pi(sigma(m, ord), 3) == m


@given(st.lists(st.integers(0, 2), max_size=8), orderings3)
def test_sort_idempotent_and_pi_preserving(letters, ord):
    u = Word(tuple(letters))
    s = sort_word(u, ord)
    assert sort_word(s, ord) == s
    assert pi(s, 3) == pi(u, 3)


@given(small_monomials, small_monomials, small_monomials)
def test_divides_partial_order(a, b, c):
    assert divides(a, a)
    if divides(a, b) and divides(b, a):
        assert a == b
    if divides(a, b) and divides(b, c):
        assert divides(a, c)


@given(small_monomials, st.data(), st.integers(0, 2), orderings3)
def test_divisor_lemma(b, data, x, ord):
    # for sorted words u, v with u a factor of v and any letter x:
    # u is a factor of S(vx) or S(ux) is a factor of S(vx)
    v = sigma(b, ord)
    i = data.draw(st.integers(0, len(v.letters)))
    j = data.draw(st.integers(i, len(v.letters)))
    u = Word(v.letters[i:j])
    ux = sort_word(Word(u.letters + (x,)), ord)
    vx = sort_word(Word(v.letters + (x,)), ord)
    assert word_is_factor(u, vx) or word_is_factor(ux, vx)


# ---------------------------------------------------------------------------
# the bit-parallel clause referee


def per_assignment_passes(variable_count, clauses, clause_ok):
    """One assignment at a time; ``clause_ok`` gets the literals' truth values."""
    for bits in range(1 << variable_count):
        if all(
            clause_ok([((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in clause])
            for clause in clauses
        ):
            return True
    return False


def _random_clauses(rng, v, width):
    # literals come from a random subset of the variables, so some go unused,
    # and a clause may repeat a literal or hold it with its complement
    used = rng.sample(range(1, v + 1), rng.randint(1, v))
    return tuple(
        tuple(rng.choice((1, -1)) * rng.choice(used) for _ in range(width()))
        for _ in range(rng.randint(0, 3 * v))
    )


def test_brute_force_referees_match_the_per_assignment_loop():
    rng = random.Random(3)
    verdicts = {"nae": [], "sat": []}
    for v in range(13):
        for _ in range(12):
            nae = NaeInstance(v, _random_clauses(rng, v, lambda: 3) if v else ())
            want = per_assignment_passes(v, nae.clauses, lambda t: any(t) and not all(t))
            assert nae3sat_brute(nae) == want, nae
            verdicts["nae"].append(want)
            if v:
                sat = SatInstance(v, _random_clauses(rng, v, lambda: rng.randint(1, 3)))
                want = per_assignment_passes(v, sat.clauses, any)
                assert brute_force_sat(sat) == want, sat
                verdicts["sat"].append(want)
    assert all(0 < sum(got) < len(got) for got in verdicts.values()), verdicts
    assert nae3sat_brute(NaeInstance(24, ((1, 2, 24),)))
    assert not brute_force_sat(SatInstance(24, ((24,), (-24,))))
    with pytest.raises(MonoidealError, match="limited to 24 variables"):
        nae3sat_brute(NaeInstance(25, ((1, 2, 3),)))
    with pytest.raises(MonoidealError, match="limited to 24 variables"):
        brute_force_sat(SatInstance(25, ((1,),)))


# ---------------------------------------------------------------------------
# the one entry check of every decision on a monomial set

I2, I3 = Ordering.identity(2), Ordering.identity(3)
SIZES_DIFFER = (AlphabetMismatchError, "monomial and ordering sizes differ")
# name: (call with a fitting ordering or alphabet, call with one of the wrong
# size and its error, or None, whether M must be an antichain)
ENTRIES = {
    "is_fg_sorted": (
        lambda ms: is_fg_sorted(ms, I2), (lambda ms: is_fg_sorted(ms, I3), SIZES_DIFFER), True),
    "fg_generating_set": (
        lambda ms: fg_generating_set(ms, I2),
        (lambda ms: fg_generating_set(ms, I3), SIZES_DIFFER), True),
    "eps_minimal_generators": (
        lambda ms: eps_minimal_generators(ms, I2, 4),
        (lambda ms: eps_minimal_generators(ms, I3, 4), SIZES_DIFFER), True),
    "all_orderings_cool": (all_orderings_cool, None, True),
    "find_cool_ordering": (
        lambda ms: find_cool_ordering(ms, 2),
        (lambda ms: find_cool_ordering(ms, 3),
         (MonoidealError, "alphabet size does not match the monomials")), True),
    "preimage_fg": (preimage_fg, None, True),
    "preimage_fg_pairs": (preimage_fg_pairs, None, True),
    "word_in_sorted_ideal": (
        lambda ms: word_in_sorted_ideal(Word((0, 1)), ms, I2),
        (lambda ms: word_in_sorted_ideal(Word((0, 1)), ms, I3),
         (AlphabetMismatchError, "monomials live over different alphabets")), False),
    "word_in_preimage": (
        lambda ms: word_in_preimage(Word((0, 1)), ms),
        (lambda ms: word_in_preimage(Word((0, 2)), ms),
         (MonoidealError, "letter index 2 out of range for 2 letters")), False),
    "sorted_ideal_report": (
        lambda ms: sorted_ideal_report(ms, I2, 3),
        (lambda ms: sorted_ideal_report(ms, I3, 3), SIZES_DIFFER), False),
    "preimage_report": (lambda ms: preimage_report(ms, 3), None, False),
}
NOT_ANTICHAIN = (NotAntichainError, "M is not an antichain")
UNIT = (UnitMonomialError, "M contains the unit monomial")


def _raises(call, expected):
    error, message = expected
    with pytest.raises(MonoidealError, match=re.escape(message)) as info:
        call()
    assert info.type is error


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_entry_checks_its_set(name):
    call, wrong_size, antichain = ENTRIES[name]
    call(M((1, 1)))  # a valid set passes
    if antichain:
        _raises(lambda: call(M((1, 0), (1, 1))), NOT_ANTICHAIN)
        # the unit divides every other member, so the antichain test fires first
        _raises(lambda: call(M((0, 0), (1, 1))), NOT_ANTICHAIN)
    else:
        call(M((1, 0), (1, 1)))  # word ideals are defined for any set of nonunits
        _raises(lambda: call(M((0, 0), (1, 1))), UNIT)
    _raises(lambda: call(M((0, 0))), UNIT)
    _raises(
        lambda: call(M((1, 0), (0, 1, 1))),
        (AlphabetMismatchError, "monomial set mixes alphabet sizes"),
    )
    if wrong_size is not None:
        wrong_call, error = wrong_size
        _raises(lambda: wrong_call(M((1, 1))), error)



def _pairwise_antichain(members):
    """Referee of ``is_antichain``: ``divides`` on every pair of distinct members."""
    if len({m.n for m in members}) > 1:
        raise AlphabetMismatchError("monomial set mixes alphabet sizes")
    return not any(a != b and divides(a, b) for a in members for b in members)


def _checked_set_referee(members, n, antichain):
    """The antichain test if asked for, then the unit, then the size."""
    pairwise = _pairwise_antichain(members)  # mixed alphabets fail first
    if antichain and not pairwise:
        raise NotAntichainError("M is not an antichain")
    distinct = tuple(dict.fromkeys(members))
    if any(all(e == 0 for e in m.exponents) for m in distinct):
        raise UnitMonomialError("M contains the unit monomial")
    if n is not None and distinct and distinct[0].n != n:
        raise AlphabetMismatchError("monomial and ordering sizes differ")
    return distinct


def _outcome(call):
    try:
        return call()
    except MonoidealError as error:
        return type(error), str(error)


def _random_member_sets(rng):
    for _ in range(600):
        n = rng.randint(1, 4)
        top = rng.randint(1, 3)
        members = [
            Monomial(tuple(rng.randint(0, top) for _ in range(n)))
            for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.3:  # every member of one degree
            degree = rng.randint(1, 3)
            members = [m for m in members if m.degree == degree] or members[:1]
        members += rng.sample(members, rng.randint(0, len(members)))  # duplicates
        rng.shuffle(members)
        yield tuple(members)
    yield ()
    yield M((0, 0))
    yield M((0, 0), (0, 0))
    yield M((0, 0), (1, 2))
    yield M((2, 0), (0, 0), (0, 2))
    yield M((1, 0), (0, 1, 1))
    yield M((0, 0), (0, 0, 1))


def test_set_checks_match_the_pairwise_referee():
    for members in _random_member_sets(random.Random(7)):
        assert _outcome(lambda: is_antichain(members)) == _outcome(
            lambda: _pairwise_antichain(members)
        ), members
        width = members[0].n if members else 1
        for n in (None, width, width + 1):
            for entry, antichain in ((checked_antichain, True), (nonunit_set, False)):
                got = _outcome(lambda: entry(members, n))
                want = _outcome(lambda: _checked_set_referee(members, n, antichain))
                assert got == want, (entry.__name__, members, n)


# ---------------------------------------------------------------------------
# every entry that takes a monomial set reads it once

# name: call with the set passed through ``wrap`` (``tuple`` or ``iter``)
SET_ENTRIES = {
    "sorted_ideal.is_fg_sorted": lambda wrap, ms, o: sorted_ideal.is_fg_sorted(wrap(ms), o),
    "sorted_ideal.fg_generating_set":
        lambda wrap, ms, o: sorted_ideal.fg_generating_set(wrap(ms), o),
    "sorted_ideal.eps_minimal_generators":
        lambda wrap, ms, o: sorted_ideal.eps_minimal_generators(wrap(ms), o, 8),
    "sorted_ideal.generator_count_bound":
        lambda wrap, ms, o: sorted_ideal.generator_count_bound(wrap(ms), o),
    "sorted_ideal.complete_enumeration_bound":
        lambda wrap, ms, o: sorted_ideal.complete_enumeration_bound(wrap(ms), o),
    "sorted_ideal.groebner_lift": lambda wrap, ms, o: sorted_ideal.groebner_lift(wrap(ms), o),
    "preimage.preimage_fg": lambda wrap, ms, o: preimage.preimage_fg(wrap(ms)),
    "preimage.preimage_fg_pairs": lambda wrap, ms, o: preimage.preimage_fg_pairs(wrap(ms)),
    "preimage.preimage_degree_bounds":
        lambda wrap, ms, o: preimage.preimage_degree_bounds(wrap(ms)),
    "preimage.square_letters": lambda wrap, ms, o: preimage.square_letters(wrap(ms)),
    "cool_orderings.is_cool": lambda wrap, ms, o: cool_orderings.is_cool(wrap(ms), o),
    "cool_orderings.all_orderings_cool":
        lambda wrap, ms, o: cool_orderings.all_orderings_cool(wrap(ms)),
    "cool_orderings.support_filter":
        lambda wrap, ms, o: cool_orderings.support_filter(wrap(ms), 2),
    "cool_orderings.quadratic_graph":
        lambda wrap, ms, o: cool_orderings.quadratic_graph(wrap(ms)),
    "cool_orderings.quadratic_to_support2":
        lambda wrap, ms, o: cool_orderings.quadratic_to_support2(wrap(ms)),
    "cool_orderings.square_free_total_degree_guard":
        lambda wrap, ms, o: cool_orderings.square_free_total_degree_guard(wrap(ms)),
    "cool_orderings.find_cool_ordering":
        lambda wrap, ms, o: cool_orderings.find_cool_ordering(wrap(ms)),
    "word_oracle.word_in_sorted_ideal":
        lambda wrap, ms, o: word_oracle.word_in_sorted_ideal(sigma(ms[1], o), wrap(ms), o),
    "word_oracle.word_in_preimage":
        lambda wrap, ms, o: word_oracle.word_in_preimage(sigma(ms[1], o), wrap(ms)),
    "word_oracle.sorted_ideal_report":
        lambda wrap, ms, o: word_oracle.sorted_ideal_report(wrap(ms), o, 6),
    "word_oracle.preimage_report": lambda wrap, ms, o: word_oracle.preimage_report(wrap(ms), 6),
    "word_oracle.finiteness_probe":
        lambda wrap, ms, o: word_oracle.finiteness_probe(wrap(ms), o),
}
# a b^2 c and a^3 b: finitely generated under b < a < c, not under a < b < c
ONE_PASS_CASES = {
    "finite": (M((1, 2, 1), (3, 1, 0)), Ordering.from_sequence((1, 0, 2))),
    "infinite": (M((1, 2, 1), (3, 1, 0)), Ordering.identity(3)),
}


def test_set_entries_list_every_public_entry_taking_a_set():
    modules = (sorted_ideal, preimage, cool_orderings, word_oracle)
    public = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        for module in modules
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_") and "M" in inspect.signature(fn).parameters
    }
    assert public == set(SET_ENTRIES)


@pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
@pytest.mark.parametrize("name", sorted(SET_ENTRIES))
def test_every_entry_reads_its_set_once(name, case):
    call = SET_ENTRIES[name]
    ms, o = ONE_PASS_CASES[case]
    assert _outcome(lambda: call(iter, ms, o)) == _outcome(lambda: call(tuple, ms, o))


def test_no_dead_private_names():
    # every module-level name with one leading underscore is read somewhere
    # in the package, and so is every public one unless a perfbench script
    # names it, so a helper whose last caller went is noticed
    package = pathlib.Path(core.__file__).parent
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (
                [node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", ""))
                if name and not name.startswith("__"):
                    defined.add((path.stem, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    used.update(monoideal.__all__)  # the package's export table names each
    bench = pathlib.Path(__file__).parents[1] / "perfbench"
    named = {w for path in bench.glob("*.py") for w in re.findall(r"\w+", path.read_text())}
    dead = {
        f"{module}.{name}"
        for module, name in defined
        if name not in used and (name.startswith("_") or name not in named)
    }
    assert dead == set()


# The names the package exports, under their defining module.
EXPORTED = {
    "core": [
        "Alphabet", "AlphabetMismatchError", "BudgetExceededError", "ExponentOverflowError",
        "Monomial", "MonoidealError", "NotAntichainError", "NotFinitelyGeneratedError",
        "Ordering", "ParseError", "UnitMonomialError", "Word", "antichain_reduce", "divides",
        "erase", "extremal_degree_max", "extremal_internal", "pi", "sigma", "sort_word",
        "support", "word_is_factor",
    ],
    "cool_orderings": [
        "CoolSearchResult", "all_orderings_cool", "find_cool_ordering", "helps", "is_cool",
        "quadratic_graph", "quadratic_to_support2", "square_free_total_degree_guard",
        "support_filter",
    ],
    "polyhedral": [
        "Certificate", "IneqSystem", "SatInstance", "convexity_check", "from_generators",
        "sat_reduction", "union", "verify_certificate",
    ],
    "preimage": [
        "PreimageWitness", "preimage_degree_bounds", "preimage_fg", "preimage_fg_pairs",
        "square_letters",
    ],
    "sorted_ideal": [
        "FgWitness", "eps_minimal_generators", "fg_generating_set", "generator_count_bound",
        "groebner_lift", "is_fg_sorted", "minimal_word_generators", "tight_family",
    ],
    "torientation": [
        "NaeInstance", "Orientation", "TGraph", "gadget3", "is_valid_t_orientation",
        "nae3sat_brute", "nae3sat_reduce", "ordering_to_orientation",
        "orientation_to_ordering", "t_orientation_search", "top_hat",
    ],
    "word_oracle": [
        "EnumerationReport", "enumerate_minimal_generators", "finiteness_probe",
        "word_in_preimage", "word_in_sorted_ideal",
    ],
}


def test_package_namespace_names_each_module_object():
    assert monoideal.__all__ == [name for names in EXPORTED.values() for name in names]
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"monoideal.{module}")
        for name in names:
            assert getattr(monoideal, name) is getattr(home, name), name
    assert set(monoideal.__all__) <= set(dir(monoideal))
    assert "__version__" in dir(monoideal)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        monoideal.no_such_name
    assert not hasattr(monoideal, "_Frozen")


# make a value twice, its repr, and one of its fields
VALUES = {
    "Alphabet": (lambda: Alphabet(("a", "b")), "Alphabet(names=('a', 'b'))", "names"),
    "Monomial": (lambda: Monomial((1, 0, 2)), "Monomial(exponents=(1, 0, 2))", "exponents"),
    "Word": (lambda: Word((2, 0, 0)), "Word(letters=(2, 0, 0))", "letters"),
    "Ordering": (lambda: Ordering((2, 0, 1)), "Ordering(rank=(2, 0, 1))", "rank"),
    "FgWitness": (
        lambda: FgWitness(False, (Monomial((1, 2, 1)), 1)),
        "FgWitness(verdict=False, violator=(Monomial(exponents=(1, 2, 1)), 1))",
        "violator",
    ),
    "EnumerationReport": (
        lambda: EnumerationReport(4, W((0, 1), (1,)), False),
        "EnumerationReport(cap=4, minimal_generators=(Word(letters=(0, 1)), "
        "Word(letters=(1,))), saturated=False)",
        "minimal_generators",
    ),
    "TGraph": (
        lambda: TGraph.make(3, [(1, 0), (1, 2)], [1]),
        "TGraph(vertex_count=3, edges=((0, 1), (1, 2)), tset=frozenset({1}))",
        "edges",
    ),
    "Orientation": (
        lambda: Orientation(((0, 1), (2, 1))), "Orientation(arcs=((0, 1), (2, 1)))", "arcs"),
    "NaeInstance": (
        lambda: NaeInstance(3, ((1, -2, 3),)),
        "NaeInstance(variable_count=3, clauses=((1, -2, 3),))",
        "clauses",
    ),
    "IneqSystem": (
        lambda: IneqSystem(((1, 0), (0, 1)), ((1, 1),), ("x", "y")),
        "IneqSystem(rows=((1, 0), (0, 1)), thresholds=((1, 1),), names=('x', 'y'))",
        "rows",
    ),
    "Certificate": (
        lambda: Certificate("sorted_not_fg", (1, 0, 1), 1, Ordering((0, 1, 2))),
        "Certificate(kind='sorted_not_fg', generator=(1, 0, 1), letter=1, "
        "ordering=Ordering(rank=(0, 1, 2)))",
        "ordering",
    ),
    "SatInstance": (
        lambda: SatInstance(2, ((1, -2), (2,))),
        "SatInstance(variable_count=2, clauses=((1, -2), (2,)))",
        "clauses",
    ),
    "CoolSearchResult": (
        lambda: CoolSearchResult(True, Ordering((1, 0)), 3),
        "CoolSearchResult(found=True, ordering=Ordering(rank=(1, 0)), nodes_explored=3)",
        "ordering",
    ),
    "PreimageWitness": (
        lambda: PreimageWitness(False, (Monomial((2, 1)), 0)),
        "PreimageWitness(verdict=False, violator=(Monomial(exponents=(2, 1)), 0))",
        "violator",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_compare_hash_and_freeze_their_fields(name):
    make, text, field = VALUES[name]
    value, twin = make(), make()
    assert repr(value) == text
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != object() and value != getattr(value, field)
    for assign in (lambda: setattr(value, field, None), lambda: delattr(value, field),
                   lambda: setattr(value, "other", None)):
        with pytest.raises(AttributeError):
            assign()
    assert repr(value) == text and not hasattr(value, "__dict__")
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert clone(value) == value and repr(clone(value)) == text


def test_core_frozen_is_the_one_value_class_idiom():
    # the table above has a row for every value class, and equality and
    # hashing are written once, in _Frozen
    classes, todo = set(), [core._Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub.__name__)
            todo.append(sub)
    assert classes == set(VALUES)
    for path in pathlib.Path(core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name != "_Frozen":
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                assert not methods & {"__eq__", "__hash__"}, (path.name, node.name)
            elif isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_value_classes_differ_across_classes():
    assert Monomial((1,)) != Word((1,)) and Word((1,)) != Monomial((1,))
    assert FgWitness(True) == FgWitness(True, None) != FgWitness(False)
    assert FgWitness(True) != PreimageWitness(True) and PreimageWitness(True) != FgWitness(True)
    # equal fields, different classes
    assert SatInstance(3, ((1, 2, 3),)) != NaeInstance(3, ((1, 2, 3),))
    assert EnumerationReport(4, (), True) != EnumerationReport(4, (), False)
    assert EnumerationReport(4, (), True) != EnumerationReport(5, (), True)
    assert pickle.loads(pickle.dumps(Ordering((2, 0, 1)))).sequence() == (1, 2, 0)


def test_value_classes_take_keywords_and_defaults():
    assert IneqSystem(rows=((1,),), thresholds=((1,),)) == IneqSystem(((1,),), ((1,),), None)
    assert Certificate(kind="support3", generator=(1, 1, 1)) == Certificate(
        "support3", (1, 1, 1), None, None)
    assert PreimageWitness(verdict=True) == PreimageWitness(True, None)
    assert repr(Certificate(kind="support3", generator=(1, 1, 1))) == (
        "Certificate(kind='support3', generator=(1, 1, 1), letter=None, ordering=None)")


def test_list_arguments_build_the_values_of_their_tuples():
    for built, twin in [
        (Monomial([1, 2, 1]), Monomial((1, 2, 1))),
        (Word([0, 1]), Word((0, 1))),
        (Ordering([1, 0, 2]), Ordering((1, 0, 2))),
        (Alphabet(["a", "b"]), Alphabet(("a", "b"))),
        # nested fields are tuples at every level, and a vertex set is frozen
        (NaeInstance(3, [[1, 2, 3]]), NaeInstance(3, ((1, 2, 3),))),
        (SatInstance(3, [[1, -2]]), SatInstance(3, ((1, -2),))),
        (Certificate("support3", [1, 1, 1]), Certificate("support3", (1, 1, 1))),
        (TGraph(3, [[0, 1]], {0}), TGraph(3, ((0, 1),), frozenset({0}))),
        (TGraph(3, iter([(0, 1)]), iter([2])), TGraph(3, ((0, 1),), frozenset({2}))),
        (Orientation([[0, 1]]), Orientation(((0, 1),))),
        (IneqSystem([[1]], [[1]], ["x"]), IneqSystem(((1,),), ((1,),), ("x",))),
        (EnumerationReport(3, [Word((0,))], True), EnumerationReport(3, (Word((0,)),), True)),
    ]:
        assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)
    with pytest.raises(MonoidealError, match="self-loop at vertex 0"):
        TGraph(2, [[0, 0]], set())
    with pytest.raises(MonoidealError, match="exactly three literals"):
        NaeInstance(3, [[1, 2]])
    with pytest.raises(MonoidealError, match="generator entry 1.0 is not an integer"):
        Certificate("support3", [1.0])
    with pytest.raises(MonoidealError, match="negative exponent -1"):
        Monomial([1, -1])
    with pytest.raises(MonoidealError, match="permutation"):
        Ordering([0, 0])
    # a b^2 c and a^3 b pass under b a c; a c fails at b under a b c
    assert is_fg_sorted([Monomial([1, 2, 1]), Monomial([3, 1, 0])], Ordering([1, 0, 2])).verdict
    assert is_fg_sorted([Monomial([1, 0, 1])], Ordering([0, 1, 2])) == FgWitness(
        False, (Monomial((1, 0, 1)), 1))
