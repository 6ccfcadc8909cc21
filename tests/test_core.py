import enum
import inspect
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_antichain,
    monomial_set,
    nonunit_set,
    pi,
    sigma,
    sort_word,
    support,
    word_is_factor,
)

from monoideal.cool_orderings import all_orderings_cool, find_cool_ordering
from monoideal.preimage import preimage_fg, preimage_fg_pairs
from monoideal.sorted_ideal import eps_minimal_generators, fg_generating_set, is_fg_sorted
from monoideal.word_oracle import (
    preimage_report,
    sorted_ideal_report,
    word_in_preimage,
    word_in_sorted_ideal,
)

from conftest import M, W, brute_minimal_under_division

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


def test_formatting():
    assert format_monomial(Monomial((1, 2, 1)), ABC) == "a b^2 c"
    assert format_monomial(Monomial((0, 0, 0)), ABC) == "1"
    assert format_word(Word((1, 1, 0, 2)), ABC) == "b^2 a c"
    assert format_word(Word(()), ABC) == "1"


def test_monomial_set_dedups_preserving_order():
    ms = monomial_set(M((1, 0), (0, 1), (1, 0)))
    assert ms == M((1, 0), (0, 1))


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
    "cool_orderings.closed_subset_check":
        lambda wrap, ms, o: cool_orderings.closed_subset_check(wrap(ms), wrap(ms[:1])),
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
