import functools
import itertools
import random

import pytest

from monoideal.core import (
    Monomial,
    MonoidealError,
    Ordering,
    all_orderings,
    antichain_reduce,
    checked_antichain,
    support,
)
from monoideal import sorted_ideal
from monoideal.cool_orderings import (
    CoolSearchResult,
    all_orderings_cool,
    find_cool_ordering,
    helps,
    is_cool,
    quadratic_graph,
    quadratic_to_support2,
    square_free_total_degree_guard,
    support_filter,
)
from monoideal.crosscheck import (
    antichains,
    check_quadratic_bridge,
    representative_antichains,
    representative_quadratic_sets,
)
from monoideal.sorted_ideal import FgWitness, is_fg_sorted
from monoideal.torientation import (
    NaeInstance,
    is_valid_t_orientation,
    nae3sat_brute,
    nae3sat_reduce,
    ordering_to_orientation,
)
from monoideal.word_oracle import finiteness_probe

from conftest import (
    M,
    closed_subset_check,
    outcome,
    _cover_masks,
    frozenset_cover_supports,
    frozenset_has_extremal_cover,
    internal_letters,
    quadratic_family,
    referee_witness,
)

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


def _random_quadratic_sets(n, count, seed):
    quadratics = [e for e in itertools.product(range(3), repeat=n) if sum(e) == 2]
    rng = random.Random(seed)
    for _ in range(count):
        yield M(*rng.sample(quadratics, rng.randint(1, len(quadratics))))


@functools.cache
def refereed_sets():
    """The sets the step table is refereed on, each with its letter count and
    the extremal-filing referee's verdicts on ``all_orderings(n)``, in that order."""
    groups = (
        quadratic_family(5),
        _random_quadratic_sets(6, 20, seed=15),
        antichains(3, 3),
        antichains(4, 2),
    )
    out = []
    for members in itertools.chain(*groups):
        n = members[0].n
        out.append((members, n, [referee_witness(members, o).verdict for o in orderings_of(n)]))
    return out


@functools.cache
def orderings_of(n):
    return tuple(all_orderings(n))


def test_is_cool_matches_is_fg_sorted_verdict():
    # is_cool walks the steps of the set's table, the referee files each
    # member under its extremal letters and scans the members in the order of
    # their sorted words.  A step verdict depends on the placed set alone, so
    # remembered steps must give every ordering's verdict whatever was asked
    # before it: the orderings come forward, reversed and shuffled.
    rng = random.Random(19)
    sets = refereed_sets()
    assert [n for _, n, _ in sets[:563]] == [5] * 543 + [6] * 20
    assert sum(len(orderings_of(n)) for _, n, _ in sets[563:]) == 2496 * 6 + 1336 * 24
    assert {v for _, _, verdicts in sets for v in verdicts} == {True, False}
    for members, n, verdicts in sets:
        asked = list(enumerate(orderings_of(n)))
        for order in (asked, asked[::-1], rng.sample(asked, len(asked))):
            assert all(is_cool(members, o) == verdicts[k] for k, o in order), members
    # calls on two sets, one by one: each call finds the other set's table
    for (a, n, va), (b, _, vb) in zip(sets[:200:2], sets[1:200:2]):
        for k, o in enumerate(orderings_of(n)):
            assert is_cool(a, o) == va[k] and is_cool(b, o) == vb[k], (a, b)


def test_step_table_refuses_an_invalid_set_on_every_call():
    valid = (AB2C_A3B, Ordering.identity(3))
    for members, ord in (
        (M((1, 0), (1, 1)), Ordering.identity(2)),
        (M((0, 0),), Ordering.identity(2)),
        ((Monomial((1, 0)), Monomial((0, 1, 1))), Ordering.identity(2)),
        (AB2C_A3B, Ordering.identity(2)),
    ):
        expected = outcome(checked_antichain, members, ord.n)
        assert expected[0] == "error"
        assert outcome(is_cool, members, ord) == expected
        assert outcome(is_cool, members, ord) == expected
        assert is_cool(*valid) is False
        assert outcome(is_cool, members, ord) == expected
        assert is_cool(*valid) is False


def test_step_table_asked_again_hashes_no_member(monkeypatch):
    # the last set is found again by its member objects, or else by their
    # exponent rows, so no call hashes a member (a hash is a Python call each)
    hashed = [0]
    member_hash = Monomial.__hash__

    def counted(self):
        hashed[0] += 1
        return member_hash(self)

    members = AB2C_A3B
    copies = tuple(Monomial(m.exponents) for m in members)
    other = M((2, 0, 0), (0, 1, 1))
    monkeypatch.setattr(Monomial, "__hash__", counted)
    table = sorted_ideal._step_table(members, 3)
    for asked in (members, copies, members):
        assert sorted_ideal._step_table(asked, 3) is table
    assert sorted_ideal._step_table(other, 3) is not table
    assert sorted_ideal._step_table(members, 3) is not table
    assert is_cool(members, Ordering.from_sequence((1, 0, 2)))
    assert hashed[0] == 0


def test_one_table_slot_serves_calls_on_two_sets_one_by_one(monkeypatch):
    # is_fg_sorted, is_cool and find_cool_ordering share one cached table:
    # calls alternating between two sets must each find their own set's
    # covers, holders and steps, and an invalid set between them must raise
    # as on its first call
    bad = (M((1, 0, 0), (1, 1, 0)), Ordering.identity(3))
    invalid = outcome(checked_antichain, bad[0], 3)
    assert invalid[0] == "error"
    sets = [m for m in representative_antichains(3, 3) if any(e.degree != 2 for e in m)][-60:]
    sets += [m for m in antichains(4, 2) if any(e.degree != 2 for e in m)][:40]
    searches = {}
    for members in sets:
        monkeypatch.setattr(sorted_ideal, "_last", ((), (), -1, None))
        searches[members] = find_cool_ordering(members)
    seen = set()
    for a, b in zip(sets[::2], sets[1::2]):
        n = a[0].n
        for o in orderings_of(n):
            for members in (a, b):
                expected = referee_witness(members, o)
                assert is_fg_sorted(members, o) == expected, (members, o.rank)
                assert is_cool(members, o) == expected.verdict, (members, o.rank)
                seen.add(expected.verdict)
            assert outcome(is_fg_sorted, *bad) == invalid
        for members in (a, b, a):
            res = find_cool_ordering(members)
            assert res == searches[members], members
            verdicts = [referee_witness(members, o).verdict for o in orderings_of(n)]
            assert res.found == any(verdicts), members
            assert not res.found or referee_witness(members, res.ordering).verdict
            assert outcome(is_cool, *bad) == invalid
            seen.add(("found", res.found))
    assert seen == {True, False, ("found", True), ("found", False)}


def cool_ordering_count(n, step):
    """Cool orderings counted over the subsets of placed letters:
    ``count[P | 1 << x] += count[P]`` over each step ``(P, x)`` that passes."""
    count = [0] * (1 << n)
    count[0] = 1
    for placed in range(1 << n):
        if count[placed]:
            for x in range(n):
                if not placed >> x & 1 and step(placed, x):
                    count[placed | 1 << x] += count[placed]
    return count[-1]


def frozenset_step(members):
    """Whether ``x`` may follow the placed letters, from the frozenset cover kernels."""
    rows = [m.exponents for m in members]
    supports = [support(m) for m in members]
    n = len(rows[0])
    cover = {(i, x): frozenset_cover_supports(rows, w, x) for i, w in enumerate(rows) for x in range(n)}

    def step(placed, x):
        before = frozenset(y for y in range(n) if placed >> y & 1)
        return all(
            frozenset_has_extremal_cover(cover[(i, x)], before)
            for i, supp in enumerate(supports)
            if supp & before and supp - before - {x}
        )

    return step


def test_cool_ordering_count_over_subsets_matches_the_orderings_scan():
    # the orderings the referee accepts, counted without listing orderings:
    # once over independent step verdicts, once over the step table's
    counts = set()
    for members, n, verdicts in refereed_sets():
        expected = sum(verdicts)
        assert cool_ordering_count(n, frozenset_step(members)) == expected, members
        table = sorted_ideal._step_table(members, n)
        assert cool_ordering_count(n, table.passes) == expected, members
        counts.add(expected)
    assert 0 in counts and 120 in counts and len(counts) > 10


def test_step_memo_stays_under_its_cap():
    # 20 letters: squares of the first 18 and products of neighbours, so most
    # orderings walk far and ask steps no earlier ordering asked; past the
    # cap, verdicts are computed and still agree with the referee
    n = 20
    rows = [tuple(2 * (i == x) for i in range(n)) for x in range(18)]
    rows += [tuple(int(i in (x, x + 1)) for i in range(n)) for x in range(n - 1)]
    members = M(*rows)
    cap = sorted_ideal._STEP_MEMO_CAP
    rng = random.Random(20)
    verdicts = []
    for k in range(20_000):
        ord = Ordering.from_sequence(rng.sample(range(n), n))
        verdicts.append(is_cool(members, ord))
        if k % 1000 == 0:
            assert verdicts[-1] == referee_witness(members, ord).verdict, ord
    steps = sorted_ideal._step_table(members, n).steps
    assert len(steps) == cap
    assert set(verdicts) == {True, False}


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


# The permutation search and the all-orderings test over frozenset cover
# candidates, verbatim, before the candidates became letter bitmasks.
def frozenset_all_orderings_cool(M):
    rows = [m.exponents for m in checked_antichain(M)]
    return all(
        any(len(c) <= 1 for c in frozenset_cover_supports(rows, w, x))
        for w in rows
        for x in range(len(w))
        if sum(1 for y, e in enumerate(w) if e and y != x) >= 2
    )


def frozenset_permutation_search(M, n):
    supports = [support(m) for m in M]
    # cover[(mi, x)]: supports, less x, of the members that may cover x in M[mi].
    rows = [m.exponents for m in M]
    cover = {
        (mi, x): frozenset_cover_supports(rows, w, x)
        for mi, w in enumerate(rows)
        for x in range(n)
    }

    # Letters held by more members are tried first: they decide the most
    # (member, letter) pairs once placed.
    order = sorted(range(n), key=lambda y: (-sum(y in supp for supp in supports), y))
    prefix = []
    placed = set()
    nodes = 0

    def letter_ok(x):
        # x was just placed after everything in `placed`; everything free
        # comes later.  Its internal/extremal status w.r.t. every member and
        # every potential cover is now decided.
        for mi, supp in enumerate(supports):
            before = bool(supp & placed)
            after = bool(supp - placed - {x})
            if not (before and after):
                continue  # x is not internal to this member
            if not frozenset_has_extremal_cover(cover[(mi, x)], placed):
                return False
        return True

    best = [None]

    def descend():
        nonlocal nodes
        if len(prefix) == n:
            best[0] = Ordering.from_sequence(prefix)
            return True
        for y in order:
            # an ordering and its reverse are cool together: keep letter 0
            # in the first half of the positions
            if y in placed or (y == 0 and 2 * len(prefix) > n - 1):
                continue
            nodes += 1
            prefix.append(y)
            ok = letter_ok(y)
            if ok:
                placed.add(y)
                if descend():
                    return True
                placed.discard(y)
            prefix.pop()
        return False

    found = descend()
    return CoolSearchResult(found, best[0], nodes)


def _random_nonquadratic_sets(count, seed):
    """Seeded antichains over 6-9 letters with a member of degree other than two."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 9)
        while True:
            rows = set()
            for _ in range(rng.randint(2, 6)):
                e = [0] * n
                for _ in range(rng.randint(2, 4)):
                    e[rng.randrange(n)] += 1
                rows.add(tuple(e))
            members = antichain_reduce(map(Monomial, rows))
            if len(members) >= 2 and any(m.degree != 2 for m in members):
                break
        yield n, members


def test_bitmask_searches_match_the_frozenset_searches():
    found = set()
    for n, members in _random_nonquadratic_sets(300, seed=16):
        res = find_cool_ordering(members, n)
        assert res == frozenset_permutation_search(checked_antichain(members), n), members
        assert all_orderings_cool(members) == frozenset_all_orderings_cool(members), members
        found.add(res.found)
    assert found == {True, False}
    verdicts = set()
    for members in itertools.chain(antichains(3, 3), antichains(4, 2)):
        verdict = all_orderings_cool(members)
        assert verdict == frozenset_all_orderings_cool(members), members
        verdicts.add(verdict)
    assert verdicts == {True, False}


def nae_chain_instance(seed):
    """A seeded NAE-3SAT instance on 3 variables and 6 clauses, its T-graph,
    and the quadratic set of that graph's complement encoding: x^2 for each
    vertex outside T and xy for each non-edge."""
    rng = random.Random(seed)
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(3)) for _ in range(6)
    )
    inst = NaeInstance(3, clauses)
    g = nae3sat_reduce(inst)
    n, edges = g.vertex_count, set(g.edges)
    rows = [tuple(2 * (i == x) for i in range(n)) for x in range(n) if x not in g.tset]
    rows += [
        tuple(int(i in (x, y)) for i in range(n))
        for x, y in itertools.combinations(range(n), 2)
        if (x, y) not in edges
    ]
    return inst, g, tuple(map(Monomial, rows))


def test_is_cool_on_the_many_letter_hardness_chain():
    # the fixed-ordering check scales with the letters: a full scan of 4,116
    # members over 93 letters, and the same verdicts as the T-orientations
    inst, g, members = nae_chain_instance(seed=0)
    assert (g.vertex_count, len(members)) == (93, 4116)
    assert quadratic_graph(members, 93) == g and nae3sat_brute(inst)
    res = find_cool_ordering(members)
    assert res.found and is_cool(members, res.ordering)
    assert is_fg_sorted(members, res.ordering) == FgWitness(True)
    rng = random.Random(16)
    for k in range(20):
        ord = Ordering.from_sequence(rng.sample(range(93), 93))
        assert is_cool(members, ord) == is_valid_t_orientation(g, ordering_to_orientation(g, ord))
        if k < 5:
            assert is_fg_sorted(members, ord) == referee_witness(members, ord), ord


# The permutation search over letter bitmasks, verbatim, before it remembered
# dead sets of placed letters.
def unmemoized_permutation_search(M, n):
    rows = [m.exponents for m in M]
    supports = [sum(1 << y for y, e in enumerate(s) if e) for s in rows]
    # cover[(mi, x)]: letter masks, less x, of the members that may cover x in
    # M[mi]; one covers once its mask lies wholly before x or wholly after it.
    cover = {(mi, x): _cover_masks(rows, w, x) for mi, w in enumerate(rows) for x in range(n)}

    # Letters held by more members are tried first: they decide the most
    # (member, letter) pairs once placed.
    order = sorted(range(n), key=lambda y: (-sum(supp >> y & 1 for supp in supports), y))
    prefix: list[int] = []
    nodes = 0

    def letter_ok(x: int, placed: int) -> bool:
        # x was just placed after the letters of the bitmask `placed`;
        # everything free comes later.  Its internal/extremal status w.r.t.
        # every member and every potential cover is now decided.
        return all(
            any(c & placed == c or not c & placed for c in cover[(mi, x)])
            for mi, supp in enumerate(supports)
            if supp & placed and supp & ~(placed | 1 << x)  # x is internal to this member
        )

    def descend(placed: int) -> bool:
        nonlocal nodes
        if len(prefix) == n:
            return True
        for y in order:
            # an ordering and its reverse are cool together: keep letter 0
            # in the first half of the positions
            if placed >> y & 1 or (y == 0 and 2 * len(prefix) > n - 1):
                continue
            nodes += 1
            prefix.append(y)
            if letter_ok(y, placed) and descend(placed | 1 << y):
                return True
            prefix.pop()
        return False

    found = descend(0)
    return CoolSearchResult(found, Ordering.from_sequence(prefix) if found else None, nodes)


def support_two_sets(sizes, draws, seed):
    """``quadratic_to_support2`` of the complement encodings of seeded T-graphs:
    each pair of letters is an edge with probability 0.45, then each letter
    joins T with probability 0.7; x^2 for each letter outside T, xy for each
    non-edge."""
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(draws):
            pairs = list(itertools.combinations(range(n), 2))
            edges = {e for e in pairs if rng.random() < 0.45}
            tset = {x for x in range(n) if rng.random() < 0.7}
            rows = [tuple(2 * (i == x) for i in range(n)) for x in range(n) if x not in tset]
            rows += [tuple(int(i in e) for i in range(n)) for e in pairs if e not in edges]
            yield quadratic_to_support2(tuple(map(Monomial, rows)))


def test_dead_prefix_memo_keeps_every_search_result():
    # remembering dead sets of placed letters moves no verdict, ordering or
    # node count: a revisit adds the nodes its first search took
    verdicts = set()
    for members in support_two_sets((9, 10), draws=6, seed=18):
        ms = checked_antichain(members)
        res = find_cool_ordering(ms)
        assert res == unmemoized_permutation_search(ms, ms[0].n), members
        verdicts.add(res.found)
    assert verdicts == {True, False}
