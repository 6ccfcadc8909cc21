"""Acceptance suite: one test (or test group) per criterion, exact matching.

Each criterion prints a PASS line on success (run with ``-s`` to see them).
Two clauses are marked strict-xfail: the squaring claim of criterion 6 and
the pinfg branch of criterion 8 fail on concrete counterexamples that are
reproduced and explained in the test bodies; the assertions state the
criteria verbatim and are expected to stay red.
"""

import itertools
import random
import time

import pytest

from monoideal.core import (
    Monomial,
    Ordering,
    Word,
    all_orderings,
    divides,
    extremal_degree_max,
    support,
)
from monoideal.cool_orderings import (
    all_orderings_cool,
    find_cool_ordering,
    is_cool,
    quadratic_graph,
)
from monoideal.crosscheck import (
    check_fg_vs_probe,
    check_preimage_conditions,
    check_nae_reduction,
    check_sat_reduction,
    representative_antichains,
)
from monoideal.polyhedral import (
    Certificate,
    IneqSystem,
    SatInstance,
    brute_force_sat,
    enumerate_minimal_generators as poly_mingens,
    membership,
    reduction_is_negative,
    sat_reduction,
    union,
    verify_certificate,
)
from monoideal.preimage import preimage_fg, square_letters
from monoideal.sorted_ideal import (
    complete_enumeration_bound,
    fg_generating_set,
    generator_count_bound,
    is_fg_sorted,
    minimal_word_generators,
    tight_family,
)
from monoideal.torientation import (
    GADGET3_SPECIAL_EDGES,
    gadget3,
    t_orientation_search,
    top_hat,
)
from monoideal.word_oracle import (
    finiteness_probe,
    preimage_report,
    sorted_ideal_report,
)

from conftest import (
    M,
    W,
    brute_force_t_orientations,
    enumerate_t_orientations,
    quadratic_family,
)

AB2C_A3B = M((1, 2, 1), (3, 1, 0))  # {a b^2 c, a^3 b}


def done(n, text):
    print(f"CRITERION {n}: PASS: {text}")


def test_criterion_1_worked_example():
    abc = Ordering.identity(3)
    acb = Ordering.from_sequence((0, 2, 1))
    bac = Ordering.from_sequence((1, 0, 2))

    w1 = is_fg_sorted(AB2C_A3B, abc)
    assert (w1.verdict, w1.violator) == (False, (Monomial((1, 2, 1)), 1))
    w2 = is_fg_sorted(AB2C_A3B, acb)
    assert (w2.verdict, w2.violator) == (False, (Monomial((3, 1, 0)), 2))
    assert is_fg_sorted(AB2C_A3B, bac).verdict

    gens = minimal_word_generators(fg_generating_set(AB2C_A3B, bac))
    # b^2 a c, b^2 a^2 c, b a^3 as words over letters a=0, b=1, c=2
    assert set(gens) == set(W((1, 1, 0, 2), (1, 1, 0, 0, 2), (1, 0, 0, 0)))
    done(1, "worked example: violators and the exact three-word generator list")


def test_criterion_2_extremal_degree_maxima():
    members = M(
        (0, 0, 3, 0, 0, 0, 0),  # c^3
        (2, 0, 5, 0, 0, 2, 0),  # a^2 c^5 f^2
        (0, 0, 1, 0, 0, 3, 1),  # c f^3 g
        (2, 2, 2, 0, 0, 0, 0),  # a^2 b^2 c^2
    )
    alphabetical = Ordering.identity(7)
    assert extremal_degree_max(members, 2, alphabetical) == 3
    assert extremal_degree_max(members, 5, alphabetical) == 2
    done(2, "r_c = 3 and r_f = 2 on the four-member example")


@pytest.mark.parametrize("m,r", [(2, (2,)), (3, (2, 2)), (2, (3, 2))])
def test_criterion_3_tight_family(m, r):
    fam = tight_family(m, r)
    n = len(r) + 2
    ordn = Ordering.identity(n)
    expected = m
    for ri in r:
        expected *= ri
    expected += n - 2
    report = sorted_ideal_report(fam, ordn, complete_enumeration_bound(fam, ordn))
    assert len(report.minimal_generators) == expected
    assert generator_count_bound(fam, ordn) == expected
    done(3, f"tight family {m},{r}: {expected} minimal generators, bound met")


def test_criterion_4_exhaustive_soundness_sweep():
    start = time.time()
    assert check_fg_vs_probe(1, 3) == []
    assert check_fg_vs_probe(2, 3) == []
    assert check_fg_vs_probe(3, 3) == []
    elapsed = time.time() - start
    assert elapsed < 600
    done(4, f"criterion equals oracle on all antichains, n<=3, degree<=3 ({elapsed:.0f}s)")


def test_criterion_5_preimage():
    xx = M((2, 0))
    assert not preimage_fg(xx).verdict
    report = preimage_report(xx, 8)
    assert report.minimal_generators == W(
        (0, 0),
        (0, 1, 0),
        (0, 1, 1, 0),
        (0, 1, 1, 1, 0),
        (0, 1, 1, 1, 1, 0),
        (0, 1, 1, 1, 1, 1, 0),
        (0, 1, 1, 1, 1, 1, 1, 0),
    )
    a2_bc = M((2, 0, 0), (0, 1, 1))
    assert not preimage_fg(a2_bc).verdict
    assert all_orderings_cool(a2_bc)
    done(5, "intro family truncation at cap 8 and the {a^2, bc} separation")


def test_criterion_6_conditions_agree():
    for n in (1, 2, 3):
        assert check_preimage_conditions(n, 3) == []
    done(6, "erasure and pairwise preimage criteria agree on the full sweep")


@pytest.mark.xfail(
    strict=True,
    reason="squaring an every-ordering-cool set does not always destroy finite "
    "generation of the preimage: {x1, x2} squares to {x1^2, x2^2}, whose "
    "preimage ideal has the four minimal generators x1x1, x2x2, x1x2x1, "
    "x2x1x2; the claim only holds when some letter has no pure power in the "
    "set (see the corrected law in test_preimage.py)",
)
def test_criterion_6_squaring_flips_preimage():
    failures = []
    for n in (2, 3):
        for members in representative_antichains(n, 3):
            if not all_orderings_cool(members):
                continue
            sq = square_letters(members)
            if not all_orderings_cool(sq):
                failures.append(("lost-cool", members))
            if preimage_fg(sq).verdict:
                failures.append(("still-finite", members))
    if failures:
        print(f"CRITERION 6 (squaring clause): FAIL: {len(failures)} counterexamples, "
              f"first: {failures[0]}")
    assert failures == []
    done(6, "squaring preserved coolness and forced infinite preimages")


def test_criterion_7_gadget_facts():
    hat = top_hat()
    assert len(brute_force_t_orientations(hat)) == 2
    orientations = enumerate_t_orientations(hat)
    assert sum((1, 2) in o.arc_set() for o in orientations) == 1
    assert sum((2, 1) in o.arc_set() for o in orientations) == 1

    g = gadget3()
    orientations = enumerate_t_orientations(g)
    for flips in itertools.product((False, True), repeat=3):
        forced = [
            (b, a) if flip else (a, b)
            for (a, b), flip in zip(GADGET3_SPECIAL_EDGES, flips)
        ]
        count = sum(o.arc_set() >= set(forced) for o in orientations)
        assert count == (0 if len(set(flips)) == 1 else 1)
    done(7, "hat has exactly two orientations; gadget extension counts match")


def test_criterion_8_nae_reduction():
    assert check_nae_reduction(3, 2) == []
    done(8, "NAE brute force matches T-orientation existence, <=3 vars, <=2 clauses")


@pytest.mark.parametrize("target", ["mdois", "imfg"])
def test_criterion_8_sat_reductions(target):
    assert check_sat_reduction(target, 3, 2) == []
    done(8, f"SAT matches the negative answer of the {target} reduction")


@pytest.mark.xfail(
    strict=True,
    reason="the pinfg construction (base system + y>=2 + pair systems with "
    "y>=1) is unsound on unsatisfiable inputs: for (x1) and (-x1) the base "
    "system keeps minimal generators such as x1*nx1*x2*nx3 that contain no "
    "y, and no support-two member z^r*t can cover them, so the erasure "
    "criterion reports an infinite preimage (confirmed independently by the "
    "pairwise criterion and a word-level pumping family); only satisfiable "
    "instances are certified correctly",
)
def test_criterion_8_sat_reduction_pinfg():
    mismatches = check_sat_reduction("pinfg", 3, 2)
    if mismatches:
        inst, sat, neg = mismatches[0]
        print(
            "CRITERION 8 (pinfg): FAIL: "
            f"{len(mismatches)} mismatches, first: clauses={inst.clauses} "
            f"satisfiable={sat} reduction-negative={neg}"
        )
    assert mismatches == []
    done(8, "SAT matches the negative answer of the pinfg reduction")


def test_criterion_9_quadratic_bridge():
    for n in range(2, 6):
        count = 0
        for members in quadratic_family(n):
            count += 1
            found = find_cool_ordering(members, n).found
            exhaustive = any(is_cool(members, o) for o in all_orderings(n))
            graph = t_orientation_search(quadratic_graph(members, n)) is not None
            assert found == exhaustive == graph, members
        if n == 5:
            assert count == 543

    c5 = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    members = []
    for x, y in itertools.combinations(range(5), 2):
        if (x, y) not in c5:
            e = [0] * 5
            e[x] = e[y] = 1
            members.append(Monomial(tuple(e)))
    assert not find_cool_ordering(members, 5).found
    done(9, "search, exhaustive scan and orientation agree for quadratic sets, n<=5")


def test_criterion_10_polyhedral():
    for k in (3, 5, 8):
        system = IneqSystem.make([[1, 1]], [[k]])
        assert len(poly_mingens(system)) == k + 1

    rng = random.Random(2024)
    systems = [
        IneqSystem.make([[1, 0, 2], [0, 1, 0]], [[3, 1]]),
        IneqSystem.make([[2, 2, 0]], [[4]]),
        IneqSystem.make([[0, 0, 1], [1, 1, 1]], [[2, 5]]),
    ]
    combined = union(systems)
    for _ in range(1000):
        x = tuple(rng.randint(0, 6) for _ in range(3))
        assert membership(combined, x) == any(membership(s, x) for s in systems)

    instances = 0
    accepted = 0
    while instances < 50:
        n = rng.randint(2, 3)
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        if any(all(a == 0 for a in row) for row in rows):
            continue
        thresholds = [[rng.randint(0, 3) for _ in rows] for _ in range(rng.randint(1, 2))]
        system = IneqSystem.make(rows, thresholds)
        instances += 1
        gens = poly_mingens(system)
        monomials = tuple(Monomial(g) for g in gens)
        for g in gens:
            for kind in ("support3", "preimage_not_fg", "sorted_not_fg"):
                letters = (None,) if kind == "support3" else tuple(range(n))
                for letter in letters:
                    if not verify_certificate(system, Certificate(kind, g, letter)):
                        continue
                    accepted += 1
                    if kind == "support3":
                        assert any(sum(1 for v in gg if v > 0) >= 3 for gg in gens)
                    elif kind == "preimage_not_fg":
                        assert not preimage_fg(monomials).verdict
                    else:
                        assert not is_fg_sorted(
                            monomials, Ordering.identity(n)
                        ).verdict
    assert accepted > 0
    done(10, f"k+1 generator counts, union disjunction, {accepted} sound certificates")
