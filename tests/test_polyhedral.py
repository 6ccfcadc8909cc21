import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoideal import polyhedral
from monoideal.core import (
    BudgetExceededError,
    Monomial,
    MonoidealError,
    Ordering,
    divides,
)
from monoideal.crosscheck import antichains
from monoideal.polyhedral import (
    Certificate,
    IneqSystem,
    SatInstance,
    _check_vector,
    _is_minimal,
    brute_force_sat,
    convexity_check,
    enumerate_minimal_generators,
    from_generators,
    membership,
    reduction_is_negative,
    sat_reduction,
    union,
    verify_certificate,
)

from conftest import (
    M,
    in_hull_plus_orthant,
    is_antichain,
    is_minimal_generator,
    outcome,
)

HALF_PLANE5 = IneqSystem.make([[1, 1]], [[5]])


def test_membership():
    assert membership(HALF_PLANE5, (2, 3))
    assert not membership(HALF_PLANE5, (2, 2))
    empty = IneqSystem.make([[1, 0]], [])
    assert not membership(empty, (9, 9))
    with pytest.raises(MonoidealError):
        membership(HALF_PLANE5, (1, 2, 3))


def test_is_minimal_generator():
    assert is_minimal_generator(HALF_PLANE5, (2, 3))
    assert not is_minimal_generator(HALF_PLANE5, (3, 3))
    assert not is_minimal_generator(HALF_PLANE5, (1, 1))


def test_enumerate_minimal_generators():
    gens = enumerate_minimal_generators(HALF_PLANE5)
    assert gens == tuple((i, 5 - i) for i in range(6))
    single = from_generators(M((2, 1)))
    assert enumerate_minimal_generators(single) == ((2, 1),)
    u = union([IneqSystem.make([[1, 0]], [[2]]), IneqSystem.make([[0, 1]], [[2]])])
    assert enumerate_minimal_generators(u) == ((0, 2), (2, 0))


def test_enumeration_sound_and_complete_in_box():
    systems = [
        HALF_PLANE5,
        from_generators(M((2, 0), (1, 1))),
        IneqSystem.make([[1, 2], [2, 1]], [[2, 3], [4, 0]]),
    ]
    for sys_ in systems:
        gens = set(enumerate_minimal_generators(sys_))
        box = max(x for w in sys_.thresholds for x in w)
        for point in itertools.product(range(box + 1), repeat=sys_.ncols):
            assert (point in gens) == is_minimal_generator(sys_, point)


def test_mdois_assignment_is_a_support3_certificate():
    inst = SatInstance(3, ((1, -2, 3),))
    sys_ = sat_reduction(inst, "mdois")
    # satisfying assignment x1=1, x2=0, x3=1 as the vector
    # (x1, nx1, x2, nx2, x3, nx3)
    assignment = (1, 0, 0, 1, 1, 0)
    assert verify_certificate(sys_, Certificate("support3", assignment))


def _box_products(rows, ncols, top):
    """Ax for every point x of the box [0, top]^ncols, built one column at a time."""
    products = {(): [0] * len(rows)}
    for j in range(ncols):
        column = [row[j] for row in rows]
        products = {
            x + (v,): [s + v * a for s, a in zip(sx, column)]
            for x, sx in products.items()
            for v in range(top + 1)
        }
    return products


def _minimal_box_points(top, ncols, member):
    """The points of [0, top]^ncols that are members and whose one-step
    decrements are not, in lexicographic order."""
    points = list(itertools.product(range(top + 1), repeat=ncols))
    inside = set(filter(member, points))
    return tuple(
        x
        for x in points
        if x in inside
        and not any(v and x[:j] + (v - 1,) + x[j + 1 :] in inside for j, v in enumerate(x))
    )


def _box_scan_generators(sys_):
    """The referee: ``is_minimal_generator`` on every point of the coordinate
    box, with Ax tabulated once per point and no code shared with the package."""
    if not sys_.thresholds:
        return ()
    box = max((x for w in sys_.thresholds for x in w), default=0)
    products = _box_products(sys_.rows, sys_.ncols, box)
    needs = [[(r, b) for r, b in enumerate(w) if b] for w in sys_.thresholds]
    return _minimal_box_points(
        box,
        sys_.ncols,
        lambda x: any(all(products[x][r] >= b for r, b in need) for need in needs),
    )


def _random_system(rng, max_cols=4, max_rows=3):
    ncols = rng.randint(1, max_cols)
    rows = [[rng.randint(0, 3) for _ in range(ncols)] for _ in range(rng.randint(0, max_rows))]
    thresholds = [[rng.randint(0, 3) for _ in rows] for _ in range(rng.randint(0, 3))]
    names = [f"v{j}" for j in range(ncols)] if not rows or rng.random() < 0.3 else None
    return IneqSystem.make(rows, thresholds, names)


def _random_cnf(rng, variables=3):
    clauses = []
    for _ in range(rng.randint(1, 6)):
        vs = rng.sample(range(1, variables + 1), rng.randint(1, 3))
        clauses.append(tuple(sorted(v if rng.random() < 0.5 else -v for v in vs)))
    return SatInstance(variables, tuple(clauses))


def test_mingens_match_box_scan_on_every_small_system():
    # every matrix with 1-2 rows, 1-3 columns and entries 0-2, against
    # every set of one or two thresholds with entries 0-3.  The rows are
    # taken in sorted order only: listing them in another order, with the
    # threshold entries alike, relabels the rows and changes neither the
    # ideal nor the search.  The box scan of each matrix records once
    # which thresholds each point of [0, 3]^ncols meets.
    checked = 0
    for nrows, ncols in itertools.product((1, 2), (1, 2, 3)):
        thresholds = list(itertools.product(range(4), repeat=nrows))
        threshold_sets = [(w,) for w in thresholds] + list(
            itertools.combinations(thresholds, 2)
        )
        for rows in itertools.combinations_with_replacement(
            itertools.product(range(3), repeat=ncols), nrows
        ):
            meets = {
                x: {w for w in thresholds if all(a >= b for a, b in zip(ax, w))}
                for x, ax in _box_products(rows, ncols, 3).items()
            }
            for ws in threshold_sets:
                sys_ = IneqSystem.make(rows, ws)
                box = max(x for w in ws for x in w)
                expected = _minimal_box_points(
                    box, ncols, lambda x: not meets[x].isdisjoint(ws)
                )
                assert enumerate_minimal_generators(sys_) == expected, (rows, ws)
                checked += 1
    assert checked == 58_734


def test_mingens_match_box_scan_on_random_systems():
    rng = random.Random(5)
    kinds = set()
    for _ in range(2000):
        sys_ = _random_system(rng)
        kinds.add((bool(sys_.rows), sys_.names is not None))
        assert enumerate_minimal_generators(sys_) == _box_scan_generators(sys_)
    assert kinds == {(False, True), (True, False), (True, True)}


def test_mingens_match_box_scan_on_sat_reductions():
    rng = random.Random(8)
    for _ in range(100):
        inst = _random_cnf(rng)
        for target in ("mdois", "imfg", "pinfg"):
            sys_ = sat_reduction(inst, target)
            assert enumerate_minimal_generators(sys_) == _box_scan_generators(sys_)


@st.composite
def _systems(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 3))
    entry = st.integers(0, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    thresholds = draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows), max_size=3))
    names = [f"v{j}" for j in range(ncols)] if draw(st.booleans()) or not rows else None
    return IneqSystem.make(rows, thresholds, names)


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_mingens_match_box_scan_property(sys_):
    assert enumerate_minimal_generators(sys_) == _box_scan_generators(sys_)


def test_enumeration_budget():
    big = IneqSystem.make([[1] * 10], [[9] * 1])
    with pytest.raises(BudgetExceededError) as err:
        enumerate_minimal_generators(big, budget=1000)
    assert str(err.value) == "lattice box of 10000000000 points exceeds the budget 1000"
    # a box of exactly the budget is enumerated; one point more is refused
    assert enumerate_minimal_generators(HALF_PLANE5, budget=36) == _box_scan_generators(
        HALF_PLANE5
    )
    with pytest.raises(BudgetExceededError):
        enumerate_minimal_generators(HALF_PLANE5, budget=35)


def test_enumeration_depth_is_not_recursion():
    # x_1 + ... + x_200 >= 1 and the odd columns' sum >= 1: the generators
    # are the odd unit vectors; the search is 200 columns deep, past the
    # recursion limit set here
    n = 200
    sys_ = IneqSystem.make([[1] * n, [j % 2 for j in range(n)]], [[1, 1]])
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        gens = enumerate_minimal_generators(sys_, budget=2**n)
    finally:
        sys.setrecursionlimit(limit)
    assert gens == tuple(
        sorted(tuple(int(i == j) for i in range(n)) for j in range(1, n, 2))
    )


def test_from_generators():
    sys_ = from_generators(M((2, 0, 0), (0, 1, 1)))
    assert sys_.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert set(sys_.thresholds) == {(2, 0, 0), (0, 1, 1)}
    assert membership(sys_, (2, 5, 0))
    assert not membership(sys_, (1, 1, 0))


def test_from_generators_membership_is_divisibility():
    from monoideal.core import divides

    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 4)
        members = M(*{tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3)})
        sys_ = from_generators(members)
        x = Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
        assert membership(sys_, x.exponents) == any(divides(m, x) for m in members)


def test_union_matches_disjunction_on_random_vectors():
    rng = random.Random(42)
    systems = [
        IneqSystem.make([[1, 0, 2], [0, 1, 0]], [[3, 1]]),
        IneqSystem.make([[2, 2, 0]], [[4]]),
        IneqSystem.make([[0, 0, 1], [1, 1, 1]], [[2, 5]]),
    ]
    combined = union(systems)
    for _ in range(1000):
        x = tuple(rng.randint(0, 6) for _ in range(3))
        assert membership(combined, x) == any(membership(s, x) for s in systems)


def _ref_union(systems):
    """The union as it was with an offsets list and a second loop (referee)."""
    if not systems:
        raise MonoidealError("union of no systems")
    n = systems[0].ncols
    for s in systems:
        if s.ncols != n:
            raise MonoidealError("union requires a common column count")
        if len(s.thresholds) != 1:
            raise MonoidealError("union takes systems with a single threshold each")
    rows: list[tuple[int, ...]] = []
    offsets = []
    for s in systems:
        offsets.append(len(rows))
        rows.extend(s.rows)
    total = len(rows)
    thresholds = []
    for s, off in zip(systems, offsets):
        w = [0] * total
        w[off : off + len(s.rows)] = list(s.thresholds[0])
        thresholds.append(tuple(w))
    names = systems[0].names
    return IneqSystem.make(rows, thresholds, names)


def test_union_matches_offsets_referee():
    rng = random.Random(23)
    for _ in range(2000):
        systems = []
        for _ in range(rng.randint(0, 4)):
            ncols = rng.choice((2, 2, 2, 3))
            nrows = rng.randint(0, 3)
            rows = [[rng.randint(0, 2) for _ in range(ncols)] for _ in range(nrows)]
            thresholds = [
                [rng.randint(0, 3) for _ in range(nrows)]
                for _ in range(rng.choice((1, 1, 1, 0, 2)))
            ]
            names = rng.choice((None, [f"v{j}" for j in range(ncols)]))
            systems.append(IneqSystem.make(rows, thresholds, names))
        assert outcome(union, systems) == outcome(_ref_union, systems)


def test_union_requires_single_threshold():
    with pytest.raises(MonoidealError):
        union([HALF_PLANE5, IneqSystem.make([[1, 1]], [[1], [2]])])


def test_hull_membership():
    gens = M((2, 0), (0, 2))
    assert in_hull_plus_orthant(gens, (1, 1))  # lambda = 1/2, 1/2
    assert in_hull_plus_orthant(gens, (2, 0))
    assert not in_hull_plus_orthant(gens, (1, 0))
    assert in_hull_plus_orthant(M((3, 1),), (3, 2))
    assert not in_hull_plus_orthant(M((3, 1),), (2, 5))


def _ref_fourier_motzkin_feasible(constraints, nvars):
    """Fourier-Motzkin elimination over the integers (referee copy)."""
    cons = constraints
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, rhs in cons:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        for (pc, pr), (nc, nr) in itertools.product(pos, neg):
            scale_p, scale_n = -nc[var], pc[var]
            coeffs = [
                scale_p * pc[i] + scale_n * nc[i] for i in range(var)
            ]
            rest.append((coeffs + [0] * (nvars - var), scale_p * pr + scale_n * nr))
        cons = rest
    return all(rhs >= 0 for _, rhs in cons)


def _ref_hull_test(rows):
    """The hull test over the whole set, one variable per member but one (referee)."""
    last = rows[-1]
    # variables lam_0..lam_{k-2}; lam_{k-1} = 1 - sum of the others
    nv = len(rows) - 1
    fixed = []
    for i in range(nv):
        coeffs = [0] * nv
        coeffs[i] = -1
        fixed.append((coeffs, 0))  # lam_i >= 0
    fixed.append(([1] * nv, 1))  # lam_last >= 0
    columns = [[row[j] - last[j] for row in rows[:nv]] for j in range(len(last))]

    def test(x):
        cons = fixed + [(c, xj - lj) for c, xj, lj in zip(columns, x, last)]
        return _ref_fourier_motzkin_feasible(cons, nv)

    return test


def _convexity_by_hull_scan(M):
    """The referee: the whole-set hull test on every box point, then divisibility."""
    if not M:
        return True
    n = M[0].n
    top = max(m.degree for m in M) + 1
    in_hull = _ref_hull_test([m.exponents for m in M])
    for point in itertools.product(range(top + 1), repeat=n):
        if in_hull(point):
            if not any(divides(m, Monomial(point)) for m in M):
                return False
    return True


def _hull_sets_with_more_members_than_letters():
    yield from (ms for ms in antichains(2, 6) if len(ms) > 2)
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(4, 6)
        while True:
            members = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(k)}
            ms = M(*members)
            if len(ms) == k and all(m.degree for m in ms) and is_antichain(ms):
                break
        yield ms


def test_hull_subsets_match_whole_set_referee():
    checked = 0
    for ms in _hull_sets_with_more_members_than_letters():
        rows = [m.exponents for m in ms]
        in_hull, referee = polyhedral._hull_test(rows), _ref_hull_test(rows)
        top = max(m.degree for m in ms) + 1
        convex = True
        # the box of the convexity scan, less the points a member divides
        for point in itertools.product(range(top + 1), repeat=ms[0].n):
            if any(divides(m, Monomial(point)) for m in ms):
                continue
            verdict = referee(point)
            assert in_hull(point) == verdict, (ms, point)
            convex = convex and not verdict
        assert in_hull_plus_orthant(ms, (top,) * ms[0].n)
        assert convexity_check(ms) == convex, ms
        checked += 1
    assert checked == 1230
    # no letters: the empty monomial lies above itself
    assert in_hull_plus_orthant([Monomial(())], ()) and _ref_hull_test([()])(())
    assert convexity_check([Monomial(())]) == _convexity_by_hull_scan(M(()))


@pytest.mark.parametrize(
    "members",
    [((4, 0), (3, 1), (1, 3), (0, 4)), tuple((i, 2 * (10 - i) + i % 2) for i in range(10))],
    ids=["four", "ten"],
)
def test_hull_eliminates_at_most_n_minus_one_variables(monkeypatch, members):
    seen = []
    feasible = polyhedral._fourier_motzkin_feasible

    def recording(constraints, nvars):
        seen.append(nvars)
        return feasible(constraints, nvars)

    monkeypatch.setattr(polyhedral, "_fourier_motzkin_feasible", recording)
    assert not convexity_check(M(*members))
    assert seen and max(seen) <= 1  # n - 1 for two letters


def test_convexity_matches_hull_scan_on_small_antichains():
    checked = 0
    for n in (2, 3):
        nonunits = [e for e in itertools.product(range(3), repeat=n) if any(e)]
        for k in (1, 2, 3):
            for members in itertools.combinations(nonunits, k):
                ms = M(*members)
                if not is_antichain(ms):
                    continue
                assert convexity_check(ms) == _convexity_by_hull_scan(ms), members
                checked += 1
    assert checked == 556


def test_convexity_budget_counts_hull_subsets():
    # 35 members on four letters: 6^4 box points times C(35, 4) subsets each
    quartics = M(*(e for e in itertools.product(range(5), repeat=4) if sum(e) == 4))
    with pytest.raises(BudgetExceededError) as info:
        convexity_check(quartics)
    assert str(info.value) == (
        "convexity scan of 1296 box points times 52360 member subsets "
        "= 67858560 hull tests exceeds the budget 10000000"
    )
    # ten members on two letters: 22^2 points times C(10, 2) subsets
    ten = M(*((i, 2 * (10 - i) + i % 2) for i in range(10)))
    assert not convexity_check(ten, budget=484 * 45)
    with pytest.raises(BudgetExceededError):
        convexity_check(ten, budget=484 * 45 - 1)
    # three members on three letters try one subset: the box bound alone
    three = M((2, 1, 0), (0, 2, 1), (1, 0, 2))
    assert convexity_check(three, budget=5**3) == convexity_check(three)


def test_convexity_check():
    assert not convexity_check(M((2, 0), (0, 2)))
    assert convexity_check(M((2, 3)))
    assert convexity_check(M((1, 0), (0, 1)))
    assert convexity_check(())


def test_support3_certificate():
    # union of the coordinate half-spaces x_i >= 1 summed: x1+x2+x3 >= 3
    sys_ = IneqSystem.make([[1, 1, 1]], [[3]])
    assert verify_certificate(sys_, Certificate("support3", (1, 1, 1)))
    assert not verify_certificate(sys_, Certificate("support3", (2, 1, 0)))
    assert not verify_certificate(sys_, Certificate("support3", (1, 1, 2)))


def test_preimage_certificate():
    sys_ = from_generators(M((2, 0)))
    assert verify_certificate(sys_, Certificate("preimage_not_fg", (2, 0), 1))
    # {a^2, ab, b^2} is finitely generated: the analogous claim must fail
    good = from_generators(M((2, 0), (1, 1), (0, 2)))
    assert not verify_certificate(good, Certificate("preimage_not_fg", (2, 0), 1))


def test_sorted_certificate():
    # satisfiable CNF: the assignment generator with the silent letter z
    inst = SatInstance(3, ((1, 2), (-1, 3)))
    sys_ = sat_reduction(inst, "imfg")
    # y=1, z=0, x1 true, x2 true, x3 true
    gen = (1, 0, 1, 0, 1, 0, 1, 0)
    cert = Certificate("sorted_not_fg", gen, 1, Ordering.identity(8))
    assert verify_certificate(sys_, cert)
    # letter must be internal: the first column y is not
    assert not verify_certificate(
        sys_, Certificate("sorted_not_fg", gen, 0, Ordering.identity(8))
    )
    # a covered internal letter is rejected: x1 is internal to the
    # generator but the pure pair generators have it extremal
    assert not verify_certificate(
        sys_, Certificate("sorted_not_fg", gen, 2, Ordering.identity(8))
    )


def test_certificate_validation():
    with pytest.raises(MonoidealError):
        Certificate("bogus", (1,))
    with pytest.raises(MonoidealError):
        Certificate("preimage_not_fg", (1, 1))  # letter required
    with pytest.raises(MonoidealError):
        verify_certificate(HALF_PLANE5, Certificate("support3", (1, 1, 1)))


def _ref_member(sys_, x):
    ax = [sum(a * v for a, v in zip(row, x)) for row in sys_.rows]
    return any(all(wi <= ai for wi, ai in zip(w, ax)) for w in sys_.thresholds)


def _ref_no_member_on(sys, z, t=None):
    # no vector of shape (z arbitrary, t once when given, rest zero) belongs:
    # every threshold has a row demanding more than t supplies, where z
    # cannot supply anything
    return all(
        any(
            wi > (0 if t is None else row[t]) and row[z] == 0
            for wi, row in zip(w, sys.rows)
        )
        for w in sys.thresholds
    )


def _ref_verify_certificate(sys, cert):
    """The verifier with a hand-written preimage test and a per-certificate
    subsystem of the rows that miss the letter (referee copy)."""
    m = _check_vector(sys, cert.generator)
    if not _is_minimal(sys, m):
        return False
    if cert.kind == "support3":
        return sum(1 for v in m if v > 0) >= 3

    z = cert.letter
    if z is None or not 0 <= z < sys.ncols:
        raise MonoidealError("certificate letter out of range")

    if cert.kind == "preimage_not_fg":
        if sum(v for i, v in enumerate(m) if i != z) < 2:
            return False
        return _ref_no_member_on(sys, z) and all(
            _ref_no_member_on(sys, z, t) for t, v in enumerate(m) if t != z and v > 0
        )

    # sorted_not_fg
    ordering = cert.ordering or Ordering.identity(sys.ncols)
    if ordering.n != sys.ncols:
        raise MonoidealError("certificate ordering does not match the columns")
    supp = [i for i, v in enumerate(m) if v > 0]
    if not supp:
        return False
    lo = min(supp, key=lambda i: ordering.rank[i])
    hi = max(supp, key=lambda i: ordering.rank[i])
    if not (ordering.rank[lo] < ordering.rank[z] < ordering.rank[hi]):
        return False
    kept = [i for i, row in enumerate(sys.rows) if row[z] == 0]
    sub = IneqSystem.make(
        [sys.rows[i] for i in kept],
        [tuple(w[i] for i in kept) for w in sys.thresholds],
    )
    m_left = tuple(
        v if ordering.rank[i] <= ordering.rank[z] else 0 for i, v in enumerate(m)
    )
    m_right = tuple(
        v if ordering.rank[i] >= ordering.rank[z] else 0 for i, v in enumerate(m)
    )
    # with no surviving rows, the subsystem accepts everything whenever it
    # has a threshold, whatever the vectors' length
    return not _ref_member(sub, m_left) and not _ref_member(sub, m_right)


def test_verify_certificate_matches_subsystem_referee():
    rng = random.Random(11)
    calls = accepted = 0
    for _ in range(400):
        sys_ = _random_system(rng, max_cols=5, max_rows=4)
        ncols = sys_.ncols
        vectors = list(enumerate_minimal_generators(sys_)) + [(0,) * ncols] + [
            tuple(rng.randint(0, 3) for _ in range(ncols)) for _ in range(2)
        ]
        for x in vectors:
            order = list(range(ncols))
            rng.shuffle(order)
            for ordering in (None, Ordering.from_sequence(tuple(order))):
                for kind in ("support3", "preimage_not_fg", "sorted_not_fg"):
                    for z in range(-1, ncols + 1):
                        cert = Certificate(kind, x, z, ordering)
                        got = outcome(verify_certificate, sys_, cert)
                        assert got == outcome(_ref_verify_certificate, sys_, cert), cert
                        calls += 1
                        accepted += got == ("value", True)
    assert calls > 10_000 and accepted > 100


def test_letter_certificates_ask_membership_with_the_letter_unbounded():
    # the hand-written preimage test, on every shape it was asked about
    rng = random.Random(3)
    for _ in range(500):
        sys_ = _random_system(rng, max_rows=4)
        ncols = sys_.ncols
        for z in range(ncols):
            for t in [None] + [t for t in range(ncols) if t != z]:
                x = [1 if i == t else 0 for i in range(ncols)]
                x[z] = float("inf")
                assert (not polyhedral._member(sys_, x)) == _ref_no_member_on(sys_, z, t)


def test_certificate_json_round_trip():
    cert = Certificate("sorted_not_fg", (1, 0, 2), 1, Ordering.from_sequence((2, 0, 1)))
    again = Certificate.from_json_dict(cert.to_json_dict())
    assert again == cert


def test_pair_system_has_three_minimal_generators():
    inst = SatInstance(3, ((1, 2, 3),))
    pair = IneqSystem.make([[0, 0, 1, 1, 0, 0, 0, 0]], [[2]])
    gens = enumerate_minimal_generators(pair)
    assert len(gens) == 3


def test_sat_reduction_shapes():
    inst = SatInstance(3, ((1, -2), (2, 3)))
    mdois = sat_reduction(inst, "mdois")
    assert mdois.ncols == 6
    assert len(mdois.thresholds) == 1 + 3
    imfg = sat_reduction(inst, "imfg")
    assert imfg.ncols == 8 and imfg.names[:2] == ("y", "z")
    pinfg = sat_reduction(inst, "pinfg")
    assert pinfg.ncols == 7 and pinfg.names[0] == "y"
    assert len(pinfg.thresholds) == 1 + 1 + 3
    with pytest.raises(MonoidealError):
        sat_reduction(SatInstance(2, ((1, 2),)), "mdois")


def test_reduction_decisions_match_sat_spot():
    sat = SatInstance(3, ((1, 2, 3),))
    unsat = SatInstance(3, ((1,), (-1,)))
    assert brute_force_sat(sat) and not brute_force_sat(unsat)
    assert brute_force_sat(SatInstance(24, ((-24,),)))
    with pytest.raises(MonoidealError):
        brute_force_sat(SatInstance(25, ((1,),)))
    for target in ("mdois", "imfg"):
        assert reduction_is_negative(sat_reduction(sat, target), target)
        assert not reduction_is_negative(sat_reduction(unsat, target), target)
    # the pinfg construction certifies satisfiable instances
    assert reduction_is_negative(sat_reduction(sat, "pinfg"), "pinfg")


def test_accepted_certificates_imply_negative_decisions():
    # every certificate the verifier accepts must match a recomputed
    # negative answer of the corresponding decision procedure
    rng = random.Random(6)
    from monoideal.preimage import preimage_fg
    from monoideal.sorted_ideal import is_fg_sorted

    checked = 0
    for _ in range(50):
        n = rng.randint(2, 3)
        rows = [
            [rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))
        ]
        if any(all(a == 0 for a in row) for row in rows):
            continue
        thresholds = [
            [rng.randint(0, 3) for _ in rows] for _ in range(rng.randint(1, 2))
        ]
        sys_ = IneqSystem.make(rows, thresholds)
        gens = enumerate_minimal_generators(sys_)
        monomials = tuple(Monomial(g) for g in gens)
        for g in gens:
            for kind in ("support3", "preimage_not_fg", "sorted_not_fg"):
                for letter in (None,) if kind == "support3" else range(n):
                    cert = Certificate(kind, g, letter)
                    if not verify_certificate(sys_, cert):
                        continue
                    checked += 1
                    if kind == "support3":
                        assert any(
                            sum(1 for v in gg if v > 0) >= 3 for gg in gens
                        )
                    elif kind == "preimage_not_fg":
                        assert not preimage_fg(monomials).verdict
                    else:
                        assert not is_fg_sorted(monomials, Ordering.identity(n)).verdict
    assert checked > 0
