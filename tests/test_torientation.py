import itertools
import random

import pytest

from monoideal.core import MonoidealError, Ordering, ParseError
from monoideal.torientation import (
    GADGET3_SPECIAL_EDGES,
    NaeInstance,
    Orientation,
    TGraph,
    _Solver,
    format_tgraph,
    gadget3,
    is_valid_t_orientation,
    nae3sat_brute,
    nae3sat_reduce,
    ordering_to_orientation,
    orientation_to_ordering,
    parse_tgraph,
    t_orientation_search,
    t_orientation_search_stats,
    top_hat,
)

from conftest import (
    ReferenceSolver,
    brute_force_t_orientations,
    direct_small_t_orientation,
    enumerate_t_orientations,
)


def test_validity_rejects_directed_cycle():
    g = TGraph.make(3, [(0, 1), (1, 2), (0, 2)], ())
    cycle = Orientation(((0, 1), (1, 2), (2, 0)))
    assert not is_valid_t_orientation(g, cycle)
    acyclic = Orientation(((0, 1), (1, 2), (0, 2)))
    assert is_valid_t_orientation(g, acyclic)


def test_validity_empty_t_is_just_acyclicity():
    g = TGraph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3)], ())
    o = Orientation(((0, 1), (1, 2), (2, 3), (0, 3)))
    assert is_valid_t_orientation(g, o)


def test_validity_transitivity_at_t():
    # path x - y - z with y in T and no chord: x->y->z is invalid
    g = TGraph.make(3, [(0, 1), (1, 2)], (1,))
    assert not is_valid_t_orientation(g, Orientation(((0, 1), (1, 2))))
    assert is_valid_t_orientation(g, Orientation(((0, 1), (2, 1))))


def test_validity_edge_set_must_match():
    g = TGraph.make(3, [(0, 1), (1, 2)], ())
    with pytest.raises(MonoidealError):
        is_valid_t_orientation(g, Orientation(((0, 1),)))


def test_top_hat_shape():
    g = top_hat()
    assert g.vertex_count == 7
    assert len(g.edges) == 10
    assert g.tset == {1, 2, 6}


def _containing(g, arcs):
    """The valid T-orientations of g that direct each of ``arcs`` as given."""
    return [o for o in enumerate_t_orientations(g) if o.arc_set() >= set(arcs)]


def test_top_hat_fact_one():
    g = top_hat()
    valid = brute_force_t_orientations(g)
    assert len(valid) == 2
    with_a_to_abar = [o for o in valid if (1, 2) in o.arc_set()]
    assert len(with_a_to_abar) == 1
    o = with_a_to_abar[0].arc_set()
    # a is a source, abar is a sink, bottom edge runs r -> l
    assert all(arc[0] != 1 for arc in o if arc[1] == 1) and any(a[0] == 1 for a in o)
    assert not any(arc[0] == 2 for arc in o)
    assert (5, 4) in o
    # the engine agrees, in both directions
    assert len(enumerate_t_orientations(g)) == 2
    assert len(_containing(g, [(1, 2)])) == 1
    assert len(_containing(g, [(2, 1)])) == 1


def test_search_agrees_with_brute_force_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        possible = list(itertools.combinations(range(n), 2))
        edges = [e for e in possible if rng.random() < 0.55][:12]
        tset = [v for v in range(n) if rng.random() < 0.5]
        g = TGraph.make(n, edges, tset)
        brute = brute_force_t_orientations(g)
        engine = enumerate_t_orientations(g)
        assert set(brute) == set(engine)
        found = t_orientation_search(g)
        assert (found is not None) == bool(brute)
        if found is not None:
            assert is_valid_t_orientation(g, found)


def test_every_found_orientation_is_valid():
    for g in (top_hat(), gadget3()):
        o = t_orientation_search(g)
        assert o is not None and is_valid_t_orientation(g, o)


@pytest.mark.parametrize(
    "g, nodes, sequence",
    [
        (top_hat(), 1, (1, 0, 3, 5, 6, 2, 4)),
        (gadget3(), 4, (1, 7, 3, 9, 10, 11, 5, 6, 2, 8, 13, 0, 14, 4, 12)),
        (
            nae3sat_reduce(NaeInstance(3, ((1, 2, 3), (-1, 2, -3)))),
            4,
            (1, 7, 3, 9, 10, 11, 5, 6, 2, 8, 13, 0, 14, 4, 15, 17, 19, 21, 16, 22,
             18, 27, 24, 29, 25, 26, 20, 23, 30, 31, 32, 12, 28),
        ),
        (nae3sat_reduce(NaeInstance(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2)))), 6, None),
    ],
    ids=["top_hat", "gadget3", "nae_sat", "nae_unsat"],
)
def test_search_stats_pinned(g, nodes, sequence):
    # the first orientation is pinned through the topological order it
    # induces, which determines every arc
    found, explored = t_orientation_search_stats(g)
    assert explored == nodes
    if sequence is None:
        assert found is None
    else:
        assert found == ordering_to_orientation(g, Ordering.from_sequence(sequence))
        assert orientation_to_ordering(g, found).sequence() == sequence


def _nae_graphs(rng, sizes, per_size):
    """Reductions of random NAE-3SAT instances with 2v clauses on v variables."""
    for v in sizes:
        for _ in range(per_size):
            clauses = tuple(
                tuple(rng.choice((1, -1)) * x for x in rng.sample(range(1, v + 1), 3))
                for _ in range(2 * v)
            )
            yield nae3sat_reduce(NaeInstance(v, clauses))


def _parity_graphs():
    rng = random.Random(21)
    yield from _nae_graphs(rng, range(4, 13), 2)
    for _ in range(60):
        n = rng.randint(3, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        yield TGraph.make(n, edges, rng.sample(range(n), rng.randint(0, n)))


def test_solver_matches_arc_keyed_referee():
    # the same first solution, node count and enumeration order as the
    # referee, on small graphs and on NAE instances where the search branches
    for g in itertools.chain(_parity_graphs(), _nae_graphs(random.Random(2), range(14, 21), 1)):
        new, old = _Solver(g), ReferenceSolver(g)
        assert new.solve(limit=1) == old.solve(limit=1), g
        assert new.nodes == old.nodes, g
        # the head lists and in-degrees hold exactly the assigned arcs,
        # whether the search stopped at a solution or undid every arc
        assigned = sorted(a for a in new.arcs if a is not None)
        assert sorted((u, w) for u, heads in enumerate(new.heads) for w in heads) == assigned
        assert new.indeg == [sum(h == v for _, h in assigned) for v in range(g.vertex_count)]
        assert enumerate_t_orientations(g) == ReferenceSolver(g).solve(limit=None), g


def test_forced_directed_triangle_has_no_extension():
    g = TGraph.make(4, [(0, 1), (1, 2), (0, 2), (2, 3)], ())
    assert _containing(g, [(0, 1), (1, 2), (2, 0)]) == []
    assert len(_containing(g, [(0, 1), (1, 2), (0, 2)])) == 2


def test_gadget3_shape():
    g = gadget3()
    assert g.vertex_count == 15
    assert len(g.edges) == 30
    assert len(g.tset) == 9
    assert all(e in g.edges for e in GADGET3_SPECIAL_EDGES)


def test_gadget3_fact_two():
    g = gadget3()
    for flips in itertools.product((False, True), repeat=3):
        forced = [
            (b, a) if flip else (a, b)
            for (a, b), flip in zip(GADGET3_SPECIAL_EDGES, flips)
        ]
        extensions = _containing(g, forced)
        if len(set(flips)) == 1:  # all three directed the same way
            assert extensions == []
        else:
            assert len(extensions) == 1
            assert is_valid_t_orientation(g, extensions[0])


def test_ordering_round_trip():
    g = TGraph.make(3, [(0, 1), (1, 2)], ())
    o = ordering_to_orientation(g, Ordering.identity(3))
    assert o.arc_set() == {(0, 1), (1, 2)}
    assert orientation_to_ordering(g, o).sequence() == (0, 1, 2)
    # round-trip through an arbitrary valid orientation
    g2 = gadget3()
    found = t_orientation_search(g2)
    ordering = orientation_to_ordering(g2, found)
    assert ordering_to_orientation(g2, ordering) == found
    assert is_valid_t_orientation(g2, ordering_to_orientation(g2, ordering))


def test_arcs_list_one_per_edge_in_edge_order():
    # the solver, the brute force and ordering_to_orientation direct g.edges[i]
    # at position i; make sorts the edges, so the arcs sort by their edge
    def in_edge_order(g, o):
        return tuple((min(a), max(a)) for a in o.arcs) == g.edges == tuple(sorted(g.edges))

    rng = random.Random(18)
    graphs = [top_hat(), gadget3()]
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5][:12]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        graphs.append(TGraph.make(n, edges, [x for x in range(n) if rng.random() < 0.5]))
    for g in graphs:
        solutions = enumerate_t_orientations(g)
        assert all(in_edge_order(g, o) for o in solutions)
        if len(g.edges) <= 12:
            brute = brute_force_t_orientations(g)
            assert set(brute) == set(solutions)
            assert all(in_edge_order(g, o) for o in brute)
        seq = list(range(g.vertex_count))
        rng.shuffle(seq)
        assert in_edge_order(g, ordering_to_orientation(g, Ordering.from_sequence(seq)))
    g = nae3sat_reduce(NaeInstance(3, ((1, 2, 3), (-1, 2, -3))))
    assert in_edge_order(g, t_orientation_search(g))


def test_orientation_to_ordering_rejects_cycles():
    g = TGraph.make(3, [(0, 1), (1, 2), (0, 2)], ())
    with pytest.raises(MonoidealError):
        orientation_to_ordering(g, Orientation(((0, 1), (1, 2), (2, 0))))


def test_complete_graph_has_transitive_tournament():
    g = TGraph.make(4, itertools.combinations(range(4), 2), range(4))
    o = t_orientation_search(g)
    assert o is not None and is_valid_t_orientation(g, o)


def test_direct_small_t_orientation():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        tset = rng.sample(range(n), rng.randint(0, 2))
        g = TGraph.make(n, edges, tset)
        assert is_valid_t_orientation(g, direct_small_t_orientation(g))
    with pytest.raises(MonoidealError):
        direct_small_t_orientation(TGraph.make(3, [(0, 1)], (0, 1, 2)))


def test_nae_brute():
    assert nae3sat_brute(NaeInstance(3, ((1, 2, 3),)))
    assert not nae3sat_brute(NaeInstance(1, ((1, 1, 1),)))
    assert nae3sat_brute(NaeInstance(0, ()))
    # a clause holding a literal and its complement always has both values
    assert nae3sat_brute(NaeInstance(1, ((1, -1, 1),)))
    assert nae3sat_brute(NaeInstance(24, ((1, 2, 24),)))
    with pytest.raises(MonoidealError):
        nae3sat_brute(NaeInstance(25, ((1, 2, 3),)))


def test_nae_instance_validation():
    with pytest.raises(MonoidealError):
        NaeInstance(2, ((1, 2),))
    with pytest.raises(MonoidealError):
        NaeInstance(2, ((1, 2, 3),))


def test_reduction_counts():
    inst = NaeInstance(3, ((1, 2, 3), (-1, 2, -3)))
    g = nae3sat_reduce(inst)
    assert g.vertex_count == 15 * 2 + 3
    assert len(g.edges) == 30 * 2 + 3 * 2
    assert len(g.tset) == 9 * 2 + 3


def test_reduction_examples():
    sat = NaeInstance(3, ((1, 2, 3),))
    assert nae3sat_brute(sat)
    assert t_orientation_search(nae3sat_reduce(sat)) is not None

    unsat = NaeInstance(1, ((1, 1, 1),))
    assert not nae3sat_brute(unsat)
    assert t_orientation_search(nae3sat_reduce(unsat)) is None


def test_reduction_equivalence_sampled():
    rng = random.Random(11)
    for _ in range(12):
        v = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, v) for _ in range(3))
            for _ in range(rng.randint(1, 2))
        )
        inst = NaeInstance(v, clauses)
        assert nae3sat_brute(inst) == (
            t_orientation_search(nae3sat_reduce(inst)) is not None
        )


def test_file_format_round_trip():
    g = gadget3()
    assert parse_tgraph(format_tgraph(g)) == g
    with pytest.raises(ParseError):
        parse_tgraph("e 1 2\n")
    with pytest.raises(ParseError):
        parse_tgraph("p tgraph 2 1\ne 1 3\n")
    with pytest.raises(ParseError):
        parse_tgraph("p tgraph 2 2\ne 1 2\n")
    # `#` runs to the end of the line and a line starting with `c` is a comment
    commented = "c hub graph\np tgraph 3 2 # header\ne 1 2 # spoke\ne 1 3\nt 1 # hub\n"
    assert parse_tgraph(commented) == TGraph.make(3, [(0, 1), (0, 2)], (0,))
    # an edge line is exactly `e u v`
    for bad in ("e 1 2 3", "e 1", "e 1 x"):
        with pytest.raises(ParseError, match="line 2: expected `e u v`"):
            parse_tgraph(f"p tgraph 3 1\n{bad}\n")
    # a file has one header and one `t` line; a second is an error, not a replacement
    for text, message in (
        ("p tgraph 3 2\ne 1 2\ne 2 3\nt 2\nt 1\n", "line 5: duplicate t line"),
        ("p tgraph 3 1\np tgraph 4 1\ne 1 4\n", "line 2: duplicate header"),
        # a negative field is refused at its header line
        ("p tgraph -1 0\n", "line 1: negative header fields"),
        ("c graph\np tgraph 2 -1\n", "line 2: negative header fields"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_tgraph(text)
    # each edge appears once in either direction, joins distinct vertices,
    # and T lists distinct vertices; errors name the line and 1-based vertices
    for text, message in (
        ("p tgraph 2 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge 2 1"),
        ("p tgraph 2 1\ne 1 2\ne 2 1\n", "line 3: duplicate edge 2 1"),
        ("p tgraph 3 2\ne 2 3\ne 2 3\n", "line 3: duplicate edge 2 3"),
        ("p tgraph 2 1\ne 1 1\n", "line 2: self-loop at vertex 1"),
        ("p tgraph 3 1\ne 1 2\ne 3 3\n", "line 3: self-loop at vertex 3"),
        ("p tgraph 3 0\nt 1 1\n", "line 2: duplicate T vertex 1"),
        ("p tgraph 3 0\n\nt 3 1 2 1\n", "line 3: duplicate T vertex 1"),
    ):
        with pytest.raises(ParseError) as info:
            parse_tgraph(text)
        assert str(info.value) == message
    assert parse_tgraph("p tgraph 3 1\ne 2 1\nt 3 1\n") == TGraph.make(3, [(0, 1)], (0, 2))
