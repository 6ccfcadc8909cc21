"""Acyclic orientations transitive at a distinguished vertex set.

A T-orientation of a graph directs every edge so that the result is
acyclic and, at every vertex of the distinguished set T, the two halves of
any directed path of length two are closed by a directed chord.  The
module provides validity checking, a complete backtracking search with
unit propagation, the two gadget graphs used to encode not-all-equal
satisfiability, and the reduction itself together with its brute-force
referee.  The search keeps its state per edge index; its own referees, a
brute force over all directions and its former arc-keyed form, are tests.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import and_, or_
from typing import Iterable

from .core import (
    MonoidealError,
    Ordering,
    ParseError,
    _Frozen,
    check_announced,
    data_lines,
    header_fields,
    some_assignment_passes,
)


class TGraph(_Frozen):
    __slots__ = __match_args__ = ("vertex_count", "edges", "tset")
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    tset: frozenset[int]

    def __init__(
        self, vertex_count: int, edges: tuple[tuple[int, int], ...], tset: frozenset[int]
    ):
        edges, tset = tuple(map(tuple, edges)), frozenset(tset)
        if vertex_count < 0:
            raise MonoidealError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise MonoidealError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise MonoidealError(f"edge ({u},{v}) references a missing vertex")
            if (min(u, v), max(u, v)) in seen:
                raise MonoidealError(f"duplicate edge ({u},{v})")
            seen.add((min(u, v), max(u, v)))
        for t in tset:
            if not 0 <= t < vertex_count:
                raise MonoidealError(f"T contains missing vertex {t}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "tset", tset)

    @staticmethod
    def make(
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        tset: Iterable[int] = (),
    ) -> "TGraph":
        return TGraph(vertex_count, sorted({(min(u, v), max(u, v)) for u, v in edges}), tset)


class Orientation(_Frozen):
    """One directed pair per edge of the underlying graph."""

    __slots__ = __match_args__ = ("arcs",)
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, arcs: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "arcs", tuple(map(tuple, arcs)))

    def edge_keys(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(u, v), max(u, v)) for u, v in self.arcs)

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)


def _topological_order(n: int, arcs: Iterable[tuple[int, int]]) -> list[int]:
    """Kahn's algorithm, smallest available vertex first; short when cyclic."""
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    seq: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        seq.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return seq


def is_valid_t_orientation(g: TGraph, o: Orientation) -> bool:
    """Acyclic, and transitive at every vertex of T."""
    if o.edge_keys() != frozenset(g.edges):
        raise MonoidealError("orientation does not match the graph's edge set")
    if len(o.arcs) != len(g.edges):
        raise MonoidealError("orientation directs some edge more than once")
    if len(_topological_order(g.vertex_count, o.arcs)) < g.vertex_count:
        return False
    arcset = o.arc_set()
    ins: dict[int, list[int]] = {y: [] for y in g.tset}
    outs: dict[int, list[int]] = {y: [] for y in g.tset}
    for u, v in o.arcs:
        if v in g.tset:
            ins[v].append(u)
        if u in g.tset:
            outs[u].append(v)
    for y in g.tset:
        for x in ins[y]:
            for z in outs[y]:
                if x != z and (x, z) not in arcset:
                    return False
    return True


class _Solver:
    """Backtracking search for T-orientations with unit propagation.

    The state of edge ``i`` is its arc ``arcs[i]``, or None while free;
    ``eid[x][z]`` is the edge x-z's index with its arcs out of and into x.
    Propagation closes directed two-paths through T-vertices: an oriented
    pair forces the chord, and a missing chord forces the still-free half
    of the pair to point the same way at the T-vertex.  An arc is refused
    when its head already reaches its tail along assigned arcs (``heads``
    lists them per tail in assignment order, ``indeg`` counts them per
    head); arcs are only ever added, so this fails a branch exactly when
    the orientation it reaches is cyclic.  Branching picks the free edge
    with the most endpoints in T (ties by edge index: the sort is stable),
    trying the stored direction first, so the first solution found is
    deterministic, and the edges before it in that order stay set below it.
    """

    def __init__(self, g: TGraph):
        self.g = g
        self.eid: list[dict[int, tuple]] = [{} for _ in range(g.vertex_count)]
        for i, (u, v) in enumerate(g.edges):
            self.eid[u][v], self.eid[v][u] = (i, (u, v), (v, u)), (i, (v, u), (u, v))
        self.arcs: list[tuple[int, int] | None] = [None] * len(g.edges)
        self.heads: list[list[int]] = [[] for _ in range(g.vertex_count)]
        self.indeg = [0] * g.vertex_count
        self.trail: list[int] = []
        self.nodes = 0
        self.branch_order = sorted(
            range(len(g.edges)), key=lambda i: -len(g.tset.intersection(g.edges[i]))
        )

    def _assign(self, i: int, arc: tuple[int, int], queue: list[int]) -> bool:
        tail, head = arc
        # a path from head to tail leaves head and enters tail
        if self.indeg[tail] and self.heads[head]:
            seen, stack = {head}, [head]
            while stack:
                for w in self.heads[stack.pop()]:
                    if w == tail:
                        return False
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        self.arcs[i] = arc
        self.heads[tail].append(head)
        self.indeg[head] += 1
        self.trail.append(i)
        queue.append(i)
        return True

    def _propagate(self, queue: list[int]) -> bool:
        # y is the T-endpoint of the popped arc and x its other endpoint;
        # only the popped edge joins y to x in a simple graph
        arcs, eid, tset = self.arcs, self.eid, self.g.tset
        while queue:
            i = queue.pop()
            tail, head = arcs[i]
            for y, x, inward in ((head, tail, True), (tail, head, False)):
                if y not in tset:
                    continue
                chords = eid[x]
                for z, (j, out, into) in eid[y].items():
                    a = arcs[j]
                    if a is None:
                        if z in chords:
                            continue
                        # no chord x-z: j must point the same way at y
                        k, arc = j, into if inward else out
                    elif j != i and (a[1] == y) != inward:
                        # a directed two-path through y: force its chord
                        if z not in chords:
                            return False
                        k, x_to_z, z_to_x = chords[z]
                        arc = x_to_z if inward else z_to_x
                        if arcs[k] is not None:
                            if arcs[k] != arc:
                                return False
                            continue
                    else:
                        continue
                    if not self._assign(k, arc, queue):
                        return False
        return True

    def solve(self, limit: int | None) -> list[Orientation]:
        solutions: list[Orientation] = []
        arcs, order, trail = self.arcs, self.branch_order, self.trail

        def descend(start: int) -> bool:
            pos = next((p for p in range(start, len(order)) if arcs[order[p]] is None), None)
            if pos is None:
                solutions.append(Orientation(arcs))
                return limit is not None and len(solutions) >= limit
            i = order[pos]
            u, v = self.g.edges[i]
            for arc in ((u, v), (v, u)):
                mark = len(trail)
                self.nodes += 1
                q: list[int] = []
                if self._assign(i, arc, q) and self._propagate(q):
                    if descend(pos + 1):
                        return True
                # the trail is undone last arc first, so each tail's last head goes
                while len(trail) > mark:
                    j = trail.pop()
                    self.heads[arcs[j][0]].pop()
                    self.indeg[arcs[j][1]] -= 1
                    arcs[j] = None
            return False

        descend(0)
        return solutions


def t_orientation_search(g: TGraph) -> Orientation | None:
    """First valid T-orientation in the documented branching order, if any."""
    solutions = _Solver(g).solve(limit=1)
    return solutions[0] if solutions else None


def t_orientation_search_stats(g: TGraph) -> tuple[Orientation | None, int]:
    solver = _Solver(g)
    solutions = solver.solve(limit=1)
    return (solutions[0] if solutions else None), solver.nodes


def ordering_to_orientation(g: TGraph, ord: Ordering) -> Orientation:
    """Direct every edge from the smaller to the larger endpoint."""
    if ord.n != g.vertex_count:
        raise MonoidealError("ordering size does not match the vertex count")
    return Orientation((u, v) if ord.rank[u] < ord.rank[v] else (v, u) for u, v in g.edges)


def orientation_to_ordering(g: TGraph, o: Orientation) -> Ordering:
    """A topological order of the arcs, smallest available vertex first."""
    if o.edge_keys() != frozenset(g.edges):
        raise MonoidealError("orientation does not match the graph's edge set")
    seq = _topological_order(g.vertex_count, o.arcs)
    if len(seq) != g.vertex_count:
        raise MonoidealError("orientation is cyclic; no topological order exists")
    return Ordering.from_sequence(seq)


# ---------------------------------------------------------------------------
# gadgets

_TOP_HAT_LOCAL_EDGES = (
    (0, 1),  # s - a
    (1, 2),  # a - abar
    (1, 4),  # a - l
    (2, 5),  # abar - r
    (2, 6),  # abar - c
    (1, 6),  # a - c
    (5, 6),  # r - c
    (4, 6),  # l - c
    (2, 3),  # abar - t
    (4, 5),  # l - r
)
_HAT_TSET = (1, 2, 6)  # a, abar, c


def top_hat() -> TGraph:
    """The seven-vertex hat: vertices s,a,abar,t,l,r,c are 0..6, T={a,abar,c}."""
    return TGraph.make(7, _TOP_HAT_LOCAL_EDGES, _HAT_TSET)


# Three hats glued in a cycle: each hat's t is the next hat's s and each
# hat's r is the next hat's l.  Vertex ids are assigned hat by hat in the
# label order s,a,abar,t,l,r,c, skipping vertices created by the gluing.
_GADGET3_HATS = (
    # (s, a, abar, t, l, r, c)
    (0, 1, 2, 3, 4, 5, 6),
    (3, 7, 8, 9, 5, 10, 11),
    (9, 12, 13, 0, 10, 4, 14),
)

# each hat's a - abar edge, in hat order
GADGET3_SPECIAL_EDGES = tuple((hat[1], hat[2]) for hat in _GADGET3_HATS)


def gadget3() -> TGraph:
    edges = [(hat[u], hat[v]) for hat in _GADGET3_HATS for u, v in _TOP_HAT_LOCAL_EDGES]
    tset = [hat[i] for hat in _GADGET3_HATS for i in _HAT_TSET]
    return TGraph.make(15, edges, tset)


# ---------------------------------------------------------------------------
# not-all-equal 3-SAT

class NaeInstance(_Frozen):
    """Clauses of exactly three literals; literal k or -k refers to variable k."""

    __slots__ = __match_args__ = ("variable_count", "clauses")
    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __init__(self, variable_count: int, clauses: tuple[tuple[int, int, int], ...]):
        clauses = tuple(map(tuple, clauses))
        if variable_count < 0:
            raise MonoidealError("variable count must be nonnegative")
        for clause in clauses:
            if len(clause) != 3:
                raise MonoidealError("every clause must have exactly three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > variable_count:
                    raise MonoidealError(f"literal {lit} out of range")
        object.__setattr__(self, "variable_count", variable_count)
        object.__setattr__(self, "clauses", clauses)


def nae3sat_brute(inst: NaeInstance) -> bool:
    """Some assignment gives every clause a true and a false literal."""
    return some_assignment_passes(
        inst.variable_count, inst.clauses, lambda cols: reduce(or_, cols) & ~reduce(and_, cols)
    )


def nae3sat_reduce(inst: NaeInstance) -> TGraph:
    """One gadget per clause plus a hub vertex per variable.

    In the gadget for a clause the three special-edge endpoints are labeled
    by the clause's literals and their complements; the hub of variable x
    is joined to every vertex labeled with the positive literal x.  T
    collects the gadget's nine black vertices from every clause and all the
    hubs.
    """
    k = len(inst.clauses)
    v = inst.variable_count
    n = 15 * k + v
    edges: list[tuple[int, int]] = []
    tset: list[int] = []
    base_g = gadget3()
    for ci, clause in enumerate(inst.clauses):
        base = 15 * ci
        edges.extend((u + base, w + base) for u, w in base_g.edges)
        tset.extend(t + base for t in base_g.tset)
        for (a, abar), lit in zip(GADGET3_SPECIAL_EDGES, clause):
            edges.append(((a if lit > 0 else abar) + base, 15 * k + abs(lit) - 1))
    tset.extend(15 * k + x for x in range(v))
    return TGraph.make(n, edges, tset)


# ---------------------------------------------------------------------------
# file format

def parse_tgraph(text: str) -> TGraph:
    """Read the `p tgraph` format: `e u v` edges and a `t ...` line, 1-based.

    Comments follow the clause-file rule (`#` to the end of the line, a
    line starting with `c`), and an edge line holds exactly two vertices.
    Each edge appears once in either direction and joins two distinct
    vertices, and the `t` line lists distinct vertices.
    """
    n = m = tset = None
    edges: set[tuple[int, int]] = set()
    for lineno, line in data_lines(text):
        parts = line.split()
        if parts[0] == "p":
            n, m = header_fields(parts, lineno, "tgraph", "<n> <m>", n is not None)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            try:
                u, v = (int(p) for p in parts[1:])
            except ValueError:
                raise ParseError("expected `e u v`", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge endpoint out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in edges:
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            edges.add(key)
        elif parts[0] == "t":
            if n is None:
                raise ParseError("t line before header", lineno)
            if tset is not None:
                raise ParseError("duplicate t line", lineno)
            try:
                ts = [int(p) for p in parts[1:]]
            except ValueError:
                raise ParseError("non-integer vertex in t line", lineno) from None
            if any(not 1 <= t <= n for t in ts):
                raise ParseError(f"T vertex out of range 1..{n}", lineno)
            tset = set()
            for t in ts:
                if t - 1 in tset:
                    raise ParseError(f"duplicate T vertex {t}", lineno)
                tset.add(t - 1)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing `p tgraph` header")
    check_announced(m, len(edges), "edges")
    try:
        return TGraph.make(n, edges, tset or ())
    except MonoidealError as exc:
        raise ParseError(str(exc)) from None


def format_tgraph(g: TGraph) -> str:
    lines = [f"p tgraph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    if g.tset:
        lines.append("t " + " ".join(str(t + 1) for t in sorted(g.tset)))
    return "\n".join(lines) + "\n"
