"""Acyclic orientations transitive at a distinguished vertex set.

A T-orientation of a graph directs every edge so that the result is
acyclic and, at every vertex of the distinguished set T, the two halves of
any directed path of length two are closed by a directed chord.  The
module provides validity checking, a complete backtracking search with
unit propagation, the two gadget graphs used to encode not-all-equal
satisfiability, and the reduction itself together with its brute-force
referee.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import MonoidealError, Ordering, ParseError, data_lines, some_assignment_passes


@dataclass(frozen=True)
class TGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    tset: frozenset[int]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise MonoidealError("vertex count must be nonnegative")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise MonoidealError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise MonoidealError(f"edge ({u},{v}) references a missing vertex")
            if (min(u, v), max(u, v)) in seen:
                raise MonoidealError(f"duplicate edge ({u},{v})")
            seen.add((min(u, v), max(u, v)))
        for t in self.tset:
            if not 0 <= t < self.vertex_count:
                raise MonoidealError(f"T contains missing vertex {t}")

    @staticmethod
    def make(
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        tset: Iterable[int] = (),
    ) -> "TGraph":
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return TGraph(vertex_count, tuple(canon), frozenset(tset))


@dataclass(frozen=True)
class Orientation:
    """One directed pair per edge of the underlying graph."""

    arcs: tuple[tuple[int, int], ...]

    def edge_keys(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(u, v), max(u, v)) for u, v in self.arcs)

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)


def _canonical_arcs(arcs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(arcs, key=lambda a: (min(a), max(a), a)))


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

    The state of edge ``i`` is its arc ``arcs[i]``, or None while free.
    Propagation closes directed two-paths through T-vertices: an oriented
    pair forces the chord, and a missing chord forces the still-free half
    of the pair to point the same way at the T-vertex.  An arc is refused
    when its head already reaches its tail; arcs are only ever added, so
    this fails a branch exactly when the orientation it reaches is cyclic.
    Branching picks the free edge with the most endpoints in T (ties by
    edge index, as the sort is stable), trying the stored direction first,
    so the first solution found is deterministic.
    """

    def __init__(self, g: TGraph, forced: Iterable[tuple[int, int]] = ()):
        self.g = g
        self.index: dict[tuple[int, int], int] = {}
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
        for i, (u, v) in enumerate(g.edges):
            self.index[u, v] = self.index[v, u] = i
            self.adj[u].append((i, v))
            self.adj[v].append((i, u))
        self.arcs: list[tuple[int, int] | None] = [None] * len(g.edges)
        self.trail: list[int] = []
        self.nodes = 0
        self.branch_order = sorted(
            range(len(g.edges)), key=lambda i: -len(g.tset.intersection(g.edges[i]))
        )
        self.initial_forced = list(forced)
        for tail, head in self.initial_forced:
            if (tail, head) not in self.index:
                raise MonoidealError(f"forced arc {tail}->{head} is not a graph edge")

    def _reaches(self, src: int, dst: int) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for j, w in self.adj[v]:
                if w not in seen and self.arcs[j] == (v, w):
                    seen.add(w)
                    stack.append(w)
        return False

    def _assign(self, tail: int, head: int, queue: list[int]) -> bool:
        i = self.index.get((tail, head))
        if i is None:
            return False
        if self.arcs[i] is not None:
            return self.arcs[i] == (tail, head)
        if self._reaches(head, tail):
            return False
        self.arcs[i] = (tail, head)
        self.trail.append(i)
        queue.append(i)
        return True

    def _propagate(self, queue: list[int]) -> bool:
        # y is the T-endpoint of the popped arc and x its other endpoint;
        # only the popped edge joins y to x in a simple graph
        while queue:
            i = queue.pop()
            tail, head = self.arcs[i]
            for y, x, inward in ((head, tail, True), (tail, head, False)):
                if y not in self.g.tset:
                    continue
                for j, z in self.adj[y]:
                    a = self.arcs[j]
                    if a is None and (x, z) not in self.index:
                        # no chord x-z: j must point the same way at y
                        arc = (z, y) if inward else (y, z)
                    elif a is not None and j != i and (a[1] == y) != inward:
                        # a directed two-path through y: force its chord
                        arc = (x, z) if inward else (z, x)
                    else:
                        continue
                    if not self._assign(*arc, queue):
                        return False
        return True

    def solve(self, limit: int | None) -> list[Orientation]:
        solutions: list[Orientation] = []
        queue: list[int] = []
        for tail, head in self.initial_forced:
            if not self._assign(tail, head, queue):
                return solutions
        if not self._propagate(queue):
            return solutions

        def descend() -> bool:
            i = next((i for i in self.branch_order if self.arcs[i] is None), None)
            if i is None:
                solutions.append(Orientation(_canonical_arcs(self.arcs)))
                return limit is not None and len(solutions) >= limit
            u, v = self.g.edges[i]
            for arc in ((u, v), (v, u)):
                mark = len(self.trail)
                self.nodes += 1
                q: list[int] = []
                if self._assign(*arc, q) and self._propagate(q):
                    if descend():
                        return True
                while len(self.trail) > mark:
                    self.arcs[self.trail.pop()] = None
            return False

        descend()
        return solutions


def t_orientation_search(g: TGraph) -> Orientation | None:
    """First valid T-orientation in the documented branching order, if any."""
    solutions = _Solver(g).solve(limit=1)
    return solutions[0] if solutions else None


def t_orientation_search_stats(g: TGraph) -> tuple[Orientation | None, int]:
    solver = _Solver(g)
    solutions = solver.solve(limit=1)
    return (solutions[0] if solutions else None), solver.nodes


def enumerate_t_orientations(
    g: TGraph, forced: Iterable[tuple[int, int]] = ()
) -> list[Orientation]:
    return _Solver(g, forced).solve(limit=None)


# Edges past which the brute force refuses a graph: 2^20 assignments.
BRUTE_FORCE_MAX_EDGES = 20


def brute_force_t_orientations(g: TGraph) -> list[Orientation]:
    """All valid T-orientations by trying every one of the 2^m assignments."""
    if len(g.edges) > BRUTE_FORCE_MAX_EDGES:
        raise MonoidealError(f"brute force refuses more than {BRUTE_FORCE_MAX_EDGES} edges")
    out = []
    for signs in itertools.product((False, True), repeat=len(g.edges)):
        arcs = tuple(
            (v, u) if flip else (u, v) for (u, v), flip in zip(g.edges, signs)
        )
        o = Orientation(_canonical_arcs(arcs))
        if is_valid_t_orientation(g, o):
            out.append(o)
    return out


def ordering_to_orientation(g: TGraph, ord: Ordering) -> Orientation:
    """Direct every edge from the smaller to the larger endpoint."""
    if ord.n != g.vertex_count:
        raise MonoidealError("ordering size does not match the vertex count")
    arcs = tuple(
        (u, v) if ord.rank[u] < ord.rank[v] else (v, u) for u, v in g.edges
    )
    return Orientation(_canonical_arcs(arcs))


def orientation_to_ordering(g: TGraph, o: Orientation) -> Ordering:
    """A topological order of the arcs, smallest available vertex first."""
    if o.edge_keys() != frozenset(g.edges):
        raise MonoidealError("orientation does not match the graph's edge set")
    seq = _topological_order(g.vertex_count, o.arcs)
    if len(seq) != g.vertex_count:
        raise MonoidealError("orientation is cyclic; no topological order exists")
    return Ordering.from_sequence(seq)


def direct_small_t_orientation(g: TGraph) -> Orientation:
    """A valid T-orientation built directly when |T| <= 2.

    One T-vertex is placed globally first (a source) and the other globally
    last (a sink); transitivity at a source or sink is vacuous and the
    positional orientation is acyclic.
    """
    if len(g.tset) > 2:
        raise MonoidealError("direct construction only applies when |T| <= 2")
    tlist = sorted(g.tset)
    middle = [v for v in range(g.vertex_count) if v not in g.tset]
    if len(tlist) == 2:
        seq = [tlist[0]] + middle + [tlist[1]]
    else:
        seq = tlist + middle
    return ordering_to_orientation(g, Ordering.from_sequence(seq))


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


def top_hat() -> TGraph:
    """The seven-vertex hat: vertices s,a,abar,t,l,r,c are 0..6, T={a,abar,c}."""
    return TGraph.make(7, _TOP_HAT_LOCAL_EDGES, (1, 2, 6))


# Three hats glued in a cycle: each hat's t is the next hat's s and each
# hat's r is the next hat's l.  Vertex ids are assigned hat by hat in the
# label order s,a,abar,t,l,r,c, skipping vertices created by the gluing.
_GADGET3_HATS = (
    # (s, a, abar, t, l, r, c)
    (0, 1, 2, 3, 4, 5, 6),
    (3, 7, 8, 9, 5, 10, 11),
    (9, 12, 13, 0, 10, 4, 14),
)

GADGET3_SPECIAL_EDGES = ((1, 2), (7, 8), (12, 13))


def gadget3() -> TGraph:
    edges = []
    tset = []
    for s, a, abar, t, l, r, c in _GADGET3_HATS:
        local = {0: s, 1: a, 2: abar, 3: t, 4: l, 5: r, 6: c}
        edges.extend((local[u], local[v]) for u, v in _TOP_HAT_LOCAL_EDGES)
        tset.extend((a, abar, c))
    return TGraph.make(15, edges, tset)


# ---------------------------------------------------------------------------
# not-all-equal 3-SAT

@dataclass(frozen=True)
class NaeInstance:
    """Clauses of exactly three literals; literal k or -k refers to variable k."""

    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.variable_count < 0:
            raise MonoidealError("variable count must be nonnegative")
        for clause in self.clauses:
            if len(clause) != 3:
                raise MonoidealError("every clause must have exactly three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise MonoidealError(f"literal {lit} out of range")


def nae3sat_brute(inst: NaeInstance) -> bool:
    """Some assignment gives every clause a true and a false literal."""
    return some_assignment_passes(
        inst.variable_count, inst.clauses, lambda values: any(values) and not all(values)
    )


_GADGET_A_SLOTS = (1, 7, 12)
_GADGET_ABAR_SLOTS = (2, 8, 13)


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
        for slot_a, slot_abar, lit in zip(_GADGET_A_SLOTS, _GADGET_ABAR_SLOTS, clause):
            positive_slot = slot_a if lit > 0 else slot_abar
            hub = 15 * k + abs(lit) - 1
            edges.append((positive_slot + base, hub))
    tset.extend(15 * k + x for x in range(v))
    return TGraph.make(n, edges, tset)


# ---------------------------------------------------------------------------
# file format

def parse_tgraph(text: str) -> TGraph:
    """Read the `p tgraph` format: `e u v` edges and a `t ...` line, 1-based.

    Comments follow the clause-file rule (`#` to the end of the line, a
    line starting with `c`), and an edge line holds exactly two vertices.
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    tset: list[int] = []
    for lineno, line in data_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "tgraph":
                raise ParseError("expected header `p tgraph <n> <m>`", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            try:
                u, v = (int(p) for p in parts[1:])
            except ValueError:
                raise ParseError("expected `e u v`", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge endpoint out of range 1..{n}", lineno)
            edges.append((u - 1, v - 1))
        elif parts[0] == "t":
            if n is None:
                raise ParseError("t line before header", lineno)
            try:
                tset = [int(p) - 1 for p in parts[1:]]
            except ValueError:
                raise ParseError("non-integer vertex in t line", lineno) from None
            if any(not 0 <= t < n for t in tset):
                raise ParseError(f"T vertex out of range 1..{n}", lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing `p tgraph` header")
    if m is not None and m != len(edges):
        raise ParseError(f"header announces {m} edges, found {len(edges)}")
    try:
        return TGraph.make(n, edges, tset)
    except MonoidealError as exc:
        raise ParseError(str(exc)) from None


def format_tgraph(g: TGraph) -> str:
    lines = [f"p tgraph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    if g.tset:
        lines.append("t " + " ".join(str(t + 1) for t in sorted(g.tset)))
    return "\n".join(lines) + "\n"
