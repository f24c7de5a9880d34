"""Cycle-factor transformations: undirected cycle decompositions,
path-factors, and short tours of connected graphs.

A directed cycle-factor of a doubled undirected graph maps to an
undirected cycle decomposition (digons become single-edge 2-cycles).
Removing one edge per cycle gives a path-factor; contracting cycles,
spanning the contraction with a BFS tree, and detouring over tree edges
gives a closed tour of length at most n + 2(c - 1).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import contains, itemgetter

from .errors import BadParameters
from .graphs import CycleFactor, Record, UndirectedRegularGraph

__all__ = [
    "PathFactor",
    "Tour",
    "CheckReport",
    "to_undirected_cycle_factor",
    "to_path_factor",
    "to_tour",
    "verify_path_factor",
    "verify_tour",
]


class PathFactor(Record):
    """Vertex-disjoint paths covering all vertices; singletons allowed."""

    __slots__ = _fields = ("paths",)

    @property
    def num_paths(self) -> int:
        return len(self.paths)


class Tour(Record):
    """Closed walk visiting every vertex; length counts edge traversals."""

    __slots__ = _fields = ("walk",)

    @property
    def length(self) -> int:
        return len(self.walk) - 1


class CheckReport(Record):
    """Structured verdict from an independent checker; never raised."""

    __slots__ = _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[str, ...] = ()):
        super().__init__(ok, violations)


def to_undirected_cycle_factor(
    cf: CycleFactor, g: UndirectedRegularGraph
) -> tuple[tuple[int, ...], ...]:
    """Interpret a cycle-factor of the doubled digraph as undirected cycles.

    Directed cycles of length >= 3 become undirected cycles; digons become
    single-edge 2-cycles [u, v]. The result partitions the vertex set;
    g has no loops, so it has no 1-cycles.
    """
    if not cf.is_factor_of(g):
        raise BadParameters("input is not a cycle-factor of the doubled graph")
    return cf.cycles


def _cycle_index(cycles: tuple[tuple[int, ...], ...], n: int) -> list[int]:
    """The index of the cycle holding each vertex of [0, n); raises
    BadParameters unless the cycles partition [0, n)."""
    cyc_of = [-1] * n
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            if not 0 <= v < n:
                raise BadParameters(f"vertex {v} is out of range for n={n}")
            if cyc_of[v] != -1:
                raise BadParameters(f"vertex {v} appears in two cycles")
            cyc_of[v] = ci
    if -1 in cyc_of:
        raise BadParameters("cycles do not cover every vertex")
    return cyc_of


def to_path_factor(
    cycles: tuple[tuple[int, ...], ...], g: UndirectedRegularGraph
) -> PathFactor:
    """Remove one edge per cycle, yielding one path per cycle. The cycles
    must partition the vertices of g, as for ``to_tour``.

    A 2-cycle keeps its edge and becomes a 2-vertex path; a singleton
    stays a 1-vertex path. In longer cycles the removed edge is the one
    whose endpoint pair is largest, for determinism: it joins the cycle's
    largest vertex to the larger of its two neighbours, and the path runs
    from the other end of that edge round to it.
    """
    _cycle_index(cycles, g.n)
    paths = []
    for cyc in cycles:
        if len(cyc) > 2:
            top = cyc.index(max(cyc))
            # cyc[-1] precedes cyc[0]; after the last vertex comes cyc[0].
            start = top if cyc[top - 1] > cyc[(top + 1) % len(cyc)] else top + 1
            cyc = cyc[start:] + cyc[:start]
        paths.append(tuple(cyc))
    return PathFactor(tuple(paths))


def to_tour(cycles: tuple[tuple[int, ...], ...], g: UndirectedRegularGraph) -> Tour:
    """Stitch a cycle decomposition of a connected graph into a closed tour.

    Each cycle is contracted to a supernode; a BFS spanning tree of the
    contraction (rooted at the cycle containing vertex 0, neighbours in
    vertex order) decides where to detour from a parent cycle into each
    child cycle and back. The walk traverses every cycle once and every
    tree edge twice, so its length is at most n + 2(c - 1). The BFS is the
    connectivity check: when the cycles are cycles of g, it reaches every
    one of them exactly when g is connected.
    """
    cyc_of = _cycle_index(cycles, g.n)
    c = len(cycles)

    # BFS tree over the contracted multigraph; for each child remember the
    # bridging graph edge (parent-side vertex, child-side vertex). The
    # first incidence encountered wins, scanning parent cycles in walk
    # order and neighbours in sorted order.
    root = cyc_of[0]
    parent_link: list[tuple[int, int] | None] = [None] * c
    visited = [False] * c
    visited[root] = True
    queue = deque([root])
    while queue:
        ci = queue.popleft()
        for u in cycles[ci]:
            for v in g.out_adj[u]:
                cj = cyc_of[v]
                if not visited[cj]:
                    visited[cj] = True
                    parent_link[cj] = (u, v)
                    queue.append(cj)
    if not all(visited):
        raise BadParameters("tour construction needs a connected graph")

    # detours[cycle][vertex] = child cycles entered at that vertex
    detours: list[dict[int, list[int]]] = [dict() for _ in range(c)]
    for cj in range(c):
        if parent_link[cj] is not None:
            u, _ = parent_link[cj]
            detours[cyc_of[u]].setdefault(u, []).append(cj)

    # Work stack, last item first: a vertex to append, or a (cycle, entry)
    # pair to walk round from entry back to entry, detouring into children.
    walk: list[int] = []
    todo: list = [(root, 0)]
    while todo:
        item = todo.pop()
        if not isinstance(item, tuple):
            walk.append(item)
            continue
        ci, entry = item
        cyc = cycles[ci]
        start = cyc.index(entry)
        seq: list = []
        for w in cyc[start:] + cyc[:start]:
            seq.append(w)
            for cj in detours[ci].get(w, ()):
                seq += [(cj, parent_link[cj][1]), w]
        if len(cyc) >= 2:
            seq.append(entry)
        todo += reversed(seq)
    return Tour(tuple(walk))


def verify_path_factor(pf: PathFactor, g: UndirectedRegularGraph) -> CheckReport:
    """Re-validate all path-factor invariants against g from scratch."""
    # One all-pass test at C speed; the scan below names what fails. A
    # step goes from a path's vertex but its last (tails) to the next one.
    paths, n, row = pf.paths, g.n, g.out_adj.__getitem__
    flat = list(chain.from_iterable(paths))
    tails = chain.from_iterable(map(itemgetter(slice(-1)), paths))
    heads = chain.from_iterable(map(itemgetter(slice(1, None)), paths))
    if (all(paths) and len(flat) == n and 0 <= min(flat) and max(flat) < n
            and len(set(flat)) == n and all(map(contains, map(row, tails), heads))):
        return CheckReport(True)
    violations = []
    seen: set[int] = set()
    for path in pf.paths:
        if not path:
            violations.append("EmptyPath")
            continue
        for v in path:
            if not 0 <= v < g.n:
                violations.append(f"IndexOutOfRange: {v}")
            elif v in seen:
                violations.append(f"VertexReuse: {v}")
            else:
                seen.add(v)
        for a, b in zip(path, path[1:]):
            # An end outside [0, n) is reported above; has_edge would index by it.
            if 0 <= a < g.n and 0 <= b < g.n and not g.has_edge(a, b):
                violations.append(f"NonEdge: ({a}, {b})")
    for v in range(g.n):
        if v not in seen:
            violations.append(f"UncoveredVertex: {v}")
    return CheckReport(not violations, tuple(violations))


def verify_tour(t: Tour, g: UndirectedRegularGraph) -> CheckReport:
    """Re-validate all tour invariants against g from scratch."""
    violations = []
    walk = t.walk
    if not walk:
        return CheckReport(False, ("EmptyWalk",))
    # One all-pass test at C speed; the scan below names what fails.
    n, row = g.n, g.out_adj.__getitem__
    if (walk[0] == walk[-1] and 0 <= min(walk) and max(walk) < n
            and len(set(walk)) == n and all(map(contains, map(row, walk), walk[1:]))):
        return CheckReport(True)
    if walk[0] != walk[-1]:
        violations.append(f"NotClosed: starts {walk[0]}, ends {walk[-1]}")
    covered = set()
    for v in walk:
        if not 0 <= v < g.n:
            violations.append(f"IndexOutOfRange: {v}")
        else:
            covered.add(v)
    for a, b in zip(walk, walk[1:]):
        if 0 <= a < g.n and 0 <= b < g.n and not g.has_edge(a, b):
            violations.append(f"NonEdge: ({a}, {b})")
    for v in range(g.n):
        if v not in covered:
            violations.append(f"UncoveredVertex: {v}")
    return CheckReport(not violations, tuple(violations))
