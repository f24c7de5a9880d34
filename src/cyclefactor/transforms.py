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
from dataclasses import dataclass

from .errors import BadParameters, GraphDisconnected
from .graphs import CycleFactor, UndirectedRegularGraph

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


@dataclass(frozen=True)
class PathFactor:
    """Vertex-disjoint paths covering all vertices; singletons allowed."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def num_paths(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class Tour:
    """Closed walk visiting every vertex; length counts edge traversals."""

    walk: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.walk) - 1


@dataclass(frozen=True)
class CheckReport:
    """Structured verdict from an independent checker; never raised."""

    ok: bool
    violations: tuple[str, ...] = ()


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


def to_path_factor(
    cycles: tuple[tuple[int, ...], ...], g: UndirectedRegularGraph
) -> PathFactor:
    """Remove one edge per cycle, yielding one path per cycle.

    A 2-cycle keeps its edge and becomes a 2-vertex path; a singleton
    stays a 1-vertex path. In longer cycles the removed edge is the one
    whose endpoint pair is largest, for determinism.
    """
    paths = []
    for cyc in cycles:
        for v in cyc:
            if not 0 <= v < g.n:
                raise BadParameters(f"vertex {v} is out of range for n={g.n}")
        if len(cyc) <= 2:
            paths.append(tuple(cyc))
            continue
        ln = len(cyc)
        cut = max(range(ln), key=lambda i: tuple(sorted((cyc[i], cyc[(i + 1) % ln]), reverse=True)))
        paths.append(tuple(cyc[(cut + 1 + j) % ln] for j in range(ln)))
    return PathFactor(tuple(paths))


def to_tour(cycles: tuple[tuple[int, ...], ...], g: UndirectedRegularGraph) -> Tour:
    """Stitch a cycle decomposition of a connected graph into a closed tour.

    Each cycle is contracted to a supernode; a BFS spanning tree of the
    contraction (rooted at the cycle containing vertex 0, neighbours in
    vertex order) decides where to detour from a parent cycle into each
    child cycle and back. The walk traverses every cycle once and every
    tree edge twice, so its length is at most n + 2(c - 1).
    """
    if not g.is_connected():
        raise GraphDisconnected("tour construction needs a connected graph")
    cyc_of = [-1] * g.n
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            if not 0 <= v < g.n:
                raise BadParameters(f"vertex {v} is out of range for n={g.n}")
            if cyc_of[v] != -1:
                raise BadParameters(f"vertex {v} appears in two cycles")
            cyc_of[v] = ci
    if -1 in cyc_of:
        raise BadParameters("cycles do not cover every vertex")
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
            for v in g.adj[u]:
                cj = cyc_of[v]
                if not visited[cj]:
                    visited[cj] = True
                    parent_link[cj] = (u, v)
                    queue.append(cj)

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
