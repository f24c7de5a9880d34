"""Hopcroft-Karp as written before its first phase became a first-fit loop.

A reference for ``sampling.hopcroft_karp``: every phase, the first one
included, layers the rows by BFS from the free rows and then searches
augmenting paths depth-first from each free row in index order. The MCMC
sampler starts every draw from this matching, so a seed's draws depend on
it; ``test_sampling`` checks the package's version against this one.
"""

from collections import deque


def hopcroft_karp(adj) -> list[int]:
    """Maximum matching of the bipartite graph whose U-side vertex u is
    joined to the V-side vertices ``adj[u]`` (n rows, n columns); returns
    the V-partner of each U vertex (-1 for unmatched). Deterministic:
    vertices scanned in index order.

    Each phase layers the graph by BFS from the free U vertices, then
    searches augmenting paths depth-first from each free U vertex in
    order. The search keeps its path on explicit stacks, so path length
    is not limited by Python's recursion depth.
    """
    n = len(adj)
    match_u = [-1] * n
    match_v = [-1] * n
    INF = n + 1
    while True:
        dist = [INF] * n
        queue = deque()
        for u in range(n):
            if match_u[u] == -1:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_v[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return match_u
        # Depth-first along the layers from each free row in turn, as a
        # recursion on rows would: path holds the rows above u, cols the
        # column taken from each, scans where each row's scan resumes.
        path: list[int] = []
        cols: list[int] = []
        scans = []
        for root in range(n):
            if match_u[root] != -1:
                continue
            u, scan = root, iter(adj[root])
            while True:
                for v in scan:
                    w = match_v[v]
                    if w == -1 or dist[w] == dist[u] + 1:
                        break
                else:
                    dist[u] = INF  # a dead end for the rest of this phase
                    if not path:
                        break
                    u, scan = path.pop(), scans.pop()
                    cols.pop()
                    continue
                if w != -1:
                    path.append(u)
                    cols.append(v)
                    scans.append(scan)
                    u, scan = w, iter(adj[w])
                    continue
                while True:  # v is free: flip the path back to the root
                    match_u[u] = v
                    match_v[v] = u
                    if not path:
                        break
                    u, v = path.pop(), cols.pop()
                scans.clear()
                break
