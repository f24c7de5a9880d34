"""Independent checks of the CLI's outputs.

Nothing here imports the package: graphs come from the benchmark's own
generator (``workloads``) and every quantity is recomputed from scratch.
Each checker returns a list of violations; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

import workloads


def cycle_count(sigma) -> int:
    seen = [False] * len(sigma)
    count = 0
    for start in range(len(sigma)):
        if not seen[start]:
            count += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = sigma[v]
    return count


def reference_census(rows) -> tuple[int, int]:
    """(number of cycle-factors, total cycles over all of them) by
    depth-first enumeration. Vertices are assigned in index order, and the
    partial assignment is kept as chains: assigning i -> v either closes
    the chain that starts at v (one more cycle) or joins two chains."""
    n = len(rows)
    head_of = list(range(n))  # head_of[t]: first vertex of the chain ending at t
    tail_of = list(range(n))  # tail_of[h]: last vertex of the chain starting at h
    used = [False] * n
    count = 0
    cycles_total = 0

    def extend(i: int, cycles: int) -> None:
        nonlocal count, cycles_total
        if i == n:
            count += 1
            cycles_total += cycles
            return
        h = head_of[i]
        for v in rows[i]:
            if used[v]:
                continue
            used[v] = True
            if v == h:
                extend(i + 1, cycles + 1)
            else:
                t = tail_of[v]
                saved = (head_of[t], tail_of[h])
                head_of[t], tail_of[h] = h, t
                extend(i + 1, cycles)
                head_of[t], tail_of[h] = saved
            used[v] = False

    extend(0, 0)
    return count, cycles_total


def _adjacency(inst) -> list[set[int]]:
    return [set(r) for r in inst["rows"]]


def check_factor(p: dict, inst: dict) -> list[str]:
    """sigma is a permutation of arcs of the (doubled) input graph, and the
    reported counts, cycles and instance hash follow from it."""
    n, d, adj = inst["n"], inst["d"], _adjacency(inst)
    sigma = p["sigma"]
    bad = []
    if sorted(sigma) != list(range(n)):
        return ["sigma is not a permutation of the vertices"]
    bad += [f"arc ({i}, {v}) not in graph" for i, v in enumerate(sigma) if v not in adj[i]][:3]
    c = cycle_count(sigma)
    if p["cycle_count"] != c:
        bad.append(f"cycle_count {p['cycle_count']} != {c} recomputed from sigma")
    if min(p["cycle_counts"]) != c:
        bad.append("cycle_count is not the minimum of cycle_counts")
    if len(p["cycles"]) != c or any(
        sigma[cyc[j]] != cyc[(j + 1) % len(cyc)] for cyc in p["cycles"] for j in range(len(cyc))
    ):
        bad.append("cycles do not follow sigma")
    want = workloads.text_hash(workloads.graph_text(True, n, d, inst["rows"]))
    if p["instance_hash"] != want:
        bad.append("instance_hash does not match the input digraph")
    return bad


def _covers(n: int, vertices) -> bool:
    return sorted(vertices) == list(range(n))


def check_path_factor(p: dict, inst: dict) -> list[str]:
    n, adj = inst["n"], _adjacency(inst)
    bad = check_factor(p, inst)
    paths = p["paths"]
    if not _covers(n, [v for path in paths for v in path]):
        bad.append("paths do not cover every vertex exactly once")
    if any(b not in adj[a] for path in paths for a, b in zip(path, path[1:])):
        bad.append("a path uses a non-edge")
    if p["path_count"] != len(paths) or len(paths) != p["cycle_count"]:
        bad.append("path_count disagrees with paths or with the cycle count")
    return bad


def check_tour(p: dict, inst: dict) -> list[str]:
    n, adj = inst["n"], _adjacency(inst)
    bad = check_factor(p, inst)
    walk = p["walk"]
    bound = n + 2 * (p["cycle_count"] - 1)
    if not walk or walk[0] != walk[-1]:
        bad.append("walk is not closed")
    if set(walk) != set(range(n)):
        bad.append("walk does not cover every vertex")
    if any(b not in adj[a] for a, b in zip(walk, walk[1:])):
        bad.append("walk uses a non-edge")
    if p["length"] != len(walk) - 1 or p["length_bound"] != bound or p["length"] > bound:
        bad.append(f"length {p['length']} vs bound n + 2(c - 1) = {bound}")
    return bad


def check_verify(p: dict, ref: tuple[int, int]) -> list[str]:
    count, cycles_total = ref
    rep = p["report"]
    bad = []
    if rep["matching_count"] != str(count):
        bad.append(f"matching_count {rep['matching_count']} != reference {count}")
    want = Fraction(cycles_total, count)
    got = rep["expected_cycles"]
    if (got["numerator"], got["denominator"]) != (str(want.numerator), str(want.denominator)):
        bad.append(f"expected cycles {got['numerator']}/{got['denominator']} != reference {want}")
    if not all(c["holds"] for c in p["checks"]):
        bad.append("a reported check does not hold")
    return bad


def check_gen(text: str, spec: dict) -> list[str]:
    """Header, regularity, no parallel arcs, the requested loop and digon
    constraints, and, for named families, equality with our construction."""
    family, n, d = spec["family"], spec["n"], spec["d"]
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    directed = family == "random" or family in workloads.DIRECTED
    head = f"{'digraph' if directed else 'graph'} {n} {d}"
    if not lines or lines[0] != head:
        return [f"header is not {head!r}"]
    rows = [[int(t) for t in ln.split()] for ln in lines[1:]]
    bad = []
    if len(rows) != n or any(len(r) != d or len(set(r)) != d for r in rows):
        return ["rows are not d distinct neighbours for each of n vertices"]
    indeg = [0] * n
    for r in rows:
        for v in r:
            if not 0 <= v < n:
                return [f"vertex {v} out of range"]
            indeg[v] += 1
    if any(x != d for x in indeg):
        bad.append("in-degrees are not all d")
    if "--no-loops" in spec.get("flags", ()) and any(i in r for i, r in enumerate(rows)):
        bad.append("loop present under --no-loops")
    if "--no-digons" in spec.get("flags", ()):
        sets = [set(r) for r in rows]
        if any(u != v and u in sets[v] for u in range(n) for v in rows[u]):
            bad.append("digon present under --no-digons")
    if family != "random":
        want = workloads.build_rows(family, n, d, 0)
        if [sorted(r) for r in want] != rows:
            bad.append(f"{family} differs from the reference construction")
    return bad


def check_op(op: dict, spec: dict, inst: dict | None, refs: dict) -> list[str]:
    """Violations of one successful op's output file."""
    with open(op["out"], encoding="utf-8") as fh:
        text = fh.read()
    if spec["cmd"] == "gen":
        return check_gen(text, spec)
    p = json.loads(text)
    if spec["cmd"] == "verify":
        if inst["path"] not in refs:
            refs[inst["path"]] = reference_census(inst["rows"])
        return check_verify(p, refs[inst["path"]])
    if spec["cmd"] == "tour":
        return check_tour(p, inst)
    if spec["cmd"] == "pathfactor":
        return check_path_factor(p, inst)
    return check_factor(p, inst)
