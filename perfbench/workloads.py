"""Seeded benchmark inputs and the op schedule of each workload.

The generators here are the benchmark's own: permutation-union digraphs
built with ``random.Random`` and random regular undirected graphs from
networkx. They share no code with ``cyclefactor.graphs``, so a rewrite of
the package's generator cannot change the inputs of the sampling and
oracle workloads. Graph files are written in the package's text format
(``digraph n d`` or ``graph n d`` followed by one sorted row per vertex).

A workload is a fixed *round* of op slots. Every slot names one CLI
subcommand and, except for ``gen``, one input instance. A run repeats the
round a number of times fixed by ``--seconds`` (see ``rounds``); the
instance mix (family, n, d) is the same for every seed, and the seed picks
the wiring of the random instances and the ``--seed`` of every sampling or
generation op.
"""

from __future__ import annotations

import hashlib
import math
import random

def mix_seed(*parts: int) -> int:
    """A 63-bit seed from integer parts (sha256, so no package code)."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


# ---------------------------------------------------------------- graphs


def perm_union(n: int, d: int, seed: int) -> list[list[int]]:
    """Out-rows of a union of d permutations that pairwise disagree
    everywhere, so the digraph is d-regular with no parallel arcs (loops
    and digons allowed). Each permutation is redrawn until it disagrees
    with all earlier ones; the j-th is accepted with probability ~e^-j."""
    rng = random.Random(seed)
    perms: list[list[int]] = []
    while len(perms) < d:
        p = list(range(n))
        rng.shuffle(p)
        if all(p[i] != q[i] for q in perms for i in range(n)):
            perms.append(p)
    return [sorted(q[i] for q in perms) for i in range(n)]


def random_regular(n: int, d: int, seed: int) -> list[list[int]]:
    """Neighbour rows of a connected random d-regular simple graph."""
    import networkx as nx

    while True:
        G = nx.random_regular_graph(d, n, seed=seed)
        if nx.is_connected(G):
            return [sorted(G.adj[v]) for v in range(n)]
        seed = mix_seed(seed, 1)


def cycle(n: int) -> list[list[int]]:
    return [sorted(((i - 1) % n, (i + 1) % n)) for i in range(n)]


def clique_union(n: int, d: int) -> list[list[int]]:
    k = d + 1
    return [[v for v in range(i - i % k, i - i % k + k) if v != i] for i in range(n)]


def complete_loops(n: int, d: int) -> list[list[int]]:
    return [list(range(i - i % d, i - i % d + d)) for i in range(n)]


def complete_bipartite_like(n: int, d: int) -> list[list[int]]:
    rows = []
    for i in range(n):
        base = i - i % (2 * d)
        other = base + d if i - base < d else base
        rows.append(list(range(other, other + d)))
    return rows


DIRECTED = {"perm_union", "complete_loops"}
RANDOM = {"perm_union", "random_regular"}


def build_rows(family: str, n: int, d: int, seed: int) -> list[list[int]]:
    if family == "perm_union":
        return perm_union(n, d, seed)
    if family == "random_regular":
        return random_regular(n, d, seed)
    if family == "cycle":
        return cycle(n)
    if family == "clique_union":
        return clique_union(n, d)
    if family == "complete_loops":
        return complete_loops(n, d)
    if family == "complete_bipartite_like":
        return complete_bipartite_like(n, d)
    raise ValueError(f"unknown family {family!r}")


def graph_text(directed: bool, n: int, d: int, rows) -> str:
    head = f"{'digraph' if directed else 'graph'} {n} {d}"
    return "\n".join([head] + [" ".join(map(str, r)) for r in rows]) + "\n"


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------- schedules


def _cf(family, n, d):
    return {"cmd": "cyclefactor", "family": family, "n": n, "d": d}


def _verify(family, n, d):
    return {"cmd": "verify", "family": family, "n": n, "d": d}


def _large(cmd, family, n, d):
    # MCMC with a step budget of order n and two draws: cheap on chain
    # steps, so parsing, validation, sampler build and transforms dominate.
    return {"cmd": cmd, "family": family, "n": n, "d": d,
            "backend": "mcmc", "mcmc_steps": 2 * n, "samples": 2}


def _gen(family, n, d, *flags):
    return {"cmd": "gen", "family": family, "n": n, "d": d, "flags": list(flags)}


# Each round lists its op slots in run order; the first three slots are
# also the ops replayed by the determinism check, so they cover every
# subcommand of the workload.
SCHEDULES: dict[str, list[dict]] = {
    # Default budget 50 n^2 d and k = max(10, ceil(4 log2 n)) draws, auto
    # backend (n > 20 goes to MCMC). Chain steps are almost all op time.
    "mcmc_sample": [
        _cf("perm_union", 21, 3),
        _cf("random_regular", 22, 3),
        _cf("random_regular", 30, 3),
        _cf("perm_union", 21, 3),
        _cf("perm_union", 34, 3),
        _cf("random_regular", 26, 3),
        _cf("perm_union", 32, 4),
        _cf("random_regular", 22, 3),
        _cf("random_regular", 48, 3),
    ],
    # Exact backend and oracles: Ryser, the enumeration census, the memo-DP
    # sampler build and, at n <= 6, the reveal audit. Sparse and dense
    # instances alternate.
    "exact_oracle": [
        _verify("perm_union", 6, 3),
        _cf("perm_union", 20, 3),
        _verify("cycle", 8, 2),
        _cf("random_regular", 20, 3),
        _verify("clique_union", 12, 3),
        _cf("perm_union", 16, 5),
        _verify("complete_loops", 6, 3),
        _cf("complete_loops", 20, 4),
        _verify("perm_union", 12, 3),
        _cf("complete_loops", 18, 6),
        _verify("random_regular", 16, 3),
        _cf("clique_union", 20, 3),
        _verify("perm_union", 14, 4),
        _cf("cycle", 16, 2),
        _verify("complete_loops", 16, 4),
        _cf("perm_union", 12, 3),
        _verify("perm_union", 10, 4),
    ],
    # Large sparse graphs. C_6000 is kept on purpose: its all-digon factor
    # makes the recursive tour walk raise RecursionError at the seed commit.
    "tour_large": [
        _large("tour", "random_regular", 2000, 3),
        _large("pathfactor", "random_regular", 1000, 3),
        _large("tour", "cycle", 6000, 2),
        _large("tour", "random_regular", 4000, 4),
        _large("pathfactor", "clique_union", 1000, 3),
        _large("tour", "random_regular", 8000, 3),
        _large("pathfactor", "cycle", 6000, 2),
        _large("pathfactor", "complete_bipartite_like", 1200, 3),
        _large("tour", "cycle", 1001, 2),
        _large("pathfactor", "random_regular", 8000, 4),
        _large("tour", "random_regular", 1000, 4),
        _large("tour", "random_regular", 6000, 3),
        _large("pathfactor", "random_regular", 4000, 3),
        _large("tour", "random_regular", 8000, 4),
        _large("pathfactor", "random_regular", 2000, 4),
    ],
    # The package's own generator. d = 2 and d = 3 are accepted in the first
    # batch; d = 6 returns the Latin-square fallback and --no-loops at d = 5
    # and --no-digons at d = 5 exhaust the retry limit at the seed commit, so
    # these cost the same whatever the seed. d = 4 is the one case whose
    # rejection count, and so its cost, varies from seed to seed.
    "generate": [
        _gen("random", 100, 2),
        _gen("random", 2000, 2, "--no-loops"),
        _gen("complete_loops", 2000, 5),
        _gen("random", 1000, 3),
        _gen("random", 2000, 4),
        _gen("clique_union", 2000, 4),
        _gen("random", 150, 5, "--no-digons"),
        _gen("random", 500, 2, "--no-loops"),
        _gen("random", 200, 6),
        _gen("cycle", 2000, 2),
        _gen("random", 300, 5, "--no-loops"),
        _gen("complete_bipartite_like", 1200, 6),
        _gen("random", 600, 6),
        _gen("random", 2000, 2, "--no-digons"),
        _gen("random", 100, 6),
    ],
}

# Rounds have an odd number of slots and mix cheap and costly ops so that
# the median and the tail order statistic fall inside a group of ops of
# one kind, not on the boundary between two.
REPLAYED_SLOTS = 3

# Wall time of one untraced round on the reference machine (2-core Xeon,
# CPython 3.11.7). It converts --seconds into a fixed number of rounds, so
# a run's op count, and with it the tail percentile, depends only on
# --seconds: the parent and a change run the same ops however fast each is.
ROUND_S = {"mcmc_sample": 9.6, "exact_oracle": 2.8, "tour_large": 1.8, "generate": 2.4}

# A traced op runs three times (CLI, decomposed untraced, decomposed
# traced) and the decomposed runs add probe calls: about four times the
# untraced cost.
TRACE_COST = 4


def rounds(workload: str, seconds: float, traced: bool) -> int:
    per_round = ROUND_S[workload] * (TRACE_COST if traced else 1)
    return max(1, math.ceil(seconds / per_round))


def make_instances(workload: str, seed: int, n_rounds: int, workdir) -> list[list[dict | None]]:
    """Instance records per round and slot (None for ``gen`` slots), with
    their graph files written under ``workdir``. Random families get a
    fresh instance every round, so a run averages over many graphs; the
    named families are the same graph in every round."""
    fixed: dict[int, dict] = {}
    out = []
    for rnd in range(n_rounds):
        row = []
        for slot, spec in enumerate(SCHEDULES[workload]):
            family = spec["family"]
            if spec["cmd"] == "gen":
                row.append(None)
            elif family in RANDOM:
                row.append(_instance(spec, mix_seed(seed, rnd, slot), workdir / f"r{rnd:03d}_s{slot:02d}"))
            else:
                if slot not in fixed:
                    fixed[slot] = _instance(spec, None, workdir / f"fixed_s{slot:02d}")
                row.append(fixed[slot])
        out.append(row)
    return out


def _instance(spec: dict, inst_seed: int | None, stem) -> dict:
    family, n, d = spec["family"], spec["n"], spec["d"]
    rows = build_rows(family, n, d, inst_seed)
    directed = family in DIRECTED
    text = graph_text(directed, n, d, rows)
    path = f"{stem}.{'digraph' if directed else 'graph'}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {
        "family": family, "n": n, "d": d, "seed": inst_seed,
        "directed": directed, "path": path, "rows": rows,
        "instance_hash": text_hash(text),
    }


def op_seed(seed: int, rnd: int, slot: int) -> int:
    return mix_seed(seed, rnd, slot, 7)


def op_argv(spec: dict, inst: dict | None, seed: int, out: str) -> list[str]:
    """The CLI argv of one op."""
    cmd = spec["cmd"]
    if cmd == "gen":
        argv = ["gen", spec["family"], "--n", str(spec["n"]), "--d", str(spec["d"])]
        if spec["family"] == "random":
            argv += ["--seed", str(seed)]
        return argv + spec["flags"] + ["--out", out]
    if cmd == "verify":
        return ["verify", inst["path"], "--format", "json", "--out", out]
    argv = [cmd, inst["path"], "--seed", str(seed)]
    for key in ("backend", "mcmc_steps", "samples"):
        if key in spec:
            argv += ["--" + key.replace("_", "-"), str(spec[key])]
    return argv + ["--out", out]
