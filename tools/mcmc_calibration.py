"""Calibrate the MCMC step budget against the exact law of the cycle count.

For each instance the census ``cycle_law`` gives the exact law of the
cycle count, without listing the factors, and its mean E. Then, at each
budget multiple m (m * n^2 * d steps per draw), ``--draws`` MCMC draws are
taken and the row reports their mean cycle count, its distance from E in
standard errors (SE = exact sd / sqrt(draws)) and the total-variation (TV)
distance between their cycle-count law and the exact one. The TV noise
floor is the mean TV of five sets of as many draws from the exact law.
Prints the markdown table kept in README.md; the default run takes several
minutes, nearly all of it the MCMC draws at 50 n^2 d.

    PYTHONPATH=src python tools/mcmc_calibration.py [--draws 2000] [--seed 1]
"""

import argparse
import math
import random
from collections import Counter

from cyclefactor.exact import cycle_law
from cyclefactor.graphs import double_undirected, gen_family, gen_random_regular_digraph
from cyclefactor.sampling import MCMCFactorSampler, derive_seed

INSTANCES = [
    ("random", lambda: gen_random_regular_digraph(18, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(16, 4, 1)),
    ("random --no-loops", lambda: gen_random_regular_digraph(18, 3, 1, allow_loops=False)),
    ("complete_loops", lambda: gen_family("complete_loops", 16, 4)),
    ("clique_union, doubled", lambda: double_undirected(gen_family("clique_union", 16, 3))),
    ("cycle, doubled", lambda: double_undirected(gen_family("cycle", 20, 2))),
    ("complete_bipartite_like, doubled",
     lambda: double_undirected(gen_family("complete_bipartite_like", 18, 3))),
    ("random", lambda: gen_random_regular_digraph(32, 3, 1)),
]
MULTIPLES = (0.2, 0.5, 5, 50)  # budgets, in units of n^2 d


def tv(sample: Counter, law: dict, draws: int) -> float:
    return 0.5 * sum(abs(sample.get(c, 0) / draws - p) for c, p in law.items())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--draws", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.draws < 1:
        ap.error("--draws must be at least 1")
    print("| family | n | d | factors | budget (n²d) | mean | exact E | (mean − E)/SE | TV | TV floor |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for idx, (family, build) in enumerate(INSTANCES):
        g = build()
        ways = cycle_law(g)
        factors = sum(ways.values())
        law = {c: k / factors for c, k in ways.items()}
        mean = sum(c * p for c, p in law.items())
        se = math.sqrt(sum((c - mean) ** 2 * p for c, p in law.items()) / args.draws)
        rng = random.Random(derive_seed(args.seed, 1000 + idx))
        floor = sum(
            tv(Counter(rng.choices(list(ways), list(ways.values()), k=args.draws)), law, args.draws)
            for _ in range(5)
        ) / 5
        for j, m in enumerate(MULTIPLES):
            steps = max(1, round(m * g.n * g.n * g.d))
            sampler = MCMCFactorSampler(g, steps)
            rng = random.Random(derive_seed(args.seed, 100 * idx + j))
            drawn = [sampler.sample(rng).num_cycles for _ in range(args.draws)]
            z = (sum(drawn) / args.draws - mean) / se if se else 0.0
            print(
                f"| {family} | {g.n} | {g.d} | {factors:,} | {m:g} | {sum(drawn) / args.draws:.3f} "
                f"| {mean:.3f} | {z:+.1f} | {tv(Counter(drawn), law, args.draws):.3f} | {floor:.3f} |",
                flush=True,
            )


if __name__ == "__main__":
    main()
