"""Calibrate the MCMC step budget against exact references of the cycle count.

Budgets are multiples m of the unit n * d * ceil(log2 n) steps per draw;
the package default is 20 units. At each budget, ``--draws`` MCMC draws
are taken and the row reports their mean cycle count, its distance from
the reference mean E in standard errors, and the total-variation (TV)
distance between their cycle-count law and the reference. Three kinds of
instance:

- law: block families and doubled cycles, n = 16-256. The census
  ``cycle_law`` gives the exact law and E, with SE = exact sd /
  sqrt(draws). The TV floor is the mean TV of five sets of as many draws
  from the exact law.
- draws: random graphs at the sizes where the exact backend hands over,
  compared with as many ``ExactFactorSampler`` draws. E is their mean,
  SE = their sd * sqrt(2 / draws), and the TV is two-sample; the floor is
  the mean TV between five pairs of exact draw sets.
- R-hat: larger random graphs with no exact reference, at the default
  and at twice it. The draws are split between four chains, each on the
  graph relabelled so that its Hopcroft-Karp start differs; of 16
  relabellings, the chains take the two starts with the fewest cycles
  and the two with the most (their cycle counts follow the family
  name). The row reports the Gelman-Rubin R-hat of
  the cycle count over the four chains, near 1 when they agree.

Each row also reports the mean overrun, the steps a draw runs past its
budget before it meets a perfect state, and the mean milliseconds per
draw. Prints the markdown table kept in README.md:

    PYTHONPATH=src python tools/mcmc_calibration.py [--draws 2000] [--seed 1]
"""

import argparse
import math
import random
import statistics
import time
from collections import Counter

from cyclefactor.exact import cycle_law
from cyclefactor.graphs import (
    CycleFactor,
    RegularDigraph,
    gen_family,
    gen_random_regular_digraph,
)
from cyclefactor.sampling import (
    ExactFactorSampler,
    MCMCFactorSampler,
    SamplerConfig,
    derive_seed,
    hopcroft_karp,
)

SIZES = (16, 32, 64, 128, 256)
# An undirected graph is sampled as it is: it stores both directions of
# every edge, so it is its own doubled digraph.
LAW = (
    [("complete_loops", lambda n=n: gen_family("complete_loops", n, 4)) for n in SIZES]
    + [("clique_union, doubled", lambda n=n: gen_family("clique_union", n, 3)) for n in SIZES]
    + [("cycle, doubled", lambda n=n: gen_family("cycle", n, 2)) for n in SIZES]
)
DRAWS = [
    ("random", lambda: gen_random_regular_digraph(40, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(44, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(48, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(24, 4, 1)),
    ("random", lambda: gen_random_regular_digraph(28, 4, 1)),
]
RHAT = [
    ("random", lambda: gen_random_regular_digraph(64, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(128, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(256, 3, 1)),
    ("random", lambda: gen_random_regular_digraph(128, 4, 1)),
]
MULTIPLES = (0.5, 1, 2, 5, 20)  # budgets for the law and draws rows, in units
CHAINS = 4
STARTS = 16  # relabellings tried for the R-hat chains' starts


def unit(g: RegularDigraph) -> int:
    """n * d * ceil(log2 n) steps, at least n * d."""
    return g.n * g.d * max(1, (g.n - 1).bit_length())


class CountingRandom(random.Random):
    """A Random that counts its random() calls. Past its budget the chain
    flips each step's lazy coin with random(), and no step before it
    does, so the count is the draw's overrun."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def mcmc_draws(g: RegularDigraph, steps: int, rng: CountingRandom, draws: int) -> tuple[list[int], float]:
    """``draws`` cycle counts at ``steps`` and the seconds they took."""
    sampler = MCMCFactorSampler(g, steps)
    t0 = time.perf_counter()
    counts = [sampler.sample(rng).num_cycles for _ in range(draws)]
    return counts, time.perf_counter() - t0


def tv(a: Counter, na: int, b: Counter, nb: int) -> float:
    return 0.5 * sum(abs(a.get(c, 0) / na - b.get(c, 0) / nb) for c in set(a) | set(b))


def relabel(g: RegularDigraph, perm: list[int]) -> RegularDigraph:
    """g with vertex u renamed perm[u]; its cycle-factors keep their counts."""
    out = [()] * g.n
    for u, row in enumerate(g.out_adj):
        out[perm[u]] = [perm[v] for v in row]
    return RegularDigraph.from_lists(g.n, g.d, out)


def r_hat(chains: list[list[int]]) -> float:
    """Gelman-Rubin potential scale reduction of equal-length chains."""
    n = len(chains[0])
    w = statistics.fmean(statistics.variance(c) for c in chains)
    b = n * statistics.variance([statistics.fmean(c) for c in chains])
    return math.sqrt(((n - 1) / n * w + b / n) / w) if w else 1.0


def row(family, g, m, steps, mean, e, z, tv_, floor, rhat, overrun, ms):
    def f(x, spec):
        return "—" if x is None else format(x, spec)

    return (
        f"| {family} | {g.n} | {g.d} | {m:g} | {steps:,} | {mean:.3f} | {f(e, '.3f')} | {f(z, '+.1f')} "
        f"| {f(tv_, '.3f')} | {f(floor, '.3f')} | {f(rhat, '.3f')} | {overrun:.1f} | {ms:.2f} |"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--draws", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.draws < 2 * CHAINS:
        ap.error(f"--draws must be at least {2 * CHAINS}")
    draws = args.draws
    print("| family | n | d | budget (n·d·⌈log₂ n⌉) | steps | mean | E | (mean − E)/SE | TV "
          "| TV floor | R-hat | overrun | ms/draw |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    idx = 0
    for kind, instances in (("law", LAW), ("draws", DRAWS)):
        for family, build in instances:
            g = build()
            ref_rng = random.Random(derive_seed(args.seed, 100 * idx + 99))
            if kind == "law":
                ways = cycle_law(g)
                total = sum(ways.values())
                law = Counter({c: k / total for c, k in ways.items()})
                e = sum(c * p for c, p in law.items())
                se = math.sqrt(sum((c - e) ** 2 * p for c, p in law.items()) / draws)
                floor = statistics.fmean(
                    tv(Counter(ref_rng.choices(list(ways), list(ways.values()), k=draws)), draws, law, 1)
                    for _ in range(5)
                )
                ref, nref = law, 1
            else:
                exact = ExactFactorSampler(g)
                sets = [Counter(exact.sample(ref_rng).num_cycles for _ in range(draws)) for _ in range(11)]
                ref, nref = sets[0], draws
                e = sum(c * k for c, k in ref.items()) / draws
                sd = statistics.stdev(ref.elements()) if len(ref) > 1 else 0.0
                se = sd * math.sqrt(2 / draws)
                floor = statistics.fmean(tv(sets[i], draws, sets[i + 1], draws) for i in range(1, 11, 2))
            for j, m in enumerate(MULTIPLES):
                steps = round(m * unit(g))
                rng = CountingRandom(derive_seed(args.seed, 100 * idx + j))
                counts, secs = mcmc_draws(g, steps, rng, draws)
                mean = statistics.fmean(counts)
                print(row(family, g, m, steps, mean, e, (mean - e) / se if se else 0.0,
                          tv(Counter(counts), draws, ref, nref), floor, None,
                          rng.calls / draws, 1000 * secs / draws), flush=True)
            idx += 1
    per_chain = draws // CHAINS
    for family, build in RHAT:
        g = build()
        rng = random.Random(derive_seed(args.seed, 100 * idx + 99))
        starts = []
        for _ in range(STARTS):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            starts.append((CycleFactor.from_sigma(hopcroft_karp(h.out_adj)).num_cycles, h))
        starts.sort(key=lambda s: s[0])
        starts = starts[:CHAINS // 2] + starts[-(CHAINS // 2):]
        graphs = [h for _, h in starts]
        family += f" (starts {', '.join(str(c) for c, _ in starts)})"
        for j in range(2):
            steps = (j + 1) * SamplerConfig().resolve_steps(g)
            m = steps / unit(g)
            chains, secs, calls = [], 0.0, 0
            for c, h in enumerate(graphs):
                crng = CountingRandom(derive_seed(args.seed, 100 * idx + 10 * j + c))
                counts, s = mcmc_draws(h, steps, crng, per_chain)
                chains.append(counts)
                secs += s
                calls += crng.calls
            n_drawn = per_chain * CHAINS
            mean = statistics.fmean(x for c in chains for x in c)
            print(row(family, g, m, steps, mean, None, None, None, None, r_hat(chains),
                      calls / n_drawn, 1000 * secs / n_drawn), flush=True)
        idx += 1


if __name__ == "__main__":
    main()
