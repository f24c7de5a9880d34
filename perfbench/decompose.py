"""Each CLI subcommand rebuilt as the sequence of public package calls it
makes, with a span around every call.

Spans are recorded here, in the benchmark, around the calls into each
module; the package itself is not patched. A call that duplicates work
done inside another span (the permanent inside ``build_report``,
Hopcroft-Karp inside the MCMC sampler build) is a *probe*: it is timed for
its own metric and left out of the decomposition of op time.

Every function returns ``(exit, error, text, counts)``: the exit code the
CLI would give, the name of an exception the CLI would not catch, the text
the CLI would write to ``--out``, and the op's work counters. The worker
compares the first three with the CLI's own result.
"""

from __future__ import annotations

import json
import math
import random
import time

import workloads
from cyclefactor import errors, graphs
from cyclefactor.entropy import reveal_audit
from cyclefactor.exact import build_report, permanent
from cyclefactor.graphs import (
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    read_graph,
    require_valid,
    to_bipartite,
    write_graph,
)
from cyclefactor.sampling import (
    ExactFactorSampler,
    MCMCFactorSampler,
    SamplerConfig,
    derive_seed,
    hopcroft_karp,
)
from cyclefactor.transforms import (
    to_path_factor,
    to_tour,
    to_undirected_cycle_factor,
    verify_path_factor,
    verify_tour,
)


class Tracer:
    """In-memory spans ``[op, id, parent, name, start_ns, end_ns, probe]``.

    Spans of one op share ``op``; ``parent`` is the id of the enclosing
    span (-1 at the top). A disabled tracer records nothing, so timing the
    same calls with it gives the untraced cost."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._next = 0

    def span(self, name: str, probe: bool = False):
        return _Span(self, name, probe) if self.enabled else _NO_SPAN


class _Span:
    __slots__ = ("tr", "name", "probe", "id", "parent", "start")

    def __init__(self, tr: Tracer, name: str, probe: bool):
        self.tr, self.name, self.probe = tr, name, probe

    def __enter__(self):
        tr = self.tr
        self.id = tr._next
        tr._next += 1
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.id)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tr
        tr._stack.pop()
        tr.spans.append([tr.op, self.id, self.parent, self.name, self.start, end, self.probe])
        return False


class _NoSpan:
    def __enter__(self):
        pass

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Fail(Exception):
    """A condition on which the CLI returns a non-zero exit code itself."""

    def __init__(self, code: int):
        self.code = code


def _cli_exit(exc: Exception) -> int | None:
    """The exit code ``cli.main`` maps an exception to, or None if the
    exception escapes ``cli.main``."""
    if isinstance(exc, _Fail):
        return exc.code
    if isinstance(exc, errors.SizeLimitExceeded):
        return 3
    if isinstance(exc, errors.CycleFactorError):
        return 2
    if isinstance(exc, OSError):
        return 4
    return None


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _load(tr: Tracer, path: str):
    with tr.span("graphs.read_graph"):
        return read_graph(path)


def _digraph(tr: Tracer, g):
    if isinstance(g, UndirectedRegularGraph):
        with tr.span("graphs.double_undirected"):
            return double_undirected(g)
    return g


def _factor_payload(tr: Tracer, g, spec: dict, seed: int, counts: dict):
    """``min_cycle_factor`` unrolled: validate, resolve, build, k draws."""
    with tr.span("graphs.require_valid"):
        require_valid(g)
    cfg = SamplerConfig(
        backend=spec.get("backend", "auto"),
        mcmc_steps=spec.get("mcmc_steps"),
        num_samples=spec.get("samples"),
        seed=seed,
    )
    with tr.span("sampling.resolve"):
        backend = cfg.resolve_backend(g.n)
        k = cfg.resolve_num_samples(g.n)
        steps = cfg.resolve_steps(g) if backend == "mcmc" else 0
    if backend == "exact":
        with tr.span("sampling.exact_build"):
            sampler = ExactFactorSampler(g)
        counts["exact_states"] = len(getattr(sampler, "_counts", ()))
    else:
        bip = to_bipartite(g)
        with tr.span("sampling.hopcroft_karp", probe=True):
            hopcroft_karp(bip)
        with tr.span("sampling.mcmc_build"):
            sampler = MCMCFactorSampler(g, steps)
        counts["mcmc_steps"] = steps * k
    draw = f"sampling.{backend}_draw"
    best = None
    cycle_counts = []
    for i in range(k):
        rng = random.Random(derive_seed(seed, i))
        with tr.span(draw):
            cf = sampler.sample(rng)
        cycle_counts.append(cf.num_cycles)
        if best is None or cf.num_cycles < best.num_cycles:
            best = cf
    counts["draws"] = k
    bound = {
        "base2": 4.0 * g.n / g.d * (math.log2(g.d) + 1.0),
        "natural": 4.0 * g.n / g.d * (math.log(g.d) + 1.0),
    }
    text = workloads.graph_text(True, g.n, g.d, g.out_adj)
    payload = {
        "instance_hash": workloads.text_hash(text),
        "seed": seed,
        "backend": backend,
        "steps": steps,
        "cycle_counts": cycle_counts,
        "cycle_count": best.num_cycles,
        "sigma": list(best.sigma),
        "cycles": [list(c) for c in best.cycles],
        "cycle_bound": bound,
    }
    return payload, best


def op_cyclefactor(tr, spec, inst, seed, out, counts):
    g = _digraph(tr, _load(tr, inst["path"]))
    payload, factor = _factor_payload(tr, g, spec, seed, counts)
    with tr.span("graphs.is_factor_of"):
        if not factor.is_factor_of(g):
            raise _Fail(2)
    return 0, _dump(payload)


def _undirected_cycles(tr, spec, inst, seed, counts):
    g = _load(tr, inst["path"])
    if not isinstance(g, UndirectedRegularGraph):
        raise _Fail(2)
    payload, factor = _factor_payload(tr, _digraph(tr, g), spec, seed, counts)
    with tr.span("transforms.undirected"):
        cycles = to_undirected_cycle_factor(factor, g)
    return g, payload, cycles


def op_pathfactor(tr, spec, inst, seed, out, counts):
    g, payload, cycles = _undirected_cycles(tr, spec, inst, seed, counts)
    with tr.span("transforms.path_factor"):
        pf = to_path_factor(cycles, g)
    with tr.span("transforms.verify"):
        if not verify_path_factor(pf, g).ok:
            raise _Fail(2)
    payload.update({"paths": [list(p) for p in pf.paths], "path_count": pf.num_paths})
    return 0, _dump(payload)


def op_tour(tr, spec, inst, seed, out, counts):
    g, payload, cycles = _undirected_cycles(tr, spec, inst, seed, counts)
    with tr.span("transforms.tour"):
        tour = to_tour(cycles, g)
    with tr.span("transforms.verify"):
        if not verify_tour(tour, g).ok:
            raise _Fail(2)
    counts["tour_excess"] = tour.length - g.n
    payload.update({
        "walk": list(tour.walk),
        "length": tour.length,
        "length_bound": g.n + 2 * (len(cycles) - 1),
    })
    return 0, _dump(payload)


def op_verify(tr, spec, inst, seed, out, counts):
    g = _digraph(tr, _load(tr, inst["path"]))
    bip = to_bipartite(g)
    with tr.span("exact.permanent", probe=True):
        permanent(bip)
    with tr.span("exact.build_report"):
        report = build_report(g)
    counts["factors"] = report.matching_count
    rows = [(b.name, b.lhs, b.rhs, b.holds) for b in report.bound_audit]
    loss_cap = report.n / report.d * math.log2(math.e * report.d)
    loss = report.entropy_loss
    rows.append(("entropy_loss_nonnegative", 0.0, loss, loss >= -1e-9))
    rows.append(("entropy_loss_upper", loss, loss_cap, loss <= loss_cap + 1e-9))
    if g.n <= 6:
        try:
            with tr.span("entropy.reveal_audit"):
                audit = reveal_audit(g)
            rows.append(("reveal_uniformity", 0.0, 0.0, audit.uniform))
            rows.append(("reveal_loss_agreement", audit.loss_gap, 1e-6, audit.loss_gap <= 1e-6))
        except errors.SizeLimitExceeded:
            pass
    payload = {
        "report": json.loads(report.to_json()),
        "checks": [{"name": n, "lhs": l, "rhs": r, "holds": h} for n, l, r, h in rows],
    }
    return (0 if all(r[3] for r in rows) else 2), _dump(payload)


def op_gen(tr, spec, inst, seed, out, counts):
    n, d, flags = spec["n"], spec["d"], spec["flags"]
    if spec["family"] == "random":
        loops, digons = "--no-loops" not in flags, "--no-digons" not in flags
        with tr.span("graphs.gen_random"):
            g = gen_random_regular_digraph(n, d, seed, allow_loops=loops, allow_digons=digons)
        counts["gen_random"] = 1
        # The Latin-square fallback is private and only reachable without
        # constraints; rebuilding it from the same seed identifies it.
        latin = getattr(graphs, "_latin_square_digraph", None)
        if loops and digons and latin is not None and latin(n, d, random.Random(seed)) == g:
            counts["gen_fallback"] = 1
    else:
        with tr.span("graphs.gen_family"):
            g = gen_family(spec["family"], n, d)
    with tr.span("graphs.write_graph"):
        write_graph(g, out)
    with open(out, encoding="utf-8") as fh:
        return 0, fh.read()


OPS = {
    "cyclefactor": op_cyclefactor,
    "pathfactor": op_pathfactor,
    "tour": op_tour,
    "verify": op_verify,
    "gen": op_gen,
}


def run(tr: Tracer, spec: dict, inst: dict | None, seed: int, out: str):
    """Run one decomposed op; never raises except on interrupt."""
    counts: dict = {}
    try:
        with tr.span("op." + spec["cmd"]):
            code, text = OPS[spec["cmd"]](tr, spec, inst, seed, out, counts)
        return code, None, text, counts
    except Exception as e:
        code = _cli_exit(e)
        return code, (None if code is not None else type(e).__name__), None, counts
