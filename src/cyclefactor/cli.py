"""Command-line front end: generation, verification, factor/tour
construction, and benchmark runs.

Exit codes: 0 success, 2 validation failure, 3 infeasible size, 4 I/O.
A subcommand fails by raising; ``main`` is the one place that maps the
exception to its exit code: CycleFactorError -> 2, SizeLimitExceeded
(a CycleFactorError) -> 3, OSError -> 4, printing its text to stderr.
All randomised subcommands require an explicit --seed so every run is
replayable; identical (instance, config, seed) produce byte-identical
JSON apart from wall-clock fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .entropy import REVEAL_MAX_N, reveal_audit
from .errors import BadParameters, CycleFactorError, FormatMismatch, ParseError, SizeLimitExceeded
from .exact import build_report, cycle_bound
from .graphs import (
    RegularDigraph,
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    graph_to_text,
    read_graph,
)
from .sampling import SamplerConfig, min_cycle_factor
from .transforms import (
    PathFactor,
    Tour,
    to_path_factor,
    to_tour,
    to_undirected_cycle_factor,
    verify_path_factor,
    verify_tour,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

FAMILIES = ("complete_loops", "clique_union", "cycle", "complete_bipartite_like")


def instance_hash(g) -> str:
    return hashlib.sha256(graph_to_text(g).encode()).hexdigest()[:16]


def _write(text: str, out: str | None) -> None:
    """The one writer of a subcommand's result: to out, else to stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write {out}: {e}") from None


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True) + "\n", out)


def _load_graph(path: str):
    try:
        return read_graph(path)
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from None
    except (ParseError, FormatMismatch) as e:
        raise BadParameters(f"bad graph file {path}: {e}") from None


def _as_digraph(g) -> RegularDigraph:
    """g itself, or the doubled digraph of an undirected g."""
    return double_undirected(g) if isinstance(g, UndirectedRegularGraph) else g


def _path_factor(cycles, g: UndirectedRegularGraph) -> PathFactor:
    """The path-factor of an undirected cycle decomposition, re-validated."""
    pf = to_path_factor(cycles, g)
    check = verify_path_factor(pf, g)
    if not check.ok:
        raise BadParameters(f"path-factor failed re-validation: {check.violations}")
    return pf


def _tour(cycles, g: UndirectedRegularGraph) -> Tour:
    """The tour of an undirected cycle decomposition, re-validated."""
    tour = to_tour(cycles, g)
    check = verify_tour(tour, g)
    if not check.ok:
        raise BadParameters(f"tour failed re-validation: {check.violations}")
    return tour


def cmd_gen(args) -> int:
    if args.family == "random":
        if args.seed is None:
            raise BadParameters("gen random requires --seed")
        g = gen_random_regular_digraph(
            args.n,
            args.d,
            args.seed,
            allow_loops=not args.no_loops,
            allow_digons=not args.no_digons,
        )
    elif args.no_loops or args.no_digons:
        raise BadParameters("--no-loops and --no-digons apply only to gen random")
    else:
        g = gen_family(args.family, args.n, args.d)
    _write(graph_to_text(g), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _as_digraph(_load_graph(args.path))
    try:
        report = build_report(g)
    except SizeLimitExceeded as e:
        raise SizeLimitExceeded(f"infeasible: {e}; try the sampling subcommands instead") from None
    rows = [(b.name, b.lhs, b.rhs, b.holds) for b in report.bound_audit]
    loss_cap = report.n / report.d * math.log2(math.e * report.d)
    rows.append(("entropy_loss_nonnegative", 0.0, report.entropy_loss, report.entropy_loss >= -1e-9))
    rows.append(("entropy_loss_upper", report.entropy_loss, loss_cap, report.entropy_loss <= loss_cap + 1e-9))
    if g.n <= REVEAL_MAX_N:
        audit = reveal_audit(g)
        rows.append(("reveal_uniformity", 0.0, 0.0, audit.uniform))
        rows.append(("reveal_loss_agreement", audit.loss_gap, 1e-6, audit.loss_gap <= 1e-6))
    if args.format == "json":
        _emit(
            {
                "report": json.loads(report.to_json()),
                "checks": [
                    {"name": n, "lhs": l, "rhs": r, "holds": h} for n, l, r, h in rows
                ],
            },
            args.out,
        )
    else:
        lines = [f"n={report.n} d={report.d} factors={report.matching_count} "
                 f"E[cycles]={report.expected_cycles} loss={report.entropy_loss:.6f}"]
        lines += [f"{'PASS' if holds else 'FAIL'}  {name:28s} lhs={lhs:.6g} rhs={rhs:.6g}"
                  for name, lhs, rhs, holds in rows]
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(r[3] for r in rows) else EXIT_INVALID


def _factor_payload(g: RegularDigraph, args) -> tuple[dict, object]:
    """Run min-of-k and return the fields every sampling command reports,
    with its best factor."""
    cfg = SamplerConfig(
        backend=args.backend,
        mcmc_steps=args.mcmc_steps,
        num_samples=args.samples,
        seed=args.seed,
    )
    result = min_cycle_factor(g, cfg)
    payload = {
        "instance_hash": instance_hash(g),
        "seed": args.seed,
        "backend": result.backend,
        "steps": cfg.resolve_steps(g) if result.backend == "mcmc" else 0,
        "cycle_counts": list(result.cycle_counts),
        "cycle_bound": cycle_bound(g.n, g.d),
        "cycle_count": result.best_count,
        "sigma": list(result.factor.sigma),
        "cycles": [list(c) for c in result.factor.cycles],
    }
    return payload, result.factor


def cmd_cyclefactor(args) -> int:
    g = _as_digraph(_load_graph(args.path))
    payload, factor = _factor_payload(g, args)
    if not factor.is_factor_of(g):
        raise BadParameters("sampled object failed independent re-validation")
    _emit(payload, args.out)
    return EXIT_OK


def _undirected_cycles(args, construction: str):
    """Load an undirected graph, sample its doubled digraph and return
    (graph, payload, undirected cycle decomposition)."""
    g = _load_graph(args.path)
    if not isinstance(g, UndirectedRegularGraph):
        raise BadParameters(f"{construction} construction needs an undirected graph")
    payload, factor = _factor_payload(double_undirected(g), args)
    return g, payload, to_undirected_cycle_factor(factor, g)


def cmd_pathfactor(args) -> int:
    g, payload, cycles = _undirected_cycles(args, "path-factor")
    pf = _path_factor(cycles, g)
    payload.update({"paths": [list(p) for p in pf.paths], "path_count": pf.num_paths})
    _emit(payload, args.out)
    return EXIT_OK


def cmd_tour(args) -> int:
    g, payload, cycles = _undirected_cycles(args, "tour")
    tour = _tour(cycles, g)
    payload.update(
        {
            "walk": list(tour.walk),
            "length": tour.length,
            "length_bound": g.n + 2 * (len(cycles) - 1),
        }
    )
    _emit(payload, args.out)
    return EXIT_OK


def _bench_instance(desc) -> tuple[str, object]:
    if not isinstance(desc, dict):
        raise BadParameters("manifest instance is not an object")
    if "path" in desc:
        if not isinstance(desc["path"], str):
            raise BadParameters("manifest instance path is not a string")
        g = _load_graph(desc["path"])
    else:
        need = ("family", "n", "d") + (("seed",) if desc.get("family") == "random" else ())
        missing = [k for k in need if k not in desc]
        if missing:
            raise BadParameters(f"manifest instance lacks {', '.join(missing)}")
        not_int = [k for k in need[1:] if type(desc[k]) is not int]
        if not_int:
            raise BadParameters(f"manifest instance {', '.join(not_int)} not an integer")
        if desc["family"] == "random":
            g = gen_random_regular_digraph(desc["n"], desc["d"], desc["seed"])
        else:
            g = gen_family(desc["family"], desc["n"], desc["d"])
    return instance_hash(g), g


def _bench_outputs(g, cfg: SamplerConfig, oracle_max_n: int) -> dict:
    outputs: dict = {}
    digraph = _as_digraph(g)
    if digraph.n <= oracle_max_n:
        report = build_report(digraph)
        outputs["oracle"] = json.loads(report.to_json())
    result = min_cycle_factor(digraph, cfg)
    outputs["cycle_counts"] = list(result.cycle_counts)
    outputs["min_cycles"] = result.best_count
    outputs["backend"] = result.backend
    if isinstance(g, UndirectedRegularGraph):
        cycles = to_undirected_cycle_factor(result.factor, g)
        outputs["path_count"] = _path_factor(cycles, g).num_paths
        if g.is_connected():
            outputs["tour_length"] = _tour(cycles, g).length
    return outputs


def _existing_keys(out_path: Path) -> set:
    """Keys of the complete records already in the results file.

    A last line without its newline is what an interrupted append leaves:
    it is cut off, so the next record starts on a fresh line and that
    instance runs again."""
    try:
        data = out_path.read_bytes()
    except FileNotFoundError:
        return set()
    except OSError as e:
        raise OSError(f"cannot read results: {e}") from None
    complete = data[: data.rfind(b"\n") + 1]
    keys = set()
    for lineno, line in enumerate(complete.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            keys.add((rec["instance_hash"], rec["config_hash"], rec["seed"]))
        except (ValueError, KeyError, TypeError) as e:
            raise BadParameters(f"bad results file {out_path}, line {lineno}: {e}") from None
    if len(complete) < len(data):
        with out_path.open("r+b") as fh:
            fh.truncate(len(complete))
    return keys


def cmd_bench(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except OSError as e:
        raise OSError(f"cannot read manifest: {e}") from None
    except ValueError as e:  # not JSON, or not UTF-8
        raise BadParameters(f"bad manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise BadParameters("bad manifest: not a JSON object")
    config = manifest.get("config", {})
    instances = manifest.get("instances", [])
    if not isinstance(config, dict) or not isinstance(instances, list):
        raise BadParameters("bad manifest: config must be an object, instances a list")
    int_keys = ("samples", "mcmc_steps", "seed", "oracle_max_n")
    unknown = sorted(set(config) - {"backend", *int_keys})
    if unknown:
        raise BadParameters(f"bad manifest: unknown config key(s) {', '.join(unknown)}")
    not_int = [k for k in int_keys if k in config and type(config[k]) is not int]
    if not_int:
        raise BadParameters(f"bad manifest: config {', '.join(not_int)} not an integer")
    try:
        cfg = SamplerConfig(
            backend=config.get("backend", "auto"),
            mcmc_steps=config.get("mcmc_steps"),
            num_samples=config.get("samples"),
            seed=config.get("seed", 0),
        )
    except BadParameters as e:
        raise BadParameters(f"bad manifest: {e}") from None
    oracle_max_n = config.get("oracle_max_n", 8)
    out_path = Path(args.out) if args.out else Path("bench_results.ndjson")
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]

    existing = _existing_keys(out_path)
    seed = cfg.seed
    errors = []
    try:
        fh = out_path.open("a", encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write results: {e}") from None
    with fh:
        for desc in instances:
            try:
                ih, g = _bench_instance(desc)
                if (ih, config_hash, seed) in existing:
                    continue
                start = time.monotonic()
                outputs = _bench_outputs(g, cfg, oracle_max_n)
            except (CycleFactorError, OSError) as e:
                errors.append({"instance": desc, "error": str(e)})
                continue
            rec = {
                "instance": desc,
                "instance_hash": ih,
                "config": config,
                "config_hash": config_hash,
                "seed": seed,
                "outputs": outputs,
                "wall_ms": int((time.monotonic() - start) * 1000),
                "version": __version__,
            }
            # Flushed per record, so an interrupted run keeps what it finished.
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            existing.add((ih, config_hash, seed))

    if errors:
        print(json.dumps({"partial_failures": errors}, sort_keys=True), file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclefactor",
        description="Cycle-factors with few cycles: generators, exact verification, samplers, path-factors, and tours.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampler_flags(p):
        p.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
        p.add_argument("--backend", choices=("exact", "mcmc", "auto"), default="auto")
        p.add_argument("--samples", type=int, default=None, help="number of independent draws")
        p.add_argument("--mcmc-steps", type=int, default=None, help="chain burn-in budget (default 5 n^2 d)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("family", choices=FAMILIES + ("random",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-loops", action="store_true")
    p.add_argument("--no-digons", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="exact bound audits on a small instance")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cyclefactor", help="sample a cycle-factor with few cycles")
    p.add_argument("path")
    add_sampler_flags(p)
    p.set_defaults(func=cmd_cyclefactor)

    p = sub.add_parser("pathfactor", help="construct a path-factor of an undirected graph")
    p.add_argument("path")
    add_sampler_flags(p)
    p.set_defaults(func=cmd_pathfactor)

    p = sub.add_parser("tour", help="construct a short tour of a connected graph")
    p.add_argument("path")
    add_sampler_flags(p)
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("bench", help="run a benchmark manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="NDJSON results path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitExceeded as e:
        print(str(e), file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError:  # a backstop: no size rule admits work by memory yet
        print("out of memory", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CycleFactorError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
