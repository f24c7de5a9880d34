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

# Only what every subcommand needs is imported here; each function
# imports the rest where it runs, so a process loads and compiles only
# the modules of its subcommand (``gen`` needs none of them).
import argparse
import functools
import gc
import math
import os
import sys
import time

from . import __version__
from .errors import BadParameters, CycleFactorError, GraphError, ParseError, SizeLimitExceeded
from .graphs import (
    FAMILIES,
    RegularDigraph,
    UndirectedRegularGraph,
    gen_family,
    gen_random_regular_digraph,
    graph_to_text,
    read_graph,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

ORACLE_MAX_N = 8  # bench reports the exact oracle for n <= ORACLE_MAX_N


def instance_hash(g, as_digraph: bool = False) -> str:
    """The first 16 hex digits of the sha256 of g's text; with as_digraph,
    of its doubled digraph's text: the same rows under a digraph header."""
    import hashlib
    text = graph_to_text(g)
    if as_digraph:
        text = f"digraph {g.n} {g.d}\n" + text.partition("\n")[2]
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write(text: str, out: str | None) -> None:
    """The one writer of a subcommand's result: to out, else to stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write {out}: {e}") from None


def _emit(payload: dict, out: str | None) -> None:
    import json
    _write(json.dumps(payload, sort_keys=True) + "\n", out)


def _load_graph(path: str):
    try:
        return read_graph(path)
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from None
    except (ParseError, GraphError) as e:
        raise BadParameters(f"bad graph file {path}: {e}") from None


def _checked(obj, verify, g, what: str):
    """obj, once ``verify(obj, g)`` passes; else the failed re-validation
    of the construction named what."""
    check = verify(obj, g)
    if not check.ok:
        raise BadParameters(f"{what} failed re-validation: {check.violations}")
    return obj


def _path_fields(g: UndirectedRegularGraph, cycles) -> dict:
    """The fields of the path-factor patched from g's cycles, re-validated."""
    from .transforms import to_path_factor, verify_path_factor
    pf = _checked(to_path_factor(cycles, g), verify_path_factor, g, "path-factor")
    return {"paths": [list(p) for p in pf.paths], "path_count": pf.num_paths}


def _tour_fields(g: UndirectedRegularGraph, cycles) -> dict:
    """The fields of the tour patched from g's cycles, re-validated."""
    from .transforms import to_tour, verify_tour
    tour = _checked(to_tour(cycles, g), verify_tour, g, "tour")
    return {
        "walk": list(tour.walk),
        "length": tour.length,
        "length_bound": g.n + 2 * (len(cycles) - 1),
    }


def _min_factor(g: RegularDigraph, cfg: SamplerConfig) -> MinFactorResult:
    """Min-of-k on g, its best factor re-validated against g."""
    from .sampling import min_cycle_factor
    result = min_cycle_factor(g, cfg)
    if not result.factor.is_factor_of(g):
        raise BadParameters("sampled object failed independent re-validation")
    return result


def _generate(family: str, n: int, d: int, seed, no_loops: bool = False, no_digons: bool = False):
    """The one instance recipe, of ``gen`` and of a bench manifest: a
    random digraph from seed, else the named family."""
    if family == "random":
        if seed is None:
            raise BadParameters("gen random requires --seed")
        return gen_random_regular_digraph(
            n, d, seed, allow_loops=not no_loops, allow_digons=not no_digons
        )
    if no_loops or no_digons:
        raise BadParameters("--no-loops and --no-digons apply only to gen random")
    return gen_family(family, n, d)


def cmd_gen(args) -> int:
    g = _generate(args.family, args.n, args.d, args.seed, args.no_loops, args.no_digons)
    _write(graph_to_text(g), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    import json
    from .entropy import REVEAL_MAX_N, reveal_audit
    from .exact import build_report
    g = _load_graph(args.path)
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


def cmd_sample(args) -> int:
    """Sample a cycle-factor with few cycles and report it, with the fields
    of the construction, if any, that the subcommand binds: ``fields``
    patches the factor's cycles into it, ``construction`` names it. An
    undirected g is sampled as the doubled digraph whose rows it stores,
    and its instance hashed as that digraph."""
    from .exact import cycle_bound
    from .sampling import SamplerConfig
    g = _load_graph(args.path)
    if args.fields is not None and not isinstance(g, UndirectedRegularGraph):
        raise BadParameters(f"{args.construction} construction needs an undirected graph")
    cfg = SamplerConfig(
        backend=args.backend,
        mcmc_steps=args.mcmc_steps,
        num_samples=args.samples,
        seed=args.seed,
    )
    # Refused here, before min-of-k spends any time sampling.
    if args.construction == "tour" and not g.is_connected():
        raise BadParameters("tour construction needs a connected graph")
    result = _min_factor(g, cfg)
    payload = {
        "instance_hash": instance_hash(g, as_digraph=True),
        "seed": args.seed,
        "backend": result.backend,
        "steps": cfg.resolve_steps(g) if result.backend == "mcmc" else 0,
        "cycle_counts": list(result.cycle_counts),
        "cycle_bound": cycle_bound(g.n, g.d),
        "cycle_count": result.best_count,
        "sigma": list(result.factor.sigma),
        "cycles": [list(c) for c in result.factor.cycles],
    }
    if args.fields is not None:
        payload.update(args.fields(g, result.factor.cycles))
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
        g = _generate(desc["family"], desc["n"], desc["d"], desc.get("seed"))
    return instance_hash(g), g


def _bench_outputs(g, cfg: SamplerConfig) -> dict:
    import json
    from .exact import build_report
    outputs: dict = {}
    if g.n <= ORACLE_MAX_N:
        outputs["oracle"] = json.loads(build_report(g).to_json())
    result = _min_factor(g, cfg)
    outputs["cycle_counts"] = list(result.cycle_counts)
    outputs["min_cycles"] = result.best_count
    outputs["backend"] = result.backend
    if isinstance(g, UndirectedRegularGraph):
        cycles = result.factor.cycles
        outputs["path_count"] = _path_fields(g, cycles)["path_count"]
        if g.is_connected():
            outputs["tour_length"] = _tour_fields(g, cycles)["length"]
    return outputs


def _existing_keys(out_path: str) -> set:
    """Keys of the complete records already in the results file.

    Only a newline ends a line, as in a graph file. A last line without
    its newline is what an interrupted append leaves: it is cut off, so
    the next record starts on a fresh line and that instance runs again."""
    import json
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return set()
    except OSError as e:
        raise OSError(f"cannot read results: {e}") from None
    *lines, torn = data.split(b"\n")
    keys = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            keys.add((rec["instance_hash"], rec["config_hash"], rec["seed"]))
        except (ValueError, KeyError, TypeError) as e:
            raise BadParameters(f"bad results file {out_path}, line {lineno}: {e}") from None
    if torn:
        with open(out_path, "r+b") as fh:
            fh.truncate(len(data) - len(torn))
    return keys


def cmd_bench(args) -> int:
    import hashlib
    import json
    from .sampling import SamplerConfig
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
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
    unknown = sorted(set(config) - {"backend", "samples", "mcmc_steps", "seed"})
    if unknown:
        raise BadParameters(f"bad manifest: unknown config key(s) {', '.join(unknown)}")
    try:  # settings the manifest leaves out take SamplerConfig's defaults
        cfg = SamplerConfig(**{"num_samples" if k == "samples" else k: v for k, v in config.items()})
    except BadParameters as e:
        raise BadParameters(f"bad manifest: {e}") from None
    out_path = args.out or "bench_results.ndjson"
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]

    existing = _existing_keys(out_path)
    seed = cfg.seed
    errors = []
    try:
        fh = open(out_path, "a", encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write results: {e}") from None
    with fh:
        for desc in instances:
            try:
                ih, g = _bench_instance(desc)
                if (ih, config_hash, seed) in existing:
                    continue
                start = time.monotonic()
                outputs = _bench_outputs(g, cfg)
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


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, at the width argparse would choose,
    found without importing ``shutil``: argparse imports it to ask the
    terminal size, and it loads 11 modules (``bz2``, ``lzma``, ``zlib``,
    ``fnmatch`` among them) that no subcommand uses. argparse builds it
    as ``formatter_class(prog=...)``."""

    def __init__(self, prog):
        super().__init__(prog, width=_terminal_columns() - 2)


def _terminal_columns() -> int:
    """``shutil.get_terminal_size().columns``: COLUMNS if it is a positive
    integer, else the width of the terminal on stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: its arguments take ~1.7 ms to add, each through a help formatter
    that reads the terminal width. Parsing reads it and never changes it,
    so one ``main`` call does not leak into the next."""
    parser = argparse.ArgumentParser(
        prog="cyclefactor",
        description="Cycle-factors with few cycles: generators, exact verification, samplers, path-factors, and tours.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file", formatter_class=_HelpFormatter)
    p.add_argument("family", choices=FAMILIES + ("random",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-loops", action="store_true")
    p.add_argument("--no-digons", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="exact bound audits on a small instance", formatter_class=_HelpFormatter)
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    # The sampling subcommands differ only in the construction they bind.
    for name, help_text, construction, fields in (
        ("cyclefactor", "sample a cycle-factor with few cycles", None, None),
        ("pathfactor", "construct a path-factor of an undirected graph", "path-factor", _path_fields),
        ("tour", "construct a short tour of a connected graph", "tour", _tour_fields),
    ):
        p = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        p.add_argument("path")
        p.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
        p.add_argument("--backend", choices=("exact", "mcmc", "auto"), default="auto")
        p.add_argument("--samples", type=int, default=None, help="number of independent draws")
        p.add_argument("--mcmc-steps", type=int, default=None, help="chain burn-in budget (default 20 n d ceil(log2 n))")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=cmd_sample, construction=construction, fields=fields)

    p = sub.add_parser("bench", help="run a benchmark manifest", formatter_class=_HelpFormatter)
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="NDJSON results path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The cyclic collector is off while a subcommand runs. No subcommand
    # makes a reference cycle, so reference counting frees everything, and
    # the collector's passes (2-9 % of a tour or path-factor on 1,000 to
    # 8,000 vertices) find nothing; test_main_leaves_no_cycles in
    # tests/test_cli.py checks that none is left.
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
