"""cyclefactor benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mcmc_sample --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For one workload the run

1. writes the workload's inputs, generated from ``--seed`` by the
   benchmark's own generator (``workloads.py``), under ``.perfbench_work/``;
2. times the import of ``cyclefactor.cli`` in seven fresh processes
   (``setup_s`` is their median);
3. runs the op loop in one fresh worker process (``worker.py``): one
   client, closed loop, ``cyclefactor.cli.main(argv)`` in-process, over a
   number of rounds of the schedule fixed by ``--seconds`` (a run lasts
   about ``--seconds`` on the reference machine; see ``workloads.rounds``);
4. checks every output with the independent checker (``check.py``),
   outside the timed region;
5. with ``--trace 0``, replays the first ops of round 0 in a second fresh
   worker and requires byte-identical op records (exit, exception, output);
   with ``--trace 1``, requires each decomposed op to equal the CLI's output
   and derives the per-layer metrics from the spans;
6. prints a summary, one ``{"detail": ...}`` JSON line (machine, instances,
   failures by type, tail percentile, raw times, layer shares) and, last,
   the result ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are in seconds at the reference machine speed: each op's
wall time, and each import time, is multiplied by ``calib.REFERENCE_S``
over a calibration sample taken next to it in the same process (see
``calib.py``). The unscaled figures are in the detail line as
``raw_metrics``. Per-layer times are raw.

``correct`` is false when an output fails its check, when the replay is
not identical, or when a decomposed op differs from the CLI. An op that
exits non-zero or raises is counted in ``failed`` and does not make the
run incorrect: such failures are part of what the benchmark measures.

The package is imported from ``src/`` next to this directory; the run
exits with code 2, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import calib
import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MODULES = ("cli", "graphs", "exact", "sampling", "transforms", "entropy")
TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(HERE)
    return env


def setup_samples() -> list[tuple[float, float]]:
    """(import time of cyclefactor.cli, calibration time) in fresh processes."""
    code = ("import time, calib; c = calib.calibrate(); t = time.perf_counter(); "
            "import cyclefactor.cli; d = time.perf_counter() - t; "
            "print(d, (c + calib.calibrate()) / 2)")
    out = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        d, c = map(float, res.stdout.split())
        out.append((d, c))
    return out


def run_worker(plan: dict, workdir: Path, name: str) -> dict:
    plan_path, result_path = workdir / f"{name}_plan.json", workdir / f"{name}_result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    log = workdir / f"{name}.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                              cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT,
                              timeout=TIMEOUT_S)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"{name} worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "CYCLEFACTOR_THREADS_set": "CYCLEFACTOR_THREADS" in os.environ,
    }


def failure_kind(op: dict) -> str | None:
    """The escaped exception's type, or the exit code with the CLI's
    message (numbers masked, so equal failures group across seeds)."""
    if op["error"] is not None:
        return op["error"]
    if op["exit"] != 0:
        return f"exit {op['exit']}: " + re.sub(r"\d+", "#", op["message"])[:80]
    return None


def check_ops(ops, schedule, instances) -> tuple[dict, list[str]]:
    """Per-op failure kind (None when the op succeeded and its output
    checks), and the list of output violations."""
    refs: dict = {}
    kinds, violations = {}, []
    for i, op in enumerate(ops):
        kind = failure_kind(op)
        if kind is None:
            bad = check.check_op(op, schedule[op["slot"]], instances[op["round"]][op["slot"]], refs)
            if bad:
                kind = "CheckFailed"
                violations.append(f"op {i} ({op['argv'][0]} slot {op['slot']}): {'; '.join(bad)}")
        kinds[i] = kind
    return kinds, violations


def op_record(op: dict) -> str:
    """An op as canonical JSON without wall-clock fields or output paths."""
    out = Path(op["out"])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    argv = [a if a != op["out"] else "OUT" for a in op["argv"]]
    return json.dumps({"argv": argv, "exit": op["exit"], "error": op["error"],
                       "message": op["message"], "output": text},
                      sort_keys=True)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    ops beyond it: the order statistic t[N-11]. Below 11 ops no such
    percentile exists and the fastest op is reported at percentile 0."""
    t = sorted(times)
    if len(t) < 11:
        return t[0], 0.0
    return t[-11], 100.0 * (len(t) - 10) / len(t)


def cycles_ratio(ops, kinds, schedule, instances) -> float | None:
    """Mean over successful sampling ops of best cycles / 4(n/d)(log2 d + 1)."""
    vals = []
    for i, op in enumerate(ops):
        if kinds[i] is None and schedule[op["slot"]]["cmd"] in ("cyclefactor", "pathfactor", "tour"):
            inst = instances[op["round"]][op["slot"]]
            c = json.loads(Path(op["out"]).read_text(encoding="utf-8"))["cycle_count"]
            vals.append(c / (4.0 * inst["n"] / inst["d"] * (math.log2(inst["d"]) + 1.0)))
    return sum(vals) / len(vals) if vals else None


def layer_metrics(res: dict, n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics and module shares of op time from a traced run."""
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    layer_ns = 0
    cli_ns = 0
    module_ns = dict.fromkeys(MODULES, 0)
    for op, _id, _parent, name, start, end, probe in res["spans"]:
        dur = end - start
        total[name] = total.get(name, 0) + dur
        calls[name] = calls.get(name, 0) + 1
        mod = name.split(".", 1)[0]
        if mod == "cli":
            cli_ns += dur
        elif mod in module_ns and not probe:
            module_ns[mod] += dur
            layer_ns += dur
    module_ns["cli"] = cli_ns - layer_ns
    counts: dict[str, int] = {}
    for rec in res["decomp"]:
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def per_op_ms(*names):
        return sum(total.get(n, 0) for n in names) / 1e6 / n_ops

    def per_call(name, scale):
        return total.get(name, 0) / scale / calls[name] if calls.get(name) else 0.0

    mcmc_steps = counts.get("mcmc_steps", 0)
    gen_random = counts.get("gen_random", 0)
    tours = sum(1 for r in res["decomp"] if "tour_excess" in r["counts"])
    builds = calls.get("sampling.exact_build", 0)
    reports = calls.get("exact.build_report", 0)
    plain = sum(r["plain_s"] for r in res["decomp"])
    traced = sum(r["traced_s"] for r in res["decomp"])
    m = {
        "sampling.mcmc_ns_per_step": total.get("sampling.mcmc_draw", 0) / mcmc_steps if mcmc_steps else 0.0,
        "sampling.mcmc_draw_ms": per_call("sampling.mcmc_draw", 1e6),
        "sampling.mcmc_steps_per_op": mcmc_steps / n_ops,
        "sampling.draws_per_op": counts.get("draws", 0) / n_ops,
        "sampling.exact_build_ms": per_op_ms("sampling.exact_build"),
        "sampling.exact_states": counts.get("exact_states", 0) / builds if builds else 0.0,
        "sampling.exact_draw_us": per_call("sampling.exact_draw", 1e3),
        "sampling.hopcroft_karp_ms": per_op_ms("sampling.hopcroft_karp"),
        "sampling.mcmc_build_ms": per_op_ms("sampling.mcmc_build"),
        "exact.permanent_ms": per_op_ms("exact.permanent"),
        "exact.build_report_self_ms": per_op_ms("exact.build_report") - per_op_ms("exact.permanent"),
        "exact.factors_enumerated": counts.get("factors", 0) / reports if reports else 0.0,
        "entropy.reveal_audit_ms": per_op_ms("entropy.reveal_audit"),
        "graphs.read_graph_ms": per_op_ms("graphs.read_graph"),
        "graphs.require_valid_ms": per_op_ms("graphs.require_valid"),
        "graphs.double_undirected_ms": per_op_ms("graphs.double_undirected"),
        "graphs.gen_random_ms": per_op_ms("graphs.gen_random"),
        "graphs.gen_family_ms": per_op_ms("graphs.gen_family"),
        "graphs.write_graph_ms": per_op_ms("graphs.write_graph"),
        "graphs.gen_fallback_ratio": counts.get("gen_fallback", 0) / gen_random if gen_random else 0.0,
        "transforms.undirected_ms": per_op_ms("transforms.undirected"),
        "transforms.path_factor_ms": per_op_ms("transforms.path_factor"),
        "transforms.tour_ms": per_op_ms("transforms.tour"),
        "transforms.verify_ms": per_op_ms("transforms.verify"),
        "transforms.tour_excess": counts.get("tour_excess", 0) / tours if tours else 0.0,
        "cli.self_ms": module_ns["cli"] / 1e6 / n_ops,
        "cli.bench_threads2_speedup": res["bench_threads"]["speedup"],
        "trace.overhead_ratio": traced / plain - 1.0,
    }
    shares = {mod: ns / cli_ns for mod, ns in module_ns.items()}
    return m, shares


UNITS_E2E = {"setup_s": "s", "ops_per_s": "ops/s", "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(args) -> int:
    if not (SRC / "cyclefactor" / "cli.py").is_file():
        print(f"no package source at {SRC / 'cyclefactor'}; run from a source checkout",
              file=sys.stderr)
        return 2
    schedule = workloads.SCHEDULES[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    traced = args.trace == 1
    try:
        (workdir / "inputs").mkdir(parents=True)
        (workdir / "out").mkdir()
        n_rounds = workloads.rounds(args.workload, args.seconds, traced)
        instances = workloads.make_instances(args.workload, args.seed, n_rounds, workdir / "inputs")
        bench_paths = []
        if traced:
            for j in range(4):
                rows = workloads.perm_union(30, 3, workloads.mix_seed(args.seed, 100 + j))
                text = workloads.graph_text(True, 30, 3, rows)
                p = workdir / f"bench{j}.digraph"
                p.write_text(text, encoding="utf-8")
                bench_paths.append(str(p))
        setup = setup_samples()
        plan = {
            "mode": "traced" if traced else "timed",
            "workload": args.workload,
            "seed": args.seed,
            "rounds": n_rounds,
            "src": str(SRC),
            "outdir": str(workdir / "out"),
            "instances": [[None if i is None else {k: i[k] for k in ("path", "n", "d")} for i in row]
                          for row in instances],
            "bench_paths": bench_paths,
        }
        res = run_worker(plan, workdir, "run")
        ops = res["ops"]
        kinds, violations = check_ops(ops, schedule, instances)
        problems = list(violations)

        if traced:
            mism = [r["op"] for r in res["decomp"] if not (r["match_plain"] and r["match_traced"])]
            if mism:
                problems.append(f"decomposed ops differ from the CLI output: ops {mism[:10]}")
            if not res["bench_threads"]["ok"]:
                problems.append("cyclefactor bench failed in the thread measurement")
        else:
            (workdir / "replay").mkdir()
            replay = run_worker(dict(plan, mode="replay", outdir=str(workdir / "replay")), workdir, "replay")
            first = {(op["round"], op["slot"]): op for op in ops}
            for op in replay["ops"]:
                if op_record(op) != op_record(first[(op["round"], op["slot"])]):
                    problems.append(f"replay of slot {op['slot']} differs from the timed run")

        n_ops = len(ops)
        failed = sum(1 for k in kinds.values() if k is not None)
        times = [op["wall_s"] for op in ops]
        tail_s, tail_pct = tail(times)
        failures: dict[str, int] = {}
        for i, k in kinds.items():
            if k is not None:
                key = f"{ops[i]['argv'][0]} slot {ops[i]['slot']}: {k}"
                failures[key] = failures.get(key, 0) + 1
        ratio = cycles_ratio(ops, kinds, schedule, instances)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "ops": n_ops,
            "rounds": n_rounds,
            "loop_s": res["loop_s"],
            "failed_ratio": failed / n_ops,
            "failures": failures,
            "problems": problems[:20],
            "cycles_ratio": ratio,
            "op_s_tail_percentile": tail_pct,
            "setup_samples_s": setup,
            "worker_import_s": res["import_s"],
            "environment": environment(),
            "instances": [[None if i is None else {k: v for k, v in i.items() if k not in ("rows", "path")}
                           for i in row] for row in instances],
        }
        if traced:
            metrics, shares = layer_metrics(res, n_ops)
            metrics["sampling.cycles_ratio"] = ratio or 0.0
            detail["layer_shares"] = shares
            detail["top_layer"] = max(shares, key=shares.get)
            detail["bench_threads"] = res["bench_threads"]
            units = per_layer_units()
        else:
            raw = {
                "setup_s": statistics.median(d for d, _ in setup),
                "ops_per_s": (n_ops - failed) / sum(times),
                "op_s_p50": statistics.median(times),
                "op_s_tail": tail_s,
                "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            }
            scaled = [op["wall_s"] * calib.REFERENCE_S / op["calib_s"] for op in ops]
            metrics = {
                "setup_s": statistics.median(d * calib.REFERENCE_S / c for d, c in setup),
                "ops_per_s": (n_ops - failed) / sum(scaled),
                "op_s_p50": statistics.median(scaled),
                "op_s_tail": tail(scaled)[0],
                "peak_rss_mb": raw["peak_rss_mb"],
            }
            detail["raw_metrics"] = raw
            detail["op_wall_calib_s"] = [[round(op["wall_s"], 7), round(op["calib_s"], 7)] for op in ops]
            units = UNITS_E2E
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"workload {args.workload}: {n_ops} ops in {detail['rounds']} rounds, "
          f"{failed} failed ({failed / n_ops:.3f}), tail = p{tail_pct:.1f}")
    for k, v in sorted(failures.items()):
        print(f"  failure  {k} x{v}")
    for p in problems[:20]:
        print(f"  PROBLEM  {p}")
    if ratio is not None:
        print(f"  cycles_ratio {ratio:.6f}")
    if traced:
        print("  layer shares of op time: " + ", ".join(
            f"{m} {s:.3f}" for m, s in sorted(detail["layer_shares"].items(), key=lambda x: -x[1])))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": n_ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of results."""
    combined = {}
    for name in workloads.SCHEDULES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=2 * TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        combined[name] = dict(json.loads(lines[-1]), detail=json.loads(lines[-2])["detail"])
    for name, r in combined.items():
        d = r["detail"]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"failed_ratio={d['failed_ratio']:.4f} cycles_ratio={d['cycles_ratio']} "
              f"tail=p{d['op_s_tail_percentile']:.1f}")
        if "top_layer" in d:
            print(f"  largest share of op time: {d['top_layer']} ({d['layer_shares'][d['top_layer']]:.3f})")
        for k, m in r["metrics"].items():
            print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"workloads": {k: {kk: v for kk, v in r.items() if kk != "detail"}
                                    for k, r in combined.items()}}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.SCHEDULES) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
