"""One workload's op loop, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json`` with the
package's ``src`` directory on ``PYTHONPATH``.

Modes (``plan["mode"]``):

* ``timed``: one client, closed loop over ``plan["rounds"]`` rounds of the
  workload's schedule; each op is one call of
  ``cyclefactor.cli.main(argv)`` and only that call is timed.
* ``traced``: the same loop, but each op runs three times: through
  ``cli.main`` (one ``cli.<subcommand>`` span), then as the decomposed
  sequence of public calls with the tracer off and with it on, in
  alternating order. The decomposed result must equal the CLI's. After
  the loop, ``cyclefactor bench`` is timed with and without
  ``CYCLEFACTOR_THREADS=2``.
* ``replay``: the first slots of round 0 once, for the determinism check.

Every op also records the mean of two calibration samples taken just
before and after it, with which ``run.py`` scales its time.

Uncaught exceptions of an op are recorded by type and never stop the loop.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from calib import calibrate


def call_cli(main, argv):
    """(exit code, name of an escaped exception, last line of stderr)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stderr(buf):
            return main(argv), None, _last_line(buf)
    except (Exception, SystemExit) as e:
        code = e.code if isinstance(e, SystemExit) else None
        return code, type(e).__name__, _last_line(buf)


def _last_line(buf) -> str:
    lines = buf.getvalue().strip().splitlines()
    return lines[-1][:200] if lines else ""


def read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def bench_threads(main, plan, outdir: Path) -> dict:
    """Wall time of ``cyclefactor bench`` on a small fixed manifest with
    CYCLEFACTOR_THREADS unset, divided by the same with it set to 2.
    Three alternating repetitions per setting; medians are compared."""
    manifest = outdir / "bench_manifest.json"
    manifest.write_text(json.dumps({
        "config": {"backend": "mcmc", "samples": 4, "seed": 1},
        "instances": [{"path": p} for p in plan["bench_paths"]],
    }), encoding="utf-8")
    saved = os.environ.pop("CYCLEFACTOR_THREADS", None)
    times: dict[str, list[float]] = {"1": [], "2": []}
    codes = []
    try:
        for rep in range(3):
            for threads in (("1", "2") if rep % 2 == 0 else ("2", "1")):
                if threads == "2":
                    os.environ["CYCLEFACTOR_THREADS"] = "2"
                else:
                    os.environ.pop("CYCLEFACTOR_THREADS", None)
                out = outdir / f"bench_{rep}_{threads}.ndjson"
                gc.collect()
                t = time.perf_counter()
                codes.append(call_cli(main, ["bench", str(manifest), "--out", str(out)]))
                times[threads].append(time.perf_counter() - t)
    finally:
        os.environ.pop("CYCLEFACTOR_THREADS", None)
        if saved is not None:
            os.environ["CYCLEFACTOR_THREADS"] = saved
    return {
        "unset_s": times["1"],
        "threads2_s": times["2"],
        "speedup": statistics.median(times["1"]) / statistics.median(times["2"]),
        "ok": all(c[:2] == (0, None) for c in codes),
    }


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    t0 = time.perf_counter()
    import cyclefactor.cli as cli

    import_s = time.perf_counter() - t0
    if src not in Path(cli.__file__).resolve().parents:
        print(f"cyclefactor imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import decompose

    schedule = workloads.SCHEDULES[plan["workload"]]
    instances = plan["instances"]
    outdir = Path(plan["outdir"])
    mode = plan["mode"]
    traced = mode == "traced"
    tracer = decompose.Tracer(True)
    plain = decompose.Tracer(False)
    ops, decomp = [], []

    def run_op(rnd: int, slot: int) -> None:
        spec, inst = schedule[slot], instances[rnd][slot]
        seed = workloads.op_seed(plan["seed"], rnd, slot)
        out = str(outdir / f"r{rnd:03d}_s{slot:02d}.out")
        argv = workloads.op_argv(spec, inst, seed, out)
        idx = len(ops)
        tracer.op = idx
        # Machine-speed samples just before and after the op (see calib.py).
        calib_s = calibrate()
        # Each CLI invocation normally starts with a fresh heap; collect the
        # previous op's garbage outside the timed region.
        gc.collect()
        if traced:
            with tracer.span("cli." + spec["cmd"]):
                t = time.perf_counter()
                code, err, msg = call_cli(cli.main, argv)
                wall = time.perf_counter() - t
        else:
            t = time.perf_counter()
            code, err, msg = call_cli(cli.main, argv)
            wall = time.perf_counter() - t
        ops.append({"round": rnd, "slot": slot, "argv": argv, "out": out,
                    "exit": code, "error": err, "message": msg, "wall_s": wall,
                    "calib_s": (calib_s + calibrate()) / 2})
        if not traced:
            return
        cli_result = (code, err, read_text(out))
        scratch = str(outdir / "decomposed.out")
        rec = {"op": idx}
        order = (plain, tracer) if idx % 2 == 0 else (tracer, plain)
        for tr in order:
            gc.collect()
            t = time.perf_counter()
            d_code, d_err, d_text, counts = decompose.run(tr, spec, inst, seed, scratch)
            key = "traced_s" if tr is tracer else "plain_s"
            rec[key] = time.perf_counter() - t
            rec["match_" + key[:-2]] = (d_code, d_err, d_text) == cli_result
        rec["counts"] = counts
        decomp.append(rec)

    if mode == "replay":
        for slot in range(min(workloads.REPLAYED_SLOTS, len(schedule))):
            run_op(0, slot)
        loop_s = None
    else:
        start = time.perf_counter()
        for rnd in range(plan["rounds"]):
            for slot in range(len(schedule)):
                run_op(rnd, slot)
        loop_s = time.perf_counter() - start

    result = {
        "import_s": import_s,
        "loop_s": loop_s,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        result["decomp"] = decomp
        result["spans"] = tracer.spans
        result["bench_threads"] = bench_threads(cli.main, plan, outdir)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
