"""Run-to-run spread of the benchmark over several seeds.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workloads mcmc_sample generate --seeds 1-10 \
        --seconds 20 [--out spread.json]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and prints
for every metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``. With ``--out`` the
per-run results and the summary are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    p = argparse.ArgumentParser(description="median and quartile spread over seeds")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    report = {}
    for w in args.workloads:
        runs = []
        for s in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(s),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
                return 1
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            runs.append({"seed": s, "result": result, "detail": detail})
            print(f"{w} seed {s}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {k: summarize([r["result"]["metrics"][k]["value"] for r in runs]) for k in names}
        for k, s in summary.items():
            bound = bounds.get(k)
            print(f"  {w:13s} {k:32s} median {s['median']:.6g}  spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  + (f"  bound {bound}" if bound is not None else ""))
        report[w] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
