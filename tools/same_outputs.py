"""Check that two source trees give the same CLI output on every benchmark op.

Writes the four perfbench workloads' instances (20-second untimed rounds at
``--seed``) once to a temporary directory, runs every op through
``cyclefactor.cli.main`` under OLD_SRC and NEW_SRC, each in its own process,
and prints the ops whose exit code, stdout, stderr or ``--out`` bytes differ.
Where the ``--out`` bytes differ and both parse as JSON, it also prints each
differing leaf as ``path: old -> new``. It ends with one ``W: x of y ops
differ`` line per workload W, then the total over all of them.

    python tools/same_outputs.py OLD_SRC NEW_SRC [--seed 1]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CHILD = r"""import contextlib, hashlib, io, json, os, sys
from pathlib import Path
import cyclefactor.cli as cli
src, ops_file, outs = sys.argv[1:]
if not os.path.realpath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"cyclefactor imported from {cli.__file__}, not from {src}")
for i, argv in enumerate(json.loads(Path(ops_file).read_text())):
    out = os.path.join(outs, str(i))
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = cli.main([out if a == "{out}" else a for a in argv])
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = "raised " + type(e).__name__
    data = Path(out).read_bytes() if os.path.exists(out) else b"(none)"
    fields = (so.getvalue().encode(), se.getvalue().encode(), data)
    print(json.dumps([code] + [hashlib.sha256(b).hexdigest() for b in fields]))
"""
FIELDS = ("exit code", "stdout", "stderr", "--out bytes")
MISSING = object()


def run_tree(src: str, work: Path, outs: Path) -> list:
    """Each op's [exit code, stdout, stderr, --out] hashes; op i writes outs/i."""
    src = os.path.realpath(src)
    outs.mkdir()
    proc = subprocess.run([sys.executable, "-c", CHILD, src, str(work / "ops.json"), str(outs)],
                          cwd=work, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def leaf_diffs(a, b, path=""):
    """'path: old -> new' for every leaf where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            yield from leaf_diffs(a.get(k, MISSING), b.get(k, MISSING), f"{path}.{k}" if path else k)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from leaf_diffs(a[i] if i < len(a) else MISSING, b[i] if i < len(b) else MISSING, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        a, b = ("(none)" if x is MISSING else json.dumps(x) for x in (a, b))
        yield f"{path or '(top)'}: {a} -> {b}"


def out_json(path: Path):
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    labels, ops, op_workload = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for w, schedule in workloads.SCHEDULES.items():
            (work / w).mkdir()
            n_rounds = workloads.rounds(w, 20, False)
            instances = workloads.make_instances(w, args.seed, n_rounds, work / w)
            for rnd in range(n_rounds):
                for slot, spec in enumerate(schedule):
                    seed = workloads.op_seed(args.seed, rnd, slot)
                    ops.append(workloads.op_argv(spec, instances[rnd][slot], seed, "{out}"))
                    labels.append(f"{w} round {rnd} slot {slot} ({spec['cmd']})")
                    op_workload.append(w)
        (work / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
        old, new = (run_tree(src, work, work / tag) for src, tag in ((args.old_src, "old"), (args.new_src, "new")))
        differ = [(i, a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]
        for i, a, b in differ:
            print(f"{labels[i]}: {', '.join(f for f, x, y in zip(FIELDS, a, b) if x != y)} differ")
            if a[3] != b[3]:
                before, after = (out_json(work / tag / str(i)) for tag in ("old", "new"))
                if before is not None and after is not None:
                    for line in leaf_diffs(before, after):
                        print("    " + line)
    for w in workloads.SCHEDULES:
        differ_w = sum(op_workload[i] == w for i, _, _ in differ)
        print(f"{w}: {differ_w} of {op_workload.count(w)} ops differ")
    print(f"{len(differ)} of {len(ops)} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
