#!/usr/bin/env python3
"""Alternating before/after runs of one perfbench workload.

Usage, from any directory:

    python3 benchmarks/pairs.py --before DIR --after DIR --workload NAME \\
        --seeds 901 902 ... --label TEXT [--seconds 10]

For each seed, ``perfbench/run.py`` runs once in each checkout; the before
side goes first on even positions and the after side on odd ones.  Then
``TRACED_RUNS`` traced pairs, on the first seeds (cycled) and alternating
the same way, give the per-layer metrics.  The entry is appended to
``BENCH_<workload>.json`` beside this script: each side's median and
quartiles of every end-to-end metric, the pairs the after side won (lower;
ties count for neither side), and each side's traced runs and their median
per metric, which name the layer that moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# Traced runs per side; one traced run is a single sample of each layer.
TRACED_RUNS = 3


def run(root: Path, workload: str, seed: int, seconds: float, trace: int):
    """(backend, {metric: value}) of one correct run; exits on any other."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    doc = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
    if not doc.get("correct"):
        sys.exit(f"{root} seed {seed}: run failed\n{out.stdout}{out.stderr}")
    env = next(line for line in lines if line.startswith("env "))
    backend = env.split("backend=")[1].split()[0]
    return backend, {k: m["value"] for k, m in doc["metrics"].items()}


def summarize(before: list[dict], after: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the after wins."""
    def spread(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3, "runs": values}
    return {k: {"before": spread([b[k] for b in before]),
                "after": spread([a[k] for a in after]),
                "wins": sum(a[k] < b[k] for b, a in zip(before, after))}
            for k in METRICS}


def summarize_traced(before: list[dict], after: list[dict]) -> dict:
    """Per side and metric: the traced runs and their median."""
    def layers(runs):
        return {k: {"median": statistics.median(r[k] for r in runs),
                    "runs": [r[k] for r in runs]} for k in runs[0]}
    return {"before": layers(before), "after": layers(after)}


def alternated(sides: dict, i: int) -> list:
    """The sides in run order at position ``i``: before first when even."""
    return list(sides)[::1 if i % 2 == 0 else -1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    sides = {"before": args.before, "after": args.after}
    runs, backends = {"before": [], "after": []}, set()
    for i, seed in enumerate(args.seeds):
        for side in alternated(sides, i):
            backend, metrics = run(sides[side], args.workload, seed,
                                   args.seconds, 0)
            backends.add(backend)
            runs[side].append(metrics)
    traced = {"before": [], "after": []}
    for i in range(TRACED_RUNS):
        for side in alternated(sides, i):
            traced[side].append(run(sides[side], args.workload,
                                    args.seeds[i % len(args.seeds)],
                                    args.seconds, 1)[1])
    entry = {"label": args.label, "backend": ",".join(sorted(backends)),
             "seconds": args.seconds, "seeds": args.seeds,
             **summarize(runs["before"], runs["after"]),
             "traced": summarize_traced(traced["before"], traced["after"])}
    path = HERE / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    print(json.dumps({k: entry[k] for k in ("label", *METRICS)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
