#!/usr/bin/env python3
"""Benchmark of holoscreen: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):
``direct-o60``, ``wide-aut``, ``screen-corpora`` and ``numtheory``.  Each
run starts the workload in fresh Python processes that import holoscreen
from this checkout's ``src``, generate the seeded inputs, and time whole
passes of the workload until S seconds have gone by (at least one pass).
Every pass is checked against frozen references; a mismatch makes the
run print ``"correct": false`` and exit 1.

With ``--trace 0`` the run reports the end-to-end metrics, with tracing
off.  With ``--trace 1`` it times untraced passes in one process and the
same passes in another, with span recorders around each module's public
functions, and reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import CAP_PROBE, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 3  # set-up is the median over this many process launches
RUN_DEADLINE_S = 170.0
PROBE_WALL_S = 3.0
PROBE_ADDRESS_SPACE = 1 << 30


class BenchError(Exception):
    pass


def _limit_probe() -> None:
    """Runs in the probe child only, before exec."""
    resource.setrlimit(resource.RLIMIT_AS,
                       (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))


def _stop(proc: subprocess.Popen) -> None:
    """Kill a worker and everything it started, then reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def launch(args, root: Path, work: Path, env: dict, deadline: float,
           trace: int, setup_only: bool = False) -> tuple[float, dict | None]:
    """Start one worker; return (seconds to READY, parsed RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--work", str(work), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        if first.strip() != "READY":
            raise BenchError(f"worker failed before set-up finished: "
                             f"{first.strip()!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the run deadline")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return ready, None
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    return ready, json.loads(lines[-1][len("RESULT "):])


def cap_probe(root: Path, env: dict) -> tuple[bool, str]:
    """``group regulars`` on CAP_PROBE with a wall and an address-space limit.

    It passes only by exiting 1 or 3 (a cap or an error the CLI reports)
    within the limit.  Today it runs out the clock (ROADMAP item 4).
    """
    cmd = [sys.executable, "-m", "holoscreen.cli", "group", "regulars",
           CAP_PROBE]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROBE_WALL_S, preexec_fn=_limit_probe)
    except subprocess.TimeoutExpired:
        return False, f"no exit within {PROBE_WALL_S:.1f} s"
    took = time.perf_counter() - start
    if proc.returncode in (1, 3) and "Traceback" not in proc.stderr:
        return True, f"exit {proc.returncode} in {took:.2f} s"
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return False, f"exit {proc.returncode} in {took:.2f} s {last[0]}"


def measure(args, root: Path, work: Path) -> tuple[dict, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    if args.trace:
        # Untraced and traced passes each get a fresh process, so that the
        # difference between them is the tracing overhead alone.
        _, untraced = launch(args, root, work / "untraced", env, deadline,
                             trace=0)
    else:
        for i in range(SETUP_LAUNCHES - 1):
            ready, _ = launch(args, root, work / f"setup-{i}", env, deadline,
                              trace=0, setup_only=True)
            setups.append(ready)
    ready, result = launch(args, root, work / "run", env, deadline,
                           trace=args.trace)
    setups.append(ready)
    if args.trace:
        for key in ("attempted", "failed"):
            result[key] += untraced[key]
        result["problems"] += untraced["problems"]

    e = result["env"]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
             f"env backend={e['backend']} python={e['python']} "
             f"numpy={e['numpy']} sympy={e['sympy']} nproc={e['nproc']}"]
    lines += result["notes"]
    attempted, failed = result["attempted"], result["failed"]
    lines += [f"problem: {p}" for p in result["problems"]]
    lines.append(f"fail_frac {failed / attempted:.4f} "
                 f"({failed} of {attempted} operations)")
    if args.workload == "wide-aut":
        ok, detail = cap_probe(root, env)
        lines.append(f"cap_probe {CAP_PROBE}: {'ok' if ok else 'FAILED'}, "
                     f"{detail}; kept out of wall_s, peak_rss_mb and the "
                     f"counts above; fail_frac with the probe "
                     f"{(failed + (not ok)) / (attempted + 1):.4f}")

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        metrics["trace.wall_s"] = {"value": result["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": result["wall_s"] - untraced["wall_s"], "unit": "s"}
        lines.append(f"untraced wall_s {untraced['wall_s']:.4f} s over "
                     f"{untraced['passes']} passes; traced over "
                     f"{result['passes']}")
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(f"passes {result['passes']}, set-up launches "
                     f"{len(setups)}")
    for name, metric in metrics.items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    return doc, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = HERE.parent
    for needed in (root / "src" / "holoscreen" / "__init__.py",
                   root / "corpora" / "o60" / "index.txt"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(root)} is missing; run from "
                  "the root of a holoscreen checkout", file=sys.stderr)
            return 2
    scratch = root / ".perfbench-work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        doc, lines = measure(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
