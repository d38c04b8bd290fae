"""One fresh process per workload: set up, then time passes of the workload.

Started by run.py, never by hand.  Protocol on stdout: a line ``READY``
as soon as the package is imported and the seeded inputs are written
(the parent times process start to this line as set-up), then, unless
``--setup-only``, one line ``RESULT <json>``.  With ``--trace 1`` every
pass runs under the span recorders of tracing.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import (WORKLOADS, check_pass, expected_outputs, make_inputs,
                       ops_per_pass, run_pass)

MAX_REPORTED_PROBLEMS = 5


def import_program(root: Path):
    """Import holoscreen from the checkout's own ``src``, nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import holoscreen
    import holoscreen.cli  # noqa: F401  (the CLI module the passes call)

    if src not in Path(holoscreen.__file__).resolve().parents:
        raise SystemExit(f"holoscreen imported from {holoscreen.__file__}, "
                         f"not from {src}")
    return holoscreen


def environment(holoscreen) -> dict:
    import numpy
    import sympy

    return {"backend": holoscreen.BACKEND_NAME,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def time_passes(workload, inputs, expected, work, seconds):
    """Run passes until ``seconds`` have gone by (at least one pass).

    Returns (per-pass seconds, operations attempted, failure messages).
    """
    times, problems, attempted = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        try:
            outputs = run_pass(workload, inputs, work)
        except Exception as exc:  # a crash fails every call of the pass
            outputs = None
            failed = [f"pass raised {type(exc).__name__}: {exc}"]
            failed *= ops_per_pass(workload)
        times.append(time.perf_counter() - start)
        if outputs is not None:
            failed = check_pass(workload, inputs, outputs, expected, work)
        attempted += ops_per_pass(workload)
        problems += failed
        if time.perf_counter() >= deadline:
            return times, attempted, problems


def compare_backends(holoscreen, corpus: str) -> tuple[list[str], list[str]]:
    """Compiled vs pure kernel on the same bases: (report lines, problems),
    with at most one problem, since the comparison is one operation."""
    from holoscreen._kernel import pure
    from holoscreen.corpus import load_manifest
    from holoscreen.holomorph import enumerate_regular_subgroups, holomorph

    if not holoscreen.HAVE_COMPILED:
        return ["compiled: unavailable (pure kernel only; not compared)"], []
    seconds = {"pure": 0.0, "compiled": 0.0}
    differ = []
    for record in load_manifest(corpus).records:
        if not record.is_solvable():
            continue
        hol = holomorph(record.table)
        found = {}
        for label, backend in (("pure", pure), ("compiled", None)):
            start = time.perf_counter()
            found[label] = enumerate_regular_subgroups(hol, backend=backend)
            seconds[label] += time.perf_counter() - start
        a, b = found["pure"], found["compiled"]
        if ([r.codes for r in a.records] != [r.codes for r in b.records]
                or a.nodes != b.nodes):
            differ.append(record.name)
    line = (f"compiled vs pure kernel search: {seconds['compiled']:.3f} s vs "
            f"{seconds['pure']:.3f} s, "
            + (f"outputs differ on {differ}" if differ else "identical outputs"))
    return [line], [line] if differ else []


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    holoscreen = import_program(args.root)
    inputs = make_inputs(args.workload, args.seed, args.root, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    expected = expected_outputs(args.workload, inputs, args.root)
    result = {"env": environment(holoscreen), "notes": []}
    if not args.trace:
        times, attempted, problems = time_passes(
            args.workload, inputs, expected, args.work, args.seconds)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (own + kids) / 1024.0
    else:
        import tracing

        spill = args.work / "spans"
        spill.mkdir()
        tracer = tracing.Tracer(spill)
        tracer.install()
        try:
            times, attempted, problems = time_passes(
                args.workload, inputs, expected, args.work, args.seconds)
        finally:
            tracer.restore()
        spans = tracer.collect()
        result["layers"] = tracing.layer_values(spans, len(times))
        missing = tracing.missing_spans(args.workload, spans, len(times))
        if args.workload == "screen-corpora":
            load = sys.modules["holoscreen.corpus"].load_manifest
            screened = len(times) * sum(
                r.is_solvable() for c in inputs["corpora"]
                for r in load(c).records)
            got = tracing.SpanIndex(spans).calls("screening.trace_one")
            if got != screened:
                missing.append(f"screening.trace_one ({got} of {screened} "
                               "calls; pool workers not traced?)")
        attempted += 1
        if missing:
            problems.append("trace recorded no calls for: " + ", ".join(missing))
        if args.workload == "direct-o60":
            lines, failed = compare_backends(holoscreen, inputs["corpus"])
            result["notes"] += lines
            problems += failed
            attempted += int(holoscreen.HAVE_COMPILED)
    result["wall_s"] = statistics.median(times)
    result["passes"] = len(times)
    result["attempted"] = attempted
    result["failed"] = len(problems)
    result["problems"] = problems[:MAX_REPORTED_PROBLEMS]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
