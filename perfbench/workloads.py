"""The four benchmark workloads: seeded inputs, one timed pass, frozen checks.

Nothing here imports holoscreen at module level.  Input generation only
copies corpus files and draws numbers, so the self-tests run without the
package; the pass functions reach the program through ``sys.modules`` at
call time, which is where the tracer patches it.
"""

from __future__ import annotations

import io
import json
import random
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("direct-o60", "wide-aut", "screen-corpora", "numtheory")

# Regular-subgroup counts over each solvable base of order 60, as frozen in
# tests/test_acceptance.py: name -> (subgroups, isomorphism classes).
DIRECT_60 = {
    "c60": (24, 11), "c30xc2": (42, 12), "d60": (896, 11),
    "s3xd10": (640, 5), "s3xc10": (112, 11), "d10xc6": (192, 11),
    "a4xc5": (138, 6), "f20xc3": (64, 6), "c15sc4": (256, 6),
    "dic15": (896, 11), "dic5xc3": (192, 11), "dic3xc5": (112, 11),
}
# Search nodes per base of order 60; both kernels must produce these.
DIRECT_60_NODES = {
    "c60": 256, "c30xc2": 2544, "d60": 72240, "s3xd10": 28440,
    "s3xc10": 3696, "d10xc6": 6480, "a4xc5": 21792, "f20xc3": 1280,
    "c15sc4": 10680, "dic15": 86640, "dic5xc3": 10080, "dic3xc5": 4128,
}
DIRECT_60_SKIPPED = ("a5",)
# Left out of the direct-o60 input so that every run, traced ones too,
# stays well inside the benchmark's time limits on a slow 2-core machine.
# These two bases are 56% of a full pass, and both have |Aut| = 240 and 896
# regular subgroups in 11 classes; s3xd10 keeps a large case (640 subgroups).
DIRECT_DROPPED = ("d60", "dic15")

# Bases with a large Aut(N) but few regular subgroups:
# expression -> (regular subgroups, isomorphism classes, search nodes).
WIDE_AUT = {
    "abelian(5,5)": (25, 1, 650),
    "abelian(5,5,2)": (176, 3, 8720),
    "abelian(7,7)": (49, 1, 2450),
}
# |Aut| = 20160 and no cap fires (ROADMAP item 4); run only as a probe.
CAP_PROBE = "abelian(2,2,2,2)"

SCREEN_CORPORA = ("o4", "o5", "o8", "o12", "o60")

CLASSIFY_SAMPLE = 1000
CLASSIFY_MAX = 10**6
SUZUKI_ELLS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
SUZUKI_INELIGIBLE = (5,)  # 5**2 divides 4**5 + 1
# n0 -> doubling exponents checked; every condition must hold.
DOUBLING = {60: 14, 2448: 8, 29120: 5}
WIEFERICH_LIMIT = 10**5
WIEFERICH = (1093, 3511)


def ops_per_pass(workload: str) -> int:
    if workload == "direct-o60":
        return 1
    if workload == "wide-aut":
        return len(WIDE_AUT)
    if workload == "screen-corpora":
        return 2 * len(SCREEN_CORPORA)
    if workload == "numtheory":
        return CLASSIFY_SAMPLE + len(SUZUKI_ELLS) + len(DOUBLING) + 1
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded inputs ---------------------------------------------------------


def _copy_shuffled_corpus(src: Path, dst: Path, rng: random.Random,
                          drop: tuple[str, ...] = ()) -> None:
    """Copy a corpus directory, shuffling the order of its ``file`` lines.

    Dropping members also withdraws the completeness claim."""
    dst.mkdir(parents=True)
    head, files = [], []
    dropped = {f"file {name}.grp" for name in drop}
    for line in (src / "index.txt").read_text().splitlines():
        if drop and line == "complete true":
            line = "complete false"
        if line not in dropped:
            (files if line.startswith("file ") else head).append(line)
    rng.shuffle(files)
    for line in files:
        name = line.split(None, 1)[1]
        shutil.copyfile(src / name, dst / name)
    (dst / "index.txt").write_text("\n".join(head + files) + "\n")


def make_inputs(workload: str, seed: int, root: Path, work: Path) -> dict:
    """Write the workload's input files under ``work``; return its arguments.

    The seed only permutes or samples: the same seed gives byte-identical
    files and arguments, and no seed changes the frozen references.
    """
    rng = random.Random(f"{workload}:{seed}")
    corpora = root / "corpora"
    work.mkdir(parents=True, exist_ok=True)
    if workload == "direct-o60":
        _copy_shuffled_corpus(corpora / "o60", work / "o60", rng,
                              drop=DIRECT_DROPPED)
        inputs = {"corpus": str(work / "o60")}
    elif workload == "wide-aut":
        bases = list(WIDE_AUT)
        rng.shuffle(bases)
        inputs = {"bases": bases}
    elif workload == "screen-corpora":
        names = list(SCREEN_CORPORA)
        rng.shuffle(names)
        for name in names:
            _copy_shuffled_corpus(corpora / name, work / name, rng)
        inputs = {"corpora": [str(work / name) for name in names]}
    elif workload == "numtheory":
        inputs = {"orders": rng.sample(range(1, CLASSIFY_MAX + 1),
                                       CLASSIFY_SAMPLE)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "inputs.json").write_text(
        json.dumps(inputs, indent=1, sort_keys=True).replace(str(work), "."))
    return inputs


# -- one pass --------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``holoscreen.cli.main`` in-process; (exit code, stdout, stderr).

    An exception escaping the CLI is reported as exit code None, so that
    the check counts it as a failed operation instead of ending the run.
    """
    cli = sys.modules["holoscreen.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: str, inputs: dict, work: Path) -> list:
    """Make every call of one pass; return the raw outputs, unchecked."""
    if workload == "direct-o60":
        report = work / "direct.json"
        return [call_cli(["direct", "--corpus", inputs["corpus"],
                          "--json", str(report)])]
    if workload == "wide-aut":
        return [call_cli(["group", "regulars", base])
                for base in inputs["bases"]]
    if workload == "screen-corpora":
        outputs = []
        for corpus in inputs["corpora"]:
            outputs.append(call_cli(["corpus", "validate", corpus]))
            outputs.append(call_cli(["screen", "--jobs", "2",
                                     "--corpus", corpus]))
        return outputs
    if workload == "numtheory":
        numbers = sys.modules["holoscreen.numbers"]
        return [
            [numbers.classify_order(n) for n in inputs["orders"]],
            [numbers.suzuki_exponent_check(ell) for ell in SUZUKI_ELLS],
            [numbers.doubling_family_conditions(n0) for n0 in DOUBLING],
            numbers.wieferich_scan(WIEFERICH_LIMIT),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- the reference gate ----------------------------------------------------


def _factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; exact and fast for n <= 10**6.

    The benchmark does not call sympy here: sympy keeps a module-level
    prime sieve that the program's own trial division reads, so extending
    it would change the speed of the passes being measured.
    """
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def expected_classification(n: int, simple_orders: list[int]) -> tuple:
    """Recompute ``classify_order(n)`` from a factorization and the table.

    Returns (solvable number, cube-free, doubling family, verdict).
    """
    factors = _factor(n)
    solvable = not any(n % d == 0 for d in simple_orders if d <= n)
    cube_free = all(e < 3 for e in factors.values())
    family = None
    if not solvable:
        v = factors.get(2, 0)
        odd = n >> v
        if odd == 15 and v >= 2:
            family = (60, v - 2)
        elif odd == 153 and v >= 4:
            family = (2448, v - 4)
        ell = 3
        while family is None and (4**ell + 1) * (2**ell - 1) <= odd:
            part = (4**ell + 1) * (2**ell - 1)
            if (list(_factor(ell).values()) == [1] and part == odd
                    and v >= 2 * ell and max(_factor(part).values()) == 1):
                family = (4**ell * part, v - 2 * ell)
            ell += 2
    if solvable:
        verdict = "trivial-solvable"
    elif family is not None:
        verdict = "doubling-family"
    elif cube_free:
        verdict = "cube-free"
    else:
        verdict = "needs-screening"
    return solvable, cube_free, family, verdict


def read_simple_orders(root: Path) -> list[int]:
    text = (root / "src" / "holoscreen" / "data" / "simple_orders.txt")
    return [int(line) for line in text.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def expected_outputs(workload: str, inputs: dict, root: Path) -> dict:
    """References that depend on the sampled inputs (numtheory only)."""
    if workload != "numtheory":
        return {}
    table = read_simple_orders(root)
    return {n: expected_classification(n, table) for n in inputs["orders"]}


_REGULARS_RE = re.compile(r"^regular subgroups: (\d+) \(complete, nodes=(\d+)\)$",
                          re.M)
_CLASS_RE = re.compile(r"^  class \d+: ", re.M)


def _check_direct(output, report: Path) -> list[str]:
    # The input corpus is incomplete, so the honest verdict is undecided.
    code, out, err = output
    if code != 3 or not out.endswith("verdict: undecided\n"):
        return [f"direct: exit {code}, expected 3 and verdict undecided; "
                f"{err.strip()}"]
    doc = json.loads(report.read_text())
    seen, nodes, skipped = {}, {}, []
    for group in doc["groups"]:
        if group.get("skipped"):
            skipped.append(group["name"])
            continue
        if group["exhausted"] or group["insolvable_count"]:
            return [f"direct: {group['name']} exhausted or insolvable"]
        seen[group["name"]] = (group["regular_count"], group["iso_classes"])
        nodes[group["name"]] = group["nodes"]
    want = {k: v for k, v in DIRECT_60.items() if k not in DIRECT_DROPPED}
    want_nodes = {k: v for k, v in DIRECT_60_NODES.items()
                  if k not in DIRECT_DROPPED}
    problems = []
    if seen != want:
        problems.append(f"direct: counts {seen} != {want}")
    if nodes != want_nodes:
        problems.append(f"direct: nodes {nodes} != {want_nodes}")
    if sorted(skipped) != sorted(DIRECT_60_SKIPPED):
        problems.append(f"direct: skipped {skipped}")
    return problems


def _check_regulars(base: str, output) -> list[str]:
    code, out, err = output
    match = _REGULARS_RE.search(out)
    if code != 0 or match is None:
        return [f"regulars {base}: exit {code}; {err.strip()}"]
    got = (int(match.group(1)), len(_CLASS_RE.findall(out)),
           int(match.group(2)))
    if got != WIDE_AUT[base]:
        return [f"regulars {base}: (records, classes, nodes) {got} "
                f"!= {WIDE_AUT[base]}"]
    return []


def check_pass(workload: str, inputs: dict, outputs: list, expected: dict,
               work: Path) -> list[str]:
    """Compare one pass's outputs with the references; one line per failed
    operation, so ``len()`` of the result is the pass's failure count."""
    if workload == "direct-o60":
        return _check_direct(outputs[0], work / "direct.json")[:1]
    problems = []
    if workload == "wide-aut":
        for base, output in zip(inputs["bases"], outputs):
            problems += _check_regulars(base, output)
    elif workload == "screen-corpora":
        for i, corpus in enumerate(inputs["corpora"]):
            (vcode, vout, _), (scode, sout, serr) = outputs[2 * i: 2 * i + 2]
            if vcode != 0 or not vout.endswith("result: ok\n"):
                problems.append(f"validate {Path(corpus).name}: exit {vcode}")
            if scode != 0 or "\nverdict: holds\n" not in sout:
                problems.append(f"screen {Path(corpus).name}: exit {scode}; "
                                f"{serr.strip()}")
    elif workload == "numtheory":
        classes, checks, conditions, wieferich = outputs
        for c in classes:
            got = (c.solvable_number, c.cube_free, c.doubling_family, c.verdict)
            if got != expected[c.n]:
                problems.append(f"classify {c.n}: {got} != {expected[c.n]}")
        for check in checks:
            want = ("ineligible" if check.ell in SUZUKI_INELIGIBLE
                    else "eligible")
            if check.status != want:
                problems.append(f"suzuki {check.ell}: {check.status} != {want}")
        for cond in conditions:
            if not cond.all_hold or cond.r_checked != DOUBLING[cond.n0]:
                problems.append(f"conditions {cond.n0}: {cond}")
        if tuple(wieferich) != WIEFERICH:
            problems.append(f"wieferich: {wieferich} != {WIEFERICH}")
    return problems
