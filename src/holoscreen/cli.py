"""Command-line interface.

Exit codes are shared by all subcommands: 0 means the requested property
holds (or the command simply succeeded), 1 is an error (bad usage
included), 2 means the verdict holds conditionally on a smaller order,
and 3 means undecided (budget or cap exhausted, needs-screening
classification, or an incomplete corpus preventing an order-level
claim).  A verdict of ``holds`` is never emitted when any budget or cap
was exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from ._kernel import BACKEND_NAME
from .automorphisms import automorphism_group, inner_and_outer
from .corpus import construct, load_group, load_manifest, validate_corpus
from .errors import HoloscreenError
from .holomorph import (DEFAULT_NODE_BUDGET, HOL_ORDER_CAP,
                        enumerate_regular_subgroups, holomorph)
from .lattice import SUBGROUP_CAP
from .numbers import (ELL_CAP, WIEFERICH_CAP, classify_order, default_table,
                      doubling_family_conditions, suzuki_exponent_check,
                      suzuki_order, wieferich_scan)
from .screening import render_report, screen_order

EXIT_HOLDS = 0
EXIT_ERROR = 1
EXIT_CONDITIONAL = 2
EXIT_UNDECIDED = 3


def positive_int(text: str) -> int:
    """The argparse type of every job count, cap and budget."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as exit 1, since exit 2 means "holds
    conditionally"; --help and --version still exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise HoloscreenError(message)


def _load_target(target: str):
    """A group given either as a file path or a constructor expression."""
    if "(" in target:
        record = construct(target)
    else:
        record = load_group(target)
    return record


def cmd_screen(args) -> int:
    report = screen_order(args.corpus, args.order, jobs=args.jobs,
                          subgroup_cap=args.subgroup_cap, timings=args.timings)
    sys.stdout.write(render_report(report))
    if args.json:
        Path(args.json).write_text(report.to_json())
    if report.verdict == "holds":
        return EXIT_HOLDS
    if report.verdict.startswith("holds-conditional-on"):
        return EXIT_CONDITIONAL
    return EXIT_UNDECIDED


def render_direct(order: int, complete: bool, bases) -> tuple[str, dict, int]:
    """The ``direct`` report: (text, JSON document, exit code).

    ``bases`` yields (name, enumeration) per corpus group, with None for an
    insolvable group, which is no candidate base.  It may be lazy."""
    lines = [f"direct check: order {order} (kernel backend: {BACKEND_NAME})"]
    doc = {"schema": "holoscreen.direct/1", "order": order,
           "complete_claim": complete, "groups": []}
    searched = exhausted_any = False
    insolvable_found = []
    for name, enum in bases:
        if enum is None:
            lines.append(f"  {name}: skipped (insolvable, not a "
                         "candidate base group)")
            doc["groups"].append({"name": name, "skipped": True})
            continue
        classes = enum.classify()
        insolvable = sum(c.count for c in classes if not c.solvable)
        note = "search budget exhausted" if enum.exhausted else "complete"
        lines.append(
            f"  {name}: |Hol|={enum.hol.order}, regular subgroups="
            f"{len(enum.records)} in {len(classes)} iso classes, "
            f"insolvable={insolvable}, nodes={enum.nodes} ({note})")
        doc["groups"].append({
            "name": name, "hol_order": enum.hol.order,
            "regular_count": len(enum.records), "iso_classes": len(classes),
            "insolvable_count": insolvable, "nodes": enum.nodes,
            "exhausted": enum.exhausted})
        searched = True
        exhausted_any = exhausted_any or enum.exhausted
        if insolvable:
            insolvable_found.append(name)

    if insolvable_found:
        verdict, code = "counterexample-candidate", EXIT_UNDECIDED
        lines.append("  !! insolvable regular subgroup reported over: "
                     + ", ".join(insolvable_found))
        lines.append("  !! this contradicts the expected outcome; verify "
                     "the corpus and report the find")
    elif exhausted_any:
        verdict, code = "undecided", EXIT_UNDECIDED
    elif complete and searched:
        verdict, code = "holds", EXIT_HOLDS
    else:
        verdict, code = "undecided", EXIT_UNDECIDED
        # Every order has a cyclic group, so a complete corpus lists one.
        why = ("lists no solvable group" if complete
               else "does not claim completeness")
        lines.append(f"  note: corpus {why}, so no order-level conclusion")
    lines.append(f"verdict: {verdict}")
    doc["verdict"] = verdict
    return "\n".join(lines) + "\n", doc, code


def cmd_direct(args) -> int:
    manifest = load_manifest(args.corpus)
    if args.order is not None and args.order != manifest.order:
        raise HoloscreenError(
            f"corpus has order {manifest.order}, requested {args.order}")
    # Lazy, so that each holomorph is freed once its row is rendered.
    bases = ((r.name, enumerate_regular_subgroups(
                  holomorph(r.table, order_cap=args.order_cap),
                  node_budget=args.budget) if r.is_solvable() else None)
             for r in manifest.records)
    text, doc, code = render_direct(manifest.order, manifest.complete, bases)
    sys.stdout.write(text)
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    return code


def cmd_classify(args) -> int:
    result = classify_order(args.n)
    gloss = {
        "trivial-solvable": "every group of this order is solvable",
        "doubling-family": "a 2-power multiple of a recognized base order",
        "cube-free": "no prime cube divides the order",
        "needs-screening": "no arithmetic criterion applies; screen a corpus",
    }
    lines = [f"order {result.n}"]
    lines.append(f"solvable number: {'yes' if result.solvable_number else 'no'}")
    lines.append(f"cube-free: {'yes' if result.cube_free else 'no'}")
    if result.doubling_family is not None:
        n0, r = result.doubling_family
        lines.append(f"doubling family: 2^{r} * {n0}")
    lines.append(f"verdict: {result.verdict} ({gloss[result.verdict]})")
    print("\n".join(lines))
    return EXIT_UNDECIDED if result.verdict == "needs-screening" else EXIT_HOLDS


def cmd_numtheory(args) -> int:
    if args.nt_command == "wieferich":
        primes = wieferich_scan(args.limit)
        print(" ".join(str(p) for p in primes) if primes else "none")
        return EXIT_HOLDS
    if args.nt_command == "suzuki":
        print(suzuki_order(args.ell))
        return EXIT_HOLDS
    if args.nt_command == "base-check":
        check = suzuki_exponent_check(args.ell)
        if check.status == "eligible":
            print(f"eligible: base order {check.base_order}")
            return EXIT_HOLDS
        print(f"{check.status}: {check.reason}")
        return EXIT_HOLDS if check.status == "ineligible" else EXIT_UNDECIDED
    if args.nt_command == "solvable":
        witness = default_table().nonsolvable_witness(args.n)
        if witness is None:
            print(f"{args.n} is a solvable number")
        else:
            print(f"{args.n} is non-solvable (divisible by the simple group "
                  f"order {witness})")
        return EXIT_HOLDS
    # "conditions", the last name the parser accepts.
    conditions = doubling_family_conditions(args.n0, r_max=args.r_max)
    flag = {True: "yes", False: "no", None: "unknown"}
    print(f"base order {conditions.n0}, doubling exponents up to "
          f"{conditions.r_checked}")
    print(f"no doubled order is simple: "
          f"{flag[conditions.no_simple_doubled_order]}")
    print(f"half is a solvable number: {flag[conditions.half_solvable]}")
    print(f"odd-prime quotients solvable: "
          f"{flag[conditions.prime_quotients_solvable]}")
    if conditions.failure:
        print(f"failure: {conditions.failure}")
    print(f"all hold: {'yes' if conditions.all_hold else 'no'}")
    if conditions.all_hold or conditions.failure:
        return EXIT_HOLDS
    return EXIT_UNDECIDED


def cmd_group(args) -> int:
    record = _load_target(args.target)
    table = record.table
    if args.group_command == "info":
        spectrum = " ".join(f"{o}^{c}" for o, c in table.order_spectrum)
        print(f"group {record.name}")
        print(f"order {record.order}")
        if record.degree is not None:
            print(f"degree {record.degree} with {len(record.generators)} "
                  "generators")
        print(f"abelian: {'yes' if table.is_abelian else 'no'}")
        print(f"solvable: {'yes' if table.is_solvable() else 'no'}")
        print(f"nilpotent: {'yes' if table.is_nilpotent() else 'no'}")
        print(f"center order: {len(table.center)}")
        print(f"conjugacy classes: {len(table.conjugacy_classes)}")
        print(f"element order spectrum: {spectrum}")
        return EXIT_HOLDS
    if args.group_command == "aut":
        aut = automorphism_group(table)
        inner, outer = inner_and_outer(table, aut)
        print(f"|Aut| = {aut.order}")
        print(f"inner = {inner}, outer = {outer}")
        print(f"Aut solvable: {'yes' if aut.is_solvable() else 'no'}")
        return EXIT_HOLDS
    if args.group_command == "hol":
        aut = automorphism_group(table)
        # Hol(N) = N x| Aut(N) is solvable exactly when N and Aut(N) are.
        solvable = table.is_solvable() and aut.is_solvable()
        print(f"|Hol| = {table.n * aut.order} (= {table.n} * {aut.order})")
        print(f"Hol solvable: {'yes' if solvable else 'no'}")
        return EXIT_HOLDS
    # "regulars", the last name the parser accepts.
    hol = holomorph(table, order_cap=args.order_cap)
    enum = enumerate_regular_subgroups(hol, node_budget=args.budget)
    print(f"|Hol| = {hol.order}")
    note = "search budget exhausted" if enum.exhausted else "complete"
    print(f"regular subgroups: {len(enum.records)} "
          f"({note}, nodes={enum.nodes})")
    for i, cls in enumerate(enum.classify()):
        spectrum = " ".join(f"{o}^{c}" for o, c in cls.table.order_spectrum)
        solvable = "solvable" if cls.solvable else "insolvable"
        print(f"  class {i}: {cls.count} subgroups, {solvable}, "
              f"element orders {spectrum}")
    return EXIT_UNDECIDED if enum.exhausted else EXIT_HOLDS


def cmd_corpus(args) -> int:
    report = validate_corpus(args.directory)
    print(f"corpus {report.directory}")
    if report.order is not None:
        print(f"order {report.order}, {report.count} groups, "
              f"complete={'yes' if report.complete else 'no'}")
    if report.hash:
        print(f"sha256 {report.hash}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    for error in report.errors:
        print(f"error: {error}")
    print("result: " + ("ok" if report.ok else "failed"))
    return EXIT_HOLDS if report.ok else EXIT_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Parsing reads the tree and changes nothing in it, so one tree serves
    every ``main`` call of a process.  A shell run builds it once either
    way; a caller that stays in one process saves about 1.6 ms per call
    after the first: perfbench (10 calls per ``screen-corpora`` pass, 3
    per ``wide-aut``, 1 per ``direct-o60``) and the in-process CLI tests.
    """
    parser = _Parser(
        prog="holoscreen",
        description="Screen group orders for insolvable regular subgroups "
                    "of holomorphs of solvable groups.")
    parser.add_argument("--version", action="version",
                        version=f"holoscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # What each cap and budget flag bounds.
    bounds = {
        "subgroup": "largest order of an insolvable group whose subgroups "
                    "are enumerated for the order sets (default %(default)s)",
        "budget": "search nodes per holomorph; a run that exhausts them is "
                  "undecided (default %(default)s)",
        "order": "largest order of N whose holomorph is searched "
                 "(default %(default)s)",
    }
    # The corpus flags of screen and direct.
    corpus_help = "the corpus directory"
    n_help = ("the order of the corpus; a corpus of another order is an "
              "error (default: the corpus's own)")

    p = sub.add_parser("screen", help="run the screening pipeline on a corpus")
    p.add_argument("--order", type=int, default=None, help=n_help)
    p.add_argument("--corpus", required=True, help=corpus_help)
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="worker processes for the stages after Fitting; "
                        "the pool starts only when two or more groups pass "
                        "the Fitting stage (default %(default)s)")
    p.add_argument("--subgroup-cap", type=positive_int, default=SUBGROUP_CAP,
                   help=bounds["subgroup"])
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock fields (not deterministic)")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("direct",
                       help="enumerate regular subgroups of each holomorph")
    p.add_argument("--order", type=int, default=None, help=n_help)
    p.add_argument("--corpus", required=True, help=corpus_help)
    p.add_argument("--budget", type=positive_int, default=DEFAULT_NODE_BUDGET,
                   help=bounds["budget"])
    p.add_argument("--order-cap", type=positive_int, default=HOL_ORDER_CAP,
                   help=bounds["order"])
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("classify", help="arithmetic classification of an order")
    p.add_argument("n", type=int, help="the group order to classify")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("numtheory", help="arithmetic helpers")
    nt = p.add_subparsers(dest="nt_command", required=True)
    q = nt.add_parser("wieferich", help="list the Wieferich primes")
    q.add_argument("--limit", type=int, required=True,
                   help="list the Wieferich primes up to this bound, at "
                        f"most {WIEFERICH_CAP}")
    q = nt.add_parser("suzuki", help="order of a Suzuki group")
    q.add_argument("--ell", type=int, required=True,
                   help="print the order of Sz(2^ell), for odd ell >= 3 "
                        f"and at most {ELL_CAP}")
    q = nt.add_parser("base-check", help="check a Suzuki base exponent")
    q.add_argument("--ell", type=int, required=True,
                   help="check whether 2^ell gives a usable Suzuki base "
                        f"order, for ell >= 3 and at most {ELL_CAP}")
    q = nt.add_parser("solvable", help="whether n is a solvable number")
    q.add_argument("n", type=int, help="the order to test")
    q = nt.add_parser("conditions",
                      help="side conditions of a doubling family")
    q.add_argument("--n0", type=int, required=True,
                   help="base order of the doubling family 2^r * n0")
    q.add_argument("--r-max", type=int, default=None,
                   help="largest doubling exponent r checked (default: as "
                        "far as the simple-order table allows)")
    p.set_defaults(func=cmd_numtheory)

    p = sub.add_parser("group", help="inspect one group")
    g = p.add_subparsers(dest="group_command", required=True)
    for name, text in (("info", "order, structure and element orders"),
                       ("aut", "order and solvability of Aut(N)"),
                       ("hol", "order and solvability of Hol(N)"),
                       ("regulars", "regular subgroups of Hol(N), by "
                                    "isomorphism type")):
        q = g.add_parser(name, help=text)
        q.add_argument("target",
                       help="a .grp file or a constructor expression")
        if name == "regulars":
            q.add_argument("--budget", type=positive_int,
                           default=DEFAULT_NODE_BUDGET, help=bounds["budget"])
            q.add_argument("--order-cap", type=positive_int,
                           default=HOL_ORDER_CAP, help=bounds["order"])
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("corpus", help="corpus handling")
    c = p.add_subparsers(dest="corpus_command", required=True)
    q = c.add_parser("validate", help="check a corpus directory")
    q.add_argument("directory", help="the corpus directory to check")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (HoloscreenError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
