"""Command-line interface, run in process via main(argv)."""

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holoscreen.cli as cli
from holoscreen.cli import main
from holoscreen.corpus import construct, save_group, write_index
from holoscreen.holomorph import enumerate_regular_subgroups, holomorph
from holoscreen.numbers import suzuki_order
from holoscreen.screening import ScreenReport

CORPORA = Path(__file__).resolve().parent.parent / "corpora"
# The package exports a function of the same name as this module.
holomorph_module = importlib.import_module("holoscreen.holomorph")


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_no_command_is_a_usage_error(capsys):
    # Exit 1 like any other error: exit 2 means "holds conditionally".
    code, out, err = run([], capsys)
    assert code == 1
    assert not out
    assert err.startswith("usage: holoscreen")


def test_every_argument_has_help():
    # Walks every subcommand; each argument other than -h, and each
    # subcommand, must say what it is for.
    missing = []
    checked = 0
    parsers = [("holoscreen", cli.build_parser())]
    for prefix, parser in parsers:  # grows while it is walked
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                described = {a.dest for a in action._choices_actions}
                for name, subparser in action.choices.items():
                    parsers.append((f"{prefix} {name}", subparser))
                    if name not in described:
                        missing.append(f"{prefix} {name}")
                continue
            checked += 1
            if not action.help:
                missing.append(f"{prefix} {action.dest}")
    assert missing == []
    # Exact, so that a new flag comes with a deliberate edit here.
    assert checked == 26


@pytest.mark.parametrize("argv", [
    ["group", "regulars", "cyclic(4)", "--budget", "-1"],
    ["group", "regulars", "cyclic(4)", "--order-cap", "0"],
    ["screen", "--corpus", CORPORA / "o4", "--subgroup-cap", "0"],
    ["direct", "--corpus", CORPORA / "o4", "--budget", "-1"],
    ["direct", "--corpus", CORPORA / "o4", "--timings"],
    # Removed flags, no longer accepted: --backend with the second search
    # kernel, --aut-cap with the cap on |N| that the table cap implies.
    ["direct", "--corpus", CORPORA / "o4", "--backend", "pure"],
    ["screen", "--corpus", CORPORA / "o4", "--aut-cap", "2000"],
    ["group", "aut", "cyclic(4)", "--aut-cap", "2000"],
    # Switches that turned a check off, and a copy of stdout to a file.
    ["screen", "--corpus", CORPORA / "o8", "--skip-outer"],
    ["corpus", "validate", CORPORA / "o4", "--lax"],
    ["screen", "--corpus", CORPORA / "o4", "--out", os.devnull],
    # Command names the parser does not know; no fallback behind it.
    ["numtheory", "bogus"],
    ["group", "bogus", "cyclic(4)"],
])
def test_bad_option_is_a_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert not out
    assert err.startswith("usage: holoscreen")
    assert "\nerror: " in err


def test_group_aut(capsys):
    code, out, _ = run(["group", "aut", CORPORA / "o4" / "c2c2.grp"], capsys)
    assert code == 0
    assert "|Aut| = 6" in out
    assert "inner = 1, outer = 6" in out
    assert "Aut solvable: yes" in out


def test_group_hol(capsys):
    code, out, _ = run(["group", "hol", CORPORA / "o5" / "c5.grp"], capsys)
    assert code == 0
    assert "|Hol| = 20 (= 5 * 4)" in out
    assert "Hol solvable: yes" in out


def test_group_aut_and_hol_with_large_aut(capsys):
    # |Aut(C2^3 x S3)| = 8064; hol reads Aut(N) without the holomorph tables.
    target = "direct(abelian(2,2,2),symmetric(3))"
    code, out, _ = run(["group", "aut", target], capsys)
    assert code == 0
    assert "|Aut| = 8064" in out
    assert "Aut solvable: no" in out
    code, out, _ = run(["group", "hol", target], capsys)
    assert code == 0
    assert "|Hol| = 387072 (= 48 * 8064)" in out
    assert "Hol solvable: no" in out


@pytest.mark.parametrize("command", ["aut", "hol"])
def test_group_aut_and_hol_cap_the_element_list(command, capsys):
    # |Aut(C2^5)| = |GL(5,2)| = 9999360; the list cap of 2^21 entries
    # stops the enumeration after 2^21 / 32 = 65536 automorphisms.
    code, out, err = run(["group", command, "abelian(2,2,2,2,2)"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "order cap 65536" in err


@pytest.mark.parametrize("target", ["abelian(2,2,2,2)", "abelian(11,11)"])
def test_group_regulars_caps_large_aut(target, capsys):
    # |Aut| is 20160 and 13200: the cap fires while Aut(N) streams, before
    # the |Aut|^2 composition array is built.  The order cap is raised past
    # 121, since it would otherwise fire first, before Aut(N) is listed.
    code, out, err = run(["group", "regulars", target, "--order-cap", 121],
                         capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "cap 2048" in err


def test_group_regulars(capsys):
    code, out, _ = run(["group", "regulars", CORPORA / "o4" / "c4.grp"],
                       capsys)
    assert code == 0
    assert "|Hol| = 8" in out
    assert "regular subgroups: 2 (complete" in out
    # One class is cyclic, one is the Klein four group.
    assert "element orders 1^1 2^1 4^2" in out
    assert "element orders 1^1 2^3" in out


@pytest.mark.parametrize("argv,order,cap", [
    (["group", "regulars", "cyclic(65)"], 65, 64),
    (["direct", "--corpus", CORPORA / "o12", "--order-cap", 11], 12, 11),
])
def test_holomorph_order_cap_fires_before_aut(argv, order, cap, monkeypatch,
                                             capsys):
    # The base order is compared with the cap before Aut(N) is listed.
    def reached(*args, **kwargs):
        raise AssertionError("Aut(N) was listed")

    monkeypatch.setattr(holomorph_module, "automorphism_group", reached)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err == (f"error: base order {order} exceeds holomorph search cap "
                   f"{cap}\n")


def test_group_regulars_budget_exhausted(capsys):
    code, out, _ = run(["group", "regulars", "cyclic(8)", "--budget", "3"],
                       capsys)
    assert code == 3
    assert "search budget exhausted" in out


def test_group_info_expression(capsys):
    code, out, _ = run(["group", "info", "cyclic(6)"], capsys)
    assert code == 0
    assert "order 6" in out
    assert "abelian: yes" in out
    assert "nilpotent: yes" in out
    assert "element order spectrum: 1^1 2^1 3^2 6^2" in out


def test_group_bad_path(capsys):
    code, out, err = run(["group", "info", "no-such-file.grp"], capsys)
    assert code == 1
    assert not out
    assert err.startswith("error:")


def test_group_past_the_table_cap(capsys):
    # m! is never formatted: Python would refuse to print 300000!.
    code, out, err = run(["group", "info", "symmetric(300000)"], capsys)
    assert code == 1
    assert not out
    assert "order exceeds the table cap 2000" in err


def test_group_deeply_nested_expression(capsys):
    depth = 2000
    expr = "direct(" * depth + "cyclic(1)" + ",cyclic(1))" * depth
    code, out, err = run(["group", "info", expr], capsys)
    assert code == 1
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_screen_order_60(capsys):
    code, out, _ = run(["screen", "--order", 60, "--corpus", CORPORA / "o60",
                        "--jobs", 1], capsys)
    assert code == 0
    assert "verdict: holds" in out
    assert "screen: order 60" in out


def test_screen_writes_reports(tmp_path, capsys):
    doc = tmp_path / "report.json"
    code, out, _ = run(["screen", "--corpus", CORPORA / "o4", "--jobs", 1,
                        "--json", doc], capsys)
    assert code == 0
    assert out.endswith("verdict: holds\n")
    parsed = json.loads(doc.read_text())
    assert parsed["schema"] == "holoscreen.screen/2"
    assert "skip_outer" not in parsed
    assert parsed["verdict"] == "holds"


def test_screen_without_order_sets_reports_no_fitting_order(tmp_path,
                                                           capsys):
    doc = tmp_path / "report.json"
    code, out, _ = run(["screen", "--corpus", CORPORA / "o60", "--jobs", 1,
                        "--subgroup-cap", 1, "--json", doc], capsys)
    assert code == 3
    traces = json.loads(doc.read_text())["traces"]
    assert len(traces) == 12
    for trace in traces:
        assert trace["fitting_order"] is None
        assert trace["passed_fitting"] is None
        assert trace["error"] == "order sets unavailable"
    lines = out.splitlines()
    start = lines.index("trace (solvable groups, corpus order):") + 1
    assert lines[start:start + 13] == [
        "  c60     error: order sets unavailable",
        "  c30xc2  error: order sets unavailable",
        "  d60     error: order sets unavailable",
        "  s3xd10  error: order sets unavailable",
        "  s3xc10  error: order sets unavailable",
        "  d10xc6  error: order sets unavailable",
        "  a4xc5   error: order sets unavailable",
        "  f20xc3  error: order sets unavailable",
        "  c15sc4  error: order sets unavailable",
        "  dic15   error: order sets unavailable",
        "  dic5xc3 error: order sets unavailable",
        "  dic3xc5 error: order sets unavailable",
        "past fitting (0): -",
    ]
    assert ("problem: subgroup enumeration for a5: group order 60 exceeds "
            "subgroup enumeration cap 1") in lines
    assert lines[-1] == "verdict: undecided"


def test_screen_incomplete_corpus_is_an_error(capsys):
    code, out, err = run(["screen", "--corpus", CORPORA / "o120"], capsys)
    assert code == 1
    assert "completeness" in err


def test_screen_conditional_exit_code(monkeypatch, capsys):
    report = ScreenReport(
        n=60, corpus_dir="fake", corpus_hash="0" * 64, complete=True,
        solvable_number=False, insolvable_names=("a5",), order_sets=None,
        traces=(), verdict="holds-conditional-on(30)")
    monkeypatch.setattr(cli, "screen_order", lambda *a, **k: report)
    code, out, _ = run(["screen", "--corpus", "fake"], capsys)
    assert code == 2
    assert "verdict: holds-conditional-on(30)" in out


def test_screen_undecided_exit_code(monkeypatch, capsys):
    report = ScreenReport(
        n=60, corpus_dir="fake", corpus_hash="0" * 64, complete=True,
        solvable_number=False, insolvable_names=("a5",), order_sets=None,
        traces=(), verdict="undecided",
        problems=("subgroup enumeration for a5: cap",))
    monkeypatch.setattr(cli, "screen_order", lambda *a, **k: report)
    code, out, _ = run(["screen", "--corpus", "fake"], capsys)
    assert code == 3
    assert "verdict: undecided" in out


def test_screen_bad_jobs(capsys):
    code, _, err = run(["screen", "--corpus", CORPORA / "o4", "--jobs", 0],
                       capsys)
    assert code == 1
    assert "error: argument --jobs: must be a positive integer, got 0" in err


def test_direct_order_4(capsys):
    code, out, _ = run(["direct", "--corpus", CORPORA / "o4"], capsys)
    assert code == 0
    assert "direct check: order 4" in out
    assert "verdict: holds" in out
    assert out.count("insolvable=0") == 2
    assert "exhausted" not in out


def test_direct_backend_selection(capsys):
    code, out, _ = run(["direct", "--corpus", CORPORA / "o4"], capsys)
    assert code == 0
    assert "(kernel backend: pure)" in out


def test_direct_incomplete_corpus_is_undecided(capsys):
    code, out, _ = run(["direct", "--corpus", CORPORA / "o120"], capsys)
    assert code == 3
    assert out.count("skipped (insolvable") == 3
    assert "does not claim completeness" in out
    assert "verdict: undecided" in out


def test_direct_budget_exhaustion_is_undecided(capsys):
    code, out, _ = run(["direct", "--corpus", CORPORA / "o4", "--budget", 2],
                       capsys)
    assert code == 3
    assert "search budget exhausted" in out
    assert "verdict: undecided" in out


def test_direct_json(tmp_path, capsys):
    doc = tmp_path / "direct.json"
    code, out, _ = run(["direct", "--corpus", CORPORA / "o4", "--json", doc],
                       capsys)
    assert code == 0
    parsed = json.loads(doc.read_text())
    assert parsed["schema"] == "holoscreen.direct/1"
    assert parsed["order"] == 4
    assert parsed["verdict"] == "holds"
    assert [g["name"] for g in parsed["groups"]] == ["c4", "c2c2"]
    for g in parsed["groups"]:
        assert g["insolvable_count"] == 0
        assert g["exhausted"] is False


def test_direct_renders_an_insolvable_regular_subgroup():
    # Positive control for the verdict the paper's claim rules out over a
    # solvable base.  Over the insolvable base A5 (which `direct` skips),
    # Byott (Bull. LMS 36, 2004) gives e(A5, A5) = 2 Hopf-Galois
    # structures, so Hol(A5) holds exactly two regular subgroups
    # isomorphic to A5: the left and right translations.
    enum = enumerate_regular_subgroups(
        holomorph(construct("alternating(5)").table))
    text, doc, code = cli.render_direct(60, True, [("a5", enum)])
    assert code == cli.EXIT_UNDECIDED
    assert text.endswith("verdict: counterexample-candidate\n")
    assert ("  a5: |Hol|=7200, regular subgroups=302 in 4 iso classes, "
            "insolvable=2, nodes=31560 (complete)") in text.splitlines()
    assert ("  !! insolvable regular subgroup reported over: a5"
            in text.splitlines())
    assert doc["verdict"] == "counterexample-candidate"
    (group,) = doc["groups"]
    assert (group["regular_count"], group["iso_classes"],
            group["insolvable_count"]) == (302, 4, 2)
    assert [(cls.count, cls.solvable) for cls in enum.classify()] == [
        (2, False), (60, True), (120, True), (120, True)]


def test_direct_and_screen_reject_a_vacuous_complete_corpus(tmp_path,
                                                           capsys):
    # Every order has a cyclic group, so a corpus that claims completeness
    # but lists no solvable group is wrong and decides nothing.
    (tmp_path / "index.txt").write_text("order 6\ncomplete true\n")
    code, out, _ = run(["direct", "--corpus", tmp_path], capsys)
    assert code == 3
    assert out.splitlines()[-2:] == [
        "  note: corpus lists no solvable group, so no order-level "
        "conclusion", "verdict: undecided"]
    code, out, _ = run(["screen", "--corpus", tmp_path], capsys)
    assert code == 3
    assert out.splitlines()[-2:] == [
        "problem: corpus claims completeness but lists no solvable group",
        "verdict: undecided"]


def test_direct_wrong_order(capsys):
    code, _, err = run(["direct", "--order", 8, "--corpus", CORPORA / "o4"],
                       capsys)
    assert code == 1
    assert "corpus has order 4" in err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


DIRECT_GOLDEN = [
    # o60 under a budget: seven bases stop early with partial record lists.
    (("o12",), 0,
     "d3d762905db90841fdbd2555cd4184a32ebf3ac18fb9b2ce38e7d003bf9b1d9c",
     "edfeeaacef5d54a7772e04cd0cf2dafc1bf7141b9a6c42531f5d0d8f3f08bdff"),
    (("o60", "--budget", 5000), 3,
     "2cc90269a8f59a1900827e2efa0b2e904beb8b2d8bba56e3a406784735cac0e6",
     "42d256c6cf87d99af1a38be4f8f59796e5f981e2c3fd83f7bd994ba22492cb03"),
]


@pytest.mark.parametrize("args,exit_code,text_sha,json_sha", DIRECT_GOLDEN,
                         ids=["o12", "o60-budget-5000"])
def test_direct_reports_frozen(tmp_path, capsys, args, exit_code, text_sha,
                               json_sha):
    doc = tmp_path / "direct.json"
    corpus, *rest = args
    code, out, _ = run(["direct", "--corpus", CORPORA / corpus, "--json",
                        doc, *rest], capsys)
    assert code == exit_code
    assert sha256(out) == text_sha
    assert sha256(doc.read_text()) == json_sha


# The text of ``screen`` on every shipped complete corpus; each verdict is
# "holds".  The report prints the corpus path as given, so it is run from
# the repository root on a relative path.
SCREEN_GOLDEN = {
    "o4": "edb15e1151eeaafbca0e49a5e6c6a4a5f449e14aefc1793a07293ff0264425c6",
    "o5": "2bed7404fcc39beeac8f56cd1ab62ea11e4c7418be5face1b565f008f6d2a7af",
    "o8": "795bca3aca0e56ba1ed76033c72b0e4f42ab04b9005b93cf552758362176625e",
    "o12": "357808fa19f9e8afceba6329f2941bc516f3b7b0762e999cc6bace1dfe39abe3",
    "o60": "01a368292e25043ce542639d17681a386067504032e551961a13ada9653cf5b1",
}


@pytest.mark.parametrize("corpus,text_sha", SCREEN_GOLDEN.items(),
                         ids=list(SCREEN_GOLDEN))
def test_screen_reports_frozen(monkeypatch, capsys, corpus, text_sha):
    monkeypatch.chdir(CORPORA.parent)
    code, out, _ = run(["screen", "--corpus", f"corpora/{corpus}"], capsys)
    assert code == 0
    assert sha256(out) == text_sha


@pytest.mark.parametrize("target,text_sha", [
    ("abelian(5,5,2)",
     "be25ecbcdca0b7b8baa3422dee625e71262d5ea309c90806349b7f40fba3e20c"),
    ("dihedral(12)",
     "5050874a2c338bb626be375694f63eb01bf43e269f30d1da29fa07398bdd9b8f"),
    # 302 subgroups, nodes=31560; class 0 is the two translation groups,
    # "2 subgroups, insolvable, element orders 1^1 2^15 3^20 5^24".
    ("alternating(5)",
     "37d278ce3efa7efc0e0a7c87245e2bdd9bcaa885f83f3391c293b2ce3b4ad73a"),
])
def test_group_regulars_frozen(capsys, target, text_sha):
    code, out, _ = run(["group", "regulars", target], capsys)
    assert code == 0
    assert sha256(out) == text_sha


def test_classify_family_member(capsys):
    code, out, _ = run(["classify", "1920"], capsys)
    assert code == 0
    assert "doubling family: 2^5 * 60" in out
    assert "verdict: doubling-family" in out


def test_classify_trivial_solvable(capsys):
    code, out, _ = run(["classify", "30"], capsys)
    assert code == 0
    assert "solvable number: yes" in out
    assert "verdict: trivial-solvable" in out


def test_classify_needs_screening(capsys):
    code, out, _ = run(["classify", "1008"], capsys)
    assert code == 3
    assert "verdict: needs-screening" in out


def test_numtheory_wieferich(capsys, monkeypatch):
    code, out, _ = run(["numtheory", "wieferich", "--limit", 10000], capsys)
    assert code == 0
    assert out.strip() == "1093 3511"
    for limit in (100, 2, 1, 0, -5):
        code, out, _ = run(["numtheory", "wieferich", "--limit", limit],
                           capsys)
        assert code == 0
        assert out.strip() == "none"
    # Past the cap the command fails before it walks a single prime.
    def reached(*args):
        raise AssertionError("the scan walked the primes")

    monkeypatch.setattr("holoscreen.numbers._primes", reached)
    code, out, err = run(["numtheory", "wieferich", "--limit", 10**7 + 1],
                         capsys)
    assert code == 1
    assert out == ""
    assert "capped at 10000000" in err


def test_numtheory_suzuki(capsys):
    code, out, _ = run(["numtheory", "suzuki", "--ell", 3], capsys)
    assert code == 0
    assert out.strip() == "29120"


def test_numtheory_base_check(capsys):
    code, out, _ = run(["numtheory", "base-check", "--ell", 3], capsys)
    assert code == 0
    assert out.strip() == "eligible: base order 29120"
    code, out, _ = run(["numtheory", "base-check", "--ell", 5], capsys)
    assert code == 0
    assert out.strip() == "ineligible: 5^2 divides 4^5+1"
    code, out, _ = run(["numtheory", "base-check", "--ell", 9], capsys)
    assert code == 0
    assert out.strip() == "ineligible: 9 is not prime"
    # A part of (4^139 + 1)(2^139 - 1) keeps a composite cofactor with no
    # prime factor below 10^7, which the elliptic-curve method factors.
    code, out, _ = run(["numtheory", "base-check", "--ell", 139], capsys)
    assert code == 0
    assert out.strip() == f"eligible: base order {suzuki_order(139)}"


def test_numtheory_ell_cap(capsys, monkeypatch):
    # Past the cap both commands fail before they factor any part.
    def reached(*args):
        raise AssertionError("the check factored a part")

    monkeypatch.setattr("holoscreen.numbers.square_free_status", reached)
    for command, ell in (("suzuki", 1011), ("base-check", 1013),
                         ("base-check", 4423), ("base-check", 10007)):
        code, out, err = run(["numtheory", command, "--ell", ell], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: exponent capped at 1009, got {ell}\n"


def test_numtheory_solvable(capsys):
    code, out, _ = run(["numtheory", "solvable", 30], capsys)
    assert code == 0
    assert out.strip() == "30 is a solvable number"
    code, out, _ = run(["numtheory", "solvable", 60], capsys)
    assert code == 0
    assert "divisible by the simple group order 60" in out


def test_numtheory_conditions(capsys):
    code, out, _ = run(["numtheory", "conditions", "--n0", 60], capsys)
    assert code == 0
    assert "all hold: yes" in out
    code, out, _ = run(["numtheory", "conditions", "--n0", 360], capsys)
    assert code == 0
    assert "failure: 360/2 = 180 is not a solvable number" in out
    assert "all hold: no" in out
    # A negative bound used to skip both loops and report "all hold: yes".
    code, out, err = run(["numtheory", "conditions", "--n0", 420,
                          "--r-max", -1], capsys)
    assert code == 1
    assert "all hold" not in out
    assert err.startswith("error: r_max must be >= 0")
    code, out, _ = run(["numtheory", "conditions", "--n0", 420,
                        "--r-max", 0], capsys)
    assert code == 0
    assert "(2^0 * 420)/7 = 60 is not a solvable number" in out


def test_corpus_validate_ok(capsys):
    code, out, _ = run(["corpus", "validate", CORPORA / "o60"], capsys)
    assert code == 0
    assert "order 60, 13 groups, complete=yes" in out
    assert "result: ok" in out


def test_corpus_validate_failure(tmp_path, capsys):
    save_group(construct("cyclic(6)", name="c6"), tmp_path / "c6.grp")
    save_group(construct("abelian(2,3)", name="c6b"), tmp_path / "c6b.grp")
    write_index(tmp_path, 6, False, ["c6.grp", "c6b.grp"])
    code, out, _ = run(["corpus", "validate", tmp_path], capsys)
    assert code == 1
    assert "error: c6.grp and c6b.grp are isomorphic" in out
    assert "result: failed" in out


@pytest.mark.parametrize("line", ["order sixty", "order -5"])
def test_corpus_validate_bad_order_line(tmp_path, capsys, line):
    (tmp_path / "index.txt").write_text(f"{line}\ncomplete true\n")
    code, out, _ = run(["corpus", "validate", tmp_path], capsys)
    assert code == 1
    assert "index.txt:1: " in out
    assert "result: failed" in out


def test_corpus_validate_missing_directory(tmp_path, capsys):
    code, out, _ = run(["corpus", "validate", tmp_path / "nowhere"], capsys)
    assert code == 1
    assert "result: failed" in out


# Runs in a fresh interpreter, so that nothing imported by this test session
# counts.  Prints, after the import and after each command, its exit code
# and which of the modules named in its first argument are loaded.
WATCHED = ["sympy", "numpy", "hashlib", "concurrent.futures.process"]
MODULE_PROBE = """
import contextlib, io, json, sys
import holoscreen, holoscreen.cli
watched = json.loads(sys.argv[1])
def loaded():
    return [m for m in watched if m in sys.modules]
steps = [[0, loaded()]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = holoscreen.cli.main(argv)
    steps.append([code, loaded()])
print(json.dumps(steps))
"""


def probe(commands):
    """[exit code, set of loaded ``WATCHED`` modules] after the import (as
    code 0) and after each command, all in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(CORPORA.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, json.dumps(WATCHED),
         json.dumps(commands)],
        env=env, cwd=CORPORA.parent, capture_output=True, text=True,
        check=True)
    return [[code, set(mods)] for code, mods in json.loads(done.stdout)]


def test_only_number_theory_loads_sympy():
    o12 = str(CORPORA / "o12")
    group_side = [["corpus", "validate", o12],
                  ["screen", "--jobs", "1", "--corpus", o12],
                  ["direct", "--corpus", o12],
                  ["group", "regulars", "abelian(5,5)"]]
    # gl(2,3) runs first, so that its constructor is what loads sympy.
    arithmetic = [["group", "info", "gl(2,3)"], ["classify", "60"]]
    steps = probe(group_side + arithmetic)
    assert [[code, "sympy" in mods] for code, mods in steps] == (
        [[0, False]] * (1 + len(group_side)) + [[0, True]] * len(arithmetic))
    # The import loads none of the watched modules, and direct is the first
    # command here to build a holomorph.
    assert steps[0][1] == set()
    assert [("numpy" in mods, "concurrent.futures.process" in mods)
            for _, mods in steps[1:4]] == [(False, False), (False, False),
                                           (True, False)]


def test_only_holomorphs_load_numpy():
    o12 = str(CORPORA / "o12")
    arithmetic = [["classify", "60"],
                  ["numtheory", "wieferich", "--limit", "1000"],
                  ["numtheory", "base-check", "--ell", "5"]]
    corpus_side = [["corpus", "validate", o12],
                   ["screen", "--jobs", "1", "--corpus", o12]]
    steps = probe(arithmetic + corpus_side
                  + [["group", "regulars", "abelian(5,5)"]])
    assert [code for code, _ in steps] == [0] * len(steps)
    loaded = [mods - {"sympy"} for _, mods in steps]
    k = 1 + len(arithmetic)
    assert loaded[:k] == [set()] * k
    # The corpus commands hash the corpus and build no holomorph.
    assert loaded[k:-1] == [{"hashlib"}] * len(corpus_side)
    assert "numpy" in loaded[-1]
