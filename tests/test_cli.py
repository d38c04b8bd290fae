"""Command-line interface, run in process via main(argv)."""

import hashlib
import json
from pathlib import Path

import pytest

import holoscreen.cli as cli
from holoscreen.cli import main
from holoscreen.corpus import construct, save_group, write_index
from holoscreen.screening import ScreenReport

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


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


@pytest.mark.parametrize("argv", [
    ["group", "regulars", "cyclic(4)", "--budget", "-1"],
    ["group", "regulars", "cyclic(4)", "--order-cap", "0"],
    ["group", "aut", "cyclic(4)", "--aut-cap", "0"],
    ["screen", "--corpus", CORPORA / "o4", "--subgroup-cap", "0"],
    ["direct", "--corpus", CORPORA / "o4", "--budget", "-1"],
    ["direct", "--corpus", CORPORA / "o4", "--timings"],
    # Removed with the second search kernel; it is no longer accepted.
    ["direct", "--corpus", CORPORA / "o4", "--backend", "pure"],
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
    # the |Aut|^2 composition array is built.
    code, out, err = run(["group", "regulars", target], capsys)
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


def test_screen_order_60(capsys):
    code, out, _ = run(["screen", "--order", 60, "--corpus", CORPORA / "o60",
                        "--jobs", 1], capsys)
    assert code == 0
    assert "verdict: holds" in out
    assert "screen: order 60" in out


def test_screen_writes_reports(tmp_path, capsys):
    text = tmp_path / "report.txt"
    doc = tmp_path / "report.json"
    code, out, _ = run(["screen", "--corpus", CORPORA / "o4", "--jobs", 1,
                        "--out", text, "--json", doc], capsys)
    assert code == 0
    assert text.read_text() == out
    parsed = json.loads(doc.read_text())
    assert parsed["schema"] == "holoscreen.screen/1"
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
        traces=(), skip_outer=False, verdict="holds-conditional-on(30)")
    monkeypatch.setattr(cli, "screen_order", lambda *a, **k: report)
    code, out, _ = run(["screen", "--corpus", "fake"], capsys)
    assert code == 2
    assert "verdict: holds-conditional-on(30)" in out


def test_screen_undecided_exit_code(monkeypatch, capsys):
    report = ScreenReport(
        n=60, corpus_dir="fake", corpus_hash="0" * 64, complete=True,
        solvable_number=False, insolvable_names=("a5",), order_sets=None,
        traces=(), skip_outer=False, verdict="undecided",
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


@pytest.mark.parametrize("target,text_sha", [
    ("abelian(5,5,2)",
     "be25ecbcdca0b7b8baa3422dee625e71262d5ea309c90806349b7f40fba3e20c"),
    ("dihedral(12)",
     "5050874a2c338bb626be375694f63eb01bf43e269f30d1da29fa07398bdd9b8f"),
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


def test_numtheory_wieferich(capsys):
    code, out, _ = run(["numtheory", "wieferich", "--limit", 10000], capsys)
    assert code == 0
    assert out.strip() == "1093 3511"
    code, out, _ = run(["numtheory", "wieferich", "--limit", 100], capsys)
    assert code == 0
    assert out.strip() == "none"


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


def test_corpus_validate_ok(capsys):
    code, out, _ = run(["corpus", "validate", CORPORA / "o60"], capsys)
    assert code == 0
    assert "order 60, 13 groups, complete=yes" in out
    assert "result: ok" in out


def test_corpus_validate_lax(capsys):
    code, out, _ = run(["corpus", "validate", CORPORA / "o60", "--lax"],
                       capsys)
    assert code == 0
    assert "result: ok" in out


def test_corpus_validate_failure(tmp_path, capsys):
    save_group(construct("cyclic(6)", name="c6"), tmp_path / "c6.grp")
    save_group(construct("abelian(2,3)", name="c6b"), tmp_path / "c6b.grp")
    write_index(tmp_path, 6, False, ["c6.grp", "c6b.grp"])
    code, out, _ = run(["corpus", "validate", tmp_path], capsys)
    assert code == 1
    assert "error: c6.grp and c6b.grp are isomorphic" in out
    assert "result: failed" in out


def test_corpus_validate_missing_directory(tmp_path, capsys):
    code, out, _ = run(["corpus", "validate", tmp_path / "nowhere"], capsys)
    assert code == 1
    assert "result: failed" in out
