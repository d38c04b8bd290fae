"""Screening pipeline: order sets, the stage table, reports, single pairs."""

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from holoscreen import automorphisms, screening
from holoscreen.automorphisms import AUT_LIST_CAP
from holoscreen.corpus import CorpusManifest, construct, load_manifest
from holoscreen.errors import CapExceeded
from holoscreen.lattice import fitting_subgroup
from holoscreen.screening import (REPORT_SCHEMA, STAGES, Candidate,
                                  SubgroupOrderSets, _trace_one,
                                  build_order_sets, get_stage, render_report,
                                  screen_order)

CORPORA = Path(__file__).resolve().parent.parent / "corpora"

# Computed once with this package and frozen; a change means the shipped
# corpus files changed.
O60_HASH = "521e6a6792bf6918e5ffb5fcf987d8458a57040807fdaf6e8b7afdc38543c5f8"
O4_HASH = "a3d6e01e32f356c8a7fc4e24bcbc6fa2bb02b51eff24d72cecaff450bc775789"

FITTING_ORDERS_60 = {
    "c60": 60, "c30xc2": 60, "d60": 30, "s3xd10": 15, "s3xc10": 30,
    "d10xc6": 30, "a4xc5": 20, "f20xc3": 15, "c15sc4": 15, "dic15": 30,
    "dic5xc3": 30, "dic3xc5": 30,
}


@pytest.fixture(scope="module")
def o60():
    return load_manifest(CORPORA / "o60")


@pytest.fixture(scope="module")
def o60_records(o60):
    return {r.name: r for r in o60.records}


@pytest.fixture(scope="module")
def sets60(o60_records):
    return build_order_sets([o60_records["a5"]], 60)


def test_order_sets_for_a5(sets60):
    assert sets60.n == 60
    assert sorted(sets60.solvable_orders) == [1, 2, 3, 4, 5, 6, 10, 12]
    assert sorted(sets60.all_orders) == [1, 2, 3, 4, 5, 6, 10, 12, 60]


def test_order_sets_empty_input():
    sets = build_order_sets([], 4)
    assert sets.n == 4
    assert not sets.solvable_orders
    assert not sets.all_orders


def test_order_sets_input_errors(o60_records):
    a5 = o60_records["a5"]
    s5 = load_manifest(CORPORA / "o120").records[0]
    with pytest.raises(ValueError, match="mixed orders"):
        build_order_sets([a5, s5], 60)
    with pytest.raises(ValueError, match="order 60, not 30"):
        build_order_sets([a5], 30)
    with pytest.raises(ValueError, match="expected insolvable"):
        build_order_sets([o60_records["c60"]], 60)
    with pytest.raises(CapExceeded):
        build_order_sets([a5], 60, cap=3)


def passes(stage, record, sets=None):
    """Whether ``record`` survives one stage on its own, ungated."""
    return get_stage(stage).evaluate(Candidate(record, sets))[1]


def test_stage_table():
    assert [s.name for s in STAGES] == ["fitting", "aut", "half-index",
                                        "char-orders", "outer-gcd"]
    assert [s.name for s in STAGES if s.drop] == ["fitting", "aut"]
    assert [s.name for s in STAGES if s.conditional] == ["half-index"]


def test_fitting_orders_frozen(o60_records, sets60):
    for name, expected in FITTING_ORDERS_60.items():
        record = o60_records[name]
        assert fitting_subgroup(record.table).order == expected, name
        # None of these orders is a solvable subgroup order of A5.
        assert not passes("fitting", record, sets60), name


def test_filters_on_c60(o60_records, sets60):
    c60 = o60_records["c60"]
    # Aut(C60) is abelian of order 16, so the aut stage drops C60.
    assert not passes("aut", c60)
    assert Candidate(c60).char_orders == (1, 2, 3, 4, 5, 6, 10, 12, 15, 20,
                                          30, 60)
    # 30 is characteristic of index two.
    assert not passes("half-index", c60)
    # 15, 20, 30 are not subgroup orders of A5.
    assert get_stage("char-orders").evaluate(Candidate(c60, sets60)) == (
        [15, 20, 30], False)
    # |Out(C60)| = 16 and gcd(60, 16) = 4 is a solvable number.
    assert get_stage("outer-gcd").evaluate(Candidate(c60, sets60)) == (
        16, False)


def test_half_index_filter_odd_order():
    c5 = load_manifest(CORPORA / "o5").records[0]
    assert passes("half-index", c5)


def test_screen_order_60(o60):
    report = screen_order(o60)
    assert report.verdict == "holds"
    assert report.n == 60
    assert report.corpus_hash == O60_HASH
    assert report.solvable_number is False
    assert report.insolvable_names == ("a5",)
    assert not report.problems
    assert len(report.traces) == 12
    # Every solvable group of order 60 falls at the first filter.
    assert report.stage_names("fitting") == ()
    assert report.stage_names("aut") == ()
    assert report.stage_names("unconditional") == ()
    assert report.stage_names("conditional") == ()


def test_screen_order_4():
    report = screen_order(CORPORA / "o4")
    assert report.verdict == "holds"
    assert report.corpus_hash == O4_HASH
    assert report.solvable_number is True
    assert report.insolvable_names == ()
    assert report.order_sets is not None
    assert not report.order_sets.all_orders
    rendered = render_report(report)
    assert "insolvable groups (0): none" in rendered


def test_screen_rejects_incomplete_corpus():
    with pytest.raises(ValueError, match="completeness"):
        screen_order(CORPORA / "o120")


def test_screen_rejects_wrong_order(o60):
    with pytest.raises(ValueError, match="corpus has order 60"):
        screen_order(o60, 30)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the real process pools started, in order."""
    sizes = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        CountingPool)
    return sizes


def test_pool_no_larger_than_the_work(monkeypatch, stage_cases, pool_sizes):
    # No group of order 4 passes the Fitting stage on the shipped order
    # sets, so no pool starts however many jobs are asked for.
    report = screen_order(CORPORA / "o4", jobs=10**6)
    assert pool_sizes == []
    assert report.to_json() == screen_order(CORPORA / "o4").to_json()
    # All five groups of order 8 pass it here: one pool, one worker each.
    corpus, sets = stage_cases["o8"]
    report = screen_with_sets(monkeypatch, corpus, sets, jobs=10**6)
    assert pool_sizes == [5]
    assert report.to_json() == screen_with_sets(monkeypatch, corpus,
                                                sets).to_json()


def test_json_report(o60):
    report = screen_order(o60)
    doc = json.loads(report.to_json())
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["order"] == 60
    assert doc["corpus_sha256"] == O60_HASH
    assert doc["complete_claim"] is True
    assert doc["solvable_number"] is False
    assert doc["insolvable_groups"] == ["a5"]
    assert doc["order_sets"]["solvable_subgroup_orders"] == [1, 2, 3, 4, 5, 6,
                                                             10, 12]
    assert doc["order_sets"]["subgroup_orders"] == [1, 2, 3, 4, 5, 6, 10, 12,
                                                    60]
    assert doc["survivors_unconditional"] == []
    assert doc["survivors_conditional"] == []
    assert doc["verdict"] == "holds"
    assert doc["problems"] == []
    assert len(doc["traces"]) == 12
    for entry in doc["traces"]:
        assert entry["fitting_order"] == FITTING_ORDERS_60[entry["name"]]
        assert entry["passed_fitting"] is False
        assert entry["aut_order"] is None
        assert entry["error"] is None


def test_render_report_lines(o60):
    report = screen_order(o60)
    rendered = render_report(report)
    assert rendered.startswith("screen: order 60\n")
    assert "corpus sha256: " + O60_HASH in rendered
    assert "verdict relies on the corpus completeness claim" in rendered
    assert "insolvable groups (1): a5" in rendered
    assert "solvable subgroup orders: 1 2 3 4 5 6 10 12" in rendered
    for name in FITTING_ORDERS_60:
        assert name in rendered
    assert rendered.count("dropped: fitting order") == 12
    assert rendered.rstrip().endswith("verdict: holds")


def test_stage_names_rejects_unknown_stage(o60):
    report = screen_order(o60)
    with pytest.raises(ValueError, match="unknown stage"):
        report.stage_names("nonsense")


def test_timings_do_not_change_content(o60):
    plain = screen_order(o60).to_json_dict()
    timed = screen_order(o60, timings=True).to_json_dict()
    timed.pop("seconds")
    for entry in timed["traces"]:
        entry.pop("seconds")
    assert plain == timed


def test_timings_include_the_fitting_check(monkeypatch, stage_cases,
                                           pool_sizes):
    # The Fitting check runs before the trace, in process; each group's
    # time still counts it, whether the later stages ran in a worker or
    # not.
    fitting = screening.fitting_subgroup

    def slow_fitting(table):
        time.sleep(0.05)
        return fitting(table)

    monkeypatch.setattr(screening, "fitting_subgroup", slow_fitting)
    report = screen_order(CORPORA / "o4", timings=True)
    assert all(t.seconds >= 0.05 for t in report.traces)
    report = screen_with_sets(monkeypatch, *stage_cases["o8"], jobs=2,
                              timings=True)
    assert pool_sizes == [2]
    assert all(t.seconds >= 0.05 for t in report.traces)


def test_pair_test_fitting_exclusion(o60_records):
    # A5 has no solvable subgroup of order |Fit(N)| for N = C60 or D60.
    sets = build_order_sets([o60_records["a5"]], 60)
    fitting = get_stage("fitting")
    assert fitting.evaluate(Candidate(o60_records["c60"], sets)) == (60, False)
    assert fitting.evaluate(Candidate(o60_records["d60"], sets)) == (30, False)


def test_pair_test_char_orders_exclusion():
    o120 = {r.name: r for r in load_manifest(CORPORA / "o120").records}
    s4xc5 = construct("direct(symmetric(4),cyclic(5))", name="s4xc5")
    assert Candidate(s4xc5).char_orders == (1, 4, 5, 12, 20, 24, 60, 120)
    # S5 has subgroups of every characteristic order of S4 x C5, and a
    # solvable one of order |Fit| = 20, so the pair survives.
    s5 = Candidate(s4xc5, build_order_sets([o120["s5"]], 120))
    assert get_stage("fitting").evaluate(s5) == (20, True)
    assert get_stage("char-orders").evaluate(s5) == ([], True)
    # SL(2,5) has no subgroup of order 60, which is characteristic here.
    sl25 = Candidate(s4xc5, build_order_sets([o120["sl25"]], 120))
    assert get_stage("fitting").evaluate(sl25) == (20, True)
    assert get_stage("char-orders").evaluate(sl25) == ([60], False)


# -- every stage, driven by synthetic order sets ---------------------------
#
# No shipped complete corpus gets a solvable group past the Fitting stage,
# so these cases replace the order sets with synthetic ones.  Frozen from
# this package: each case names the SHA-256 of the text report and of the
# JSON report.  Every verdict is "holds", since each case fails outer-gcd.


def divisor_sets(n, drop=()):
    """Order sets allowing every divisor of n except those in ``drop``."""
    orders = frozenset(d for d in range(1, n + 1)
                       if n % d == 0 and d not in drop)
    return SubgroupOrderSets(n, orders, orders)


def synthetic_corpus(expr, name):
    record = construct(expr, name=name)
    return CorpusManifest(order=record.order, complete=True,
                          directory=Path(f"synthetic/o{record.order}"),
                          files=(f"{name}.grp",), records=(record,))


@pytest.fixture(scope="module")
def stage_cases():
    o8 = dataclasses.replace(load_manifest(CORPORA / "o8"),
                             directory=Path("corpora/o8"))
    c2c2c2xc3 = synthetic_corpus("direct(abelian(2,2,2),cyclic(3))",
                                 "c2c2c2xc3")
    return {
        # c2c2c2 reaches every stage and fails only outer-gcd; the other
        # groups of order 8 have solvable Aut.
        "o8": (o8, divisor_sets(8)),
        "c2c2c2xc3": (c2c2c2xc3, divisor_sets(24)),
        # 3 is a characteristic order but not an allowed subgroup order.
        "c2c2c2xc3-no-3": (c2c2c2xc3, divisor_sets(24, drop=(3,))),
        # Omega_1 = C2^4 is characteristic of index two.
        "c2c2c2xc4": (synthetic_corpus("direct(abelian(2,2,2),cyclic(4))",
                                       "c2c2c2xc4"), divisor_sets(32)),
    }


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def screen_with_sets(monkeypatch, corpus, sets, **kwargs):
    monkeypatch.setattr(screening, "build_order_sets",
                        lambda *args, **kw: sets)
    return screen_order(corpus, **kwargs)


STAGE_GOLDEN = [
    ("o8",
     "c941b5ee1522f16d44a94b089a9daa327a0e34f5d24d9c5513a5eafc0c9a3cdc",
     "74821421b6c4056061b09c5c119c9935d807f4038d1ad5e55d7f466191bdd2f6"),
    ("c2c2c2xc3",
     "9ecdc14f52c1526de5a8fd8b81d305c3a5c53d13005c0e9d251c4d41f5ea90f9",
     "a3b10526566fa7800ecf12644e590613a36e811b44d279842eb6302e393a8fba"),
    ("c2c2c2xc3-no-3",
     "1f14982cd5f13e86da40fe3e1ec7806e3db9ac629f5db2e0b5e794c118b9e2d5",
     "76267adda7ad19dc31e5681ee7e9b06e75b5061b2ab39df682414a86598d647f"),
    ("c2c2c2xc4",
     "16aa8053f40dc15a5a285952e55e81ac851c6c633186212b357578438c56d28f",
     "b3f1451f296a1fffdfc773b3ee3669444abee2180218ea558caf4dc42a0c492c"),
]


@pytest.mark.parametrize(
    "case,text_sha,json_sha", STAGE_GOLDEN,
    ids=[f"{g[0]}-outer" for g in STAGE_GOLDEN])
def test_every_stage_reports_frozen(monkeypatch, stage_cases, case, text_sha,
                                    json_sha):
    corpus, sets = stage_cases[case]
    report = screen_with_sets(monkeypatch, corpus, sets)
    assert report.verdict == "holds"
    assert not report.problems
    assert sha256(render_report(report)) == text_sha
    assert sha256(report.to_json()) == json_sha


def test_screen_parallel_matches_serial(monkeypatch, stage_cases, pool_sizes):
    # Every group of order 8 passes the Fitting stage here, so jobs=2
    # really starts a pool of two and runs the later stages in it.
    corpus, sets = stage_cases["o8"]
    serial = screen_with_sets(monkeypatch, corpus, sets)
    parallel = screen_with_sets(monkeypatch, corpus, sets, jobs=2)
    assert render_report(parallel) == render_report(serial)
    assert parallel.to_json() == serial.to_json()
    _, text_sha, json_sha = next(g for g in STAGE_GOLDEN if g[0] == "o8")
    assert sha256(render_report(parallel)) == text_sha
    assert sha256(parallel.to_json()) == json_sha
    # a4 (|Fit| = 4) stops at Fitting in process, between groups that go
    # on in the pool; the traces still come back in corpus order.
    corpus = load_manifest(CORPORA / "o12")
    sets = divisor_sets(12, drop=(4,))
    serial = screen_with_sets(monkeypatch, corpus, sets)
    parallel = screen_with_sets(monkeypatch, corpus, sets, jobs=2)
    assert [t.name for t in parallel.traces] == [
        "c12", "c6xc2", "d12", "a4", "dic3"]
    assert [t.passed_fitting for t in parallel.traces] == [
        True, True, True, False, True]
    assert render_report(parallel) == render_report(serial)
    assert parallel.to_json() == serial.to_json()
    assert pool_sizes == [2, 2]


def test_every_stage_trace_facts(stage_cases):
    def trace(case, name):
        corpus, sets = stage_cases[case]
        record = next(r for r in corpus.records if r.name == name)
        return _trace_one((Candidate(record, sets), False))

    for case, name, aut, char in [("o8", "c2c2c2", 168, (1, 8)),
                                  ("c2c2c2xc3", "c2c2c2xc3", 336,
                                   (1, 3, 8, 24))]:
        t = trace(case, name)
        assert (t.passed_fitting, t.aut_order, t.aut_insolvable) == (
            True, aut, True), name
        assert t.char_orders == char
        assert t.passed_half_index and t.passed_char_orders
        assert (t.outer_order, t.passed_outer_gcd) == (aut, False)
        assert t.error is None
    t = trace("o8", "q8")
    assert (t.aut_order, t.aut_insolvable, t.char_orders) == (24, False, None)
    t = trace("c2c2c2xc3-no-3", "c2c2c2xc3")
    assert t.passed_half_index and not t.passed_char_orders
    t = trace("c2c2c2xc4", "c2c2c2xc4")
    assert t.char_orders == (1, 2, 16, 32)
    assert not t.passed_half_index and t.passed_char_orders


def test_every_stage_o8_report_text(monkeypatch, stage_cases):
    report = screen_with_sets(monkeypatch, *stage_cases["o8"])
    lines = render_report(report).splitlines()
    assert lines[9:] == [
        "  c8     fit=8  |Aut|=4  dropped: Aut solvable",
        "  c4xc2  fit=8  |Aut|=8  dropped: Aut solvable",
        "  c2c2c2 fit=8  |Aut|=168  char orders=1,8  half-index=yes  "
        "char-orders=yes  |Out|=168  outer-gcd=no",
        "  d8     fit=8  |Aut|=8  dropped: Aut solvable",
        "  q8     fit=8  |Aut|=24  dropped: Aut solvable",
        "past fitting (5): c8, c4xc2, c2c2c2, d8, q8",
        "past aut (1): c2c2c2",
        "past half-index (1): c2c2c2",
        "past char-orders (1): c2c2c2",
        "past outer-gcd (0): -",
        "survivors, unconditional path (0): -",
        "survivors, conditional path (0): -",
        "verdict: holds",
    ]


def test_conditional_verdict(monkeypatch, stage_cases):
    # No case here passes outer-gcd, so this one lets every group pass it.
    # c2c2c2xc4 then survives every unconditional stage and fails only
    # half-index, which reduces the question to order 16.
    outer = dataclasses.replace(get_stage("outer-gcd"),
                                test=lambda c, outer: True)
    monkeypatch.setattr(screening, "STAGES", STAGES[:-1] + (outer,))
    report = screen_with_sets(monkeypatch, *stage_cases["c2c2c2xc4"])
    assert report.verdict == "holds-conditional-on(16)"
    assert report.stage_names("unconditional") == ("c2c2c2xc4",)
    assert report.stage_names("conditional") == ()
    assert render_report(report).splitlines()[-3:] == [
        "survivors, unconditional path (1): c2c2c2xc4",
        "survivors, conditional path (0): -",
        "verdict: holds-conditional-on(16)",
    ]


def test_every_stage_aut_cap_error(monkeypatch, stage_cases):
    # n * |Aut| passes 24 for every group of order 8: |Aut(C8)| = 4 > 3.
    monkeypatch.setattr(automorphisms, "AUT_LIST_CAP", 24)
    corpus, sets = stage_cases["o8"]
    report = screen_with_sets(monkeypatch, corpus, sets)
    assert report.verdict == "undecided"
    assert report.problems[0] == ("c8: |Aut| exceeds automorphism order "
                                  "cap 3")
    entry = json.loads(report.to_json())["traces"][0]
    assert entry == {
        "name": "c8", "fitting_order": 8, "passed_fitting": True,
        "aut_order": None, "aut_insolvable": None, "char_orders": None,
        "passed_half_index": None, "passed_char_orders": None,
        "outer_order": None, "passed_outer_gcd": None,
        "error": "|Aut| exceeds automorphism order cap 3"}
    assert "  c8     error: |Aut| exceeds automorphism order cap 3" in (
        render_report(report))


def test_aut_stage_caps_the_automorphism_count():
    # |Aut(C2^5)| = 9,999,360: with order sets that pass the Fitting
    # stage, the Aut stage stops at n * |Aut| = AUT_LIST_CAP.
    record = construct("abelian(2,2,2,2,2)", name="c2^5")
    trace = _trace_one((Candidate(record, divisor_sets(32)), False))
    assert trace.passed_fitting is True
    assert trace.aut_order is None
    assert trace.error == ("|Aut| exceeds automorphism order cap %d"
                           % (AUT_LIST_CAP // 32))
