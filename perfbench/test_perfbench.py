"""Self-tests for the benchmark's own logic.

Run with ``python3 -m pytest -q perfbench`` from the root of a checkout.
"""

import filecmp
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from tracing import Span, SpanIndex

ROOT = Path(__file__).resolve().parent.parent


# -- self time on a synthetic trace ----------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("1", "cli.main", 0.0, 10.0, None),
        # Two children that overlap, as pool workers do, and a third.
        Span("2", "screening.trace_one", 1.0, 3.0, "1"),
        Span("3", "screening.trace_one", 2.0, 5.0, "1"),
        Span("4", "corpus.load", 7.0, 8.0, "1"),
        # A grandchild is already covered by its parent.
        Span("5", "lattice.fitting", 1.5, 2.5, "2"),
    ]
    ix = SpanIndex(spans)
    assert ix.self_time("cli.main") == pytest.approx(10.0 - 4.0 - 1.0)
    assert ix.self_time("screening.trace_one") == pytest.approx(1.0 + 3.0)
    assert ix.inclusive("screening.trace_one") == pytest.approx(5.0)


def test_nested_calls_of_one_name_count_once():
    spans = [
        Span("1", "corpus.load", 0.0, 4.0, None),
        Span("2", "corpus.load", 1.0, 2.0, "1"),
        Span("3", "corpus.load", 5.0, 6.0, None),
    ]
    ix = SpanIndex(spans)
    assert ix.inclusive("corpus.load") == pytest.approx(5.0)
    assert ix.calls("corpus.load") == 3


def test_layer_values_are_per_pass_and_ratios_use_their_base():
    spans = [
        Span("1", "kernel.search", 0.0, 2.0, None,
             {"nodes": 100, "records": 4}),
        Span("2", "isomorphism.iso", 2.0, 3.0, None, {"hits": 1}),
        Span("3", "isomorphism.iso", 3.0, 4.0, None, {"hits": 0}),
    ]
    values = tracing.layer_values(spans, passes=2)
    assert values["kernel.search_s"] == pytest.approx(1.0)
    assert values["kernel.nodes"] == 50
    assert values["kernel.yield"] == pytest.approx(0.04)
    assert values["isomorphism.iso_calls"] == 1
    assert values["isomorphism.iso_hit_ratio"] == pytest.approx(0.5)
    assert list(values) == [name for name, _, _ in tracing.LAYER_METRICS]
    assert tracing.missing_spans("direct-o60", spans, 2)


# -- the reference gate ----------------------------------------------------


def _direct_output(tmp_path, counts, nodes):
    groups = [{"name": "a5", "skipped": True}]
    for name, (regular, classes) in counts.items():
        groups.append({"name": name, "regular_count": regular,
                       "iso_classes": classes, "nodes": nodes[name],
                       "insolvable_count": 0, "exhausted": False})
    (tmp_path / "direct.json").write_text(json.dumps({"groups": groups}))
    return [(3, "direct check: order 60\nverdict: undecided\n", "")]


def _kept(table):
    return {k: v for k, v in table.items() if k not in workloads.DIRECT_DROPPED}


def test_gate_accepts_the_frozen_direct_counts(tmp_path):
    outputs = _direct_output(tmp_path, _kept(workloads.DIRECT_60),
                             _kept(workloads.DIRECT_60_NODES))
    assert workloads.check_pass("direct-o60", {}, outputs, {}, tmp_path) == []


def test_gate_rejects_a_wrong_direct_count(tmp_path):
    counts = _kept(workloads.DIRECT_60)
    counts["s3xd10"] = (639, 5)
    outputs = _direct_output(tmp_path, counts, _kept(workloads.DIRECT_60_NODES))
    problems = workloads.check_pass("direct-o60", {}, outputs, {}, tmp_path)
    assert len(problems) == 1 and "639" in problems[0]


def test_gate_rejects_a_wrong_node_count(tmp_path):
    nodes = _kept(workloads.DIRECT_60_NODES)
    nodes["c60"] += 1
    outputs = _direct_output(tmp_path, _kept(workloads.DIRECT_60), nodes)
    assert workloads.check_pass("direct-o60", {}, outputs, {}, tmp_path)


def test_gate_rejects_wrong_wide_aut_nodes(tmp_path):
    out = ("|Hol| = 12000\nregular subgroups: 25 (complete, nodes=651)\n"
           "  class 0: 25 subgroups, solvable, element orders 1^1 5^24\n")
    inputs = {"bases": ["abelian(5,5)"]}
    problems = workloads.check_pass("wide-aut", inputs, [(0, out, "")], {},
                                    tmp_path)
    assert len(problems) == 1
    good = out.replace("nodes=651", "nodes=650")
    assert workloads.check_pass("wide-aut", inputs, [(0, good, "")], {},
                                tmp_path) == []


def test_classification_reference_matches_known_orders():
    table = workloads.read_simple_orders(ROOT)
    assert workloads.expected_classification(60, table) == (
        False, True, (60, 0), "doubling-family")
    assert workloads.expected_classification(29120, table)[2:] == (
        (29120, 0), "doubling-family")
    assert workloads.expected_classification(2**10, table)[3] == (
        "trivial-solvable")


# -- seed determinism ------------------------------------------------------


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    return not mismatch and not errors and all(
        _same_tree(a / d, b / d) for d in cmp.common_dirs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    workloads.make_inputs(workload, 3, ROOT, tmp_path / "a")
    workloads.make_inputs(workload, 3, ROOT, tmp_path / "b")
    assert _same_tree(tmp_path / "a", tmp_path / "b")


def _members(work: Path) -> dict:
    """Every corpus copy under ``work``: name -> sorted index lines."""
    return {d.name: sorted((d / "index.txt").read_text().splitlines())
            for d in work.iterdir() if d.is_dir()}


@pytest.mark.parametrize("workload", ["direct-o60", "wide-aut",
                                      "screen-corpora"])
def test_other_seed_changes_order_not_references(tmp_path, workload):
    seeds = {s: workloads.make_inputs(workload, s, ROOT, tmp_path / str(s))
             for s in range(1, 6)}
    orders = {json.dumps(v).replace(str(tmp_path / str(s)), "")
              for s, v in seeds.items()}
    index_orders = {(tmp_path / str(s) / "o60" / "index.txt").read_text()
                    for s in seeds if (tmp_path / str(s) / "o60").is_dir()}
    assert len(orders) > 1 or len(index_orders) > 1
    first = _members(tmp_path / "1")
    for s in seeds:
        assert _members(tmp_path / str(s)) == first
    if workload == "wide-aut":
        assert all(sorted(v["bases"]) == sorted(workloads.WIDE_AUT)
                   for v in seeds.values())


def test_other_seed_samples_other_orders(tmp_path):
    a = workloads.make_inputs("numtheory", 1, ROOT, tmp_path / "a")["orders"]
    b = workloads.make_inputs("numtheory", 2, ROOT, tmp_path / "b")["orders"]
    assert a != b and len(a) == len(b) == workloads.CLASSIFY_SAMPLE
    assert max(a + b) <= workloads.CLASSIFY_MAX


# -- tracing ---------------------------------------------------------------


def test_spans_from_a_forked_child_are_merged_with_their_counts(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    hook = tracing.Hook("none", "f", "x.f", count=lambda result: {"n": result})
    traced = tracer.wrap(lambda: 7, hook)
    child = multiprocessing.get_context("fork").Process(target=traced)
    child.start()
    child.join(30)
    assert child.exitcode == 0
    traced()
    spans = tracer.collect()
    assert [s.counts["n"] for s in spans] == [7, 7]
    assert len({s.id.split(".")[0] for s in spans}) == 2


def test_tracer_patches_where_callers_look_names_up(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import holoscreen.cli  # noqa: F401

    hol = sys.modules["holoscreen.holomorph"]
    cli = sys.modules["holoscreen.cli"]
    auts = sys.modules["holoscreen.automorphisms"]
    originals = (hol.are_isomorphic, cli.holomorph, auts.AutGroup.table)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        assert hol.are_isomorphic is not originals[0]
        assert cli.holomorph is not originals[1]
        assert auts.AutGroup.table is not originals[2]
        code, out, _ = workloads.call_cli(["group", "regulars",
                                           "abelian(2,2)"])
    finally:
        tracer.restore()
    assert (hol.are_isomorphic, cli.holomorph, auts.AutGroup.table) == originals
    assert code == 0 and "regular subgroups:" in out
    ix = SpanIndex(tracer.collect())
    for name in ("cli.main", "holomorph.build", "automorphisms.table",
                 "kernel.search", "holomorph.classify"):
        assert ix.calls(name) >= 1, name
    assert ix.by_id[ix.named("holomorph.build")[0].parent].name == "cli.main"
