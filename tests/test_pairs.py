"""The before/after summary of ``benchmarks/pairs.py``, on fixed numbers;
no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def runs(wall, setup, rss):
    return [{"wall_s": w, "setup_s": s, "peak_rss_mb": r, "extra": 0.0}
            for w, s, r in zip(wall, setup, rss)]


def test_summary_reports_quartiles_and_wins():
    before = runs([2.0, 2.4, 2.2, 2.6, 2.8], [0.3] * 5, [75.0] * 5)
    after = runs([1.5, 1.7, 2.3, 1.6, 2.9], [0.3, 0.29, 0.31, 0.3, 0.28],
                 [75.5] * 5)
    summary = pairs.summarize(before, after)
    assert set(summary) == {"wall_s", "setup_s", "peak_rss_mb"}
    wall = summary["wall_s"]
    assert (wall["before"]["q1"], wall["before"]["median"],
            wall["before"]["q3"]) == (2.2, 2.4, 2.6)
    assert (wall["after"]["q1"], wall["after"]["median"],
            wall["after"]["q3"]) == (1.6, 1.7, 2.3)
    assert wall["after"]["runs"] == [1.5, 1.7, 2.3, 1.6, 2.9]
    # Wins pair runs by position; a tie counts for neither side.
    assert wall["wins"] == 3
    assert summary["setup_s"]["wins"] == 2
    assert summary["peak_rss_mb"]["wins"] == 0


def test_summary_interpolates_quartiles_of_an_even_count():
    side = runs([1.0, 2.0, 3.0, 4.0], [0.3] * 4, [70.0] * 4)
    wall = pairs.summarize(side, side)["wall_s"]["before"]
    assert wall["q1"] == pytest.approx(1.75)
    assert wall["median"] == pytest.approx(2.5)
    assert wall["q3"] == pytest.approx(3.25)


def test_traced_runs_keep_each_run_and_the_median_per_side():
    before = [{"kernel.search_s": 0.30, "trace.wall_s": 0.9},
              {"kernel.search_s": 0.10, "trace.wall_s": 0.7},
              {"kernel.search_s": 0.20, "trace.wall_s": 0.8}]
    after = [{"kernel.search_s": 0.05, "trace.wall_s": 0.6},
             {"kernel.search_s": 0.07, "trace.wall_s": 0.5},
             {"kernel.search_s": 0.06, "trace.wall_s": 0.4}]
    traced = pairs.summarize_traced(before, after)
    assert traced["before"]["kernel.search_s"] == {
        "median": 0.20, "runs": [0.30, 0.10, 0.20]}
    assert traced["after"] == {
        "kernel.search_s": {"median": 0.06, "runs": [0.05, 0.07, 0.06]},
        "trace.wall_s": {"median": 0.5, "runs": [0.6, 0.5, 0.4]}}


def test_traced_runs_alternate_like_the_pairs():
    sides = {"before": "a", "after": "b"}
    assert pairs.TRACED_RUNS == 3
    assert [pairs.alternated(sides, i) for i in range(pairs.TRACED_RUNS)] == [
        ["before", "after"], ["after", "before"], ["before", "after"]]
