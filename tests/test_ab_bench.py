"""tools/ab_bench.py, loaded by path: its summary of paired benchmark runs is
what a BENCH_<label>.json file reports."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(**metrics):
    """A last line as perfbench/run.py prints it."""
    values = {name: {"value": value, "unit": "s"} for name, value in metrics.items()}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": values})


def _runs(workload, parent, change, metric):
    """Ten pairs of runs whose `metric` takes the given values per side."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "pair": pair, "side": side, "last_line": _line(**{metric: value})})
    return runs


def test_summary_gives_quartiles_ratio_and_pairs_won(tool):
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [5, 6, 7, 8, 9, 10, 11, 12, 13, 19]  # the last pair ties
    got = tool.summarize(_runs("w", parent, change, "fit_s"), [("fit_s", "lower")])["w"]["fit_s"]
    assert got["parent_q1_median_q3"] == [11.75, 14.5, 17.25]
    assert got["change_q1_median_q3"] == [6.75, 9.5, 12.25]
    assert got["ratio_of_medians"] == 9.5 / 14.5
    assert (got["change_wins"], got["parent_wins"], got["pairs"]) == (9, 0, 10)


def test_higher_is_better_metrics_count_the_larger_value_as_the_win(tool):
    parent = [13.0] * 10
    change = [14.0, 12.0] + [13.0] * 8
    got = tool.summarize(_runs("w", parent, change, "digits"), [("digits", "higher")])["w"]["digits"]
    assert (got["change_wins"], got["parent_wins"], got["pairs"]) == (1, 1, 10)
    assert got["ratio_of_medians"] == 1.0


def test_a_run_without_a_result_leaves_its_pair_out(tool):
    runs = _runs("a", [2.0] * 4, [1.0] * 4, "t") + _runs("b", [1.0] * 3, [1.0] * 3, "t")
    runs[0]["last_line"] = "Traceback (most recent call last):"
    summary = tool.summarize(runs, [("t", "lower"), ("missing", "lower")])
    assert list(summary) == ["a", "b"]
    a = summary["a"]["t"]
    assert (a["change_wins"], a["pairs"]) == (3, 3)
    assert a["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
    assert summary["b"]["t"]["change_wins"] == summary["b"]["t"]["parent_wins"] == 0
    assert summary["a"]["missing"] == {
        "parent_q1_median_q3": [None] * 3,
        "change_q1_median_q3": [None] * 3,
        "ratio_of_medians": None,
        "change_wins": 0,
        "parent_wins": 0,
        "pairs": 0,
    }
    rows = tool.table(summary).splitlines()
    assert len(rows) == 2 + 4 and "| a | `t` | 2 [2–2] | 1 [1–1] | -50.0 % | 3/3 |" in rows
