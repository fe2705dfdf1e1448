"""scripts/bench_pairs.py's per-metric summary, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent, change, name="wall_s"):
    return [{side: {"metrics": {name: {"value": value}}}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def test_ratios_follow_the_pairs_not_the_sides(bench_pairs):
    # the seed spread hides the change in each side's values; each pair
    # shows it as 0.9 of its parent
    parent = [1.0, 2.0, 4.0, 8.0]
    block = bench_pairs.compare(WALL, runs(parent, [0.9 * p for p in parent]))
    ratio = block["ratio"]
    assert ratio["values"] == [0.9] * 4
    assert (ratio["median"], ratio["q1"], ratio["q3"], ratio["iqr"]) == (0.9, 0.9, 0.9, 0.0)
    assert ratio["n"] == 4 and ratio["wins"] == 4
    assert block["change_wins"] == 4
    assert not block["median_gap_exceeds_parent_iqr"]


def test_ratio_quartiles_and_wins_take_the_metric_direction(bench_pairs):
    parent = [10.0, 10.0, 10.0, 10.0, 10.0]
    change = [8.0, 9.0, 10.0, 11.0, 15.0]
    lower = bench_pairs.compare(WALL, runs(parent, change))["ratio"]
    assert lower["values"] == [0.8, 0.9, 1.0, 1.1, 1.5]
    assert (lower["median"], lower["q1"], lower["q3"]) == (1.0, 0.9, 1.1)
    assert lower["iqr"] == pytest.approx(0.2)
    assert lower["wins"] == 2  # the tie at 1.0 counts for neither side
    higher = bench_pairs.compare(RATE, runs(parent, change, RATE["name"]))["ratio"]
    assert higher["values"] == lower["values"] and higher["wins"] == 2


def test_a_zero_parent_value_has_no_ratio(bench_pairs):
    block = bench_pairs.compare(WALL, runs([0.0, 1.0], [0.5, 1.0]))
    assert block["ratio"] is None
    assert block["change_wins"] == 0
