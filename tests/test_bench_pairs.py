"""scripts/bench_pairs.py's per-metric summary, on synthetic runs."""

import importlib.util
import json
import os
import re
import subprocess
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


def test_test_wall_times_are_taken_in_each_checkout_before_the_pairs(
        bench_pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["bench"], "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [WALL]}))
    calls = []

    def run(cmd, cwd, **kwargs):
        # a stand-in for subprocess.run: pytest prints its summary last,
        # the benchmark its JSON result
        calls.append((Path(cwd).name, cmd))
        if cmd[0] == "bench":
            result = {"metrics": {"wall_s": {"value": 1.0}}, "correct": True, "failed": 0}
            return subprocess.CompletedProcess(cmd, 0, json.dumps(result), "")
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == "src"
        return subprocess.CompletedProcess(cmd, 0, "...\n7 passed in 0.01s\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--pr", "5",
                             "--parent-commit", "abc", "--note", "given"]) == 0
    tests = [(where, cmd[-1]) for where, cmd in calls[:4]]
    assert tests == [("parent", "--continue-on-collection-errors"),
                     ("parent", "tests/test_acceptance.py"),
                     ("change", "--continue-on-collection-errors"),
                     ("change", "tests/test_acceptance.py")]
    assert [(where, cmd[-1]) for where, cmd in calls[4:6]] == [
        ("parent", bench_pairs.ENGINE_PROBE), ("change", bench_pairs.ENGINE_PROBE)]
    assert all(cmd[0] == "bench" for _, cmd in calls[6:])
    assert len(calls[6:]) == 2 * bench_pairs.PAIRS
    notes = json.loads((tmp_path / "BENCH_5.json").read_text())["notes"]
    assert notes[0] == "given"
    # the checkouts hold no src/pidlab
    assert notes[1:3] == ["src/pidlab in parent: 0 lines, 0 code lines",
                          "src/pidlab in change: 0 lines, 0 code lines"]
    assert notes[3:5] == ["engine in parent: 7 passed in 0.01s",
                          "engine in change: 7 passed in 0.01s"]
    assert [note.partition(":")[0] for note in notes[5:]] == [
        "tier-1 in parent", "tests/test_acceptance.py in parent",
        "tier-1 in change", "tests/test_acceptance.py in change"]
    assert all(re.fullmatch(r".*: \d+\.\d s wall, exit 0, '7 passed in 0.01s'", note)
               for note in notes[5:])


MODULE = '''"""A module docstring
on two lines."""

# a comment
X = 1  # a trailing comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return """a string
that is not a docstring"""
'''


def test_each_checkout_notes_its_code_size(bench_pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "pidlab").mkdir(parents=True)
        (checkout / "src" / "pidlab" / "a.py").write_text(MODULE)
    (change / "src" / "pidlab" / "b.py").write_text("\n\ny = 2\n")
    (change / "src" / "pidlab" / "notes.txt").write_text("not python\n")
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["bench"], "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [WALL]}))

    def run(cmd, cwd, **kwargs):
        if cmd[0] != "bench":
            return subprocess.CompletedProcess(cmd, 0, "7 passed\n", "")
        result = {"metrics": {"wall_s": {"value": 1.0}}, "correct": True, "failed": 0}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--pr", "8",
                             "--parent-commit", "abc"]) == 0
    notes = json.loads((tmp_path / "BENCH_8.json").read_text())["notes"]
    # code lines: X = 1, class A:, def f(self): and the two lines of return
    assert notes[:2] == ["src/pidlab in parent: 15 lines, 5 code lines",
                         "src/pidlab in change: 18 lines, 6 code lines"]


def test_a_claim_adds_one_traced_run_of_its_workload_per_checkout(
        bench_pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["bench"], "run_seconds": 1,
        "workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": [WALL]}))
    calls = []

    def run(cmd, cwd, **kwargs):
        # a stand-in for subprocess.run: traced runs report per-layer
        # values, the change's layer half the parent's
        if cmd[0] != "bench":
            return subprocess.CompletedProcess(cmd, 0, "7 passed\n", "")
        calls.append((Path(cwd).name, cmd))
        if cmd[-1] == "1":
            layer = 2.0 if Path(cwd).name == "parent" else 1.0
            metrics = {"layer.self_s": {"value": layer, "unit": "s"}}
        else:
            metrics = {"wall_s": {"value": 1.0 if Path(cwd).name == "parent" else 0.5}}
        result = {"metrics": metrics, "correct": True, "failed": 0}
        return subprocess.CompletedProcess(cmd, 0, "report\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--pr", "6",
                             "--parent-commit", "abc", "--claim", "v:wall_s"]) == 0
    untraced = [cmd for _, cmd in calls if cmd[-2:] == ["--trace", "0"]]
    assert len(untraced) == 2 * 2 * bench_pairs.PAIRS
    # the traced runs come after every pair, one per checkout, of the
    # claimed workload only
    assert [(where, cmd[cmd.index("--workload") + 1], cmd[cmd.index("--seed") + 1],
             cmd[-2:]) for where, cmd in calls[len(untraced):]] == [
        ("parent", "v", "0", ["--trace", "1"]), ("change", "v", "0", ["--trace", "1"])]
    doc = json.loads((tmp_path / "BENCH_6.json").read_text())
    assert doc["claim"]["met"]
    assert doc["trace"] == {"workload": "v", "seed": 0,
                            "correct": {"parent": True, "change": True},
                            "parent": {"layer.self_s": 2.0}, "change": {"layer.self_s": 1.0},
                            "change_minus_parent": {"layer.self_s": -1.0}}


def test_no_claim_runs_no_trace(bench_pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["bench"], "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [WALL]}))
    traces = []

    def run(cmd, cwd, **kwargs):
        if cmd[0] != "bench":
            return subprocess.CompletedProcess(cmd, 0, "7 passed\n", "")
        traces.append(cmd[-1])
        result = {"metrics": {"wall_s": {"value": 1.0}}, "correct": True, "failed": 0}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--pr", "7",
                             "--parent-commit", "abc"]) == 0
    assert set(traces) == {"0"}
    assert "trace" not in json.loads((tmp_path / "BENCH_7.json").read_text())


def test_each_checkout_notes_the_engine_its_simulate_runs(bench_pairs, tmp_path):
    """The probe, run for real: a checkout from before the compiled kernel
    reports the Python loop, this one whichever engine loads here."""
    here = Path(__file__).resolve().parent.parent
    before = tmp_path / "before" / "src" / "pidlab"
    before.mkdir(parents=True)
    (before / "__init__.py").write_text("")
    (before / "plant.py").write_text(
        "class PlantModel: pass\n"
        "def PidConfig(*gains): return gains\n"
        "def hold_mission(): return None\n"
        "def simulate(plant, pid, mission): return None\n")
    assert bench_pairs.engine(tmp_path / "before", "parent") == "engine in parent: Python loop"
    from pidlab import plant
    plant.simulate(plant.PlantModel(), plant.PidConfig(1.0, 0.5, 1.0), plant.hold_mission())
    loaded = "Python loop" if plant._engine is plant._python_steps else "C kernel"
    assert bench_pairs.engine(here, "change") == f"engine in change: {loaded}"
    broken = tmp_path / "broken"
    (broken / "src" / "pidlab").mkdir(parents=True)
    (broken / "src" / "pidlab" / "__init__.py").write_text("raise ImportError('broken')\n")
    assert bench_pairs.engine(broken, "change") == "engine in change: probe exit 1"
