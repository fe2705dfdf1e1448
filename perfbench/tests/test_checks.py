"""The output checks: digests, volatile sidecar keys and op accounting."""

import json

import pidlab
from pidlab.evalkit import grid_to_csv

from checks import Ops, file_digest
from workloads import draw_subset, read_online_fixture


def _grid_csv(path):
    space = pidlab.ParamSpace(1.0, 1.0, 1.0, 0.5, 4.0, 0.5, 0.0, 1.0, 0.5)
    grid = pidlab.ground_truth(space, validator=pidlab.RouthValidator(1.0, 1.0))
    grid_to_csv(grid, path)


def test_digest_check_catches_a_flipped_label(tmp_path):
    path = tmp_path / "gt.csv"
    _grid_csv(path)
    recording = Ops(expected=None)
    with recording.op("write") as op:
        op.output_file("gt.csv", path)
    assert recording.failed == 0

    text = path.read_text()
    first = text.index("invalid")
    path.write_text(text[:first] + text[first + 2:])  # "invalid" -> "valid"
    checking = Ops(expected=recording.produced)
    with checking.op("write") as op:
        op.output_file("gt.csv", path)
    assert (checking.attempted, checking.failed) == (1, 1)


def test_sidecar_digest_ignores_timestamps_only(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"oracle_queries": 124, "created_at": "x", "wall_time_s": 1.0}))
    b.write_text(json.dumps({"wall_time_s": 2.0, "oracle_queries": 124, "created_at": "y"}))
    assert file_digest(a) == file_digest(b)
    b.write_text(json.dumps({"oracle_queries": 125, "created_at": "y"}))
    assert file_digest(a) != file_digest(b)


def test_exceptions_and_unrecorded_outputs_count_as_failed(tmp_path):
    ops = Ops(expected={})
    with ops.op("raises"):
        raise ValueError("boom")
    path = tmp_path / "x.csv"
    path.write_text("kp\n")
    with ops.op("unrecorded") as op:
        op.output_file("x.csv", path)
    with ops.op("fine"):
        pass
    assert (ops.attempted, ops.failed) == (3, 2)


def test_online_subset_keeps_the_verdict_mix():
    rows = read_online_fixture()
    assert len(rows) == 100
    mixes = set()
    for seed in range(10):
        subset = draw_subset(rows, seed)
        mixes.add(tuple(sorted(row[1:] for row in subset)))
        assert len({row[0] for row in subset}) == len(subset)
    assert len(mixes) == 1
    assert draw_subset(rows, 3) == draw_subset(rows, 3)
