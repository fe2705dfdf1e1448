"""Self-time arithmetic and binding restoration of the benchmark tracer."""

import pytest

import pidlab
import tracer as tracing
from pidlab import cli, validator


def _span(id_, parent, start, end, name="x"):
    span = tracing.Span(id_, name, None, parent, "p0", start)
    span.end = end
    return span


def test_self_time_subtracts_only_direct_children():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 1.0, 4.0),
             _span(2, 1, 2.0, 3.0),
             _span(3, 0, 5.0, 9.0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 2.0, 6.0),
             _span(2, 0, 4.0, 8.0),
             _span(3, 0, 9.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_times_and_unattributed_sum_to_traced_wall():
    t = tracing.Tracer("p0")
    t.spans = [_span(0, None, 0.0, 6.0, "cli.search"),
               _span(1, 0, 1.0, 5.0, "search.identify_boundary"),
               _span(2, 1, 2.0, 3.0, "validator.classify"),
               _span(3, 2, 2.2, 2.9, "plant.simulate")]
    metrics = tracing.layer_metrics(t, traced_wall_s=7.5)
    layers = sum(metrics[f"{name}.self_s"] for name in tracing.SPAN_NAMES)
    assert layers == pytest.approx(6.0)
    assert metrics["bench.unattributed_s"] == pytest.approx(1.5)
    assert metrics["search.identify_boundary.self_s"] == pytest.approx(3.0)
    assert metrics["validator.classify.self_s"] == pytest.approx(0.3)


def test_tracer_restores_pidlab_bindings(tmp_path):
    targets = tracing.default_targets()
    before = tracing.bindings(targets)
    space = pidlab.ParamSpace(-0.5, 0.5, 0.5, 0.5, 4.0, 0.5, 0.0, 1.0, 0.5)
    t = tracing.Tracer("restore")
    with tracing.installed(t, targets):
        with pytest.raises(RuntimeError):
            tracing.assert_untraced(targets)
        q0 = pidlab.query_count()
        grid = pidlab.ground_truth(space, validator=pidlab.RouthValidator(1.0, 1.0))
        q1 = pidlab.query_count()
        line = pidlab.identify_boundary(space, validator=pidlab.RouthValidator(1.0, 1.0))
        q2 = pidlab.query_count()
        pidlab.evalkit.grid_to_csv(grid, tmp_path / "g.csv")
    after = tracing.bindings(targets)
    assert all(after[key] is fn for key, fn in before.items())
    tracing.assert_untraced(targets)
    assert cli.identify_boundary is pidlab.search.identify_boundary
    assert validator.simulate is pidlab.plant.simulate

    names = {s.name for s in t.spans}
    assert {"evalkit.ground_truth", "search.identify_boundary", "validator.classify",
            "stability.routh_stable", "evalkit.grid_csv_write"} <= names
    assert all(s.end >= s.start and s.pass_id == "restore" for s in t.spans)
    metrics = tracing.layer_metrics(t, traced_wall_s=1.0)
    columns = space.n_p * space.n_d
    assert len(line.columns) == columns
    assert metrics["validator.classify.calls"] == q2 - q0
    assert metrics["stability.routh_stable.calls"] == q2 - q0
    assert metrics["search.queries_per_column"] == pytest.approx((q2 - q1) / columns)
    assert metrics["evalkit.csv_bytes"] == (tmp_path / "g.csv").stat().st_size


def test_bindings_restored_when_the_pass_raises():
    targets = tracing.default_targets()
    before = tracing.bindings(targets)
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer("boom"), targets):
            1 / 0
    after = tracing.bindings(targets)
    assert all(after[key] is fn for key, fn in before.items())
