import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pidlab import (Metrics, OracleConfig, ParamSpace, PidConfig, PlantModel,
                    RouthValidator, compare_oracles, compute_metrics,
                    ground_truth, hit_rate, hold_mission, identify_boundary,
                    miss_rate, query_count, region_from_boundary,
                    reset_query_count, routh_stable)
from pidlab.evalkit import (INVALID, VALID, ClassifiedGrid, configs_from_csv,
                            configs_to_csv, grid_from_csv, grid_to_csv)
from pidlab.search import (ALL_INVALID, ALL_VALID, BOUNDARY, BoundaryLine,
                           ColumnRecord, _axis_count, boundary_from_csv,
                           boundary_to_csv)
from pidlab.validator import LookupValidator


def worked_space():
    return ParamSpace(p_min=1.0, p_max=1.0, p_step=1.0,
                      i_min=0.1, i_max=4.0, i_step=0.1,
                      d_min=0.0, d_max=1.0, d_step=0.5)


@pytest.fixture(autouse=True)
def clean_counter():
    reset_query_count()
    yield
    reset_query_count()


class TestRegionFromBoundary:
    def test_worked_plane_counts(self):
        s = worked_space()
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        region = region_from_boundary(bl)
        per_column = {d: sorted(pid.ki for pid in region if pid.kd == d)
                      for d in (0.0, 0.5, 1.0)}
        assert len(per_column[0.0]) == 21 and min(per_column[0.0]) == pytest.approx(2.0)
        assert len(per_column[0.5]) == 11 and min(per_column[0.5]) == pytest.approx(3.0)
        assert len(per_column[1.0]) == 1 and per_column[1.0][0] == pytest.approx(4.0)
        assert len(region) == 33

    def test_edge_statuses(self):
        s = worked_space()
        cols = [ColumnRecord(1.0, 0.0, "all_invalid", None),
                ColumnRecord(1.0, 0.5, "all_valid", None),
                ColumnRecord(1.0, 1.0, "boundary", 3.9)]
        region = region_from_boundary(BoundaryLine(space=s, columns=cols))
        assert len([p for p in region if p.kd == 0.0]) == s.n_i
        assert len([p for p in region if p.kd == 0.5]) == 0
        assert len([p for p in region if p.kd == 1.0]) == 1

    def test_rejects_partial_coverage(self):
        s = worked_space()
        cols = [ColumnRecord(1.0, 0.0, "boundary", 1.9)]
        with pytest.raises(ValueError):
            region_from_boundary(BoundaryLine(space=s, columns=cols))


def synthetic_grid(n_bad, n_good):
    """A labeled grid with the requested number of invalid/valid configs."""
    s = ParamSpace(1.0, 1.0, 1.0, 0.0, float(n_bad + n_good - 1), 1.0,
                   0.0, 0.0, 1.0)
    labels = {}
    bad = []
    good = []
    for k in range(n_bad + n_good):
        pid = s.pid_at(0, k, 0)
        if k < n_bad:
            labels[pid] = INVALID
            bad.append(pid)
        else:
            labels[pid] = VALID
            good.append(pid)
    return ClassifiedGrid(space=s, labels=labels), bad, good


class TestMetricArithmetic:
    def test_worked_ratio(self):
        gt, bad, good = synthetic_grid(200, 100)
        region = set(bad[:170]) | set(good[:10])  # 180 flagged, 170 correct
        assert miss_rate(gt, region) == pytest.approx(0.15)
        assert hit_rate(gt, region) == pytest.approx(170 / 180)
        m = compute_metrics(gt, region)
        assert (m.gt_size, m.rs_size, m.intersection) == (200, 180, 170)
        assert m.flags == ()

    def test_perfect_recovery(self):
        gt, bad, _ = synthetic_grid(50, 50)
        m = compute_metrics(gt, set(bad))
        assert m.mr == 0.0 and m.hr == 1.0

    def test_result_set_restricted_to_labeled_domain(self):
        gt, bad, _ = synthetic_grid(10, 10)
        stray = {PidConfig(99.0, 99.0, 99.0)}
        m = compute_metrics(gt, set(bad) | stray)
        assert m.rs_size == 10 and m.hr == 1.0

    def test_empty_ground_truth_flagged(self):
        gt, _, good = synthetic_grid(0, 20)
        m = compute_metrics(gt, set(good[:3]))
        assert m.mr == 0.0
        assert "empty_ground_truth" in m.flags
        assert m.hr == 0.0  # flagged configs are all actually fine

    def test_empty_result_set_flagged(self):
        gt, _, _ = synthetic_grid(20, 0)
        m = compute_metrics(gt, set())
        assert m.hr == 1.0 and m.mr == 1.0
        assert "empty_result_set" in m.flags

    def test_to_dict(self):
        d = Metrics(0.1, 0.9, 10, 9, 9, ("x",)).to_dict()
        assert d == {"mr": 0.1, "hr": 0.9, "gt_size": 10, "rs_size": 9,
                     "intersection": 9, "flags": ["x"]}


class TestSearchRecoversThresholdOracles:
    """Any oracle that is monotone within each ki column (invalid above some
    per-column height) must be recovered exactly by the boundary search."""

    def run_one(self, rng):
        s = ParamSpace(0.0, 2.0, 1.0, 0.5, 3.0, 0.5, 0.0, 1.0, 0.5)
        cutoffs = {}
        for ip in range(s.n_p):
            for id_ in range(s.n_d):
                # -1 means the whole column is invalid; n_i-1 all valid
                cutoffs[(ip, id_)] = rng.randrange(-1, s.n_i)

        def oracle(pid):
            key = (s.p_index(pid.kp), s.d_index(pid.kd))
            return s.i_index(pid.ki) <= cutoffs[key]

        truth = {s.pid_at(*t) for t in s.iter_indices()
                 if not oracle(s.pid_at(*t))}
        bl = identify_boundary(s, validator=LookupValidator(oracle))
        assert region_from_boundary(bl) == truth

    def test_many_random_threshold_tables(self):
        rng = random.Random(77)
        for _ in range(25):
            self.run_one(rng)

    def test_dsoff_never_beats_the_full_search(self):
        rng = random.Random(78)
        s = ParamSpace(0.0, 0.0, 1.0, 0.5, 3.0, 0.5, 0.0, 2.0, 0.25)
        for _ in range(10):
            cutoffs = {id_: rng.randrange(-1, s.n_i) for id_ in range(s.n_d)}

            def oracle(pid):
                return s.i_index(pid.ki) <= cutoffs[s.d_index(pid.kd)]

            truth = {s.pid_at(*t) for t in s.iter_indices()
                     if not oracle(s.pid_at(*t))}
            gt = ClassifiedGrid(space=s, labels={
                s.pid_at(*t): (INVALID if s.pid_at(*t) in truth else VALID)
                for t in s.iter_indices()})
            full = compute_metrics(gt, region_from_boundary(
                identify_boundary(s, validator=LookupValidator(oracle))))
            off = compute_metrics(gt, region_from_boundary(
                identify_boundary(s, LookupValidator(oracle), dsoff=True)))
            assert full.mr == 0.0
            assert off.mr >= full.mr


class TestGroundTruth:
    def test_exhaustive_labels_match_the_oracle(self):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        assert len(gt.labels) == s.size()
        assert gt.coverage == "exhaustive"
        for pid, lab in gt.labels.items():
            assert (lab == VALID) == routh_stable(pid, 1, 1)
        assert query_count() == s.size()

    def test_strided_subgrid(self):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1), strides=(1, 2, 1))
        assert gt.coverage == ("sampled", (1, 2, 1))
        assert gt.strides() == (1, 2, 1)
        assert len(gt.labels) == 20 * 3
        for pid in gt.labels:
            assert s.i_index(pid.ki) % 2 == 0

    def test_worker_fanout_matches_serial(self):
        s = ParamSpace(0.5, 1.5, 0.5, 0.1, 2.0, 0.1, 0.0, 1.0, 0.5)
        a = ground_truth(s, validator=RouthValidator(1, 1))
        n = query_count()
        reset_query_count()
        b = ground_truth(s, validator=RouthValidator(1, 1), workers=3)
        assert a.labels == b.labels
        assert query_count() == n

    def test_parallel_adds_the_serial_count_without_a_reset(self):
        # forked workers start from the parent's count; only their own
        # queries may be added back
        s = ParamSpace(0.5, 1.5, 0.5, 0.1, 2.0, 0.1, 0.0, 1.0, 0.5)
        a = ground_truth(s, validator=RouthValidator(1, 1))
        n = query_count()
        b = ground_truth(s, validator=RouthValidator(1, 1), workers=2)
        assert a.labels == b.labels
        assert query_count() == 2 * n == 2 * s.size()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_label_serially(self, workers):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1), workers=workers)
        assert len(gt.labels) == s.size() == query_count()

    def test_search_matches_brute_force_on_the_worked_plane(self):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        m = compute_metrics(gt, region_from_boundary(bl))
        assert m.mr == 0.0 and m.hr == 1.0
        assert m.gt_size == 33


class TestCompareOracles:
    def test_trace_covering_window_agrees_with_offline(self):
        mission = hold_mission(settle_deadline=5, duration=10)
        plant = PlantModel()
        configs = [PidConfig(1, 0.5, 1), PidConfig(1, 5, 1)]
        cmp = compare_oracles(configs, mission, plant, window=10 ** 6,
                              ref_factor=2)
        for _, off, on, _ref in cmp.rows:
            assert off == on
        assert cmp.offline_agreement == cmp.online_agreement

    def test_clear_cut_configs_agree_with_the_reference(self):
        mission = hold_mission(settle_deadline=5, duration=10)
        cmp = compare_oracles([PidConfig(3, 1, 2), PidConfig(1, 5, 1)],
                              mission, PlantModel(), window=200, ref_factor=2)
        assert cmp.offline_agreement == 1.0
        [(_, off1, _, ref1), (_, off2, _, ref2)] = cmp.rows
        assert (off1, ref1) == (True, True)
        assert (off2, ref2) == (False, False)

    def test_empty_config_list(self):
        cmp = compare_oracles([], hold_mission(settle_deadline=5, duration=10),
                              PlantModel(), window=100, ref_factor=2)
        assert cmp.rows == [] and cmp.offline_agreement == 0.0


class TestCsvRoundTrips:
    def test_grid_round_trip(self, tmp_path):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        path = tmp_path / "gt.csv"
        grid_to_csv(gt, path)
        back = grid_from_csv(path, s)
        assert back.labels == gt.labels
        assert back.coverage == "exhaustive"

    def test_strided_grid_round_trip(self, tmp_path):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1), strides=(1, 2, 1))
        path = tmp_path / "gt.csv"
        grid_to_csv(gt, path)
        back = grid_from_csv(path, s, coverage=("sampled", (1, 2, 1)))
        assert back.labels == gt.labels
        assert back.strides() == (1, 2, 1)

    def test_grid_rejects_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kp,ki,kd,label\n1,0.1,0,wobbly\n")
        with pytest.raises(ValueError):
            grid_from_csv(path, worked_space())

    def test_configs_round_trip(self, tmp_path):
        s = worked_space()
        configs = {s.pid_at(0, 3, 1), s.pid_at(0, 17, 2), s.pid_at(0, 39, 0)}
        path = tmp_path / "found.csv"
        configs_to_csv(configs, path)
        assert configs_from_csv(path, s) == configs

    def test_configs_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kp,ki\n1,0.1\n")
        with pytest.raises(ValueError):
            configs_from_csv(path, worked_space())


@st.composite
def awkward_spaces(draw):
    """Small grids with steps like 0.1 and 0.05 and offsets with many
    digits, whose %.9g values are close to but not exactly on the grid."""
    axes = []
    for _ in range(3):
        lo = draw(st.floats(-2e4, 2e4, allow_nan=False))
        step = draw(st.sampled_from([0.1, 0.05, 0.001, 0.3, 0.025, 7.0]))
        axes += [lo, lo + draw(st.integers(0, 4)) * step, step]
    return ParamSpace(*axes)


@st.composite
def wide_axes(draw):
    """(lo, hi, step) for three small axes like awkward_spaces', where a third
    of the offsets reach 1e8, so some grids are finer than %.9g keeps."""
    axes = []
    for _ in range(3):
        lo = draw(st.floats(-2e4, 2e4) | st.floats(-2e4, 2e4) | st.floats(-1e8, 1e8))
        step = draw(st.sampled_from([0.1, 0.05, 0.001, 0.3, 0.025, 7.0, 0.01, 1e-4]))
        axes += [lo, lo + draw(st.integers(0, 4)) * step, step]
    return axes


@st.composite
def accepted_spaces(draw):
    """The spaces ParamSpace accepts among wide_axes."""
    try:
        return ParamSpace(*draw(wide_axes()))
    except ValueError:
        reject()


class TestCsvRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(space=awkward_spaces(), frac=st.floats(0.25, 0.75))
    def test_printed_values_snap_back_and_off_grid_ones_raise(self, space, frac):
        for value, index, lo, step, n in [
                (space.p_value, space.p_index, space.p_min, space.p_step, space.n_p),
                (space.i_value, space.i_index, space.i_min, space.i_step, space.n_i),
                (space.d_value, space.d_index, space.d_min, space.d_step, space.n_d)]:
            for k in range(n):
                assert index(float("%.9g" % value(k))) == k
                with pytest.raises(ValueError):
                    index(lo + (k + frac) * step)

    @settings(max_examples=150, deadline=None)
    @given(axes=wide_axes())
    def test_a_space_is_rejected_only_when_printed_values_leave_their_cell(self, axes):
        try:
            ParamSpace(*axes)
        except ValueError:
            worst = max(abs(float("%.9g" % (lo + k * step)) - (lo + k * step)) / step
                        for lo, hi, step in zip(axes[0::3], axes[1::3], axes[2::3])
                        for k in range(_axis_count(lo, hi, step)))
            assert worst >= 0.49

    @settings(max_examples=60, deadline=None)
    @given(space=accepted_spaces(), seed=st.integers(0, 2**16))
    def test_csvs_round_trip_exactly(self, tmp_path_factory, space, seed):
        rng = random.Random(seed)
        cells = [space.pid_at(*idx) for idx in space.iter_indices()]
        grid = ClassifiedGrid(space, {pid: rng.choice((VALID, INVALID))
                                      for pid in cells})
        configs = {pid for pid in cells if rng.random() < 0.5}
        columns = []
        for ip in range(space.n_p):
            for id_ in range(space.n_d):
                status = rng.choice((BOUNDARY, ALL_VALID, ALL_INVALID))
                i_save = (space.i_value(rng.randrange(space.n_i))
                          if status == BOUNDARY else None)
                columns.append(ColumnRecord(space.p_value(ip), space.d_value(id_),
                                            status, i_save))
        line = BoundaryLine(space, columns)
        d = tmp_path_factory.mktemp("csv")
        for write, read, obj, same in [
                (grid_to_csv, grid_from_csv, grid, lambda a, b: a.labels == b.labels),
                (configs_to_csv, configs_from_csv, configs, lambda a, b: a == b),
                (boundary_to_csv, boundary_from_csv, line,
                 lambda a, b: a.columns == b.columns)]:
            write(obj, d / "a.csv")
            back = read(d / "a.csv", space)
            assert same(back, obj)
            write(back, d / "b.csv")
            assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()
