import csv
import random
import re
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pidlab import (Metrics, NoiseSpec, OracleConfig, ParamSpace, PidConfig,
                    PlantModel, RouthValidator, SimulationValidator,
                    circle_lap_spec, circle_mission, compare_oracles,
                    compute_metrics, ground_truth, hold_mission,
                    identify_boundary, query_count,
                    region_from_boundary, routh_stable)
from pidlab import plant as plant_module
from pidlab import validator as validator_module
from pidlab.plant import CLAMP
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


def grid_indices(space, strides=(1, 1, 1)):
    """Every (ip, ii, id_) of the sub-grid the index strides pick (indices
    0, s, 2s, ... per axis), in index order."""
    return product(*(range(0, n, s) for n, s in zip((space.n_p, space.n_i, space.n_d),
                                                    strides)))


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

    @pytest.mark.parametrize("status", ["wobbly", "", None, "Boundary"])
    def test_rejects_an_unknown_status(self, status):
        # such a column used to expand as if it were a boundary column
        s = worked_space()
        cols = [ColumnRecord(1.0, 0.0, "all_invalid", None),
                ColumnRecord(1.0, 0.5, status, 2.0),
                ColumnRecord(1.0, 1.0, "boundary", 3.9)]
        with pytest.raises(ValueError, match=r"^column p=1\.0, d=0\.5 has unknown status "
                           + re.escape(repr(status))):
            region_from_boundary(BoundaryLine(space=s, columns=cols))

    def test_rejects_a_boundary_column_without_i_save(self):
        # it used to raise TypeError from the ki lookup
        s = worked_space()
        cols = [ColumnRecord(1.0, 0.0, "all_invalid", None),
                ColumnRecord(1.0, 0.5, "boundary", None),
                ColumnRecord(1.0, 1.0, "boundary", 3.9)]
        with pytest.raises(ValueError,
                           match=r"^boundary column p=1\.0, d=0\.5 has no i_save$"):
            region_from_boundary(BoundaryLine(space=s, columns=cols))

    def test_rejects_a_column_given_twice(self):
        # the repeat was accepted, and the region grew from 1 config to 4
        s = ParamSpace(1, 1, 1, 0.5, 2, 0.5, 0, 0.5, 0.5)
        line = identify_boundary(s, validator=RouthValidator(1, 1))
        assert len(line.columns) == 2 and len(region_from_boundary(line)) == 1
        line.columns.append(ColumnRecord(1.0, 0.0, ALL_INVALID, None))
        with pytest.raises(ValueError, match=r"^column p=1\.0, d=0\.0 is given twice$"):
            region_from_boundary(line)


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
        m = compute_metrics(gt, region)
        assert m.mr == pytest.approx(0.15)
        assert m.hr == pytest.approx(170 / 180)
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

        kp, ki, kd = s.axes

        def oracle(pid):
            key = (kp.snap(pid.kp), kd.snap(pid.kd))
            return ki.snap(pid.ki) <= cutoffs[key]

        truth = {s.pid_at(*t) for t in grid_indices(s)
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
                return s.axes[1].snap(pid.ki) <= cutoffs[s.axes[2].snap(pid.kd)]

            truth = {s.pid_at(*t) for t in grid_indices(s)
                     if not oracle(s.pid_at(*t))}
            gt = ClassifiedGrid(space=s, labels={
                s.pid_at(*t): (INVALID if s.pid_at(*t) in truth else VALID)
                for t in grid_indices(s)})
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
        assert gt.strides == (1, 1, 1)
        for pid, lab in gt.labels.items():
            assert (lab == VALID) == routh_stable(pid, 1, 1)
        assert query_count() == s.size()

    def test_strided_subgrid(self):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1), strides=(1, 2, 1))
        assert gt.strides == (1, 2, 1)
        assert len(gt.labels) == 20 * 3
        for pid in gt.labels:
            assert s.axes[1].snap(pid.ki) % 2 == 0

    @pytest.mark.parametrize("strides", [(-1, 1, 1), (0, 1, 1), (1, 2), (1, 1, 1, 1),
                                         (1, 1.0, 1), (1, True, 1), (1, 1, 2.5)])
    def test_strides_other_than_three_positive_ints_raise(self, strides, tmp_path):
        # (-1, 1, 1) used to label nothing, and (0, 1, 1) to raise from range()
        with pytest.raises(ValueError, match="strides must be three integers >= 1"):
            ground_truth(worked_space(), validator=RouthValidator(1, 1), strides=strides)
        assert query_count() == 0
        # the reader refuses them before it opens the file
        with pytest.raises(ValueError, match="strides must be three integers >= 1"):
            grid_from_csv(tmp_path / "absent.csv", worked_space(), strides)

    @pytest.mark.parametrize("workers", [0, -1, 2])
    def test_workers_other_than_one_raise(self, workers):
        # labeling runs in one process: any worker count but 1 is refused
        # before a query is spent
        with pytest.raises(ValueError, match="workers must be 1"):
            ground_truth(worked_space(), validator=RouthValidator(1, 1), workers=workers)
        assert query_count() == 0

    def test_each_chunk_is_one_batch(self):
        batches = []

        class Recording(RouthValidator):
            def classify_many(self, pids):
                batches.append(len(pids))
                return super().classify_many(pids)

        s = worked_space()
        assert ground_truth(s, validator=Recording(1, 1)).labels == \
            ground_truth(s, validator=RouthValidator(1, 1)).labels
        assert batches == [s.size()]

    @pytest.mark.usefixtures("python_engine")
    @pytest.mark.parametrize("cells", [3, validator_module.BATCH_MIN],
                             ids=["few-cells", "batch-min-cells"])
    def test_the_cell_count_picks_the_simulator(self, cells, monkeypatch):
        sims, batches = [], []
        linear, simulate_batch = validator_module.simulate_linear, validator_module.simulate_batch
        monkeypatch.setattr(validator_module, "simulate_linear",
                            lambda *a, **k: sims.append(a[1]) or linear(*a, **k))
        monkeypatch.setattr(validator_module, "simulate_batch",
                            lambda *a: batches.append(list(a[1])) or simulate_batch(*a))
        s = ParamSpace(3.0, 3.0, 1.0, 1.0, 1.0 * cells, 1.0, 2.0, 2.0, 1.0)
        v = SimulationValidator(PlantModel(), hold_mission(settle_deadline=4, duration=8),
                                OracleConfig())
        gt = ground_truth(s, v, workers=1)
        pids = [s.pid_at(*t) for t in grid_indices(s)]
        assert len(pids) == cells == query_count()
        if cells < validator_module.BATCH_MIN:
            assert sims == pids and batches == []
        else:
            assert sims == [] and batches == [pids]
        assert set(gt.labels.values()) == {VALID, INVALID}

    def test_a_walk_after_labeling_simulates_nothing(self, monkeypatch):
        # the walk probes only grid cells, and ground_truth memoised them all
        s = ParamSpace(2.0, 2.0, 1.0, 0.4, 6.0, 0.4, 0.2, 1.8, 0.4)
        v = SimulationValidator(PlantModel(), hold_mission(settle_deadline=8, duration=16),
                                OracleConfig())
        gt = ground_truth(s, v)
        assert set(gt.labels.values()) == {VALID, INVALID}
        sims = []
        for name in ("simulate_linear", "simulate", "simulate_batch"):
            monkeypatch.setattr(validator_module, name, lambda *a, **k: sims.append(a))
        n = query_count()
        bl = identify_boundary(s, v)
        assert query_count() > n and sims == []
        assert {col.status for col in bl.columns} == {BOUNDARY}

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

    @pytest.mark.usefixtures("python_engine")
    @pytest.mark.parametrize("case,batched", [
        ("hold", False), ("circle_lap", False), ("hold", True), ("circle_lap", True)],
        ids=["hold", "circle_lap", "hold-batched-ref", "circle_lap-batched-ref"])
    def test_rows_equal_three_independent_validators(self, case, batched, monkeypatch):
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.02))
        cfg = OracleConfig(repeats=3, base_seed=7)
        if case == "hold":
            mission, formula = hold_mission(settle_deadline=5, duration=10), None
        else:
            mission = circle_mission(radius=1.0, freq=0.25, settle_deadline=4, duration=12)
            formula = circle_lap_spec(mission)
        configs = [PidConfig(p, i, d) for p in (0.5, 2.0, 4.0)
                   for i in (0.1, 1.0, 3.0) for d in (0.2, 1.2)]
        window, ref_factor = 80, 3
        long_mission = replace(mission, duration=mission.duration * ref_factor)
        oracles = (
            (plant, mission, cfg),
            (plant, mission, replace(cfg, kind="online", window=window)),
            (replace(plant, t_max=max(plant.t_max, long_mission.duration)),
             long_mission, cfg))
        expect = [(pid, *(SimulationValidator(*o, formula=formula).classify(pid).valid
                          for o in oracles))
                  for pid in configs]
        assert {row[1] for row in expect} == {True, False}
        # the window cannot see a lap, so there the two short-run verdicts differ
        assert any(row[1] != row[2] for row in expect) == (case == "circle_lap")

        sims, batches = [], []
        real, real_batch = validator_module.simulate_linear, validator_module.simulate_batch
        monkeypatch.setattr(validator_module, "simulate_linear",
                            lambda *a, **k: sims.append(a[2].duration) or real(*a, **k))
        monkeypatch.setattr(validator_module, "simulate_batch",
                            lambda *a: batches.append((a[2].duration, len(a[1])))
                            or real_batch(*a))
        if batched:  # all verdicts of all configs come from one batch per seed
            monkeypatch.setattr(validator_module, "BATCH_MIN", 1)
        q0 = query_count()
        cmp = compare_oracles(configs, mission, plant, window=window, cfg=cfg,
                              formula=formula, ref_factor=ref_factor)
        assert cmp.rows == expect
        assert query_count() - q0 == 3 * len(configs)
        # one reference-length run per seed and config, and no short run
        if batched:
            assert sims == []
            assert batches == [(long_mission.duration, len(configs))] * cfg.repeats
        else:
            assert sims == [long_mission.duration] * cfg.repeats * len(configs)
            assert batches == []

    @pytest.mark.usefixtures("kernel_engine")
    @pytest.mark.parametrize("case", ["hold", "circle_lap"])
    @pytest.mark.parametrize("count", [5, validator_module.BATCH_MIN])
    def test_rows_equal_across_engines(self, case, count, monkeypatch):
        # on the Python loop 5 configs take the linear route and BATCH_MIN
        # one batch per seed; on the kernel both are simulated one at a time
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.02, disturbance_amp=0.2,
                                           disturbance_freq=0.7))
        if case == "hold":
            mission, formula = hold_mission(settle_deadline=5, duration=10), None
        else:
            mission = circle_mission(radius=1.0, freq=0.25, settle_deadline=4, duration=12)
            formula = circle_lap_spec(mission)
        configs = [PidConfig(p, i, d) for i in (1.0, 3.0, 0.1) for d in (1.2, 0.2)
                   for p in (4.0, -5.0, 2.0, 0.5)][:count]
        cfg = OracleConfig(repeats=3, base_seed=7)

        def compare():
            return compare_oracles(configs, mission, plant, window=80, cfg=cfg,
                                   formula=formula, ref_factor=3)

        kernel = compare()
        monkeypatch.setattr(plant_module, "_engine", plant_module._python_steps)
        assert kernel == compare()
        assert {row[3] for row in kernel.rows} == {True, False}

    def test_empty_config_list(self):
        cmp = compare_oracles([], hold_mission(settle_deadline=5, duration=10),
                              PlantModel(), window=100, ref_factor=2)
        assert cmp.rows == [] and cmp.offline_agreement == 0.0

    @pytest.mark.parametrize("ref_factor", [0.5, 0, -2, float("nan")])
    def test_a_reference_shorter_than_the_run_is_refused(self, ref_factor, monkeypatch):
        sims = []
        for name in ("simulate_linear", "simulate"):
            monkeypatch.setattr(validator_module, name, lambda *a, **k: sims.append(a))
        with pytest.raises(ValueError, match="ref_factor must be >= 1"):
            compare_oracles([PidConfig(1, 0.5, 1)], hold_mission(settle_deadline=5, duration=10),
                            PlantModel(), window=100, ref_factor=ref_factor)
        assert sims == [] and query_count() == 0

    def test_a_mission_beyond_the_plants_t_max_is_refused(self):
        # the runs are simulated on a plant stretched to the reference length
        with pytest.raises(ValueError, match="exceeds plant t_max"):
            compare_oracles([PidConfig(1, 0.5, 1)], hold_mission(), PlantModel(t_max=30),
                            window=100, ref_factor=2)

    @pytest.mark.usefixtures("python_engine")
    @pytest.mark.parametrize("batch_min", [1, 100], ids=["batched", "one-at-a-time"])
    def test_no_run_outlives_its_checks(self, monkeypatch, freed_runs, batch_min):
        mission = hold_mission(settle_deadline=5, duration=10)
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.02))
        # two configs of the 20 s reference per chunk, one seed at a time
        monkeypatch.setattr(validator_module, "BATCH_BYTES", 2 * 16 * 2001)
        monkeypatch.setattr(validator_module, "BATCH_MIN", batch_min)
        configs = [PidConfig(1, 0.5, 1), PidConfig(1, 5, 1), PidConfig(3, 1, 2),
                   PidConfig(2, 1, 0.4)]
        compare_oracles(configs, mission, plant, window=100, cfg=OracleConfig(repeats=3),
                        ref_factor=2)
        assert freed_runs == ({"simulate_linear": 0, "simulate": 0, "simulate_batch": 6}
                              if batch_min == 1 else
                              {"simulate_linear": 12, "simulate": 0, "simulate_batch": 0})

    @pytest.mark.usefixtures("python_engine")
    @pytest.mark.parametrize("batch_min", [1, 100], ids=["batched", "one-at-a-time"])
    def test_one_validator_judges_every_verdict(self, monkeypatch, batch_min):
        built = []

        class Counting(SimulationValidator):
            def __init__(self, *args, **kwargs):
                built.append(args[1].duration)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(validator_module, "SimulationValidator", Counting)
        monkeypatch.setattr(validator_module, "BATCH_MIN", batch_min)
        mission = hold_mission(settle_deadline=5, duration=10)
        cmp = compare_oracles([PidConfig(3, 1, 2), PidConfig(1, 5, 1)], mission,
                              PlantModel(), window=100, ref_factor=2)
        # the reference's validator, and no validator for the short verdicts
        assert built == [20]
        assert [row[1:] for row in cmp.rows] == [(True, True, True), (False, False, False)]

    @pytest.mark.usefixtures("python_engine")
    def test_duplicate_configs_are_simulated_once(self, monkeypatch):
        a, b = PidConfig(1, 0.5, 1), PidConfig(1, 5, 1)
        mission = hold_mission(settle_deadline=5, duration=10)
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.02))
        cfg = OracleConfig(repeats=3)
        sims = []
        real = validator_module.simulate_linear
        monkeypatch.setattr(validator_module, "simulate_linear",
                            lambda *a, **k: sims.append((a[0].noise.seed, a[1])) or real(*a, **k))
        cmp = compare_oracles([a, b, a], mission, plant, window=100, cfg=cfg, ref_factor=2)
        assert query_count() == 9
        assert sims == [(seed, pid) for pid in (a, b) for seed in range(3)]
        assert [row[0] for row in cmp.rows] == [a, b, a] and cmp.rows[0] == cmp.rows[2]
        assert cmp.rows[:2] == compare_oracles([a, b], mission, plant, window=100, cfg=cfg,
                                               ref_factor=2).rows


    def test_clamped_runs_can_be_valid_lap_runs(self, monkeypatch):
        # "a run that reaches the clamp is invalid" would be a wrong rule: these
        # six configs of perfbench's online_configs.csv diverge, yet their
        # clamped runs swing through +-0.8 every lap, so lap_reach holds
        configs = [PidConfig(0.2, 3.0, 0.2), PidConfig(0.2, 3.0, 0.6), PidConfig(0.2, 3.0, 1.2),
                   PidConfig(0.5, 3.0, 0.2), PidConfig(0.5, 3.0, 0.6), PidConfig(1.0, 3.0, 0.2)]
        plant = PlantModel(a1=1.0, a2=1.0, dt=0.01, t_max=60.0)
        mission = circle_mission(radius=1.0, freq=0.05, duration=60.0)
        peaks = []
        real = validator_module.simulate

        def simulate(plant, pid, mission, **kwargs):
            run = real(plant, pid, mission, **kwargs)
            peaks.append(max(abs(run.x).max(), abs(run.v).max()))
            return run

        monkeypatch.setattr(validator_module, "simulate", simulate)
        cmp = compare_oracles(configs, mission, plant, window=200,
                              formula=circle_lap_spec(mission))
        assert cmp.rows == [(pid, True, True, True) for pid in configs]
        # each reference run reached the clamp, so the per-pid route simulated it
        assert peaks == [CLAMP] * len(configs)


    def test_a_reference_bound_for_the_clamp_ends_once_decided(self, monkeypatch):
        # online_lap_circle's hold pass in perfbench: (0.2, 3, 0.2) is bound
        # for the clamp, so its 600 s reference is simulated, and the spec
        # G (t > 50 -> |e| < 0.3) fails at sample 5,001, the first past 50 s
        plant = PlantModel(a1=1.0, a2=1.0, dt=0.01, t_max=60.0)
        hold = hold_mission(setpoint=1.0, hold_tol=0.3, settle_deadline=50.0, duration=60.0)
        runs = []
        real = validator_module.simulate

        def simulate(plant, pid, mission, **kwargs):
            run = real(plant, pid, mission, **kwargs)
            runs.append((pid, mission.duration, len(run)))
            return run

        monkeypatch.setattr(validator_module, "simulate", simulate)
        pid = PidConfig(0.2, 3.0, 0.2)
        cmp = compare_oracles([pid], hold, plant, window=200)
        assert cmp.rows == [(pid, False, False, False)]
        assert runs == [(pid, 600.0, 5002)]


class TestCsvRoundTrips:
    def test_grid_round_trip(self, tmp_path):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        path = tmp_path / "gt.csv"
        grid_to_csv(gt, path)
        back = grid_from_csv(path, s)
        assert back.labels == gt.labels
        assert back.strides == (1, 1, 1)

    def test_strided_grid_round_trip(self, tmp_path):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1), strides=(1, 2, 1))
        path = tmp_path / "gt.csv"
        grid_to_csv(gt, path)
        back = grid_from_csv(path, s, strides=(1, 2, 1))
        assert back.labels == gt.labels
        assert back.strides == (1, 2, 1)

    # a row moved off the sub-grid: ki index 1 of stride 2, kd index 1 of stride 2
    @pytest.mark.parametrize("strides,column,off", [((1, 2, 1), 1, "0.2"),
                                                    ((1, 1, 2), 2, "0.5")])
    def test_strided_grid_refuses_a_row_off_its_sub_grid(self, tmp_path, strides,
                                                         column, off):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1), strides=strides)
        path = tmp_path / "gt.csv"
        grid_to_csv(gt, path)
        lines = path.read_text().splitlines(keepends=True)
        row = lines[3].split(",")
        row[column] = off
        lines[3] = ",".join(row)
        path.write_text("".join(lines))
        name = ("kp", "ki", "kd")[column]
        with pytest.raises(ValueError, match=rf"gt\.csv:4: {name}={off} is not on the "
                                             r"sub-grid of stride 2$"):
            grid_from_csv(path, s, strides=strides)
        # the row is on the whole grid
        assert len(grid_from_csv(path, s).labels) == len(gt.labels)

    def test_grid_rejects_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kp,ki,kd,label\n1,0.1,0,wobbly\n")
        with pytest.raises(ValueError):
            grid_from_csv(path, worked_space())

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "", None, 3.5, "line\nbreak"])
    def test_grid_writer_refuses_labels_the_reader_refuses(self, tmp_path, label):
        s = worked_space()
        grid = ClassifiedGrid(s, {pid: VALID for pid in (s.pid_at(*idx)
                                                         for idx in grid_indices(s))})
        grid.labels[s.pid_at(0, 3, 1)] = label
        cell = r"^cell kp=1, ki=0\.4, kd=0\.5 has label " + re.escape(repr(label))
        with pytest.raises(ValueError, match=cell):
            grid_to_csv(grid, tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()

    def test_grid_writer_refuses_a_cell_without_a_label(self, tmp_path):
        # it used to raise a bare KeyError(PidConfig(...))
        s = worked_space()
        grid = ClassifiedGrid(s, {pid: VALID for pid in (s.pid_at(*idx)
                                                         for idx in grid_indices(s))})
        del grid.labels[s.pid_at(0, 3, 1)]
        grid.labels[PidConfig(2.0, 0.4, 0.5)] = VALID  # off the grid: not written
        with pytest.raises(ValueError, match=r"^cell kp=1, ki=0\.4, kd=0\.5 has no label$"):
            grid_to_csv(grid, tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()

    # each used to fail its own way: "slice step cannot be zero", a
    # TypeError and an unpack error
    @pytest.mark.parametrize("strides", [(0, 1, 1), (1.0, 1, 1), (1, 1), (-1, 1, 1),
                                         (1, True, 1), (1, 1, 1, 1)])
    def test_grid_writer_refuses_bad_strides_before_opening_the_file(self, tmp_path,
                                                                     strides):
        s = worked_space()
        grid = ground_truth(s, validator=RouthValidator(1, 1))
        grid.strides = strides
        with pytest.raises(ValueError, match=r"^strides must be three integers >= 1, got "
                                             + re.escape(repr(strides)) + "$"):
            grid_to_csv(grid, tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()

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
        for axis, lo, step in zip(space.axes, (space.p_min, space.i_min, space.d_min),
                                  (space.p_step, space.i_step, space.d_step)):
            for k, value in enumerate(axis.values):
                assert axis.snap(float("%.9g" % value)) == k
                with pytest.raises(ValueError):
                    axis.snap(lo + (k + frac) * step)

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
        cells = [space.pid_at(*idx) for idx in grid_indices(space)]
        grid = ClassifiedGrid(space, {pid: rng.choice((VALID, INVALID))
                                      for pid in cells})
        configs = {pid for pid in cells if rng.random() < 0.5}
        columns = []
        kp, ki, kd = space.axes
        for ip in range(space.n_p):
            for id_ in range(space.n_d):
                status = rng.choice((BOUNDARY, ALL_VALID, ALL_INVALID))
                i_save = (ki.values[rng.randrange(space.n_i)]
                          if status == BOUNDARY else None)
                columns.append(ColumnRecord(kp.values[ip], kd.values[id_],
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


# The writer and readers as they were before the per-axis versions, kept as
# references: csv.writer row by row, csv.DictReader and float() + Axis.snap.

def reference_grid_to_csv(grid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd", "label"])
        for ip, ii, id_ in grid_indices(grid.space, grid.strides):
            pid = grid.space.pid_at(ip, ii, id_)
            writer.writerow(["%.9g" % pid.kp, "%.9g" % pid.ki, "%.9g" % pid.kd,
                             grid.labels[pid]])


def reference_grid_from_csv(path, space, strides=(1, 1, 1)):
    labels = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"kp", "ki", "kd", "label"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(need)}")
        for row in reader:
            if row["label"] not in (VALID, INVALID):
                raise ValueError(f"{path}: unknown label {row['label']!r}")
            pid = space.pid_at(*(axis.snap(float(row[axis.name])) for axis in space.axes))
            labels[pid] = row["label"]
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


def reference_configs_from_csv(path, space):
    configs = set()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            configs.add(space.pid_at(*(axis.snap(float(row[axis.name]))
                                       for axis in space.axes)))
    return configs


def reference_boundary_from_csv(path, space):
    columns = []
    kp, ki, kd = space.axes
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            status = row["status"]
            p = kp.values[kp.snap(float(row["p"]))]
            d = kd.values[kd.snap(float(row["d"]))]
            i_save = None
            if status == BOUNDARY:
                i_save = ki.values[ki.snap(float(row["i_save"]))]
            columns.append(ColumnRecord(p, d, status, i_save))
    return BoundaryLine(space=space, columns=columns)


def respell(path, spell):
    """Rewrite every numeric field of the CSV at path with spell(text)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow([spell(f) if f and f[-1].isdigit() else f for f in row])


SPELLINGS = {"repr": lambda text: repr(float(text)),
             "exponent": lambda text: "%.8e" % float(text),
             "leading space": lambda text: " " + text}


def random_artifacts(space, rng, strides=(1, 1, 1)):
    """A labeled (sub-)grid, a config set and a boundary line on space."""
    cells = [space.pid_at(*idx) for idx in grid_indices(space, strides)]
    grid = ClassifiedGrid(space, {pid: rng.choice((VALID, INVALID)) for pid in cells},
                          strides)
    configs = {pid for pid in cells if rng.random() < 0.5}
    columns = []
    kp, ki, kd = space.axes
    for ip in range(space.n_p):
        for id_ in range(space.n_d):
            status = rng.choice((BOUNDARY, ALL_VALID, ALL_INVALID))
            i_save = ki.values[rng.randrange(space.n_i)] if status == BOUNDARY else None
            columns.append(ColumnRecord(kp.values[ip], kd.values[id_], status, i_save))
    return grid, configs, BoundaryLine(space, columns)


class TestCsvAgainstTheReferences:
    @settings(max_examples=60, deadline=None)
    @given(space=accepted_spaces(), seed=st.integers(0, 2**16),
           strides=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    def test_same_bytes_and_same_reads(self, tmp_path_factory, space, seed, strides):
        grid, configs, line = random_artifacts(space, random.Random(seed), strides)
        d = tmp_path_factory.mktemp("ref")
        grid_to_csv(grid, d / "new.csv")
        reference_grid_to_csv(grid, d / "old.csv")
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
        back = grid_from_csv(d / "new.csv", space, grid.strides)
        assert back.labels == reference_grid_from_csv(d / "new.csv", space).labels
        assert back.labels == grid.labels
        configs_to_csv(configs, d / "configs.csv")
        assert configs_from_csv(d / "configs.csv", space) == \
            reference_configs_from_csv(d / "configs.csv", space) == configs
        boundary_to_csv(line, d / "line.csv")
        assert boundary_from_csv(d / "line.csv", space).columns == \
            reference_boundary_from_csv(d / "line.csv", space).columns == line.columns

    @pytest.mark.parametrize("spelling", SPELLINGS, ids=list(SPELLINGS))
    @settings(max_examples=30, deadline=None)
    @given(space=accepted_spaces(), seed=st.integers(0, 2**16))
    def test_other_spellings_read_as_the_references_read_them(self, tmp_path_factory,
                                                              spelling, space, seed):
        grid, configs, line = random_artifacts(space, random.Random(seed))
        d = tmp_path_factory.mktemp("spell")
        for write, obj, name in [(grid_to_csv, grid, "g.csv"),
                                 (configs_to_csv, configs, "c.csv"),
                                 (boundary_to_csv, line, "b.csv")]:
            write(obj, d / name)
            respell(d / name, SPELLINGS[spelling])
        assert grid_from_csv(d / "g.csv", space).labels == \
            reference_grid_from_csv(d / "g.csv", space).labels == grid.labels
        assert configs_from_csv(d / "c.csv", space) == \
            reference_configs_from_csv(d / "c.csv", space) == configs
        assert boundary_from_csv(d / "b.csv", space).columns == \
            reference_boundary_from_csv(d / "b.csv", space).columns == line.columns

    def test_hand_written_spellings(self, tmp_path):
        s = ParamSpace(1.0, 2.0, 1.0, 0.5, 1.0, 0.5, 0.0, 0.0, 1.0)
        path = tmp_path / "hand.csv"
        path.write_text("kp,ki,kd,label\n1.0,0.5,0,valid\n1e0,1, 0.0,invalid\n"
                        " 2,5e-1,-0,valid\n2.000,1.00,0e3,invalid\n")
        assert grid_from_csv(path, s).labels == reference_grid_from_csv(path, s).labels == {
            s.pid_at(0, 0, 0): VALID, s.pid_at(0, 1, 0): INVALID,
            s.pid_at(1, 0, 0): VALID, s.pid_at(1, 1, 0): INVALID}


# ground_truth, region_from_boundary, compute_metrics and grid_to_csv as
# they were before the per-axis versions, kept as references: one PidConfig
# built or looked up per cell, and the metrics counted with set operations.

def per_cell_ground_truth(space, validator, strides):
    pids = [space.pid_at(*trip) for trip in grid_indices(space, strides)]
    labels = {pid: VALID if verdict.valid else INVALID
              for pid, verdict in zip(pids, validator.classify_many(pids))}
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


def per_cell_region_from_boundary(bl, space):
    seen = set()
    region = set()
    kp, ki, kd = space.axes
    for col in bl.columns:
        ip = kp.snap(col.p)
        id_ = kd.snap(col.d)
        seen.add((ip, id_))
        if col.status == ALL_VALID:
            continue
        start = 0 if col.status == ALL_INVALID else ki.snap(col.i_save) + 1
        for ii in range(start, space.n_i):
            region.add(space.pid_at(ip, ii, id_))
    assert len(seen) == space.n_p * space.n_d
    return region


def per_cell_compute_metrics(gt, region):
    bad = {pid for pid, label in gt.labels.items() if label == INVALID}
    rs = gt.labels.keys() & region
    inter = len(rs & bad)
    flags = []
    if not bad:
        flags.append("empty_ground_truth")
    if not rs:
        flags.append("empty_result_set")
    return Metrics(mr=(len(bad) - inter) / len(bad) if bad else 0.0,
                   hr=inter / len(rs) if rs else 1.0,
                   gt_size=len(bad), rs_size=len(rs), intersection=inter,
                   flags=tuple(flags))


def per_cell_grid_to_csv(grid, path):
    space = grid.space
    sp, si, sd = grid.strides
    p_axis, i_axis, d_axis = (
        [(v, "%.9g" % v) for v in (lo + k * step for k in range(0, count, stride))]
        for lo, step, count, stride in ((space.p_min, space.p_step, space.n_p, sp),
                                        (space.i_min, space.i_step, space.n_i, si),
                                        (space.d_min, space.d_step, space.n_d, sd)))
    lines = ["kp,ki,kd,label\r\n"]
    for p, p_text in p_axis:
        for i, i_text in i_axis:
            head = f"{p_text},{i_text},"
            for d, d_text in d_axis:
                label = grid.labels[PidConfig(p, i, d)]
                if label != VALID and label != INVALID:
                    raise ValueError(f"cell kp={p_text}, ki={i_text}, kd={d_text} has label "
                                     f"{label!r}; grid CSVs hold only valid and invalid")
                lines.append(f"{head}{d_text},{label}\r\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


class RecordingLookup(LookupValidator):
    """A lookup oracle that records the pid lists classify_many is given."""

    def __init__(self, fn):
        super().__init__(fn)
        self.calls = []

    def classify_many(self, pids):
        self.calls.append(list(pids))
        return super().classify_many(pids)


strides_3 = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


def off_grid(space, pid):
    """A config next to pid but off the space: one step past an axis end."""
    return pid._replace(kp=space.p_min - space.p_step)


def shuffled_labels(space, strides, rng):
    """Labels of the strided sub-grid in shuffled order, plus cells off the
    sub-grid and off the space, some labeled None."""
    cells = [space.pid_at(*idx) for idx in grid_indices(space, strides)]
    items = [(pid, rng.choice((VALID, INVALID))) for pid in cells]
    items += [(pid, rng.choice((VALID, INVALID, None)))
              for pid in (space.pid_at(*idx) for idx in grid_indices(space))
              if rng.random() < 0.3]
    items += [(off_grid(space, pid), rng.choice((VALID, INVALID, None)))
              for pid in rng.sample(cells, min(3, len(cells)))]
    rng.shuffle(items)
    return dict(items)


def drawn_region(space, labels, rng, shape):
    """Configs of the space and off it, as a set or as a list with each
    config given one to three times."""
    cells = [space.pid_at(*idx) for idx in grid_indices(space)]
    picked = [pid for pid in cells + list(labels) if rng.random() < 0.5]
    picked += [off_grid(space, pid) for pid in rng.sample(cells, min(2, len(cells)))]
    if shape == "set":
        return set(picked)
    region = [PidConfig(pid.kp, pid.ki, pid.kd)
              for pid in picked for _ in range(rng.randint(1, 3))]
    rng.shuffle(region)
    return region


def raised(fn, *args):
    """The exception fn(*args) raises, as (type, args), or None."""
    try:
        fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), exc.args
    return None


class TestGridPathsAgainstTheReferences:
    @settings(max_examples=60, deadline=None)
    @given(space=accepted_spaces(), strides=strides_3, seed=st.integers(0, 2**16))
    def test_ground_truth_labels_the_same_cells_in_the_same_order(self, space, strides,
                                                                   seed):
        def fn(pid):
            return random.Random(f"{seed} {pid.kp!r} {pid.ki!r} {pid.kd!r}").random() < 0.5

        new, old = RecordingLookup(fn), RecordingLookup(fn)
        grid = ground_truth(space, new, strides=strides)
        ref = per_cell_ground_truth(space, old, strides)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(list(grid.labels.items())) == repr(list(ref.labels.items()))
        assert grid.strides == ref.strides == strides
        assert repr(new.calls) == repr(old.calls)

    @settings(max_examples=60, deadline=None)
    @given(space=accepted_spaces(), seed=st.integers(0, 2**16))
    def test_region_from_boundary_predicts_the_same_configs(self, space, seed):
        _, _, line = random_artifacts(space, random.Random(seed))
        assert region_from_boundary(line) == per_cell_region_from_boundary(line, space)

    @settings(max_examples=100, deadline=None)
    @given(space=accepted_spaces(), strides=strides_3, seed=st.integers(0, 2**16),
           shape=st.sampled_from(["set", "list"]))
    def test_compute_metrics_counts_as_the_set_operations_did(self, space, strides, seed,
                                                              shape):
        rng = random.Random(seed)
        gt = ClassifiedGrid(space, shuffled_labels(space, strides, rng), strides)
        region = drawn_region(space, gt.labels, rng, shape)
        assert compute_metrics(gt, region) == per_cell_compute_metrics(gt, region)
        _, _, line = random_artifacts(space, rng)
        region = region_from_boundary(line)
        assert compute_metrics(gt, region) == per_cell_compute_metrics(gt, region)

    @settings(max_examples=100, deadline=None)
    @given(space=accepted_spaces(), strides=strides_3, seed=st.integers(0, 2**16),
           drop=st.booleans())
    def test_grid_to_csv_writes_the_same_bytes(self, tmp_path_factory, space, strides,
                                               seed, drop):
        rng = random.Random(seed)
        grid = ClassifiedGrid(space, shuffled_labels(space, strides, rng), strides)
        if drop:
            del grid.labels[space.pid_at(*rng.choice(list(grid_indices(space, strides))))]
        d = tmp_path_factory.mktemp("grid")
        new = raised(grid_to_csv, grid, d / "new.csv")
        old = raised(per_cell_grid_to_csv, grid, d / "old.csv")
        if old is None:
            assert new is None
            assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
            return
        assert not (d / "new.csv").exists() and not (d / "old.csv").exists()
        if old[0] is ValueError:
            assert new == old
        else:
            # the reference raised KeyError(pid) on the first cell without a
            # label; the writer names that cell
            (pid,) = old[1]
            assert new == (ValueError, (f"cell kp={pid.kp:.9g}, ki={pid.ki:.9g}, "
                                        f"kd={pid.kd:.9g} has no label",))


def one_plane_space():
    return ParamSpace(1.0, 1.0, 1.0, 0.5, 1.0, 0.5, 0.0, 0.5, 0.5)


READERS = {
    "grid": (grid_from_csv, "kp,ki,kd,label", ["1", "0.5", "0", "valid"]),
    "configs": (configs_from_csv, "kp,ki,kd", ["1", "0.5", "0"]),
    "boundary": (boundary_from_csv, "p,d,status,i_save", ["1", "0", "boundary", "0.5"]),
}
# the field of each reader's good row that holds a grid value, by position
NUMERIC = {"grid": (0, 1, 2), "configs": (0, 1, 2), "boundary": (0, 1, 3)}


def write_rows(path, header, rows):
    path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows))


class TestCsvRejections:
    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_values_are_off_the_grid(self, tmp_path, reader, bad):
        read, header, good = READERS[reader]
        for pos in NUMERIC[reader]:
            row = list(good)
            row[pos] = bad
            path = tmp_path / "bad.csv"
            write_rows(path, header, [good, row])
            with pytest.raises(ValueError, match=r"bad\.csv:3: .* is not on the grid"):
                read(path, one_plane_space())

    @pytest.mark.parametrize("reader", READERS)
    def test_short_rows_name_the_file_and_line(self, tmp_path, reader):
        read, header, good = READERS[reader]
        path = tmp_path / "short.csv"
        write_rows(path, header, [good, good[:-1]])
        with pytest.raises(ValueError, match=r"short\.csv:3: row has \d fields, the header \d"):
            read(path, one_plane_space())

    @pytest.mark.parametrize("reader", READERS)
    def test_blank_lines_and_extra_fields_are_ignored(self, tmp_path, reader):
        read, header, good = READERS[reader]
        path = tmp_path / "loose.csv"
        write_rows(path, header, [good])
        plain = read(path, one_plane_space())
        path.write_text(header + "\n\n" + ",".join(good) + ",extra\n\n")
        loose = read(path, one_plane_space())
        if reader == "grid":
            plain, loose = plain.labels, loose.labels
        elif reader == "boundary":
            plain, loose = plain.columns, loose.columns
        assert loose == plain

    @pytest.mark.parametrize("reader", READERS)
    def test_a_field_past_the_csv_field_limit_names_the_file_and_line(self, tmp_path,
                                                                      reader):
        read, header, good = READERS[reader]
        path = tmp_path / "long.csv"
        limit = csv.field_size_limit()
        write_rows(path, header, [good, good[:-1] + ["x" * (limit + 1)], good])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: field larger "
                                             rf"than field limit \({limit}\)$"):
            read(path, one_plane_space())

    @pytest.mark.parametrize("reader", READERS)
    def test_an_undecodable_byte_names_the_file(self, tmp_path, reader):
        read, header, good = READERS[reader]
        path = tmp_path / "bytes.csv"
        write_rows(path, header, [good])
        path.write_bytes(path.read_bytes() + b",".join(map(str.encode, good[:-1]))
                         + b",\xff\n")
        # no line: the decoder counts the byte within its buffer
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec "
                                             r"can't decode byte 0xff in position \d+"):
            read(path, one_plane_space())

    # the second spelling of a cell, and the line it is on
    @pytest.mark.parametrize("again,line", [(["1", "0.5", "0"], 3),
                                            (["1.0", "0.50", "0"], 4),
                                            (["1", "1", "0.0"], 4)])
    def test_a_cell_given_twice_is_refused(self, tmp_path, again, line):
        path = tmp_path / "twice.csv"
        rows = [["1", "0.5", "0", "valid"], ["1", "1", "0", "valid"]]
        rows.insert(line - 2, again + ["invalid"])
        write_rows(path, "kp,ki,kd,label", rows)
        kp, ki, kd = again
        with pytest.raises(ValueError, match=rf"twice\.csv:{line}: cell kp={kp}, ki={ki}, "
                                             rf"kd={kd} is given twice$"):
            grid_from_csv(path, one_plane_space())

    def test_errors_in_a_row_name_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kp,ki,kd,label\n1,0.5,0,valid\n1,0.5,0.5,wobbly\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: unknown label 'wobbly'"):
            grid_from_csv(path, one_plane_space())


def build_signature(pids):
    """Whether each pid is a PidConfig, its repr and its hash, sorted: equal
    for the same type, bit-identical gains (repr tells -0.0 from 0.0) and
    the same hashes."""
    return sorted((type(pid) is PidConfig, repr(pid), hash(pid)) for pid in pids)


def is_cell_of(pids, cells):
    """Whether every pid is one of the objects in cells, not only equal."""
    ids = set(map(id, cells))
    return all(id(pid) in ids for pid in pids)


class TestGridBuildsEqualCheckedBuilds:
    """pid_at and cells build their configs without PidConfig's finiteness
    check, and ground_truth, region_from_boundary, grid_from_csv and
    configs_from_csv take theirs from cells; each config equals the checked
    PidConfig(...) of the same axis values."""

    @settings(max_examples=60, deadline=None)
    @given(space=accepted_spaces(), strides=strides_3, seed=st.integers(0, 2**16))
    def test_in_type_value_and_hash(self, tmp_path_factory, space, strides, seed):
        rng = random.Random(seed)
        kp, ki, kd = space.axes

        def checked(indices):
            return [PidConfig(kp.values[ip], ki.values[ii], kd.values[id_])
                    for ip, ii, id_ in indices]

        every = checked(grid_indices(space))
        assert (build_signature(space.pid_at(*idx) for idx in grid_indices(space))
                == build_signature(every))
        cells, sub_cells = space.cells(), space.cells(strides)
        # in index order, and kept: a second call gives the same tuple
        assert repr(list(cells)) == repr(every) and space.cells() is cells
        assert repr(list(sub_cells)) == repr(checked(grid_indices(space, strides)))
        assert space.cells(list(strides)) is sub_cells
        assert build_signature(cells) == build_signature(every)
        gt = ground_truth(space, LookupValidator(lambda pid: rng.random() < 0.5),
                          strides=strides)
        sub_grid = build_signature(checked(grid_indices(space, strides)))
        assert build_signature(gt.labels) == sub_grid
        assert is_cell_of(gt.labels, sub_cells)
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        grid_to_csv(gt, path)
        back = grid_from_csv(path, space, strides).labels
        assert build_signature(back) == sub_grid and is_cell_of(back, sub_cells)
        _, _, line = random_artifacts(space, rng)
        above = []
        for col in line.columns:
            start = {ALL_VALID: space.n_i, ALL_INVALID: 0}.get(col.status)
            if start is None:
                start = ki.snap(col.i_save) + 1
            above += [(kp.snap(col.p), ii, kd.snap(col.d))
                      for ii in range(start, space.n_i)]
        region = region_from_boundary(line)
        assert build_signature(region) == build_signature(checked(above))
        assert is_cell_of(region, cells)
        configs = [pid for pid in every if rng.random() < 0.5]
        configs_to_csv(configs, path)
        back = configs_from_csv(path, space)
        assert build_signature(back) == build_signature(configs) and is_cell_of(back, cells)
