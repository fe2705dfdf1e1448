"""End-to-end acceptance checks for the whole toolkit.

Each test exercises one headline property of the pipeline on fixed,
calibrated scenarios: stability analysis vs root locations, simulation vs
asymptotic stability, boundary-search exactness and query cost, accuracy
under actuator disturbance, the downward-search ablation, baseline
comparisons at equal budget, offline vs online oracle behavior, robustness
to grid resolution and sampled ground truth, and determinism.

The two shared planes are module-scoped because labeling them exhaustively
is the dominant cost (a few thousand 60 s simulations).
"""

import time

import numpy as np
import pytest

from pidlab import (NoiseSpec, OracleConfig, ParamSpace, PidConfig,
                    PlantModel, RouthValidator, SimulationValidator,
                    boundary_to_csv, characteristic_roots, compare_oracles,
                    compute_metrics, genetic_search, ground_truth, hill_climb,
                    hold_mission, circle_mission, identify_boundary,
                    query_count, random_fuzz, region_from_boundary,
                    roots_stable, routh_stable, theoretical_boundary)
from pidlab.mtl import circle_lap_spec
from pidlab.validator import LookupValidator

A1 = A2 = 1.0
P_GAIN = 1.0

QUIET_PLANT = PlantModel(a1=A1, a2=A2, dt=0.01, t_max=60.0)
HOLD = hold_mission(setpoint=1.0, hold_tol=0.3, settle_deadline=50.0,
                    duration=60.0)
ORACLE = OracleConfig()

# 50x50 (ki, kd) plane at kp=1, noise off. The ki step is wider than the
# finite-horizon settling strip (measured <= 0.25 for kd <= 1), so simulation
# verdicts track the asymptotic stability line to within one cell.
QUIET_SPACE = ParamSpace(p_min=P_GAIN, p_max=P_GAIN, p_step=1.0,
                         i_min=0.4, i_max=20.0, i_step=0.4,
                         d_min=0.02, d_max=1.0, d_step=0.02)

# 40x40 plane with a sawtooth actuator disturbance near the closed-loop
# resonance plus mild sensor noise: the empirical validity boundary drops
# well below the asymptotic line and picks up column-to-column jitter.
NOISY_PLANT = PlantModel(a1=A1, a2=A2, dt=0.01, t_max=60.0,
                         noise=NoiseSpec(sensor_sigma=0.01,
                                         disturbance_amp=0.35,
                                         disturbance_freq=0.19))
NOISY_SPACE = ParamSpace(p_min=P_GAIN, p_max=P_GAIN, p_step=1.0,
                         i_min=0.4, i_max=16.0, i_step=0.4,
                         d_min=0.05, d_max=2.0, d_step=0.05)


def theory_height(d):
    return (P_GAIN + A1) * (d + A2)


@pytest.fixture(scope="module")
def quiet_plane():
    t0 = time.perf_counter()
    oracle = SimulationValidator(QUIET_PLANT, HOLD, ORACLE)
    grid = ground_truth(QUIET_SPACE, oracle)
    q0 = query_count()
    bl = identify_boundary(QUIET_SPACE, oracle)
    return {"grid": grid, "bl": bl, "queries": query_count() - q0,
            "wall": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def noisy_plane():
    oracle = SimulationValidator(NOISY_PLANT, HOLD, ORACLE)
    grid = ground_truth(NOISY_SPACE, oracle)
    q0 = query_count()
    bl = identify_boundary(NOISY_SPACE, oracle)
    budget = query_count() - q0
    metrics = compute_metrics(grid, region_from_boundary(bl))
    return {"oracle": oracle, "grid": grid, "bl": bl, "budget": budget,
            "metrics": metrics}


def test_01_stability_predicate_matches_root_locations():
    """The coefficient test must agree with direct eigenvalue checks on
    10,000 random closed loops whose roots are clear of the imaginary axis."""
    rng = np.random.default_rng(20240815)
    t0 = time.perf_counter()
    checked = 0
    disagreements = 0
    while checked < 10_000:
        kp, ki, kd = rng.uniform(-3.0, 9.0, size=3)
        a1, a2 = rng.uniform(-2.0, 6.0, size=2)
        pid = PidConfig(kp, ki, kd)
        roots = characteristic_roots(pid, a1, a2)
        if np.abs(roots.real).min() <= 1e-6:
            continue
        checked += 1
        if routh_stable(pid, a1, a2) != roots_stable(pid, a1, a2):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 5.0, f"10k stability checks took {elapsed:.1f}s"


def test_02_simulation_agrees_with_stability_predicate(quiet_plane):
    """Away from a one-cell band around the theory line (and the slow corner
    kp<0.2, ki<0.05), trajectory verdicts match the coefficient test on at
    least 95% of the noise-free plane."""
    grid = quiet_plane["grid"]
    s = QUIET_SPACE
    agree = 0
    considered = 0
    for pid, label in grid.labels.items():
        if abs(pid.ki - theory_height(pid.kd)) <= s.i_step + 1e-12:
            continue
        if pid.kp < 0.2 and pid.ki < 0.05:
            continue
        considered += 1
        agree += (label == "valid") == routh_stable(pid, A1, A2)
    assert considered > 2000
    rate = agree / considered
    assert rate >= 0.95, f"agreement {rate:.4f} on {considered} cells"
    assert quiet_plane["wall"] < 600.0


def test_03_noiseless_boundary_exactness(quiet_plane):
    """Column search must reproduce the brute-force largest valid ki in
    every column, and with an asymptotic-stability oracle the resulting
    polyline stays within one cell of the closed-form threshold line."""
    grid, bl = quiet_plane["grid"], quiet_plane["bl"]
    s = QUIET_SPACE
    mismatches = []
    for id_ in range(s.n_d):
        d = s.axes[2].values[id_]
        largest = None
        for ii in range(s.n_i):
            if grid.labels[s.pid_at(0, ii, id_)] == "valid":
                largest = s.axes[1].values[ii]
        col = bl.column_at(P_GAIN, d)
        found = col.i_save if col.status == "boundary" else None
        if found != largest:
            mismatches.append((d, largest, found))
    assert mismatches == []

    exact = identify_boundary(s, validator=RouthValidator(A1, A2))
    theory = dict(theoretical_boundary(P_GAIN, A1, A2,
                                       s.axes[2].values))
    for p, i_save, d in exact.entries():
        assert abs(i_save - theory[d]) <= s.i_step + 1e-12


def test_04_query_cost_is_linear_not_quadratic():
    """On a 60x60 noise-free plane the walk spends at most 5(n_i+n_d)=600
    oracle calls; exhaustive labeling would take 3600."""
    s = ParamSpace(p_min=P_GAIN, p_max=P_GAIN, p_step=1.0,
                   i_min=0.4, i_max=24.0, i_step=0.4,
                   d_min=0.02, d_max=1.2, d_step=0.02)
    assert (s.n_i, s.n_d) == (60, 60) and s.size() == 3600
    q0 = query_count()
    identify_boundary(s, SimulationValidator(QUIET_PLANT, HOLD, ORACLE))
    used = query_count() - q0
    assert used <= 5 * (s.n_i + s.n_d), f"{used} queries"
    assert s.size() / used >= 6.0


def test_05_disturbed_plane_accuracy(noisy_plane):
    """With the sawtooth pushing the empirical boundary >= 3 cells under the
    theory line on >= 20% of columns, the recovered invalid region still
    scores HR >= 0.85 and MR <= 0.25 against exhaustive labels."""
    bl = noisy_plane["bl"]
    s = NOISY_SPACE
    deviating = 0
    for c in bl.columns:
        if c.status == "boundary":
            height = c.i_save
        elif c.status == "all_invalid":
            height = s.i_min - s.i_step
        else:
            height = s.i_max
        if (theory_height(c.d) - height) / s.i_step >= 3.0:
            deviating += 1
    assert deviating / s.n_d >= 0.20, f"only {deviating} deviating columns"

    m = noisy_plane["metrics"]
    assert m.hr >= 0.85, f"hit rate {m.hr:.3f}"
    assert m.mr <= 0.25, f"miss rate {m.mr:.3f}"


def test_06_downward_search_ablation_hurts_miss_rate(noisy_plane):
    """Disabling the downward walk leaves the carried height stranded above
    boundary dips, so its miss rate must exceed the full search by >= 0.05."""
    grid = noisy_plane["grid"]
    bl_off = identify_boundary(NOISY_SPACE, noisy_plane["oracle"], dsoff=True)
    m_off = compute_metrics(grid, region_from_boundary(bl_off))
    m_full = noisy_plane["metrics"]
    assert m_full.mr < m_off.mr
    assert m_off.mr - m_full.mr >= 0.05


def test_07_boundary_search_beats_probing_baselines(noisy_plane):
    """At the boundary walk's own query budget, the expanded region contains
    at least twice as many true invalid configs as each probing baseline
    finds, averaged over three seeds."""
    grid = noisy_plane["grid"]
    budget = noisy_plane["budget"]
    truly_invalid = {pid for pid, label in grid.labels.items() if label == "invalid"}
    rs_true = noisy_plane["metrics"].intersection
    for fn in (random_fuzz, hill_climb, genetic_search):
        counts = []
        for seed in (0, 1, 2):
            found = fn(NOISY_SPACE, noisy_plane["oracle"], budget=budget,
                       seed=seed)
            assert found <= truly_invalid
            counts.append(len(found))
        avg = sum(counts) / len(counts)
        assert rs_true >= 2.0 * avg, (fn.__name__, rs_true, avg)


def test_08_online_oracle_misses_long_horizon_obligations():
    """A lap spec needs a witness within each 20 s lap. The offline check on
    the full trace agrees with a 10x-longer reference run on >= 95% of a
    100-config sample, while a 2 s sliding window, which can never resolve
    the lap-long obligation, agrees on <= 60%. Window-local specs are immune:
    on the hold spec both oracles track the reference."""
    mission = circle_mission(radius=1.0, freq=0.05, duration=60.0)
    spec = circle_lap_spec(mission)
    configs = [PidConfig(p, i, d)
               for p in (0.2, 0.5, 1.0, 2.0, 4.0)
               for i in (0.05, 0.1, 0.3, 1.0, 3.0)
               for d in (0.2, 0.6, 1.2, 2.5)]
    lap_tenth = int(round(0.1 / mission.params["freq"] / QUIET_PLANT.dt))
    cmp = compare_oracles(configs, mission, QUIET_PLANT, window=lap_tenth,
                          formula=spec)
    assert cmp.offline_agreement >= 0.95
    assert cmp.online_agreement <= 0.60
    ref_invalid = sum(1 for _, _, _, ref in cmp.rows if not ref)
    assert ref_invalid >= 0.3 * len(configs)  # the sample is not one-sided

    cmp_hold = compare_oracles(configs[::2], HOLD, QUIET_PLANT,
                               window=lap_tenth)
    assert cmp_hold.offline_agreement >= 0.95
    assert cmp_hold.online_agreement >= 0.95


def test_09_metrics_stable_across_step_sizes(noisy_plane):
    """Re-running the disturbed-plane experiment at 2x and 4x coarser steps
    moves HR by <= 0.08 and MR by <= 0.10."""
    hrs = [noisy_plane["metrics"].hr]
    mrs = [noisy_plane["metrics"].mr]
    for mult in (2, 4):
        s = ParamSpace(p_min=P_GAIN, p_max=P_GAIN, p_step=1.0,
                       i_min=NOISY_SPACE.i_min, i_max=NOISY_SPACE.i_max,
                       i_step=NOISY_SPACE.i_step * mult,
                       d_min=NOISY_SPACE.d_min, d_max=NOISY_SPACE.d_max,
                       d_step=NOISY_SPACE.d_step * mult)
        grid = ground_truth(s, noisy_plane["oracle"])
        bl = identify_boundary(s, noisy_plane["oracle"])
        m = compute_metrics(grid, region_from_boundary(bl))
        hrs.append(m.hr)
        mrs.append(m.mr)
    assert max(hrs) - min(hrs) <= 0.08, hrs
    assert max(mrs) - min(mrs) <= 0.10, mrs


def test_10_sampled_ground_truth_is_consistent(noisy_plane):
    """Scoring against a 2-strided labeled sub-grid shifts MR and HR by at
    most 0.08 compared to exhaustive labels."""
    region = region_from_boundary(noisy_plane["bl"])
    sampled = ground_truth(NOISY_SPACE, noisy_plane["oracle"], strides=(1, 2, 2))
    m_full = noisy_plane["metrics"]
    m_samp = compute_metrics(sampled, region)
    assert abs(m_samp.mr - m_full.mr) <= 0.08
    assert abs(m_samp.hr - m_full.hr) <= 0.08


def test_11_determinism_and_budget_honesty(noisy_plane, tmp_path):
    """Identical seeds must reproduce byte-identical outputs, and searchers
    must spend exactly their stated budget (or exhaust the grid)."""
    # a fresh oracle, so the rerun simulates instead of reading the memo
    rerun = identify_boundary(NOISY_SPACE, SimulationValidator(NOISY_PLANT, HOLD, ORACLE))
    assert rerun.columns == noisy_plane["bl"].columns
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    boundary_to_csv(noisy_plane["bl"], a)
    boundary_to_csv(rerun, b)
    assert a.read_bytes() == b.read_bytes()

    s = ParamSpace(p_min=1.0, p_max=1.0, p_step=1.0,
                   i_min=0.1, i_max=4.0, i_step=0.1,
                   d_min=0.0, d_max=1.0, d_step=0.5)
    oracle = RouthValidator(A1, A2)
    for fn in (random_fuzz, hill_climb, genetic_search):
        q0 = query_count()
        first = fn(s, validator=oracle, budget=57, seed=11)
        assert query_count() - q0 == 57, fn.__name__
        assert fn(s, validator=oracle, budget=57, seed=11) == first

    tiny = ParamSpace(1.0, 1.0, 1.0, 0.5, 1.5, 0.5, 0.0, 0.5, 0.5)
    q0 = query_count()
    random_fuzz(tiny, validator=LookupValidator(lambda pid: False),
                budget=10_000, seed=0)
    assert query_count() - q0 == tiny.size()
