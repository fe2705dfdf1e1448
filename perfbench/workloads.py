"""The four benchmark workloads.

Each workload drives pidlab only through its public surface:
`pidlab.cli.main([...])` in-process for the CLI workloads, the exported
library functions for the others. Every call runs with one worker, so the
numbers measure the program and not the scheduler. A pass runs its calls
back to back (a batch tool has no arrival schedule); only the calls into
pidlab are timed, the output checks after them are not.

Workload seeds: the benchmark ships SHIPPED_SEEDS seeds with recorded
digests, and maps any --seed onto them, so every run can be checked.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pidlab
from pidlab import cli, evalkit
from pidlab.mtl import circle_lap_spec
import calibration
from checks import file_digest, value_digest

SHIPPED_SEEDS = 10
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# Relative to the checkout root, so the paths pidlab records in its outputs
# (and therefore the digests) do not depend on where the checkout lives.
OUT = Path(".perfbench_out")
DISTURBED_INI = FIXTURES / "disturbed_plane.ini"
GT_FIXTURE = Path("perfbench/fixtures/gt_disturbed_full.csv")
ONLINE_FIXTURE = FIXTURES / "online_configs.csv"
DIGESTS = FIXTURES / "digests.json"

# Reported stage times; every timed call of a pass falls in one stage.
STAGES = ("ground_truth_s", "search_s", "baselines_s", "eval_s", "csv_io_s")


class PassClock:
    """Time spent inside pidlab calls during one pass, by stage.

    With calibrate=True every call is timed by calibration.timed(), which
    samples the machine's speed while the call runs.
    """

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.raw = Counter()
        self.calibrated = Counter()

    @contextlib.contextmanager
    def stage(self, name):
        with calibration.timed(self.calibrate) as timing:
            yield
        self.raw[name] += timing.raw
        self.calibrated[name] += timing.calibrated

    def result(self, queries, oracle_queries):
        return PassResult(sum(self.calibrated.values()), sum(self.raw.values()),
                          queries, oracle_queries, dict(self.raw))


@dataclass
class PassResult:
    wall: float  # calibrated seconds inside pidlab calls
    raw_wall: float  # the same, as measured
    queries: int  # oracle queries answered during the pass
    oracle_queries: int  # the workload's headline query count
    stages: dict = field(default_factory=dict)  # raw seconds by stage


def write_seeded_config(dst, seed, strides=None):
    cp = configparser.ConfigParser()
    with open(DISTURBED_INI) as fh:
        cp.read_file(fh)
    cp.set("oracle", "base_seed", str(seed))
    if strides is not None:
        cp.set("search", "strides", strides)
    with open(dst, "w") as fh:
        cp.write(fh)


def run_cli(op, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    op.expect(code == 0, f"pidlab {' '.join(map(str, argv))} exited {code}")


def read_sidecar(path):
    with open(Path(path).with_suffix(".json")) as fh:
        return json.load(fh)


class _DisturbedPlane:
    """Shared set-up of the two CLI workloads on the disturbed plane."""

    uses_seed = True

    def __init__(self, seed):
        self.seed = seed
        self.dir = OUT / self.name
        self.config = self.dir / "plane.ini"

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        write_seeded_config(self.config, self.seed)
        app = cli.load_config(self.config)
        oracle = pidlab.SimulationValidator(app.plant, app.mission, app.oracle)
        oracle.classify(app.space.pid_at(0, 0, 0))


class LabelHoldDisturbed(_DisturbedPlane):
    name = "label_hold_disturbed"

    def run_pass(self, ops, clock):
        out = self.dir / "labels.csv"
        queries = 0
        with ops.op("pidlab ground-truth") as op:
            with clock.stage("ground_truth_s"):
                run_cli(op, ["ground-truth", "--config", self.config, "--out", out,
                             "--workers", 1])
            queries = read_sidecar(out)["oracle_queries"]
            op.output_file(out.name, out)
            op.output_file(out.with_suffix(".json").name, out.with_suffix(".json"))
        return clock.result(queries, queries)


class SearchHoldDisturbed(_DisturbedPlane):
    name = "search_hold_disturbed"
    walks = ("boundary", "boundary-dsoff")
    baselines = ("random-fuzz", "hill-climb", "genetic")

    def setup(self):
        super().setup()
        meta = read_sidecar(GT_FIXTURE)
        evalkit.grid_from_csv(GT_FIXTURE, pidlab.ParamSpace.from_dict(meta["space"]))

    def _search(self, ops, clock, stage, algorithm, extra=()):
        out = self.dir / f"{algorithm}.csv"
        with ops.op(f"pidlab search {algorithm}") as op:
            with clock.stage(stage):
                run_cli(op, ["search", "--config", self.config, "--algorithm", algorithm,
                             "--out", out, "--workers", 1, *extra])
            queries = read_sidecar(out)["oracle_queries"]
            op.output_file(out.name, out)
            op.output_file(out.with_suffix(".json").name, out.with_suffix(".json"))
            return queries
        return 0

    def run_pass(self, ops, clock):
        walk = self._search(ops, clock, "search_s", "boundary")
        queries = walk + self._search(ops, clock, "search_s", "boundary-dsoff")
        for algorithm in self.baselines:
            queries += self._search(ops, clock, "baselines_s", algorithm,
                                    ("--budget", walk, "--seed", self.seed))
        for algorithm in self.walks + self.baselines:
            scored = self.dir / f"{algorithm}.metrics.json"
            with ops.op(f"pidlab eval {algorithm}") as op:
                with clock.stage("eval_s"):
                    run_cli(op, ["eval", "--gt", GT_FIXTURE,
                                 "--result", self.dir / f"{algorithm}.csv",
                                 "--out", scored])
                op.output_file(scored.name, scored)
        return clock.result(queries, walk)


VERDICT_COLUMNS = ("lap_offline", "lap_online", "lap_reference",
                   "hold_offline", "hold_online", "hold_reference")


def read_online_fixture(path=ONLINE_FIXTURE):
    """[(PidConfig, lap verdicts, hold verdicts)], each verdict triple
    (offline, online, reference) as recorded from compare_oracles."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            flags = [row[c] == "valid" for c in VERDICT_COLUMNS]
            pid = pidlab.PidConfig(float(row["kp"]), float(row["ki"]), float(row["kd"]))
            rows.append((pid, tuple(flags[:3]), tuple(flags[3:])))
    return rows


def draw_subset(rows, seed, share=4):
    """Seeded sample stratified by verdict class.

    Each class contributes max(1, round(share * class fraction)) configs, so
    every seed gets the same mix of verdicts and so the same agreement
    fractions and the same amount of monitoring work.
    """
    classes = defaultdict(list)
    for row in rows:
        classes[row[1:]].append(row)
    rng = random.Random(seed)
    picked = []
    for key in sorted(classes):
        members = classes[key]
        picked += rng.sample(members, max(1, round(share * len(members) / len(rows))))
    return picked


def _agreement(verdicts):
    n = len(verdicts)
    return (sum(off == ref for off, _, ref in verdicts) / n,
            sum(on == ref for _, on, ref in verdicts) / n)


class OnlineLapCircle:
    """test_08's offline-vs-online comparison on a seeded subset."""

    name = "online_lap_circle"
    uses_seed = True
    window = 200  # samples: a tenth of the 20 s lap at dt = 0.01, as in test_08
    plant = pidlab.PlantModel(a1=1.0, a2=1.0, dt=0.01, t_max=60.0)
    circle = pidlab.circle_mission(radius=1.0, freq=0.05, duration=60.0)
    lap_spec = circle_lap_spec(circle)
    hold = pidlab.hold_mission(setpoint=1.0, hold_tol=0.3, settle_deadline=50.0,
                               duration=60.0)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.subset = draw_subset(read_online_fixture(), self.seed)
        pidlab.simulate(self.plant, self.subset[0][0], self.circle)

    def _compare(self, ops, clock, label, expected, mission, formula=None):
        configs = [row[0] for row in self.subset]
        with ops.op(f"compare_oracles {label}") as op:
            with clock.stage("compare_s"):
                cmp = pidlab.compare_oracles(configs, mission, self.plant,
                                             window=self.window, formula=formula)
            got = [row[1:] for row in cmp.rows]
            op.expect(got == expected, f"{label} verdicts {got} != recorded {expected}")
            agree = (cmp.offline_agreement, cmp.online_agreement)
            op.expect(agree == _agreement(expected),
                      f"{label} agreement {agree} != {_agreement(expected)}")
            op.expect(cmp.offline_agreement == 1.0, f"{label}: offline oracle "
                      f"agrees with the reference on {cmp.offline_agreement}")

    def run_pass(self, ops, clock):
        q0 = pidlab.query_count()
        self._compare(ops, clock, "lap_reach", [row[1] for row in self.subset],
                      self.circle, self.lap_spec)
        self._compare(ops, clock, "hold_tolerance", [row[2] for row in self.subset],
                      self.hold)
        queries = pidlab.query_count() - q0
        return clock.result(queries, queries)


class RouthGrid3d:
    """No simulation: oracle overhead, set-based metrics and CSV I/O."""

    name = "routh_grid_3d"
    uses_seed = False
    space = pidlab.ParamSpace(p_min=-0.5, p_max=4.0, p_step=0.5,
                              i_min=0.1, i_max=12.0, i_step=0.1,
                              d_min=0.0, d_max=3.0, d_step=0.05)

    def __init__(self, seed):
        self.seed = seed
        self.dir = OUT / self.name

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.oracle = pidlab.RouthValidator(1.0, 1.0)
        self.oracle.classify(self.space.pid_at(0, 0, 0))

    def run_pass(self, ops, clock):
        space = self.space
        out = self.dir / "grid.csv"
        q0 = pidlab.query_count()
        walk = 0
        with ops.op("ground_truth") as op:
            with clock.stage("ground_truth_s"):
                grid = pidlab.ground_truth(space, validator=self.oracle, workers=1)
            op.expect(len(grid.labels) == space.size() == pidlab.query_count() - q0,
                      "ground truth did not label every cell with one query")
        with ops.op("identify_boundary") as op:
            q1 = pidlab.query_count()
            with clock.stage("search_s"):
                line = pidlab.identify_boundary(space, validator=self.oracle, workers=1)
            walk = pidlab.query_count() - q1
            op.output("boundary", value_digest(
                {"queries": walk,
                 "columns": [[c.p, c.d, c.status, c.i_save] for c in line.columns]}))
        with ops.op("region_from_boundary") as op:
            with clock.stage("eval_s"):
                region = pidlab.region_from_boundary(line, space)
            op.output("region", value_digest(sorted((c.kp, c.ki, c.kd) for c in region)))
        with ops.op("compute_metrics") as op:
            with clock.stage("eval_s"):
                metrics = pidlab.compute_metrics(grid, region)
            op.expect(metrics.mr == 0.0 and metrics.hr == 1.0,
                      f"Routh oracle scored MR={metrics.mr} HR={metrics.hr}")
            op.output("metrics.json", value_digest(metrics.to_dict()))
        with ops.op("grid_to_csv") as op:
            with clock.stage("csv_io_s"):
                evalkit.grid_to_csv(grid, out)
            op.output_file(out.name, out)
        with ops.op("grid_from_csv") as op:
            with clock.stage("csv_io_s"):
                back = evalkit.grid_from_csv(out, space)
            op.expect(back.labels == grid.labels, "grid CSV did not round-trip")
        return clock.result(pidlab.query_count() - q0, walk)


WORKLOADS = {w.name: w for w in (LabelHoldDisturbed, SearchHoldDisturbed,
                                 OnlineLapCircle, RouthGrid3d)}


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def expected_digests(table, workload, seed):
    """Recorded digests for this run; an empty table fails every output."""
    return table.get(workload.name, {}).get(str(seed if workload.uses_seed else 0), {})
