"""Ground truth labeling and accuracy metrics for boundary search results.

Miss rate: fraction of truly invalid configs the search failed to flag.
Hit rate: fraction of flagged configs that are truly invalid. Both are
measured against a brute-force labeled grid (exhaustive or strided).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

from .search import ALL_INVALID, ALL_VALID
from .validator import SimulationValidator, fan_out

VALID = "valid"
INVALID = "invalid"


@dataclass
class ClassifiedGrid:
    """Oracle labels over (a subset of) a ParamSpace grid.

    coverage is "exhaustive" or ("sampled", (sp, si, sd)) where the triple
    holds the index strides actually labeled.
    """

    space: object
    labels: dict
    coverage: object = "exhaustive"

    def invalid_set(self):
        return {pid for pid, lab in self.labels.items() if lab == INVALID}

    def strides(self):
        if self.coverage == "exhaustive":
            return (1, 1, 1)
        kind, strides = self.coverage
        if kind != "sampled":
            raise ValueError(f"unknown coverage {self.coverage!r}")
        return strides


def _label_chunk(space, validator, triples):
    out = []
    for trip in triples:
        pid = space.pid_at(*trip)
        verdict = validator.classify(pid)
        out.append((pid, VALID if verdict.valid else INVALID))
    return out


def ground_truth(space, validator, *, strides=(1, 1, 1), workers=1):
    """Label grid configs by querying the oracle once each.

    strides > 1 label a regular sub-grid (indices 0, s, 2s, ... per axis).
    Results do not depend on the worker count; configs are embarrassingly
    parallel.
    """
    triples = list(space.iter_indices(strides))
    n_chunks = max(1, min(workers, len(triples)))
    chunks = [triples[k::n_chunks] for k in range(n_chunks)]
    labels = {}
    for part in fan_out(partial(_label_chunk, space, validator), chunks, workers):
        labels.update(part)
    coverage = "exhaustive" if strides == (1, 1, 1) else ("sampled", tuple(strides))
    return ClassifiedGrid(space=space, labels=labels, coverage=coverage)


def region_from_boundary(bl, space=None):
    """Expand a BoundaryLine into the set of configs it predicts invalid.

    Per column: everything strictly above i_save for boundary columns, the
    whole column for all_invalid, nothing for all_valid. The line must cover
    every (p, d) column of the space.
    """
    space = bl.space if space is None else space
    seen = set()
    region = set()
    for col in bl.columns:
        ip = space.p_index(col.p)
        id_ = space.d_index(col.d)
        seen.add((ip, id_))
        if col.status == ALL_VALID:
            continue
        start = 0 if col.status == ALL_INVALID else space.i_index(col.i_save) + 1
        for ii in range(start, space.n_i):
            region.add(space.pid_at(ip, ii, id_))
    expect = space.n_p * space.n_d
    if len(seen) != expect:
        raise ValueError(f"boundary line covers {len(seen)} of {expect} columns")
    return region


def _restrict(gt, region):
    domain = gt.labels.keys()
    return {pid for pid in region if pid in domain}


def miss_rate(gt, region):
    """|GT_invalid - RS| / |GT_invalid|; 0 when the ground truth has no
    invalid configs at all."""
    bad = gt.invalid_set()
    if not bad:
        return 0.0
    rs = _restrict(gt, region)
    return len(bad - rs) / len(bad)


def hit_rate(gt, region):
    """|RS & GT_invalid| / |RS|, with RS restricted to the labeled grid;
    1 for an empty result set."""
    rs = _restrict(gt, region)
    if not rs:
        return 1.0
    return len(rs & gt.invalid_set()) / len(rs)


@dataclass(frozen=True)
class Metrics:
    mr: float
    hr: float
    gt_size: int
    rs_size: int
    intersection: int
    flags: tuple = ()

    def to_dict(self):
        return {"mr": self.mr, "hr": self.hr, "gt_size": self.gt_size,
                "rs_size": self.rs_size, "intersection": self.intersection,
                "flags": list(self.flags)}


def compute_metrics(gt, region):
    """Full MR/HR report. rs_size counts only configs inside the labeled
    grid, so strided ground truth is compared on its own sub-grid."""
    bad = gt.invalid_set()
    rs = _restrict(gt, region)
    inter = rs & bad
    flags = []
    if not bad:
        flags.append("empty_ground_truth")
    if not rs:
        flags.append("empty_result_set")
    return Metrics(mr=miss_rate(gt, region), hr=hit_rate(gt, region),
                   gt_size=len(bad), rs_size=len(rs), intersection=len(inter),
                   flags=tuple(flags))


@dataclass
class OracleComparison:
    rows: list  # (pid, offline_valid, online_valid, reference_valid)
    offline_agreement: float
    online_agreement: float


def compare_oracles(configs, mission, plant, window, cfg=None, formula=None,
                    ref_factor=10):
    """Offline vs online verdicts against a long-horizon reference.

    The reference verdict is the offline oracle on a run ref_factor times
    longer (standing in for human-reviewed labels). Agreement is the
    fraction of configs where each oracle matches the reference.
    """
    from dataclasses import replace

    from .validator import OracleConfig

    if cfg is None:
        cfg = OracleConfig()
    off_v = SimulationValidator(plant, mission, replace(cfg, kind="offline", window=None),
                                formula=formula)
    on_v = SimulationValidator(plant, mission, replace(cfg, kind="online", window=window),
                               formula=formula)
    long_mission = replace(mission, duration=mission.duration * ref_factor)
    long_plant = replace(plant, t_max=max(plant.t_max, long_mission.duration))
    ref_v = SimulationValidator(long_plant, long_mission,
                                replace(cfg, kind="offline", window=None),
                                formula=formula)
    rows = []
    off_hits = 0
    on_hits = 0
    for pid in configs:
        off = off_v.classify(pid).valid
        on = on_v.classify(pid).valid
        ref = ref_v.classify(pid).valid
        rows.append((pid, off, on, ref))
        off_hits += off == ref
        on_hits += on == ref
    n = max(len(rows), 1)
    return OracleComparison(rows=rows, offline_agreement=off_hits / n,
                            online_agreement=on_hits / n)


def grid_to_csv(grid, path):
    """Write kp,ki,kd,label rows with 9 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd", "label"])
        for ip, ii, id_ in grid.space.iter_indices(grid.strides()):
            pid = grid.space.pid_at(ip, ii, id_)
            writer.writerow(["%.9g" % pid.kp, "%.9g" % pid.ki, "%.9g" % pid.kd,
                             grid.labels[pid]])


def grid_from_csv(path, space, coverage="exhaustive"):
    """Read labels back, snapping each row onto the space grid."""
    labels = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"kp", "ki", "kd", "label"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(need)}")
        for row in reader:
            if row["label"] not in (VALID, INVALID):
                raise ValueError(f"{path}: unknown label {row['label']!r}")
            pid = space.pid_at(space.p_index(float(row["kp"])),
                               space.i_index(float(row["ki"])),
                               space.d_index(float(row["kd"])))
            labels[pid] = row["label"]
    return ClassifiedGrid(space=space, labels=labels, coverage=coverage)


def configs_to_csv(configs, path):
    """Write a bare kp,ki,kd set (search results from the baselines)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd"])
        for pid in sorted(configs, key=lambda c: (c.kp, c.ki, c.kd)):
            writer.writerow(["%.9g" % pid.kp, "%.9g" % pid.ki, "%.9g" % pid.kd])


def configs_from_csv(path, space):
    configs = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"kp", "ki", "kd"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(need)}")
        for row in reader:
            configs.add(space.pid_at(space.p_index(float(row["kp"])),
                                     space.i_index(float(row["ki"])),
                                     space.d_index(float(row["kd"]))))
    return configs
