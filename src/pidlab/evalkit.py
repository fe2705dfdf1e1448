"""Ground truth labeling and accuracy metrics for boundary search results.

Miss rate: fraction of truly invalid configs the search failed to flag.
Hit rate: fraction of flagged configs that are truly invalid. Both are
measured against a brute-force labeled grid (exhaustive or strided).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .plant import PidConfig
from .search import ALL_INVALID, ALL_VALID, csv_number, read_csv

VALID = "valid"
INVALID = "invalid"


@dataclass
class ClassifiedGrid:
    """Oracle labels over a ParamSpace grid, or over the regular sub-grid
    that the index strides (sp, si, sd) pick: indices 0, s, 2s, ... per axis.
    """

    space: object
    labels: dict
    strides: tuple = (1, 1, 1)

    def invalid_set(self):
        return {pid for pid, lab in self.labels.items() if lab == INVALID}


def ground_truth(space, validator, *, strides=(1, 1, 1), workers=1):
    """Label grid configs by querying the oracle once each, in one
    classify_many call.

    strides > 1 label a regular sub-grid (indices 0, s, 2s, ... per axis);
    each must be an int >= 1. workers must be 1: labeling runs in this
    process.
    """
    strides = tuple(strides)
    if len(strides) != 3 or not all(type(s) is int and s >= 1 for s in strides):
        raise ValueError(f"strides must be three integers >= 1, got {strides!r}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    pids = [space.pid_at(*trip) for trip in space.iter_indices(strides)]
    labels = {pid: VALID if verdict.valid else INVALID
              for pid, verdict in zip(pids, validator.classify_many(pids))}
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


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


def grid_to_csv(grid, path):
    """Write kp,ki,kd,label rows with 9 significant digits.

    Rows follow the grid's index order. Each axis value is formatted once;
    the bytes are those csv.writer writes, \r\n line ends included. A label
    other than valid or invalid, which grid_from_csv refuses, raises
    ValueError naming its cell before the file is opened.
    """
    space = grid.space
    sp, si, sd = grid.strides
    p_axis, i_axis, d_axis = (
        [(v, csv_number(v)) for v in map(value, range(0, count, stride))]
        for value, count, stride in ((space.p_value, space.n_p, sp),
                                     (space.i_value, space.n_i, si),
                                     (space.d_value, space.n_d, sd)))
    labels = grid.labels
    lines = ["kp,ki,kd,label\r\n"]
    for p, p_text in p_axis:
        for i, i_text in i_axis:
            head = f"{p_text},{i_text},"
            for d, d_text in d_axis:
                label = labels[PidConfig(p, i, d)]
                if label != VALID and label != INVALID:
                    raise ValueError(f"cell kp={p_text}, ki={i_text}, kd={d_text} has label "
                                     f"{label!r}; grid CSVs hold only valid and invalid")
                lines.append(f"{head}{d_text},{label}\r\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def grid_from_csv(path, space, strides=(1, 1, 1)):
    """Read labels back, snapping each row onto the space grid.

    Raises ValueError, naming the file and line, on an unknown label, a
    value off the grid, a short row or a cell given twice.
    """
    parse_p, parse_i, parse_d = space.parsers()
    labels = {}

    def cell(kp, ki, kd, label):
        if label not in (VALID, INVALID):
            raise ValueError(f"unknown label {label!r}")
        pid = PidConfig(parse_p(kp), parse_i(ki), parse_d(kd))
        if pid in labels:
            raise ValueError(f"cell kp={kp}, ki={ki}, kd={kd} is given twice")
        labels[pid] = label

    read_csv(path, ("kp", "ki", "kd", "label"), cell)
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


def configs_to_csv(configs, path):
    """Write a bare kp,ki,kd set (search results from the baselines)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd"])
        for pid in sorted(configs, key=lambda c: (c.kp, c.ki, c.kd)):
            writer.writerow([csv_number(pid.kp), csv_number(pid.ki), csv_number(pid.kd)])


def configs_from_csv(path, space):
    """Read a kp,ki,kd set back, snapping each row onto the space grid."""
    parse_p, parse_i, parse_d = space.parsers()
    configs = set()

    def config(kp, ki, kd):
        configs.add(PidConfig(parse_p(kp), parse_i(ki), parse_d(kd)))

    read_csv(path, ("kp", "ki", "kd"), config)
    return configs
