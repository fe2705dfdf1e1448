"""Ground truth labeling and accuracy metrics for boundary search results.

Miss rate: fraction of truly invalid configs the search failed to flag.
Hit rate: fraction of flagged configs that are truly invalid. Both are
measured against a brute-force labeled grid (exhaustive or strided).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product, repeat
from operator import countOf

from .search import ALL_INVALID, ALL_VALID, BOUNDARY, Axis, csv_number, grid_pid, read_csv

VALID = "valid"
INVALID = "invalid"

# what a labels lookup returns for a cell the labels lack; None is a label
_UNLABELED = object()


@dataclass
class ClassifiedGrid:
    """Oracle labels over a ParamSpace grid, or over the regular sub-grid
    that the index strides (sp, si, sd) pick: indices 0, s, 2s, ... per axis.
    """

    space: object
    labels: dict
    strides: tuple = (1, 1, 1)


def _checked_strides(strides):
    """strides as a tuple, refused unless it is three ints >= 1."""
    strides = tuple(strides)
    if len(strides) != 3 or not all(type(s) is int and s >= 1 for s in strides):
        raise ValueError(f"strides must be three integers >= 1, got {strides!r}")
    return strides


def ground_truth(space, validator, *, strides=(1, 1, 1), workers=1):
    """Label grid configs by querying the oracle once each, in one
    classify_many call.

    strides > 1 label a regular sub-grid (indices 0, s, 2s, ... per axis);
    each must be an int >= 1. workers must be 1: labeling runs in this
    process. The labels follow the space's index order.
    """
    strides = _checked_strides(strides)
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    pids = list(map(grid_pid, product(*(axis.values[::s]
                                         for axis, s in zip(space.axes, strides)))))
    labels = dict(zip(pids, [VALID if verdict.valid else INVALID
                             for verdict in validator.classify_many(pids)]))
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


def region_from_boundary(bl, space=None):
    """Expand a BoundaryLine into the set of configs it predicts invalid.

    Per column: everything strictly above i_save for boundary columns, the
    whole column for all_invalid, nothing for all_valid. The line must cover
    every (p, d) column of the space. A column of another status, or a
    boundary column without an i_save, raises ValueError naming it.
    """
    space = bl.space if space is None else space
    kp, ki, kd = space.axes
    seen = set()
    region = set()
    for col in bl.columns:
        if col.status not in (BOUNDARY, ALL_VALID, ALL_INVALID):
            raise ValueError(f"column p={col.p!r}, d={col.d!r} has unknown status "
                             f"{col.status!r}")
        if col.status == BOUNDARY and col.i_save is None:
            raise ValueError(f"boundary column p={col.p!r}, d={col.d!r} has no i_save")
        ip, id_ = kp.snap(col.p), kd.snap(col.d)
        seen.add((ip, id_))
        if col.status == ALL_VALID:
            continue
        start = 0 if col.status == ALL_INVALID else ki.snap(col.i_save) + 1
        region.update(map(grid_pid, product((kp.values[ip],), ki.values[start:],
                                            (kd.values[id_],))))
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
    grid, so strided ground truth is compared on its own sub-grid.

    region is any iterable of configs; one given twice counts once.
    """
    labels = gt.labels
    bad = countOf(labels.values(), INVALID)
    # one lookup per distinct config of region; a cell labeled None is
    # still in the grid
    found = list(map(labels.get, set(region), repeat(_UNLABELED)))
    rs = len(found) - countOf(found, _UNLABELED)
    inter = countOf(found, INVALID)
    flags = []
    if not bad:
        flags.append("empty_ground_truth")
    if not rs:
        flags.append("empty_result_set")
    return Metrics(mr=(bad - inter) / bad if bad else 0.0,
                   hr=inter / rs if rs else 1.0,
                   gt_size=bad, rs_size=rs, intersection=inter,
                   flags=tuple(flags))


def grid_to_csv(grid, path):
    """Write kp,ki,kd,label rows with 9 significant digits.

    Rows follow the grid's index order. Each axis value is formatted once,
    and the labels are placed on the grid through one float-to-index table
    per axis; keys off the written grid are left out. The bytes are those
    csv.writer writes, \r\n line ends included. A cell without a label, or
    with a label other than valid or invalid, which grid_from_csv refuses,
    raises ValueError naming the cell before the file is opened.
    """
    axes = [axis.values[::s] for axis, s in zip(grid.space.axes, grid.strides)]
    p_at, i_at, d_at = ({v: k for k, v in enumerate(axis)} for axis in axes)
    n_i, n_d = len(axes[1]), len(axes[2])
    cells = [_UNLABELED] * (len(axes[0]) * n_i * n_d)
    for pid, label in grid.labels.items():
        ip, ii, id_ = p_at.get(pid.kp), i_at.get(pid.ki), d_at.get(pid.kd)
        if ip is not None and ii is not None and id_ is not None:
            cells[(ip * n_i + ii) * n_d + id_] = label
    p_texts, i_texts, d_texts = ([csv_number(v) for v in axis] for axis in axes)
    rows = iter(cells)
    lines = ["kp,ki,kd,label\r\n"]
    for p_text in p_texts:
        for i_text in i_texts:
            head = f"{p_text},{i_text},"
            # d_texts leads, so zip takes no label past the row's last
            for d_text, label in zip(d_texts, rows):
                if label != VALID and label != INVALID:
                    cell = f"cell kp={p_text}, ki={i_text}, kd={d_text}"
                    if label is _UNLABELED:
                        raise ValueError(f"{cell} has no label")
                    raise ValueError(f"{cell} has label {label!r}; grid CSVs hold "
                                     "only valid and invalid")
                lines.append(f"{head}{d_text},{label}\r\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def grid_from_csv(path, space, strides=(1, 1, 1)):
    """Read labels back, snapping each row onto the space grid.

    Raises ValueError, naming the file and line, on an unknown label, a
    value off the grid or off the sub-grid the strides pick, a short row or
    a cell given twice, and before reading on strides other than three ints
    >= 1.
    """
    strides = _checked_strides(strides)
    parse_p, parse_i, parse_d = map(Axis.parser, space.axes, strides)
    labels = {}

    def cell(kp, ki, kd, label):
        if label not in (VALID, INVALID):
            raise ValueError(f"unknown label {label!r}")
        n = len(labels)
        labels[grid_pid((parse_p(kp), parse_i(ki), parse_d(kd)))] = label
        if len(labels) == n:
            raise ValueError(f"cell kp={kp}, ki={ki}, kd={kd} is given twice")

    read_csv(path, ("kp", "ki", "kd", "label"), cell)
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


def configs_to_csv(configs, path):
    """Write a bare kp,ki,kd set (search results from the baselines)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd"])
        for pid in sorted(configs):
            writer.writerow(map(csv_number, pid))


def configs_from_csv(path, space):
    """Read a kp,ki,kd set back, snapping each row onto the space grid."""
    parse_p, parse_i, parse_d = map(Axis.parser, space.axes)
    configs = set()

    def config(kp, ki, kd):
        configs.add(grid_pid((parse_p(kp), parse_i(ki), parse_d(kd))))

    read_csv(path, ("kp", "ki", "kd"), config)
    return configs
