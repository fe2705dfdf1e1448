"""Ground truth labeling and accuracy metrics for boundary search results.

Miss rate: fraction of truly invalid configs the search failed to flag.
Hit rate: fraction of flagged configs that are truly invalid. Both are
measured against a brute-force labeled grid (exhaustive or strided).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from operator import countOf

from .search import (ALL_INVALID, ALL_VALID, BOUNDARY, Axis, csv_number, data_rows,
                     reading_csv, short_row)

VALID = "valid"
INVALID = "invalid"

# what a labels lookup returns for a cell the labels lack; None is a label
_UNLABELED = object()
# a grid CSV's label field to the label it reads as: None for any other field
_LABELS = {VALID: VALID, INVALID: INVALID}


@dataclass
class ClassifiedGrid:
    """Oracle labels over a ParamSpace grid, or over the regular sub-grid
    that the index strides (sp, si, sd) pick: indices 0, s, 2s, ... per axis.
    """

    space: object
    labels: dict
    strides: tuple = (1, 1, 1)


def ground_truth(space, validator, *, strides=(1, 1, 1), workers=1):
    """Label grid configs by querying the oracle once each, in one
    classify_many call.

    strides > 1 label a regular sub-grid (indices 0, s, 2s, ... per axis);
    each must be an int >= 1. workers must be 1: labeling runs in this
    process. The labels follow the space's index order.
    """
    strides = tuple(strides)
    pids = space.cells(strides)
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
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
    cells = space.cells()
    n_i, n_d = space.n_i, space.n_d
    seen = set()
    region = set()
    for col in bl.columns:
        if col.status not in (BOUNDARY, ALL_VALID, ALL_INVALID):
            raise ValueError(f"column p={col.p!r}, d={col.d!r} has unknown status "
                             f"{col.status!r}")
        if col.status == BOUNDARY and col.i_save is None:
            raise ValueError(f"boundary column p={col.p!r}, d={col.d!r} has no i_save")
        ip, id_ = kp.snap(col.p), kd.snap(col.d)
        start = {ALL_VALID: n_i, ALL_INVALID: 0}.get(col.status)
        if start is None:
            start = ki.snap(col.i_save) + 1
        if (ip, id_) in seen:
            raise ValueError(f"column p={col.p!r}, d={col.d!r} is given twice")
        seen.add((ip, id_))
        # the column's cells are n_d apart in index order
        base = ip * n_i * n_d + id_
        region.update(cells[base + start * n_d:base + n_i * n_d:n_d])
    expect = space.n_p * n_d
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

    Rows follow the grid's index order: each axis value is formatted once,
    and the labels are looked up for the space's cells of the grid's
    strides, so keys off the written grid are left out. The bytes are those
    csv.writer writes, \r\n line ends included. Strides other than three
    ints >= 1, a cell without a label, or one with a label other than valid
    or invalid, which grid_from_csv refuses, raise ValueError before the
    file is opened; the cell is named.
    """
    space, strides = grid.space, grid.strides
    labels = map(grid.labels.get, space.cells(strides), repeat(_UNLABELED))
    p_texts, i_texts, d_texts = ([csv_number(v) for v in axis.values[::s]]
                                 for axis, s in zip(space.axes, strides))
    lines = ["kp,ki,kd,label\r\n"]
    for p_text in p_texts:
        for i_text in i_texts:
            head = f"{p_text},{i_text},"
            # d_texts leads, so zip takes no label past the row's last
            for d_text, label in zip(d_texts, labels):
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
    """Read labels back, each row's cell an entry of space.cells(strides).

    Raises ValueError, naming the file and line of the first row at fault,
    on a short row, an unknown label, a value off the grid or off the
    sub-grid the strides pick (kp, then ki, then kd) or a cell given twice,
    checked in that order, and before reading on strides other than three
    ints >= 1.
    """
    strides = tuple(strides)
    cells = space.cells(strides)
    table_p, table_i, table_d = map(Axis.table, space.axes, strides)
    # each table holds one spelling per value of its sub-grid axis
    n_i, n_d = len(table_i), len(table_d)
    labels = {}
    # written out as one loop: on a 73,200-row grid, yielding each row
    # through data_rows took about 1.5 times as long, and Axis.index per
    # field 2.7 times
    with reading_csv(path, ("kp", "ki", "kd", "label")) as (reader, picks, width):
        at_p, at_i, at_d, at_label = picks
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                raise short_row(row, width)
            label = _LABELS.get(row[at_label])
            if label is None:
                raise ValueError(f"unknown label {row[at_label]!r}")
            kp, ki, kd = row[at_p], row[at_i], row[at_d]
            cell = cells[(table_p[kp] * n_i + table_i[ki]) * n_d + table_d[kd]]
            if cell in labels:
                raise ValueError(f"cell kp={kp}, ki={ki}, kd={kd} is given twice")
            labels[cell] = label
    return ClassifiedGrid(space=space, labels=labels, strides=strides)


def configs_to_csv(configs, path):
    """Write a bare kp,ki,kd set (search results from the baselines)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd"])
        for pid in sorted(configs):
            writer.writerow(map(csv_number, pid))


def configs_from_csv(path, space):
    """Read a kp,ki,kd set back, each config an entry of space.cells().

    Raises ValueError, naming the file and line of the first row at fault,
    on a short row or a value off the grid (kp, then ki, then kd); a config
    given twice is read once.
    """
    cells = space.cells()
    table_p, table_i, table_d = map(Axis.table, space.axes)
    n_i, n_d = space.n_i, space.n_d
    configs = set()
    with reading_csv(path, ("kp", "ki", "kd")) as opened:
        for kp, ki, kd in data_rows(*opened):
            configs.add(cells[(table_p[kp] * n_i + table_i[ki]) * n_d + table_d[kd]])
    return configs
