"""Ground truth labeling and accuracy metrics for boundary search results.

Miss rate: fraction of truly invalid configs the search failed to flag.
Hit rate: fraction of flagged configs that are truly invalid. Both are
measured against a brute-force labeled grid (exhaustive or strided).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice, repeat
from operator import countOf

from .search import (ALL_INVALID, ALL_VALID, BOUNDARY, Axis, csv_number, read_csv,
                     refuse_row)

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


def _check_cell(axes, strides, kp, ki, kd, *label):
    """Raise ValueError for a kp,ki,kd[,label] row that _read_cells
    refuses, checking its label, kp, ki and kd in that order."""
    if label and label[0] not in _LABELS:
        raise ValueError(f"unknown label {label[0]!r}")
    for axis, stride, text in zip(axes, strides, (kp, ki, kd)):
        axis.index(text, stride)


def _read_cells(path, space, strides, names):
    """The cells that the rows of the kp,ki,kd[,label] CSV at path name on
    the sub-grid of strides, chunk by chunk.

    Yields (lines, columns, keys, labels) per read_csv chunk, keys and
    labels for its rows before the first one refused: keys[k] is row k's
    entry of space.cells(strides) and labels[k] its label, or labels is
    None without a label column. Once a chunk with a refused row has been
    taken, raises its refusal, naming the file and line: an unknown label,
    or a value off the grid or off the sub-grid. Strides other than three
    ints >= 1 raise before the file is opened.
    """
    cells = space.cells(strides)
    axes = space.axes
    parsers = list(map(Axis.parser, axes, strides))
    _, n_i, n_d = (len(axis.values[::s]) for axis, s in zip(axes, strides))
    for lines, columns in read_csv(path, names):
        found = [parse(texts) for parse, texts in zip(parsers, columns)]
        labels = list(map(_LABELS.get, columns[3])) if len(columns) > 3 else None
        checks = found if labels is None else found + [labels]
        refused = [col.index(None) for col in checks if None in col]
        stop = min(refused, default=len(lines))
        ip, ii, id_ = (col[:stop] for col in found) if refused else found
        keys = [cells[(a * n_i + b) * n_d + c] for a, b, c in zip(ip, ii, id_)]
        yield lines, columns, keys, labels
        if refused:
            refuse_row(path, lines[stop], _check_cell, axes, strides,
                       *(col[stop] for col in columns))


def grid_from_csv(path, space, strides=(1, 1, 1)):
    """Read labels back, each row's cell an entry of space.cells(strides).

    Raises ValueError, naming the file and line of the first row at fault,
    on a short row, an unknown label, a value off the grid or off the
    sub-grid the strides pick, or a cell given twice, and before reading on
    strides other than three ints >= 1.
    """
    strides = tuple(strides)
    labels = {}
    for lines, (kp, ki, kd, _), keys, marks in _read_cells(path, space, strides,
                                                           ("kp", "ki", "kd", "label")):
        n = len(labels)
        labels.update(zip(keys, marks))
        if len(labels) - n < len(keys):
            # the dict keeps the earlier chunks' keys first
            seen = set(islice(labels, n))
            for row, key in enumerate(keys):
                if key in seen:
                    raise ValueError(f"{path}:{lines[row]}: cell kp={kp[row]}, ki={ki[row]}, "
                                     f"kd={kd[row]} is given twice")
                seen.add(key)
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

    Raises ValueError, naming the file and line, on a short row or a value
    off the grid; a config given twice is read once.
    """
    configs = set()
    for _, _, keys, _ in _read_cells(path, space, (1, 1, 1), ("kp", "ki", "kd")):
        configs.update(keys)
    return configs
