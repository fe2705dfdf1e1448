"""Boundary search over a 3-D grid of PID gains.

For each kp plane the searcher walks kd columns left to right, carrying the
previous column's boundary height as the starting ki. An invalid start
triggers a downward walk to the first valid gain; a valid start climbs until
the first invalid one and keeps the last valid. Columns whose walk leaves
the grid are tagged all_valid / all_invalid and carry the respective grid
edge into the next column.

Also ships the three black-box baselines (random fuzzing with local
guidance, hill climbing, a small genetic algorithm) used for comparison at
equal query budgets.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass, field
from functools import partial

from .plant import PidConfig
from .validator import fan_out

BOUNDARY = "boundary"
ALL_VALID = "all_valid"
ALL_INVALID = "all_invalid"

# baseline settings, fixed so every comparison runs the same searchers
MAX_STALL = 6
POP_SIZE = 20
TOURNAMENT = 3
MUTATE_PROB = 0.1


def _axis_count(lo, hi, step):
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if hi < lo:
        raise ValueError("axis range is empty")
    # lo and hi carry up to half an ulp of rounding each, which a step much
    # finer than their magnitude magnifies: the slack grows with max|x| / step
    slack = 1e-9 + 2 * sys.float_info.epsilon * max(abs(lo), abs(hi)) / step
    return int(math.floor((hi - lo) / step + slack)) + 1


@dataclass(frozen=True)
class ParamSpace:
    """Axis-aligned grid over (kp, ki, kd).

    Every probe made by any searcher lies exactly on this grid; values are
    always reconstructed as min + index * step so identical indices give
    bit-identical floats. A grid finer than the 9 significant digits its
    CSVs keep is rejected, because its printed values would merge cells.
    """

    p_min: float
    p_max: float
    p_step: float
    i_min: float
    i_max: float
    i_step: float
    d_min: float
    d_max: float
    d_step: float

    n_p: int = field(init=False, repr=False, compare=False)
    n_i: int = field(init=False, repr=False, compare=False)
    n_d: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for axis, lo, hi, step in (("p", self.p_min, self.p_max, self.p_step),
                                   ("i", self.i_min, self.i_max, self.i_step),
                                   ("d", self.d_min, self.d_max, self.d_step)):
            count = _axis_count(lo, hi, step)
            object.__setattr__(self, "n_" + axis, count)
            name = "k" + axis
            for k in range(count):
                value = lo + k * step
                try:
                    back = self._snap(float("%.9g" % value), lo, step, count, name)
                except ValueError:
                    back = None
                if back != k:
                    raise ValueError(f"{name} step {step!r} is finer than the 9 significant "
                                     f"digits grid CSVs keep at {name}={value!r}")

    def p_value(self, idx):
        return self.p_min + idx * self.p_step

    def i_value(self, idx):
        return self.i_min + idx * self.i_step

    def d_value(self, idx):
        return self.d_min + idx * self.d_step

    def pid_at(self, ip, ii, id_):
        return PidConfig(self.p_value(ip), self.i_value(ii), self.d_value(id_))

    def _snap(self, value, lo, step, count, name):
        idx = int(round((value - lo) / step))
        # the CSV writers keep 9 significant digits (%.9g): off by <= 5e-9 * |value|
        tol = 1e-6 * step + 5e-9 * abs(value)
        if idx < 0 or idx >= count or abs(lo + idx * step - value) > tol:
            raise ValueError(f"{name}={value!r} is not on the grid")
        return idx

    def p_index(self, value):
        return self._snap(value, self.p_min, self.p_step, self.n_p, "kp")

    def i_index(self, value):
        return self._snap(value, self.i_min, self.i_step, self.n_i, "ki")

    def d_index(self, value):
        return self._snap(value, self.d_min, self.d_step, self.n_d, "kd")

    def size(self):
        return self.n_p * self.n_i * self.n_d

    def iter_indices(self, strides=(1, 1, 1)):
        sp, si, sd = strides
        for ip in range(0, self.n_p, sp):
            for ii in range(0, self.n_i, si):
                for id_ in range(0, self.n_d, sd):
                    yield ip, ii, id_

    def to_dict(self):
        return {"p_min": self.p_min, "p_max": self.p_max, "p_step": self.p_step,
                "i_min": self.i_min, "i_max": self.i_max, "i_step": self.i_step,
                "d_min": self.d_min, "d_max": self.d_max, "d_step": self.d_step}

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: float(d[k]) for k in ("p_min", "p_max", "p_step",
                                               "i_min", "i_max", "i_step",
                                               "d_min", "d_max", "d_step")})


@dataclass(frozen=True)
class ColumnRecord:
    p: float
    d: float
    status: str
    i_save: float | None


@dataclass
class BoundaryLine:
    """Per-column search results over a ParamSpace."""

    space: ParamSpace
    columns: list

    def entries(self):
        """(p, i_save, d) triples for the columns that found a boundary."""
        return [(c.p, c.i_save, c.d) for c in self.columns if c.status == BOUNDARY]

    def column_at(self, p, d):
        ip = self.space.p_index(p)
        id_ = self.space.d_index(d)
        for c in self.columns:
            if self.space.p_index(c.p) == ip and self.space.d_index(c.d) == id_:
                return c
        raise KeyError(f"no column at p={p}, d={d}")


def search_column(space, validator, p_idx, d_idx, i_start_idx, entry_valid):
    """Walk one kd column in ki from an entry whose verdict is known.

    A valid entry climbs while verdicts stay valid and returns the last
    valid index; climbing off the top yields all_valid. An invalid entry
    descends to the first valid index; falling off the bottom yields
    all_invalid. The entry itself is never re-queried.

    Returns:
        (status, i_idx) with i_idx set only for status "boundary".
    """
    step = 1 if entry_valid else -1
    j = i_start_idx + step
    while 0 <= j < space.n_i:
        if validator.classify(space.pid_at(p_idx, j, d_idx)).valid != entry_valid:
            return BOUNDARY, j - 1 if entry_valid else j
        j += step
    return (ALL_VALID if entry_valid else ALL_INVALID), None


def _search_plane(space, validator, p_idx, dsoff):
    records = []
    carry = space.n_i - 1
    for d_idx in range(space.n_d):
        entry_valid = validator.classify(space.pid_at(p_idx, carry, d_idx)).valid
        if entry_valid or not dsoff:
            status, i_idx = search_column(space, validator, p_idx, d_idx, carry,
                                          entry_valid)
        else:
            # ablated variant: no downward search, keep the carried height
            status, i_idx = BOUNDARY, carry
        p_val = space.p_value(p_idx)
        d_val = space.d_value(d_idx)
        if status == BOUNDARY:
            records.append(ColumnRecord(p_val, d_val, BOUNDARY, space.i_value(i_idx)))
            carry = i_idx
        elif status == ALL_VALID:
            records.append(ColumnRecord(p_val, d_val, ALL_VALID, None))
            carry = space.n_i - 1
        else:
            records.append(ColumnRecord(p_val, d_val, ALL_INVALID, None))
            carry = 0
    return records


def identify_boundary(space, validator, *, workers=1, dsoff=False):
    """Coordinate search for the validity boundary on every kp plane.

    Args:
        space: the search grid.
        validator: the oracle (any Validator).
        workers: kp planes are independent; > 1 fans them out to processes.
        dsoff: disable the downward search (the ablated variant).

    Returns:
        BoundaryLine with one ColumnRecord per (kp, kd) column.
    """
    planes = fan_out(partial(_search_plane, space, validator, dsoff=dsoff),
                     range(space.n_p), workers)
    return BoundaryLine(space=space, columns=[c for plane in planes for c in plane])


def _neighbor(space, rng, idx):
    """One random +-1 grid step along one random axis, or None if stuck."""
    ip, ii, id_ = idx
    dims = [0, 1, 2]
    rng.shuffle(dims)
    for dim in dims:
        for sign in rng.sample((-1, 1), 2):
            cand = [ip, ii, id_]
            cand[dim] += sign
            limit = (space.n_p, space.n_i, space.n_d)[dim]
            if 0 <= cand[dim] < limit:
                return tuple(cand)
    return None


def random_fuzz(space, validator, *, budget=100, seed=0):
    """Uniform grid sampling without replacement, with simple guidance:
    after an invalid hit the next probe perturbs it by one grid step.

    Spends exactly `budget` oracle queries (or stops early once the whole
    grid has been probed) and returns the set of invalid configs found.
    """
    rng = random.Random(seed)
    total = space.size()
    probed = set()
    found = set()
    guide = None
    while len(probed) < min(budget, total):
        idx = None
        if guide is not None:
            cand = _neighbor(space, rng, guide)
            if cand is not None and cand not in probed:
                idx = cand
            guide = None
        while idx is None:
            flat = rng.randrange(total)
            cand = (flat // (space.n_i * space.n_d),
                    (flat // space.n_d) % space.n_i,
                    flat % space.n_d)
            if cand not in probed:
                idx = cand
        probed.add(idx)
        pid = space.pid_at(*idx)
        if not validator.classify(pid).valid:
            found.add(pid)
            guide = idx
    return found


def hill_climb(space, validator, *, budget=100, seed=0):
    """Random-restart hill climbing on binary feedback.

    From a random start, proposes one-step neighbors and moves whenever the
    neighbor is invalid (the quantity being maximized); restarts after
    MAX_STALL consecutive valid proposals. Returns invalid configs found.
    """
    rng = random.Random(seed)
    found = set()
    spent = 0

    def probe(idx):
        nonlocal spent
        spent += 1
        pid = space.pid_at(*idx)
        bad = not validator.classify(pid).valid
        if bad:
            found.add(pid)
        return bad

    while spent < budget:
        current = (rng.randrange(space.n_p), rng.randrange(space.n_i),
                   rng.randrange(space.n_d))
        probe(current)
        stall = 0
        while spent < budget and stall < MAX_STALL:
            cand = _neighbor(space, rng, current)
            if cand is None:
                break
            if probe(cand):
                current = cand
                stall = 0
            else:
                stall += 1
    return found


def genetic_search(space, validator, *, budget=100, seed=0):
    """Small genetic algorithm over grid index triples.

    Fitness is 1 for invalid, 0 for valid. Tournament selection, one-point
    crossover on (p, i, d), per-gene one-step mutation with probability
    MUTATE_PROB. The initial population is drawn without replacement; every
    evaluated individual costs one query and the run stops exactly at the
    budget. Returns invalid configs found.
    """
    rng = random.Random(seed)
    found = set()
    spent = 0

    def evaluate(idx):
        nonlocal spent
        spent += 1
        pid = space.pid_at(*idx)
        bad = not validator.classify(pid).valid
        if bad:
            found.add(pid)
        return 1 if bad else 0

    total = space.size()
    pop_size = min(POP_SIZE, total, budget)
    pop = []
    seen = set()
    while len(pop) < pop_size:
        idx = (rng.randrange(space.n_p), rng.randrange(space.n_i),
               rng.randrange(space.n_d))
        if idx in seen:
            continue
        seen.add(idx)
        pop.append((idx, evaluate(idx)))

    def pick():
        best = None
        for _ in range(TOURNAMENT):
            cand = pop[rng.randrange(len(pop))]
            if best is None or cand[1] > best[1]:
                best = cand
        return best[0]

    while spent < budget:
        nxt = []
        while len(nxt) < pop_size and spent < budget:
            mom, dad = pick(), pick()
            cut = rng.randint(1, 2)
            child = list(mom[:cut] + dad[cut:])
            for dim in range(3):
                if rng.random() < MUTATE_PROB:
                    limit = (space.n_p, space.n_i, space.n_d)[dim]
                    child[dim] = min(limit - 1, max(0, child[dim] + rng.choice((-1, 1))))
            idx = tuple(child)
            nxt.append((idx, evaluate(idx)))
        if nxt:
            pop = nxt
    return found


def boundary_to_csv(bl, path):
    """Write p,d,status,i_save rows (i_save empty for edge columns)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "d", "status", "i_save"])
        for c in bl.columns:
            sv = "%.9g" % c.i_save if c.i_save is not None else ""
            writer.writerow(["%.9g" % c.p, "%.9g" % c.d, c.status, sv])


def boundary_from_csv(path, space):
    """Read a boundary CSV back, snapping values onto the given space."""
    columns = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"p", "d", "status", "i_save"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(need)}")
        for row in reader:
            status = row["status"]
            if status not in (BOUNDARY, ALL_VALID, ALL_INVALID):
                raise ValueError(f"{path}: unknown column status {status!r}")
            p = space.p_value(space.p_index(float(row["p"])))
            d = space.d_value(space.d_index(float(row["d"])))
            i_save = None
            if status == BOUNDARY:
                i_save = space.i_value(space.i_index(float(row["i_save"])))
            columns.append(ColumnRecord(p, d, status, i_save))
    return BoundaryLine(space=space, columns=columns)
