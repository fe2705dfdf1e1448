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
from dataclasses import dataclass
from functools import partial

from .plant import PidConfig
from .validator import SimulationValidator, fan_out

BOUNDARY = "boundary"
ALL_VALID = "all_valid"
ALL_INVALID = "all_invalid"

DOWN = "down"
UP = "up"


def _axis_count(lo, hi, step):
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if hi < lo:
        raise ValueError("axis range is empty")
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


@dataclass(frozen=True)
class ParamSpace:
    """Axis-aligned grid over (kp, ki, kd).

    Every probe made by any searcher lies exactly on this grid; values are
    always reconstructed as min + index * step so identical indices give
    bit-identical floats.
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

    def __post_init__(self):
        self.n_p, self.n_i, self.n_d  # validates all three axes

    @property
    def n_p(self):
        return _axis_count(self.p_min, self.p_max, self.p_step)

    @property
    def n_i(self):
        return _axis_count(self.i_min, self.i_max, self.i_step)

    @property
    def n_d(self):
        return _axis_count(self.d_min, self.d_max, self.d_step)

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
        tol = 1e-6 * max(step, 1.0) + 5e-9 * abs(value)
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


def _resolve_validator(mission, plant, cfg, validator):
    if validator is not None:
        return validator
    if mission is None or plant is None or cfg is None:
        raise ValueError("need either a validator or (mission, plant, cfg)")
    return SimulationValidator(plant, mission, cfg)


def search_column(space, validator, p_idx, d_idx, i_start_idx, direction,
                  entry_verdict=None):
    """Walk one kd column in ki until the validity transition.

    direction="down": step ki downward from i_start until the first valid
    verdict and return that index; falling off the bottom of the grid yields
    all_invalid. direction="up": step upward while verdicts stay valid and
    return the last valid index (the caller is expected to know i_start is
    valid); climbing off the top yields all_valid.

    entry_verdict, when given, is the already-known verdict at i_start_idx
    and saves re-querying it.

    Returns:
        (status, i_idx) with i_idx set only for status "boundary".
    """
    if direction not in (DOWN, UP):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    j = i_start_idx
    if direction == DOWN:
        while j >= 0:
            if entry_verdict is not None and j == i_start_idx:
                valid = entry_verdict
            else:
                valid = validator.classify(space.pid_at(p_idx, j, d_idx)).valid
            if valid:
                return BOUNDARY, j
            j -= 1
        return ALL_INVALID, None
    last_valid = None
    while j < space.n_i:
        if entry_verdict is not None and j == i_start_idx:
            valid = entry_verdict
        else:
            valid = validator.classify(space.pid_at(p_idx, j, d_idx)).valid
        if not valid:
            if last_valid is None:
                # misuse guard: upward search entered on an invalid verdict
                return (BOUNDARY, j - 1) if j > 0 else (ALL_INVALID, None)
            return BOUNDARY, last_valid
        last_valid = j
        j += 1
    return ALL_VALID, None


def _search_plane(space, validator, p_idx, dsoff):
    records = []
    carry = space.n_i - 1
    for d_idx in range(space.n_d):
        pid = space.pid_at(p_idx, carry, d_idx)
        entry_valid = validator.classify(pid).valid
        p_val = space.p_value(p_idx)
        d_val = space.d_value(d_idx)
        if entry_valid:
            status, i_idx = search_column(space, validator, p_idx, d_idx, carry,
                                          UP, entry_verdict=True)
        elif dsoff:
            # ablated variant: no downward search, keep the carried height
            status, i_idx = BOUNDARY, carry
        else:
            status, i_idx = search_column(space, validator, p_idx, d_idx, carry,
                                          DOWN, entry_verdict=False)
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


def identify_boundary(space, mission=None, plant=None, cfg=None, validator=None,
                      workers=1, dsoff=False):
    """Coordinate search for the validity boundary on every kp plane.

    Args:
        space: the search grid.
        mission, plant, cfg: build the default SimulationValidator.
        validator: overrides the oracle (any Validator).
        workers: kp planes are independent; > 1 fans them out to processes.
        dsoff: disable the downward search (the ablated variant).

    Returns:
        BoundaryLine with one ColumnRecord per (kp, kd) column.
    """
    validator = _resolve_validator(mission, plant, cfg, validator)
    planes = fan_out(partial(_search_plane, space, validator, dsoff=dsoff),
                     range(space.n_p), workers)
    return BoundaryLine(space=space, columns=[c for plane in planes for c in plane])


def identify_boundary_dsoff(space, mission=None, plant=None, cfg=None,
                            validator=None, workers=1):
    """identify_boundary with the downward branch disabled."""
    return identify_boundary(space, mission, plant, cfg, validator,
                             workers=workers, dsoff=True)


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


def random_fuzz(space, mission=None, plant=None, cfg=None, budget=100, seed=0,
                validator=None):
    """Uniform grid sampling without replacement, with simple guidance:
    after an invalid hit the next probe perturbs it by one grid step.

    Spends exactly `budget` oracle queries (or stops early once the whole
    grid has been probed) and returns the set of invalid configs found.
    """
    validator = _resolve_validator(mission, plant, cfg, validator)
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


def hill_climb(space, mission=None, plant=None, cfg=None, budget=100, seed=0,
               validator=None, max_stall=6):
    """Random-restart hill climbing on binary feedback.

    From a random start, proposes one-step neighbors and moves whenever the
    neighbor is invalid (the quantity being maximized); restarts after
    max_stall consecutive valid proposals. Returns invalid configs found.
    """
    validator = _resolve_validator(mission, plant, cfg, validator)
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
        while spent < budget and stall < max_stall:
            cand = _neighbor(space, rng, current)
            if cand is None:
                break
            if probe(cand):
                current = cand
                stall = 0
            else:
                stall += 1
    return found


def genetic_search(space, mission=None, plant=None, cfg=None, budget=100, seed=0,
                   validator=None, pop_size=20, tournament=3, mutate_prob=0.1):
    """Small genetic algorithm over grid index triples.

    Fitness is 1 for invalid, 0 for valid. Tournament selection, one-point
    crossover on (p, i, d), per-gene one-step mutation with probability
    mutate_prob. The initial population is drawn without replacement; every
    evaluated individual costs one query and the run stops exactly at the
    budget. Returns invalid configs found.
    """
    validator = _resolve_validator(mission, plant, cfg, validator)
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
    pop_size = min(pop_size, total, budget)
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
        for _ in range(tournament):
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
                if rng.random() < mutate_prob:
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
