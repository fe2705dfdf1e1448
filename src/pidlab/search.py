"""Boundary search over a 3-D grid of PID gains.

Every searcher is a policy: a generator that yields grid indices and is sent
each probe's Verdict. One driver, _drive, asks the oracle, enforces a query
budget where there is one, collects the invalid configs where a baseline
asks for them and returns the policy's own return value. The coordinate
walk (_walk) covers each kp plane's kd columns left to right, entering each
at the previous column's boundary height: an invalid entry walks down to the
first valid ki, a valid one climbs to the last valid. A walk that leaves the
grid tags its column all_valid / all_invalid and carries that grid edge on.
The three black-box baselines (random fuzzing with local guidance, hill
climbing, a small genetic algorithm) are compared with it at equal query
budgets.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from operator import itemgetter

from .plant import PidConfig

BOUNDARY = "boundary"
ALL_VALID = "all_valid"
ALL_INVALID = "all_invalid"

# baseline settings, fixed so every comparison runs the same searchers
MAX_STALL = 6
POP_SIZE = 20
TOURNAMENT = 3
MUTATE_PROB = 0.1


def _axis_count(lo, hi, step):
    """Grid points of the axis lo, lo + step, ... up to hi, for step > 0 and
    hi >= lo."""
    # lo and hi carry up to half an ulp of rounding each, which a step much
    # finer than their magnitude magnifies: the slack grows with max|x| / step
    slack = 1e-9 + 2 * sys.float_info.epsilon * max(abs(lo), abs(hi)) / step
    return int(math.floor((hi - lo) / step + slack)) + 1


def csv_number(value):
    """value as every CSV writer prints it: 9 significant digits. ParamSpace
    refuses a grid whose axis values would not read back from this spelling."""
    return "%.9g" % value


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
            # each message leads with the key at fault, so a config error can
            # point at its line
            for key, value in (("_min", lo), ("_max", hi), ("_step", step)):
                if not math.isfinite(value):
                    raise ValueError(f"{axis}{key} must be finite, got {value!r}")
            if not step > 0:
                raise ValueError(f"{axis}_step must be > 0")
            if hi < lo:
                raise ValueError(f"{axis}_max must be >= {axis}_min")
            try:
                count = _axis_count(lo, hi, step)
            except OverflowError:  # hi - lo near +-1.7e308, or a step far below both
                raise ValueError(f"{axis}_step {step!r} overflows the axis count") from None
            object.__setattr__(self, "n_" + axis, count)
            name = "k" + axis
            for k in range(count):
                value = lo + k * step
                try:
                    back = self._snap(float(csv_number(value)), lo, step, count, name)
                except ValueError:
                    back = None
                if back != k:
                    raise ValueError(f"{axis}_step {step!r} is finer than the 9 significant "
                                     f"digits grid CSVs keep at {name}={value!r}")

    def p_value(self, idx):
        return self.p_min + idx * self.p_step

    def i_value(self, idx):
        return self.i_min + idx * self.i_step

    def d_value(self, idx):
        return self.d_min + idx * self.d_step

    def pid_at(self, ip, ii, id_):
        if not (0 <= ip < self.n_p and 0 <= ii < self.n_i and 0 <= id_ < self.n_d):
            raise IndexError(f"grid index {(ip, ii, id_)!r} is off the "
                             f"{self.n_p}x{self.n_i}x{self.n_d} grid")
        return grid_pid((self.p_value(ip), self.i_value(ii), self.d_value(id_)))

    def _snap(self, value, lo, step, count, name):
        pos = (value - lo) / step
        # far off the axis, or inf / nan, which round() cannot turn into an int
        if not -1.0 < pos < count:
            raise ValueError(f"{name}={value!r} is not on the grid")
        idx = int(round(pos))
        # csv_number keeps 9 significant digits: off by <= 5e-9 * |value|
        tol = 1e-6 * step + 5e-9 * abs(value)
        if idx < 0 or idx >= count or abs(lo + idx * step - value) > tol:
            raise ValueError(f"{name}={value!r} is not on the grid")
        return idx

    def parsers(self):
        """(kp, ki, kd) functions from a CSV field to the grid value it names.

        The csv_number spelling of every axis value is looked up in a
        table; __post_init__ has checked that each such spelling snaps back
        onto its own index, so a hit equals float() and snapping. Any other
        spelling (" 1", "1.0", "1e0") is read with float() and snapped, so
        hand-edited CSVs still read.
        """
        return (_axis_parser(self.p_value, self.p_index, self.n_p),
                _axis_parser(self.i_value, self.i_index, self.n_i),
                _axis_parser(self.d_value, self.d_index, self.n_d))

    def p_index(self, value):
        return self._snap(value, self.p_min, self.p_step, self.n_p, "kp")

    def i_index(self, value):
        return self._snap(value, self.i_min, self.i_step, self.n_i, "ki")

    def d_index(self, value):
        return self._snap(value, self.d_min, self.d_step, self.n_d, "kd")

    def size(self):
        return self.n_p * self.n_i * self.n_d

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @classmethod
    def from_dict(cls, d):
        return cls(**{f.name: float(d[f.name]) for f in fields(cls) if f.init})


# PidConfig of a (kp, ki, kd) of ParamSpace axis values, without its
# finiteness check: ParamSpace refuses an axis value that does not snap back
# from its csv_number spelling, and inf and nan never do.
grid_pid = partial(tuple.__new__, PidConfig)


def _axis_parser(value, index, count):
    table = {}
    for k in range(count):
        v = value(k)
        table[csv_number(v)] = v

    def parse(text):
        v = table.get(text)
        return value(index(float(text))) if v is None else v

    return parse


def read_csv(path, names, handle):
    """Call handle(*fields) for each data row of the CSV at path.

    fields are the row's values in the columns the header names, in the
    order of names (at least two). Blank lines are skipped and fields
    beyond the header's ignored. Raises ValueError naming the file when the
    header lacks one of names, and the file and line when a row has fewer
    fields than the header or handle raises ValueError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        # the last of two equal column names wins, as with csv.DictReader
        at = {name: k for k, name in enumerate(header or ())}
        if not set(names) <= at.keys():
            raise ValueError(f"{path}: expected columns {sorted(names)}")
        pick = itemgetter(*(at[name] for name in names))
        width = len(header)
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                raise ValueError(f"{path}:{reader.line_num}: row has {len(row)} fields, "
                                 f"the header {width}")
            try:
                handle(*pick(row))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


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


def _column(space, p_idx, d_idx, start, entry_valid):
    """Policy: walk one kd column in ki from an entry whose verdict is known.

    A valid entry climbs while verdicts stay valid and returns the last
    valid index; climbing off the top returns all_valid. An invalid entry
    descends to the first valid index; falling off the bottom returns
    all_invalid. The entry itself is never re-queried. Returns (status,
    i_idx), i_idx set only for status "boundary".
    """
    step = 1 if entry_valid else -1
    j = start + step
    while 0 <= j < space.n_i:
        if (yield p_idx, j, d_idx).valid != entry_valid:
            return BOUNDARY, j - 1 if entry_valid else j
        j += step
    return (ALL_VALID if entry_valid else ALL_INVALID), None


def _walk(space, dsoff):
    """Policy: the coordinate walk over every kp plane; returns one
    ColumnRecord per (kp, kd) column."""
    records = []
    for p_idx in range(space.n_p):
        carry = space.n_i - 1
        for d_idx in range(space.n_d):
            entry_valid = (yield p_idx, carry, d_idx).valid
            if entry_valid or not dsoff:
                status, i_idx = yield from _column(space, p_idx, d_idx, carry, entry_valid)
            else:
                # ablated variant: no downward search, keep the carried height
                status, i_idx = BOUNDARY, carry
            records.append(ColumnRecord(space.p_value(p_idx), space.d_value(d_idx), status,
                                        None if i_idx is None else space.i_value(i_idx)))
            # the next column enters at this boundary, or at the edge the walk left by
            carry = {BOUNDARY: i_idx, ALL_VALID: space.n_i - 1, ALL_INVALID: 0}[status]
    return records


def identify_boundary(space, validator, *, workers=1, dsoff=False):
    """Coordinate search for the validity boundary on every kp plane.

    Args:
        space: the search grid.
        validator: the oracle (any Validator).
        workers: must be 1; the planes are walked in this process.
        dsoff: disable the downward search (the ablated variant).

    Returns:
        BoundaryLine with one ColumnRecord per (kp, kd) column.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    return BoundaryLine(space=space, columns=_drive(space, validator, _walk(space, dsoff)))


def _drive(space, validator, probes, budget=None, found=None):
    """probes' return value. With a budget (an int >= 1) probes is never
    resumed after the last query the budget allows, and its return value
    reads None if it had not finished. Where found is a set, every invalid
    config probed is added to it."""
    if budget is not None and type(budget) is not int:
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    verdict, asked = None, 0
    while budget is None or asked < budget:
        try:
            idx = probes.send(verdict)
        except StopIteration as stop:
            return stop.value
        pid = space.pid_at(*idx)
        verdict = validator.classify(pid)
        asked += 1
        if found is not None and not verdict.valid:
            found.add(pid)
    return None


def _draw(space, rng):
    """A uniform random grid index; kp, ki and kd are drawn in that order."""
    return rng.randrange(space.n_p), rng.randrange(space.n_i), rng.randrange(space.n_d)


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
    found = set()
    _drive(space, validator, _fuzz(space, random.Random(seed)), budget, found)
    return found


def _fuzz(space, rng):
    total = space.size()
    probed = set()
    guide = None
    while len(probed) < total:
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
        if not (yield idx).valid:
            guide = idx


def hill_climb(space, validator, *, budget=100, seed=0):
    """Random-restart hill climbing on binary feedback.

    From a random start, proposes one-step neighbors and moves whenever the
    neighbor is invalid (the quantity being maximized); restarts after
    MAX_STALL consecutive valid proposals. Returns invalid configs found.
    """
    found = set()
    _drive(space, validator, _climb(space, random.Random(seed)), budget, found)
    return found


def _climb(space, rng):
    while True:
        current = _draw(space, rng)
        yield current
        stall = 0
        while stall < MAX_STALL:
            cand = _neighbor(space, rng, current)
            if cand is None:
                break
            if not (yield cand).valid:
                current = cand
                stall = 0
            else:
                stall += 1


def genetic_search(space, validator, *, budget=100, seed=0):
    """Small genetic algorithm over grid index triples.

    Fitness is 1 for invalid, 0 for valid. Tournament selection, one-point
    crossover on (p, i, d), per-gene one-step mutation with probability
    MUTATE_PROB. The initial population is drawn without replacement; every
    evaluated individual costs one query and the run stops exactly at the
    budget. Returns invalid configs found.
    """
    found = set()
    _drive(space, validator, _evolve(space, random.Random(seed)), budget, found)
    return found


def _evolve(space, rng):
    pop_size = min(POP_SIZE, space.size())
    pop = []
    seen = set()
    while len(pop) < pop_size:
        idx = _draw(space, rng)
        if idx not in seen:
            seen.add(idx)
            pop.append((idx, not (yield idx).valid))
    while True:
        nxt = []
        while len(nxt) < pop_size:
            mom, dad = _tournament(pop, rng), _tournament(pop, rng)
            cut = rng.randint(1, 2)
            child = list(mom[:cut] + dad[cut:])
            for dim in range(3):
                if rng.random() < MUTATE_PROB:
                    limit = (space.n_p, space.n_i, space.n_d)[dim]
                    child[dim] = min(limit - 1, max(0, child[dim] + rng.choice((-1, 1))))
            idx = tuple(child)
            nxt.append((idx, not (yield idx).valid))
        pop = nxt


def _tournament(pop, rng):
    """The fittest of TOURNAMENT random (index, invalid) entries of pop."""
    best = None
    for _ in range(TOURNAMENT):
        cand = pop[rng.randrange(len(pop))]
        if best is None or cand[1] > best[1]:
            best = cand
    return best[0]


def boundary_to_csv(bl, path):
    """Write p,d,status,i_save rows (i_save empty for edge columns)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "d", "status", "i_save"])
        for c in bl.columns:
            sv = csv_number(c.i_save) if c.i_save is not None else ""
            writer.writerow([csv_number(c.p), csv_number(c.d), c.status, sv])


def boundary_from_csv(path, space):
    """Read a boundary CSV back, snapping values onto the given space.

    Raises ValueError, naming the file and line, on an unknown status, a
    value off the grid, a short row or a (p, d) column given twice.
    """
    parse_p, parse_i, parse_d = space.parsers()
    columns = []
    seen = set()

    def column(p, d, status, i_save):
        if status not in (BOUNDARY, ALL_VALID, ALL_INVALID):
            raise ValueError(f"unknown column status {status!r}")
        col = ColumnRecord(parse_p(p), parse_d(d), status,
                           parse_i(i_save) if status == BOUNDARY else None)
        if (col.p, col.d) in seen:
            raise ValueError(f"column p={p}, d={d} is given twice")
        seen.add((col.p, col.d))
        columns.append(col)

    read_csv(path, ("p", "d", "status", "i_save"), column)
    return BoundaryLine(space=space, columns=columns)
