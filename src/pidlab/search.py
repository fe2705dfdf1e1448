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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product

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
    """value as every CSV writer prints it: 9 significant digits. An Axis
    refuses values that would not read back from this spelling."""
    return "%.9g" % value


# The most points one axis may have. On a 2-vCPU machine an axis costs about
# 2.2 us a point to build (its values, their read-back check and the
# spelling table; 1.7 us without the table), so 10^6 points take about
# 2.2 s. A finer step is refused before any value is built.
MAX_AXIS_POINTS = 10**6


class Axis:
    """One gain's axis lo, lo + step, ... up to hi, named kp, ki or kd.

    values[k] is always lo + k * step, so identical indices give
    bit-identical floats. The axis is refused when a value does not read
    back from its csv_number spelling, because the printed values of a grid
    finer than 9 significant digits would merge cells. Each refusal leads
    with the config key at fault (p_step for kp), so a config error can
    point at its line.

    The CSV readers go through table, whose lookup reads one field as a
    sub-grid index, a writer's spelling without a call to index.
    """

    __slots__ = ("name", "lo", "step", "values", "_index")

    def __init__(self, name, lo, hi, step):
        key = name[1:] + "_"
        for part, value in (("min", lo), ("max", hi), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"{key}{part} must be finite, got {value!r}")
        if not step > 0:
            raise ValueError(f"{key}step must be > 0")
        if hi < lo:
            raise ValueError(f"{key}max must be >= {key}min")
        try:
            count = _axis_count(lo, hi, step)
        except OverflowError:  # hi - lo near +-1.7e308, or a step far below both
            raise ValueError(f"{key}step {step!r} overflows the axis count") from None
        if count > MAX_AXIS_POINTS:
            raise ValueError(f"{key}step {step!r} gives {count} points on {name}, more "
                             f"than the {MAX_AXIS_POINTS} an axis may have")
        # Python floats, whatever number type the bounds came in; messages
        # spell the bounds as given
        self.name, self.lo, self.step = name, float(lo), float(step)
        self.values = tuple(self.lo + k * self.step for k in range(count))
        self._index = {}
        for k, value in enumerate(self.values):
            text = csv_number(value)
            try:
                back = self.snap(float(text))
            except ValueError:
                back = None
            if back != k:
                raise ValueError(f"{key}step {step!r} is finer than the 9 significant "
                                 f"digits grid CSVs keep at {name}={value!r}")
            self._index[text] = k

    def snap(self, value):
        """The index of the axis value that value names, within a millionth
        of a step plus the 9-digit rounding of its spelling."""
        pos = (value - self.lo) / self.step
        count = len(self.values)
        # far off the axis, or inf / nan, which round() cannot turn into an int
        if not -1.0 < pos < count:
            raise ValueError(f"{self.name}={value!r} is not on the grid")
        idx = int(round(pos))
        # csv_number keeps 9 significant digits: off by <= 5e-9 * |value|
        tol = 1e-6 * self.step + 5e-9 * abs(value)
        if idx < 0 or idx >= count or abs(self.values[idx] - value) > tol:
            raise ValueError(f"{self.name}={value!r} is not on the grid")
        return idx

    def index(self, text, stride=1):
        """The sub-grid index k // stride of the axis value at index k that
        the CSV field text names, read with float() and snap. Raises
        ValueError when text names no value, or one whose index is not a
        multiple of stride."""
        k = self.snap(float(text))
        if k % stride:
            raise ValueError(f"{self.name}={text} is not on the sub-grid of stride {stride}")
        return k // stride

    def table(self, stride=1):
        """The sub-grid index of each CSV field, as index gives it: a dict
        from the csv_number spelling of each value on the stride to its
        sub-grid index, which sends any other field to index.

        A writer's spelling is one lookup; the constructor has checked that
        each such spelling snaps back onto its own index. Any other spelling
        (" 1", "1.0", "1e0") goes through index, so hand-edited CSVs still
        read, and a field that index refuses raises its ValueError.
        """
        table = _Spellings((text, k // stride) for text, k in self._index.items()
                           if k % stride == 0)
        table.index = partial(self.index, stride=stride)
        return table


class _Spellings(dict):
    """Axis.table's dict: a missing field is read by its index function."""

    __slots__ = ("index",)

    def __missing__(self, text):
        return self.index(text)


@dataclass(frozen=True)
class ParamSpace:
    """Axis-aligned grid over (kp, ki, kd): one Axis per gain, in axes.

    Every probe made by any searcher lies exactly on this grid.
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

    axes: tuple = field(init=False, repr=False, compare=False)
    n_p: int = field(init=False, repr=False, compare=False)
    n_i: int = field(init=False, repr=False, compare=False)
    n_d: int = field(init=False, repr=False, compare=False)
    # cells' tuples, keyed by their strides
    _cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axes = tuple(Axis("k" + a, getattr(self, a + "_min"), getattr(self, a + "_max"),
                          getattr(self, a + "_step")) for a in "pid")
        object.__setattr__(self, "axes", axes)
        for a, axis in zip("pid", axes):
            object.__setattr__(self, "n_" + a, len(axis.values))
        object.__setattr__(self, "_cells", {})

    def pid_at(self, ip, ii, id_):
        if not (0 <= ip < self.n_p and 0 <= ii < self.n_i and 0 <= id_ < self.n_d):
            raise IndexError(f"grid index {(ip, ii, id_)!r} is off the "
                             f"{self.n_p}x{self.n_i}x{self.n_d} grid")
        kp, ki, kd = self.axes
        return grid_pid((kp.values[ip], ki.values[ii], kd.values[id_]))

    def cells(self, strides=(1, 1, 1)):
        """Every cell of the sub-grid that the index strides (sp, si, sd)
        pick, indices 0, s, 2s, ... per axis, as a tuple of configs in index
        order: sub-grid cell (ip, ii, id_) is at (ip * n_i + ii) * n_d + id_,
        with n_i and n_d the sub-grid's counts, and equals
        pid_at(ip * sp, ii * si, id_ * sd).

        Built on the first call for its strides and kept, so every layer
        that asks for the same (sub-)grid gets the same config objects.
        Raises ValueError unless strides are three ints >= 1.
        """
        strides = tuple(strides)
        if len(strides) != 3 or not all(type(s) is int and s >= 1 for s in strides):
            raise ValueError(f"strides must be three integers >= 1, got {strides!r}")
        cells = self._cells.get(strides)
        if cells is None:
            cells = self._cells[strides] = tuple(map(grid_pid, product(
                *(axis.values[::s] for axis, s in zip(self.axes, strides)))))
        return cells

    def size(self):
        return self.n_p * self.n_i * self.n_d

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @classmethod
    def from_dict(cls, d):
        return cls(**{f.name: float(d[f.name]) for f in fields(cls) if f.init})


# PidConfig of a (kp, ki, kd) of ParamSpace axis values, without its
# finiteness check: an Axis refuses a value that does not snap back from its
# csv_number spelling, and inf and nan never do.
grid_pid = partial(tuple.__new__, PidConfig)


@contextmanager
def reading_csv(path, names):
    """Open the CSV at path to read the columns names.

    Yields (reader, picks, width): the file's csv.reader past its header,
    the position in a row of each of names, in order, and the header's
    field count. A ValueError that the with block raises comes out naming
    the file and the reader's line, as does a line that csv.reader refuses
    (a field longer than csv.field_size_limit()). Raises ValueError naming
    the file when the header lacks one of names, or at a byte that the
    file's encoding cannot decode; the decoder counts that byte within its
    buffer, so no line is given.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, ())
            # the last of two equal column names wins, as with csv.DictReader
            at = {name: k for k, name in enumerate(header)}
            if set(names) <= at.keys():
                yield reader, [at[name] for name in names], len(header)
                return
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    raise ValueError(f"{path}: expected columns {sorted(names)}")


def short_row(row, width):
    """The ValueError for a data row with fewer fields than the header."""
    return ValueError(f"row has {len(row)} fields, the header {width}")


def data_rows(reader, picks, width):
    """The fields at picks of each row of reader, as reading_csv gives
    them. Blank rows are skipped and fields beyond width ignored; a row
    with fewer fields than width raises short_row's ValueError."""
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            raise short_row(row, width)
        yield [row[k] for k in picks]


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
        kp, _, kd = self.space.axes
        ip, id_ = kp.snap(p), kd.snap(d)
        for c in self.columns:
            if kp.snap(c.p) == ip and kd.snap(c.d) == id_:
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
    kp, ki, kd = space.axes
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
            records.append(ColumnRecord(kp.values[p_idx], kd.values[d_idx], status,
                                        None if i_idx is None else ki.values[i_idx]))
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
            if 0 <= cand[dim] < len(space.axes[dim].values):
                return tuple(cand)
    return None


def random_fuzz(space, validator, *, budget, seed=0):
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


def hill_climb(space, validator, *, budget, seed=0):
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


def genetic_search(space, validator, *, budget, seed=0):
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
                    top = len(space.axes[dim].values) - 1
                    child[dim] = min(top, max(0, child[dim] + rng.choice((-1, 1))))
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


_STATUSES = (BOUNDARY, ALL_VALID, ALL_INVALID)


def boundary_from_csv(path, space):
    """Read a boundary CSV back, snapping values onto the given space.

    Raises ValueError, naming the file and line of the first row at fault,
    on a short row, an unknown status, an i_save on an edge column, a value
    off the grid (p, then d, then i_save) or a (p, d) column given twice,
    checked in that order.
    """
    kp, ki, kd = space.axes
    table_p, table_i, table_d = map(Axis.table, space.axes)
    columns = []
    seen = set()
    with reading_csv(path, ("p", "d", "status", "i_save")) as opened:
        for p, d, status, i_save in data_rows(*opened):
            if status not in _STATUSES:
                raise ValueError(f"unknown column status {status!r}")
            if status != BOUNDARY and i_save:
                raise ValueError(f"i_save must be empty on the {status} column p={p}, "
                                 f"d={d}, got {i_save!r}")
            ip, id_ = table_p[p], table_d[d]
            i_value = ki.values[table_i[i_save]] if status == BOUNDARY else None
            if (ip, id_) in seen:
                raise ValueError(f"column p={p}, d={d} is given twice")
            seen.add((ip, id_))
            columns.append(ColumnRecord(kp.values[ip], kd.values[id_], status, i_value))
    return BoundaryLine(space=space, columns=columns)
