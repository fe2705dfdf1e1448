import gc
import math
import random
import re
import sys
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pidlab import (BoundaryLine, OracleConfig, ParamSpace, PidConfig,
                    PlantModel, RouthValidator, SimulationValidator,
                    boundary_from_csv, boundary_to_csv, genetic_search,
                    ground_truth, hill_climb, hold_mission, identify_boundary,
                    query_count, random_fuzz, routh_stable)
from pidlab import search
from pidlab.search import (ALL_INVALID, ALL_VALID, BOUNDARY, ColumnRecord,
                           _axis_count, _column, _drive, csv_number)
from pidlab.validator import LookupValidator, Verdict


# the ends of the float range, where an axis sum or span overflows
EXTREME = st.sampled_from([1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max,
                           1e308, -1e308, 8.9e307])

# an axis from lo up to hi, or to lo + n * step where hi is None
AXIS_ARGS = dict(lo=EXTREME | st.floats(allow_nan=False, allow_infinity=False),
                 step=EXTREME.filter(lambda x: x > 0)
                 | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                 n=st.integers(0, 6), hi=EXTREME | st.none())


def axis_span(lo, step, n, hi):
    """hi, and the span in steps, of an AXIS_ARGS draw. A span of more than
    50 steps is rejected: an axis of many steps that all read back takes
    long to build."""
    hi = lo + n * step if hi is None else hi
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (np.float64(hi) - lo) / step
    if np.isfinite(ratio) and ratio > 50:
        reject()
    return hi, ratio


def worked_space():
    """One kp plane where the largest stable grid ki per kd column is known
    in closed form: 1.9, 2.9 and 3.9 for kd = 0, 0.5, 1."""
    return ParamSpace(p_min=1.0, p_max=1.0, p_step=1.0,
                      i_min=0.1, i_max=4.0, i_step=0.1,
                      d_min=0.0, d_max=1.0, d_step=0.5)


def grid_indices(space):
    """Every (ip, ii, id_) of the space, in index order."""
    return product(range(space.n_p), range(space.n_i), range(space.n_d))


class TestParamSpace:
    def test_axis_counts(self):
        s = worked_space()
        assert (s.n_p, s.n_i, s.n_d) == (1, 40, 3)
        assert s.size() == 120

    def test_numpy_bounds_give_float_gains(self):
        bounds = [np.float64(b) for b in (0.5, 1.5, 0.5, 1, 3, 1, 0.1, 0.3, 0.1)]
        s = ParamSpace(*bounds)
        assert [type(g) for g in s.pid_at(1, 2, 2)] == [float] * 3
        assert s.pid_at(1, 2, 2) == PidConfig(1.0, 3.0, 0.1 + 2 * 0.1)
        # the fields stay as given, so the sidecar's space does not move
        assert [type(v) for v in s.to_dict().values()] == [np.float64] * 9

    def test_count_handles_inexact_ranges(self):
        s = ParamSpace(0.1, 0.3, 0.1, 0.1, 0.3, 0.1, 0.1, 0.3, 0.1)
        assert s.n_i == 3  # 0.3 - 0.1 is slightly under 0.2 in floats

    def test_count_keeps_the_last_point_at_large_offsets(self):
        # (hi - lo) / step reads 3.99999996: the rounding of lo and hi is
        # far larger than an absolute 1e-9 slack at this offset
        assert _axis_count(1e6, 1e6 + 0.004, 0.001) == 5
        assert _axis_count(-1e6 - 0.004, -1e6, 0.001) == 5
        assert _axis_count(0.0, 0.004, 0.001) == 5
        s = ParamSpace(1e4, 1e4 + 3e-4, 1e-4, 0, 1, 1, 0, 1, 1)
        assert s.n_p == 4
        kp = s.axes[0]
        assert [kp.snap(float("%.9g" % kp.values[k])) for k in range(4)] == [0, 1, 2, 3]

    def test_count_does_not_round_up_a_short_range(self):
        assert _axis_count(1e6, 1e6 + 0.0035, 0.001) == 4
        assert _axis_count(0.1, 0.35, 0.1) == 3

    def test_rejects_a_grid_finer_than_the_csv_digits(self):
        # every kp value of this axis prints as 1000000 under %.9g
        with pytest.raises(ValueError, match="finer than the 9 significant digits"):
            ParamSpace(1e6, 1e6 + 0.01, 0.001, 0.1, 4, 0.1, 0, 1, 0.5)
        with pytest.raises(ValueError, match="d_step"):
            ParamSpace(1, 1, 1, 0.1, 4, 0.1, -5e7, -5e7 + 0.04, 0.01)
        # the same step on a nine-digit axis is fine
        assert ParamSpace(1e5, 1e5 + 0.01, 0.001, 0.1, 4, 0.1, 0, 1, 0.5).n_p == 11

    @settings(max_examples=300, deadline=None)
    @given(**AXIS_ARGS)
    @example(lo=-1.7e308, step=1.7e308, n=2, hi=None)  # hi - lo overflows
    @example(lo=1.7e308, step=1e308, n=1, hi=None)  # hi overflows
    @example(lo=0.0, step=1.7e308, n=1, hi=None)
    @example(lo=0.0, step=5e-324, n=1, hi=None)  # (hi - lo) / step overflows
    @example(lo=1e308, step=5e307, n=0, hi=1.79e308)
    def test_every_axis_value_of_a_space_that_builds_is_finite(self, lo, step, n, hi):
        # the grid constructor leaves out PidConfig's finiteness check on
        # this: every space that builds has finite values only
        hi, ratio = axis_span(lo, step, n, hi)
        try:
            s = ParamSpace(lo, hi, step, lo, hi, step, 0.0, 1.0, 0.5)
        except ValueError:
            return
        assert np.isfinite(ratio)
        values = s.axes[0].values + s.axes[1].values
        assert s.n_p >= 1 and all(math.isfinite(v) for v in values)
        assert all(math.isfinite(g) for g in s.pid_at(s.n_p - 1, s.n_i - 1, 0))

    def test_an_axis_count_that_overflows_is_refused_by_key(self):
        # (hi - lo) / step and the count's slack overflowed to inf, which
        # raised OverflowError, not a config error
        with pytest.raises(ValueError, match="^p_step 1.7e\\+308 overflows the axis count"):
            ParamSpace(-1.7e308, 1.7e308, 1.7e308, 0, 1, 1, 0, 1, 1)
        with pytest.raises(ValueError, match="^i_step 5e-324 overflows the axis count"):
            ParamSpace(0, 1, 1, 1.7e308, 1.7e308, 5e-324, 0, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(**AXIS_ARGS, stride=st.integers(1, 4))
    @example(lo=0.1, step=0.1, n=6, hi=None, stride=2)
    @example(lo=-1e308, step=5e307, n=4, hi=None, stride=3)
    @example(lo=1e4, step=1e-4, n=6, hi=None, stride=2)
    def test_each_axis_snaps_and_parses_its_own_values(self, lo, step, n, hi, stride):
        hi, _ = axis_span(lo, step, n, hi)
        try:
            s = ParamSpace(lo, hi, step, lo, hi, step, 0.0, 1.0, 0.5)
        except ValueError:
            return
        for axis in s.axes:
            table = axis.table(stride)
            for k, value in enumerate(axis.values):
                assert axis.snap(value) == k
                assert axis.snap(float(csv_number(value))) == k
                # a writer's spelling is an entry of its stride's table
                assert (csv_number(value) in table) == (k % stride == 0)
                for text in (csv_number(value), repr(value)):
                    if k % stride == 0:
                        assert table[text] == k // stride
                        assert axis.index(text, stride) == k // stride
                    else:
                        with pytest.raises(ValueError, match=f"^{axis.name}=.* is not on "
                                                             f"the sub-grid of stride {stride}$"):
                            table[text]
                        with pytest.raises(ValueError, match=f"^{axis.name}=.* is not on "
                                                             f"the sub-grid of stride {stride}$"):
                            axis.index(text, stride)
        assert ParamSpace.from_dict(s.to_dict()) == s
        assert list(s.to_dict()) == ["p_min", "p_max", "p_step", "i_min", "i_max", "i_step",
                                     "d_min", "d_max", "d_step"]

    def test_a_step_giving_more_points_than_an_axis_may_have_is_refused_at_once(
            self, monkeypatch):
        # the 10^12-point axis was built value by value: no return after 10 s
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^p_step 1e-12 gives 1000000000001 points"):
            ParamSpace(0, 1, 1e-12, 0, 1, 1, 0, 1, 1)
        assert time.perf_counter() - start < 1.0
        monkeypatch.setattr(search, "MAX_AXIS_POINTS", 5)
        assert ParamSpace(0, 1, 1, 0, 4, 1, 0, 1, 1).n_i == 5
        with pytest.raises(ValueError, match=r"^i_step 1 gives 6 points on ki, more than "
                                             r"the 5 an axis may have$"):
            ParamSpace(0, 1, 1, 0, 5, 1, 0, 1, 1)

    def test_pid_at_refuses_an_index_off_the_grid(self):
        s = worked_space()
        assert s.pid_at(0, s.n_i - 1, s.n_d - 1) == (1.0, s.axes[1].values[s.n_i - 1], 1.0)
        for idx in [(1, 0, 0), (0, s.n_i, 0), (0, 0, -1)]:
            with pytest.raises(IndexError, match="is off the 1x40x3 grid"):
                s.pid_at(*idx)

    def test_values_are_index_arithmetic(self):
        s = worked_space()
        assert s.axes[1].values[28] == 0.1 + 28 * 0.1
        assert s.pid_at(0, 28, 1) == PidConfig(1.0, s.axes[1].values[28], 0.5)

    def test_index_round_trip(self):
        s = worked_space()
        ki = s.axes[1]
        for k in range(s.n_i):
            assert ki.snap(ki.values[k]) == k

    def test_snap_rejects_off_grid(self):
        s = worked_space()
        kp, ki, _ = s.axes
        with pytest.raises(ValueError):
            ki.snap(0.147)
        with pytest.raises(ValueError):
            ki.snap(9.9)
        with pytest.raises(ValueError):
            kp.snap(2.0)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 1e308])
    def test_snap_rejects_non_finite_values_as_off_grid(self, value):
        # 1e308 - p_min overflows to inf on a grid starting at -1e308
        s = ParamSpace(-1e308, -1e308, 1e300, 0.1, 4.0, 0.1, 0.0, 1.0, 0.5)
        for axis in s.axes:
            with pytest.raises(ValueError, match="is not on the grid"):
                axis.snap(value)

    def test_snap_tolerance_is_a_fraction_of_a_fine_step(self):
        s = ParamSpace(0, 1e-5, 1e-6, 0, 1, 1, 0, 1, 1)
        kp = s.axes[0]
        for off_grid in (0.5e-6, 1.4e-6):
            with pytest.raises(ValueError):
                kp.snap(off_grid)
        assert kp.snap(3e-6) == 3

    def test_invalid_axes(self):
        with pytest.raises(ValueError):
            ParamSpace(1, 1, 0.0, 0.1, 4, 0.1, 0, 1, 0.5)
        with pytest.raises(ValueError):
            ParamSpace(1, 0, 1, 0.1, 4, 0.1, 0, 1, 0.5)

    def test_dict_round_trip(self):
        s = worked_space()
        assert ParamSpace.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["p_min", "p_max", "p_step", "i_min", "i_max",
                                     "i_step", "d_min", "d_max", "d_step"])
    def test_non_finite_bounds_are_refused_by_key(self, key, value):
        with pytest.raises(ValueError) as err:
            ParamSpace(**{**worked_space().to_dict(), key: value})
        assert str(err.value).partition(" ")[0] == key


def drive_column(space, validator, p_idx, d_idx, start, entry_valid):
    """One column's walk, driven on its own."""
    return _drive(space, validator, _column(space, p_idx, d_idx, start, entry_valid))


class TestSearchColumn:
    def test_invalid_entry_descends_to_largest_valid(self):
        s = worked_space()
        status, idx = drive_column(s, RouthValidator(1, 1), 0, 1, 39, False)
        assert (status, s.axes[1].values[idx]) == (BOUNDARY, pytest.approx(2.9))

    def test_valid_entry_climbs_to_largest_valid(self):
        s = worked_space()
        status, idx = drive_column(s, RouthValidator(1, 1), 0, 1,
                                   s.axes[1].snap(2.0), True)
        assert (status, s.axes[1].values[idx]) == (BOUNDARY, pytest.approx(2.9))

    def test_descent_exhausts_to_all_invalid(self):
        s = worked_space()
        status, idx = drive_column(s, LookupValidator(lambda pid: False),
                                   0, 0, 39, False)
        assert (status, idx) == (ALL_INVALID, None)

    def test_climb_exhausts_to_all_valid(self):
        s = worked_space()
        status, idx = drive_column(s, LookupValidator(lambda pid: True),
                                   0, 0, 0, True)
        assert (status, idx) == (ALL_VALID, None)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_entry_finds_the_exact_threshold(self, data):
        n_i = data.draw(st.integers(1, 40), label="n_i")
        s = ParamSpace(1.0, 1.0, 1.0, 0.0, n_i - 1.0, 1.0, 0.0, 0.0, 1.0)
        top = data.draw(st.integers(-1, n_i - 1), label="threshold")
        start = data.draw(st.integers(0, n_i - 1), label="start")

        def valid_at(ii):
            return ii <= top

        oracle = LookupValidator(lambda pid: valid_at(s.axes[1].snap(pid.ki)))
        entry = valid_at(start)
        q0 = query_count()  # the fixture zeroes the count once per test, not per example
        got = drive_column(s, oracle, 0, 0, start, entry)
        if top == -1:
            assert got == (ALL_INVALID, None)
        elif top == n_i - 1:
            assert got == (ALL_VALID, None)
        else:
            assert got == (BOUNDARY, top)
        # queries run from the entry (never re-queried) to the first index
        # whose verdict differs from it, or to the end of the axis
        step = 1 if entry else -1
        end = n_i - 1 if entry else 0
        flip = next((ii for ii in range(start + step, end + step, step)
                     if valid_at(ii) != entry), end)
        assert query_count() - q0 == abs(flip - start)


class TestIdentifyBoundary:
    def test_worked_plane(self):
        s = worked_space()
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        assert bl.entries() == [(1.0, pytest.approx(1.9), 0.0),
                                (1.0, pytest.approx(2.9), 0.5),
                                (1.0, pytest.approx(3.9), 1.0)]

    def test_found_heights_lie_exactly_on_the_grid(self):
        s = worked_space()
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        for c in bl.columns:
            assert c.i_save == s.axes[1].values[s.axes[1].snap(c.i_save)]

    def test_boundary_brackets_the_transition(self):
        s = worked_space()
        v = RouthValidator(1, 1)
        bl = identify_boundary(s, validator=v)
        for p, i_save, d in bl.entries():
            assert routh_stable(PidConfig(p, i_save, d), 1, 1)
            kp, ki, kd = s.axes
            above = ki.snap(i_save) + 1
            if above < s.n_i:
                assert not routh_stable(s.pid_at(kp.snap(p), above, kd.snap(d)), 1, 1)

    def test_carry_reduces_queries_below_exhaustive(self):
        s = worked_space()
        identify_boundary(s, validator=RouthValidator(1, 1))
        # descend 22, then carried climbs of 12 and 12
        assert query_count() == 46 < s.size()

    def test_all_invalid_plane(self):
        s = ParamSpace(-2.0, -2.0, 1.0, 0.1, 4.0, 0.1, 0.0, 1.0, 0.5)
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        assert [c.status for c in bl.columns] == [ALL_INVALID] * 3
        assert bl.entries() == []

    def test_all_valid_plane(self):
        s = worked_space()
        bl = identify_boundary(s, validator=LookupValidator(lambda pid: True))
        assert [c.status for c in bl.columns] == [ALL_VALID] * 3
        # entry probes start at the grid ceiling, so each column costs one
        assert query_count() == 3

    def test_column_lookup(self):
        s = worked_space()
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        assert bl.column_at(1.0, 0.5).i_save == pytest.approx(2.9)
        with pytest.raises(ValueError):
            bl.column_at(1.0, 0.25)  # off the grid entirely
        sparse = BoundaryLine(space=s, columns=bl.columns[:1])
        with pytest.raises(KeyError):
            sparse.column_at(1.0, 0.5)  # on the grid, not recorded

    def test_old_positional_oracle_ingredients_fail_at_the_call(self):
        s = worked_space()
        with pytest.raises(TypeError):
            identify_boundary(s, hold_mission(), PlantModel(), OracleConfig())
        with pytest.raises(TypeError):
            identify_boundary(s, RouthValidator(1, 1), 2)
        with pytest.raises(TypeError):
            ground_truth(s, hold_mission(), PlantModel(), OracleConfig())
        for fn in (random_fuzz, hill_climb, genetic_search):
            with pytest.raises(TypeError):
                fn(s, hold_mission(), PlantModel(), OracleConfig(), 10, 0)
        assert query_count() == 0

    @pytest.mark.parametrize("workers", [0, -1, 2])
    def test_workers_other_than_one_raise(self, workers):
        with pytest.raises(ValueError, match="workers must be 1"):
            identify_boundary(worked_space(), RouthValidator(1, 1), workers=workers)
        assert query_count() == 0

    def test_simulation_oracle_end_to_end(self):
        s = ParamSpace(1.0, 1.0, 1.0, 0.2, 3.0, 0.4, 0.2, 0.8, 0.3)
        bl = identify_boundary(s, SimulationValidator(PlantModel(), hold_mission(),
                                                      OracleConfig()))
        assert len(bl.columns) == s.n_d
        assert all(c.status in (BOUNDARY, ALL_VALID, ALL_INVALID)
                   for c in bl.columns)


class TestDownSearchOff:
    def test_matches_full_search_when_everything_is_valid(self):
        s = worked_space()
        always = LookupValidator(lambda pid: True)
        assert (identify_boundary(s, always, dsoff=True).columns
                == identify_boundary(s, always).columns)

    def test_sticks_at_the_top_when_entries_are_invalid(self):
        s = worked_space()
        bl = identify_boundary(s, RouthValidator(1, 1), dsoff=True)
        # entry at ki = 4.0 is unstable in every column, so the ablated
        # search never descends and reports the ceiling each time
        assert [c.i_save for c in bl.columns] == [4.0, 4.0, 4.0]

    def test_never_spends_more_queries(self):
        s = worked_space()
        identify_boundary(s, validator=RouthValidator(1, 1))
        full = query_count()
        identify_boundary(s, RouthValidator(1, 1), dsoff=True)
        assert query_count() - full <= full


def tiny_space():
    return ParamSpace(1.0, 1.0, 1.0, 0.5, 1.5, 0.5, 0.0, 0.5, 0.5)


@pytest.mark.parametrize("budget,message", [
    (0, "budget must be at least 1, got 0"),
    (-3, "budget must be at least 1, got -3"),
    # unchecked, 2.5 would spend 3 queries and True 1
    (2.5, "budget must be an integer, got 2.5"),
    (True, "budget must be an integer, got True")])
@pytest.mark.parametrize("fn", [random_fuzz, hill_climb, genetic_search])
def test_a_budget_below_one_is_refused_before_any_query(fn, budget, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(worked_space(), RouthValidator(1, 1), budget=budget, seed=0)
    assert query_count() == 0


class Recording(LookupValidator):
    """LookupValidator that keeps every pid it is asked about, in order."""

    def __init__(self, fn):
        super().__init__(fn)
        self.asked = []

    def classify(self, pid):
        self.asked.append(pid)
        return super().classify(pid)


def reference_walk(space, validator, dsoff):
    """The coordinate walk as a loop that asks the oracle itself, kept to
    pin the probe order of the policy identify_boundary drives."""

    def column(p_idx, d_idx, start, entry_valid):
        step = 1 if entry_valid else -1
        j = start + step
        while 0 <= j < space.n_i:
            if validator.classify(space.pid_at(p_idx, j, d_idx)).valid != entry_valid:
                return BOUNDARY, j - 1 if entry_valid else j
            j += step
        return (ALL_VALID if entry_valid else ALL_INVALID), None

    kp, ki, kd = space.axes
    records = []
    for p_idx in range(space.n_p):
        carry = space.n_i - 1
        for d_idx in range(space.n_d):
            entry_valid = validator.classify(space.pid_at(p_idx, carry, d_idx)).valid
            if entry_valid or not dsoff:
                status, i_idx = column(p_idx, d_idx, carry, entry_valid)
            else:
                status, i_idx = BOUNDARY, carry
            records.append(ColumnRecord(kp.values[p_idx], kd.values[d_idx], status,
                                        None if i_idx is None else ki.values[i_idx]))
            carry = {BOUNDARY: i_idx, ALL_VALID: space.n_i - 1, ALL_INVALID: 0}[status]
    return records


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 6)),
       table_seed=st.integers(0, 2**16), density=st.floats(0.0, 1.0), dsoff=st.booleans())
def test_the_walk_asks_what_the_reference_loop_asks(shape, table_seed, density, dsoff):
    n_p, n_i, n_d = shape
    s = ParamSpace(0.0, n_p - 1.0, 1.0, 0.0, n_i - 1.0, 1.0, 0.0, n_d - 1.0, 1.0)
    rng = random.Random(table_seed)
    valid = {s.pid_at(*idx): rng.random() < density for idx in grid_indices(s)}
    walked, reference = Recording(valid.__getitem__), Recording(valid.__getitem__)
    columns = identify_boundary(s, walked, dsoff=dsoff).columns
    assert columns == reference_walk(s, reference, dsoff)
    assert walked.asked == reference.asked


DONE = object()


class Toy:
    """A policy that yields the given grid indices in turn and then returns
    DONE; sent keeps every value it was sent, the first resume's None too."""

    def __init__(self, probes):
        self.sent = []
        self.probes = self.run(probes)

    @staticmethod
    def run(probes):
        for idx in probes:
            yield idx
        return DONE

    def send(self, value):
        self.sent.append(value)
        return self.probes.send(value)


class HeldBySet(LookupValidator):
    """LookupValidator that, at each query, notes whether a set still holds
    the config it was asked about before."""

    def __init__(self, fn):
        super().__init__(fn)
        self.last = None
        self.held = []

    def classify(self, pid):
        if self.last is not None:
            self.held.append(any(type(r) is set for r in gc.get_referrers(self.last)))
        self.last = pid
        return super().classify(pid)


class TestDrive:
    def test_the_policy_is_sent_verdicts_and_its_value_returned(self):
        s = worked_space()
        probes = [(0, ii, 1) for ii in range(0, 40, 4)]
        toy = Toy(probes)
        found = {PidConfig(9, 9, 9)}
        value = _drive(s, RouthValidator(1, 1), toy, found=found)
        assert value is DONE
        assert toy.sent[0] is None
        verdicts = toy.sent[1:]
        assert all(type(v) is Verdict for v in verdicts)
        assert len(verdicts) == len(probes) == query_count()
        assert [v.valid for v in verdicts] == [routh_stable(s.pid_at(*i), 1, 1)
                                               for i in probes]
        # found only grows, by the invalid configs probed
        assert found == {PidConfig(9, 9, 9)} | {s.pid_at(*i) for i, v in zip(probes, verdicts)
                                                 if not v.valid}

    def test_without_found_no_probed_config_is_kept(self):
        # the walk's driver collects nothing: no set holds a config once
        # the next one is asked about, though every verdict is invalid
        s = worked_space()
        oracle = HeldBySet(lambda pid: False)
        assert _drive(s, oracle, Toy([(0, ii, 0) for ii in range(6)])) is DONE
        assert oracle.held == [False] * 5
        oracle = HeldBySet(lambda pid: False)
        _drive(s, oracle, Toy([(0, ii, 0) for ii in range(6)]), found=set())
        assert oracle.held == [True] * 5  # the check sees a set that does hold them

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_a_budget_stops_the_policy_before_its_next_resume(self, budget):
        toy = Toy([(0, ii, 0) for ii in range(10)])
        assert _drive(worked_space(), RouthValidator(1, 1), toy, budget) is None
        assert query_count() == budget
        # one resume per query; none after the last
        assert len(toy.sent) == budget

    def test_a_policy_that_ends_before_its_budget_ends_the_run(self):
        s = worked_space()
        toy = Toy([(0, 0, 0), (0, 1, 0)])
        found = set()
        value = _drive(s, LookupValidator(lambda pid: False), toy, budget=50, found=found)
        assert value is DONE
        assert query_count() == 2
        assert len(toy.sent) == 3  # the third resume finds the policy done
        assert found == {s.pid_at(0, 0, 0), s.pid_at(0, 1, 0)}


@settings(max_examples=150, deadline=None)
@given(fn=st.sampled_from([random_fuzz, hill_climb, genetic_search]),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4)),
       table_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       b=st.integers(1, 60), more=st.integers(1, 60))
def test_a_budget_cuts_the_query_sequence_short(fn, shape, table_seed, seed, b, more):
    n_p, n_i, n_d = shape
    s = ParamSpace(0.0, n_p - 1.0, 1.0, 0.0, n_i - 1.0, 1.0, 0.0, n_d - 1.0, 1.0)
    rng = random.Random(table_seed)
    valid = {s.pid_at(*idx): rng.random() < 0.5 for idx in grid_indices(s)}
    short, long = Recording(valid.__getitem__), Recording(valid.__getitem__)
    found = fn(s, short, budget=b, seed=seed)
    fn(s, long, budget=b + more, seed=seed)
    # a larger budget only appends queries; the cut changes nothing before it
    assert short.asked == long.asked[:b]
    assert found == {pid for pid in short.asked if not valid[pid]}


class TestRandomFuzz:
    def test_spends_exactly_the_budget(self):
        s = worked_space()
        random_fuzz(s, validator=RouthValidator(1, 1), budget=37, seed=5)
        assert query_count() == 37

    def test_stops_when_the_grid_is_exhausted(self):
        s = tiny_space()
        found = random_fuzz(s, validator=RouthValidator(1, 1), budget=500,
                            seed=0)
        assert query_count() == s.size() == 6
        truth = {s.pid_at(*idx) for idx in grid_indices(s)
                 if not routh_stable(s.pid_at(*idx), 1, 1)}
        assert found == truth

    def test_reports_only_real_failures_on_grid(self):
        s = worked_space()
        found = random_fuzz(s, validator=RouthValidator(1, 1), budget=60,
                            seed=9)
        for pid in found:
            assert not routh_stable(pid, 1, 1)
            s.axes[1].snap(pid.ki), s.axes[2].snap(pid.kd)

    def test_same_seed_same_result(self):
        s = worked_space()
        a = random_fuzz(s, validator=RouthValidator(1, 1), budget=50, seed=3)
        b = random_fuzz(s, validator=RouthValidator(1, 1), budget=50, seed=3)
        assert a == b


class TestHillClimb:
    def test_spends_exactly_the_budget(self):
        s = worked_space()
        hill_climb(s, validator=RouthValidator(1, 1), budget=41, seed=2)
        assert query_count() == 41

    def test_finds_failures_and_is_deterministic(self):
        s = worked_space()
        a = hill_climb(s, validator=RouthValidator(1, 1), budget=80, seed=7)
        b = hill_climb(s, validator=RouthValidator(1, 1), budget=80, seed=7)
        assert a == b and len(a) > 0
        assert all(not routh_stable(pid, 1, 1) for pid in a)


class TestGeneticSearch:
    def test_spends_exactly_the_budget(self):
        s = worked_space()
        genetic_search(s, validator=RouthValidator(1, 1), budget=55, seed=1)
        assert query_count() == 55

    def test_all_invalid_grid_yields_distinct_finds(self):
        s = worked_space()
        found = genetic_search(s, validator=LookupValidator(lambda pid: False),
                               budget=20, seed=0)
        assert query_count() == 20
        assert len(found) == 20  # seed population is drawn without replacement

    def test_deterministic(self):
        s = worked_space()
        a = genetic_search(s, validator=RouthValidator(1, 1), budget=90, seed=4)
        b = genetic_search(s, validator=RouthValidator(1, 1), budget=90, seed=4)
        assert a == b
        assert all(not routh_stable(pid, 1, 1) for pid in a)


class TestBoundaryCsv:
    def test_round_trip(self, tmp_path):
        s = ParamSpace(-2.0, 1.0, 3.0, 0.1, 4.0, 0.1, 0.0, 1.0, 0.5)
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        path = tmp_path / "boundary.csv"
        boundary_to_csv(bl, path)
        assert boundary_from_csv(path, s).columns == bl.columns

    def test_rejects_unknown_status(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,d,status,i_save\n1,0,wavy,2\n")
        with pytest.raises(ValueError):
            boundary_from_csv(path, worked_space())

    @pytest.mark.parametrize("row", ["1,0,all_valid,banana", "1,0.5,all_invalid,7"])
    def test_rejects_an_i_save_on_an_edge_column(self, tmp_path, row):
        # boundary_to_csv writes an edge column's i_save empty
        path = tmp_path / "edge.csv"
        path.write_text(f"p,d,status,i_save\n1,1,all_valid,\n{row}\n")
        status = row.split(",")[2]
        with pytest.raises(ValueError, match=rf"edge\.csv:3: i_save must be empty on the "
                                             rf"{status} column p=1, d=0(\.5)?, got '"):
            boundary_from_csv(path, worked_space())

    def test_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,d,i_save\n1,0,2\n")
        with pytest.raises(ValueError):
            boundary_from_csv(path, worked_space())
