import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import (BoundaryLine, OracleConfig, ParamSpace, PidConfig,
                    PlantModel, RouthValidator, SimulationValidator,
                    boundary_from_csv, boundary_to_csv, genetic_search,
                    ground_truth, hill_climb, hold_mission, identify_boundary,
                    query_count, random_fuzz, reset_query_count, routh_stable)
from pidlab.search import (ALL_INVALID, ALL_VALID, BOUNDARY, ColumnRecord,
                           _axis_count, search_column)
from pidlab.validator import LookupValidator


def worked_space():
    """One kp plane where the largest stable grid ki per kd column is known
    in closed form: 1.9, 2.9 and 3.9 for kd = 0, 0.5, 1."""
    return ParamSpace(p_min=1.0, p_max=1.0, p_step=1.0,
                      i_min=0.1, i_max=4.0, i_step=0.1,
                      d_min=0.0, d_max=1.0, d_step=0.5)


@pytest.fixture(autouse=True)
def clean_counter():
    reset_query_count()
    yield
    reset_query_count()


class TestParamSpace:
    def test_axis_counts(self):
        s = worked_space()
        assert (s.n_p, s.n_i, s.n_d) == (1, 40, 3)
        assert s.size() == 120

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
        assert [s.p_index(float("%.9g" % s.p_value(k))) for k in range(4)] == [0, 1, 2, 3]

    def test_count_does_not_round_up_a_short_range(self):
        assert _axis_count(1e6, 1e6 + 0.0035, 0.001) == 4
        assert _axis_count(0.1, 0.35, 0.1) == 3

    def test_rejects_a_grid_finer_than_the_csv_digits(self):
        # every kp value of this axis prints as 1000000 under %.9g
        with pytest.raises(ValueError, match="finer than the 9 significant digits"):
            ParamSpace(1e6, 1e6 + 0.01, 0.001, 0.1, 4, 0.1, 0, 1, 0.5)
        with pytest.raises(ValueError, match="kd step"):
            ParamSpace(1, 1, 1, 0.1, 4, 0.1, -5e7, -5e7 + 0.04, 0.01)
        # the same step on a nine-digit axis is fine
        assert ParamSpace(1e5, 1e5 + 0.01, 0.001, 0.1, 4, 0.1, 0, 1, 0.5).n_p == 11

    def test_values_are_index_arithmetic(self):
        s = worked_space()
        assert s.i_value(28) == 0.1 + 28 * 0.1
        assert s.pid_at(0, 28, 1) == PidConfig(1.0, s.i_value(28), 0.5)

    def test_index_round_trip(self):
        s = worked_space()
        for k in range(s.n_i):
            assert s.i_index(s.i_value(k)) == k

    def test_snap_rejects_off_grid(self):
        s = worked_space()
        with pytest.raises(ValueError):
            s.i_index(0.147)
        with pytest.raises(ValueError):
            s.i_index(9.9)
        with pytest.raises(ValueError):
            s.p_index(2.0)

    def test_snap_tolerance_is_a_fraction_of_a_fine_step(self):
        s = ParamSpace(0, 1e-5, 1e-6, 0, 1, 1, 0, 1, 1)
        for off_grid in (0.5e-6, 1.4e-6):
            with pytest.raises(ValueError):
                s.p_index(off_grid)
        assert s.p_index(3e-6) == 3

    def test_invalid_axes(self):
        with pytest.raises(ValueError):
            ParamSpace(1, 1, 0.0, 0.1, 4, 0.1, 0, 1, 0.5)
        with pytest.raises(ValueError):
            ParamSpace(1, 0, 1, 0.1, 4, 0.1, 0, 1, 0.5)

    def test_iter_indices_strides(self):
        s = worked_space()
        full = list(s.iter_indices())
        assert len(full) == 120
        strided = list(s.iter_indices((1, 2, 1)))
        assert len(strided) == 60
        assert all(ii % 2 == 0 for _, ii, _d in strided)

    def test_dict_round_trip(self):
        s = worked_space()
        assert ParamSpace.from_dict(s.to_dict()) == s


class TestSearchColumn:
    def test_invalid_entry_descends_to_largest_valid(self):
        s = worked_space()
        status, idx = search_column(s, RouthValidator(1, 1), 0, 1, 39, False)
        assert (status, s.i_value(idx)) == (BOUNDARY, pytest.approx(2.9))

    def test_valid_entry_climbs_to_largest_valid(self):
        s = worked_space()
        status, idx = search_column(s, RouthValidator(1, 1), 0, 1,
                                    s.i_index(2.0), True)
        assert (status, s.i_value(idx)) == (BOUNDARY, pytest.approx(2.9))

    def test_descent_exhausts_to_all_invalid(self):
        s = worked_space()
        status, idx = search_column(s, LookupValidator(lambda pid: False),
                                    0, 0, 39, False)
        assert (status, idx) == (ALL_INVALID, None)

    def test_climb_exhausts_to_all_valid(self):
        s = worked_space()
        status, idx = search_column(s, LookupValidator(lambda pid: True),
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

        oracle = LookupValidator(lambda pid: valid_at(s.i_index(pid.ki)))
        entry = valid_at(start)
        reset_query_count()
        got = search_column(s, oracle, 0, 0, start, entry)
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
        assert query_count() == abs(flip - start)


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
            assert c.i_save == s.i_value(s.i_index(c.i_save))

    def test_boundary_brackets_the_transition(self):
        s = worked_space()
        v = RouthValidator(1, 1)
        bl = identify_boundary(s, validator=v)
        for p, i_save, d in bl.entries():
            assert routh_stable(PidConfig(p, i_save, d), 1, 1)
            above = s.i_index(i_save) + 1
            if above < s.n_i:
                assert not routh_stable(s.pid_at(s.p_index(p), above,
                                                 s.d_index(d)), 1, 1)

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

    def test_multiplane_parallel_matches_serial(self):
        s = ParamSpace(0.5, 1.5, 0.5, 0.1, 4.0, 0.1, 0.0, 1.0, 0.5)
        serial = identify_boundary(s, validator=RouthValidator(1, 1))
        n_serial = query_count()
        reset_query_count()
        parallel = identify_boundary(s, validator=RouthValidator(1, 1),
                                     workers=2)
        assert parallel.columns == serial.columns
        assert query_count() == n_serial

    def test_parallel_adds_the_serial_count_without_a_reset(self):
        # forked workers start from the parent's count; only their own
        # queries may be added back
        s = ParamSpace(0.5, 1.5, 0.5, 0.1, 4.0, 0.1, 0.0, 1.0, 0.5)
        serial = identify_boundary(s, validator=RouthValidator(1, 1))
        n_serial = query_count()
        parallel = identify_boundary(s, validator=RouthValidator(1, 1),
                                     workers=2)
        assert parallel.columns == serial.columns
        assert query_count() == 2 * n_serial

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
        reset_query_count()
        identify_boundary(s, RouthValidator(1, 1), dsoff=True)
        assert query_count() <= full


def tiny_space():
    return ParamSpace(1.0, 1.0, 1.0, 0.5, 1.5, 0.5, 0.0, 0.5, 0.5)


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
        truth = {s.pid_at(*idx) for idx in s.iter_indices()
                 if not routh_stable(s.pid_at(*idx), 1, 1)}
        assert found == truth

    def test_reports_only_real_failures_on_grid(self):
        s = worked_space()
        found = random_fuzz(s, validator=RouthValidator(1, 1), budget=60,
                            seed=9)
        for pid in found:
            assert not routh_stable(pid, 1, 1)
            s.i_index(pid.ki), s.d_index(pid.kd)

    def test_same_seed_same_result(self):
        s = worked_space()
        a = random_fuzz(s, validator=RouthValidator(1, 1), budget=50, seed=3)
        reset_query_count()
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
        reset_query_count()
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
        reset_query_count()
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

    def test_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,d,i_save\n1,0,2\n")
        with pytest.raises(ValueError):
            boundary_from_csv(path, worked_space())
