import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidlab import (PidConfig, PlantModel, brake_mission, circle_mission,
                    eval_offline, eval_online, hold_mission, mode_spec,
                    parse_formula, return_home_mission, simulate)
from pidlab import mtl
from pidlab.mtl import (And, Atom, Eventually, Globally, Implies, MtlSyntaxError,
                        Not, Or, Prev, _compare, _context, _offsets, _sat_block,
                        circle_lap_spec)
from pidlab.plant import Trajectory


def make_traj(x, dt=1.0, v=None, r=None):
    x = np.asarray(x, dtype=float)
    n = len(x)
    v = np.zeros(n) if v is None else np.asarray(v, dtype=float)
    r = np.zeros(n) if r is None else np.asarray(r, dtype=float)
    return Trajectory(dt=dt, t=np.arange(n) * dt, x=x, v=v, r=r, e=r - x)


# ---------------------------------------------------------------------------
# slow reference semantics, written independently of the vectorized engine
# ---------------------------------------------------------------------------

def _ref_signal(traj, name):
    if name == "abs_e":
        return np.abs(traj.e)
    return getattr(traj, name)


def _ref_cmp(op, a, b):
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b, "=": a == b}[op]


def ref_sat(node, traj, i, h, optimistic, memo=None, positive=True):
    """Verdict of node at sample i with horizon h and polarity positive;
    memo caches verdicts per (node, i, h, positive) across the calls of one
    top-level evaluation."""
    memo = {} if memo is None else memo
    key = (id(node), i, h, positive)
    if key not in memo:
        memo[key] = _ref_sat(node, traj, i, h, optimistic, memo, positive)
    return memo[key]


def _ref_sat(node, traj, i, h, optimistic, memo, positive):
    if isinstance(node, Atom):
        sig = _ref_signal(traj, node.signal)
        if isinstance(node.rhs, Prev):
            if i == 0:
                return True
            rhs = _ref_signal(traj, node.rhs.signal)[i - 1] + node.rhs.offset
        else:
            rhs = node.rhs
        return bool(_ref_cmp(node.op, sig[i], rhs))
    if isinstance(node, Not):
        return not ref_sat(node.child, traj, i, h, optimistic, memo, not positive)
    if isinstance(node, And):
        return all(ref_sat(c, traj, i, h, optimistic, memo, positive) for c in node.children)
    if isinstance(node, Or):
        return any(ref_sat(c, traj, i, h, optimistic, memo, positive) for c in node.children)
    if isinstance(node, Implies):
        return (not ref_sat(node.lhs, traj, i, h, optimistic, memo, not positive)
                or ref_sat(node.rhs, traj, i, h, optimistic, memo, positive))
    if node.t_lo is None:
        lo, hi = 0, None
    else:
        lo = max(0, math.ceil(node.t_lo / traj.dt - 1e-9))
        hi = math.floor(node.t_hi / traj.dt + 1e-9)
    last = h if hi is None else min(i + hi, h)
    indices = range(i + lo, last + 1)
    # an obligation past an optimistic horizon is unresolved: it holds under
    # positive polarity and fails under negative
    unresolved = optimistic and (hi is None or i + hi > h)
    if isinstance(node, Globally):
        return (all(ref_sat(node.child, traj, j, h, optimistic, memo, positive)
                    for j in indices)
                and not (unresolved and not positive))
    hit = any(ref_sat(node.child, traj, j, h, optimistic, memo, positive) for j in indices)
    return hit or (unresolved and positive)


def ref_offline(node, traj):
    return ref_sat(node, traj, 0, len(traj) - 1, False)


def ref_online(node, traj, window):
    n = len(traj)
    if window >= n:
        return ref_offline(node, traj)
    memo = {}
    return all(ref_sat(node, traj, w0, w0 + window - 1, True, memo)
               for w0 in range(n - window + 1))


# ---------------------------------------------------------------------------
# range evaluator: one contiguous run of samples per call with an explicit
# horizon, no blocks; the second reference behind range_offline and
# loop_online
# ---------------------------------------------------------------------------

def _range_context(traj):
    return {"sig": {"x": traj.x, "v": traj.v, "r": traj.r, "e": traj.e,
                    "t": traj.t},
            "dt": traj.dt}


def _signal_slice(ctx, name, j0, j1):
    arr = ctx["sig"].get(name)
    if arr is None and name == "abs_e":
        arr = np.abs(ctx["sig"]["e"])
        ctx["sig"]["abs_e"] = arr
    return arr[j0:j1 + 1]


def _eval_atom(node, ctx, j0, j1):
    m = j1 - j0 + 1
    lhs = _signal_slice(ctx, node.signal, j0, j1)
    if isinstance(node.rhs, Prev):
        # Previous-sample atoms have no obligation at the very first sample.
        out = np.empty(m, dtype=bool)
        pj0 = max(j0, 1)
        prev = _signal_slice(ctx, node.rhs.signal, pj0 - 1, j1 - 1) + node.rhs.offset
        out[pj0 - j0:] = _compare(node.op, lhs[pj0 - j0:], prev)
        if j0 == 0:
            out[0] = True
        return out
    return _compare(node.op, lhs, np.float64(node.rhs))


def _sat_range(node, ctx, j0, j1, h, optimistic, positive=True):
    """Satisfaction of node at each index in [j0, j1], horizon h (inclusive),
    under polarity positive.

    Indices are absolute trace positions; h is the last sample visible to
    this evaluation (the trace end offline, the window end online).
    """
    if isinstance(node, Atom):
        return _eval_atom(node, ctx, j0, j1)
    if isinstance(node, Not):
        return ~_sat_range(node.child, ctx, j0, j1, h, optimistic, not positive)
    if isinstance(node, And):
        parts = [_sat_range(c, ctx, j0, j1, h, optimistic, positive) for c in node.children]
        return np.logical_and.reduce(parts)
    if isinstance(node, Or):
        parts = [_sat_range(c, ctx, j0, j1, h, optimistic, positive) for c in node.children]
        return np.logical_or.reduce(parts)
    if isinstance(node, Implies):
        a = _sat_range(node.lhs, ctx, j0, j1, h, optimistic, not positive)
        b = _sat_range(node.rhs, ctx, j0, j1, h, optimistic, positive)
        return ~a | b

    # Temporal: window of child indices [j + lo, min(j + hi, h)] per j.
    lo, hi = _offsets(node, ctx["dt"])
    js = np.arange(j0, j1 + 1)
    starts = js + lo
    if hi is None:
        ends = np.full_like(js, h)
        beyond = np.ones(len(js), dtype=bool)
    else:
        ends = np.minimum(js + hi, h)
        beyond = js + hi > h
    c0 = j0 + lo
    c1 = int(ends.max())
    if c0 > h or c1 < c0:
        # no child sample is ever visible
        empty = np.ones(len(js), dtype=bool)
        counts = np.zeros(len(js), dtype=int)
        widths = np.zeros(len(js), dtype=int)
    else:
        child = _sat_range(node.child, ctx, c0, c1, h, optimistic, positive)
        cs = np.concatenate(([0], np.cumsum(child)))
        empty = starts > ends
        s_off = np.clip(starts - c0, 0, len(child))
        e_off = np.clip(ends - c0 + 1, 0, len(child))
        counts = cs[e_off] - cs[s_off]
        widths = e_off - s_off
    if isinstance(node, Globally):
        # truncated intervals quantify over what exists; empty ones hold;
        # under negative polarity an unresolved one fails
        sat = empty | (counts == widths)
        if optimistic and not positive:
            sat &= ~beyond
        return sat
    sat = ~empty & (counts > 0)
    if optimistic and positive:
        sat |= beyond
    return sat


def range_offline(node, traj):
    return bool(_sat_range(node, _range_context(traj), 0, 0, len(traj) - 1, False)[0])


def loop_online(node, traj, window):
    """The per-window evaluator the blockwise eval_online replaced: one
    _sat_range call per window start, stopping at the first violation."""
    n = len(traj)
    if window >= n:
        return range_offline(node, traj)
    ctx = _range_context(traj)
    return all(_sat_range(node, ctx, w0, w0, w0 + window - 1, True)[0]
               for w0 in range(n - window + 1))


def random_formula(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        sig = rng.choice(["x", "v", "e", "t", "abs_e"])
        op = rng.choice(["<", "<=", ">", ">=", "="])
        if rng.random() < 0.2:
            return Atom(sig, op, Prev(sig, rng.choice([0.0, 0.5, -0.5])))
        return Atom(sig, op, rng.choice([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    if kind == 1:
        return And((random_formula(rng, depth - 1), random_formula(rng, depth - 1)))
    if kind == 2:
        return Or((random_formula(rng, depth - 1), random_formula(rng, depth - 1)))
    if kind == 3:
        return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    cls = Globally if kind == 4 else Eventually
    if rng.random() < 0.5:
        return cls(random_formula(rng, depth - 1))
    lo = rng.choice([0.0, 1.0, 2.5])
    return cls(random_formula(rng, depth - 1), t_lo=lo, t_hi=lo + rng.choice([0.0, 2.0, 6.0]))


def random_traj(rng, n):
    vals = lambda: np.round(np.array([rng.uniform(-3, 3) for _ in range(n)]), 2)
    x = vals()
    return Trajectory(dt=1.0, t=np.arange(n, dtype=float), x=x, v=vals(),
                      r=x + vals() * 0.5, e=None)


def test_engine_matches_reference_semantics():
    """Drive the vectorized evaluator against the naive recursive one on a
    few hundred random formula/trace pairs, offline and windowed."""
    rng = random.Random(20240811)
    for trial in range(300):
        traj = random_traj(rng, rng.randrange(2, 12))
        traj.e = traj.r - traj.x
        f = random_formula(rng)
        assert eval_offline(f, traj) == ref_offline(f, traj), (trial, f)
        w = rng.randrange(2, len(traj) + 3)
        assert eval_online(f, traj, w) == ref_online(f, traj, w), (trial, f, w)


# ---------------------------------------------------------------------------
# blockwise eval_online against both references
# ---------------------------------------------------------------------------

_ATOM_CONSTS = (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0)
_atoms = st.one_of(
    st.builds(Atom, st.sampled_from(["x", "v", "e", "t", "abs_e"]),
              st.sampled_from(["<", "<=", ">", ">=", "="]),
              st.sampled_from(_ATOM_CONSTS)),
    st.builds(lambda sig, op, off: Atom(sig, op, Prev(sig, off)),
              st.sampled_from(["x", "e", "abs_e"]), st.sampled_from(["<=", ">"]),
              st.sampled_from([0.0, 0.5, -0.5])),
    # true and false at every sample
    st.builds(Atom, st.just("t"), st.sampled_from([">=", "<"]), st.just(0.0)),
)
# (0.5, 0.5) holds no sample at dt = 1: bounds round toward the interior.
_BOUNDS = [(None, None), (0.0, 0.0), (0.0, 2.0), (1.0, 3.0), (0.5, 1.5),
           (0.5, 0.5), (2.5, 8.5)]


@st.composite
def formulas(draw, depth=4):
    """Formulas up to `depth` operators deep, half of whose operators are
    temporal, so that nested ones (the case blocks make hard) are common."""
    kind = draw(st.sampled_from(["atom", "temporal", "temporal", "boolean"])
                if depth else st.just("atom"))
    if kind == "atom":
        return draw(_atoms)
    if kind == "temporal":
        cls = draw(st.sampled_from([Globally, Eventually]))
        lo, hi = draw(st.sampled_from(_BOUNDS))
        return cls(draw(formulas(depth - 1)), t_lo=lo, t_hi=hi)
    op = draw(st.sampled_from([Not, And, Or, Implies]))
    if op is Not:
        return Not(draw(formulas(depth - 1)))
    a, b = draw(formulas(depth - 1)), draw(formulas(depth - 1))
    return Implies(a, b) if op is Implies else op((a, b))


@st.composite
def traces_and_windows(draw):
    n = draw(st.integers(2, 40))
    vals = st.lists(st.sampled_from(_ATOM_CONSTS + (0.25, -1.0)), min_size=n, max_size=n)
    x, v, r = (np.array(draw(vals)) for _ in range(3))
    dt = draw(st.sampled_from([1.0, 0.5]))
    traj = Trajectory(dt=dt, t=np.arange(n) * dt, x=x, v=v, r=r, e=r - x)
    return traj, draw(st.integers(2, n + 3))


@settings(max_examples=300, deadline=None)
@given(f=formulas(), tw=traces_and_windows())
def test_every_online_alarm_is_real(f, tw):
    """An online violation is one of the whole trace: where eval_online
    reads False, the formula is False at some window start, judged offline
    over the whole trace. So is every cell of an online block under
    negative polarity, against the reference at that polarity."""
    traj, window = tw
    n = len(traj)
    memo = {}
    if not eval_online(f, traj, window):
        assert any(not ref_sat(f, traj, w0, n - 1, False, memo)
                   for w0 in range(max(1, n - window + 1)))
    if window < n:
        got = _sat_block(f, _context(traj, window, optimistic=True),
                         0, n - window + 1, 0, window - 1, positive=False)
        memo = {}
        want = [[ref_sat(f, traj, w0 + off, w0 + window - 1, True, memo, positive=False)
                 for off in range(window)] for w0 in range(n - window + 1)]
        assert np.array_equal(got, want)


def extended(prefix, tail):
    """prefix's trace continued by tail, rows (x, v, r) of further samples."""
    n = len(prefix) + len(tail[0])
    x, v, r = (np.concatenate((getattr(prefix, name), more))
               for name, more in zip("xvr", tail))
    return Trajectory(dt=prefix.dt, t=np.arange(n) * prefix.dt, x=x, v=v, r=r, e=r - x)


@settings(max_examples=300, deadline=None)
@given(f=formulas(), tw=traces_and_windows(), data=st.data())
def test_a_prefix_reading_decides_only_what_every_extension_shares(f, tw, data):
    """On an optimistic context over a prefix, a root read positive is False
    only where every extension reads False offline (eval_prefix), and a
    root read negative is True only where every extension reads True. The
    extensions tried are the prefix itself, the drawn trace it starts, and
    the prefix continued by other drawn samples."""
    traj, _ = tw
    k = data.draw(st.integers(1, len(traj)), label="prefix length")
    prefix = traj.head(k)
    more = data.draw(st.integers(0, 12), label="other tail length")
    value = st.sampled_from(_ATOM_CONSTS + (0.25, -1.0))
    tail = [data.draw(st.lists(value, min_size=more, max_size=more)) for _ in "xvr"]
    ctx = _context(prefix, k, optimistic=True)
    high = bool(_sat_block(f, ctx, 0, 1, 0, 0)[0, 0])
    low = bool(_sat_block(f, _context(prefix, k, optimistic=True), 0, 1, 0, 0,
                          positive=False)[0, 0])
    assert mtl.eval_prefix(f, prefix) == high
    for ext in (prefix, traj, extended(prefix, tail)):
        assert low <= eval_offline(f, ext) <= high


@pytest.mark.parametrize("block", [1, 3, mtl._BLOCK_ELEMS])
@settings(max_examples=200, deadline=None)
@given(f=formulas(), tw=traces_and_windows())
def test_blockwise_online_matches_reference(block, f, tw):
    """Block boundaries fall between window starts at every block size.
    Beyond the verdict, every cell of the one-row offline block and every
    (window start, offset) cell of one online block spanning all windows
    must match the reference, so a nested operator that is wrong only away
    from offset 0 cannot hide behind the root."""
    traj, window = tw
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mtl, "_BLOCK_ELEMS", block)
        assert eval_online(f, traj, window) == ref_online(f, traj, window)
    n = len(traj)
    got = _sat_block(f, _context(traj, n, optimistic=False), 0, 1, 0, n - 1)
    memo = {}
    assert np.array_equal(got, [[ref_sat(f, traj, off, n - 1, False, memo)
                                 for off in range(n)]])
    if window < n:
        got = _sat_block(f, _context(traj, window, optimistic=True),
                         0, n - window + 1, 0, window - 1)
        memo = {}
        want = [[ref_sat(f, traj, w0 + off, w0 + window - 1, True, memo)
                 for off in range(window)] for w0 in range(n - window + 1)]
        assert np.array_equal(got, want)


def _short_missions():
    return [hold_mission(settle_deadline=10.0, duration=20.0),
            brake_mission(brake_at=8.0, brake_deadline=5.0, duration=20.0),
            circle_mission(radius=1.0, freq=0.05, duration=25.0),
            return_home_mission(out_dist=2.0, out_t=6.0, return_t=6.0,
                                settle_deadline=15.0, mono_margin=1.0,
                                duration=20.0)]


@pytest.fixture(scope="module")
def simulated_specs():
    """(spec, trace) for every mode spec and the lap spec, on a well-tuned
    and an unstable controller."""
    plant = PlantModel()
    cases = []
    for m in _short_missions():
        specs = [mode_spec(m)]
        if m.mode == "circle_track":
            specs.append(circle_lap_spec(m))
        for gains in ((2, 1, 2), (1, 5, 1)):
            traj = simulate(plant, PidConfig(*gains), m)
            cases += [(spec, traj) for spec in specs]
    return cases


def test_online_matches_the_window_loop_on_simulated_traces(simulated_specs):
    verdicts = set()
    for spec, traj in simulated_specs:
        n = len(traj)
        for window in (2, 37, 200, n - 1, n, n + 5):
            got = eval_online(spec, traj, window)
            assert got == loop_online(spec, traj, window), (spec.label, window)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_offline_matches_the_range_evaluator_on_simulated_traces():
    """Every mode spec and the lap spec, on a stable and an unstable
    controller, at the mission length and at compare_oracles' 10x
    reference length."""
    plant = PlantModel()
    verdicts = set()
    for short in _short_missions():
        for m in (short, replace(short, duration=short.duration * 10)):
            specs = [mode_spec(m)]
            if m.mode == "circle_track":
                specs.append(circle_lap_spec(m))
            long_plant = replace(plant, t_max=max(plant.t_max, m.duration))
            for gains in ((2, 1, 2), (1, 5, 1)):
                traj = simulate(long_plant, PidConfig(*gains), m)
                for spec in specs:
                    got = eval_offline(spec, traj)
                    assert got == range_offline(spec, traj), (spec.label, m.duration)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_violation_in_the_first_window_only(simulated_specs):
    _, traj = simulated_specs[0]  # hold mission, well tuned: starts 1 off
    spec = Globally(Eventually(Atom("abs_e", "<", 0.9), t_lo=0.0, t_hi=0.2))
    late = traj.t >= 1.0
    assert np.all(np.abs(traj.e[:21]) >= 0.9) and np.all(np.abs(traj.e[late]) < 0.9)
    for window in (37, 200):
        for block in (1, 1000, mtl._BLOCK_ELEMS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mtl, "_BLOCK_ELEMS", block)
                assert not eval_online(spec, traj, window)
                assert eval_online(spec, _tail(traj, 1.0), window)
        assert not loop_online(spec, traj, window)


def test_violation_in_the_last_window_only(simulated_specs):
    spec, good = simulated_specs[0]
    spiked = _tail(good, 0.0)
    spiked.e[-1] = 5.0  # only the last window sees the final sample
    assert eval_offline(spec, good)
    for window in (37, 200):
        for block in (1, 1000, mtl._BLOCK_ELEMS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mtl, "_BLOCK_ELEMS", block)
                assert eval_online(spec, good, window)
                assert not eval_online(spec, spiked, window)
                assert not loop_online(spec, spiked, window)


def _tail(traj, t0):
    """Copy of the trace from time t0 on, keeping absolute times."""
    keep = traj.t >= t0
    return Trajectory(dt=traj.dt, t=traj.t[keep], x=traj.x[keep].copy(),
                      v=traj.v[keep].copy(), r=traj.r[keep].copy(),
                      e=traj.e[keep].copy())


@pytest.mark.parametrize("make,message", [
    (lambda: Prev("q"), "prev() not defined for signal 'q'"),
    (lambda: Atom("x", "!=", 1.0), "unknown comparator '!='"),
    (lambda: Globally(Atom("x", "<", 1.0), t_lo=0.0),
     "temporal bounds must be both set or both omitted"),
], ids=["prev of no signal", "no such comparator", "t_lo without t_hi"])
def test_constructors_refuse_what_no_evaluator_reads(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


class TestOfflineSemantics:
    def test_an_empty_trajectory_is_refused(self):
        empty = make_traj([0.0, 1.0]).head(0)
        f = Globally(Atom("x", "<", 1.0))
        with pytest.raises(ValueError, match="empty trajectory"):
            eval_offline(f, empty)
        with pytest.raises(ValueError, match="empty trajectory"):
            eval_online(f, empty, 2)

    def test_globally_all_samples(self):
        traj = make_traj([0, 1, 2, 3])
        assert eval_offline(Globally(Atom("x", "<", 4)), traj)
        assert not eval_offline(Globally(Atom("x", "<", 3)), traj)

    def test_eventually_needs_a_witness_inside_the_trace(self):
        traj = make_traj([0, 1, 2])
        assert eval_offline(Eventually(Atom("x", ">=", 2)), traj)
        # interval extends past the trace: unsatisfied means false offline
        assert not eval_offline(Eventually(Atom("x", ">", 5), t_lo=0, t_hi=100), traj)

    def test_truncated_globally_is_vacuous(self):
        traj = make_traj([0, 1, 2])
        assert eval_offline(Globally(Atom("x", ">", 99), t_lo=50, t_hi=60), traj)

    def test_interval_bounds_round_toward_interior(self):
        traj = make_traj([5, 0, 0, 5], dt=0.1)
        # [0.05, 0.25] covers exactly the samples at t=0.1 and t=0.2
        assert eval_offline(Globally(Atom("x", "<", 1), t_lo=0.05, t_hi=0.25), traj)
        assert not eval_offline(Eventually(Atom("x", ">", 1), t_lo=0.05, t_hi=0.25), traj)

    def test_interval_endpoints_inclusive(self):
        traj = make_traj([1, 0, 0, 1], dt=1.0)
        assert eval_offline(Eventually(Atom("x", ">=", 1), t_lo=3, t_hi=3), traj)
        assert eval_offline(Eventually(Atom("x", "=", 1), t_lo=0, t_hi=0), traj)

    def test_prev_atom_skips_first_sample(self):
        climbing = make_traj([3, 2, 1])  # |x| falls but the atom wants a rise
        rising = Atom("x", ">", Prev("x"))
        assert not eval_offline(Globally(rising), climbing)
        # at index 0 there is no previous sample, so the obligation is waived
        assert eval_offline(rising, climbing)

    def test_prev_atom_with_offset(self):
        traj = make_traj([0, 0.3, 0.6])
        assert eval_offline(Globally(Atom("x", "<=", Prev("x", 0.5))), traj)
        assert not eval_offline(Globally(Atom("x", "<=", Prev("x", 0.1))), traj)

    def test_boolean_connectives(self):
        traj = make_traj([1, 1])
        t = Atom("x", "=", 1)
        f = Atom("x", "=", 0)
        assert eval_offline(And((t, Not(f))), traj)
        assert eval_offline(Or((f, t)), traj)
        assert eval_offline(Implies(f, f), traj)
        assert not eval_offline(Implies(t, f), traj)

    def test_constant_atoms(self):
        # a constant over the run, true or false at every sample
        traj = make_traj([0, 1, 2])
        assert eval_offline(Globally(Atom("t", ">=", 0.0)), traj)
        assert not eval_offline(Eventually(Atom("t", "<", 0.0)), traj)

    @pytest.mark.parametrize("dt", [1.0, 0.01, 1e-300])
    @pytest.mark.parametrize("cls", [Globally, Eventually])
    def test_a_bound_past_any_trace_acts_as_no_bound(self, cls, dt):
        # t_hi / dt overflows a float here; the offset saturates instead
        for x in ([0, 0, 0, 0, 0, 2, 0, 0], [2, 2, 0, 2, 2, 2, 2, 2], [0] * 8):
            traj = make_traj(x, dt=dt)
            far, free = cls(Atom("x", "<", 1), 0.0, 1e308), cls(Atom("x", "<", 1))
            assert eval_offline(far, traj) == eval_offline(free, traj)
            for w in (2, 3, 9):
                assert eval_online(far, traj, w) == eval_online(free, traj, w)

    @pytest.mark.parametrize("make", [
        lambda: Globally(Atom("x", "<", 1), 0.0, math.inf),
        lambda: Eventually(Atom("x", "<", 1), math.nan, 1.0),
        lambda: Globally(Atom("x", "<", 1), 2.0, 1.0),
        lambda: Atom("x", "<", math.nan),
        lambda: Atom("x", "<", Prev("x", math.nan)),
    ])
    def test_non_finite_bounds_and_nan_numbers_are_refused(self, make):
        with pytest.raises(ValueError, match="need 0 <= t_lo <= t_hi|NaN"):
            make()

    def test_an_infinite_threshold_means_finite(self):
        traj = make_traj([0.0, -5.0, math.inf])
        assert eval_offline(Atom("abs_e", "<", math.inf), traj)
        assert not eval_offline(Globally(Atom("abs_e", "<", math.inf)), traj)


class TestOnlineSemantics:
    def test_window_covering_trace_equals_offline(self):
        traj = make_traj([0, 1, 2, 5])
        f = Eventually(Atom("x", ">", 9))
        assert eval_online(f, traj, 4) == eval_offline(f, traj)
        assert eval_online(f, traj, 400) == eval_offline(f, traj)

    def test_pointwise_violation_caught_by_both(self):
        x = np.zeros(50)
        x[30] = 9.0
        traj = make_traj(x)
        f = Globally(Atom("x", "<", 1))
        assert not eval_offline(f, traj)
        assert not eval_online(f, traj, 5)

    def test_long_horizon_eventually_slips_past_online(self):
        # the obligation spans 40 samples; a 5-sample window never resolves it
        traj = make_traj(np.zeros(60))
        f = Globally(Eventually(Atom("x", ">", 1), t_lo=0, t_hi=40), t_lo=0, t_hi=10)
        assert not eval_offline(f, traj)
        assert eval_online(f, traj, 5)

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            eval_online(Atom("x", "<", 1), make_traj([0, 1]), 1)

    @pytest.mark.parametrize("text", [
        "(not (E [0 50] (> x 1000000000)))",
        "(=> (E [0 50] (> x 1000000000)) (< x 0))",
        "(G (not (E [0 50] (> x 1000000000))))",
        "(not (G (< x 0.5)))",
    ])
    def test_a_negated_unresolved_obligation_raises_no_alarm(self, text):
        traj = simulate(PlantModel(), PidConfig(1, 0.5, 1), hold_mission())
        f = parse_formula(text)
        assert eval_offline(f, traj) and eval_online(f, traj, 200)

    def test_a_negated_obligation_resolved_in_the_window_still_alarms(self):
        # x reaches 5 at sample 3: under not, the E [0 2] windows that see it fail
        traj = make_traj([0, 0, 0, 5, 0, 0, 0, 0])
        f = Globally(Not(Eventually(Atom("x", ">", 1), t_lo=0, t_hi=2)))
        assert not eval_offline(f, traj)
        assert not eval_online(f, traj, 3)

    def test_globally_of_atoms_agrees_with_offline(self):
        rng = random.Random(3)
        for _ in range(60):
            traj = random_traj(rng, rng.randrange(3, 10))
            traj.e = traj.r - traj.x
            atom = Atom(rng.choice(["x", "v", "e"]), rng.choice(["<", ">="]),
                        rng.choice([-1.0, 0.0, 1.0]))
            f = Globally(atom)
            for w in (2, 3, 5):
                assert eval_online(f, traj, w) == eval_offline(f, traj)

    def test_violations_persist_in_larger_windows(self):
        rng = random.Random(4)
        for _ in range(40):
            traj = random_traj(rng, 8)
            traj.e = traj.r - traj.x
            f = Globally(Atom("x", "<", rng.choice([0.0, 1.0])))
            results = [eval_online(f, traj, w) for w in range(2, 9)]
            # once a window size catches the violation, bigger ones do too
            for small, big in zip(results, results[1:]):
                assert not (small is False and big is True)


class TestModeSpecs:
    def test_hold_spec_verdicts(self):
        plant = PlantModel()
        m = hold_mission()
        good = simulate(plant, PidConfig(1, 0.5, 1), m)
        bad = simulate(plant, PidConfig(1, 5, 1), m)
        spec = mode_spec(m)
        assert eval_offline(spec, good)
        assert not eval_offline(spec, bad)

    def test_brake_spec_on_stopped_trace(self):
        m = brake_mission(v_stop=0.01)
        n = 6001
        v = np.where(np.arange(n) * 0.01 < 25.0, 1.0, 0.0)
        traj = Trajectory(dt=0.01, t=np.arange(n) * 0.01, x=np.zeros(n), v=v,
                          r=np.zeros(n), e=np.zeros(n))
        assert eval_offline(mode_spec(m), traj)
        still_moving = Trajectory(dt=0.01, t=np.arange(n) * 0.01, x=np.zeros(n),
                                  v=np.full(n, 0.5), r=np.zeros(n),
                                  e=np.zeros(n))
        assert not eval_offline(mode_spec(m), still_moving)

    def test_brake_spec_simulated(self):
        plant = PlantModel()
        m = brake_mission()
        assert eval_offline(mode_spec(m), simulate(plant, PidConfig(2, 1, 2), m))
        assert not eval_offline(mode_spec(m), simulate(plant, PidConfig(1, 5, 1), m))

    def test_circle_spec_verdicts(self):
        plant = PlantModel()
        m = circle_mission(radius=1.0, freq=0.05, circle_tol=0.4)
        assert eval_offline(mode_spec(m), simulate(plant, PidConfig(4, 2, 2), m))
        assert not eval_offline(mode_spec(m), simulate(plant, PidConfig(1, 5, 1), m))

    def test_return_home_spec_verdicts(self):
        plant = PlantModel()
        m = return_home_mission()
        spec = mode_spec(m)
        assert eval_offline(spec, simulate(plant, PidConfig(2, 1, 2), m))
        assert not eval_offline(spec, simulate(plant, PidConfig(1, 5, 1), m))

    def test_return_home_flags_stalled_return(self):
        # parks far from home: arrival fails even though nothing oscillates
        m = return_home_mission()
        n = 12001
        t = np.arange(n) * 0.01
        x = np.full(n, 3.0)
        r, _ = np.vectorize(lambda tt: __import__("pidlab").reference_at(m, tt))(t)
        traj = Trajectory(dt=0.01, t=t, x=x, v=np.zeros(n), r=r, e=r - x)
        assert not eval_offline(mode_spec(m), traj)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mode_spec(Mission := type("M", (), {"mode": "x", "params": {}})())


class TestCircleLapSpec:
    def test_good_tracker_reaches_both_extremes(self):
        m = circle_mission(radius=1.0, freq=0.05, duration=60)
        plant = PlantModel()
        spec = circle_lap_spec(m)
        assert eval_offline(spec, simulate(plant, PidConfig(4, 2, 2), m))

    def test_sluggish_tracker_fails_offline_but_passes_online(self):
        m = circle_mission(radius=1.0, freq=0.05, duration=60)
        plant = PlantModel()
        spec = circle_lap_spec(m)
        traj = simulate(plant, PidConfig(0.05, 0.01, 0.5), m)
        assert np.abs(traj.x).max() < 0.8  # genuinely never gets there
        assert not eval_offline(spec, traj)
        lap_tenth = int(round(0.1 / m.params["freq"] / plant.dt))
        assert eval_online(spec, traj, lap_tenth)

    def test_needs_circle_mission(self):
        with pytest.raises(ValueError):
            circle_lap_spec(hold_mission())

    def test_needs_one_whole_lap(self):
        short = circle_mission(radius=1.0, freq=0.05, settle_deadline=4, duration=10)
        with pytest.raises(ValueError, match="mission shorter than one lap"):
            circle_lap_spec(short)


class TestParser:
    def test_worked_example(self):
        f = parse_formula("(G (=> (> t 20) (< (abs e) 0.05)))")
        assert f == Globally(Implies(Atom("t", ">", 20.0),
                                     Atom("abs_e", "<", 0.05)))

    def test_bounded_operators(self):
        f = parse_formula("(E [0 5] (>= x 1))")
        assert f == Eventually(Atom("x", ">=", 1.0), t_lo=0.0, t_hi=5.0)

    def test_boolean_forms(self):
        f = parse_formula("(and (not (< v 0)) (or (>= t 0) (< t 0)))")
        assert f == And((Not(Atom("v", "<", 0.0)),
                         Or((Atom("t", ">=", 0.0), Atom("t", "<", 0.0)))))

    def test_prev_forms(self):
        assert parse_formula("(> x (prev x))") == Atom("x", ">", Prev("x"))
        f = parse_formula("(<= (abs e) (+ (prev (abs e)) 0.02))")
        assert f == Atom("abs_e", "<=", Prev("abs_e", 0.02))

    def test_parse_eval_round_trip(self):
        traj = make_traj([0, 1, 2, 3], dt=1.0)
        f = parse_formula("(G [1 3] (>= x 1))")
        assert eval_offline(f, traj)

    @pytest.mark.parametrize("text", [
        "", "(G", "(G x)", "(< q 1)", "(< x one)", "(foo x 1)",
        "(= x hold)", "(G [1] (< x 1))", "(< x 1) junk", "(and (< x 1))",
        "(< x (prev mode))", "(< x (+ (prev mode) 1))", "(G [0 inf] (< x 1))",
        "(G [nan 1] (< x 1))", "(< x nan)",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(MtlSyntaxError):
            parse_formula(text)

    @pytest.mark.parametrize("text", ["(= mode hold)",
                                      "(G (=> (= mode circle) (< (abs e) 0.01)))"])
    def test_there_is_no_mode_signal(self, text):
        # a run has one mission, so such an atom is a constant over the run;
        # (>= t 0) and (< t 0) write the two constants
        with pytest.raises(MtlSyntaxError, match="unknown signal 'mode'") as err:
            parse_formula(text)
        assert err.value.pos == text.index("mode")
        assert "mode" not in mtl.SIGNALS
        with pytest.raises(ValueError, match="unknown signal 'mode'"):
            Atom("mode", "=", "hold")

    def test_a_word_is_no_threshold(self):
        with pytest.raises(MtlSyntaxError, match="expected a number, got 'hold'") as err:
            parse_formula("(< x hold)")
        assert err.value.pos == len("(< x ")
        with pytest.raises(ValueError, match="string"):
            Atom("x", "<", "hold")

    def test_readme_grammar_matches_the_reader(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        grammar = re.search(r"## Spec syntax\n.*?```\n(.*?)```", readme, re.S).group(1)
        sig = re.search(r"^sig\s*=(.*)$", grammar, re.M).group(1)
        spelled = [alt.strip() for alt in sig.split("|")]
        assert sorted("abs_e" if alt == "(abs e)" else alt for alt in spelled) == \
            sorted(mtl.SIGNALS)
        # the config section's example formula is one the reader takes
        example = re.search(r"^formula = (.*)$", readme, re.M).group(1)
        assert parse_formula(example)

    def test_error_carries_offset(self):
        with pytest.raises(MtlSyntaxError) as err:
            parse_formula("(G (=> (> t 20) (< (abs q) 0.05)))")
        assert err.value.pos is not None

    def test_nesting_is_capped_at_100_forms(self):
        def nested(head, depth):
            return head * (depth - 1) + "(< x 10)" + ")" * (depth - 1)

        traj = make_traj([0, 1, 2, 3], dt=1.0)
        f = parse_formula(nested("(G ", 100))
        assert eval_offline(f, traj) and eval_online(f, traj, 2)
        assert parse_formula(nested("(and (< x 9) ", 100))
        # refused at the first form 101 deep: the 101st G, the 100th and's
        # first operand, the 101st not
        for head, depth, at in [("(G ", 101, 300), ("(and (< x 9) ", 101, 99 * 13 + 5),
                                ("(not ", 1000, 500)]:
            with pytest.raises(MtlSyntaxError, match="deeper than 100 forms") as err:
                parse_formula(nested(head, depth))
            assert err.value.pos == at


# ---------------------------------------------------------------------------
# atom_margin against a per-atom, per-sample loop
# ---------------------------------------------------------------------------

_STATE = ("x", "v", "e", "abs_e")
_ANY_SIGNAL = _STATE + ("r", "t")
_margin_atoms = st.one_of(
    st.builds(Atom, st.sampled_from(_ANY_SIGNAL), st.sampled_from(["<", "<=", ">", ">=", "="]),
              st.sampled_from(_ATOM_CONSTS) | st.floats(-3, 3)),
    st.builds(lambda sig, op, prev, off: Atom(sig, op, Prev(prev, off)),
              st.sampled_from(_ANY_SIGNAL), st.sampled_from(["<=", ">", "="]),
              st.sampled_from(_ANY_SIGNAL), st.sampled_from([0.0, 0.5, -0.25]) | st.floats(-2, 2)),
    st.builds(Atom, st.just("t"), st.sampled_from([">=", "<"]), st.just(0.0)),
)


@st.composite
def margin_formulas(draw, depth=3):
    kind = draw(st.sampled_from(["atom", "temporal", "boolean"]) if depth else st.just("atom"))
    if kind == "atom":
        return draw(_margin_atoms)
    if kind == "temporal":
        cls = draw(st.sampled_from([Globally, Eventually]))
        lo, hi = draw(st.sampled_from(_BOUNDS))
        return cls(draw(margin_formulas(depth - 1)), t_lo=lo, t_hi=hi)
    op = draw(st.sampled_from([Not, And, Or, Implies]))
    if op is Not:
        return Not(draw(margin_formulas(depth - 1)))
    a, b = draw(margin_formulas(depth - 1)), draw(margin_formulas(depth - 1))
    return Implies(a, b) if op is Implies else op((a, b))


def ref_margin(f, traj):
    """The smallest |lhs - rhs| over every sample of every atom of f with a
    side on a state signal, Prev atoms at half their gap; inf if none."""
    if isinstance(f, Atom):
        prev = isinstance(f.rhs, Prev)
        if f.signal not in _STATE and not (prev and f.rhs.signal in _STATE):
            return math.inf
        lhs = _ref_signal(traj, f.signal)
        if prev:
            rhs = _ref_signal(traj, f.rhs.signal)
            gaps = [abs(lhs[k] - (rhs[k - 1] + f.rhs.offset)) / 2.0
                    for k in range(1, len(traj))]
        else:
            gaps = [abs(lhs[k] - f.rhs) for k in range(len(traj))]
        return min(gaps, default=math.inf)
    if isinstance(f, (And, Or)):
        return min(ref_margin(c, traj) for c in f.children)
    if isinstance(f, Implies):
        return min(ref_margin(f.lhs, traj), ref_margin(f.rhs, traj))
    return ref_margin(f.child, traj)


@settings(max_examples=200, deadline=None)
@given(f=margin_formulas(), n=st.integers(1, 30), seed=st.integers(0, 2**16),
       exact=st.booleans())
def test_atom_margin_equals_the_per_atom_loop(f, n, seed, exact):
    rng = np.random.default_rng(seed)
    if exact:  # samples on the atoms' constants, so gaps of 0 are common
        x, v, r = (rng.choice(_ATOM_CONSTS + (0.25, -1.0), n) for _ in range(3))
    else:
        x, v, r = (rng.uniform(-3, 3, n) for _ in range(3))
    traj = Trajectory(dt=0.5, t=np.arange(n) * 0.5, x=x, v=v, r=r, e=r - x)
    assert mtl.atom_margin(f, traj) == ref_margin(f, traj)


def test_atom_margin_edge_cases():
    traj = make_traj([0.0, 0.3, 0.7], v=[0.0, 1.0, 2.0], r=[1.0, 1.0, 1.0])
    # no atom reads the state: nothing the state does changes a verdict
    assert mtl.atom_margin(And((Atom("t", ">", 1.0), Atom("r", "<", 2.0))),
                           traj) == math.inf
    assert mtl.atom_margin(Atom("x", "=", 0.3), traj) == 0.0
    assert mtl.atom_margin(Atom("v", "<", 0.4), traj) == pytest.approx(0.4)
    # e = r - x = (1, 0.7, 0.3); the Prev atom's gaps are |0.7 - 1.1|, |0.3 - 0.8|
    assert mtl.atom_margin(Atom("abs_e", "<=", Prev("abs_e", 0.1)), traj) == \
        pytest.approx(0.2)
    # a Prev atom counts half its gap even where one side moves: t = (0, 1, 2)
    # against x one sample back, (0, 0.3), gaps 1 and 1.7
    assert mtl.atom_margin(Atom("t", ">", Prev("x")), traj) == 0.5
    nan = make_traj([0.0, float("nan")])
    assert math.isnan(mtl.atom_margin(Atom("x", "<", 5.0), nan))


# ---------------------------------------------------------------------------
# parse_formula against a printer of the same grammar
# ---------------------------------------------------------------------------

def formula_text(f):
    """f in the README's prefix syntax; f-strings spell floats as repr does."""
    if isinstance(f, Atom):
        name = {"abs_e": "(abs e)"}
        rhs = f.rhs
        if isinstance(rhs, Prev):
            prev = f"(prev {name.get(rhs.signal, rhs.signal)})"
            rhs = f"(+ {prev} {rhs.offset})" if rhs.offset else prev
        return f"({f.op} {name.get(f.signal, f.signal)} {rhs})"
    if isinstance(f, Not):
        return f"(not {formula_text(f.child)})"
    if isinstance(f, (And, Or)):
        head = "and" if isinstance(f, And) else "or"
        return f"({head} " + " ".join(map(formula_text, f.children)) + ")"
    if isinstance(f, Implies):
        return f"(=> {formula_text(f.lhs)} {formula_text(f.rhs)})"
    head = "G" if isinstance(f, Globally) else "E"
    bounds = "" if f.t_lo is None else f"[{f.t_lo} {f.t_hi}] "
    return f"({head} {bounds}{formula_text(f.child)})"


@settings(max_examples=300, deadline=None)
@given(f=formulas() | margin_formulas())
def test_every_tree_round_trips_through_its_text(f):
    assert parse_formula(formula_text(f)) == f


_EDITS = st.tuples(st.sampled_from(["delete", "swap", "replace", "insert"]),
                   st.integers(0, 99), st.integers(0, 99),
                   st.sampled_from(["(", ")", "[", "]", "mode", "nan", "inf", "1e308",
                                    "prev", "x"]))


@settings(max_examples=500, deadline=None)
@given(f=formulas() | margin_formulas(), edits=st.lists(_EDITS, min_size=1, max_size=2))
@example(f=Atom("x", "<", Prev("x")), edits=[("replace", 5, 0, "mode")])
def test_edited_text_parses_or_fails_with_an_offset(f, edits):
    """One or two token edits (edit, position, other position, new token) of
    a printed formula: the result parses or is an MtlSyntaxError pointing
    into the text, never another exception."""
    tokens = re.findall(r"[()\[\]]|[^\s()\[\]]+", formula_text(f))
    for edit, i, j, new in edits:
        i %= len(tokens) + (edit == "insert")
        if edit == "delete":
            del tokens[i]
        elif edit == "swap":
            j %= len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i:i + (edit == "replace")] = [new]
    text = " ".join(tokens)
    try:
        parse_formula(text)
    except MtlSyntaxError as err:
        assert err.pos is not None and 0 <= err.pos <= len(text)
