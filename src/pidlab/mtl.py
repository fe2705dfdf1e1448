"""Discrete-time metric temporal logic over sampled trajectories.

Formulas are pointwise Boolean: atoms compare one trace signal against a
constant or against the same signal one sample earlier. Semantics are
finite-trace: a Globally over a truncated interval quantifies over the
samples that exist, an Eventually that is never satisfied within the trace
is false.

One evaluator judges a block of windows at once: row w0 holds the
satisfaction at samples w0 .. w0 + window - 1 with horizon w0 + window - 1,
so every row has the same horizon column and a temporal operator takes all
its windowed counts from one row-wise cumsum (the windowed-count idea of
Donze, Ferrere & Maler, CAV 2013). Atoms are computed once over the whole
trace and each row is a view into them.

Offline evaluation is the one-row block whose window is the whole trace;
obligations reaching past its end fail. eval_prefix reads the same block
optimistically, as a prefix of a longer trace: it is False only where
every longer trace is, which lets a run stop once its verdict is decided.
The online evaluator slides a shorter window along the trace and flags a
violation as soon as any window fails. Obligations whose interval reaches
past a window's end cannot be resolved there. They are treated as
satisfied under positive polarity, which is exactly why long-horizon
Eventually properties can slip past an online monitor, and as violated
under negative polarity (under a not or on the left of an =>), so that
every online violation is one of the whole trace at some window start.
Online blocks hold at most _BLOCK_ELEMS samples (or one window, if that
is longer), and the first block with a violated window ends the
evaluation.

parse_formula reads the text syntax given at the end of this module. Time
bounds must be finite seconds with 0 <= lo <= hi, no number may be NaN, and
forms nest at most _MAX_DEPTH deep; every malformed text raises
MtlSyntaxError with a character offset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SIGNALS = ("x", "v", "r", "e", "abs_e", "t", "mode")
COMPARATORS = ("<", "<=", ">", ">=", "=")

# Samples (window starts x window offsets) per block of eval_online; fixes
# its working set whatever the trace length or window.
_BLOCK_ELEMS = 1 << 16
# Sample offset that stands for a time bound past any trace.
_FAR = 1 << 62
# Forms a formula text may nest, so the reader and the evaluators, which
# recurse once per form, stay far from Python's recursion limit. The
# shipped specs nest at most 4 forms.
_MAX_DEPTH = 100


class MtlSyntaxError(ValueError):
    """Raised by parse_formula on malformed text, with a character offset."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


@dataclass(frozen=True)
class Prev:
    """Reference to a signal one sample back, plus an additive offset."""

    signal: str
    offset: float = 0.0

    def __post_init__(self):
        if self.signal not in SIGNALS or self.signal == "mode":
            raise ValueError(f"prev() not defined for signal {self.signal!r}")
        if math.isnan(self.offset):
            raise ValueError("prev() offset is NaN")


@dataclass(frozen=True)
class Atom:
    signal: str
    op: str
    rhs: object  # float, str (mode name) or Prev
    label: str | None = None

    def __post_init__(self):
        if self.signal not in SIGNALS:
            raise ValueError(f"unknown signal {self.signal!r}")
        if self.op not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")
        if self.signal == "mode":
            if self.op != "=" or not isinstance(self.rhs, str):
                raise ValueError("mode atoms support only '=' against a mode name")
        elif isinstance(self.rhs, str):
            raise ValueError("string rhs is only valid for the mode signal")
        elif isinstance(self.rhs, float) and math.isnan(self.rhs):
            raise ValueError(f"threshold for {self.signal!r} is NaN")


@dataclass(frozen=True)
class Not:
    child: object
    label: str | None = None


@dataclass(frozen=True)
class And:
    children: tuple
    label: str | None = None


@dataclass(frozen=True)
class Or:
    children: tuple
    label: str | None = None


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object
    label: str | None = None


def _check_bounds(t_lo, t_hi):
    if (t_lo is None) != (t_hi is None):
        raise ValueError("temporal bounds must be both set or both omitted")
    if t_lo is not None and not 0 <= t_lo <= t_hi < math.inf:
        raise ValueError(f"need 0 <= t_lo <= t_hi < inf, got [{t_lo} {t_hi}]")


@dataclass(frozen=True)
class Globally:
    child: object
    t_lo: float | None = None
    t_hi: float | None = None
    label: str | None = None

    def __post_init__(self):
        _check_bounds(self.t_lo, self.t_hi)


@dataclass(frozen=True)
class Eventually:
    child: object
    t_lo: float | None = None
    t_hi: float | None = None
    label: str | None = None

    def __post_init__(self):
        _check_bounds(self.t_lo, self.t_hi)


def _compare(op, lhs, rhs):
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    return lhs == rhs


def _eval_atom(node, ctx):
    """Truth of an atom at every sample of the trace."""
    sig = ctx["sig"]
    if node.signal == "mode":
        return np.full(len(sig["t"]), ctx["mode"] == node.rhs)
    lhs = sig[node.signal]
    if isinstance(node.rhs, Prev):
        # Previous-sample atoms have no obligation at the very first sample.
        out = np.ones(len(lhs), dtype=bool)
        out[1:] = _compare(node.op, lhs[1:], sig[node.rhs.signal][:-1] + node.rhs.offset)
        return out
    return _compare(node.op, lhs, np.float64(node.rhs))


def _offsets(node, dt):
    """Interval bounds as sample offsets, rounded inward and capped at _FAR."""
    if node.t_lo is None:
        return 0, None
    lo = max(0, math.ceil(min(node.t_lo / dt - 1e-9, _FAR)))
    hi = math.floor(min(node.t_hi / dt + 1e-9, _FAR))
    return lo, hi


def _atom_rows(node, ctx):
    """(window start, window offset) view of an atom over the whole trace."""
    rows = ctx["atoms"].get(node)
    if rows is None:
        rows = ctx["atoms"][node] = sliding_window_view(_eval_atom(node, ctx),
                                                        ctx["window"])
    return rows


def _sat_block(node, ctx, r0, r1, c0, c1, positive=True):
    """Satisfaction of node for window starts r0 .. r1 - 1 (rows) at window
    offsets c0 .. c1 (columns, inclusive).

    Row w0, column off is the satisfaction at sample w0 + off with horizon
    w0 + window - 1, i.e. column window - 1 in every row. A temporal
    operator's window of child columns is [off + lo, min(off + hi, window - 1)].
    positive is node's polarity: it flips under a not and on the left of
    an =>. Where the context is optimistic, an obligation whose interval
    reaches past the horizon is unresolved, and it holds under positive
    polarity and fails under negative, so that no window reads False where
    the whole trace reads True. Otherwise such obligations quantify over the
    samples that exist. The result may be a read-only view; nothing here
    writes into a child's result.
    """
    if isinstance(node, Atom):
        return _atom_rows(node, ctx)[r0:r1, c0:c1 + 1]
    if isinstance(node, Not):
        return ~_sat_block(node.child, ctx, r0, r1, c0, c1, not positive)
    if isinstance(node, And):
        parts = [_sat_block(c, ctx, r0, r1, c0, c1, positive) for c in node.children]
        return np.logical_and.reduce(parts)
    if isinstance(node, Or):
        parts = [_sat_block(c, ctx, r0, r1, c0, c1, positive) for c in node.children]
        return np.logical_or.reduce(parts)
    if isinstance(node, Implies):
        a = _sat_block(node.lhs, ctx, r0, r1, c0, c1, not positive)
        b = _sat_block(node.rhs, ctx, r0, r1, c0, c1, positive)
        return ~a | b

    h = ctx["window"] - 1
    lo, hi = _offsets(node, ctx["dt"])
    shape = (r1 - r0, c1 - c0 + 1)
    offs = np.arange(c0, c1 + 1)
    starts = offs + lo
    globally = isinstance(node, Globally)
    # An unresolved obligation takes the polarity's value. That decides a
    # positive Eventually (it holds) and a negative Globally (it fails);
    # elsewhere the samples that exist give the same value.
    decides = ctx["optimistic"] and globally != positive
    if hi is None:
        ends = np.full_like(offs, h)
        beyond = np.full(len(offs), decides)
    else:
        ends = np.minimum(offs + hi, h)
        beyond = (offs + hi > h) & decides
    if beyond.all():
        # every obligation is unresolved, so no child sample can decide one
        return np.full(shape, positive)
    k0 = c0 + lo
    k1 = int(ends.max())
    if k0 > h or k1 < k0:
        # no child sample is ever visible (also when rounding leaves hi < lo)
        seen = np.broadcast_to(globally, shape)
    else:
        child = _sat_block(node.child, ctx, r0, r1, k0, k1, positive)
        width = k1 - k0 + 1
        cs = np.zeros((shape[0], width + 1), dtype=np.int32)  # counts <= window
        np.cumsum(child, axis=1, dtype=np.int32, out=cs[:, 1:])
        empty = starts > ends
        s_off = np.clip(starts - k0, 0, width)
        e_off = np.clip(ends - k0 + 1, 0, width)
        counts = cs[:, e_off] - cs[:, s_off]
        # truncated intervals quantify over what exists; empty ones hold
        seen = empty | (counts == e_off - s_off) if globally else ~empty & (counts > 0)
    return seen | beyond if positive else seen & ~beyond


def _signals(traj):
    return {"x": traj.x, "v": traj.v, "r": traj.r, "e": traj.e,
            "abs_e": np.abs(traj.e), "t": traj.t}


def _context(traj, window, optimistic):
    """Evaluation state for one trace: signals, the window length (horizon
    column window - 1), whether past-horizon obligations are unresolved
    (online) rather than judged on the samples that exist (offline), and
    the per-atom cache filled by _atom_rows."""
    return {"sig": _signals(traj), "mode": traj.mode, "dt": traj.dt,
            "window": window, "optimistic": optimistic, "atoms": {}}


def _atoms(node):
    """The atoms of formula node, each once per occurrence."""
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, (And, Or)):
        for child in node.children:
            yield from _atoms(child)
    elif isinstance(node, Implies):
        yield from _atoms(node.lhs)
        yield from _atoms(node.rhs)
    else:
        yield from _atoms(node.child)


# The signals that move with the state; t, r and mode do not.
_STATE_SIGNALS = frozenset(("x", "v", "e", "abs_e"))


def atom_margin(formula, traj):
    """How far the trace's x and v may move, sample by sample, before an
    atom of formula can change its truth value at some sample.

    The smallest |lhs - rhs| over every sample of every atom with a side
    on x, v, e or abs_e: the per-atom robustness of Donze & Maler (FORMATS
    2010). A Prev atom counts half its gap, since both of its sides may
    move. inf when no atom has such a side; nan when a gap is.
    """
    sig = _signals(traj)
    margin = math.inf
    for atom in set(_atoms(formula)):
        rhs = atom.rhs
        prev = isinstance(rhs, Prev)
        if atom.signal not in _STATE_SIGNALS and not (prev and rhs.signal in _STATE_SIGNALS):
            continue
        lhs = sig[atom.signal]
        if prev:
            gap = np.abs(lhs[1:] - (sig[rhs.signal][:-1] + rhs.offset)) / 2.0
        else:
            gap = np.abs(lhs - np.float64(rhs))
        if len(gap):
            low = float(gap.min())
            if math.isnan(low):
                return low
            margin = min(margin, low)
    return margin


def eval_offline(formula, traj):
    """Whole-trace verdict: does the trace satisfy the formula at time 0?

    The one-row case of the online evaluation: a single window spanning the
    trace, in which obligations past the trace end fail.
    """
    return _one_window(formula, traj, optimistic=False)


def eval_prefix(formula, traj):
    """Optimistic verdict of a prefix: False only where every trace that
    starts with traj's samples fails formula under eval_offline.

    The one-window reading of eval_online's context: one window spans traj,
    and an obligation whose interval reaches past its end is unresolved,
    held under positive polarity and failed under negative. eval_online
    with a window of len(traj) or more degenerates to eval_offline instead,
    which judges such obligations on the samples that exist and so may read
    False where a longer trace reads True.
    """
    return _one_window(formula, traj, optimistic=True)


def _one_window(formula, traj, optimistic):
    """formula at sample 0 of the one window that spans traj."""
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")
    return bool(_sat_block(formula, _context(traj, n, optimistic), 0, 1, 0, 0)[0, 0])


def time_thresholds(formula):
    """The constants that formula's t atoms compare against, sorted, each
    once: the times at which a t atom can change its truth value."""
    return sorted({float(atom.rhs) for atom in _atoms(formula)
                   if atom.signal == "t" and not isinstance(atom.rhs, Prev)})


def eval_online(formula, traj, window):
    """Sliding-window verdict.

    Evaluates the formula at the start of every window of `window` samples,
    with obligations reaching past the window's end treated as satisfied
    under positive polarity and as violated under negative polarity.
    False iff some window is violated. A window spanning the whole trace (or
    more) degenerates to eval_offline. Window starts are judged in blocks
    of _BLOCK_ELEMS // window (at least one; see the module docstring).

    Args:
        formula: MTL formula.
        traj: Trajectory to monitor.
        window: window length in samples, >= 2.
    """
    if window < 2:
        raise ValueError("window must be at least 2 samples")
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")
    if window >= n:
        return eval_offline(formula, traj)
    ctx = _context(traj, window, optimistic=True)
    n_starts = n - window + 1
    rows = max(1, _BLOCK_ELEMS // window)
    for r0 in range(0, n_starts, rows):
        if not _sat_block(formula, ctx, r0, min(r0 + rows, n_starts), 0, 0).all():
            return False
    return True


def mode_spec(mission):
    """The misbehavior spec a mission's trajectory is checked against."""
    p = mission.params
    if mission.mode == "hold":
        return Globally(
            Implies(Atom("t", ">", p["settle_deadline"]),
                    Atom("abs_e", "<", p["hold_tol"])),
            label="hold_tolerance")
    if mission.mode == "brake":
        after = p["brake_at"] + p["brake_deadline"]
        return Globally(
            Implies(Atom("t", ">", after),
                    And((Atom("v", "<", p["v_stop"]),
                         Atom("v", ">", -p["v_stop"])))),
            label="brake_stop")
    if mission.mode == "circle_track":
        return Globally(
            Implies(Atom("t", ">", p["settle_deadline"]),
                    Atom("abs_e", "<", p["circle_tol"])),
            label="circle_tracking")
    if mission.mode == "return_home":
        ret_start = p["out_t"] + p["mono_margin"]
        ret_end = p["out_t"] + p["return_t"]
        return And((
            Globally(
                Implies(Atom("t", ">", p["settle_deadline"]),
                        Atom("abs_e", "<", p["home_radius"])),
                label="home_arrival"),
            Globally(
                Atom("abs_e", "<=", Prev("abs_e", p["eps_mono"])),
                t_lo=ret_start, t_hi=ret_end,
                label="return_progress"),
        ), label="return_home")
    raise ValueError(f"no spec for mission mode {mission.mode!r}")


def circle_lap_spec(mission):
    """Recurrence spec for circle tracking: within every lap the plant must
    actually swing out to +-0.8 of the radius on both sides.

    Violations of this spec span a whole lap, so an online monitor whose
    window is much shorter than the lap cannot resolve them.
    """
    if mission.mode != "circle_track":
        raise ValueError("circle_lap_spec needs a circle_track mission")
    p = mission.params
    lap = 1.0 / p["freq"]
    if mission.duration < lap:
        raise ValueError("mission shorter than one lap")
    reach = 0.8 * p["radius"]
    return Globally(
        And((Eventually(Atom("x", ">=", reach), t_lo=0.0, t_hi=lap),
             Eventually(Atom("x", "<=", -reach), t_lo=0.0, t_hi=lap))),
        t_lo=0.0, t_hi=mission.duration - lap,
        label="lap_reach")


# ---------------------------------------------------------------------------
# Textual syntax, e.g.  (G (=> (> t 20) (< (abs e) 0.05)))
# Grammar:
#   formula = atom | (not f) | (and f f ...) | (or f f ...) | (=> f f)
#           | (G f) | (G [lo hi] f) | (E f) | (E [lo hi] f)
#   atom    = (CMP sig rhs)         CMP in < <= > >= =
#   sig     = x | v | r | e | t | mode | (abs e)
#   rhs     = number | modename | (prev sig) | (+ (prev sig) number)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[()\[\]]|[^\s()\[\]]+")


def parse_formula(text):
    """Parse the prefix syntax into a formula tree. Raises MtlSyntaxError."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)][::-1]

    def peek():
        return tokens[-1] if tokens else (None, len(text))

    def take(expect=None):
        tok, at = peek()
        if tok is None:
            raise MtlSyntaxError("unexpected end of formula", at)
        if expect is not None and tok != expect:
            raise MtlSyntaxError(f"expected {expect!r}, got {tok!r}", at)
        return tokens.pop()

    def build(make, at, *args):
        try:
            return make(*args)
        except ValueError as exc:
            raise MtlSyntaxError(str(exc), at) from None

    def number():
        tok, at = take()
        try:
            return float(tok)
        except ValueError:
            raise MtlSyntaxError(f"expected a number, got {tok!r}", at) from None

    def signal():
        tok, at = take()
        if tok == "(":
            for want in ("abs", "e", ")"):
                take(want)
            return "abs_e"
        if tok not in SIGNALS or tok == "abs_e":
            raise MtlSyntaxError(f"unknown signal {tok!r}", at)
        return tok

    def rhs():
        tok, at = take()
        if tok != "(":
            try:
                return float(tok)
            except ValueError:
                return tok  # mode name
        head, hat = take()
        if head == "prev":
            sig, off = signal(), 0.0
        elif head == "+":
            take("(")
            take("prev")
            sig = signal()
            take(")")
            off = number()
        else:
            raise MtlSyntaxError(f"unknown rhs form {head!r}", hat)
        take(")")
        return build(Prev, at, sig, off)

    def formula(depth):
        _, at = take("(")
        if depth > _MAX_DEPTH:
            raise MtlSyntaxError(f"formula nests deeper than {_MAX_DEPTH} forms", at)
        head, hat = take()
        if head in COMPARATORS:
            make, args = Atom, (signal(), head, rhs())
        elif head == "not":
            make, args = Not, (formula(depth + 1),)
        elif head == "=>":
            make, args = Implies, (formula(depth + 1), formula(depth + 1))
        elif head in ("and", "or"):
            kids = [formula(depth + 1)]
            while peek()[0] == "(":
                kids.append(formula(depth + 1))
            if len(kids) < 2:
                raise MtlSyntaxError(f"{head} needs at least two operands", hat)
            make, args = (And if head == "and" else Or), (tuple(kids),)
        elif head in ("G", "E"):
            lo = hi = None
            if peek()[0] == "[":
                take("[")
                lo, hi = number(), number()
                take("]")
            make, args = (Globally if head == "G" else Eventually), (formula(depth + 1), lo, hi)
        else:
            raise MtlSyntaxError(f"unknown operator {head!r}", hat)
        take(")")
        return build(make, at, *args)

    node = formula(1)
    tok, at = peek()
    if tok is not None:
        raise MtlSyntaxError(f"trailing input {tok!r}", at)
    return node
