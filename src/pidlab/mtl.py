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
obligations reaching past its end fail. The online evaluator slides a
shorter window along the trace and flags a violation as soon as any window
fails. Obligations whose interval reaches past a window's end cannot be
resolved there and are treated as satisfied, which is exactly why
long-horizon Eventually properties can slip past an online monitor. Online
blocks hold at most _BLOCK_ELEMS samples (or one window, if that is
longer), and the first block with a violated window ends the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SIGNALS = ("x", "v", "r", "e", "abs_e", "t", "mode")
COMPARATORS = ("<", "<=", ">", ">=", "=")

# Samples (window starts x window offsets) per block of eval_online; fixes
# its working set whatever the trace length or window.
_BLOCK_ELEMS = 1 << 16


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
    if t_lo is not None and (t_lo < 0 or t_hi < t_lo):
        raise ValueError("need 0 <= t_lo <= t_hi")


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
    """Interval bounds as sample offsets, rounded toward the interval interior."""
    if node.t_lo is None:
        return 0, None
    lo = max(0, math.ceil(node.t_lo / dt - 1e-9))
    hi = math.floor(node.t_hi / dt + 1e-9)
    return lo, hi


def _atom_rows(node, ctx):
    """(window start, window offset) view of an atom over the whole trace."""
    rows = ctx["atoms"].get(node)
    if rows is None:
        rows = ctx["atoms"][node] = sliding_window_view(_eval_atom(node, ctx),
                                                        ctx["window"])
    return rows


def _sat_block(node, ctx, r0, r1, c0, c1):
    """Satisfaction of node for window starts r0 .. r1 - 1 (rows) at window
    offsets c0 .. c1 (columns, inclusive).

    Row w0, column off is the satisfaction at sample w0 + off with horizon
    w0 + window - 1, i.e. column window - 1 in every row. A temporal
    operator's window of child columns is [off + lo, min(off + hi, window - 1)];
    obligations whose interval reaches past the horizon hold if the context
    is optimistic and fail otherwise. The result may be a read-only view;
    nothing here writes into a child's result.
    """
    if isinstance(node, Atom):
        return _atom_rows(node, ctx)[r0:r1, c0:c1 + 1]
    if isinstance(node, Not):
        return ~_sat_block(node.child, ctx, r0, r1, c0, c1)
    if isinstance(node, And):
        parts = [_sat_block(c, ctx, r0, r1, c0, c1) for c in node.children]
        return np.logical_and.reduce(parts)
    if isinstance(node, Or):
        parts = [_sat_block(c, ctx, r0, r1, c0, c1) for c in node.children]
        return np.logical_or.reduce(parts)
    if isinstance(node, Implies):
        a = _sat_block(node.lhs, ctx, r0, r1, c0, c1)
        b = _sat_block(node.rhs, ctx, r0, r1, c0, c1)
        return ~a | b

    h = ctx["window"] - 1
    lo, hi = _offsets(node, ctx["dt"])
    shape = (r1 - r0, c1 - c0 + 1)
    offs = np.arange(c0, c1 + 1)
    starts = offs + lo
    if hi is None:
        ends = np.full_like(offs, h)
        beyond = np.full(len(offs), ctx["optimistic"])
    else:
        ends = np.minimum(offs + hi, h)
        beyond = (offs + hi > h) & ctx["optimistic"]
    if isinstance(node, Eventually) and beyond.all():
        # every obligation reaches past the horizon, so none can fail here
        return np.ones(shape, dtype=bool)
    k0 = c0 + lo
    k1 = int(ends.max())
    if k0 > h or k1 < k0:
        # no child sample is ever visible (also when rounding leaves hi < lo)
        held = isinstance(node, Globally) | beyond
        return np.broadcast_to(held, shape)
    child = _sat_block(node.child, ctx, r0, r1, k0, k1)
    width = k1 - k0 + 1
    cs = np.zeros((shape[0], width + 1), dtype=np.int32)  # counts <= window
    np.cumsum(child, axis=1, dtype=np.int32, out=cs[:, 1:])
    empty = starts > ends
    s_off = np.clip(starts - k0, 0, width)
    e_off = np.clip(ends - k0 + 1, 0, width)
    counts = cs[:, e_off] - cs[:, s_off]
    if isinstance(node, Globally):
        # truncated intervals quantify over what exists; empty ones hold
        return empty | (counts == e_off - s_off)
    return ~empty & (counts > 0) | beyond


def _context(traj, window, optimistic):
    """Evaluation state for one trace: signals, the window length (horizon
    column window - 1), whether past-horizon obligations hold, and the
    per-atom cache filled by _atom_rows."""
    return {"sig": {"x": traj.x, "v": traj.v, "r": traj.r, "e": traj.e,
                    "abs_e": np.abs(traj.e), "t": traj.t},
            "mode": traj.mode, "dt": traj.dt, "window": window,
            "optimistic": optimistic, "atoms": {}}


def eval_offline(formula, traj):
    """Whole-trace verdict: does the trace satisfy the formula at time 0?

    The one-row case of the online evaluation: a single window spanning the
    trace, in which obligations past the trace end fail.
    """
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")
    ctx = _context(traj, n, optimistic=False)
    return bool(_sat_block(formula, ctx, 0, 1, 0, 0)[0, 0])


def eval_online(formula, traj, window):
    """Sliding-window verdict.

    Evaluates the formula at the start of every window of `window` samples,
    with obligations reaching past the window's end treated as satisfied.
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


def circle_lap_spec(mission, reach_frac=0.8):
    """Recurrence spec for circle tracking: within every lap the plant must
    actually swing out to both extremes of the circle.

    Violations of this spec span a whole lap, so an online monitor whose
    window is much shorter than the lap cannot resolve them.
    """
    if mission.mode != "circle_track":
        raise ValueError("circle_lap_spec needs a circle_track mission")
    p = mission.params
    lap = 1.0 / p["freq"]
    if mission.duration < lap:
        raise ValueError("mission shorter than one lap")
    reach = reach_frac * p["radius"]
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

def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()[]":
            tokens.append((ch, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()[]":
            j += 1
        tokens.append((text[i:j], i))
        i = j
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, len(self.text))

    def take(self, expect=None):
        tok, at = self.peek()
        if tok is None:
            raise MtlSyntaxError("unexpected end of formula", at)
        if expect is not None and tok != expect:
            raise MtlSyntaxError(f"expected {expect!r}, got {tok!r}", at)
        self.pos += 1
        return tok, at

    def number(self):
        tok, at = self.take()
        try:
            return float(tok)
        except ValueError:
            raise MtlSyntaxError(f"expected a number, got {tok!r}", at) from None

    def signal(self):
        tok, at = self.take()
        if tok == "(":
            head, hat = self.take()
            if head != "abs":
                raise MtlSyntaxError(f"unknown signal form {head!r}", hat)
            inner, iat = self.take()
            if inner != "e":
                raise MtlSyntaxError("abs is only defined for e", iat)
            self.take(")")
            return "abs_e"
        if tok not in SIGNALS or tok == "abs_e":
            raise MtlSyntaxError(f"unknown signal {tok!r}", at)
        return tok

    def rhs(self):
        tok, at = self.peek()
        if tok == "(":
            self.take("(")
            head, hat = self.take()
            if head == "prev":
                sig = self.signal()
                self.take(")")
                return Prev(sig)
            if head == "+":
                self.take("(")
                inner, iat = self.take()
                if inner != "prev":
                    raise MtlSyntaxError("only (+ (prev sig) number) is supported", iat)
                sig = self.signal()
                self.take(")")
                off = self.number()
                self.take(")")
                return Prev(sig, off)
            raise MtlSyntaxError(f"unknown rhs form {head!r}", hat)
        tok, at = self.take()
        try:
            return float(tok)
        except ValueError:
            return tok  # mode name

    def bounds(self):
        tok, _ = self.peek()
        if tok != "[":
            return None, None
        self.take("[")
        lo = self.number()
        hi = self.number()
        self.take("]")
        return lo, hi

    def formula(self):
        _, at = self.take("(")
        head, hat = self.take()
        if head in COMPARATORS:
            sig = self.signal()
            rhs = self.rhs()
            self.take(")")
            try:
                return Atom(sig, head, rhs)
            except ValueError as exc:
                raise MtlSyntaxError(str(exc), at) from None
        if head == "not":
            child = self.formula()
            self.take(")")
            return Not(child)
        if head in ("and", "or"):
            kids = [self.formula()]
            while self.peek()[0] == "(":
                kids.append(self.formula())
            self.take(")")
            if len(kids) < 2:
                raise MtlSyntaxError(f"{head} needs at least two operands", hat)
            return And(tuple(kids)) if head == "and" else Or(tuple(kids))
        if head == "=>":
            lhs = self.formula()
            rhs = self.formula()
            self.take(")")
            return Implies(lhs, rhs)
        if head in ("G", "E"):
            lo, hi = self.bounds()
            child = self.formula()
            self.take(")")
            cls = Globally if head == "G" else Eventually
            try:
                return cls(child, t_lo=lo, t_hi=hi)
            except ValueError as exc:
                raise MtlSyntaxError(str(exc), at) from None
        raise MtlSyntaxError(f"unknown operator {head!r}", hat)


def parse_formula(text):
    """Parse the prefix syntax into a formula tree. Raises MtlSyntaxError."""
    parser = _Parser(text)
    node = parser.formula()
    tok, at = parser.peek()
    if tok is not None:
        raise MtlSyntaxError(f"trailing input {tok!r}", at)
    return node
