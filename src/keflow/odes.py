"""Adaptive ODE integration and the sampled-trajectory container.

integrate_flow marches the Dormand-Prince 8(5,3) pair (Prince & Dormand
1981; Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10, the DOP853
code) on Python floats, with its seventh-order dense output; the tableau
and the arithmetic of a step are keflow.dop853's. First step, error norm,
step control and stop roots are scipy DOP853's: the eighth-order solution
is kept; the error norm |h| |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)), with
e5 and e3 the fifth- and third-order estimates over atol + rtol
max(|y|, |y_new|), must be below 1; each step is scaled by
0.9 err^(-1/8) clamped to [0.2, 10] (an elementary controller, not a PI
one), with no growth on the step after a rejection; rtol below 100 eps is
raised to 100 eps. A step below ten ulps of t, or a NaN one, ends the run
as step_underflow. numpy's dot rounds the stage sums differently, and the
error estimate cancels to about the tolerance, so step sizes match
scipy's to about 1e-5 relative and step counts match except where an
error norm lands within that of 1, or is all rounding.

`rhs(t, y)` and the stop functions take y as a tuple of floats; rhs
returns a sequence of floats. A stop is a triple (function, direction,
reason): it ends the run at the first crossing of zero of
function(t, y(t)) in direction (+1 rising, -1 falling, 0 either), at
its root on the step's dense output, found by `root` (Brent's method as
in scipy's brentq, ported and parity-tested) at xtol = rtol = 4 eps and
then moved by whole ulps while |function| falls, and reason becomes the
trajectory's stop_reason. When several stops cross within one step, the
root the march reaches first ends the run; at a tie, the stop listed
first (the built-in ones come before the caller's).

Blow-up is a flagged early stop, not an exception: the run terminates
cleanly when a component magnitude crosses MAX_COMPONENT, when the step
size underflows, or when a caller-supplied stop fires, and the
trajectory records which of these happened.

A step evaluates rhs twelve times, the last at (t + h, y_new), which is
the next step's first stage. Its dense output needs three more stages:
the march evaluates them only on a step where a stop crosses, and
n_rhs_evals counts them there; a march's DenseOutput evaluates them, on
floats and uncounted, for each step the first time a sample falls in it.

A Trajectory's CSV keeps every node exactly (repr of each float) and,
as the `# last_step:` header, the full length of the march's final step,
which a stop's root cuts short. replay(rhs, traj) rebuilds the dense
output of a forward run from those alone: each stored row is the y_new
of a step of length t[i+1] - t[i] (the march takes h = t_new - t), so
all stages of all steps are evaluated at once on arrays by the march's
own arithmetic (dop853.stages and dop853.dense_rows), and
dop853.interpolate, which the march's stop roots run on floats, evaluates
them; a replayed sample is the live one bit for bit. The replay verifies
what it rebuilds: every step passes the error test, every row equals the
step replayed from the row before, bit for bit (the last one may be the
dense output at a stop's root), and no step is longer than the
controller's proposal after the step before (up to 2 ulp of t). A
failure raises VerificationError.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .dop853 import dense_rows, error_sums, interpolate, stages
from .errors import DomainError, VerificationError

MAX_COMPONENT = 1e12

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8
_EPS = float(np.finfo(float).eps)
_BLOW_UPS = ("step_underflow", "component_overflow", "positivity_loss")

# Trajectory CSV header fields and their parsers; absent ones take the
# Trajectory defaults (NaN for the tolerances and last_step); n_steps, if
# given, must match the rows.
_CSV_FIELDS = {"rtol": float, "atol": float, "blow_up": lambda v: bool(int(v)),
               "stop_reason": str, "n_steps": int, "n_rhs_evals": int,
               "last_step": float}


@dataclass
class Trajectory:
    """Samples of an ODE solution at the accepted integration steps; t
    holds the values of the independent variable, named `variable` in the
    CSV, and last_step the full length of the march's final step (NaN when
    unknown)."""

    t: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]
    rtol: float
    atol: float
    variable: str = "t"
    blow_up: bool = False
    stop_reason: str = "t_end"
    n_rhs_evals: int = 0
    last_step: float = math.nan
    meta: dict = field(default_factory=dict)
    interpolant: Callable[[float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.t.ndim != 1 or self.states.shape != (self.t.size, len(self.columns)):
            raise DomainError("inconsistent trajectory shapes")
        if self.variable in self.columns:  # the CSV would be ambiguous
            raise DomainError(f"the independent variable {self.variable!r} "
                              f"is also a column of {self.columns}")
        if not np.all(np.diff(self.t) > 0.0):
            raise DomainError(f"{self.variable} must be strictly increasing")

    @property
    def n_steps(self) -> int:
        """Accepted steps: one fewer than the sample rows."""
        return len(self.t) - 1

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.columns.index(name)]

    def sample(self, t) -> np.ndarray:
        """Dense-output states at t, shape (len(columns),) + t.shape."""
        if self.interpolant is None:
            raise DomainError("trajectory has no dense output (loaded from CSV?)")
        t = np.asarray(t, dtype=np.float64)
        if not np.all((self.t[0] <= t) & (t <= self.t[-1])):
            raise DomainError(f"sample {self.variable} outside "
                              f"[{self.t[0]}, {self.t[-1]}]")
        return self.interpolant(t)

    def to_csv(self) -> str:
        header = {"columns": ",".join((self.variable,) + self.columns),
                  "rtol": repr(self.rtol), "atol": repr(self.atol),
                  "blow_up": int(self.blow_up),
                  "stop_reason": self.stop_reason, "n_steps": self.n_steps,
                  "n_rhs_evals": self.n_rhs_evals}
        if math.isfinite(self.last_step):
            header["last_step"] = repr(self.last_step)
        return write_table(header, self.meta, (self.variable,) + self.columns,
                           (self.t, *self.states.T))

    @classmethod
    def from_csv(cls, text: str | bytes) -> "Trajectory":
        info, meta, columns, data = read_table(text, _CSV_FIELDS)
        if (n_steps := info.pop("n_steps", len(data) - 1)) != len(data) - 1:
            raise DomainError(f"n_steps {n_steps} but {len(data)} "
                              f"sample rows; n steps store n + 1 rows")
        return cls(t=data[:, 0], states=data[:, 1:], columns=columns[1:],
                   variable=columns[0], meta=meta,
                   **{"rtol": np.nan, "atol": np.nan, **info})


def write_table(header: dict, meta: dict, columns: Sequence[str],
                data: Sequence[np.ndarray]) -> str:
    """Sampled-table CSV: a `# key: value` line per header entry, a
    `# meta key: repr(value)` line per meta entry in key order, the column
    row, then one row per sample with each value written as repr(float)."""
    lines = [f"# {key}: {val}" for key, val in header.items()]
    lines += [f"# meta {key}: {meta[key]!r}" for key in sorted(meta)]
    lines.append(",".join(columns))
    rows = np.column_stack(data).astype(np.float64).tolist()
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def read_table(text: str | bytes, fields: dict):
    """Inverse of write_table: (header, meta, columns, samples). Header
    values are parsed by fields[key], meta values as Python literals, kept
    as text when they are not one. A `# columns:` header must name the
    column row. Text that is not such a table, or a header key that is
    neither `columns` nor in fields, raises DomainError."""
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise DomainError(f"CSV is not UTF-8 text: {exc}") from None
    info, meta, rows = {}, {}, []
    columns: tuple[str, ...] | None = None
    named = None  # (line, value) of the `# columns:` header
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                key, sep, val = (p.strip() for p in line[1:].partition(":"))
                if sep and key.startswith("meta "):
                    try:
                        meta[key[5:]] = ast.literal_eval(val)
                    except (ValueError, TypeError, SyntaxError, RecursionError):
                        meta[key[5:]] = val
                elif sep and key == "columns":
                    named = (n, val)
                elif sep and key in fields:
                    info[key] = fields[key](val)
                else:
                    raise ValueError(f"unknown header key {key!r}")
            elif columns is None:
                columns = tuple(line.split(","))
            elif len(cells := line.split(",")) != len(columns):
                raise ValueError(f"{len(cells)} cells, {len(columns)} columns")
            else:
                rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise DomainError(f"CSV line {n}: {exc}") from None
    if columns is None or not rows:
        raise DomainError("CSV does not contain a sampled table")
    if named is not None and named[1] != ",".join(columns):
        raise DomainError(f"CSV line {named[0]}: columns header {named[1]!r} "
                          f"does not name the column row {','.join(columns)!r}")
    return info, meta, columns, np.asarray(rows)


class DenseOutput:
    """The piecewise dense output of integrate_flow or of its replay, over
    nodes in increasing time and the steps between them: step k starts at
    (t_old[k], y_old[:, k]), has length h[k] and the rows rows[:, :, k] of
    dop853.dense_rows. At a time t in [nodes[0], nodes[-1]] the step
    that covers t is evaluated, at an inner node the one on its left. A
    replay gives every step's rows; a march gives instead fill(k), step
    k's rows on floats, which runs the first time a time falls in step k."""

    def __init__(self, nodes: np.ndarray, t_old: np.ndarray, h: np.ndarray,
                 y_old: np.ndarray, rows: np.ndarray | None = None,
                 fill: Callable[[int], tuple] | None = None):
        self._inner, self._t_old, self._h = nodes[1:-1], t_old, h
        self._y_old, self._rows, self._fill = y_old, rows, fill
        self._missing = None  # the steps whose rows fill has not given
        if rows is None:
            self._rows = np.empty((7,) + y_old.shape)
            self._missing = np.ones(h.shape, dtype=bool)

    def __call__(self, t) -> np.ndarray:
        """States at t, shape (n,) + np.shape(t)."""
        t = np.asarray(t, dtype=np.float64)
        flat = t.ravel()
        # the count of inner nodes below t: an inner node takes its left step
        k = np.searchsorted(self._inner, flat)
        if self._missing is not None:
            for j in np.unique(k[self._missing[k]]).tolist():
                self._rows[:, :, j] = self._fill(j)
                self._missing[j] = False
        # the components as one block, so interpolate runs once per call;
        # like floats, arrays overflow to inf and NaN without a warning
        with np.errstate(all="ignore"):
            y, = interpolate(self._t_old[k], self._h[k],
                             self._y_old[None, :, k],
                             self._rows[:, None, :, k], flat)
        return y.reshape(y.shape[:1] + t.shape)


def _rms(values, scale) -> float:
    """scipy's RMS norm of values / scale (NaN where a scale is 0)."""
    try:
        ratios = [v / s for v, s in zip(values, scale)]
    except ZeroDivisionError:
        return math.nan
    return math.sqrt(sum([r * r for r in ratios])) / len(ratios) ** 0.5


def _initial_step(rhs, t0, y0, f0, t_end, direction, rtol, atol) -> float:
    """scipy's first-step rule (Hairer, Norsett & Wanner, sec. II.4) for
    an error estimate of order 7."""
    span = abs(t_end - t0)
    scale = [atol + abs(y) * rtol for y in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0 * direction,
             tuple([y + h0 * direction * f for y, f in zip(y0, f0)]))
    # an overflowing d1 leaves h0 = 0, where numpy's division gives inf
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, span)


def root(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of f between a and b by Brent's method (Brent 1973, ch. 4),
    scipy's brentq ported line for line: the same choice between inverse
    quadratic or secant step and bisection, the same stop once
    |sbis| < (xtol + rtol |x|)/2, at most 100 iterations. A bracket with no
    sign change, a NaN value of f, or no convergence raises DomainError."""
    xpre, xcur = float(a), float(b)
    bracket = f"the root bracket [{xpre!r}, {xcur!r}]"

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise DomainError(f"f({x!r}) is NaN on {bracket}")
        return fx

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # brentq compares sign bits, not the sign of fpre * fcur, which can
    # underflow to 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"f has no sign change on {bracket}: "
                          f"f(a) = {fpre!r}, f(b) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's x/0 is infinite or NaN
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise DomainError(f"no convergence on {bracket} after 100 iterations "
                      f"(last x {xcur!r})")


def _march_rtol(rtol: float, atol: float) -> float:
    """The rtol the march uses, once both tolerances are checked."""
    if not (0.0 <= rtol < np.inf and 0.0 <= atol < np.inf):
        # a NaN tolerance never lets the step control accept a step
        raise DomainError(f"tolerances must be finite and nonnegative, got "
                          f"rtol {rtol!r}, atol {atol!r}")
    return max(rtol, 100 * _EPS)


def _error_norm(y, y_new, ks, h, rtol, atol) -> float:
    """scipy DOP853's error norm of the step of length h from y to y_new
    with stages ks, on floats (replay has its array twin)."""
    acc5 = acc3 = 0.0
    for y_, yn, (e5, e3) in zip(y, y_new, error_sums(ks)):
        ay, an = abs(y_), abs(yn)
        scale = atol + (ay if ay > an else an) * rtol
        e5 /= scale
        e3 /= scale
        acc5 += e5 * e5
        acc3 += e3 * e3
    if acc5 == 0.0 and acc3 == 0.0:
        return 0.0
    return abs(h) * acc5 / math.sqrt((acc5 + 0.01 * acc3) * len(y))


def _crossing(g, a: float, b: float) -> float:
    """The zero of g between a and b by root at xtol = rtol = 4 eps, then
    moved by whole ulps, inside the bracket, while |g| falls: brentq's
    tolerance spans a few ulps of t, over which a steep g moves by more
    than its own rounding."""
    x = root(g, a, b, 4 * _EPS, 4 * _EPS)
    gx = abs(g(x))
    lo, hi = min(a, b), max(a, b)
    for toward in (math.inf, -math.inf):
        while lo <= (y := math.nextafter(x, toward)) <= hi:
            gy = abs(g(y))
            if not gy < gx:
                break
            x, gx = y, gy
    return x


def _march(rhs, t0: float, y0: tuple, t_end: float, rtol: float,
           atol: float, stops: list):
    """scipy DOP853's march from (t0, y0) toward t_end. `stops` holds
    (function, direction, reason) triples, at least one. Returns the node
    times and states, the accepted steps as (t_old, h, y_old, y_new,
    stages), the RHS count and the stop reason: "t_end", "step_underflow"
    or the reason of the stop."""
    direction = 1.0 if t_end > t0 else -1.0
    f = rhs(t0, y0)
    if not all(map(math.isfinite, f)):
        raise DomainError(f"the right-hand side is not finite at the start: "
                          f"{tuple(f)!r}")
    h_abs = _initial_step(rhs, t0, y0, f, t_end, direction, rtol, atol)
    nfev = 2
    g = [ev(t0, y0) for ev, _, _ in stops]
    t, y = t0, y0
    ts, ys, steps = [t0], [y0], []
    while True:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step underflows too
                return ts, ys, steps, nfev, "step_underflow"
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            nfev += 12
            # a stage on a pole of rhs fails the error test, as 0/0 does
            try:
                y_new, ks = stages(rhs, t, y, h, f)
                err = _error_norm(y, y_new, ks, h, rtol, atol)
            except ZeroDivisionError:
                err = math.nan
            if err < 1.0:
                factor = (MAX_FACTOR if err == 0.0 else
                          min(MAX_FACTOR, SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            rejected = True

        steps.append((t, h, y, y_new, ks))
        t_old, y_old, t, y, f = t, y, t_new, y_new, ks[12]
        reason = "t_end" if direction * (t - t_end) >= 0.0 else None
        g_new = [ev(t, y) for ev, _, _ in stops]
        first = None  # (root, reason) of the earliest stopping root
        rows = None
        for (ev, d, why), a, b in zip(stops, g, g_new):
            if (a <= 0.0 <= b and d >= 0.0) or (a >= 0.0 >= b and d <= 0.0):
                if rows is None:
                    rows = dense_rows(rhs, t_old, h, y_old, y, ks)
                    nfev += 3
                x = _crossing(lambda s, ev=ev: ev(s, interpolate(
                    t_old, h, y_old, rows, s)), t_old, t)
                if first is None or direction * (x - first[0]) < 0.0:
                    first = (x, why)
        g = g_new
        if first is not None:
            t, reason = first
            y = interpolate(t_old, h, y_old, rows, t)
        if t != ts[-1]:
            ts.append(t)
            ys.append(y)
        else:  # a root on the last node adds no node and no step
            steps.pop()
        if reason is not None:
            return ts, ys, steps, nfev, reason


def integrate_flow(rhs, t0: float, y0: Sequence[float], t_end: float,
                   columns: tuple[str, ...], rtol: float, atol: float,
                   stops: Sequence[tuple] = (),
                   positive_components: Sequence[int] = (),
                   meta: dict | None = None,
                   variable: str = "t") -> Trajectory:
    """Integrate y' = rhs(t, y) adaptively; returns samples at accepted steps.

    `stops` are (function, direction, reason) triples as in the module
    docstring. `positive_components` lists state indices whose collapse
    to <= 0 terminates the run.
    `variable` names t on the trajectory. A start at which rhs is not
    finite raises DomainError.
    """
    t0, t_end = float(t0), float(t_end)
    y0 = tuple(float(v) for v in y0)
    if len(y0) != len(columns):
        raise DomainError(f"{len(y0)} initial values for columns {columns}")
    # a NaN or infinite span never reaches t_end, and non-finite states
    # never pass the error test
    for name, value in (*zip((f"initial {c}" for c in columns), y0),
                        (f"{variable}0", t0), (f"{variable}_end", t_end)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if t_end == t0:
        raise DomainError("empty integration span")

    def overflow(t, y):
        return max(map(abs, y)) - MAX_COMPONENT

    built_in = [(overflow, 1.0, "component_overflow")]
    if positive_components:
        pos = tuple(positive_components)
        floor = 1e-13 * max(1.0, min(abs(y0[i]) for i in pos))

        def positivity(t, y):
            return min([y[i] for i in pos]) - floor
        built_in.append((positivity, -1.0, "positivity_loss"))

    ts, ys, steps, nfev, reason = _march(rhs, t0, y0, t_end,
                                         _march_rtol(rtol, atol), atol,
                                         built_in + list(stops))
    last_step = steps[-1][1] if steps else math.nan
    if t_end < t0:
        ts.reverse()
        ys.reverse()
        steps.reverse()
    dense = None
    if steps:
        t_old, h, y_old = zip(*[step[:3] for step in steps])
        dense = DenseOutput(np.array(ts), np.array(t_old), np.array(h),
                            np.array(y_old).T,
                            fill=lambda k: dense_rows(rhs, *steps[k]))
    return Trajectory(t=ts, states=ys, columns=columns, rtol=rtol, atol=atol,
                      variable=variable, blow_up=reason in _BLOW_UPS,
                      stop_reason=reason, n_rhs_evals=nfev, last_step=last_step,
                      meta=meta or {}, interpolant=dense)


def _first(bad: np.ndarray) -> int | None:
    """Index of the first true entry of bad, None if there is none."""
    return int(np.argmax(bad)) if bad.any() else None


def replay(rhs, traj: Trajectory) -> Trajectory:
    """traj with the dense output of the forward integrate_flow run that
    produced it, rebuilt from its rows and last_step (module docstring).

    rhs is the run's right-hand side; it must take a tuple of float64
    arrays and round on them as it does on floats. Rows that are not the
    march's, or steps it would not have taken, raise VerificationError.
    """
    rtol, atol, h_last = traj.rtol, traj.atol, traj.last_step
    if traj.t.size < 2:
        raise DomainError("a replay needs two rows or more")
    if not (math.isfinite(h_last) and h_last > 0.0):
        raise DomainError(f"replay needs the positive last_step of a "
                          f"forward run, got {h_last!r}")
    rtol = _march_rtol(rtol, atol)

    t, rows = traj.t, traj.states.T
    h = np.diff(t)
    cut = h_last != h[-1]  # a stop's root ended the run inside its step
    if h_last < h[-1]:
        raise VerificationError(f"the last row lies beyond the last step "
                                f"({h[-1]:.17g} > {h_last!r})")
    h[-1] = h_last
    t0, y = t[:-1], tuple(rows[:, :-1])
    with np.errstate(all="ignore"):
        # the march evaluates k_0 of each step as k_12 of the one before
        k0 = rhs(np.concatenate((t[:1], t0[:-1] + h[:-1])), y)
        y_new, ks = stages(rhs, t0, y, h, k0)
        # _error_norm, on arrays
        acc5 = acc3 = 0.0
        for y_, yn, (e5, e3) in zip(y, y_new, error_sums(ks)):
            scale = atol + np.maximum(np.abs(y_), np.abs(yn)) * rtol
            e5 = e5 / scale
            e3 = e3 / scale
            acc5 = acc5 + e5 * e5
            acc3 = acc3 + e3 * e3
        err = np.where((acc5 == 0.0) & (acc3 == 0.0), 0.0, np.abs(h) * acc5
                       / np.sqrt((acc5 + 0.01 * acc3) * len(y)))
        factor = np.where(err == 0.0, MAX_FACTOR, np.minimum(
            MAX_FACTOR, SAFETY * np.float_power(err, _ERROR_EXPONENT)))

    bad = _first(~(err < 1.0))
    if bad is not None:
        raise VerificationError(f"the step from row {bad} fails the error "
                                f"test (norm {err[bad]:.3g})")
    with np.errstate(all="ignore"):
        dense = DenseOutput(t, t0, h, rows[:, :-1],
                            np.array(dense_rows(rhs, t0, h, y, y_new, ks)))
    replayed, stored = np.array(y_new), rows[:, 1:]
    if cut or np.any(replayed[:, -1] != stored[:, -1]):
        # a stop stores the dense output at its root, which may be
        # the end of its step
        replayed[:, -1] = dense(t[-1])
    bad = _first(np.any(replayed != stored, axis=0))
    if bad is not None:
        dev = np.max(np.abs(replayed[:, bad] - stored[:, bad])
                     / np.maximum(np.abs(stored[:, bad]), 1e-30))
        raise VerificationError(f"row {bad + 1} differs from the step "
                                f"replayed from the row before (rel "
                                f"{dev:.3e})")
    # the march lengthens a step only to ten ulps of t, and t + h rounds
    ulp = np.abs(np.nextafter(t0, np.inf) - t0)
    ends = np.maximum(np.abs(t0), np.abs(t0 + h))
    allowed = (np.maximum(np.abs(h[:-1]) * factor[:-1], 10.0 * ulp[1:])
               + 2.0 * np.spacing(ends[1:]))
    bad = _first(np.abs(h[1:]) > allowed)
    if bad is not None:
        raise VerificationError(
            f"the step from row {bad + 1} is longer than the controller's "
            f"proposal after the step before ({abs(h[bad + 1]):.17g} > "
            f"{allowed[bad]:.17g})")
    return replace(traj, interpolant=dense)
