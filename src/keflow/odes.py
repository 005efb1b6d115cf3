"""Adaptive ODE integration wrapper and the sampled-trajectory container.

Integration uses an embedded Runge-Kutta 5(4) pair with PI step control
(scipy's RK45). Blow-up is a flagged early stop, not an exception: the run
terminates cleanly when a component magnitude crosses MAX_COMPONENT, when
the solver's step size underflows, or when a caller-supplied terminal event
fires, and the trajectory records which of these happened.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError

MAX_COMPONENT = 1e12

# Trajectory CSV header fields and their parsers; absent ones take the
# Trajectory defaults (NaN for the tolerances).
_CSV_FIELDS = {"rtol": float, "atol": float, "blow_up": lambda v: bool(int(v)),
               "stop_reason": str, "n_steps": int, "n_rhs_evals": int}


@dataclass
class Trajectory:
    """Samples of an ODE solution at the accepted integration steps."""

    t: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]
    rtol: float
    atol: float
    blow_up: bool = False
    stop_reason: str = "t_end"
    n_steps: int = 0
    n_rhs_evals: int = 0
    meta: dict = field(default_factory=dict)
    interpolant: Callable[[float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.t.ndim != 1 or self.states.shape != (self.t.size, len(self.columns)):
            raise DomainError("inconsistent trajectory shapes")
        if not np.all(np.diff(self.t) > 0.0):
            raise DomainError("sample times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.columns.index(name)]

    def sample(self, t) -> np.ndarray:
        """Dense-output states at times t, shape (len(columns),) + t.shape."""
        if self.interpolant is None:
            raise DomainError("trajectory has no dense output (loaded from CSV?)")
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < self.t[0]) or np.any(t > self.t[-1]):
            raise DomainError(
                f"sample time outside [{self.t[0]}, {self.t[-1]}]")
        return self.interpolant(t)

    def to_csv(self) -> str:
        header = {"columns": ",".join(("t",) + self.columns),
                  "rtol": repr(self.rtol), "atol": repr(self.atol),
                  "blow_up": int(self.blow_up),
                  "stop_reason": self.stop_reason, "n_steps": self.n_steps,
                  "n_rhs_evals": self.n_rhs_evals}
        return write_table(header, self.meta, ("t",) + self.columns,
                           (self.t, *self.states.T))

    @classmethod
    def from_csv(cls, text: str | bytes) -> "Trajectory":
        info, meta, columns, data = read_table(text, _CSV_FIELDS)
        return cls(t=data[:, 0], states=data[:, 1:], columns=columns[1:],
                   meta=meta, **{"rtol": np.nan, "atol": np.nan, **info})


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
    values are parsed by fields[key] (other keys are ignored), meta values
    as Python literals, kept as text when they are not one. Text that is
    not such a table raises DomainError."""
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise DomainError(f"CSV is not UTF-8 text: {exc}") from None
    info, meta, rows = {}, {}, []
    columns: tuple[str, ...] | None = None
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
                elif sep and key in fields:
                    info[key] = fields[key](val)
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
    return info, meta, columns, np.asarray(rows)


def integrate_flow(rhs, t0: float, y0: Sequence[float], t_end: float,
                   columns: tuple[str, ...], rtol: float, atol: float,
                   events: Sequence | None = None,
                   positive_components: Sequence[int] = (),
                   meta: dict | None = None) -> Trajectory:
    """Integrate y' = rhs(t, y) adaptively; returns samples at accepted steps.

    `events` are scipy-style terminal/non-terminal event functions; an entry
    may carry a `name` attribute used in stop_reason. `positive_components`
    lists state indices whose collapse to <= 0 terminates the run.
    """
    if t_end == t0:
        raise DomainError("empty integration span")
    if not (0.0 <= rtol < np.inf and 0.0 <= atol < np.inf):
        # a NaN tolerance never lets the step control accept a step
        raise DomainError(f"tolerances must be finite and nonnegative, got "
                          f"rtol {rtol!r}, atol {atol!r}")
    y0 = np.asarray(y0, dtype=np.float64)

    def overflow(t, y):
        return np.max(np.abs(y)) - MAX_COMPONENT
    overflow.terminal = True
    overflow.direction = 1.0

    evs = [overflow]
    if positive_components:
        floor = 1e-13 * max(1.0, float(np.min(np.abs(y0[list(positive_components)]))))

        def positivity(t, y):
            return np.min(y[list(positive_components)]) - floor
        positivity.terminal = True
        positivity.direction = -1.0
        evs.append(positivity)
    user_events = list(events or [])
    evs.extend(user_events)

    sol = solve_ivp(rhs, (t0, t_end), y0, method="RK45", rtol=rtol, atol=atol,
                    events=evs, dense_output=True)

    blow_up = False
    reason = "t_end"
    if sol.status == -1:
        blow_up = True
        reason = "step_underflow"
    elif sol.status == 1:
        if sol.t_events[0].size:
            blow_up = True
            reason = "component_overflow"
        elif positive_components and sol.t_events[1].size:
            blow_up = True
            reason = "positivity_loss"
        else:
            base = 1 + bool(positive_components)
            for i, ev in enumerate(user_events):
                if sol.t_events[base + i].size:
                    reason = f"event:{getattr(ev, 'name', i)}"
                    break

    t = sol.t
    states = sol.y.T
    if t.size > 1 and t[1] < t[0]:
        t = t[::-1].copy()
        states = states[::-1].copy()
    # Drop duplicate times (terminal events may repeat the last node).
    keep = np.concatenate([[True], np.diff(t) > 0.0])
    return Trajectory(t=t[keep], states=states[keep], columns=columns,
                      rtol=rtol, atol=atol, blow_up=blow_up, stop_reason=reason,
                      n_steps=int(np.sum(keep)) - 1, n_rhs_evals=int(sol.nfev),
                      meta=meta or {}, interpolant=sol.sol)
