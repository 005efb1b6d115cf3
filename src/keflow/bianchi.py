"""Diagonal cohomogeneity-one flows for unimodular 3-group orbits.

The metric g = (abc)^2 dt^2 + a^2 s1^2 + b^2 s2^2 + c^2 s3^2 evolves by a
first-order flow in (a, b, c) driven by the structure constants (p1, p2, p3)
and a coefficient alpha. The Einstein condition fixes alpha = -(lam/p3)(ab)^2
when p3 != 0; when p3 = 0 it forces lam = 0 and leaves alpha a free constant,
and the flow admits the four explicit one-parameter families implemented in
closed_form (named by their orbit group: poincare, torus, heisenberg,
euclidean). In all p3 = 0 families w3 = a*b is a first integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .frame_algebra import FrameCoefficients
from .grids import Axis, MetricGrid, TwoFormGrid
from .odes import Trajectory, integrate_flow

SQRT2 = math.sqrt(2.0)

CLOSED_FORM_CASES = ("poincare", "torus", "heisenberg", "euclidean")

_CASE_STRUCTURE = {
    "poincare": (1.0, -1.0),
    "torus": (0.0, 0.0),
    "heisenberg": (1.0, 0.0),
    "euclidean": (1.0, 1.0),
}


@dataclass(frozen=True)
class BianchiParams:
    """Structure constants, Einstein constant and (if free) alpha."""

    p1: float
    p2: float
    p3: float
    lam: float = 0.0
    alpha0: float | None = None

    def __post_init__(self) -> None:
        values = (self.p1, self.p2, self.p3, self.lam, self.alpha0)
        if not all(math.isfinite(v) for v in values if v is not None):
            raise DomainError(f"p1, p2, p3, lam and alpha0 must be finite; "
                              f"got {values}")
        if self.p3 == 0.0:
            if self.lam != 0.0:
                raise DomainError(
                    "p3 = 0 forces lam = 0 (the Einstein closure has no other option)")
            if self.alpha0 is None:
                raise DomainError("p3 = 0 leaves alpha free; alpha0 is required")
        else:
            if self.alpha0 is not None:
                raise DomainError(
                    "p3 != 0 determines alpha = -(lam/p3)(ab)^2; alpha0 must be None")

    def alpha(self, a: float, b: float) -> float:
        if self.p3 == 0.0:
            return float(self.alpha0)
        ab = a * b
        # a float squares through libm's pow, an ndarray exactly;
        # float_power is that pow, so arrays round as floats do, and it
        # overflows to inf where a float's pow raises
        try:
            square = ab ** 2 if type(ab) is float else np.float_power(ab, 2.0)
        except OverflowError:
            square = math.inf
        return -(self.lam / self.p3) * square


@dataclass(frozen=True)
class ABCState:
    """A point of the (a, b, c) flow; components are strictly positive."""

    t: float
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        vals = (self.t, self.a, self.b, self.c)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("non-finite state component")
        if min(self.a, self.b, self.c) <= 0.0:
            raise DomainError(
                f"a, b, c must be positive; got ({self.a}, {self.b}, {self.c})")


@dataclass(frozen=True)
class ClosedFormConstants:
    """Free constants of the explicit p3 = 0 families."""

    k: float = 1.0
    w3: float = 1.0
    alpha: float = 0.0
    t0: float = 0.0
    a0: float = 1.0
    b0: float = 1.0
    c0: float = 1.0


def type_a_flow(params: BianchiParams, a, b, c) -> tuple[float, float, float]:
    """(a', b', c') at raw (a, b, c): integrate builds no ABCState, so a
    state losing positivity ends the run as positivity_loss."""
    a2, b2, c2 = a * a, b * b, c * c
    alpha = params.alpha(a, b)
    return (0.5 * a * (-params.p1 * a2 + params.p2 * b2 + params.p3 * c2),
            0.5 * b * (params.p1 * a2 - params.p2 * b2 + params.p3 * c2),
            0.5 * c * (params.p1 * a2 + params.p2 * b2 - params.p3 * c2
                       + 2.0 * alpha))


def abc_rhs(params: BianchiParams, s: ABCState) -> tuple[float, float, float]:
    """Flow derivatives (a', b', c')."""
    return type_a_flow(params, s.a, s.b, s.c)


def closed_form_params(case: str, consts: ClosedFormConstants) -> BianchiParams:
    if case not in _CASE_STRUCTURE:
        raise DomainError(f"unknown closed-form case {case!r}; "
                          f"expected one of {CLOSED_FORM_CASES}")
    p1, p2 = _CASE_STRUCTURE[case]
    return BianchiParams(p1=p1, p2=p2, p3=0.0, lam=0.0, alpha0=consts.alpha)


def closed_form(case: str, consts: ClosedFormConstants, t: float) -> ABCState:
    """Evaluate the explicit family `case` at time t.

    Domains: poincare needs w3 (t - t0) in (0, pi/2); heisenberg and euclidean
    need t > t0; torus is entire. Evaluation at or beyond an endpoint raises
    DomainError naming the endpoint.
    """
    if case not in _CASE_STRUCTURE:
        raise DomainError(f"unknown closed-form case {case!r}; "
                          f"expected one of {CLOSED_FORM_CASES}")
    dt = t - consts.t0
    k, w3, alpha = consts.k, consts.w3, consts.alpha
    try:
        growth = math.exp(alpha * dt)
    except OverflowError:
        raise DomainError(f"exp(alpha (t - t0)) overflows at t = {t}") from None
    if case == "torus":
        return ABCState(t=t, a=consts.a0, b=consts.b0, c=consts.c0 * growth)
    if w3 <= 0.0 or k <= 0.0:
        raise DomainError("closed forms need k > 0 and w3 > 0")
    if case == "poincare":
        u = w3 * dt
        if u <= 0.0 or u >= 0.5 * math.pi:
            raise DomainError(
                f"poincare domain is w3 (t - t0) in (0, pi/2); got {u}")
        return ABCState(t=t,
                        a=math.sqrt(w3 / math.tan(u)),
                        b=math.sqrt(w3 * math.tan(u)),
                        c=k * growth
                        * math.sqrt(math.sin(2.0 * u) / (2.0 * w3)))
    if dt <= 0.0:
        raise DomainError(f"{case} domain is t > t0; got t - t0 = {dt}")
    if case == "heisenberg":
        return ABCState(t=t,
                        a=1.0 / math.sqrt(dt),
                        b=w3 * math.sqrt(dt),
                        c=k * growth * math.sqrt(dt))
    # euclidean
    u = w3 * dt
    return ABCState(t=t,
                    a=math.sqrt(w3 / math.tanh(u)),
                    b=math.sqrt(w3 * math.tanh(u)),
                    c=k * growth
                    * math.sqrt(math.sinh(2.0 * u) / (2.0 * w3)))


def closed_form_derivative(case: str, consts: ClosedFormConstants,
                           t: float) -> tuple[float, float, float]:
    """Analytic (a', b', c') of the explicit family `case` at time t.

    Differentiates the displayed formulas directly, so comparing against
    abc_rhs at closed_form(t) tests the solution property without any
    finite differencing.
    """
    s = closed_form(case, consts, t)  # validates case and domain
    dt = t - consts.t0
    k, w3, alpha = consts.k, consts.w3, consts.alpha
    if case == "torus":
        return (0.0, 0.0, alpha * s.c)
    if case == "poincare":
        u = w3 * dt
        da = -w3 * w3 / (2.0 * s.a * math.sin(u) ** 2)
        db = w3 * w3 / (2.0 * s.b * math.cos(u) ** 2)
        dc = s.c * (alpha + w3 * math.cos(2.0 * u) / math.sin(2.0 * u))
        return (da, db, dc)
    if case == "heisenberg":
        return (-s.a / (2.0 * dt), s.b / (2.0 * dt),
                s.c * (alpha + 0.5 / dt))
    u = w3 * dt
    da = -w3 * w3 / (2.0 * s.a * math.sinh(u) ** 2)
    db = w3 * w3 / (2.0 * s.b * math.cosh(u) ** 2)
    dc = s.c * (alpha + w3 * math.cosh(2.0 * u) / math.sinh(2.0 * u))
    return (da, db, dc)


# Invariant coframes by (p1, p2, p3): the group coordinates' names and the
# rows E of s_i = sum_m E[i][m] dx^m at their nodes; d s_i = p_i s_j ^ s_k
# for (i, j, k) cyclic.
_COFRAMES = {
    (0.0, 0.0, 0.0): (("x", "y", "z"), lambda x, y, z: (
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
    # E(2): s1 = cos th dx + sin th dy, s2 = d th, s3 = -sin th dx + cos th dy
    (1.0, 0.0, 1.0): (("x", "y", "theta"), lambda x, y, th: (
        (np.cos(th), np.sin(th), 0.0), (0.0, 0.0, 1.0),
        (-np.sin(th), np.cos(th), 0.0))),
}


def type_a_grids(params: BianchiParams, abc, lapse, axes,
                 manifest: dict | None = None) -> tuple[MetricGrid, TwoFormGrid]:
    """The 4-metric g = n^2 du^2 + a^2 s1^2 + b^2 s2^2 + c^2 s3^2 and the
    Kahler form w = n c du ^ s3 + a b s1 ^ s2 on a (u, group) grid.

    abc holds a, b, c and lapse the lapse n at the nodes of axes[0], the u
    axis: n = a b c in the flow time t, 1 in the arclength r. axes[1:] are
    the group coordinates of the coframe of params' structure constants; a
    None among them is a Killing direction, a one-node axis at 0 with the
    u spacing. Other structure constants raise DomainError.
    """
    key = (params.p1, params.p2, params.p3)
    if key not in _COFRAMES:
        raise DomainError(f"no invariant coframe for p = {key}; the type A "
                          f"builder knows {sorted(_COFRAMES)}")
    names, coframe = _COFRAMES[key]
    t_axis = axes[0]
    axes = (t_axis,) + tuple(
        Axis(name, 0.0, t_axis.step, 1) if ax is None else ax
        for name, ax in zip(names, axes[1:]))
    a, b, c, n = (np.asarray(v, dtype=np.float64).reshape(-1, 1, 1, 1)
                  for v in (*abc, lapse))
    e = coframe(*(ax.nodes.reshape((-1,) + (1,) * (3 - m))
                  for m, ax in enumerate(axes[1:], 1)))
    shape = tuple(ax.count for ax in axes) + (4, 4)
    g, w = np.zeros(shape), np.zeros(shape)
    g[..., 0, 0] = n ** 2
    squares, nc, ab = (a ** 2, b ** 2, c ** 2), n * c, a * b
    for m in range(3):
        w[..., 0, m + 1] = nc * e[2][m]
        for n in range(m, 3):
            g[..., m + 1, n + 1] = g[..., n + 1, m + 1] = sum(
                s * (row[m] * row[n]) for s, row in zip(squares, e))
            if n > m:
                w[..., m + 1, n + 1] = ab * (e[0][m] * e[1][n]
                                             - e[0][n] * e[1][m])
    return (MetricGrid(axes, g, manifest=manifest),
            TwoFormGrid(axes, w - np.swapaxes(w, -1, -2), manifest=manifest))


def torus_metric_grid(consts: ClosedFormConstants, t_axis: Axis,
                      x_axis: Axis | None = None, y_axis: Axis | None = None,
                      z_axis: Axis | None = None,
                      manifest: dict | None = None) -> MetricGrid:
    """Coordinate 4-metric of the torus family on a (t, x, y, z) grid.

    With alpha = a0 b0 the metric is flat; that is what curvature checks
    probe.
    """
    abc = np.array([[s.a, s.b, s.c] for s in
                    (closed_form("torus", consts, t) for t in t_axis.nodes)]).T
    return type_a_grids(closed_form_params("torus", consts), abc,
                        abc[0] * abc[1] * abc[2],
                        (t_axis, x_axis, y_axis, z_axis), manifest)[0]


def heisenberg_invariants(s: ABCState) -> tuple[float, float]:
    """First integrals of the p = (0,0,1), lam = -1 flow.

    Both a/b and a b (c^2 - (2/3) a^2 b^2) are conserved.
    """
    ab = s.a * s.b
    return (s.a / s.b, ab * (s.c * s.c - (2.0 / 3.0) * ab * ab))


def bianchi_frame_coefficients(params: BianchiParams, s: ABCState) -> FrameCoefficients:
    """Frame bracket coefficients of the diagonal flow at state s.

    Denominators carry a, b, c; ABCState enforces positivity, so degenerate
    states (a bolt, say) must be handled before calling.
    """
    da, db, dc = abc_rhs(params, s)
    a, b, c = s.a, s.b, s.c
    a_coef = -da / (SQRT2 * a * a * b * c)
    d_coef = -db / (SQRT2 * a * b * b * c)
    l_coef = -dc / (SQRT2 * a * b * c * c)
    return FrameCoefficients(
        A=a_coef,
        B=-b * params.p2 / (SQRT2 * a * c),
        C=a * params.p1 / (SQRT2 * b * c),
        D=d_coef,
        E=-a_coef,
        F=-b * params.p2 / (SQRT2 * a * c),
        G=a * params.p1 / (SQRT2 * b * c),
        H=-d_coef,
        L=l_coef,
        N=-c * params.p3 / (SQRT2 * a * b),
    )


def integrate(params: BianchiParams, s0: ABCState, t_end: float,
              tol: float = 1e-10) -> Trajectory:
    """Adaptively integrate the flow from s0 to t_end (blow-up flagged)."""
    return integrate_flow(lambda t, y: type_a_flow(params, *y), s0.t,
                          (s0.a, s0.b, s0.c), t_end, columns=("a", "b", "c"),
                          rtol=tol, atol=tol * 1e-3,
                          positive_components=(0, 1, 2),
                          meta={"p1": params.p1, "p2": params.p2,
                                "p3": params.p3, "lam": params.lam,
                                "alpha0": params.alpha0})

