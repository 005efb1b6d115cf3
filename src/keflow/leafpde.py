"""Leaf-like 2-metrics and the local Ricci-flat 4-metric construction.

A leaf-like metric is conformal to a flat patch, g = l^{-1/2} e^{-h} g0 with
l the conformal factor of a curvature -2 hyperbolic metric and h harmonic.
Its Gauss curvature is K = e^h l^{3/2} > 0 and it satisfies the leaf
equation (Laplacian of log K equals 6K). Rewriting such a surface in
geodesic parallel coordinates, g = 2(dx^2 + c^2 dy^2), the reduced fields

    L = -c_x/(2c),  R = sqrt(-c_xx/c),  P = (log R)_x + c_x/c,
    Q = -(1/c) (log R)_y

satisfy a first-order system whose integrability lets a linear system (the
vec-sys) for frame coefficients a, b, r, s be solved line by line. The
assembled 4-metric on (x, y, u, v),

    g4 = (1/(as-rb)^2) ((s du - r dv)^2 + (-b du + a dv)^2)
         + 2(dx^2 + c^2 dy^2),

is Ricci-flat and Kahler with form 2c dx^dy + (1/(as-rb)) du^dv. The R
convention above makes K = R^2/2 and the radial equation
L_x = 2L^2 + R^2/2 exact identities; see the radial residual definitions.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import CompatibilityError, DomainError, GridError
from .grids import (Axis, MetricGrid, TwoFormGrid, central_diff,
                    check_axis_counts, constant_axes, dump_artifact,
                    interior, load_artifact, second_diff)
from .curvature import gauss_curvature_2d, interior_max, laplace_beltrami
from .frame_algebra import sys_flow

SQRT2 = math.sqrt(2.0)
# leaf_spec's relative harmonicity bound; the profile's caustic floor on c
HARMONIC_TOL, C_FLOOR = 1e-4, 1e-8

_H_NAMESPACE = {
    "log": np.log, "exp": np.exp, "sin": np.sin, "cos": np.cos,
    "sinh": np.sinh, "cosh": np.cosh, "hypot": np.hypot,
    "atan2": np.arctan2, "arctan2": np.arctan2, "pi": math.pi,
}


def hyperbolic_factor(x_axis: Axis, y_axis: Axis,
                      along: str = "y") -> np.ndarray:
    """Conformal factor 1/(2 s^2) of the curvature -2 half-plane metric,
    s the coordinate `along`, "x" or "y"."""
    s = x_axis if along == "x" else y_axis
    if s.start <= 0.0 or s.stop <= 0.0:
        raise DomainError(f"hyperbolic factor needs the domain inside "
                          f"{along} > 0")
    ell = 1.0 / (2.0 * s.nodes * s.nodes)
    return np.broadcast_to(ell[:, None] if along == "x" else ell,
                           (x_axis.count, y_axis.count)).copy()


_H_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul, ast.Div: operator.truediv,
          ast.Pow: operator.pow, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _h_eval(node: ast.AST, names: dict):
    """Value of a harmonic-expression node. The grammar is names x, y, pi;
    int or float constants, taken as floats; + - * / **; unary +-; and
    calls to _H_NAMESPACE functions with their number of positional
    arguments. Any other node raises DomainError before it is evaluated."""
    match node:
        case ast.Constant(value=int() | float() as v) if type(v) is not bool:
            return float(v)
        case ast.Name(id=name) if name in names and not callable(names[name]):
            return names[name]
        case ast.BinOp(left=left, op=op, right=right) if type(op) in _H_OPS:
            return _H_OPS[type(op)](_h_eval(left, names), _h_eval(right, names))
        case ast.UnaryOp(op=op, operand=arg) if type(op) in _H_OPS:
            return _H_OPS[type(op)](_h_eval(arg, names))
        case ast.Call(func=ast.Name(id=f), args=args, keywords=[]):
            # a ufunc takes arguments past nin as output arrays
            if len(args) == getattr(names.get(f), "nin", -1):
                return names[f](*[_h_eval(a, names) for a in args])
    raise DomainError(f"{ast.unparse(node)!r} is outside the grammar")


def harmonic_grid(expr: str, x_axis: Axis, y_axis: Axis) -> np.ndarray:
    """Evaluate a harmonic-function expression in x, y on the grid.

    The expression is parsed, never executed: it may use only x, y, pi,
    numbers, + - * / ** and the functions of _H_NAMESPACE (see _h_eval).
    Harmonicity itself is checked numerically by leaf_spec.
    """
    x, y = np.meshgrid(x_axis.nodes, y_axis.nodes, indexing="ij")
    names = dict(_H_NAMESPACE, x=x, y=y)
    try:
        # a singularity is refused below, by the non-finite check
        with np.errstate(all="ignore"):
            values = _h_eval(ast.parse(expr, mode="eval").body, names)
    except Exception as exc:
        raise DomainError(f"cannot evaluate harmonic expression {expr!r}: "
                          f"{exc}") from None
    out = np.broadcast_to(np.asarray(values, dtype=np.float64), x.shape)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"harmonic expression {expr!r} is singular on the domain")
    return out.copy()


def _refuse_short_axes(x_axis: Axis, y_axis: Axis) -> None:
    """GridError unless both axes have 2 nodes or more: one node would read
    as a Killing direction."""
    shape = (x_axis.count, y_axis.count)
    if min(shape) < 2:
        raise GridError(f"need at least 2 nodes per axis, got {shape}")


@dataclass
class LeafSpec:
    """Flat-patch conformal data (l, h) for a leaf-like metric."""

    x_axis: Axis
    y_axis: Axis
    ell: np.ndarray
    h: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _refuse_short_axes(self.x_axis, self.y_axis)
        shape = (self.x_axis.count, self.y_axis.count)
        self.ell = np.asarray(self.ell, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        if self.ell.shape != shape or self.h.shape != shape:
            raise GridError(f"ell/h shape must be {shape}")
        if not np.all(self.ell > 0.0):
            raise DomainError("conformal factor ell must be positive")

    def to_json(self) -> str:
        return dump_artifact("leaf_spec", (self.x_axis, self.y_axis),
                             {"ell": self.ell, "h": self.h}, meta=self.meta)

    @classmethod
    def from_json(cls, text: str | bytes) -> "LeafSpec":
        doc, axes, arrays = load_artifact(text, "leaf_spec", ("ell", "h"))
        return cls(*axes, *arrays, meta=doc.get("meta", {}))


def leaf_spec(x_axis: Axis, y_axis: Axis, h: str | np.ndarray = "x",
              ell: np.ndarray | None = None,
              curvature_tol: float = 1e-2) -> LeafSpec:
    """Validated leaf data: l positive with l*g0 of curvature -2, h harmonic.

    Both properties are checked by finite differences at the grid's own
    resolution: h's Laplacian against HARMONIC_TOL, relative to its larger
    second difference (at least 1), and _rescaled_deviation against the
    absolute curvature_tol.
    """
    meta = {}
    if isinstance(h, str):
        meta["h_expr"] = h
        h = harmonic_grid(h, x_axis, y_axis)
    if ell is None:
        ell = hyperbolic_factor(x_axis, y_axis)
    spec = LeafSpec(x_axis, y_axis, ell, h, meta=meta)

    # an overflowing difference is inf or NaN; a NaN residual is refused
    with np.errstate(over="ignore", invalid="ignore"):
        hxx = second_diff(spec.h, x_axis.step, 0)
        hyy = second_diff(spec.h, y_axis.step, 1)
        lap = hxx + hyy
    scale = max(1.0, float(np.nanmax(np.abs(hxx))),
                float(np.nanmax(np.abs(hyy))))
    worst = float(np.nanmax(np.abs(lap))) / scale
    if not worst <= HARMONIC_TOL:
        raise DomainError(
            f"h is not harmonic at grid resolution: residual {worst:.3e}")

    dev = _rescaled_deviation(spec)
    if dev > curvature_tol:
        raise DomainError(
            f"ell does not define a curvature -2 metric: deviation {dev:.3e}")
    return spec


def _rescaled_deviation(spec: LeafSpec) -> float:
    """Max interior |K + 2| of l*g0 (the leaf's K g up to rounding) on one
    slice per axis along which l is exactly constant (grids.constant_axes),
    cut to one node as in einstein_residual: every difference along it is
    an exact zero, so the slice's interior holds the full grid's values.
    Axis counts a grid refuses are refused, cut or not."""
    check_axis_counts((spec.x_axis, spec.y_axis))
    cut, ell_cut = _constant_cut((spec.x_axis, spec.y_axis), spec.ell)
    curv = gauss_curvature_2d(_conformal_metric(*cut, ell_cut))
    return interior_max(curv + 2.0, 2)


def _constant_cut(axes, *fields):
    """(axes, *fields) with every axis along which all the fields are
    exactly constant (grids.constant_axes) cut to its first node; the
    fields are cut as views, so the axes are `axes` if nothing is cut."""
    const = set.intersection(*(set(constant_axes(f, len(axes)))
                               for f in fields))
    keep = tuple(slice(0, 1) if m in const else slice(None)
                 for m in range(len(axes)))
    return (tuple(Axis(ax.name, ax.start, ax.step, 1) if m in const else ax
                  for m, ax in enumerate(axes)), *(f[keep] for f in fields))


def _conformal_metric(x_axis: Axis, y_axis: Axis,
                      factor: np.ndarray) -> MetricGrid:
    g = np.zeros((x_axis.count, y_axis.count, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = factor
    return MetricGrid((x_axis, y_axis), g)


def leaf_metric(spec: LeafSpec) -> tuple[MetricGrid, np.ndarray]:
    """The leaf-like metric l^{-1/2} e^{-h} g0 and its predicted curvature.

    The predicted Gauss curvature is K = e^h l^{3/2}, strictly positive.
    """
    factor = spec.ell ** (-0.5) * np.exp(-spec.h)
    K = np.exp(spec.h) * spec.ell ** 1.5
    return _conformal_metric(spec.x_axis, spec.y_axis, factor), K


@dataclass(frozen=True)
class LeafPdeReport:
    """Residual of the leaf equation: Laplacian of log K minus 6K."""

    max_residual: float


def leaf_pde_residual(g: MetricGrid, K: np.ndarray) -> LeafPdeReport:
    """Max interior |Lap_g log K - 6 K|; nodes with K <= 0 are excluded."""
    if g.dim != 2:
        raise GridError("leaf equation is for 2D metrics")
    K = np.asarray(K, dtype=np.float64)
    if K.shape != g.counts:
        raise GridError(f"K shape must be {g.counts}")
    bad = K <= 0.0
    logK = np.where(bad, np.nan, np.log(np.where(bad, 1.0, K)))
    resid = np.abs(laplace_beltrami(g, logK) - 6.0 * K)
    inner = interior(resid, 1, 2)
    if not np.any(np.isfinite(inner)):
        return LeafPdeReport(math.nan)
    return LeafPdeReport(float(np.nanmax(inner)))


def leaf_report(spec: LeafSpec) -> dict:
    """leaf_report.json's checks: |K_g - K| and the leaf equation on one
    slice per axis along which phi and K are both exactly constant, the
    K <= 0 nodes on the full grid, and leaf_spec's curvature -2 check of
    l*g0, the rescaled metric K g up to rounding (_rescaled_deviation),
    run on the spec as it is now."""
    g, K = leaf_metric(spec)
    axes, phi, K_cut = _constant_cut(g.axes, g.components[..., 0, 0], K)
    g_cut = g if axes == g.axes else _conformal_metric(*axes, phi)
    return {"gauss_curvature_deviation":
            interior_max(gauss_curvature_2d(g_cut) - K_cut, 2),
            "leaf_pde_residual": leaf_pde_residual(g_cut, K_cut).max_residual,
            "leaf_pde_excluded_nodes": int(np.sum(K <= 0.0)),
            "rescaled_curvature_deviation": _rescaled_deviation(spec)}


# ---------------------------------------------------------------------------
# Geodesic parallel coordinates.

class _SplineAxis:
    """The B-splines of the not-a-knot interpolant on the nodes 0, 1, ...,
    n - 1 of an axis measured in node steps (de Boor, A Practical Guide to
    Splines, ch. XIII): degree 5, 3 along an axis of 5 nodes (a grid axis
    has 1 or at least 5), and 0 along a one-node axis, where the spline is
    the constant. The interior knots are the nodes m, ..., n - 1 - m,
    m = (k + 1)/2, as in scipy's make_interp_spline and fitpack's
    interpolating regrid. On each knot interval the k + 1 B-splines
    nonzero there are kept as polynomials in the offset s from its
    midpoint, where every knot is an integer: the Cox-de Boor recursion
    run on power coefficients. Centered, |s| is at most 1.5 on the axis,
    so the powers stay small and the sums cancel little. The collocation
    matrix is factored here, once per axis, for fit."""

    def __init__(self, n: int):
        k = 5 if n > 5 else min(3, n - 1)
        m = (k + 1) // 2
        knots = np.concatenate((np.zeros(k + 1), m + np.arange(n - k - 1.0),
                                np.full(k + 1, n - 1.0)))
        ell = np.arange(k, n)  # the knot starting each interval
        mid = 0.5 * (knots[ell] + knots[ell + 1])
        basis = np.zeros((n - k, k + 1, k + 1))  # interval, B-spline, power
        basis[:, 0, 0] = 1.0
        for j in range(1, k + 1):
            saved = np.zeros((n - k, k + 1))
            for r in range(j):
                lo, hi = knots[ell + r + 1 - j], knots[ell + r + 1]
                temp = basis[:, r] / (hi - lo)[:, None]
                # s temp: its top power is zero, so the roll wraps a zero
                s_temp = np.roll(temp, 1, axis=1)
                basis[:, r] = saved + ((hi - mid)[:, None] * temp - s_temp)
                saved = (mid - lo)[:, None] * temp + s_temp
            basis[:, j] = saved
        slope = np.zeros_like(basis)
        slope[..., :-1] = basis[..., 1:] * np.arange(1.0, k + 1)
        self.count, self.degree, self.mid = n, k, mid
        # u is clamped to this range before its interval is looked up, so
        # a NaN lands on the first one and is never cast
        self.bounds = (m - 1.0, n - k + m - 2.0)
        self.first = np.arange(k + 1) == 0
        # table[i, j] = the s^j coefficients of each B-spline's value and
        # derivative, interleaved, on interval i
        self.table = (np.stack((basis, slope), -1).transpose(0, 2, 1, 3)
                      .reshape(n - k, k + 1, 2 * (k + 1)))
        # The collocation matrix has k diagonals each side of its own and
        # is totally positive, so Gaussian elimination without pivoting is
        # stable (de Boor, ch. XIII). It runs on the band alone, row by
        # row, in Python floats, with no LAPACK call to start BLAS threads:
        # row j of band holds columns j - k .. j + k, with k zero rows past
        # the end, and ends as L left of the diagonal and U from it on.
        i, b = self.basis(np.arange(n, dtype=np.float64))
        band = np.zeros((n + k, 2 * k + 1))
        node = np.arange(n)[:, None]
        band[node, k + i[:, None] - node + np.arange(k + 1)] = b[..., 0]
        rows = band.tolist()
        for j in range(n - 1):
            top = rows[j]
            for d in range(1, k + 1):
                row = rows[j + d]
                f = row[k - d] = row[k - d] / top[k]
                for c in range(1, k + 1):
                    row[k - d + c] -= f * top[k + c]
        band = np.array(rows)
        d = np.arange(1, k + 1)
        # row j's multipliers, its U part right of the diagonal, its pivot
        self.lower = list(band[node + d, k - d, None])
        self.upper = list(band[:n, k + 1:])
        self.pivot = band[:n, k].tolist()

    def basis(self, u):
        """(i, b) at u, a numpy scalar or array in node steps: B-splines i
        to i + k are the ones nonzero at u, and b[..., r, 0] and
        b[..., r, 1] are the value and the u-derivative of the (i + r)-th.
        Past either end the end interval's polynomials continue; u is
        never clamped."""
        i, s = self.interval(u)
        # 1, s, s^2, ... by products: numpy's float power costs far more
        powers = np.multiply.accumulate(
            np.where(self.first, 1.0, s[..., None]), -1)
        b = powers[..., None, :] @ self.table[i]
        return i, b.reshape(np.shape(s) + (self.degree + 1, 2))

    def interval(self, u):
        """(i, s): the knot interval of u, a numpy scalar or array in node
        steps, and u's offset s from its midpoint."""
        lo, hi = self.bounds
        i = (np.floor(np.fmin(np.fmax(u, lo), hi)) - lo).astype(np.intp)
        return i, u - self.mid[i]

    def fit(self, values: np.ndarray) -> np.ndarray:
        """The B-spline coefficients of the interpolant of the columns of
        values at the nodes: forward and back substitution through L U."""
        n, k = self.count, self.degree
        x = np.zeros((n + k,) + values.shape[1:])
        x[:n] = values
        rows = list(x)
        for j in range(n):
            x[j + 1:j + k + 1] -= self.lower[j] * rows[j]
        for j in reversed(range(n)):
            rows[j] -= self.upper[j] @ x[j + 1:j + k + 1]
            rows[j] /= self.pivot[j]
        return x[:n]


class _FactorSpline:
    """The not-a-knot interpolant of phi on uniform axes, fitted with one
    banded collocation solve per axis. Called at (px, py), numpy scalars
    or arrays of one shape, it returns (phi, d_x phi, d_y phi).

    On two axes of 2 nodes or more it is the tensor product: axes of one
    count share their B-splines and factors, and each point gathers its
    window of coefficients. With a one-node axis phi is a spline along the
    other axis alone (along x if both have one node: the constant), kept
    in pp-form (de Boor, ch. VII): per knot interval, the power
    coefficients about its midpoint of phi and of its derivative,
    _SplineAxis.table summed against the interval's B-spline
    coefficients. Horner's rule evaluates them, in Python floats at a
    scalar point and in numpy at an array: the same IEEE operations in the
    same order, so a 0-d lane and an array lane give the same bits. The
    derivative along the one-node axis is an exact zero."""

    def __init__(self, axes, phi: np.ndarray):
        nx, ny = self.shape = phi.shape
        # Python floats, so a scalar point's node-step offset is one too
        self.start = tuple(float(ax.start) for ax in axes)
        self.step = tuple(float(ax.step) for ax in axes)
        self.along = None if min(nx, ny) > 1 else int(ny > 1)
        if self.along is None:
            self.x = _SplineAxis(nx)
            self.y = self.x if ny == nx else _SplineAxis(ny)
            # coef_t[j * nx + i] multiplies the i-th B-spline in x and the
            # j-th in y: the y fit's rows, so no copy is made to flatten it
            self.coef_t = self.y.fit(self.x.fit(phi).T).ravel()
            self.window = (np.arange(self.y.degree + 1)[:, None] * nx
                           + np.arange(self.x.degree + 1))
            return
        ax = self.axis = _SplineAxis(phi.size)
        n, k = ax.count, ax.degree
        coef = ax.fit(phi.reshape(n, 1))[:, 0]
        # interval, power, B-spline, value or derivative; the sum over the
        # window runs elementwise, in no BLAS call
        table = ax.table.reshape(n - k, k + 1, k + 1, 2)
        pp = table[:, :, 0] * coef[:n - k, None, None]
        for r in range(1, k + 1):
            pp += table[:, :, r] * coef[r:n - k + r, None, None]
        # the derivative's top power is zero; a constant keeps it, as 0
        value, slope = pp[..., 0], pp[:, :max(k, 1), 1]
        # per interval: a row for a scalar point, its midpoint first, and
        # columns an array gathers
        self.rows = list(zip(ax.mid.tolist(), value.tolist(), slope.tolist()))
        self.columns = value.T, slope.T

    def __call__(self, px, py):
        m = self.along
        if m is None:
            (x0, y0), (hx, hy) = self.start, self.step
            ix, bx = self.x.basis((px - x0) / hx)
            iy, by = self.y.basis((py - y0) / hy)
            w = self.coef_t[(iy * self.shape[0] + ix)[..., None, None]
                            + self.window]
            v = np.swapaxes(by, -1, -2) @ (w @ bx)
            return v[..., 0, 0], v[..., 0, 1] / hx, v[..., 1, 0] / hy
        p, step = (px, py)[m], self.step[m]
        # a numpy scalar too runs in Python floats
        scalar = isinstance(p, float)
        u = ((float(p) if scalar else p) - self.start[m]) / step
        if scalar:
            # the interval lookup of _SplineAxis.interval: max and min keep
            # their first argument against a NaN, as fmax and fmin drop
            # it, so a NaN lands on the first interval and never reaches
            # math.floor
            lo, hi = self.axis.bounds
            mid, value, slope = self.rows[
                math.floor(min(hi, max(lo, u))) - int(lo)]
            s = u - mid
        else:
            i, s = self.axis.interval(u)
            value, slope = (c[:, i] for c in self.columns)
        f, df = value[-1], slope[-1]
        for c in value[-2::-1]:
            f = f * s + c
        for c in slope[-2::-1]:
            df = df * s + c
        df = df / step
        # numpy scalars out: the caller's phi/(phi phi) gives inf or NaN,
        # not ZeroDivisionError, at phi = 0
        if scalar:
            f, df, zero = np.float64(f), np.float64(df), np.float64(0.0)
        else:
            zero = np.zeros(np.shape(f))
        return (f, df, zero) if m == 0 else (f, zero, df)


def _factor_spline(g: MetricGrid) -> _FactorSpline:
    """Spline of phi = g_xx: quintic, cubic along a 5-node axis, as the
    interpolant is differentiated twice downstream. An axis along which
    phi is exactly constant (grids.constant_axes) is first cut to one
    node, so there phi is splined along the other axis alone, as
    piecewise polynomials (see _FactorSpline), and its derivative along
    the cut is an exact zero."""
    return _FactorSpline(*_constant_cut(g.axes, g.components[..., 0, 0]))


def _rk4(f_lo, f_mid, f_hi, u, h):
    """One classical fourth-order step of u' = f(t, u) of length h, given
    u -> f(t, u) at the start, the midpoint and the end of the step."""
    k1 = f_lo(u)
    k2 = f_mid(u + 0.5 * h * k1)
    k3 = f_mid(u + 0.5 * h * k2)
    k4 = f_hi(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _geodesic_rhs(spline, u):
    """d/dt of u = (px, py, vx, vy): (vx, vy, -Gamma^k_ij v^i v^j) on
    g = phi (dx^2 + dy^2), given phi's spline, for a (4,) state, whose
    terms are numpy scalars, and a (4, L) one alike. With q = phi/(phi
    phi) = g^xx = g^yy, a = q (0.5 phi_x) = Gamma^x_xx and b = q (0.5
    phi_y) = Gamma^y_yy, the sums are the nonzero terms of an i, j, k
    Christoffel loop in the loop's order, so bit for bit its result."""
    px, py, vx, vy = u
    phi, phi_x, phi_y = spline(px, py)
    q = phi / (phi * phi)
    a = q * (0.5 * phi_x)
    b = q * (0.5 * phi_y)
    vxx, vxy, vyy = vx * vx, vx * vy, vy * vy
    ax = ((-(a * vxx) - b * vxy) - b * vxy) + a * vyy
    ay = ((b * vxx - a * vxy) - a * vxy) - b * vyy
    return np.array((vx, vy, ax, ay))


@dataclass
class CProfile:
    """Geodesic-parallel profile: metric 2(dx^2 + c^2 dy^2) on (x, y).

    x is scaled arclength along geodesics leaving the base curve, y the
    base-curve parameter. x_map/y_map give the source coordinates of each
    profile node, for pullback checks.
    """

    x_axis: Axis
    y_axis: Axis
    c: np.ndarray
    x_map: np.ndarray
    y_map: np.ndarray
    coverage: float = 1.0
    truncated: bool = False
    truncation_reason: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _refuse_short_axes(self.x_axis, self.y_axis)
        shape = (self.x_axis.count, self.y_axis.count)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.c.shape != shape:
            raise GridError(f"c shape must be {shape}")
        if not np.all(self.c > 0.0):
            raise DomainError("profile coefficient c must be positive")
        cov = self.coverage
        if not (type(cov) is not bool and isinstance(cov, (int, float))
                and 0.0 < cov <= 1.0 and isinstance(self.truncated, bool)
                and isinstance(self.truncation_reason, str)):
            raise GridError(f"coverage {cov!r}, truncated {self.truncated!r}, "
                            f"truncation_reason {self.truncation_reason!r}: "
                            f"need a number in (0, 1], a bool, a string")

    def to_json(self) -> str:
        return dump_artifact("c_profile", (self.x_axis, self.y_axis),
                             {"c": self.c, "x_map": np.asarray(self.x_map),
                              "y_map": np.asarray(self.y_map)},
                             coverage=self.coverage, truncated=self.truncated,
                             truncation_reason=self.truncation_reason,
                             meta=self.meta)

    @classmethod
    def from_json(cls, text: str | bytes) -> "CProfile":
        doc, axes, arrays = load_artifact(
            text, "c_profile", ("c", "x_map", "y_map"),
            optional=("coverage", "truncated", "truncation_reason"))
        return cls(*axes, *arrays, coverage=doc.get("coverage", 1.0),
                   truncated=doc.get("truncated", False),
                   truncation_reason=doc.get("truncation_reason", ""),
                   meta=doc.get("meta", {}))


def base_curve_axis(sy: Axis, step: float, start: float | None = None,
                    count: int | None = None) -> Axis:
    """Base-curve y axis of the given step. By default it starts two steps
    above the source's lower y edge and has the source's count less four
    nodes, fewer if they would end within two steps of its upper edge, so
    the one-node pad seeds stay strictly inside the source."""
    if start is None:
        start = sy.start + 2.0 * step
    if count is None:
        # slack for rounding in the division, as in the shoot's domain
        # test; a non-finite start gets count 0 and Axis names the start
        span = (sy.stop - start) / step
        count = (min(sy.count - 4, math.floor(span + 1e-9) - 1)
                 if math.isfinite(span) else 0)
    return Axis(sy.name, start, step, count)


def geodesic_parallel_profile(g: MetricGrid, x_axis: Axis | None = None,
                              y_axis: Axis | None = None,
                              substeps: int = 4) -> CProfile:
    """Extract c of the form 2(dx^2 + c^2 dy^2) by shooting geodesics.

    The base curve is the left edge of the source domain, parametrized by
    the source y coordinate. Geodesics leave it orthogonally with squared
    speed 2, integrated with a classical fixed-step fourth-order scheme
    (substeps >= 1 per profile step). g must be conformal, phi (dx^2 +
    dy^2), as every leaf metric is; any other metric raises GridError
    before a spline is fitted. phi between nodes comes from one
    not-a-knot spline, quintic (cubic along a 5-node axis), fitted here
    (see _FactorSpline): one evaluation per right-hand side gives phi and
    both first derivatives. Within the rounding slack past the source
    rectangle, where stage points may land, its end polynomials continue.
    When phi is exactly constant along y, the spline cuts y to one node
    and y is a Killing direction: one geodesic is shot, as a 0-d lane (a
    (4,) state) from the lowest seed, on which the spline's piecewise
    polynomials in x run in Python floats, and translated along y, so c
    and x_map are constant along y bit for bit.
    Geodesics exiting the source rectangle or focusing (c below C_FLOOR)
    truncate the profile, recorded in coverage/truncation_reason; if one
    leaves before the second profile node, DomainError names it. A source
    or profile axis of fewer than 2 nodes raises GridError before a
    spline is fitted.
    """
    if g.dim != 2:
        raise GridError("profile extraction is for 2D metrics")
    _refuse_short_axes(*g.axes)
    comp = g.components
    gxx, gxy, gyy = comp[..., 0, 0], comp[..., 0, 1], comp[..., 1, 1]
    if np.any(gxy != 0.0) or np.any(gyy != gxx):
        raise GridError("the profile needs a conformal metric "
                        "phi (dx^2 + dy^2), as every leaf metric is")
    if substeps < 1:
        raise DomainError(f"substeps must be at least 1, got {substeps}")
    sx, sy = g.axes
    if x_axis is None:
        x_axis = Axis("x", 0.0, sx.step, sx.count)
    if y_axis is None:
        y_axis = base_curve_axis(sy, sy.step)
    if x_axis.start != 0.0:
        raise DomainError("profile x axis must start at 0 (the base curve)")
    # the profile's own refusal, before any spline fit or RK4 step
    _refuse_short_axes(x_axis, y_axis)

    # one padding seed each side so central y-derivatives cover all nodes
    seeds = np.concatenate(([y_axis.start - y_axis.step], y_axis.nodes,
                            [y_axis.stop + y_axis.step]))
    if seeds[0] < sy.start or seeds[-1] > sy.stop:
        raise DomainError("base-curve seeds (with one-node pad) leave the domain")

    # y is a Killing direction when phi is exactly constant along it (the
    # grids.constant_axes rule): the spline cuts y to one node, and every
    # geodesic is the first one moved along y, so only that one is shot,
    # as a 0-d lane
    spline = _factor_spline(g)
    invariant = spline.shape[1] == 1
    lanes = seeds[0] if invariant else seeds
    px = np.full_like(lanes, sx.start)
    py = np.copy(lanes)
    vx = np.sqrt(2.0 / spline(px, py)[0])
    u = np.stack((px, py, vx, np.zeros_like(vx)))

    n_park = x_axis.count
    X = np.empty((n_park,) + np.shape(lanes))
    Y = np.empty((n_park,) + np.shape(lanes))
    X[0], Y[0] = px, py
    hs = x_axis.step / substeps
    delivered = n_park
    reason = ""

    # rounding-scale slack: seeds on the boundary pick up O(1e-19) drift
    # from spline noise, which must not count as leaving the domain
    tol_x = 1e-9 * (sx.stop - sx.start)
    tol_y = 1e-9 * (sy.stop - sy.start)

    def inside(ax_, ay_):
        return ((ax_ >= sx.start - tol_x) & (ax_ <= sx.stop + tol_x)
                & (ay_ >= sy.start - tol_y) & (ay_ <= sy.stop + tol_y))

    def rhs(w):
        return _geodesic_rhs(spline, w)

    for i in range(1, n_park):
        for _ in range(substeps):
            u = _rk4(rhs, rhs, rhs, u, hs)
            if not inside(u[0], u[1]).all():
                break
        else:
            X[i], Y[i] = u[0], u[1]
            continue
        if i == 1:
            y0 = np.atleast_1d(lanes)[np.argmin(inside(u[0], u[1]))]
            raise DomainError(
                f"the geodesic from base-curve y = {y0:g} leaves the source "
                f"rectangle [{sx.start:g}, {sx.stop:g}] x [{sy.start:g}, "
                f"{sy.stop:g}] before the second profile node (profile "
                f"step {x_axis.step:g})")
        delivered = i
        reason = "geodesic left the source domain"
        break

    X, Y = X[:delivered], Y[:delivered]
    if invariant:
        # Xy = 0 and Yy = 1 exactly: c and x_map are constant along y
        Xy, Yy = 0.0, 1.0
        phi = np.repeat(spline(X, Y)[0][:, None], y_axis.count, axis=1)
        Xc = np.repeat(X[:, None], y_axis.count, axis=1)
        Yc = np.broadcast_to(y_axis.nodes, Xc.shape).copy()
    else:
        dy = y_axis.step
        Xy = (X[:, 2:] - X[:, :-2]) / (2.0 * dy)
        Yy = (Y[:, 2:] - Y[:, :-2]) / (2.0 * dy)
        Xc, Yc = X[:, 1:-1], Y[:, 1:-1]
        phi = spline(Xc, Yc)[0]
    # two products, not phi (Xy^2 + Yy^2): factoring phi out rounds
    # differently and moves the last bits of every profile
    c2 = 0.5 * (phi * Xy ** 2 + phi * Yy ** 2)

    caustic = np.nonzero(np.any(c2 <= C_FLOOR ** 2, axis=1))[0]
    if caustic.size:
        delivered = int(caustic[0])
        if delivered < 2:
            raise DomainError("profile collapses at the base curve (caustic)")
        c2 = c2[:delivered]
        Xc, Yc = Xc[:delivered], Yc[:delivered]
        reason = "caustic: c fell below the floor"

    truncated = delivered < n_park
    out_axis = Axis(x_axis.name, 0.0, x_axis.step, delivered)
    return CProfile(out_axis, y_axis, np.sqrt(c2), Xc, Yc,
                    coverage=delivered / n_park, truncated=truncated,
                    truncation_reason=reason,
                    meta={"base_curve": "left edge", "substeps": substeps})


# ---------------------------------------------------------------------------
# Reduced fields and the first-order system.

@dataclass
class ReducedFields:
    """Grids (L, R, P, Q) of the reduced system; NaN where undefined."""

    L: np.ndarray
    R: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    n_excluded: int


def reduced_fields(cp: CProfile) -> ReducedFields:
    """L = -c_x/(2c), R = sqrt(-c_xx/c), P = (log R)_x + c_x/c,
    Q = -(1/c)(log R)_y, all by central differences.

    Nodes where c_xx >= 0 (R not real, the shear-free locus) are excluded
    and counted; P, Q inherit their NaN plus one differencing margin.
    """
    c = cp.c
    hx, hy = cp.x_axis.step, cp.y_axis.step
    cx = central_diff(c, hx, 0)
    cxx = second_diff(c, hx, 0)
    L = -cx / (2.0 * c)
    m = -cxx / c
    valid = m > 0.0
    n_excluded = int(np.sum(~valid & np.isfinite(m)))
    logm = np.where(valid, np.log(np.where(valid, m, 1.0)), np.nan)
    R = np.sqrt(np.where(valid, m, np.nan))
    P = 0.5 * central_diff(logm, hx, 0) + cx / c
    Q = -central_diff(logm, hy, 1) / (2.0 * c)
    return ReducedFields(L=L, R=R, P=P, Q=Q, n_excluded=n_excluded)


def _nanmax_interior(arr: np.ndarray) -> float:
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return math.nan
    return float(np.max(np.abs(finite)))


@dataclass(frozen=True)
class Sys2Residuals:
    """Max residuals of the reduced first-order system on valid nodes.

    radial_R:     d1 R - 2 R'          = d1 R - R (P + 2L)
    transverse_R: d2 R + R Q
    radial_L:     d1 L - 2 L'          = d1 L - 2 L^2 - R^2/2
    mixed_PQ:     d1 P - d2 Q - 2 P'   = d1 P - d2 Q - 2 L P - 2 R^2
    second_order: d1^2 log R + d2^2 log R - 2 L d1 log R - 3 R^2
    with d1 = partial_x, d2 = (1/c) partial_y, and R', L', P' the reduced
    flow frame_algebra.sys_flow at N = 0.
    """

    radial_R: float
    transverse_R: float
    radial_L: float
    mixed_PQ: float
    second_order: float

    def worst(self) -> float:
        return max(self.radial_R, self.transverse_R, self.radial_L,
                   self.mixed_PQ, self.second_order)


def sys2_residuals(fields: ReducedFields, cp: CProfile) -> Sys2Residuals:
    c = cp.c
    hx, hy = cp.x_axis.step, cp.y_axis.step
    L, R, P, Q = fields.L, fields.R, fields.P, fields.Q
    logR = np.log(R)
    _, _, dr, dp, _ = sys_flow(0.0, L, R, P, Q)
    # L' meets P only through N P, 0 here; P's NaN reaches one x-node past
    # R's, so it is filled for L' to keep radial_L defined where L, R are
    dl = sys_flow(0.0, L, R, np.where(np.isnan(P), 0.0, P), Q)[1]

    r1 = central_diff(R, hx, 0) - 2.0 * dr
    r2 = central_diff(R, hy, 1) / c + R * Q
    r3 = central_diff(L, hx, 0) - 2.0 * dl
    r4 = central_diff(P, hx, 0) - central_diff(Q, hy, 1) / c - 2.0 * dp
    d1_logR = central_diff(logR, hx, 0)
    d11 = second_diff(logR, hx, 0)
    d22 = central_diff(central_diff(logR, hy, 1) / c, hy, 1) / c
    r5 = d11 + d22 - 2.0 * L * d1_logR - 3.0 * R * R

    return Sys2Residuals(radial_R=_nanmax_interior(r1),
                         transverse_R=_nanmax_interior(r2),
                         radial_L=_nanmax_interior(r3),
                         mixed_PQ=_nanmax_interior(r4),
                         second_order=_nanmax_interior(r5))


@dataclass
class VecSysCoefficients:
    """Coefficients alpha = R/sqrt(2), beta = Q/2, nu = P/2 + R/sqrt(2),
    chi = -P/2 + R/sqrt(2) of the linear frame system."""

    alpha: np.ndarray
    beta: np.ndarray
    nu: np.ndarray
    chi: np.ndarray


def vecsys_coefficients(fields: ReducedFields) -> VecSysCoefficients:
    alpha = fields.R / SQRT2
    beta = fields.Q / 2.0
    nu = fields.P / 2.0 + fields.R / SQRT2
    chi = -fields.P / 2.0 + fields.R / SQRT2
    return VecSysCoefficients(alpha=alpha, beta=beta, nu=nu, chi=chi)


@dataclass
class VecSysSolution:
    """Frame coefficient grids with the conserved determinant as-rb, on
    the profile nodes from window_offset on."""

    x_axis: Axis
    y_axis: Axis
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    s: np.ndarray
    det0: float
    compat_residual: float
    window_offset: tuple[int, int]

    @property
    def det(self) -> np.ndarray:
        return self.a * self.s - self.r * self.b

    @property
    def det_drift(self) -> float:
        return float(np.max(np.abs(self.det - self.det0)))


def _finite_window(arrays) -> tuple[slice, slice]:
    """Largest axis-aligned rectangle where every array is finite.

    The NaN pattern here is a differencing margin, so the finite region is
    already a rectangle; we just find its bounds.
    """
    mask = np.ones(arrays[0].shape, dtype=bool)
    for arr in arrays:
        mask &= np.isfinite(arr)
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    if rows.size == 0 or cols.size == 0:
        raise DomainError("no nodes with all coefficients defined")
    sl = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    if not np.all(mask[sl]):
        raise DomainError("coefficient fields have holes; cannot pick a window")
    return sl


def _half_nodes(v: np.ndarray) -> np.ndarray:
    """Midpoint values along axis 0, cubic in the interior, quadratic at
    the two end intervals; needed to keep the marching genuinely fourth
    order when coefficients are only known at whole nodes."""
    n = v.shape[0]
    out = np.empty((n - 1,) + v.shape[1:], dtype=v.dtype)
    out[0] = (3.0 * v[0] + 6.0 * v[1] - v[2]) / 8.0
    out[-1] = (-v[-3] + 6.0 * v[-2] + 3.0 * v[-1]) / 8.0
    if n > 3:
        out[1:-1] = (9.0 * (v[1:-2] + v[2:-1]) - (v[:-3] + v[3:])) / 16.0
    return out


def _times(m: np.ndarray):
    """u -> m u for stacks of 2x2 matrices. einsum, not matmul: matmul can
    round differently (fused multiply-adds) and move the last bits."""
    return lambda u: np.einsum("...ij,...jk->...ik", m, u)


def _linear_march(m: np.ndarray, u0: np.ndarray, h: float) -> np.ndarray:
    """u' = m u along axis 0 of m, one RK4 step per node interval; the
    midpoint matrices come from _half_nodes. Returns u at every node."""
    mid = _half_nodes(m)
    u = [u0]
    for i in range(m.shape[0] - 1):
        u.append(_rk4(_times(m[i]), _times(mid[i]), _times(m[i + 1]),
                      u[-1], h))
    return np.stack(u)


def integrate_vecsys(coeffs: VecSysCoefficients, cp: CProfile,
                     init: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0),
                     compat_threshold: float | None = None) -> VecSysSolution:
    """Solve the linear frame system on the window where coefficients exist.

    With U = [[a, b], [r, s]], both columns solve U_y = M_y U and
    U_x = M_x U, where M_y = [[0, c nu], [c chi, 0]] and
    M_x = [[alpha, beta], [-beta, -alpha]]. U is integrated up the first
    column along y, then along every y-line in x, with a fourth-order
    fixed-step scheme. The mixed-partial compatibility residual
    max |d_y(M_x U) - d_x(M_y U)| is reported; it is O(h^2) exactly when
    the reduced system holds.
    """
    a0, b0, r0, s0 = (float(v) for v in init)
    det0 = a0 * s0 - r0 * b0
    if det0 == 0.0:
        raise DomainError("initial frame must have as - rb != 0")

    win = _finite_window((coeffs.alpha, coeffs.beta, coeffs.nu, coeffs.chi))
    al, be = coeffs.alpha[win], coeffs.beta[win]
    nu, ch = coeffs.nu[win], coeffs.chi[win]
    c = cp.c[win]
    nx, ny = al.shape
    if nx < 3 or ny < 3:
        raise DomainError("coefficient window too small to integrate")
    hx, hy = cp.x_axis.step, cp.y_axis.step
    x_axis = Axis(cp.x_axis.name, cp.x_axis.nodes[win[0].start], hx, nx)
    y_axis = Axis(cp.y_axis.name, cp.y_axis.nodes[win[1].start], hy, ny)

    zero = np.zeros_like(c)
    m_x = np.stack((al, be, -be, -al), -1).reshape(nx, ny, 2, 2)
    m_y = np.stack((zero, c * nu, c * ch, zero), -1).reshape(nx, ny, 2, 2)
    # a frame that overflows is refused by assemble_four_metric's grid
    with np.errstate(all="ignore"):
        u = _linear_march(m_y[0], np.array([[a0, b0], [r0, s0]]), hy)
        u = _linear_march(m_x, u, hx)
        resid = _nanmax_interior(central_diff(_times(m_x)(u), hy, 1)
                                 - central_diff(_times(m_y)(u), hx, 0))
    (a, b), (r, s) = np.moveaxis(u, (2, 3), (0, 1))

    if compat_threshold is not None and not (resid <= compat_threshold):
        raise CompatibilityError(
            f"mixed-partial residual {resid:.3e} over threshold "
            f"{compat_threshold:.3e}; input fields violate the reduced system")

    return VecSysSolution(x_axis=x_axis, y_axis=y_axis, a=a, b=b, r=r, s=s,
                          det0=det0, compat_residual=resid,
                          window_offset=(int(win[0].start), int(win[1].start)))


def assemble_four_metric(v: VecSysSolution, cp: CProfile,
                         manifest: dict | None = None
                         ) -> tuple[MetricGrid, TwoFormGrid]:
    """The Ricci-flat 4-metric and its parallel form on (x, y, u, v).

    Components depend on (x, y) only; u, v are the two Killing directions,
    one-node axes at 0 with the x spacing. The form's du^dv coefficient is
    stored as the constant 1/det0, using the conserved first integral, so
    closedness holds to rounding.
    """
    axes = (v.x_axis, v.y_axis, Axis("u", 0.0, v.x_axis.step, 1),
            Axis("v", 0.0, v.x_axis.step, 1))
    i0, j0 = v.window_offset
    c = cp.c[i0:i0 + v.x_axis.count, j0:j0 + v.y_axis.count]
    if c.shape != v.a.shape:
        raise GridError("profile window does not match the solution grid")

    xy = (slice(None), slice(None), None, None)
    g = np.zeros(c.shape + (1, 1, 4, 4))
    g[..., 0, 0] = 2.0
    g[..., 1, 1] = (2.0 * c * c)[xy]
    # a non-finite component is refused by MetricGrid
    with np.errstate(all="ignore"):
        det = v.det
        g[..., 2, 2] = ((v.s ** 2 + v.b ** 2) / det ** 2)[xy]
        g[..., 3, 3] = ((v.r ** 2 + v.a ** 2) / det ** 2)[xy]
        guv = (-(v.s * v.r + v.a * v.b) / det ** 2)[xy]
    g[..., 2, 3] = guv
    g[..., 3, 2] = guv
    metric = MetricGrid(axes, g, manifest=manifest)

    w = np.zeros(g.shape)
    wxy = (2.0 * c)[xy]
    w[..., 0, 1] = wxy
    w[..., 1, 0] = -wxy
    w[..., 2, 3] = 1.0 / v.det0
    w[..., 3, 2] = -1.0 / v.det0
    form = TwoFormGrid(axes, w)
    return metric, form
