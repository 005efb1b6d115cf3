"""The not-a-knot spline of a conformal factor phi on uniform axes.

The geodesic shoot of `leafpde.geodesic_parallel_profile` evaluates phi
and its first derivatives between the nodes of a leaf metric
phi (dx^2 + dy^2) through `factor_spline`: quintic, cubic along a 5-node
axis, the interpolant scipy's make_interp_spline and RectBivariateSpline
fit on the same nodes (tests/test_spline_oracle.py). Each spline builds
the B-splines and the factored collocation matrix of its axes itself;
two axes of one node count share one SplineAxis.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import MetricGrid, constant_cut


class SplineAxis:
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
    matrix is factored here, for fit."""

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
        self.lower = tuple(band[node + d, k - d, None])
        self.upper = tuple(band[:n, k + 1:])
        self.pivot = tuple(band[:n, k].tolist())

    def basis(self, u):
        """(i, b) at u, a number or an array in node steps: B-splines i
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
        """(i, s): the knot interval of u, a number or an array in node
        steps, and u's offset s from its midpoint, both numpy."""
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


class FactorSpline:
    """The not-a-knot interpolant of phi on uniform axes, fitted with one
    banded collocation solve per axis. Called at (px, py), Python floats,
    numpy scalars or arrays of one shape, it returns (phi, d_x phi,
    d_y phi).

    On two axes of 2 nodes or more it is the tensor product: axes of one
    count share their B-splines and factors, and each point gathers its
    window of coefficients. With a one-node axis phi is a spline along the
    other axis alone (along x if both have one node: the constant), kept
    in pp-form (de Boor, ch. VII): per knot interval, the power
    coefficients about its midpoint of phi and of its derivative,
    SplineAxis.table summed against the interval's B-spline
    coefficients. Horner's rule evaluates them, in Python floats at a
    scalar point, returned as Python floats, and in numpy at an array: the
    same IEEE operations in the same order, so a 0-d lane and an array
    lane give the same bits. The derivative along the one-node axis is an
    exact zero."""

    def __init__(self, axes, phi: np.ndarray):
        nx, ny = self.shape = phi.shape
        # Python floats, so a scalar point's node-step offset is one too
        self.start = tuple(float(ax.start) for ax in axes)
        self.step = tuple(float(ax.step) for ax in axes)
        self.along = None if min(nx, ny) > 1 else int(ny > 1)
        if self.along is None:
            self.x = SplineAxis(nx)
            self.y = self.x if ny == nx else SplineAxis(ny)
            # coef_t[j * nx + i] multiplies the i-th B-spline in x and the
            # j-th in y: the y fit's rows, so no copy is made to flatten it
            self.coef_t = self.y.fit(self.x.fit(phi).T).ravel()
            self.window = (np.arange(self.y.degree + 1)[:, None] * nx
                           + np.arange(self.x.degree + 1))
            return
        ax = self.axis = SplineAxis(phi.size)
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
            # the interval lookup of SplineAxis.interval: max and min keep
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
        # Python floats out at a scalar point: leafpde._geodesic_rhs takes
        # a Python 0.0 for phi phi as IEEE division does
        zero = 0.0 if scalar else np.zeros(np.shape(f))
        return (f, df, zero) if m == 0 else (f, zero, df)


def factor_spline(g: MetricGrid) -> FactorSpline:
    """Spline of phi = g_xx: quintic, cubic along a 5-node axis, as the
    interpolant is differentiated twice downstream. An axis along which
    phi is exactly constant (grids.constant_axes) is first cut to one
    node, so there phi is splined along the other axis alone, as
    piecewise polynomials (see FactorSpline), and its derivative along
    the cut is an exact zero."""
    return FactorSpline(*constant_cut(g.axes, g.components[..., 0, 0]))
