"""Finite-difference curvature on metric grids.

All stencils are second-order central differences; nothing one-sided is ever
used, so quantities are valid one layer in from the boundary and the invalid
shell is NaN. Curvature is assembled from the lowered tensor

    R_abcd = (g_ad,bc + g_bc,ad - g_bd,ac - g_ac,bd)/2
             + g_ef (Gamma^e_bc Gamma^f_ad - Gamma^e_bd Gamma^f_ac)

with the second derivatives of g taken by tight 3-point (and 4-point cross)
stencils rather than by differencing the Christoffel grid; that keeps the
truncation constant small and makes the pair symmetry R_abcd = R_cdab exact
up to summation rounding, which in turn makes the Ricci tensor symmetric to
rounding on the valid interior.

Only the pair blocks a < b, c < d of R_abcd are computed (1 component in
2D instead of 16, 36 in 4D instead of 256), with the quadratic term taken
as Gamma^f_bc (g_fe Gamma^e_ad); R_bacd and R_abdc are filled in by exact
negation, so the antisymmetry in each index pair holds bitwise, and the
components with a == b or c == d are exactly zero (NaN on the margin).
`gauss_curvature_2d` reads its one block directly.

The core is component-major (component indices lead, node axes trail),
so stencils and products run over contiguous node arrays. It differences
only the second derivatives g_ab,mn that the blocks read, each once with
a <= b and m <= n, as g and the stencils are exactly symmetric (the mixed
stencil takes axis m, then n): 3 in 2D and 72 in 4D, not 16 and 256.

The 2x2 determinant is the closed form of `grids.det`, and the 2D inverse
metric is the adjugate over it, exactly symmetric because the components
are: LAPACK's batched det and inv together cost about 0.17 us per 2x2
matrix, many times the arithmetic, on grids of 257^2 nodes.

A Killing direction is an axis of one node (see `grids`): every
difference along it is exactly zero and it has no margin. The scalar
checks `einstein_residual` and `riemann_max` cut every axis on which every
component equals the first slice exactly (`grids.constant_axes`) to
that one slice with `grids.collapse_constant`, the same representation,
since every node along it has the same curvature. The test is exact
equality, never a tolerance: an axis along which the metric varies by a
single ulp is differenced in full, so the cut skips only work whose result
is known exactly, and the checker reads it from the numbers instead of
trusting the code that built the grid. The array functions (`ricci`,
`riemann`, ...) evaluate every node and keep the NaN margin.

The four entry points `einstein_residual`, `riemann_max`,
`gauss_curvature_2d` and `laplace_beltrami` evaluate node axis 0 in row
slabs (`_slabs`), so that no temporary spans the whole grid: a 257^2 leaf
needs about 2 MB instead of 26 MB. Every stencil reads at most one
neighbour per axis, so each slab carries one halo row on either side and
its other rows are exactly the full grid's; every other operation is
elementwise per node. The results are therefore bit for bit those of the
whole grid in one slab, NaN margin included: the margin rows come from the end slabs' own
stencils, and the checks take the max of each slab's interior max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import GridError
from .grids import (MetricGrid, TwoFormGrid, central_diff, collapse_constant,
                    det, interior, mixed_diff, second_diff, shift)

# Derivative quantities are valid this many layers in from the boundary.
CURVATURE_MARGIN = 1
# convergence_order's bound on a residual a log-log fit can use
ORDER_FLOOR = 1e-14
# Bytes of d^3 float64 values per node that one row slab spans: the knee
# of a sweep from 64 KB to 4 MB (CHANGES.md); measured, not a knob.
SLAB_BYTES = 2 ** 18


def _inverse_metric(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(determinants, exactly symmetric inverses) of the matrices g[...]."""
    dets = det(g)
    if not np.all(np.isfinite(dets)) or np.any(dets <= 0.0):
        bad = np.where(~(np.isfinite(dets) & (dets > 0.0)))
        node = tuple(int(b[0]) for b in bad)
        raise GridError(f"metric not invertible at node {node}")
    if g.shape[-1] == 2:
        ginv = np.empty_like(g)
        ginv[..., 0, 0] = g[..., 1, 1] / dets
        ginv[..., 1, 1] = g[..., 0, 0] / dets
        ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / dets
        return dets, ginv
    ginv = np.linalg.inv(g)
    # Force exact symmetry so downstream contractions commute bitwise.
    return dets, 0.5 * (ginv + np.swapaxes(ginv, -1, -2))


def _slabs(g: np.ndarray):
    """Row slabs of node axis 0 of g[..., d, d], as slices
    (window, own, rows): g[window] is evaluated, and its rows `own` are the
    output's `rows`. A window is its rows plus one halo row on each side,
    so neighbouring windows overlap by two rows; the grid's margin rows
    belong to the end windows. An axis 0 of one node is one slab."""
    n, d = g.shape[0], g.shape[-1]
    step = max(1, SLAB_BYTES // (8 * d ** 3 * (g[0].size // (d * d))))
    for lo in range(0, max(n - 2, 1), step):
        hi = min(lo + step + 2, n)
        a, b = lo + (lo > 0), hi - (hi < n)
        yield slice(lo, hi), slice(a - lo, b - lo), slice(a, b)


def _component_major(a: np.ndarray) -> np.ndarray:
    """a[..., k, l] as a contiguous array [k, l, ...]."""
    return np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))


def _contract(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_l m[k, l] t[l, i, j] over component-major arrays, summed in the
    order of l."""
    return sum(m[:, l, None, None] * t[None, l] for l in range(len(m)))


def _connection(g: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric ginv[..., k, l] and Christoffel symbols of g, the
    latter component-major: Gamma[k, i, j] over the nodes.

    g holds components with the node axes leading, as ginv does; every
    axis of more than one node gets a NaN boundary layer. Gamma is exactly
    symmetric in (i, j).
    """
    comp = _component_major(g)
    # dg[m, i, j] = d g_ij / d x_m
    dg = np.stack([central_diff(comp, step, m + 2)
                   for m, step in enumerate(steps)])
    _, ginv = _inverse_metric(g)
    t1 = np.swapaxes(dg, 0, 1)            # [l, i, j] = d_i g_lj
    t2 = np.moveaxis(dg, 0, 2)            # [l, i, j] = d_j g_li
    t3 = dg                               # [l, i, j] = d_l g_ij
    return ginv, 0.5 * _contract(_component_major(ginv), t1 + t2 - t3)


@cache
def _pair_maps(d: int):
    """Index maps of the pair blocks in dimension d, shared by every call
    and so read-only: ((i, j, k, l), groups, terms).

    Block (p, q) is R_ijkl with (i, j) = pairs[p], (k, l) = pairs[q]; i, j
    have shape (P, 1), k, l shape (P,). `groups` lists the second
    derivatives g_ab,mn that the blocks read, a <= b and m <= n, as
    ((m, n), rows a, rows b) in sorted order; `terms` maps g_il,jk,
    g_jk,il, g_jl,ik and g_ik,jl of every block into those rows, in order.
    """
    lo, hi = np.array(list(combinations(range(d), 2))).T
    i, j, k, l = lo[:, None], hi[:, None], lo, hi
    a, b, m, n = np.stack([np.broadcast_arrays(*t) for t in
                           ((i, l, j, k), (j, k, i, l),
                            (j, l, i, k), (i, k, j, l))], 1)
    # g and its stencils are exactly symmetric in (a, b) and in (m, n)
    keys = np.stack((np.minimum(m, n), np.maximum(m, n),
                     np.minimum(a, b), np.maximum(a, b)), -1)
    keys = [tuple(key) for key in keys.reshape(-1, 4).tolist()]
    entries = sorted(set(keys))
    terms = np.array([entries.index(key) for key in keys]).reshape(m.shape)
    groups = tuple((mn, *np.array([e[2:] for e in entries if e[:2] == mn]).T)
                   for mn in sorted({e[:2] for e in entries}))
    for arr in (i, j, k, l, terms, *(x for grp in groups for x in grp[1:])):
        arr.flags.writeable = False
    return (i, j, k, l), groups, terms


def _curvature(g: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric and the pair blocks B[p, q, ...] of the lowered
    curvature of g, component-major: B[p, q] = R_ijkl over the nodes, with
    (i, j) = pairs[p] and (k, l) = pairs[q] (see `_pair_maps`).

    The one curvature core: the array functions call it on the full grid,
    the scalar checks on one slice per symmetry axis.
    """
    d = len(steps)
    (i, j, k, l), groups, terms = _pair_maps(d)
    comp = _component_major(g)                  # comp[a, b] = g_ab
    # ddg[e] = d^2 g_ab / dx_m dx_n for the e-th (m, n, a, b) of groups,
    # node axis m of a component-major array being its axis m + 1
    ddg = np.concatenate([
        second_diff(comp[a, b], steps[m], m + 1) if m == n
        else mixed_diff(comp[a, b], steps[m], m + 1, steps[n], n + 1)
        for (m, n), a, b in groups])
    ginv, gamma = _connection(g, steps)
    glow = _contract(comp, gamma)         # [f, i, l] = g_fe Gamma^e_il
    t1, t2, t3, t4 = (ddg[t] for t in terms)
    blocks = (0.5 * (t1 + t2 - t3 - t4)
              + sum(gamma[f, j, k] * glow[f, i, l] for f in range(d))
              - sum(gamma[f, j, l] * glow[f, i, k] for f in range(d)))
    return ginv, blocks


def _lowered(g: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric and R[..., a, b, c, d] = R_abcd of g from the pair
    blocks of `_curvature`: R_bacd and R_abdc are the blocks negated, and
    a == b or c == d gives zero, NaN on the margin of the blocks."""
    ginv, blocks = _curvature(g, steps)
    i, j, k, l = _pair_maps(len(steps))[0]
    node_major = np.moveaxis(blocks, (0, 1), (-2, -1))
    R = np.zeros(g.shape[:-2] + (len(steps),) * 4)
    R[..., i, j, k, l] = node_major
    R[..., j, i, l, k] = node_major
    R[..., j, i, k, l] = -node_major
    R[..., i, j, l, k] = -node_major
    R[np.isnan(blocks[0, 0])] = np.nan
    return ginv, R


def _ricci(ginv: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    return np.einsum("...ae,...ebad->...bd", ginv, lowered)


def _raised(ginv: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    return np.einsum("...ae,...ebcd->...abcd", ginv, lowered)


def christoffel(grid: MetricGrid) -> np.ndarray:
    """Christoffel symbols of the second kind, Gamma[..., k, i, j].

    Exactly symmetric in (i, j); NaN on the outermost node layer.
    """
    return np.moveaxis(_connection(grid.components, grid.steps)[1],
                       (0, 1, 2), (-3, -2, -1))


def riemann_lowered(grid: MetricGrid) -> np.ndarray:
    """Lowered curvature tensor R[..., a, b, c, d] = R_abcd; NaN margin 1.

    Sign convention fixed by R_0101 = det(g) K on a round sphere (K = +1).
    """
    return _lowered(grid.components, grid.steps)[1]


def riemann(grid: MetricGrid) -> np.ndarray:
    """Curvature tensor R[..., a, b, c, d] = R^a_{bcd}; NaN margin 1."""
    return _raised(*_lowered(grid.components, grid.steps))


def ricci(grid: MetricGrid) -> np.ndarray:
    """Ricci tensor Ric[..., i, j]; NaN margin 1.

    Sign fixed by Ric = K g on a round sphere; symmetric to rounding.
    """
    return _ricci(*_lowered(grid.components, grid.steps))


def interior_max(arr: np.ndarray, dim: int) -> float:
    """Max |arr| over the margin-1 interior of its first `dim` axes; a
    one-node axis is kept whole."""
    vals = np.abs(interior(arr, CURVATURE_MARGIN, dim))
    if vals.size == 0:
        raise GridError(f"an axis of {arr.shape[:dim]} leaves no "
                        f"margin-{CURVATURE_MARGIN} interior")
    if not np.all(np.isfinite(vals)):
        raise GridError("non-finite values inside the valid interior")
    return float(vals.max())


def riemann_max(grid: MetricGrid) -> float:
    """Componentwise max |R^a_{bcd}| over the valid interior."""
    _, g = collapse_constant(grid.components, grid.dim)
    return max(interior_max(_raised(*_lowered(g[win], grid.steps)), grid.dim)
               for win, _, _ in _slabs(g))


def einstein_residual(grid: MetricGrid, lam: float) -> float:
    """Componentwise max |Ric - lam g| over the valid interior. A lam
    whose product with g is not finite raises GridError."""
    _, g = collapse_constant(grid.components, grid.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_g = lam * g
    if not np.all(np.isfinite(lam_g)):
        raise GridError(f"lam * g is not finite for lam = {lam!r}")
    return max(interior_max(_ricci(*_lowered(g[win], grid.steps))
                            - lam_g[win], grid.dim)
               for win, _, _ in _slabs(g))


def gauss_curvature_2d(grid: MetricGrid) -> np.ndarray:
    """Gauss curvature of a 2D metric grid; NaN margin 1."""
    if grid.dim != 2:
        raise GridError("gauss_curvature_2d needs a 2D grid")
    g = grid.components
    out = np.empty(grid.counts)
    for win, own, rows in _slabs(g):
        out[rows] = (_curvature(g[win], grid.steps)[1][0, 0]
                     / det(g[win]))[own]
    return out


def laplace_beltrami(grid: MetricGrid, u: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator applied to scalar samples u; NaN margin 1.

    Divergence form (1/sqrt g) d_i (sqrt g g^{ij} d_j u): the diagonal flux
    terms use the compact staggered conservative stencil, the cross terms
    chain two central passes.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != grid.counts:
        raise GridError(f"scalar shape {u.shape} != grid shape {grid.counts}")
    out = np.empty_like(u)
    for win, own, rows in _slabs(grid.components):
        out[rows] = _divergence(grid.components[win], u[win], grid.steps)[own]
    return out


def _divergence(g: np.ndarray, u: np.ndarray, steps) -> np.ndarray:
    """laplace_beltrami of u on the metric components g."""
    d = len(steps)
    dets, ginv = _inverse_metric(g)
    sqrtg = np.sqrt(dets)
    weights = sqrtg[..., None, None] * ginv
    div = np.zeros_like(u)
    for i in range(d):
        div = div + _staggered_div(weights[..., i, i], u, steps[i], i)
    if d > 1:
        du = np.stack(
            [central_diff(u, steps[m], m) for m in range(d)], axis=-1)
        for i in range(d):
            for j in range(d):
                if i != j:
                    div = div + central_diff(weights[..., i, j] * du[..., j],
                                             steps[i], i)
    return div / sqrtg


def _staggered_div(a: np.ndarray, u: np.ndarray, step: float, axis: int) -> np.ndarray:
    """(a u')' via half-node fluxes with arithmetic-mean coefficients;
    exact zeros along a one-node axis, as central_diff gives."""
    if u.shape[axis] == 1:
        return np.zeros_like(u)
    out = np.full_like(u, np.nan)
    up, u0, um = shift(u, axis, +1), shift(u, axis, 0), shift(u, axis, -1)
    ap = 0.5 * (shift(a, axis, +1) + shift(a, axis, 0))
    am = 0.5 * (shift(a, axis, 0) + shift(a, axis, -1))
    idx = [slice(None)] * u.ndim
    idx[axis] = slice(1, -1)
    out[tuple(idx)] = (ap * (up - u0) - am * (u0 - um)) / (step * step)
    return out


def exterior_derivative_closedness(form: TwoFormGrid) -> float:
    """Max component of the finite-difference exterior derivative d(omega).

    In dimension 2 there are no 3-forms and the result is exactly zero.
    """
    d = form.dim
    if d < 3:
        return 0.0
    w = form.components
    return max(interior_max(central_diff(w[..., j, k], form.steps[i], i)
                             - central_diff(w[..., i, k], form.steps[j], j)
                             + central_diff(w[..., i, j], form.steps[k], k), d)
               for i, j, k in combinations(range(d), 3))


@dataclass(frozen=True)
class OrderFit:
    """Least-squares convergence order from a resolution sweep."""

    order: float | None
    below_floor: bool


def convergence_order(spacings, residuals) -> OrderFit:
    """Fit residual ~ C h^p through (spacing, residual) pairs.

    Requires at least three spacings in geometric progression. Residuals at
    or below ORDER_FLOOR admit no log-log fit and yield below_floor=True;
    negative residuals are rejected.
    """
    h = np.asarray(spacings, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    if h.shape != r.shape or h.ndim != 1 or h.size < 3:
        raise ValueError("need at least three (spacing, residual) pairs")
    if np.any(h <= 0.0):
        raise ValueError("spacings must be positive")
    ratios = h[1:] / h[:-1]
    if np.any(np.abs(ratios / ratios[0] - 1.0) > 1e-6) or abs(ratios[0] - 1.0) < 1e-12:
        raise ValueError("spacings must form a geometric progression")
    if np.any(r < 0.0):
        raise ValueError("residuals must be nonnegative")
    if np.any(r <= ORDER_FLOOR):
        return OrderFit(order=None, below_floor=True)
    slope = np.polyfit(np.log(h), np.log(r), 1)[0]
    return OrderFit(order=float(slope), below_floor=False)
