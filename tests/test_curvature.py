import ast
import importlib.util
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keflow import bianchi as bi
from keflow import curvature
from keflow import e2flow as e2
from keflow import leafpde as lp
from keflow.curvature import (christoffel, convergence_order,
                              einstein_residual,
                              exterior_derivative_closedness,
                              gauss_curvature_2d, interior_max,
                              laplace_beltrami, ricci, riemann_lowered,
                              riemann_max)
from keflow.errors import GridError
from keflow.grids import (Axis, MetricGrid, TwoFormGrid, central_diff,
                          collapse_constant, constant_axes, det, interior,
                          mixed_diff, second_diff)

# criterion 02's and 10's grid builders, loaded by path so that this file
# imports under any pytest import mode
_spec = importlib.util.spec_from_file_location(
    "acceptance_grids", Path(__file__).with_name("test_acceptance.py"))
acceptance = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(acceptance)


def grid2(f, x0, y0, h, n):
    axes = (Axis("x", x0, h, n), Axis("y", y0, h, n))
    X, Y = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
    g = np.zeros((n, n, 2, 2))
    gxx, gxy, gyy = f(X, Y)
    g[..., 0, 0] = gxx
    g[..., 0, 1] = gxy
    g[..., 1, 0] = gxy
    g[..., 1, 1] = gyy
    return MetricGrid(axes, g)


def sphere_patch(h=1e-3, n=9):
    return grid2(lambda T, P: (np.ones_like(T), np.zeros_like(T),
                               np.sin(T) ** 2), 0.6, 0.0, h, n)


def hyperbolic_patch(h=1e-3, n=9):
    return grid2(lambda X, Y: (1.0 / (2.0 * Y ** 2), np.zeros_like(X),
                               1.0 / (2.0 * Y ** 2)), 0.0, 1.0, h, n)


def test_sphere_gauss_curvature_is_one():
    K = interior(gauss_curvature_2d(sphere_patch()), 1, 2)
    assert np.max(np.abs(K - 1.0)) < 1e-5


def test_sphere_is_einstein_with_lambda_one():
    g = sphere_patch()
    assert einstein_residual(g, 1.0) < 1e-5
    R = ricci(g)
    asym = np.abs(R - np.swapaxes(R, -1, -2))
    assert np.nanmax(interior(asym, 1, 2)) < 1e-9


def test_hyperbolic_plane_curvature_minus_two():
    g = hyperbolic_patch()
    K = interior(gauss_curvature_2d(g), 1, 2)
    assert np.max(np.abs(K + 2.0)) < 1e-5
    assert einstein_residual(g, -2.0) < 1e-5


def test_laplace_beltrami_on_hyperbolic_log():
    g = hyperbolic_patch()
    Y = np.meshgrid(*(ax.nodes for ax in g.axes), indexing="ij")[1]
    lap = interior(laplace_beltrami(g, np.log(Y)), 1, 2)
    assert np.max(np.abs(lap + 2.0)) < 1e-5


def test_laplace_beltrami_one_node_axis_is_the_padded_middle_column():
    # a conformal factor and a scalar that vary in x only: along the
    # one-node y axis every difference is an exact zero, so the 9x1 cut
    # holds the padded grid's middle column bit for bit, NaN margin included
    x = Axis("x", 1.0, 1e-2, 9)
    factor = 1.0 / (2.0 * x.nodes ** 2)
    out = []
    for ny in (1, 5):
        g = np.zeros((9, ny, 2, 2))
        g[..., 0, 0] = g[..., 1, 1] = factor[:, None]
        grid = MetricGrid((x, Axis("y", 0.0, 1e-2, ny)), g)
        out.append(laplace_beltrami(grid, np.broadcast_to(
            np.log(x.nodes)[:, None], (9, ny))))
    assert np.all(np.isfinite(out[0][1:-1]))
    assert out[0].tobytes() == out[1][:, 2:3].tobytes()


def test_polar_coordinates_flat():
    g = grid2(lambda R, T: (np.ones_like(R), np.zeros_like(R), R ** 2),
              1.0, 0.0, 1e-3, 9)
    G = christoffel(g)
    R = np.meshgrid(*(ax.nodes for ax in g.axes), indexing="ij")[0]
    err = np.abs(interior(G[..., 0, 1, 1], 1, 2) + interior(R, 1, 2))
    assert np.nanmax(err) < 1e-12
    assert riemann_max(g) < 1e-8


def test_closedness_vanishes_in_2d():
    n = 9
    axes = (Axis("x", 0.0, 0.1, n), Axis("y", 0.0, 0.1, n))
    w = np.zeros((n, n, 2, 2))
    w[..., 0, 1] = 1.0
    w[..., 1, 0] = -1.0
    form = TwoFormGrid(axes, w)
    assert exterior_derivative_closedness(form) == 0.0


def _form4(fn):
    n = 7
    axes = tuple(Axis(nm, 0.0, 0.05, n) for nm in "txyz")
    T, X, Y, Z = np.meshgrid(*[ax.nodes for ax in axes], indexing="ij")
    w = np.zeros((n, n, n, n, 4, 4))
    w[..., 0, 1] = fn(T, X, Y, Z)
    w[..., 1, 0] = -w[..., 0, 1]
    w[..., 2, 3] = 1.0
    w[..., 3, 2] = -1.0
    return TwoFormGrid(axes, w)


def test_closedness_detects_nonclosed_form():
    closed = _form4(lambda T, X, Y, Z: 1.0 + T + 3.0 * X)
    assert exterior_derivative_closedness(closed) < 1e-10
    bad = _form4(lambda T, X, Y, Z: Y)
    assert exterior_derivative_closedness(bad) > 0.5


def test_convergence_order_quadratic_data():
    hs = [4e-3, 2e-3, 1e-3]
    fit = convergence_order(hs, [3.0 * h ** 2 for h in hs])
    assert abs(fit.order - 2.0) < 1e-12
    assert not fit.below_floor


def test_convergence_order_floor_and_errors():
    hs = [4e-3, 2e-3, 1e-3]
    fit = convergence_order(hs, [1e-16, 2e-16, 5e-17])
    assert fit.below_floor
    with pytest.raises(ValueError):
        convergence_order([1e-2, 5e-3], [1.0, 0.25])
    with pytest.raises(ValueError):
        convergence_order([4e-3, 3e-3, 2e-3], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        convergence_order(hs, [1.0, -0.5, 0.25])


def test_generic_metric_curvature_converges():
    def gen(X, Y):
        return (2.0 + np.sin(X + Y), 0.3 * np.cos(X) * np.sin(Y),
                1.5 + 0.5 * np.cos(2.0 * Y) + 0.1 * X * X)

    vals = []
    for h in [4e-3, 2e-3, 1e-3]:
        axes = (Axis("x", 0.3 - 4 * h, h, 9), Axis("y", 0.4 - 4 * h, h, 9))
        X, Y = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
        g = np.zeros((9, 9, 2, 2))
        gxx, gxy, gyy = gen(X, Y)
        g[..., 0, 0] = gxx
        g[..., 0, 1] = g[..., 1, 0] = gxy
        g[..., 1, 1] = gyy
        vals.append(gauss_curvature_2d(MetricGrid(axes, g))[4, 4])
    # second-order stencils: successive differences shrink about 4x
    d = np.abs(np.diff(vals))
    assert 3.0 < d[0] / d[1] < 5.0


def hyperbolic_4d(h):
    """H^4 as the upper half space, g = delta / w^2, on 7^4 nodes centred
    at w = 1: Ric = -3 g, and |R^a_{bab}| = 1/w^2 peaks on the lowest
    interior row, w = 1 - 2h."""
    axes = ((Axis("w", 1.0 - 3 * h, h, 7),)
            + tuple(Axis(nm, -3 * h, h, 7) for nm in "xyz"))
    g = np.zeros((7,) * 4 + (4, 4))
    for a in range(4):
        g[..., a, a] = (1.0 / axes[0].nodes ** 2)[:, None, None, None]
    return MetricGrid(axes, g)


def test_hyperbolic_4_space_converges_to_its_exact_curvature():
    # the one 4D check of a nonzero Ricci tensor against its exact value:
    # 1.49e-4, 3.66e-5, 9.07e-6 and 6.6e-5, 1.6e-5, 4.0e-6
    hs = [4e-3, 2e-3, 1e-3]
    grids = [hyperbolic_4d(h) for h in hs]
    einstein = [einstein_residual(grid, -3.0) for grid in grids]
    rmax_err = [abs(riemann_max(grid) - 1.0 / (1.0 - 2.0 * h) ** 2)
                for grid, h in zip(grids, hs)]
    for residuals in (einstein, rmax_err):
        assert 1.8 <= convergence_order(hs, residuals).order <= 2.2


# The scalar checks evaluate one slice per symmetry axis; `ricci` and the
# test's own `riemann` evaluate every node and serve as the oracle.

def full_einstein(grid, lam):
    return interior_max(ricci(grid) - lam * grid.components, grid.dim)


def full_riemann(grid):
    return interior_max(riemann(grid), grid.dim)


def assert_parity(grid, lam):
    for reduced, full in [(einstein_residual(grid, lam),
                           full_einstein(grid, lam)),
                          (riemann_max(grid), full_riemann(grid))]:
        assert abs(reduced - full) <= 1e-12 * full


@pytest.fixture(scope="module")
def e2_traj():
    return e2.shoot_unstable(1.0, 1e-5, b_max=100.0, tol=1e-12)


def e2_grid(traj, h):
    # criterion 07's grid
    tmid = traj.t[int(np.searchsorted(traj.column("b"), 1.0))]
    return e2.e2_metric_grid(traj, Axis("t", tmid - 3 * h, h, 7),
                             Axis("theta", 0.7 - 3 * h, h, 7),
                             Axis("x", -2 * h, h, 5), Axis("y", -2 * h, h, 5))


@pytest.mark.parametrize("h", [4e-3, 2e-3, 1e-3])
def test_reduced_checks_match_full_grid_on_torus(h):
    grid = acceptance.torus_grid(h)
    assert constant_axes(grid.components, grid.dim) == (1, 2, 3)
    assert_parity(grid, 0.0)


@pytest.mark.parametrize("h", [4e-3, 2e-3, 1e-3])
def test_reduced_checks_match_full_grid_on_e2(e2_traj, h):
    grid = e2_grid(e2_traj, h)
    assert constant_axes(grid.components, grid.dim) == (1, 2)
    assert_parity(grid, -1.0)


def test_reduced_checks_match_full_grid_on_pipeline():
    _, g4, _ = acceptance.leaf_pipeline(1e-3)
    assert constant_axes(g4.components, g4.dim) == (2, 3)
    assert_parity(g4, 0.0)


def pad_killing_axes(grid, count=5):
    """grid with every one-node axis broadcast to `count` nodes."""
    axes = tuple(Axis(ax.name, ax.start, ax.step, count) if ax.count == 1
                 else ax for ax in grid.axes)
    shape = tuple(ax.count for ax in axes) + (grid.dim, grid.dim)
    return type(grid)(axes, np.broadcast_to(grid.components, shape))


def killing_builds(traj):
    """(metric, form, lam) from each builder, its Killing directions
    one-node axes: criterion 10's pipeline, the torus, E(2)."""
    _, g4, w4 = acceptance.leaf_pipeline(1e-3)
    h = 1e-3
    consts = bi.ClosedFormConstants(alpha=0.6, a0=0.8, b0=0.75)
    t_axis = Axis("t", 0.1, h, 7)
    abc = np.array([[s.a, s.b, s.c] for s in
                    (bi.closed_form("torus", consts, t)
                     for t in t_axis.nodes)]).T
    torus = bi.type_a_grids(bi.closed_form_params("torus", consts), abc,
                            abc[0] * abc[1] * abc[2],
                            (t_axis, None, None, None))
    tmid = traj.t[int(np.searchsorted(traj.column("b"), 1.0))]
    r_axis = Axis("r", tmid - 3 * h, h, 7)
    theta_axis = Axis("theta", 0.7 - 3 * h, h, 7)
    e2_grids = (e2.e2_metric_grid(traj, r_axis, theta_axis),
                e2.e2_kahler_form_grid(traj, r_axis, theta_axis))
    return [(g4, w4, 0.0), (*torus, 0.0), (*e2_grids, -1.0)]


def test_one_node_axes_match_the_padded_grids(e2_traj):
    for g, w, lam in killing_builds(e2_traj):
        one = tuple(m for m, n in enumerate(g.counts) if n == 1)
        assert one and set(one) <= set(constant_axes(g.components, g.dim))
        g5, w5 = pad_killing_axes(g), pad_killing_axes(w)
        assert (constant_axes(g5.components, g5.dim)
                == constant_axes(g.components, g.dim))
        assert einstein_residual(g, lam) == einstein_residual(g5, lam)
        assert riemann_max(g) == riemann_max(g5)
        assert (exterior_derivative_closedness(w)
                == exterior_derivative_closedness(w5))
        # the full-grid oracle on the padded grid
        assert_parity(g5, lam)
        first = tuple(slice(0, 1) if m in one else slice(None)
                      for m in range(4))
        assert np.array_equal(interior(riemann(g), 1, 4),
                              interior(riemann(g5), 1, 4)[first])


def test_one_ulp_breaks_symmetry_and_parity_holds():
    grid = acceptance.torus_grid(1e-3)
    g = grid.components.copy()
    # one x slab: x stops being a symmetry axis, y and z stay
    g[:, 2, :, :, 1, 1] = np.nextafter(g[:, 2, :, :, 1, 1], np.inf)
    slab = MetricGrid(grid.axes, g)
    assert constant_axes(slab.components, slab.dim) == (2, 3)
    assert_parity(slab, 0.0)
    # one node: no axis through it is constant any more
    g = grid.components.copy()
    g[3, 2, 2, 3, 3, 3] = np.nextafter(g[3, 2, 2, 3, 3, 3], np.inf)
    node = MetricGrid(grid.axes, g)
    assert constant_axes(node.components, node.dim) == ()
    assert_parity(node, 0.0)


def test_constant_metric_is_exactly_flat():
    axes = tuple(Axis(nm, 0.0, 0.1, 5) for nm in "txyz")
    c = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.5, 0.2, 0.0],
                  [0.0, 0.2, 1.0, 0.0], [0.1, 0.0, 0.0, 3.0]])
    grid = MetricGrid(axes, np.broadcast_to(c, (5, 5, 5, 5, 4, 4)))
    assert constant_axes(grid.components, grid.dim) == (0, 1, 2, 3)
    assert einstein_residual(grid, 0.0) == 0.0
    assert riemann_max(grid) == 0.0
    assert full_riemann(grid) == 0.0


def test_sphere_patch_has_one_symmetry_axis():
    grid = sphere_patch()
    assert constant_axes(grid.components, grid.dim) == (1,)
    assert_parity(grid, 1.0)


def test_checker_imports_only_numpy_stdlib_grids_errors():
    tree = ast.parse(Path(curvature.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.level == 1 and node.module in ("grids", "errors")
                continue
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, root


# Reference oracle: the curvature core as it was before the pair blocks,
# all d^4 components of R_abcd from LAPACK inverses and unreduced einsums.

def oracle_inverse(g):
    ginv = np.linalg.inv(g)
    return 0.5 * (ginv + np.swapaxes(ginv, -1, -2))


def oracle_curvature(g, steps):
    d = len(steps)
    dg = np.zeros(g.shape + (d,))
    for m in range(d):
        dg[..., m] = central_diff(g, steps[m], m)
    ginv = oracle_inverse(g)
    t1 = np.swapaxes(dg, -1, -2)
    t3 = np.moveaxis(dg, -1, -3)
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, t1 + dg - t3)
    ddg = np.zeros(g.shape + (d, d))
    for m in range(d):
        ddg[..., m, m] = second_diff(g, steps[m], m)
        for n in range(m + 1, d):
            cross = mixed_diff(g, steps[m], m, steps[n], n)
            ddg[..., m, n] = cross
            ddg[..., n, m] = cross
    deriv = 0.5 * (np.einsum("...adbc->...abcd", ddg)
                   + np.einsum("...bcad->...abcd", ddg)
                   - np.einsum("...bdac->...abcd", ddg)
                   - np.einsum("...acbd->...abcd", ddg))
    quad = np.einsum("...ef,...ebc,...fad->...abcd", g, gamma, gamma,
                     optimize=True)
    return ginv, deriv + quad - np.swapaxes(quad, -1, -2)


def oracle_ricci(ginv, lowered):
    """Ric[..., b, d] = g^ae R_ebad, contracted by einsum over all d^4
    components of R_abcd."""
    return np.einsum("...ae,...ebad->...bd", ginv, lowered)


def oracle_raised(ginv, lowered):
    """R^a_{bcd} = g^ae R_ebcd, all d^4 components, by einsum."""
    return np.einsum("...ae,...ebcd->...abcd", ginv, lowered)


def oracle_checks(grid, lam):
    """(einstein_residual, riemann_max) of the oracle on the same slice."""
    _, g = collapse_constant(grid.components, grid.dim)
    ginv, low = oracle_curvature(g, grid.steps)
    return (interior_max(oracle_ricci(ginv, low) - lam * g, grid.dim),
            interior_max(oracle_raised(ginv, low), grid.dim))


# Frozen reference: the curvature core as it was before it went
# component-major and differenced only the second derivatives the pair
# blocks read, copied verbatim but for the names. Same operations, same
# summation order, so the lowered tensor, the Christoffel symbols, the
# Gauss curvature and riemann_max must match it bit for bit. Ricci is now
# summed from the blocks pair by pair, not by the einsum over all d^4
# components, so ricci and einstein_residual move in the last bits and
# are held to 1e-12 of their scale.

def frozen_contract(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_l m[..., k, l] t[..., l, i, j], summed in the order of l."""
    return sum(m[..., :, l, None, None] * t[..., None, l, :, :]
               for l in range(m.shape[-1]))


def frozen_connection(g: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric and Christoffel symbols Gamma[..., k, i, j] of g.

    g holds components with the node axes leading; every axis of more
    than one node gets a NaN boundary layer. Gamma is exactly symmetric in
    (i, j).
    """
    d = len(steps)
    dg = np.empty(g.shape + (d,))     # dg[..., i, j, m] = d g_ij / d x_m
    for m in range(d):
        dg[..., m] = central_diff(g, steps[m], m)
    _, ginv = curvature._inverse_metric(g)
    t1 = np.swapaxes(dg, -1, -2)          # [l, i, j] = d_i g_lj
    t2 = dg                               # [l, i, j] = d_j g_li
    t3 = np.moveaxis(dg, -1, -3)          # [l, i, j] = d_l g_ij
    return ginv, 0.5 * frozen_contract(ginv, t1 + t2 - t3)


def frozen_curvature(g: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric and lowered curvature R[..., a, b, c, d] = R_abcd of g.

    The one curvature core: the array functions call it on the full grid,
    the scalar checks on one slice per symmetry axis.
    """
    d = len(steps)
    ddg = np.empty(g.shape + (d, d))  # ddg[..., i, j, m, n] = d^2 g_ij / dx_m dx_n
    for m in range(d):
        ddg[..., m, m] = second_diff(g, steps[m], m)
        for n in range(m + 1, d):
            cross = mixed_diff(g, steps[m], m, steps[n], n)
            ddg[..., m, n] = cross
            ddg[..., n, m] = cross
    ginv, gamma = frozen_connection(g, steps)
    glow = frozen_contract(g, gamma)            # [f, i, l] = g_fe Gamma^e_il
    # R_ijkl on the pair blocks: row p is (i, j) = pairs[p], column q is
    # (k, l) = pairs[q]
    lo, hi = np.array(list(combinations(range(d), 2))).T
    i, j, k, l = lo[:, None], hi[:, None], lo, hi
    blocks = (0.5 * (ddg[..., i, l, j, k] + ddg[..., j, k, i, l]
                     - ddg[..., j, l, i, k] - ddg[..., i, k, j, l])
              + sum(gamma[..., f, j, k] * glow[..., f, i, l] for f in range(d))
              - sum(gamma[..., f, j, l] * glow[..., f, i, k] for f in range(d)))
    R = np.zeros(g.shape[:-2] + (d,) * 4)
    R[..., i, j, k, l] = blocks
    R[..., j, i, l, k] = blocks
    R[..., j, i, k, l] = -blocks
    R[..., i, j, l, k] = -blocks
    # the zero entries keep the NaN margin of the computed ones
    R[np.isnan(blocks[..., 0, 0])] = np.nan
    return ginv, R


def riemann(grid):
    """R[..., a, b, c, d] = R^a_{bcd}, every component g^ae R_ebcd of the
    frozen core's scatter; NaN margin 1."""
    return oracle_raised(*frozen_curvature(grid.components, grid.steps))


def assert_bits(new, old):
    """Equal bit for bit (int64 view), NaN margin included."""
    new, old = np.asarray(new, np.float64), np.asarray(old, np.float64)
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def assert_matches_frozen(grid, lam):
    g = grid.components
    ginv, low = frozen_curvature(g, grid.steps)
    assert_bits(riemann_lowered(grid), low)
    assert_close_arrays(ricci(grid), oracle_ricci(ginv, low))
    assert_bits(christoffel(grid), frozen_connection(g, grid.steps)[1])
    if grid.dim == 2:
        assert_bits(gauss_curvature_2d(grid),
                    low[..., 0, 1, 0, 1] / det(g))
    _, g = collapse_constant(g, grid.dim)
    ginv, low = frozen_curvature(g, grid.steps)
    assert_close_arrays(einstein_residual(grid, lam),
                        interior_max(oracle_ricci(ginv, low) - lam * g,
                                     grid.dim))
    assert_bits(riemann_max(grid),
                interior_max(oracle_raised(ginv, low), grid.dim))


def assert_close_arrays(new, old):
    assert np.array_equal(np.isnan(new), np.isnan(old))
    scale = np.nanmax(np.abs(old))
    assert np.nanmax(np.abs(new - old)) <= 1e-12 * scale


def assert_matches_oracle(grid, lam):
    assert_matches_frozen(grid, lam)
    ginv, low = oracle_curvature(grid.components, grid.steps)
    R = riemann_lowered(grid)
    assert_close_arrays(R, low)
    assert_close_arrays(ricci(grid), oracle_ricci(ginv, low))
    # exact antisymmetry in each index pair, NaN margin included
    assert np.array_equal(np.swapaxes(R, -4, -3), -R, equal_nan=True)
    assert np.array_equal(np.swapaxes(R, -2, -1), -R, equal_nan=True)
    einstein, rmax = oracle_checks(grid, lam)
    assert abs(einstein_residual(grid, lam) - einstein) <= 1e-12 * einstein
    assert abs(riemann_max(grid) - rmax) <= 1e-12 * rmax


# frequencies, amplitudes and phases bounded away from zero, so that the
# curvature is well above the rounding of the terms it is summed from
coeffs = st.lists(st.floats(0.5, 2.0), min_size=12, max_size=12)


@settings(max_examples=40, deadline=None)
@given(c=coeffs, h=st.sampled_from([1e-2, 3e-3, 1e-3]))
def test_pair_blocks_match_oracle_on_sheared_2d(c, h):
    def sheared(X, Y):
        return (1.5 + 0.4 * np.sin(c[0] * X + c[1] * Y + c[2]),
                0.2 * c[6] * np.sin(c[3] * X - c[4] * Y + c[5]),
                1.5 + 0.2 * c[10] * np.cos(c[7] * X + c[8] * Y + c[9]))

    grid = grid2(sheared, c[11], 0.3, h, 9)
    assert_matches_oracle(grid, 0.0)


@settings(max_examples=25, deadline=None)
@given(c=coeffs, const=st.sets(st.integers(0, 3), max_size=3))
def test_pair_blocks_match_oracle_in_4d(c, const):
    # each coordinate in `const` is left out, so that axis is exactly
    # constant and the scalar checks run on one slice along it
    n, h = 5, 2e-2
    axes = tuple(Axis(nm, 0.1 * k, h, n) for k, nm in enumerate("txyz"))
    mesh = np.meshgrid(*[ax.nodes for ax in axes], indexing="ij")
    phase = sum(0.0 if m in const else c[m] * mesh[m] for m in range(4))
    g = np.zeros((n,) * 4 + (4, 4))
    for a in range(4):
        g[..., a, a] = 2.0 + 0.5 * np.sin(phase + c[4 + a])
    for a, b in [(0, 1), (1, 3), (2, 3)]:
        g[..., a, b] = g[..., b, a] = 0.3 * c[8 + a] * np.cos(phase + c[9 + a])
    grid = MetricGrid(axes, g)
    assert set(constant_axes(grid.components, grid.dim)) == const
    assert_matches_oracle(grid, 0.0)


def test_pair_blocks_match_oracle_on_acceptance_grids(e2_traj):
    assert_matches_oracle(acceptance.torus_grid(2e-3), 0.0)
    assert_matches_oracle(e2_grid(e2_traj, 2e-3), -1.0)
    assert_matches_oracle(sphere_patch(), 1.0)


def test_two_by_two_inverse_is_exactly_symmetric():
    g = grid2(lambda X, Y: (2.0 + np.sin(X + Y), 0.3 * np.cos(X) * np.sin(Y),
                            1.5 + 0.1 * X * X), 0.3, 0.4, 1e-2, 9).components
    dets, ginv = curvature._inverse_metric(g)
    assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))
    assert np.array_equal(dets, g[..., 0, 0] * g[..., 1, 1]
                          - g[..., 0, 1] * g[..., 1, 0])
    ref = oracle_inverse(g)
    assert np.max(np.abs(ginv - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("off", [1.0, 2.0, np.nan])
def test_singular_2x2_node_is_named(off):
    # the inverse is the adjugate over the determinant, so a node whose
    # determinant is zero, negative or NaN must still raise, not divide
    g = np.zeros((7, 9, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 1.0
    g[2, 5, 0, 1] = g[2, 5, 1, 0] = off
    with pytest.raises(GridError, match=r"not invertible at node \(2, 5\)"):
        curvature._connection(g, (0.1, 0.1))


@settings(max_examples=40, deadline=None)
@given(dets=st.lists(st.floats(-4.0, 4.0), min_size=63, max_size=63))
def test_minor_check_names_lapacks_first_failing_node(dets):
    # the first failing node is the argmin of the 2x2 minors; with the
    # closed-form determinant it is the node LAPACK's determinants name
    axes = (Axis("x", 0.0, 0.1, 7), Axis("y", 0.0, 0.1, 9))
    g = np.zeros((7, 9, 2, 2))
    g[..., 0, 0] = 2.0
    g[..., 0, 1] = g[..., 1, 0] = 1.0
    g[..., 1, 1] = (np.reshape(dets, (7, 9)) + 1.0) / 2.0
    minors = np.linalg.det(g)
    if np.all(minors > 0.0):
        MetricGrid(axes, g)
        return
    node = tuple(int(i) for i in np.unravel_index(np.argmin(minors), (7, 9)))
    with pytest.raises(GridError) as err:
        MetricGrid(axes, g)
    assert str(err.value) == ("metric not positive-definite: minor 2 fails "
                              f"at node {node}")


# Row slabs: the five entry points evaluate node axis 0 slab by slab, and
# must give the whole grid's bits at any slab size. The grids are the
# README leaf (257 rows; phi varies along both axes) and the pde-sweep
# metric (45x47x1x1, criterion 10's pipeline at h = 1e-2).

@pytest.fixture(scope="module")
def slab_grids():
    n = 257
    spec = lp.leaf_spec(Axis("x", 0.0, 1.0 / (n - 1), n),
                        Axis("y", 1.0, 1.0 / (n - 1), n), h="x")
    leaf, K = lp.leaf_metric(spec)
    _, sweep, _ = acceptance.leaf_pipeline(1e-2, span=0.48)
    x, y = (ax.nodes for ax in sweep.axes[:2])
    u = np.sin(3.0 * x)[:, None, None, None] * np.exp(y)[None, :, None, None]
    assert leaf.counts == (n, n) and sweep.counts == (45, 47, 1, 1)
    return (leaf, np.log(K), -2.0), (sweep, u, 0.0)


def whole_grid(grid, u, lam):
    """The five entry points' values computed on the whole grid at once."""
    g, steps, d = grid.components, grid.steps, grid.dim
    arrays = [curvature._divergence(g, u, steps),
              curvature._ricci(curvature._raised(g, steps))]
    if d == 2:
        arrays.append(curvature._curvature(g, steps)[1][0, 0] / det(g))
    _, g = collapse_constant(g, d)
    H = curvature._raised(g, steps)
    return arrays, (interior_max(curvature._ricci(H) - lam * g, d),
                    interior_max(np.moveaxis(H, (0, 1, 2), (-3, -2, -1)), d))


def by_slabs(grid, u, lam):
    arrays = [laplace_beltrami(grid, u), ricci(grid)]
    if grid.dim == 2:
        arrays.append(gauss_curvature_2d(grid))
    return arrays, (einstein_residual(grid, lam), riemann_max(grid))


# one-row slabs; 16 rows of the leaf and 11 of the sweep metric, so that
# the last slab of each is partial (255 = 15 * 16 + 15, 43 = 3 * 11 + 10);
# one slab
@pytest.mark.parametrize("slab_bytes", [1, 2 ** 18 + 2 ** 14, 2 ** 40])
def test_slabs_tile_the_whole_grid_bit_for_bit(slab_grids, monkeypatch,
                                               slab_bytes):
    monkeypatch.setattr(curvature, "SLAB_BYTES", slab_bytes)
    for grid, u, lam in slab_grids:
        arrays, maxima = by_slabs(grid, u, lam)
        ref_arrays, ref_maxima = whole_grid(grid, u, lam)
        for new, old in zip(arrays, ref_arrays):
            assert_bits(new, old)
        assert maxima == ref_maxima


def criterion_07_grid(h=1e-3):
    """Criterion 07's E(2) grid, 7 x 7 x 5 x 5 nodes on (t, theta, x, y)
    about the shoot's b = 1 point."""
    traj = e2.shoot_unstable(1.0, 1e-5, b_max=100.0, tol=1e-12)
    tmid = traj.t[int(np.searchsorted(traj.column("b"), 1.0))]
    return e2.e2_metric_grid(traj, Axis("t", tmid - 3 * h, h, 7),
                             Axis("theta", 0.7 - 3 * h, h, 7),
                             Axis("x", -2 * h, h, 5), Axis("y", -2 * h, h, 5))


def test_slabs_run_the_algebra_on_their_own_rows(monkeypatch):
    # two rows per slab on criterion 07's grid: the stencils read the
    # windows [0, 4), [2, 6) and [4, 7) of its 7 rows, the node-wise
    # algebra, counted at the inverse metric, only each slab's own rows:
    # 7 for ricci (11, the windows, before), and for the scalar checks,
    # on the grid cut to 7 x 7 x 1 x 1 and one slab, the 5 interior rows
    grid = criterion_07_grid()
    g, steps = grid.components, grid.steps
    ref = curvature._ricci(curvature._raised(g, steps))
    _, cut = collapse_constant(g, 4)
    H = curvature._raised(cut, steps)
    ref_checks = (interior_max(curvature._ricci(H) + cut, 4),
                  interior_max(np.moveaxis(H, (0, 1, 2), (-3, -2, -1)), 4))
    rows = []

    def inverse(g, _inverse=curvature._inverse_metric):
        rows.append(g.shape[0])
        return _inverse(g)

    monkeypatch.setattr(curvature, "_inverse_metric", inverse)
    assert_bits(ricci(grid), ref)
    assert rows == [3, 2, 2]
    rows.clear()
    assert (einstein_residual(grid, -1.0), riemann_max(grid)) == ref_checks
    assert rows == [5, 5]


def test_stencils_skip_one_node_axes_and_read_halo_rows_on_axis_0_only(
        slab_grids, monkeypatch):
    # the shapes that the core's stencils receive, slab by slab: its
    # arrays are component-major, so node axis m is array axis m + 1 and
    # array axis 1 counts rows. No stencil runs along an axis of one node
    # (its differences are exact zeros), and only those along node axis 0
    # read the window's halo rows
    calls = []

    def slabs(g, inner=False, _slabs=curvature._slabs):
        for win, rows in _slabs(g, inner):
            calls.append(("slab", win.stop - win.start,
                          rows.stop - rows.start))
            yield win, rows

    def recording(stencil):
        def run(*args):
            calls.append(("stencil", args[-3].shape, args[-1]))
            return stencil(*args)
        return run

    monkeypatch.setattr(curvature, "_slabs", slabs)
    monkeypatch.setattr(curvature, "central_diff", recording(central_diff))
    monkeypatch.setattr(curvature, "second_diff", recording(second_diff))
    sweep = slab_grids[1][0]
    for grid in (sweep, criterion_07_grid()):
        for check in (ricci, lambda g: einstein_residual(g, 0.0),
                      riemann_max):
            calls.clear()
            check(grid)
            axes = set()
            for kind, a, b in calls:
                if kind == "slab":
                    window, own = a, b
                    continue
                shape, axis = a, b
                assert shape[axis] > 1
                assert shape[1] == (window if axis == 1 else own)
                axes.add(axis - 1)
            # the sweep metric's u, v and criterion 07's cut theta, x are
            # one-node axes of the scalar checks
            assert axes == ({0, 1} if grid is sweep
                            else {0, 1, 2, 3} if check is ricci else {0, 3})
    # laplace_beltrami on the leaf, per slab: the fluxes along axis 1 run
    # on the own rows; those along axis 0 read the window, and with them
    # both first differences of u
    monkeypatch.setattr(curvature, "_staggered_div",
                        recording(curvature._staggered_div))
    leaf, logK, _ = slab_grids[0]
    calls.clear()
    laplace_beltrami(leaf, logK)
    slabs = []
    for kind, a, b in calls:
        if kind == "slab":
            slabs.append(((a, b), []))
        else:
            slabs[-1][1].append((a[0], b))
    assert len(slabs) == 17
    for (window, own), seen in slabs:
        assert seen == [(window, 0), (own, 1), (window, 0), (window, 1),
                        (window, 0), (own, 1)]


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_slabs_bound_the_peak_memory(slab_grids):
    # whole-grid peaks: 26.2, 8.2, 8.7 and 8.5 MB
    (leaf, logK, _), (sweep, _, _) = slab_grids
    assert traced_peak_mb(lambda: gauss_curvature_2d(leaf)) < 3.0
    assert traced_peak_mb(lambda: laplace_beltrami(leaf, logK)) < 2.0
    assert traced_peak_mb(lambda: einstein_residual(sweep, 0.0)) < 3.5
    assert traced_peak_mb(lambda: riemann_max(sweep)) < 3.5
