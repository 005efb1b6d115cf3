import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from keflow import curvature
from keflow import e2flow as e2
from keflow.curvature import (_interior_max, christoffel, convergence_order,
                              einstein_residual,
                              exterior_derivative_closedness,
                              gauss_curvature_2d, laplace_beltrami, ricci,
                              riemann, riemann_max)
from keflow.grids import Axis, MetricGrid, TwoFormGrid, interior

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
    Y = g.node_mesh()[1]
    lap = interior(laplace_beltrami(g, np.log(Y)), 1, 2)
    assert np.max(np.abs(lap + 2.0)) < 1e-5


def test_polar_coordinates_flat():
    g = grid2(lambda R, T: (np.ones_like(R), np.zeros_like(R), R ** 2),
              1.0, 0.0, 1e-3, 9)
    G = christoffel(g)
    R = g.node_mesh()[0]
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


# The scalar checks evaluate one slice per symmetry axis; the array
# functions evaluate every node and serve as the oracle.

def full_einstein(grid, lam):
    return _interior_max(ricci(grid) - lam * grid.components, grid)


def full_riemann(grid):
    return _interior_max(riemann(grid), grid)


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
    assert grid.symmetry_axes() == (1, 2, 3)
    assert_parity(grid, 0.0)


@pytest.mark.parametrize("h", [4e-3, 2e-3, 1e-3])
def test_reduced_checks_match_full_grid_on_e2(e2_traj, h):
    grid = e2_grid(e2_traj, h)
    assert grid.symmetry_axes() == (1, 2)
    assert_parity(grid, -1.0)


def test_reduced_checks_match_full_grid_on_pipeline():
    _, g4, _ = acceptance.leaf_pipeline(1e-3)
    assert g4.symmetry_axes() == (2, 3)
    assert_parity(g4, 0.0)


def test_one_ulp_breaks_symmetry_and_parity_holds():
    grid = acceptance.torus_grid(1e-3)
    g = grid.components.copy()
    # one x slab: x stops being a symmetry axis, y and z stay
    g[:, 2, :, :, 1, 1] = np.nextafter(g[:, 2, :, :, 1, 1], np.inf)
    slab = MetricGrid(grid.axes, g)
    assert slab.symmetry_axes() == (2, 3)
    assert_parity(slab, 0.0)
    # one node: no axis through it is constant any more
    g = grid.components.copy()
    g[3, 2, 2, 3, 3, 3] = np.nextafter(g[3, 2, 2, 3, 3, 3], np.inf)
    node = MetricGrid(grid.axes, g)
    assert node.symmetry_axes() == ()
    assert_parity(node, 0.0)


def test_constant_metric_is_exactly_flat():
    axes = tuple(Axis(nm, 0.0, 0.1, 5) for nm in "txyz")
    c = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.5, 0.2, 0.0],
                  [0.0, 0.2, 1.0, 0.0], [0.1, 0.0, 0.0, 3.0]])
    grid = MetricGrid(axes, np.broadcast_to(c, (5, 5, 5, 5, 4, 4)))
    assert grid.symmetry_axes() == (0, 1, 2, 3)
    assert einstein_residual(grid, 0.0) == 0.0
    assert riemann_max(grid) == 0.0
    assert full_riemann(grid) == 0.0


def test_sphere_patch_has_one_symmetry_axis():
    grid = sphere_patch()
    assert grid.symmetry_axes() == (1,)
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
