import numpy as np
import pytest

from keflow.errors import GridError
from keflow.grids import (Axis, MetricGrid, TwoFormGrid, central_diff,
                          interior, mixed_diff, second_diff)


def test_axis_nodes_and_stop():
    ax = Axis("x", 1.0, 0.25, 5)
    np.testing.assert_allclose(ax.nodes, [1.0, 1.25, 1.5, 1.75, 2.0])
    assert ax.stop == 2.0


def test_axis_dict_round_trip():
    ax = Axis("theta", -0.3, 1e-3, 41)
    assert Axis.from_dict(ax.to_dict()) == ax


def test_axis_rejects_bad_input():
    with pytest.raises(GridError):
        Axis("x", 0.0, -1.0, 5)
    with pytest.raises(GridError):
        Axis("x", 0.0, 1.0, 1)
    with pytest.raises(GridError):
        Axis("x", np.nan, 1.0, 5)


def _diag_grid(n=9, h=1e-2):
    axes = (Axis("x", 0.0, h, n), Axis("y", 1.0, h, n))
    g = np.zeros((n, n, 2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 2.0
    return MetricGrid(axes, g)


def test_metric_grid_validation():
    grid = _diag_grid()
    assert grid.dim == 2
    assert grid.counts == (9, 9)

    bad = np.zeros((9, 9, 2, 2))
    bad[..., 0, 0] = 1.0
    bad[..., 1, 1] = -1.0
    with pytest.raises(GridError):
        MetricGrid(grid.axes, bad)

    asym = np.zeros((9, 9, 2, 2))
    asym[..., 0, 0] = 1.0
    asym[..., 1, 1] = 1.0
    asym[..., 0, 1] = 0.1
    with pytest.raises(GridError):
        MetricGrid(grid.axes, asym)


def test_metric_grid_too_few_nodes():
    axes = (Axis("x", 0.0, 0.1, 3), Axis("y", 0.0, 0.1, 9))
    g = np.zeros((3, 9, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 1.0
    with pytest.raises(GridError):
        MetricGrid(axes, g)


def test_metric_grid_json_round_trip_with_manifest():
    grid = _diag_grid()
    grid.manifest = {"subcommand": "test", "parameters": {"n": 9}}
    back = MetricGrid.from_json(grid.to_json())
    assert back.axes == grid.axes
    np.testing.assert_array_equal(back.components, grid.components)
    assert back.manifest == grid.manifest


def test_two_form_kind_mismatch():
    grid = _diag_grid()
    with pytest.raises(GridError):
        TwoFormGrid.from_json(grid.to_json())


def test_two_form_grid_validation():
    axes = _diag_grid().axes
    w = np.zeros((9, 9, 2, 2))
    w[..., 0, 1] = 0.5
    w[..., 1, 0] = -0.5
    assert TwoFormGrid(axes, w).dim == 2
    sym = w.copy()
    sym[..., 1, 0] = 0.5
    with pytest.raises(GridError):
        TwoFormGrid(axes, sym)
    bad = w.copy()
    bad[3, 4, 0, 1] = np.inf
    bad[3, 4, 1, 0] = -np.inf
    with pytest.raises(GridError):
        TwoFormGrid(axes, bad)
    with pytest.raises(GridError):
        TwoFormGrid(axes, w[:, :8])


def test_central_diff_accuracy_and_nan_edges():
    h = 1e-3
    x = np.arange(64) * h
    f = np.sin(np.broadcast_to(x[:, None], (64, 8)).copy())
    d = central_diff(f, h, 0)
    assert np.all(np.isnan(d[0])) and np.all(np.isnan(d[-1]))
    err = np.abs(d[1:-1] - np.cos(x)[1:-1, None])
    assert np.max(err) < 1e-6


def test_second_and_mixed_diff():
    h = 1e-3
    n = 32
    x = np.arange(n) * h
    y = 0.5 + np.arange(n) * h
    X, Y = np.meshgrid(x, y, indexing="ij")
    f = X * X * Y + np.cos(Y)
    fxx = second_diff(f, h, 0)
    assert np.nanmax(np.abs(fxx[1:-1, :] - 2.0 * Y[1:-1, :])) < 1e-8
    fxy = mixed_diff(f, h, 0, h, 1)
    assert np.nanmax(np.abs(fxy[1:-1, 1:-1] - 2.0 * X[1:-1, 1:-1])) < 1e-6


def test_interior_trims_margins():
    a = np.arange(81.0).reshape(9, 9)
    inner = interior(a, 2, 2)
    assert inner.shape == (5, 5)
    assert inner[0, 0] == a[2, 2]
