import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keflow import e2flow as e2
from keflow.errors import GridError
from keflow.grids import (MIN_NODES_PER_AXIS, Axis, MetricGrid, TwoFormGrid,
                          central_diff, constant_axes, interior, mixed_diff,
                          second_diff)

# criterion 02's and 10's grid builders, loaded by path so that this file
# imports under any pytest import mode
_spec = importlib.util.spec_from_file_location(
    "acceptance_grids", Path(__file__).with_name("test_acceptance.py"))
acceptance = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(acceptance)


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
        Axis("x", 0.0, 1.0, 0)
    # one node is a Killing direction
    assert Axis("x", 0.0, 1.0, 1).nodes.tolist() == [0.0]
    with pytest.raises(GridError):
        Axis("x", np.nan, 1.0, 5)


# second differences divide by step^2, which must be a normal float
@pytest.mark.parametrize("step", [1.4e-154, 1e-300, 5e-324, 1.4e154, 1e200])
def test_axis_rejects_steps_whose_square_is_not_normal(step):
    with pytest.raises(GridError, match=r"axis 'y': step .* squared is "
                                        r"not a normal float"):
        Axis("y", 0.0, step, 5)


@pytest.mark.parametrize("step", [1.5e-154, 1.3e154])
def test_axis_takes_steps_whose_square_is_normal(step):
    assert Axis("y", 0.0, step, 5).step == step


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


def test_padded_metric_reports_first_failing_node():
    # u, v are exactly constant, so positive-definiteness is tested on one
    # (u, v) slice; the message must still name the first minimising node
    axes = [Axis(n, 0.0, 0.1, c) for n, c in (("x", 7), ("y", 9), ("u", 5),
                                              ("v", 5))]
    g = np.zeros((7, 9, 5, 5, 4, 4))
    for k in range(4):
        g[..., k, k] = 1.0
    g[3, 4, ..., 1, 1] = g[5, 1, ..., 1, 1] = -0.5
    g[6, 2, ..., 1, 1] = -0.25
    with pytest.raises(GridError) as err:
        MetricGrid(axes, g)
    assert str(err.value) == (
        "metric not positive-definite: minor 2 fails at node (3, 4, 0, 0)")


# A positive-definite metric whose leading minors overflow used to print
# numpy's overflow RuntimeWarning (from the closed-form 2x2 determinant's
# multiply in 2D, from LAPACK's det in 4D) and load, inf being positive;
# curvature then refused it as "metric not invertible at node (0, 0, 0, 0)"
@pytest.mark.parametrize("counts, scaled, diagonal, message", [
    ((7, 7), (), 1e300, "metric minor 2 overflows at node (0, 0)"),
    ((7, 7, 1, 1), (), 1e150,
     "metric minor 3 overflows at node (0, 0, 0, 0)"),
    ((7, 9, 5, 5), (2, 3), 1e150,
     "metric minor 3 overflows at node (2, 3, 0, 0)"),
])
def test_metric_whose_minors_overflow_is_refused(counts, scaled, diagonal,
                                                 message):
    d = len(counts)
    axes = [Axis(f"x{m}", 0.0, 0.1, n) for m, n in enumerate(counts)]
    g = np.zeros(counts + (d, d))
    for k in range(d):
        g[..., k, k] = 1.0
    g[scaled] *= diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError) as err:
            MetricGrid(axes, g)
    assert str(err.value) == message


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


def assert_round_trip(grid, const):
    """Encode, decode and compare node for node; return the decoded grid."""
    text = grid.to_json()
    stored = json.loads(text)["components"]
    assert stored["constant_axes"] == list(const)
    kept = [n for m, n in enumerate(grid.counts) if m not in const]
    assert len(stored["values"]) == int(np.prod(kept)) * grid.dim ** 2
    back = type(grid).from_json(text)
    assert back.axes == grid.axes
    assert np.array_equal(back.components, grid.components)
    assert (constant_axes(back.components, back.dim)
            == constant_axes(grid.components, grid.dim))
    return back


@pytest.fixture(scope="module")
def e2_traj():
    return e2.shoot_unstable(1.0, 1e-5, b_max=100.0, tol=1e-12)


@pytest.mark.parametrize("h", [4e-3, 2e-3, 1e-3])
def test_codec_round_trip_torus_and_e2(e2_traj, h):
    assert_round_trip(acceptance.torus_grid(h), (1, 2, 3))
    # criterion 07's grids: components depend on (t, theta) only
    tmid = e2_traj.t[int(np.searchsorted(e2_traj.column("b"), 1.0))]
    axes = (Axis("t", tmid - 3 * h, h, 7), Axis("theta", 0.7 - 3 * h, h, 7),
            Axis("x", -2 * h, h, 5), Axis("y", -2 * h, h, 5))
    assert_round_trip(e2.e2_metric_grid(e2_traj, *axes), (1, 2))
    assert_round_trip(e2.e2_kahler_form_grid(e2_traj, *axes), (1, 2))


def test_codec_round_trip_pipeline_metric_and_form():
    _, g4, w4 = acceptance.leaf_pipeline(1e-3)
    assert_round_trip(g4, (2, 3))
    # the leaf is y-invariant and shot as one geodesic, so the form's
    # 2c dx^dy is constant along y bit for bit; the frame, hence g4, is not
    w = w4.components
    assert np.all(w == w[:, :1]) and not np.all(g4.components
                                                == g4.components[:, :1])
    assert_round_trip(w4, (1, 2, 3))


def test_codec_one_ulp_keeps_axis():
    grid = acceptance.torus_grid(1e-3)
    g = grid.components.copy()
    # one node: every axis through it stops being constant
    g[3, 2, 1, 4, 0, 0] = np.nextafter(g[3, 2, 1, 4, 0, 0], np.inf)
    assert_round_trip(MetricGrid(grid.axes, g), ())
    g = grid.components.copy()
    # one y slab: x and z still collapse
    g[:, :, 1, :, 2, 2] = np.nextafter(g[:, :, 1, :, 2, 2], -np.inf)
    assert_round_trip(MetricGrid(grid.axes, g), (1, 3))


_finite = st.floats(allow_nan=False, allow_infinity=False)
# a Killing direction has one node, any other axis MIN_NODES_PER_AXIS or more
_counts = st.one_of(st.just(1), st.integers(MIN_NODES_PER_AXIS, 7))
# steps whose square is a normal float, the ones an Axis takes
_steps = st.floats(min_value=1.5e-154, max_value=1.3e154)


@st.composite
def axes(draw):
    return Axis(draw(st.sampled_from(["t", "x", "y", "z", "u", "v"])),
                draw(_finite), draw(_steps), draw(_counts))


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None)
@given(ax=axes())
def test_axis_round_trip_is_bit_exact(ax):
    back = Axis.from_dict(json.loads(json.dumps(ax.to_dict())))
    assert back == ax
    assert _bits([back.start, back.step]) == _bits([ax.start, ax.step])


@st.composite
def grids(draw, cls):
    """A grid of cls whose components are exactly constant along a drawn
    set of axes (one-node axes are so in any case) and elsewhere drawn
    from a pool of finite floats of any size, signed zeros among them."""
    d = draw(st.sampled_from([2, 4]))
    grid_axes = tuple(draw(axes()) for _ in range(d))
    const = draw(st.sets(st.integers(0, d - 1)))
    counts = tuple(ax.count for ax in grid_axes)
    core = tuple(1 if m in const else n for m, n in enumerate(counts))
    pool = np.array(draw(st.lists(_finite, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.choice(pool, size=core + (d, d))
    if cls is MetricGrid:
        # symmetric, and positive-definite by a dominant diagonal
        vals = np.clip(vals, -1.0, 1.0)
        vals = vals + np.swapaxes(vals, -1, -2) + 4.0 * d * np.eye(d)
    else:
        # antisymmetric by exact negation of the upper triangle: x - y of
        # two finite draws can overflow to inf, -x cannot
        upper = np.triu(vals, 1)
        vals = np.where(np.tri(d, k=-1, dtype=bool),
                        -np.swapaxes(upper, -1, -2), upper)
    return cls(grid_axes, np.broadcast_to(vals, counts + (d, d)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cls=st.sampled_from([MetricGrid, TwoFormGrid]))
def test_grid_round_trip_is_bit_exact(data, cls):
    grid = data.draw(grids(cls))
    back = cls.from_json(grid.to_json())
    assert back.axes == grid.axes
    assert _bits(back.components) == _bits(grid.components)
    assert (constant_axes(back.components, back.dim)
            == constant_axes(grid.components, grid.dim))
    assert all(m in constant_axes(grid.components, grid.dim)
               for m, n in enumerate(grid.counts) if n == 1)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), cls=st.sampled_from([MetricGrid, TwoFormGrid]),
       short=st.integers(2, MIN_NODES_PER_AXIS - 1))
def test_grids_refuse_two_to_four_nodes(data, cls, short):
    # axis m of the drawn grid, cut to one node, then given `short` nodes:
    # the components stay exactly constant along it, in memory and on disk
    grid = data.draw(grids(cls))
    m = data.draw(st.integers(0, grid.dim - 1))
    one = tuple(slice(0, 1) if k == m else slice(None)
                for k in range(grid.dim))
    grid_axes = list(grid.axes)
    grid_axes[m] = Axis(grid.axes[m].name, 0.0, 1.0, 1)
    doc = json.loads(cls(grid_axes, grid.components[one]).to_json())
    doc["axes"][m]["count"] = short
    grid_axes[m] = Axis(grid.axes[m].name, 0.0, 1.0, short)
    comp = np.repeat(grid.components[one], short, axis=m)
    message = f"{short} nodes, need 1 or at least {MIN_NODES_PER_AXIS}"
    with pytest.raises(GridError, match=message):
        cls(grid_axes, comp)
    with pytest.raises(GridError, match=message):
        cls.from_json(json.dumps(doc))


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
