"""The geodesic shoot's spline of phi against scipy's, the interpolant it
reimplements.

spline.FactorSpline fits the not-a-knot interpolant that scipy's
make_interp_spline (1D) and RectBivariateSpline with s = 0 (2D) fit, on
the same knots, so the two agree up to rounding: values within 1e-13 of
max |phi| and first derivatives within 1e-10 of max |grad phi|, at random
points, at every knot and at the domain corners. Past the source
rectangle, where the shoot's stage points may land within the rounding
slack of its domain test, the spline continues its end polynomials, as
make_interp_spline does; fitpack's 2D evaluation clamps the point to the
rectangle instead.
"""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline, make_interp_spline

from keflow import leafpde as lp
from keflow import spline as sp
from keflow.grids import Axis

VALUE_TOL = 1e-13
SLOPE_TOL = 1e-10


def _readme_phi():
    # the README leaf, h = x and ell = 1/(2 y^2) on [0, 1] x [1, 2], n = 257
    n = 257
    spec = lp.leaf_spec(Axis("x", 0.0, 1.0 / (n - 1), n),
                        Axis("y", 1.0, 1.0 / (n - 1), n), h="x")
    g, _ = lp.leaf_metric(spec)
    return g.axes, g.components[..., 0, 0]


def _crit10_phi():
    # criterion 10's source leaf at h = 1e-2: phi = sqrt(2) x e^x, exactly
    # constant along y
    sx, sy = Axis("x", 1.0, 1e-2, 57), Axis("y", 0.0, 1e-2, 73)
    spec = lp.leaf_spec(sx, sy, h="-x", ell=lp.hyperbolic_factor(sx, sy, "x"))
    g, _ = lp.leaf_metric(spec)
    return g.axes, g.components[..., 0, 0]


def _cubic_axis_phi():
    # 5 nodes along x, so the spline is cubic there with one interior knot
    ax, ay = Axis("x", 0.5, 0.25, 5), Axis("y", -1.0, 0.1, 21)
    x, y = np.meshgrid(ax.nodes, ay.nodes, indexing="ij")
    return (ax, ay), np.exp(0.7 * x) * np.cos(2.0 * y) + 3.0


def _degree(n):
    return 5 if n > 5 else 3


def _knots(axis):
    m = (_degree(axis.count) + 1) // 2
    return axis.nodes[m:-m]


def _points(axes, rng, count=400):
    """Random points, every knot pair along the diagonal and the two
    knot lines through the middle, and the four corners."""
    ax, ay = axes
    px = [rng.uniform(ax.start, ax.stop, count)]
    py = [rng.uniform(ay.start, ay.stop, count)]
    kx, ky = _knots(ax), _knots(ay)
    px += [kx, np.full(ky.size, kx[kx.size // 2]),
           np.resize(kx, max(kx.size, ky.size))]
    py += [np.full(kx.size, ky[ky.size // 2]), ky,
           np.resize(ky, max(kx.size, ky.size))]
    px.append(np.array([ax.start, ax.stop, ax.start, ax.stop]))
    py.append(np.array([ay.start, ay.start, ay.stop, ay.stop]))
    return np.concatenate(px), np.concatenate(py)


def _assert_close(got, want, phi):
    value, dx, dy = got
    scale = max(np.abs(want[1]).max(), np.abs(want[2]).max())
    assert np.abs(value - want[0]).max() <= VALUE_TOL * np.abs(phi).max()
    assert np.abs(dx - want[1]).max() <= SLOPE_TOL * scale
    assert np.abs(dy - want[2]).max() <= SLOPE_TOL * scale


@pytest.mark.parametrize("build", [_readme_phi, _cubic_axis_phi],
                         ids=["readme-257", "cubic-5-node-axis"])
def test_2d_spline_matches_rect_bivariate_spline(build):
    axes, phi = build()
    spline = sp.FactorSpline(axes, phi)
    ref = RectBivariateSpline(axes[0].nodes, axes[1].nodes, phi,
                              kx=_degree(axes[0].count),
                              ky=_degree(axes[1].count), s=0)
    px, py = _points(axes, np.random.default_rng(3))
    want = (ref.ev(px, py), ref.ev(px, py, dx=1), ref.ev(px, py, dy=1))
    got = spline(px, py)
    _assert_close(got, want, phi)
    # a point of Python floats gives the array's bits
    one = spline(float(px[0]), float(py[0]))
    assert np.array_equal(np.array(one).view(np.int64),
                          np.stack(got)[:, 0].view(np.int64))


def test_y_invariant_spline_matches_make_interp_spline():
    # the shoot's spline cuts y to one node: phi in x alone, as
    # make_interp_spline fits it, and d_y phi exactly zero; the same leaf
    # turned a quarter, constant along x, is cut to one x node
    (ax, ay), phi = _crit10_phi()
    turned = (Axis("x", ay.start, ay.step, ay.count),
              Axis("y", ax.start, ax.step, ax.count))
    for along, axes, values in ((0, (ax, ay), phi), (1, turned, phi.T)):
        spline = sp.factor_spline(lp._conformal_metric(*axes, values))
        assert spline.shape[along] == axes[along].count
        assert spline.shape[1 - along] == 1
        ref = make_interp_spline(axes[along].nodes,
                                 np.take(values, 0, 1 - along), k=5)
        px, py = _points(axes, np.random.default_rng(4))
        p = (px, py)[along]
        got = spline(px, py)
        want = [ref(p), np.zeros_like(p)]
        want.insert(1 + along, ref.derivative()(p))
        _assert_close(got, want, values)
        assert np.all(got[2 - along] == 0.0)
        # each point as a 0-d lane, as the invariant shoot marches it,
        # gives the same bits
        one = np.array([spline(x, y) for x, y in zip(px, py)])
        assert one.shape == (px.size, 3)
        assert np.array_equal(one.T.view(np.int64),
                              np.stack(got).view(np.int64))


@pytest.mark.parametrize("counts", [(9, 11), (5, 7), (6, 5), (33, 1), (1, 33),
                                    (1, 1)])
def test_polynomials_of_the_spline_degree_are_reproduced(counts):
    # degree 5 (3 along a 5-node axis, 0 along a one-node one) in each
    # variable, so every such polynomial is its own interpolant
    rng = np.random.default_rng(sum(counts))
    axes = (Axis("x", -0.3, 0.05, counts[0]), Axis("y", 0.7, 0.1, counts[1]))
    deg = [{1: 0, 5: 3}.get(n, 5) for n in counts]
    coef = rng.uniform(-1.0, 1.0, (deg[0] + 1, deg[1] + 1))
    poly = np.polynomial.polynomial
    x, y = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
    spline = sp.FactorSpline(axes, poly.polyval2d(x, y, coef))
    px = rng.uniform(axes[0].start, axes[0].stop, 200)
    py = rng.uniform(axes[1].start, axes[1].stop, 200)
    want = (poly.polyval2d(px, py, coef),
            poly.polyval2d(px, py, poly.polyder(coef, axis=0)),
            poly.polyval2d(px, py, poly.polyder(coef, axis=1)))
    got = spline(px, py)
    scale = np.abs(coef).sum() * 10.0
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * scale)


def _separable_reference(axes, phi, px, py):
    """The tensor-product interpolant through make_interp_spline along x,
    then along y, each extrapolating past its axis: (phi, d_x, d_y)."""
    sx = make_interp_spline(axes[0].nodes, phi, k=_degree(axes[0].count))
    out = []
    for cols in (sx(px), sx.derivative()(px)):
        sy = make_interp_spline(axes[1].nodes, cols.T,
                                k=_degree(axes[1].count))
        out.append((np.diagonal(sy(py)), np.diagonal(sy.derivative()(py))))
    return out[0][0], out[1][0], out[0][1]


def test_past_the_source_rectangle_the_end_polynomials_continue():
    axes, phi = _readme_phi()
    spline = sp.FactorSpline(axes, phi)
    ax, ay = axes
    corners = np.array([[ax.start, ay.start], [ax.stop, ay.start],
                        [ax.start, ay.stop], [ax.stop, ay.stop]])
    outward = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    # the shoot's domain test admits 1e-9 of each span past an edge
    for reach in (1e-9, 1e-3):
        px, py = (corners + reach * outward).T
        got = spline(px, py)
        _assert_close(got, _separable_reference(axes, phi, px, py), phi)
        # fitpack clamps the point to the rectangle: within the slack the
        # two evaluators differ by about reach * |grad phi|
        clamped = RectBivariateSpline(ax.nodes, ay.nodes, phi, kx=5, ky=5,
                                      s=0).ev(px, py)
        step = reach * (np.abs(got[1]) + np.abs(got[2]))
        assert np.all(np.abs(got[0] - clamped) <= 1.01 * step)
        assert np.any(np.abs(got[0] - clamped) > 0.1 * step)
