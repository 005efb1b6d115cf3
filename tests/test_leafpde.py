import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keflow import leafpde as lp
from keflow import spline as sp
from keflow.cli import main
from keflow.curvature import (einstein_residual,
                              exterior_derivative_closedness,
                              gauss_curvature_2d)
from keflow.errors import CompatibilityError, DomainError, GridError
from keflow.grids import Axis, MetricGrid, central_diff, interior


def hyperbolic_spec(n=65, h_expr="x"):
    h = 1.0 / (n - 1)
    return lp.leaf_spec(Axis("x", 0.0, h, n), Axis("y", 1.0, h, n), h=h_expr)


def round_profile(n=81):
    # source metric 2 sech^2(sigma) (d sigma^2 + dy^2), conformal, which
    # x = gd(sigma) turns into 2(dx^2 + cos^2 x dy^2): c = cos(x),
    # curvature +1/2
    sa = Axis("x", 0.0, 1.0 / 160, 161)
    rb = Axis("y", 0.0, 1.0 / (n - 1), n)
    phi = np.broadcast_to(2.0 / np.cosh(sa.nodes[:, None]) ** 2, (161, n))
    return lp.geodesic_parallel_profile(lp._conformal_metric(sa, rb, phi),
                                        Axis("x", 0.0, 0.8 / (n - 1), n))


def sheared_grid():
    # a leaf metric is conformal; this metric is not
    h = 1.0 / 64
    axes = (Axis("x", 0.0, h, 65), Axis("y", 0.0, h, 65))
    x, y = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
    g = np.zeros((65, 65, 2, 2))
    g[..., 0, 0] = 1.0 + 4.0 * x + 2.0 * y * y
    g[..., 0, 1] = g[..., 1, 0] = 0.3 * x * y - 0.2 * x
    g[..., 1, 1] = 1.0 + 8.0 * x * y + y
    return MetricGrid(axes, g)


def test_leaf_spec_checks_harmonicity():
    with pytest.raises(DomainError):
        hyperbolic_spec(h_expr="x*x")


@pytest.mark.parametrize("expr, expected", [
    ("x", lambda x, y: x),
    ("-x", lambda x, y: -x),
    ("x*x", lambda x, y: x * x),
    ("x*y", lambda x, y: x * y),
    ("0.5*x", lambda x, y: 0.5 * x),
    ("-0.734*x", lambda x, y: -0.734 * x),
    ("log(hypot(x, y))", lambda x, y: np.log(np.hypot(x, y))),
])
def test_harmonic_grid_values(expr, expected):
    ax, ay = Axis("x", 0.1, 0.01, 33), Axis("y", 1.0, 0.01, 29)
    x, y = np.meshgrid(ax.nodes, ay.nodes, indexing="ij")
    assert np.array_equal(lp.harmonic_grid(expr, ax, ay), expected(x, y))


@pytest.mark.parametrize("expr", [
    "x*0 + [c for c in ().__class__.__base__.__subclasses__() "
    "if c.__name__=='Popen'].__len__()",
    "x.__class__", "__import__('os')", "(lambda: x)()", "x[0]", "True*x",
    "log(x=x)", "log(*[x])", "log(x, y)", "hypot(x)", "y(x)", "pi(x)", "z",
    "x if x else y", "x % 2", "1j*x",
    "9**9**9",
])
def test_harmonic_grid_rejects_outside_grammar(expr):
    ax, ay = Axis("x", 0.1, 0.01, 9), Axis("y", 1.0, 0.01, 9)
    with pytest.raises(DomainError, match="cannot evaluate"):
        lp.harmonic_grid(expr, ax, ay)


def test_no_module_evaluates_code():
    for path in Path(lp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                assert node.id not in ("eval", "exec", "compile"), path.name


def test_one_ode_integrator():
    # odes.integrate_flow is the package's only ODE integrator, and no
    # module imports scipy, at import time or inside a function
    for path in Path(lp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                name = getattr(node, "id", getattr(node, "attr", ""))
                assert name != "solve_ivp", path.name
                continue
            for module in modules:
                assert module.split(".")[0] != "scipy", (path.name, module)


# all nine README stages, run in one process through cli.main
COLD_STAGES = """
import sys
from keflow.cli import main

runs = [
    ["bianchi", "solve", "--case", "euclidean", "--k", "1.2", "--w3", "0.8",
     "--alpha", "0.3", "--t-start", "1.0", "--t-end", "2.0"],
    ["bianchi", "solve", "--case", "torus", "--alpha-eq-ab", "--a0", "0.8",
     "--b0", "0.75", "--t-start", "0.1", "--t-end", "1.0"],
    ["e2", "shoot", "--q", "1.0", "--eps", "1e-5", "--b-max", "100"],
    ["e2", "diagnose", "shoot/e2_trajectory.csv"],
    ["e2", "bolt", "shoot/e2_trajectory.csv"],
    ["pde", "leaf-build", "--h-expr", "x", "--domain", "0,1,1,2", "--n", "129"],
    ["pde", "profile", "--spec", "spec/leafspec.json", "--step", "0.02",
     "--nx", "25", "--ny", "27", "--y-start", "1.1"],
    ["pde", "construct", "--profile", "prof/cprofile.json"],
    ["pde", "verify", "--metric", "met/metric.json", "--form",
     "met/kahler.json", "--lam", "0"],
]
outs = ["euc", "torus", "shoot", "diag", "bolt", "spec", "prof", "met", "ver"]
codes = [main(["--out-dir", out] + args) for out, args in zip(outs, runs)]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_import_leaves_scipy_integrate_out(tmp_path):
    src = str(Path(lp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, keflow.cli; print('scipy.integrate' in sys.modules, "
         "[m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False []"

    # the stages themselves, the geodesic shoot's spline included, load
    # no scipy module either
    out = subprocess.run([sys.executable, "-c", COLD_STAGES], env=env,
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"{[0] * 9} []", out.stderr


def test_leaf_spec_checks_curvature():
    n = 33
    h = 1.0 / (n - 1)
    ax, ay = Axis("x", 0.0, h, n), Axis("y", 1.0, h, n)
    ell = np.ones((n, n))  # flat, not curvature -2
    with pytest.raises(DomainError):
        lp.leaf_spec(ax, ay, h="x", ell=ell)


@pytest.mark.parametrize("along", ["y", "x"])
def test_leaf_spec_checks_curvature_on_one_slice(monkeypatch, along):
    # ell = 1/(2 s^2) is exactly constant along the other axis: the check
    # differences one slice, whose interior holds the full grid's values
    n = 33
    ax, ay = Axis("x", 1.0, 1.0 / 32, n), Axis("y", 1.0, 1.0 / 32, n)
    ell = lp.hyperbolic_factor(ax, ay, along)
    seen = []

    def recorded(grid):
        seen.append(grid)
        return gauss_curvature_2d(grid)

    monkeypatch.setattr(lp, "gauss_curvature_2d", recorded)
    lp.leaf_spec(ax, ay, h="x" if along == "y" else "y", ell=ell)
    (grid,) = seen
    cut = 0 if along == "y" else 1
    assert grid.counts[cut] == 1 and grid.counts[1 - cut] == n
    full = gauss_curvature_2d(lp._conformal_metric(ax, ay, ell))
    inner = interior(full, 1, 2)
    assert np.array_equal(inner, np.broadcast_to(
        interior(recorded(grid), 1, 2), inner.shape))
    # curvature -1/(2 y) of ell = 1/y is caught on the slice too, and an
    # axis of 2 to 4 nodes is refused as a grid refuses it, cut or not
    with pytest.raises(DomainError, match="curvature -2"):
        lp.leaf_spec(ax, ay, h="x", ell=np.broadcast_to(1.0 / ay.nodes,
                                                        (n, n)))
    with pytest.raises(GridError, match="3 nodes, need 1 or at least 5"):
        lp.leaf_spec(Axis("x", 0.0, 0.25, 3), ay, h="x")


@pytest.mark.parametrize("h_expr, along, domain, n", [
    ("x", "y", (0.0, 1.0, 1.0, 2.0), 257),
    ("-0.5*x", "x", (1.0, 2.0, 0.0, 1.0), 65),
], ids=["readme", "ell-axis-x"])
def test_phi_times_k_is_ell(h_expr, along, domain, n):
    # the rescaled metric K g of a leaf is l g0: phi K = l^{-1/2} e^{-h}
    # e^h l^{3/2} = l, so the leaf report checks curvature -2 on l itself
    # and differs from K g's check by rounding alone
    x0, x1, y0, y1 = domain
    ax = Axis("x", x0, (x1 - x0) / (n - 1), n)
    ay = Axis("y", y0, (y1 - y0) / (n - 1), n)
    spec = lp.leaf_spec(ax, ay, h=h_expr,
                        ell=lp.hyperbolic_factor(ax, ay, along))
    g, K = lp.leaf_metric(spec)
    rel = np.abs(g.components[..., 0, 0] * K - spec.ell) / spec.ell
    assert np.max(rel) <= 4 * np.finfo(np.float64).eps


def test_leaf_metric_prediction():
    spec = hyperbolic_spec(n=33)
    g, K = lp.leaf_metric(spec)
    X, Y = np.meshgrid(*(ax.nodes for ax in g.axes), indexing="ij")
    np.testing.assert_allclose(K, np.exp(X) * (1.0 / (2.0 * Y * Y)) ** 1.5,
                               rtol=1e-13)
    np.testing.assert_allclose(g.components[..., 0, 0],
                               np.sqrt(2.0) * Y * np.exp(-X), rtol=1e-13)
    dev = np.nanmax(np.abs(interior(gauss_curvature_2d(g) - K, 1, 2)))
    assert dev < 5e-3  # coarse grid, second-order stencil


def test_leaf_spec_json_round_trip():
    # ell = 1/(2 y^2) is exactly constant along x; h = x along y, h = x y
    # along neither
    for h_expr, h_axes in (("x", [1]), ("x*y", [])):
        spec = hyperbolic_spec(n=33, h_expr=h_expr)
        text = spec.to_json()
        doc = json.loads(text)
        assert doc["ell"]["constant_axes"] == [0]
        assert doc["h"]["constant_axes"] == h_axes
        back = lp.LeafSpec.from_json(text)
        assert back.x_axis == spec.x_axis
        assert np.array_equal(back.ell, spec.ell)
        assert np.array_equal(back.h, spec.h)
        assert back.meta["h_expr"] == h_expr
    # one ulp at one node keeps x uncollapsed and still round-trips
    spec.ell[3, 4] = np.nextafter(spec.ell[3, 4], np.inf)
    text = spec.to_json()
    assert json.loads(text)["ell"]["constant_axes"] == []
    assert np.array_equal(lp.LeafSpec.from_json(text).ell, spec.ell)


def test_leaf_pde_residual_negative_control():
    # constant-curvature +1/2 sphere cap: log K harmonic but 6K is not 0
    n = 65
    ra = Axis("x", 0.0, 0.8 / (n - 1), n)
    rb = Axis("y", 0.0, 1.0 / (n - 1), n)
    g = np.zeros((n, n, 2, 2))
    g[..., 0, 0] = 2.0
    g[..., 1, 1] = np.broadcast_to(2.0 * np.cos(ra.nodes[:, None]) ** 2,
                                   (n, n))
    grid = MetricGrid((ra, rb), g)
    K = np.full((n, n), 0.5)
    rep = lp.leaf_pde_residual(grid, K)
    assert abs(rep.max_residual - 3.0) < 1e-6


def test_leaf_pde_residual_with_no_positive_k_is_nan():
    # every node is excluded, so no interior node is left to check: NaN,
    # and no numpy warning on the way
    ax = Axis("x", 0.0, 0.1, 9)
    grid = lp._conformal_metric(ax, ax, np.ones((9, 9)))
    K = np.linspace(-1.0, 0.0, 81).reshape(9, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = lp.leaf_pde_residual(grid, K)
    assert math.isnan(rep.max_residual)


def test_leaf_report_checks_the_spec_as_it_is():
    # l doubled after leaf_spec is l*g0 of curvature -1, not -2: the
    # report's rescaled check runs on the spec it is given
    spec = hyperbolic_spec(n=33)
    spec = replace(spec, ell=2.0 * spec.ell)
    rep = lp.leaf_report(spec)
    assert rep["rescaled_curvature_deviation"] == lp._rescaled_deviation(spec)
    assert abs(rep["rescaled_curvature_deviation"] - 1.0) < 1e-2


def test_specs_are_frozen_and_a_replaced_one_is_validated():
    # a spec or profile is changed only through dataclasses.replace, which
    # validates the new values: a negative ell is refused, not computed
    # through NaN, and so is a nonpositive c
    spec = hyperbolic_spec(n=33)
    with pytest.raises(FrozenInstanceError):
        spec.ell = -spec.ell
    with pytest.raises(DomainError, match="ell must be positive"):
        replace(spec, ell=-spec.ell)
    cp = lp.CProfile(spec.x_axis, spec.y_axis, spec.ell, spec.ell, spec.h)
    with pytest.raises(FrozenInstanceError):
        cp.c = -cp.c
    with pytest.raises(DomainError, match="c must be positive"):
        replace(cp, c=-cp.c)
    assert replace(cp, coverage=0.5).coverage == 0.5


def test_flat_profile_is_constant():
    n = 51
    fa = Axis("x", 0.0, 0.02, n)
    fb = Axis("y", 0.0, 0.02, n)
    g = np.zeros((n, n, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 2.0
    cp = lp.geodesic_parallel_profile(MetricGrid((fa, fb), g))
    assert cp.coverage == 1.0
    assert not cp.truncated
    assert np.max(np.abs(cp.c - 1.0)) < 1e-10


def test_round_profile_recovers_cosine():
    cp = round_profile()
    expected = np.cos(cp.x_axis.nodes)[:, None]
    assert np.max(np.abs(cp.c - expected)) < 1e-8


def test_profile_truncates_on_domain_exit():
    n = 41
    fa = Axis("x", 0.0, 0.02, n)
    fb = Axis("y", 0.0, 0.02, n)
    g = np.zeros((n, n, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 2.0
    grid = MetricGrid((fa, fb), g)
    long_x = Axis("x", 0.0, 0.02, 3 * n)
    cp = lp.geodesic_parallel_profile(grid, long_x)
    assert cp.truncated
    assert cp.coverage < 1.0
    assert cp.truncation_reason


def test_profile_rejects_bad_axes():
    n = 41
    fa = Axis("x", 0.0, 0.02, n)
    fb = Axis("y", 0.0, 0.02, n)
    g = np.zeros((n, n, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 2.0
    grid = MetricGrid((fa, fb), g)
    with pytest.raises(DomainError):
        lp.geodesic_parallel_profile(grid, Axis("x", 0.1, 0.02, 5))
    with pytest.raises(DomainError):
        lp.geodesic_parallel_profile(grid, None, Axis("y", -0.5, 0.02, 5))


def test_reduced_fields_on_round_metric():
    cp = round_profile()
    flds = lp.reduced_fields(cp)
    xs = cp.x_axis.nodes[:, None]

    def nmax(a):
        vals = a[np.isfinite(a)]
        return np.max(np.abs(vals))

    assert nmax(flds.R - 1.0) < 1e-5
    assert nmax(flds.L - np.tan(xs) / 2.0) < 1e-5
    assert nmax(flds.P + np.tan(xs)) < 1e-4
    assert nmax(flds.Q) < 1e-4


def test_sys2_residuals_flag_non_leaf_source():
    # c = cos x solves the radial identities but not the leaf equation:
    # the second-order residual lands on 6K = 3 for curvature +1/2
    cp = round_profile()
    flds = lp.reduced_fields(cp)
    s2 = lp.sys2_residuals(flds, cp)
    assert s2.radial_R < 1e-4
    assert s2.transverse_R < 1e-4
    assert s2.radial_L < 5e-4
    assert abs(s2.mixed_PQ - 3.0) < 1e-3
    assert abs(s2.second_order - 3.0) < 1e-3


def test_sys2_residuals_keep_footprints_next_to_excluded_nodes():
    # an excluded node as reduced_fields leaves it: R NaN there, P NaN one
    # x-node either side, Q one y-node either side. radial_L involves no P,
    # so it is still checked at the x-neighbours, where a dent in L peaks
    cp = round_profile()
    flds = lp.reduced_fields(cp)
    L, R, P, Q = (v.copy() for v in (flds.L, flds.R, flds.P, flds.Q))
    i, j = 40, 40
    R[i, j] = P[i - 1, j] = P[i + 1, j] = Q[i, j - 1] = Q[i, j + 1] = np.nan
    L[i, j] += 1e-3
    s2 = lp.sys2_residuals(lp.ReducedFields(L, R, P, Q, n_excluded=1), cp)

    hx, hy = cp.x_axis.step, cp.y_axis.step
    d1 = lambda f: central_diff(f, hx, 0)
    d2 = lambda f: central_diff(f, hy, 1) / cp.c
    radial_L = d1(L) - 2.0 * L * L - 0.5 * R * R
    assert np.isfinite(radial_L[i - 1, j]) and np.isfinite(radial_L[i + 1, j])
    assert s2.radial_L == pytest.approx(np.nanmax(np.abs(radial_L)), rel=1e-12)
    assert s2.radial_L > 1e-3 / (4.0 * hx)
    assert s2.radial_R == np.nanmax(np.abs(d1(R) - R * (P + 2.0 * L)))
    assert s2.mixed_PQ == pytest.approx(np.nanmax(np.abs(
        d1(P) - d2(Q) - 2.0 * L * P - 2.0 * R * R)), rel=1e-12)


def test_vecsys_on_round_metric():
    cp = round_profile()
    flds = lp.reduced_fields(cp)
    coeffs = lp.vecsys_coefficients(flds)
    np.testing.assert_allclose(coeffs.alpha, flds.R / math.sqrt(2.0))
    sol = lp.integrate_vecsys(coeffs, cp)
    # beta = Q/2 = 0: rows decouple and grow like exp(x R / sqrt 2), R = 1
    xw = sol.x_axis.nodes - sol.x_axis.nodes[0]
    expected = np.exp(xw / math.sqrt(2.0))[:, None]
    assert np.max(np.abs(sol.a / sol.a[0:1, :] - expected)) < 1e-5
    assert sol.det_drift < 1e-10
    assert sol.compat_residual > 1.0  # not integrable: a genuine obstruction
    with pytest.raises(CompatibilityError):
        lp.integrate_vecsys(coeffs, cp, compat_threshold=1e-3)


def leaf_pipeline(h, span):
    npts = int(round(span / h)) + 1
    nsx = int(round((0.75 * span + 0.2) / h)) + 1
    nsy = int(round((span + 0.24) / h)) + 1
    sx = Axis("x", 1.0, h, nsx)
    sy = Axis("y", 0.0, h, nsy)
    ell = np.broadcast_to(1.0 / (2.0 * sx.nodes[:, None] ** 2),
                          (nsx, nsy)).copy()
    spec = lp.leaf_spec(sx, sy, h="-x", ell=ell,
                        curvature_tol=max(1e-2, 50.0 * h * h))
    g, _ = lp.leaf_metric(spec)
    cp = lp.geodesic_parallel_profile(g, Axis("x", 0.0, h, npts),
                                      Axis("y", 0.12, h, npts))
    flds = lp.reduced_fields(cp)
    s2 = lp.sys2_residuals(flds, cp)
    sol = lp.integrate_vecsys(lp.vecsys_coefficients(flds), cp)
    return cp, s2, sol


def digests(**arrays):
    return {k: hashlib.sha256(v.tobytes()).hexdigest()[:16]
            for k, v in arrays.items()}


# Golden digests of the arrays the pipeline gives since the geodesic shoot
# splines phi in numpy (numpy 2.4.6, x86-64). Taking the 2x2 products with
# matmul instead of two products each, reassociating a Christoffel sum, or
# changing the spline's arithmetic changes the last bits and fails them.

def test_leaf_pipeline_golden_bytes():
    h = 1.0 / 32
    g, _ = lp.leaf_metric(hyperbolic_spec(n=33))
    cp = lp.geodesic_parallel_profile(g, Axis("x", 0.0, h, 13),
                                      Axis("y", 1.0 + 3 * h, h, 21))
    sol = lp.integrate_vecsys(lp.vecsys_coefficients(lp.reduced_fields(cp)),
                              cp)
    assert digests(c=cp.c, x_map=cp.x_map, y_map=cp.y_map, a=sol.a,
                   b=sol.b, r=sol.r, s=sol.s) == {
        "c": "66d608e3e23a99ff", "x_map": "391512df7598711f",
        "y_map": "2fb856ba8f77d393", "a": "62c108240ea6517e",
        "b": "bcd16d1339a7aa32", "r": "e89a00f58f2537d4",
        "s": "3a3567be58db7778"}
    assert sol.compat_residual == 0.010763017128237351


@pytest.mark.parametrize("init", [(1.0, 0.0, 0.0, 1.0), (1.0, -0.0, 0.0, 1.0),
                                  (0.3, 1.7, -2.0, 0.5)])
def test_first_column_march_on_floats_gives_the_array_bits(monkeypatch, init):
    # integrate_vecsys marches the first column's one 2x2 frame as four
    # Python floats; marched as a (1, 2, 2) array lane it has the same
    # bits, the sign of a zero included
    march, lanes = lp._linear_march, []

    def both(m, u0, h):
        got = march(m, u0, h)
        if isinstance(u0, tuple):
            lanes.append((got, march(m[:, None], np.reshape(u0, (1, 2, 2)),
                                     h)[:, 0]))
        return got

    monkeypatch.setattr(lp, "_linear_march", both)
    h = 1.0 / 32
    g, _ = lp.leaf_metric(hyperbolic_spec(n=33))
    cp = lp.geodesic_parallel_profile(g, Axis("x", 0.0, h, 13),
                                      Axis("y", 1.0 + 3 * h, h, 21))
    lp.integrate_vecsys(lp.vecsys_coefficients(lp.reduced_fields(cp)), cp,
                        init=init)
    (got, want), = lanes
    assert got.shape == want.shape == (19, 2, 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    start = np.reshape(init, (2, 2))
    assert np.array_equal(np.signbit(got[0]), np.signbit(start))


@pytest.mark.parametrize("grid", [
    lambda: lp.leaf_metric(hyperbolic_spec(n=33))[0],
    lambda: y_invariant_leaf(),
], ids=["hyperbolic", "y-invariant"])
def test_geodesic_rhs_spline_evaluations(monkeypatch, grid):
    # one fused spline evaluation per RHS returns phi, d_x phi and d_y phi;
    # on a leaf whose phi is exactly constant along y, the spline is cut to
    # one y node and d_y phi is an exact zero
    g = grid()
    spline = sp.factor_spline(g)
    count = []

    def counted(self, px, py, _call=sp.FactorSpline.__call__):
        count.append(1)
        return _call(self, px, py)

    monkeypatch.setattr(sp.FactorSpline, "__call__", counted)
    x0, y0 = (ax.start for ax in g.axes)
    u = np.array([[x0 + 0.2, x0 + 0.3], [y0 + 0.2, y0 + 0.4], [1.0, 0.9],
                  [0.1, -0.2]])
    assert np.all(np.isfinite(lp._geodesic_rhs(spline, u)))
    assert len(count) == 1
    phi = g.components[..., 0, 0]
    invariant = bool(np.all(phi == phi[:, :1]))
    assert (spline.shape[1] == 1) == invariant
    if invariant:
        assert np.all(spline(u[0], u[1])[2] == 0.0)


def test_equal_counts_share_one_spline_axis():
    # the B-splines and the factored collocation matrix depend on the node
    # count alone: a spline on x and y of one count builds one axis for both
    phi = 1.0 + np.add.outer(np.arange(9.0), np.arange(9.0)) ** 2 / 64
    axes = (Axis("x", 0.0, 0.1, 9), Axis("y", 1.0, 0.1, 9))
    spline = sp.FactorSpline(axes, phi)
    assert spline.y is spline.x and spline.x.count == 9
    other = sp.FactorSpline((axes[0], Axis("y", 1.0, 0.1, 7)), phi[:, :7])
    assert other.y is not other.x and other.y.count == 7


def _frozen_metric_at(spline, px, py, dx=0, dy=0):
    # what the shoot's metric lookup gave on one conformal spline before it
    # was folded into the closed form: g_xy is 0.0, g_yy is g_xx's array;
    # the fused evaluation returns (phi, d_x phi, d_y phi)
    vxx = spline(px, py)[dx + 2 * dy]
    return vxx, 0.0, vxx


def frozen_geodesic_rhs(splines, u):
    # _geodesic_rhs before its conformal closed form, kept verbatim as the
    # reference the closed form must match bit for bit
    px, py, v = u[0], u[1], u[2:]
    gxx, gxy, gyy = _frozen_metric_at(splines, px, py)
    d = (gxx * gyy - gxy * gxy)
    inv = ((gyy / d, -gxy / d), (-gxy / d, gxx / d))
    # dg[a + b][k] = d_k g_ab with 0 = x, 1 = y
    dg = list(zip(_frozen_metric_at(splines, px, py, dx=1),
                  _frozen_metric_at(splines, px, py, dy=1)))
    acc = np.zeros((2,) + px.shape)
    for i in range(2):
        for j in range(2):
            # Gamma_ijl = (1/2)(d_i g_jl + d_j g_il - d_l g_ij)
            low0, low1 = (0.5 * (dg[j + l][i] + dg[i + l][j] - dg[i + j][l])
                          for l in range(2))
            vij = v[i] * v[j]
            for k in range(2):
                acc[k] -= (inv[k][0] * low0 + inv[k][1] * low1) * vij
    return np.concatenate((v, acc))


def y_invariant_leaf():
    # ell = 1/(2 x^2) and h = -x: the leaf metric is exactly constant in y,
    # so its spline's d_y g_xx is rounding noise, far below d_x g_xx
    sx, sy = Axis("x", 1.0, 0.05, 13), Axis("y", 0.0, 0.05, 17)
    ell = lp.hyperbolic_factor(sx, sy, "x")
    return lp.leaf_metric(lp.leaf_spec(sx, sy, h="-x", ell=ell,
                                       curvature_tol=0.1))[0]


def x_invariant_leaf():
    # ell = 1/(2 y^2) and h = -y: phi is exactly constant in x, so the cut
    # spline is a spline in y alone and its d_x phi an exact zero
    sx, sy = Axis("x", 0.0, 0.05, 15), Axis("y", 1.0, 0.05, 13)
    ell = lp.hyperbolic_factor(sx, sy, "y")
    return lp.leaf_metric(lp.leaf_spec(sx, sy, h="-y", ell=ell,
                                       curvature_tol=0.1))[0]


# name: (grid, whether the spline is cut along phi's constant axes, as the
# shoot's is: on a y-invariant leaf, then, phi is splined in x alone)
_RHS_GRIDS = {
    "hyperbolic": (lambda: lp.leaf_metric(hyperbolic_spec(n=33))[0], True),
    "y-invariant, spline in x and y": (y_invariant_leaf, False),
    "y-invariant, spline in x": (y_invariant_leaf, True),
    "x-invariant, spline in y": (x_invariant_leaf, True)}


@cache
def _grid_and_splines(name):
    build, cut = _RHS_GRIDS[name]
    g = build()
    return g, (sp.factor_spline(g) if cut else
               sp.FactorSpline(g.axes, g.components[..., 0, 0]))


# velocities of every sign and size, with exact zeros of both signs often
_velocity = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e3, 1e3),
                      st.floats(-1e-150, 1e-150))


def _coordinate(ax):
    # inside the source axis, a little and far past it, and non-finite:
    # stage points may land outside the rectangle before the domain test
    span = ax.stop - ax.start
    return st.one_of(st.floats(ax.start, ax.stop),
                     st.floats(ax.start - span, ax.stop + span),
                     st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.floats())


def _same_bits(got, want):
    # a NaN's sign bit is no value: the closed form negates a product where
    # the loop subtracts it from zero, and numpy's scalar and array loops
    # propagate NaN operands differently, so only NaN-ness is compared
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_RHS_GRIDS)))
def test_geodesic_rhs_matches_the_frozen_loop_bit_for_bit(data, name):
    # m = 0 draws one 0-d lane, a (4,) state; a (4, m) state gives each
    # lane the bits it gets as a 0-d lane and as a tuple of four Python
    # floats, the invariant shoot's state, on which a cut spline runs in
    # Python floats; no point raises
    g, splines = _grid_and_splines(name)
    m = data.draw(st.integers(0, 6))
    u = np.array([data.draw(st.lists(strategy, min_size=max(m, 1),
                                     max_size=max(m, 1)))
                  for strategy in (_coordinate(g.axes[0]),
                                   _coordinate(g.axes[1]),
                                   _velocity, _velocity)])
    if m == 0:
        u = u[:, 0]
    with np.errstate(all="ignore"):
        got = lp._geodesic_rhs(splines, u)
        want = frozen_geodesic_rhs(splines, u)
        lanes = [lp._geodesic_rhs(splines, lane) for lane in u.T] if m else []
        # the same lanes as tuples of Python floats, the invariant shoot's
        floats = [lp._geodesic_rhs(splines, tuple(lane.tolist()))
                  for lane in (u.T if m else [u])]
    assert _same_bits(got, want)
    for j, lane in enumerate(lanes):
        assert _same_bits(lane, got[:, j])
    for j, lane in enumerate(floats):
        assert type(lane) is tuple and len(lane) == 4
        assert _same_bits(np.array(lane), got[:, j] if m else got)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(["y-invariant, spline in x",
                                             "x-invariant, spline in y"]),
       h=st.sampled_from([2.5e-3, 1e-2, 0.0125, 0.3]))
def test_rk4_on_a_float_tuple_gives_the_array_bits(data, name, h):
    # one RK4 step of the geodesic flow on a tuple of four Python floats
    # and on the same state as a (4,) array: the same bits, every stage
    # point inside the source rectangle as in the shoot, or outside it
    g, spline = _grid_and_splines(name)
    (x0, x1), (y0, y1) = ((float(ax.start), float(ax.stop)) for ax in g.axes)
    u = np.array([data.draw(st.floats(x0, x1)), data.draw(st.floats(y0, y1)),
                  data.draw(st.floats(-3.0, 3.0)),
                  data.draw(st.floats(-3.0, 3.0))])

    def rhs(w):
        return lp._geodesic_rhs(spline, w)

    want = lp._rk4(rhs, rhs, rhs, u, h)
    got = lp._rk4(rhs, rhs, rhs, tuple(u.tolist()), h)
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("phi", [0.0, 1e-170, -1e-170])
def test_a_float_lane_at_phi_zero_ends_as_the_array_lane(phi):
    # phi = 0 gives q = 0/0, and |phi| < 1e-162 a phi phi that underflows
    # to 0: NaN and +-inf on a numpy lane, where Python's division would
    # raise ZeroDivisionError. A lane of Python floats gets the array
    # lane's values, and no warning or exception
    axes = Axis("x", 1.0, 0.05, 13), Axis("y", 0.0, 0.05, 1)
    spline = sp.FactorSpline(axes, np.full((13, 1), phi))

    def rhs(w):
        return lp._geodesic_rhs(spline, w)

    u = np.array([[1.2], [0.0], [1.0], [0.5]])
    with np.errstate(all="ignore"):
        want = lp._rk4(rhs, rhs, rhs, u, 0.01)[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array(lp._rk4(rhs, rhs, rhs, tuple(u[:, 0].tolist()), 0.01))
    assert not np.all(np.isfinite(want))
    assert _same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(2, 2), (1, 2, 2), (9, 2, 2),
                                              (3, 5, 2, 2)]))
def test_times_is_einsum_up_to_the_sign_of_a_zero(data, shape):
    # each entry of m u is the sum of two products; einsum's sum starts
    # from +0.0, so it differs only where both products are -0.0, giving
    # +0.0 for this -0.0. NaN-ness is compared, not a NaN's sign bit
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf,
                                       -math.inf, math.nan, 1e308, 5e-324]),
                      st.floats(-1e3, 1e3))
    size = int(np.prod(shape))
    m, u = (np.reshape(data.draw(st.lists(entry, min_size=size,
                                          max_size=size)), shape)
            for _ in range(2))
    with np.errstate(all="ignore"):
        got = lp._times(m)(u)
        want = np.einsum("...ij,...jk->...ik", m, u)
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    moved = got.view(np.int64) != want.view(np.int64)
    moved &= ~nan
    assert np.all(got[moved] == 0.0) and np.all(np.signbit(got[moved]))
    assert not np.any(np.signbit(want[moved]))


def _nearly_conformal(perturb):
    g, _ = lp.leaf_metric(hyperbolic_spec(n=33))
    comp = g.components.copy()
    if perturb == "g_yy ulp":
        comp[7, 9, 1, 1] = np.nextafter(comp[7, 9, 1, 1], np.inf)
    else:
        comp[7, 9, 0, 1] = comp[7, 9, 1, 0] = np.nextafter(0.0, 1.0)
    return MetricGrid(g.axes, comp)


@pytest.mark.parametrize("grid", [
    sheared_grid,
    lambda: _nearly_conformal("g_yy ulp"),
    lambda: _nearly_conformal("g_xy node"),
], ids=["sheared", "g_yy ulp", "g_xy subnormal"])
def test_profile_refuses_a_non_conformal_metric(monkeypatch, grid):
    # the shoot splines one conformal factor; any other metric, even one
    # ulp or one subnormal away from conformal, is refused before a spline
    # is fitted or an RK4 step taken
    g = grid()

    def shoot(*args, **kwargs):
        raise AssertionError("the shoot ran")

    monkeypatch.setattr(lp, "factor_spline", shoot)
    monkeypatch.setattr(lp, "_rk4", shoot)
    with pytest.raises(GridError, match=re.escape(
            "needs a conformal metric phi (dx^2 + dy^2)")):
        lp.geodesic_parallel_profile(g)


def test_y_invariant_leaf_is_shot_as_one_geodesic():
    # criterion 10's leaf, phi = sqrt(2) x e^x, does not vary in y: every
    # geodesic is the first one moved along y. Its arclength from the left
    # edge x = 1 and c = sqrt(phi/2) are known in closed form, and Q and
    # the transverse residual vanish exactly
    from scipy.integrate import quad

    def half_phi(xi):
        return np.sqrt(2.0) * xi * np.exp(xi) / 2.0

    cp, s2, _ = leaf_pipeline(1e-2, 0.48)
    X = cp.x_map[:, 0]
    assert np.all(cp.x_map == X[:, None]) and np.all(cp.c == cp.c[:, :1])
    assert np.array_equal(cp.y_map,
                          np.broadcast_to(cp.y_axis.nodes, cp.c.shape))
    arclength = [quad(lambda xi: math.sqrt(half_phi(xi)), 1.0, x_end,
                      epsabs=1e-14, epsrel=1e-14)[0] for x_end in X]
    np.testing.assert_allclose(arclength, cp.x_axis.nodes, rtol=0, atol=1e-9)
    np.testing.assert_allclose(cp.c[:, 0], np.sqrt(half_phi(X)), rtol=1e-12)
    Q = lp.reduced_fields(cp).Q
    assert np.any(np.isfinite(Q)) and np.all(Q[np.isfinite(Q)] == 0.0)
    assert s2.transverse_R == 0.0


def test_one_ulp_off_y_invariance_takes_the_full_shoot(monkeypatch):
    # criterion 10's source leaf with one phi node moved by one ulp: y is
    # no longer exactly a Killing direction, so every seed's geodesic is
    # shot, and c agrees with the translated one's to rounding. The
    # translated one is a lane of four Python floats, a tuple of shape (4,)
    h = 1e-2
    sx, sy = Axis("x", 1.0, h, 57), Axis("y", 0.0, h, 73)
    g = lp.leaf_metric(lp.leaf_spec(sx, sy, h="-x",
                                    ell=lp.hyperbolic_factor(sx, sy, "x")))[0]
    comp = g.components.copy()
    comp[20, 30, 0, 0] = comp[20, 30, 1, 1] = np.nextafter(comp[20, 30, 0, 0],
                                                           np.inf)
    lanes = []

    def rhs(spline, u, _rhs=lp._geodesic_rhs):
        lanes.append(np.shape(u)[1:])
        return _rhs(spline, u)

    monkeypatch.setattr(lp, "_geodesic_rhs", rhs)
    axes = Axis("x", 0.0, h, 49), Axis("y", 0.12, h, 49)
    one = lp.geodesic_parallel_profile(g, *axes)
    assert set(lanes) == {()}
    lanes.clear()
    full = lp.geodesic_parallel_profile(MetricGrid(g.axes, comp), *axes)
    assert set(lanes) == {(49 + 2,)}
    assert not np.all(full.c == full.c[:, :1])
    np.testing.assert_allclose(full.c, one.c, rtol=0, atol=1e-12)


def test_leaf_pipeline_satisfies_reduced_system():
    cp, s2, sol = leaf_pipeline(1e-2, 0.24)
    assert s2.worst() < 1e-3
    assert sol.compat_residual < 1e-3
    assert sol.det_drift < 1e-10


def test_assembled_metric_structure():
    cp, s2, sol = leaf_pipeline(1e-2, 0.24)
    g4, form = lp.assemble_four_metric(sol, cp)
    assert [ax.name for ax in g4.axes] == ["x", "y", "u", "v"]
    comp = g4.components
    # Killing directions: one-node u, v axes
    assert g4.counts[2:] == (1, 1) and form.counts[2:] == (1, 1)
    assert einstein_residual(g4, 0.0) < 5e-3
    assert exterior_derivative_closedness(form) < 1e-10
    np.testing.assert_allclose(form.components[..., 0, 1],
                               2.0 * cp.c[2:-2, 1:-1, None, None]
                               * np.ones_like(comp[..., 0, 0]), rtol=1e-12)


@pytest.mark.parametrize("counts", [(1, 9), (9, 1), (1, 1)])
def test_leaf_spec_and_profile_refuse_a_one_node_axis(monkeypatch, counts):
    # to a grid, a one-node axis is a Killing direction; a leaf or a
    # profile would silently become invariant along it, and the shoot's
    # spline has no nodes to fit along it: the source grid is refused
    # before the spline is fitted
    x_axis, y_axis = (Axis(name, 1.0, 0.1, n) for name, n in zip("xy", counts))
    ones = np.ones(counts)
    message = re.escape(f"need at least 2 nodes per axis, got {counts}")
    with pytest.raises(GridError, match=message):
        lp.LeafSpec(x_axis, y_axis, ones, ones)
    with pytest.raises(GridError, match=message):
        lp.CProfile(x_axis, y_axis, ones, ones, ones)

    def fit(*args):
        raise AssertionError("a spline was fitted")

    monkeypatch.setattr(lp, "factor_spline", fit)
    with pytest.raises(GridError, match=message):
        lp.geodesic_parallel_profile(lp._conformal_metric(x_axis, y_axis,
                                                          ones))


def test_hyperbolic_factor_along_either_axis():
    a, b = Axis("x", 1.0, 0.25, 5), Axis("y", 2.0, 0.5, 3)
    along_x = lp.hyperbolic_factor(a, b, "x")
    assert np.array_equal(along_x[:, 0], 1.0 / (2.0 * a.nodes ** 2))
    assert np.array_equal(along_x, lp.hyperbolic_factor(b, a, "y").T)
    flipped = Axis("y", -1.0, 0.5, 3)
    with pytest.raises(DomainError, match="inside y > 0"):
        lp.hyperbolic_factor(a, flipped)
    assert lp.hyperbolic_factor(a, flipped, "x").shape == (5, 3)


def test_cprofile_json_round_trip():
    cp = round_profile(n=41)
    back = lp.CProfile.from_json(cp.to_json())
    for name in ("c", "x_map", "y_map"):
        assert np.array_equal(getattr(back, name), getattr(cp, name))
    assert back.coverage == cp.coverage
    assert back.x_axis == cp.x_axis


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=5e-324, allow_infinity=False)
# steps whose square is a normal float, the ones an Axis takes
_steps = st.floats(min_value=1.5e-154, max_value=1.3e154)
_meta = st.dictionaries(st.text(max_size=8),
                        st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                  st.text(max_size=8), _finite), max_size=3)


@st.composite
def node_arrays(draw, shape, values):
    """An array of `shape` exactly constant along a drawn set of its axes
    and elsewhere drawn from a pool of `values`."""
    const = draw(st.sets(st.integers(0, len(shape) - 1)))
    core = tuple(1 if m in const else n for m, n in enumerate(shape))
    pool = np.array(draw(st.lists(values, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.broadcast_to(rng.choice(pool, size=core), shape).copy()


@st.composite
def leaf_axes(draw):
    return tuple(Axis(name, draw(_finite), draw(_steps),
                      draw(st.integers(2, 7))) for name in "xy")


def _bits_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leaf_spec_round_trip_is_bit_exact(data):
    ax, ay = data.draw(leaf_axes())
    shape = (ax.count, ay.count)
    spec = lp.LeafSpec(ax, ay, data.draw(node_arrays(shape, _positive)),
                       data.draw(node_arrays(shape, _finite)),
                       meta=data.draw(_meta))
    text = spec.to_json()
    back = lp.LeafSpec.from_json(text)
    assert (back.x_axis, back.y_axis) == (ax, ay)
    assert _bits_equal(back.ell, spec.ell) and _bits_equal(back.h, spec.h)
    assert back.meta == spec.meta
    assert back.to_json() == text


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cprofile_round_trip_is_bit_exact(data):
    ax, ay = data.draw(leaf_axes())
    shape = (ax.count, ay.count)
    cp = lp.CProfile(ax, ay, data.draw(node_arrays(shape, _positive)),
                     data.draw(node_arrays(shape, _finite)),
                     data.draw(node_arrays(shape, _finite)),
                     coverage=data.draw(st.floats(0.0, 1.0, exclude_min=True)),
                     truncated=data.draw(st.booleans()),
                     truncation_reason=data.draw(st.text(max_size=12)),
                     meta=data.draw(_meta))
    text = cp.to_json()
    back = lp.CProfile.from_json(text)
    assert (back.x_axis, back.y_axis) == (ax, ay)
    for name in ("c", "x_map", "y_map"):
        assert _bits_equal(getattr(back, name), getattr(cp, name))
    assert (back.coverage, back.truncated, back.truncation_reason,
            back.meta) == (cp.coverage, cp.truncated, cp.truncation_reason,
                           cp.meta)
    assert back.to_json() == text
