import math

import numpy as np
import pytest

from keflow import e2flow as e2
from keflow.bianchi import _flow
from keflow.curvature import (convergence_order, einstein_residual,
                              exterior_derivative_closedness)
from keflow.errors import DomainError
from keflow.grids import Axis
from keflow.odes import Trajectory, integrate_flow


@pytest.fixture(scope="module")
def shoot100():
    return e2.shoot_unstable(1.0, 1e-5, b_max=100.0, tol=1e-12)


def _e2_flow(a, b, c):
    return np.array(_flow(e2.E2_PARAMS, a, b, c))


def test_rhs_and_jacobian_consistent():
    a, b, c = 0.9, 0.4, 1.1
    J = e2.e2_jacobian(a, b, c)
    eps = 1e-7
    for j, dv in enumerate(np.eye(3) * eps):
        fd = (_e2_flow(a + dv[0], b + dv[1], c + dv[2])
              - _e2_flow(a - dv[0], b - dv[1], c - dv[2])) / (2 * eps)
        assert np.max(np.abs(fd - J[:, j])) < 1e-6


def test_shoot_rhs_is_the_type_a_flow_plus_arclength():
    rng = np.random.default_rng(8)
    for y in rng.uniform(-3.0, 3.0, size=(200, 4)):
        a, b, c, _ = y.tolist()
        assert e2._shoot_rhs(0.0, y) == (*_flow(e2.E2_PARAMS, a, b, c),
                                         a * b * c)


def _direct_tail_gap(traj):
    """The backward tail leg as one direct integrate_flow call (the oracle)."""
    q = traj.meta["q"]
    a0, b0, c0 = traj.states[0, :3]

    def cut(t, y, _b=b0 / 10.0):
        return y[1] - _b
    cut.terminal = True
    cut.direction = -1.0

    back = integrate_flow(e2._shoot_rhs, traj.t[0], (a0, b0, c0, 0.0),
                          traj.t[0] - 200.0, ("a", "b", "c", "r"),
                          rtol=1e-12, atol=1e-20, events=[cut])
    assert back.stop_reason == "event:0"
    ac, bc_, cc, rneg = back.states[0]
    return abs(a0 * b0 * c0 / (q * q) - (ac * bc_ * cc / (q * q) + (-rneg)))


@pytest.mark.parametrize("q", [0.8, 1.0, 1.7])
def test_tail_gap_matches_direct_solve(q):
    traj = e2.shoot_unstable(q, b_max=10.0)
    assert e2._tail_gap(traj) == _direct_tail_gap(traj)


def test_saddle_spectrum():
    for q in (1.0, 1.7):
        lin = e2.linearization(q)
        np.testing.assert_allclose(lin.eigenvalues,
                                   [q * q, 0.0, -2.0 * q * q], atol=1e-12)
        v = lin.unstable_direction
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0, 0.0], atol=1e-12)


def test_degenerate_equilibrium_has_zero_jacobian():
    lin = e2.linearization(1.3, e2.EQUILIBRIUM_DEGENERATE)
    assert np.max(np.abs(lin.matrix)) == 0.0
    with pytest.raises(DomainError):
        lin.unstable_direction


def test_classify_start():
    assert e2.classify_start(1.0, 0.1, 1.0) == "trapped"
    assert e2.classify_start(1.0, 0.1, 0.9) == "a-blowup"
    assert e2.classify_start(1.0, 0.1, 1.4) == "c-blowup"


def test_shoot_reaches_target_and_stays_trapped(shoot100):
    traj = shoot100
    assert traj.stop_reason == "event:b_max"
    assert abs(traj.column("b")[-1] - 100.0) < 1e-6
    diag = e2.diagnose(traj)
    assert diag.region_ok
    assert diag.nullcline_ok
    assert all(diag.monotone_ok.values())
    assert not diag.inconclusive


def test_shoot_off_curve_flagged():
    traj = e2.shoot_unstable(1.0, b_max=5.0, start=(2.0, 0.5, 0.3))
    diag = e2.diagnose(traj)
    assert not diag.region_ok
    assert "unstable curve" in diag.notes


def test_scaling_map_symmetry(shoot100):
    k = 2.0
    sc = e2.scaling_map(shoot100, k)
    t = shoot100.t[5]
    orig = np.asarray(shoot100.sample([t])).ravel()
    mapped = np.asarray(sc.sample([t / (k * k)])).ravel()
    assert abs(mapped[0] - k * orig[0]) < 1e-10
    assert abs(mapped[1] - orig[1]) < 1e-10
    assert abs(mapped[2] - k * orig[2]) < 1e-10
    with pytest.raises(DomainError):
        e2.scaling_map(shoot100, -1.0)


def test_arclength_needs_dense_output(shoot100):
    back = Trajectory.from_csv(shoot100.to_csv())
    with pytest.raises(DomainError):
        e2.bolt_profile(back, r_max=0.1)


def test_bolt_profile_and_smoothness(shoot100):
    prof = e2.bolt_profile(shoot100, r_max=0.4, n=160)
    assert prof.r[0] < 1e-4 and prof.r[-1] == pytest.approx(0.4)
    sm = e2.bolt_smoothness(prof, r0=0.2)
    assert abs(sm.db_dr_limit - 1.0) < 1e-4
    assert sm.a2c2_refinement_change < 0.01 * abs(sm.a2c2_limit)
    assert sm.crab_refinement_change < 0.01 * abs(sm.crab_limit)
    # csv round trip feeds the spline path of the extrapolation
    prof2 = e2.BoltProfile.from_csv(prof.to_csv())
    for name in ("r", "a", "b", "c"):
        assert np.array_equal(getattr(prof2, name), getattr(prof, name))
    assert prof2.meta == prof.meta
    sm2 = e2.bolt_smoothness(prof2, r0=0.2)
    assert abs(sm2.db_dr_limit - sm.db_dr_limit) < 1e-6


def test_bolt_profile_csv_golden_bytes():
    golden = ("# meta q: 1.0\n"
              "# meta r_origin: 'arclength from the t -> -infinity end'\n"
              "r,a,b,c\n1e-05,1.0,1e-05,1.0\n0.2,0.9,0.19866933079506122,1.1\n")
    prof = e2.BoltProfile(
        r=np.array([1e-5, 0.2]), a=np.array([1.0, 0.9]),
        b=np.array([1e-5, 0.19866933079506122]), c=np.array([1.0, 1.1]),
        meta={"q": 1.0, "r_origin": "arclength from the t -> -infinity end"})
    assert prof.to_csv() == golden
    assert e2.BoltProfile.from_csv(golden).to_csv() == golden


def test_bolt_needs_room_for_ladder(shoot100):
    prof = e2.bolt_profile(shoot100, r_max=0.4, n=160)
    with pytest.raises(DomainError):
        e2.bolt_smoothness(prof, r0=2.0 * prof.r[0])


def test_distance_between_slices_matches_growth(shoot100):
    d = e2.distance_between_b_slices(shoot100, 10.0, 100.0)
    k2 = 2.0 * math.sqrt(1.5)
    assert d >= 0.9 * k2 * math.log(10.0)
    assert d <= 1.1 * k2 * math.log(10.0)


@pytest.mark.parametrize("b_max", [100.0, 1000.0])
@pytest.mark.parametrize("q", [0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15,
                               1.2, 1.25])
def test_distance_up_to_the_b_max_slice(q, b_max):
    # the b_max event fixes t[-1] only to the ulp of t, so near blow-up the
    # stored b[-1] lands either side of b_max; the slice is still at t[-1].
    # The scaling symmetry keeps b-slice distances independent of q.
    traj = e2.shoot_unstable(q, b_max=b_max)
    assert traj.stop_reason == "event:b_max"
    d = e2.distance_between_b_slices(traj, b_max / 10.0, b_max)
    k2 = 2.0 * math.sqrt(1.5)
    assert 0.9 * k2 * math.log(10.0) <= d <= 1.1 * k2 * math.log(10.0)


def test_e2_metric_is_einstein(shoot100):
    bvals = shoot100.column("b")
    tmid = shoot100.t[int(np.searchsorted(bvals, 1.0))]
    resids = []
    hs = [4e-3, 2e-3, 1e-3]
    for h in hs:
        t_axis = Axis("t", tmid - 3 * h, h, 7)
        th_axis = Axis("theta", 0.7 - 3 * h, h, 7)
        x_axis = Axis("x", -2 * h, h, 5)
        y_axis = Axis("y", -2 * h, h, 5)
        g = e2.e2_metric_grid(shoot100, t_axis, th_axis, x_axis, y_axis)
        resids.append(einstein_residual(g, -1.0))
    assert resids[-1] < 5e-3
    fit = convergence_order(hs, resids)
    assert 1.8 <= fit.order <= 2.2


def test_e2_grids_match_the_literal_formulas(shoot100):
    # the (t, x, y, theta) components written out by hand for the coframe
    # cos th dx + sin th dy, d th, -sin th dx + cos th dy: bit for bit but
    # g_xy, which the coframe sum rounds as a^2 cs - c^2 sc
    tmid = shoot100.t[int(np.searchsorted(shoot100.column("b"), 1.0))]
    for h in [4e-3, 2e-3, 1e-3]:
        axes = (Axis("t", tmid - 3 * h, h, 7), Axis("theta", 0.7 - 3 * h, h, 7),
                Axis("x", -2 * h, h, 5), Axis("y", -2 * h, h, 5))
        g = e2.e2_metric_grid(shoot100, *axes).components
        w = e2.e2_kahler_form_grid(shoot100, *axes).components
        a, b, c = (v[:, None, None, None]
                   for v in shoot100.sample(axes[0].nodes)[:3])
        theta = axes[1].nodes[None, None, None, :]
        sin, cos = np.sin(theta), np.cos(theta)
        assert g.shape == w.shape == (7, 5, 5, 7, 4, 4)
        assert np.array_equal(g[..., 0, 0], np.broadcast_to(
            (a * b * c) ** 2, g.shape[:4]))
        assert np.array_equal(g[..., 1, 1], np.broadcast_to(
            a ** 2 * cos ** 2 + c ** 2 * sin ** 2, g.shape[:4]))
        assert np.array_equal(g[..., 2, 2], np.broadcast_to(
            a ** 2 * sin ** 2 + c ** 2 * cos ** 2, g.shape[:4]))
        assert np.array_equal(g[..., 3, 3], np.broadcast_to(
            b ** 2, g.shape[:4]))
        gxy = (a ** 2 - c ** 2) * sin * cos
        assert np.abs(g[..., 1, 2] - gxy).max() <= 4 * np.spacing(
            np.abs(g).max())
        abc2 = a * b * c * c
        ref = np.zeros_like(w)
        for i, j, val in ((0, 1, -abc2 * sin), (0, 2, abc2 * cos),
                          (1, 3, a * b * cos), (2, 3, a * b * sin)):
            ref[..., i, j] = val
            ref[..., j, i] = -val
        assert np.array_equal(w, ref)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            assert not np.any(g[..., i, j]) and not np.any(g[..., j, i])


def test_e2_kahler_form_closed(shoot100):
    # the residual is pure stencil truncation, so it must refine at order 2
    bvals = shoot100.column("b")
    tmid = shoot100.t[int(np.searchsorted(bvals, 1.0))]
    hs = [4e-3, 2e-3, 1e-3]
    res = []
    for h in hs:
        w = e2.e2_kahler_form_grid(shoot100, Axis("t", tmid - 3 * h, h, 7),
                                   Axis("theta", 0.7 - 3 * h, h, 7))
        res.append(exterior_derivative_closedness(w))
    assert res[-1] < 1e-4
    assert 1.8 <= convergence_order(hs, res).order <= 2.2
