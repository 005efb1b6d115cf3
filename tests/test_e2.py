import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from keflow import e2flow as e2
from keflow.bianchi import type_a_flow
from keflow.curvature import (convergence_order, einstein_residual,
                              exterior_derivative_closedness)
from keflow.errors import DomainError
from keflow.grids import Axis
from keflow.odes import Trajectory, integrate_flow


@pytest.fixture(scope="module")
def shoot100():
    return e2.shoot_unstable(1.0, 1e-5, b_max=100.0, tol=1e-12)


def _e2_flow(a, b, c):
    return np.array(type_a_flow(e2.E2_PARAMS, a, b, c))


def test_rhs_and_jacobian_consistent():
    a, b, c = 0.9, 0.4, 1.1
    J = e2.e2_jacobian(a, b, c)
    eps = 1e-7
    for j, dv in enumerate(np.eye(3) * eps):
        fd = (_e2_flow(a + dv[0], b + dv[1], c + dv[2])
              - _e2_flow(a - dv[0], b - dv[1], c - dv[2])) / (2 * eps)
        assert np.max(np.abs(fd - J[:, j])) < 1e-6


def test_shoot_rhs_is_the_type_a_flow_per_arclength():
    rng = np.random.default_rng(8)
    for y in rng.uniform(-3.0, 3.0, size=(200, 4)).tolist():
        a, b, c, _ = y
        abc = a * b * c
        assert e2._shoot_rhs(0.0, y) == (
            *(v / abc for v in type_a_flow(e2.E2_PARAMS, a, b, c)), 1.0 / abc)


def test_shoot_rhs_on_arrays_rounds_as_on_floats():
    # odes.replay evaluates the shoot's right-hand side on arrays and must
    # reproduce the march, which evaluates it on floats
    y = np.exp(np.random.default_rng(3).uniform(-3.0, 3.0, (4, 2000)))
    columns = e2._shoot_rhs(y[3], tuple(y))
    for i, state in enumerate(y.T.tolist()):
        for column, value in zip(columns, e2._shoot_rhs(state[3], state)):
            assert column[i].tobytes() == np.float64(value).tobytes()


def _direct_tail_gap(traj):
    """The leg back to the bolt as one direct integrate_flow call (the
    oracle): on a tail shoot the start's tail estimate a b c / q^2 is its
    r, so the leg ends at r = 0 to rounding."""
    q = traj.meta["q"]
    a0, b0, c0, t0 = traj.states[0]
    r_bolt = traj.t[0] - a0 * b0 * c0 / (q * q)
    assert abs(r_bolt) <= 1e-20

    def cut(r, y, _b=b0 / 10.0):
        return y[1] - _b

    back = integrate_flow(e2._shoot_rhs, traj.t[0], (a0, b0, c0, t0),
                          r_bolt, ("a", "b", "c", "t"), rtol=1e-12,
                          atol=1e-20, stops=[(cut, -1.0, "cut")],
                          variable="r")
    assert back.stop_reason == "cut"
    ac, bc_, cc, _ = back.states[0]
    return abs(back.t[0] - r_bolt - ac * bc_ * cc / (q * q))


@pytest.mark.parametrize("q", [0.8, 1.0, 1.7])
def test_tail_gap_matches_direct_solve(q):
    traj = e2.shoot_unstable(q, b_max=10.0)
    gap = e2._tail_gap(traj)
    assert gap == _direct_tail_gap(traj)
    assert gap < 1e-8 * traj.t[0]


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


def test_shoot_reaches_target_and_stays_trapped(shoot100):
    traj = shoot100
    assert traj.stop_reason == "event:b_max"
    assert abs(traj.column("b")[-1] - 100.0) < 1e-6
    diag = e2.diagnose(traj)
    assert diag.region_ok
    assert diag.nullcline_ok
    assert all(diag.monotone_ok.values())
    assert not diag.inconclusive


def test_diagnose_checks_the_region_between_rows(shoot100):
    # a dense output that leaves the region inside one step, where c falls
    # to a / 2 midway, while every row lies inside it: the rows alone pass
    t = shoot100.t
    k = t.size // 2
    lo, hi = t[k], t[k + 1]
    dense = shoot100.interpolant

    def dipped(r):
        y = dense(r)
        bump = np.sin(np.pi * np.clip((r - lo) / (hi - lo), 0.0, 1.0))
        y[2] = y[2] + (0.5 * y[0] - y[2]) * bump
        return y
    traj = replace(shoot100, interpolant=dipped)
    a, c = traj.column("a"), traj.column("c")
    assert (c * c - a * a).min() >= -e2.REGION_SLACK
    diag = e2.diagnose(traj)
    assert not diag.region_ok
    assert diag.region_min_lower < -0.1
    assert e2.diagnose(shoot100).region_ok


def test_shoot_off_curve_flagged():
    traj = e2.shoot_unstable(1.0, b_max=5.0, start=(2.0, 0.5, 0.3))
    diag = e2.diagnose(traj)
    assert not diag.region_ok
    assert "unstable curve" in diag.notes


def test_scaling_map_symmetry(shoot100):
    # r is invariant: at each r, a and c scale by k and t by 1/k^2, and the
    # map takes the shoot at q to the shoot at k q from (k q, eps, k q)
    k = 2.0
    sc = e2.scaling_map(shoot100, k)
    assert sc.meta["q"] == k * shoot100.meta["q"]
    for r in [shoot100.t[5], 0.3, float(shoot100.t[-1])]:
        orig = np.asarray(shoot100.sample([r])).ravel()
        mapped = np.asarray(sc.sample([r])).ravel()
        assert np.array_equal(mapped, orig * [k, 1.0, k, 1.0 / (k * k)])
    other = e2.shoot_unstable(k, 1e-5, b_max=50.0, tol=1e-12)
    r = np.linspace(other.t[0], other.t[-1], 41)
    assert np.allclose(other.sample(r), sc.sample(r), rtol=1e-9, atol=0.0)
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


def test_bolt_profile_csv_golden_bytes():
    golden = ("# meta q: 1.0\n"
              "# meta r_origin: 'arclength from the t -> -infinity end'\n"
              "r,a,b,c\n1e-05,1.0,1e-05,1.0\n0.2,0.9,0.19866933079506122,1.1\n")
    prof = e2.BoltProfile(
        r=np.array([1e-5, 0.2]), a=np.array([1.0, 0.9]),
        b=np.array([1e-5, 0.19866933079506122]), c=np.array([1.0, 1.1]),
        meta={"q": 1.0, "r_origin": "arclength from the t -> -infinity end"})
    assert prof.to_csv() == golden


def test_bolt_needs_room_for_ladder(shoot100):
    prof = e2.bolt_profile(shoot100, r_max=0.4, n=160)
    with pytest.raises(DomainError):
        e2.bolt_smoothness(prof, r0=2.0 * prof.r[0])


def test_distance_between_slices_matches_growth(shoot100):
    d = e2.distance_between_b_slices(shoot100, 10.0, 100.0)
    k2 = 2.0 * math.sqrt(1.5)
    assert d >= 0.9 * k2 * math.log(10.0)
    assert d <= 1.1 * k2 * math.log(10.0)


QS = (0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25)


@lru_cache(maxsize=None)
def _shoot(q, b_max):
    return e2.shoot_unstable(q, b_max=b_max)


@pytest.mark.parametrize("b_max", [100.0, 1000.0])
@pytest.mark.parametrize("q", QS)
def test_distance_up_to_the_b_max_slice(q, b_max):
    # the stored b[-1] may land an ulp or two either side of b_max; the
    # slice is still at r[-1]. The scaling symmetry keeps b-slice distances
    # independent of q.
    traj = _shoot(q, b_max)
    assert traj.stop_reason == "event:b_max"
    d = e2.distance_between_b_slices(traj, b_max / 10.0, b_max)
    k2 = 2.0 * math.sqrt(1.5)
    assert 0.9 * k2 * math.log(10.0) <= d <= 1.1 * k2 * math.log(10.0)


@pytest.mark.parametrize("b_max", [100.0, 1000.0])
def test_r_at_b_max_is_the_same_for_every_q(b_max):
    # the scaling map leaves r and b alone, so every q shoots the same
    # b(r) from the bolt, and b has no blow-up in r for the b_max root to
    # resolve
    r_end = []
    for q in QS:
        traj = _shoot(q, b_max)
        assert traj.stop_reason == "event:b_max"
        assert abs(traj.column("b")[-1] - b_max) <= 1e-15 * b_max
        r_end.append(traj.t[-1])
    assert max(r_end) - min(r_end) <= 1e-9 * min(r_end)


def test_e2_metric_is_einstein(shoot100):
    bvals = shoot100.column("b")
    rmid = shoot100.t[int(np.searchsorted(bvals, 1.0))]
    resids = []
    hs = [4e-3, 2e-3, 1e-3]
    for h in hs:
        r_axis = Axis("r", rmid - 3 * h, h, 7)
        th_axis = Axis("theta", 0.7 - 3 * h, h, 7)
        x_axis = Axis("x", -2 * h, h, 5)
        y_axis = Axis("y", -2 * h, h, 5)
        g = e2.e2_metric_grid(shoot100, r_axis, th_axis, x_axis, y_axis)
        resids.append(einstein_residual(g, -1.0))
    assert resids[-1] < 5e-3
    fit = convergence_order(hs, resids)
    assert 1.8 <= fit.order <= 2.2


def test_e2_grids_match_the_literal_formulas(shoot100):
    # the (r, x, y, theta) components written out by hand for the coframe
    # cos th dx + sin th dy, d th, -sin th dx + cos th dy, with lapse 1 in
    # arclength: bit for bit but g_xy, which the coframe sum rounds as
    # a^2 cs - c^2 sc
    rmid = shoot100.t[int(np.searchsorted(shoot100.column("b"), 1.0))]
    for h in [4e-3, 2e-3, 1e-3]:
        axes = (Axis("r", rmid - 3 * h, h, 7), Axis("theta", 0.7 - 3 * h, h, 7),
                Axis("x", -2 * h, h, 5), Axis("y", -2 * h, h, 5))
        g = e2.e2_metric_grid(shoot100, *axes).components
        w = e2.e2_kahler_form_grid(shoot100, *axes).components
        a, b, c = (v[:, None, None, None]
                   for v in shoot100.sample(axes[0].nodes)[:3])
        theta = axes[1].nodes[None, None, None, :]
        sin, cos = np.sin(theta), np.cos(theta)
        assert g.shape == w.shape == (7, 5, 5, 7, 4, 4)
        assert np.array_equal(g[..., 0, 0], np.ones(g.shape[:4]))
        assert np.array_equal(g[..., 1, 1], np.broadcast_to(
            a ** 2 * cos ** 2 + c ** 2 * sin ** 2, g.shape[:4]))
        assert np.array_equal(g[..., 2, 2], np.broadcast_to(
            a ** 2 * sin ** 2 + c ** 2 * cos ** 2, g.shape[:4]))
        assert np.array_equal(g[..., 3, 3], np.broadcast_to(
            b ** 2, g.shape[:4]))
        gxy = (a ** 2 - c ** 2) * sin * cos
        assert np.abs(g[..., 1, 2] - gxy).max() <= 4 * np.spacing(
            np.abs(g).max())
        ref = np.zeros_like(w)
        for i, j, val in ((0, 1, -c * sin), (0, 2, c * cos),
                          (1, 3, a * b * cos), (2, 3, a * b * sin)):
            ref[..., i, j] = val
            ref[..., j, i] = -val
        assert np.array_equal(w, ref)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            assert not np.any(g[..., i, j]) and not np.any(g[..., j, i])


def test_e2_kahler_form_closed(shoot100):
    # the residual is pure stencil truncation, so it must refine at order 2
    bvals = shoot100.column("b")
    rmid = shoot100.t[int(np.searchsorted(bvals, 1.0))]
    hs = [4e-3, 2e-3, 1e-3]
    res = []
    for h in hs:
        w = e2.e2_kahler_form_grid(shoot100, Axis("r", rmid - 3 * h, h, 7),
                                   Axis("theta", 0.7 - 3 * h, h, 7))
        res.append(exterior_derivative_closedness(w))
    assert res[-1] < 1e-4
    assert 1.8 <= convergence_order(hs, res).order <= 2.2
