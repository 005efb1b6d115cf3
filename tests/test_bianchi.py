import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keflow.bianchi import (_COFRAMES, ABCState, BianchiParams,
                            CLOSED_FORM_CASES, ClosedFormConstants, abc_rhs,
                            closed_form, closed_form_derivative,
                            closed_form_params, heisenberg_invariants,
                            integrate, torus_metric_grid, type_a_flow,
                            type_a_grids)
from keflow.curvature import (convergence_order, einstein_residual,
                              exterior_derivative_closedness, riemann_max)
from keflow.e2flow import E2_PARAMS
from keflow.errors import DomainError
from keflow.grids import Axis, central_diff

CONSTS = ClosedFormConstants(k=1.2, w3=0.8, alpha=0.3, a0=1.1, b0=0.9, c0=1.3)
WINDOWS = {"poincare": (0.375, 1.5), "torus": (-2.0, 2.0),
           "heisenberg": (0.5, 3.0), "euclidean": (0.5, 3.0)}


def test_params_validation():
    with pytest.raises(DomainError):
        BianchiParams(1.0, 1.0, 0.0, lam=-1.0, alpha0=0.1)
    with pytest.raises(DomainError):
        BianchiParams(1.0, 1.0, 0.0, lam=0.0)  # alpha0 required
    with pytest.raises(DomainError):
        BianchiParams(1.0, 0.0, 1.0, lam=-1.0, alpha0=0.2)  # alpha0 forbidden
    p = BianchiParams(1.0, 0.0, 1.0, lam=-1.0)
    assert p.alpha(2.0, 3.0) == pytest.approx(36.0)


def test_state_positivity():
    with pytest.raises(DomainError):
        ABCState(0.0, 1.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        ABCState(0.0, 1.0, np.inf, 1.0)


def test_closed_form_domains():
    with pytest.raises(DomainError):
        closed_form("poincare", CONSTS, CONSTS.t0)  # u = 0 endpoint
    with pytest.raises(DomainError):
        closed_form("heisenberg", CONSTS, CONSTS.t0 - 0.1)
    with pytest.raises(DomainError):
        closed_form("nonsense", CONSTS, 1.0)


def test_closed_form_solves_flow():
    # analytic derivative of each family equals the flow's right-hand side
    for case in CLOSED_FORM_CASES:
        params = closed_form_params(case, CONSTS)
        lo, hi = WINDOWS[case]
        worst = 0.0
        for t in np.linspace(lo, hi, 60):
            s = closed_form(case, CONSTS, float(t))
            d_an = np.array(closed_form_derivative(case, CONSTS, float(t)))
            d_fl = np.array(abc_rhs(params, s))
            worst = max(worst, float(np.max(np.abs(d_an - d_fl))))
        assert worst < 1e-10, f"{case}: {worst}"


def _closed_form_time(case, consts, frac):
    """A time inside the family's domain: a fraction of (0, pi/2) in
    w3 (t - t0) for poincare, t - t0 in (0, 5) for heisenberg and
    euclidean, t - t0 in (-5, 5) for the entire torus family."""
    if case == "poincare":
        return consts.t0 + frac * 0.5 * math.pi / consts.w3
    return consts.t0 + 5.0 * (frac if case != "torus" else 2.0 * frac - 1.0)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(CLOSED_FORM_CASES),
       consts=st.builds(ClosedFormConstants,
                        k=st.floats(0.1, 5.0), w3=st.floats(0.1, 5.0),
                        alpha=st.floats(-2.0, 2.0), t0=st.floats(-2.0, 2.0),
                        a0=st.floats(0.1, 5.0), b0=st.floats(0.1, 5.0),
                        c0=st.floats(0.1, 5.0)),
       frac=st.floats(0.01, 0.99))
def test_closed_form_derivative_is_the_flow(case, consts, frac):
    # over random constants and times inside each family's domain
    t = _closed_form_time(case, consts, frac)
    s = closed_form(case, consts, t)
    d_an = np.array(closed_form_derivative(case, consts, t))
    d_fl = np.array(abc_rhs(closed_form_params(case, consts), s))
    scale = max(np.max(np.abs(d_an)), s.a, s.b, s.c)
    assert np.max(np.abs(d_an - d_fl)) <= 1e-12 * scale


def test_integrate_tracks_closed_form():
    params = closed_form_params("euclidean", CONSTS)
    s0 = closed_form("euclidean", CONSTS, 1.0)
    traj = integrate(params, s0, 3.0, tol=1e-10)
    assert not traj.blow_up
    dev = 0.0
    for t, row in zip(traj.t, traj.states):
        ref = closed_form("euclidean", CONSTS, float(t))
        dev = max(dev, float(np.max(np.abs(row - [ref.a, ref.b, ref.c]))))
    assert dev < 5e-9


def test_poincare_collapse_detected():
    params = closed_form_params("poincare", CONSTS)
    endpoint = CONSTS.t0 + 0.5 * np.pi / CONSTS.w3
    s0 = closed_form("poincare", CONSTS, 0.5 * endpoint)
    traj = integrate(params, s0, endpoint + 1.0, tol=1e-10)
    assert traj.blow_up
    assert traj.t[-1] <= endpoint + 1e-6


def test_heisenberg_invariants_conserved():
    params = BianchiParams(0.0, 0.0, 1.0, lam=-1.0)
    traj = integrate(params, ABCState(0.0, 0.5, 0.5, 0.4), 5.0, tol=1e-10)
    assert not traj.blow_up
    states = [ABCState(float(ti), *map(float, abc))
              for ti, abc in zip(traj.t, traj.states)]
    inv0 = heisenberg_invariants(states[0])
    for s in states:
        iv = heisenberg_invariants(s)
        assert abs(iv[0] - inv0[0]) < 1e-8
        assert abs(iv[1] - inv0[1]) < 1e-8


def test_torus_metric_flat_for_any_alpha():
    # the torus family is locally flat even away from alpha = a0 b0
    cone = ClosedFormConstants(alpha=0.5, a0=1.1, b0=0.9)
    g = torus_metric_grid(cone, Axis("t", 0.5 - 3e-3, 1e-3, 7))
    assert riemann_max(g) < 1e-5
    assert einstein_residual(g, 0.0) < 1e-5


def test_type_a_grids_at_one_node():
    # in the coframe (du, s1, s2, s3) the metric is diag(n^2, a^2, b^2,
    # c^2) and the form has w_03 = n c, w_12 = a b; the coordinate
    # components are those matrices pulled back by the coframe rows
    axes = (Axis("u", 0.2, 0.1, 5), Axis("x", -0.3, 0.2, 5),
            Axis("y", 0.1, 0.2, 5), Axis("theta", 0.4, 0.3, 6))
    abc = np.array([[1.1, 1.2, 0.9, 1.0, 1.3], [0.8, 0.7, 0.6, 0.5, 0.4],
                    [1.3, 1.4, 1.5, 1.6, 1.7]])
    lapse = np.array([0.7, 1.9, 1.3, 2.1, 0.6])
    g, w = type_a_grids(E2_PARAMS, abc, lapse, axes)
    node = (3, 1, 4, 5)
    a, b, c = abc[:, node[0]]
    n = lapse[node[0]]
    th = axes[3].nodes[node[3]]
    frame = np.eye(4)
    frame[1:, 1:] = [[np.cos(th), np.sin(th), 0.0], [0.0, 0.0, 1.0],
                     [-np.sin(th), np.cos(th), 0.0]]
    g_frame = np.diag([n * n, a * a, b * b, c * c])
    w_frame = np.zeros((4, 4))
    w_frame[0, 3], w_frame[1, 2] = n * c, a * b
    w_frame -= w_frame.T
    g_node, w_node = g.components[node], w.components[node]
    assert np.allclose(g_node, frame.T @ g_frame @ frame, rtol=1e-14, atol=0)
    assert np.allclose(w_node, frame.T @ w_frame @ frame, rtol=1e-14,
                       atol=1e-15)
    # Kahler: J = g^-1 w squares to -1
    jmat = np.linalg.solve(g_node, w_node)
    assert np.allclose(jmat @ jmat, -np.eye(4), atol=1e-13)


@pytest.mark.parametrize("p", sorted(_COFRAMES))
def test_coframe_structure_equations(p):
    # d s_i = p_i s_j ^ s_k, (i, j, k) cyclic, by central differences on a
    # 5^3 group grid: O(h^2) for E(2), exactly 0 for the abelian torus
    names, coframe = _COFRAMES[p]

    def worst(h):
        nodes = np.meshgrid(*[0.3 + h * np.arange(5)] * 3, indexing="ij")
        e = np.array([[np.broadcast_to(v, nodes[0].shape) for v in row]
                      for row in coframe(*nodes)])
        resid = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            for m, n in ((0, 1), (0, 2), (1, 2)):
                d_sigma = (central_diff(e[i, n], h, m)
                           - central_diff(e[i, m], h, n))
                wedge = e[j, m] * e[k, n] - e[j, n] * e[k, m]
                term = (d_sigma - p[i] * wedge)[1:-1, 1:-1, 1:-1]
                resid = max(resid, float(np.abs(term).max()))
        return resid

    hs = [4e-2, 2e-2, 1e-2]
    resids = [worst(h) for h in hs]
    if not any(p):
        assert resids == [0.0, 0.0, 0.0]
    else:
        assert resids[-1] < 1e-4
        assert 1.8 <= convergence_order(hs, resids).order <= 2.2


def test_torus_form_is_exactly_closed():
    consts = ClosedFormConstants(alpha=0.6, a0=0.8, b0=0.75)
    t_axis = Axis("t", 0.1, 1e-3, 7)
    abc = np.array([[s.a, s.b, s.c] for s in
                    (closed_form("torus", consts, t) for t in t_axis.nodes)]).T
    _, w = type_a_grids(closed_form_params("torus", consts), abc,
                        abc[0] * abc[1] * abc[2], (t_axis, None, None, None))
    assert [ax.count for ax in w.axes] == [7, 1, 1, 1]
    assert exterior_derivative_closedness(w) == 0.0


@pytest.mark.parametrize("params", [
    BianchiParams(1.0, 1.0, 1.0, lam=1.0),
    BianchiParams(0.0, 0.0, 1.0, lam=-1.0),
    BianchiParams(1.0, 1.0, 0.0, alpha0=0.3),
])
def test_type_a_grids_unknown_group(params):
    with pytest.raises(DomainError, match="no invariant coframe"):
        type_a_grids(params, np.ones((3, 7)), np.ones(7),
                     (Axis("t", 0.0, 1e-3, 7), None, None, None))


def test_trajectory_meta_round_trip():
    params = closed_form_params("torus", CONSTS)
    s0 = closed_form("torus", CONSTS, 0.0)
    traj = integrate(params, s0, 1.0, tol=1e-10)
    assert traj.meta["p3"] == 0.0
    assert traj.meta["alpha0"] == CONSTS.alpha


_positive = st.floats(1e-3, 1e3)


@settings(max_examples=60, deadline=None)
@given(states=st.lists(st.tuples(_positive, _positive, _positive),
                       max_size=30),
       seed=st.integers(0, 2 ** 32 - 1),
       params=st.sampled_from([E2_PARAMS,
                               closed_form_params("euclidean", CONSTS)]))
def test_flow_on_arrays_rounds_as_on_floats(states, seed, params):
    # odes.replay evaluates type_a_flow on arrays and must reproduce the march,
    # which evaluates it on floats; (ab)^2 rounds differently in about 1
    # of 1,000 states when an array squares where a float calls pow
    bulk = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, (1000, 3)))
    abc = np.concatenate([np.reshape(states, (-1, 3)), bulk])
    columns = type_a_flow(params, *abc.T)
    for i, state in enumerate(abc.tolist()):
        for column, value in zip(columns, type_a_flow(params, *state)):
            assert column[i].tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("ab", [1e154, 1e155, -1e160, 1e300])
def test_alpha_overflows_to_inf_on_floats_as_on_arrays(ab):
    # a float's pow raises OverflowError where float_power returns inf
    params = BianchiParams(1.0, 0.0, 1.0, lam=-1.0)
    with np.errstate(over="ignore"):
        array = params.alpha(np.array([ab]), np.array([1.0]))
    assert np.float64(params.alpha(ab, 1.0)).tobytes() == array[0].tobytes()
