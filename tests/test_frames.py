import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from keflow.bianchi import ABCState, BianchiParams, bianchi_frame_coefficients
from keflow.errors import DomainError
from keflow.frame_algebra import (FrameCoefficients, PQRSState, sys_flow,
                                  from_pqrs, integrability_residuals,
                                  kahler_relation_residuals, lambda_constraint,
                                  sys_rhs, to_pqrs)


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2.0, 2.0, size=(n, 4))
    radii = rng.uniform(0.0, 2.5, size=n)
    phases = rng.uniform(-math.pi, math.pi, size=n)
    out = []
    for (p, q, l, nn), r, s in zip(vals, radii, phases):
        out.append(PQRSState(P=p, Q=q, R=r, S=s if r > 0 else None, L=l, N=nn))
    return out


def test_pqrs_round_trip():
    for st in random_states(500, seed=3):
        fc = from_pqrs(st)
        assert max(abs(r) for r in kahler_relation_residuals(fc)) <= 1e-12
        back = to_pqrs(fc)
        assert abs(back.P - st.P) < 1e-12
        assert abs(back.Q - st.Q) < 1e-12
        assert abs(back.R - st.R) < 1e-12
        if st.R > 0:
            # S enters through sin/cos only; compare on the circle
            assert abs(math.sin(back.S) - math.sin(st.S)) < 1e-12
            assert abs(math.cos(back.S) - math.cos(st.S)) < 1e-12


def test_state_validation():
    with pytest.raises(DomainError):
        PQRSState(P=0.0, Q=0.0, R=-1.0, S=0.0, L=0.0, N=0.0)
    with pytest.raises(DomainError):
        PQRSState(P=0.0, Q=0.0, R=1.0, S=None, L=0.0, N=0.0)
    st = PQRSState(P=0.0, Q=0.0, R=0.0, S=None, L=0.0, N=0.0)
    assert st.shear_free


def test_diagonal_flow_coefficients_are_kahler():
    params = BianchiParams(1.0, 0.0, 1.0, lam=-1.0)
    s = ABCState(0.0, 0.9, 0.7, 1.1)
    fc = bianchi_frame_coefficients(params, s)
    assert max(abs(r) for r in kahler_relation_residuals(fc)) <= 1e-12
    assert max(abs(r) for r in integrability_residuals(fc)) < 1e-15
    st = to_pqrs(fc)
    assert st.Q == pytest.approx(0.0, abs=1e-15)
    assert st.S == pytest.approx(math.pi / 4.0, abs=1e-12)
    expected_R = abs(params.p1 * s.a ** 2 - params.p2 * s.b ** 2) \
        / (s.a * s.b * s.c)
    assert st.R == pytest.approx(expected_R, rel=1e-12)


def test_lambda_constraint_matches_flow_constant():
    e2 = BianchiParams(1.0, 0.0, 1.0, lam=-1.0)
    st = to_pqrs(bianchi_frame_coefficients(e2, ABCState(0.0, 0.9, 0.7, 1.1)))
    assert lambda_constraint(st) == pytest.approx(-1.0, abs=1e-12)

    free = BianchiParams(1.0, 1.0, 0.0, lam=0.0, alpha0=0.3)
    st0 = to_pqrs(bianchi_frame_coefficients(free, ABCState(0.0, 1.2, 0.8, 1.0)))
    assert lambda_constraint(st0) == pytest.approx(0.0, abs=1e-12)


def test_sys_rhs_conserves_q_and_lambda():
    st = PQRSState(P=0.4, Q=0.3, R=0.8, S=0.2, L=0.5, N=-0.6)
    lam0 = lambda_constraint(st)

    def rhs(t, y):
        cur = PQRSState(P=y[3], Q=st.Q, R=y[2], S=y[4], L=y[1], N=y[0])
        return sys_rhs(cur)

    sol = solve_ivp(rhs, (0.0, 1.0), [st.N, st.L, st.R, st.P, st.S],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    assert sol.success
    drift = 0.0
    for col in sol.y.T:
        cur = PQRSState(P=col[3], Q=st.Q, R=col[2], S=col[4], L=col[1],
                        N=col[0])
        drift = max(drift, abs(lambda_constraint(cur) - lam0))
    assert drift < 1e-9


def test_sys_flow_on_arrays_matches_sys_rhs_bitwise():
    states = random_states(300, seed=4)
    cols = {k: np.array([getattr(st, k) for st in states])
            for k in ("N", "L", "R", "P", "Q")}
    flows = sys_flow(cols["N"], cols["L"], cols["R"], cols["P"], cols["Q"])
    for n, st in enumerate(states):
        assert tuple(f[n] for f in flows) == sys_rhs(st)


def test_sys_rhs_shear_free_needs_s():
    with pytest.raises(DomainError):
        sys_rhs(PQRSState(P=0.1, Q=0.5, R=0.0, S=None, L=0.2, N=0.3))
    # Q = 0 keeps the shear-free locus flowable
    dn, dl, dr, dp, ds = sys_rhs(
        PQRSState(P=0.1, Q=0.0, R=0.0, S=None, L=0.2, N=0.3))
    assert dr == 0.0 and ds == 0.0


def test_kahler_relations_detect_violations():
    fc = FrameCoefficients(A=1.0, B=0.2, C=0.1, D=0.5, E=-0.9, F=0.3, G=0.4,
                           H=-0.6, L=0.0, N=1.5)
    res = kahler_relation_residuals(fc)
    assert any(abs(r) > 1e-3 for r in res)
