"""odes.replay against the live march: the dense output rebuilt from a
CSV round trip is the integrator's own, bit for bit."""

import numpy as np
import pytest

from keflow import bianchi as bi
from keflow import e2flow as e2
from keflow.errors import DomainError
from keflow.odes import Trajectory, integrate_flow, replay

SHOOTS = [(q, b_max) for b_max in (100.0, 1000.0)
          for q in (0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, 1.25)]


def assert_same_dense_output(live, replayed, n_interior=501):
    """Equal bytes at every node, every step midpoint and n_interior
    evenly spaced times."""
    t = live.t
    times = np.concatenate([t, t[:-1] + np.diff(t) / 2.0,
                            np.linspace(t[0], t[-1], n_interior)])
    assert replayed.sample(times).tobytes() == live.sample(times).tobytes()
    mid = float(t[0] + (t[-1] - t[0]) / 3.0)
    assert replayed.sample(mid).tobytes() == live.sample(mid).tobytes()


@pytest.mark.parametrize("q, b_max", SHOOTS)
def test_replayed_shoot_is_the_live_dense_output(q, b_max):
    live = e2.shoot_unstable(q, b_max=b_max, tol=1e-12)
    stored = Trajectory.from_csv(live.to_csv())
    assert stored.last_step == live.last_step
    replayed = replay(e2._shoot_rhs, stored)
    assert replayed.states.tobytes() == live.states.tobytes()
    assert_same_dense_output(live, replayed)


def test_replayed_bianchi_solve_is_the_live_dense_output():
    # the README euclidean `bianchi solve` flow, a p3 = 0 family
    consts = bi.ClosedFormConstants(k=1.2, w3=0.8, alpha=0.3)
    params = bi.closed_form_params("euclidean", consts)
    live = bi.integrate(params, bi.closed_form("euclidean", consts, 1.0), 2.0)
    assert live.stop_reason == "t_end"
    assert live.last_step == live.t[-1] - live.t[-2]
    stored = Trajectory.from_csv(live.to_csv())
    assert_same_dense_output(
        live, replay(lambda t, y: bi._flow(params, *y), stored))


def test_replay_passes_the_march_times():
    # a non-autonomous flow sees the times each stage was evaluated at
    def rhs(t, y):
        return (-t * y[0], y[0])
    live = integrate_flow(rhs, 0.5, (1.0, 0.0), 3.0, ("u", "v"),
                          rtol=1e-9, atol=1e-12)
    assert_same_dense_output(live, replay(rhs, Trajectory.from_csv(
        live.to_csv())))


def test_replay_needs_a_forward_last_step():
    def rhs(t, y):
        return (-y[0],)
    back = integrate_flow(rhs, 1.0, (1.0,), 0.0, ("y",), rtol=1e-9,
                          atol=1e-12)
    assert back.last_step < 0.0
    with pytest.raises(DomainError, match="positive last_step"):
        replay(rhs, back)
    fwd = integrate_flow(rhs, 0.0, (1.0,), 1.0, ("y",), rtol=1e-9,
                         atol=1e-12)
    fwd.last_step = float("nan")
    with pytest.raises(DomainError, match="positive last_step"):
        replay(rhs, fwd)
