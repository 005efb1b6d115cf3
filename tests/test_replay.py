"""odes.replay against the live march: the dense output rebuilt from a
CSV round trip is the integrator's own, bit for bit. Both equal, bit for
bit, the dense output as it was evaluated before it became one array
table: a quartic per step on Python floats and a bisect per time."""

from bisect import bisect_left

import numpy as np
import pytest

from keflow import bianchi as bi
from keflow import e2flow as e2
from keflow import odes
from keflow.errors import DomainError
from keflow.odes import Trajectory, integrate_flow, replay

SHOOTS = [(q, b_max) for b_max in (100.0, 1000.0)
          for q in (0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, 1.25)]


_P = odes._P


# frozen: the step and the evaluator below are the old odes._Step and
# odes.DenseOutput, verbatim but for the name. Python 3.11's sum adds
# floats left to right, as odes._coefficients does; 3.12's compensated
# float sum may differ in the last bit.
class _Step:
    """One accepted step and Shampine's quartic over it:
    y(t_old + x h) = y_old + h (Q1 x + Q2 x^2 + Q3 x^3 + Q4 x^4), where
    Q = K^T P over the stages K, formed on the first evaluation."""

    __slots__ = ("t_old", "h", "y_old", "stages", "_q")

    def __init__(self, t_old: float, h: float, y_old: tuple, stages: tuple):
        self.t_old, self.h, self.y_old, self.stages = t_old, h, y_old, stages
        self._q = None

    def __call__(self, t: float) -> tuple:
        q = self._q
        if q is None:
            q = self._q = [
                (k[0],) + tuple(sum([kj * p[c] for kj, p in zip(k, _P)])
                                for c in (1, 2, 3))
                for k in zip(*self.stages)]
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return tuple([y + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                      for y, (q1, q2, q3, q4) in zip(self.y_old, q)])


class frozen_dense_output:
    """The piecewise quartic dense output of integrate_flow or of its
    replay: at a time t in [nodes[0], nodes[-1]] the step that covers t is
    evaluated, at an inner node the one on its left."""

    def __init__(self, nodes: list, steps: list):
        # both in increasing time
        self._nodes, self._steps = nodes, steps

    def at(self, t: float) -> tuple:
        k = bisect_left(self._nodes, t) - 1
        return self._steps[min(max(k, 0), len(self._steps) - 1)](t)

    def __call__(self, t) -> np.ndarray:
        """States at t, shape (n,) + np.shape(t)."""
        if isinstance(t, float):
            return np.array(self.at(t))
        t = np.asarray(t, dtype=np.float64)
        n = len(self._steps[0].y_old)
        vals = np.array([self.at(v) for v in t.ravel().tolist()],
                        dtype=np.float64).reshape(t.size, n)
        return vals.T.reshape((n,) + t.shape)


@pytest.fixture
def frozen(monkeypatch):
    """Records the steps of every march and replay the test runs; call it
    with a trajectory to get the frozen dense output over the steps its
    own dense output was built from."""
    made = {}
    march, dense = odes._march, odes.DenseOutput

    def recording_march(*args):
        out = march(*args)
        made["march"] = out[2]  # reversed in place for a backward run
        return out

    def recording_dense(nodes, t_old, h, y_old, stages):
        built = dense(nodes, t_old, h, y_old, stages)
        steps = made.pop("march", None)
        if steps is None:  # a replay's, as its _ReplayedSteps built them
            made[id(built)] = [
                _Step(float(t_old[k]), float(h[k]), y_old[:, k].tolist(),
                      tuple(stages[:, :, k].tolist())) for k in range(h.size)]
        else:  # integrate_flow's: the march's own floats
            made[id(built)] = [_Step(*step) for step in steps]
        return built

    monkeypatch.setattr(odes, "_march", recording_march)
    monkeypatch.setattr(odes, "DenseOutput", recording_dense)
    return lambda traj: frozen_dense_output(traj.t.tolist(),
                                            made[id(traj.interpolant)])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def sample_times(t, n_interior=501):
    """Every node, every step midpoint and n_interior evenly spaced
    times."""
    return np.concatenate([t, t[:-1] + np.diff(t) / 2.0,
                           np.linspace(t[0], t[-1], n_interior)])


def assert_frozen_dense_output(traj, frozen):
    """traj.sample equals the frozen evaluator's int64 view at every
    sample time, on the array and, every seventh time, on the scalar
    path."""
    reference = frozen(traj)
    times = sample_times(traj.t)
    np.testing.assert_array_equal(bits(traj.sample(times)),
                                  bits(reference(times)))
    for v in times[::7].tolist():
        np.testing.assert_array_equal(bits(traj.sample(v)),
                                      bits(reference(v)))


def assert_same_dense_output(live, replayed):
    """Equal bytes at every sample time and at one scalar time."""
    times = sample_times(live.t)
    assert replayed.sample(times).tobytes() == live.sample(times).tobytes()
    t = live.t
    mid = float(t[0] + (t[-1] - t[0]) / 3.0)
    assert replayed.sample(mid).tobytes() == live.sample(mid).tobytes()


@pytest.mark.parametrize("q, b_max", SHOOTS)
def test_replayed_shoot_is_the_live_dense_output(q, b_max, frozen):
    live = e2.shoot_unstable(q, b_max=b_max, tol=1e-12)
    stored = Trajectory.from_csv(live.to_csv())
    assert stored.last_step == live.last_step
    replayed = replay(e2._shoot_rhs, stored)
    assert replayed.states.tobytes() == live.states.tobytes()
    assert_same_dense_output(live, replayed)
    assert_frozen_dense_output(live, frozen)
    assert_frozen_dense_output(replayed, frozen)


def test_replayed_bianchi_solve_is_the_live_dense_output(frozen):
    # the README euclidean `bianchi solve` flow, a p3 = 0 family
    consts = bi.ClosedFormConstants(k=1.2, w3=0.8, alpha=0.3)
    params = bi.closed_form_params("euclidean", consts)
    live = bi.integrate(params, bi.closed_form("euclidean", consts, 1.0), 2.0)
    assert live.stop_reason == "t_end"
    assert live.last_step == live.t[-1] - live.t[-2]
    stored = Trajectory.from_csv(live.to_csv())
    replayed = replay(lambda t, y: bi.type_a_flow(params, *y), stored)
    assert_same_dense_output(live, replayed)
    assert_frozen_dense_output(live, frozen)
    assert_frozen_dense_output(replayed, frozen)


def test_backward_march_is_the_frozen_dense_output(frozen):
    # steps of negative length, stored in increasing time
    def rhs(t, y):
        return (-t * y[0], y[0] - y[1])
    back = integrate_flow(rhs, 3.0, (0.5, 1.0), 0.25, ("u", "v"),
                          rtol=1e-9, atol=1e-12)
    assert back.last_step < 0.0 and back.stop_reason == "t_end"
    assert_frozen_dense_output(back, frozen)


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
