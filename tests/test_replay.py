"""odes.replay against the live march: the dense output rebuilt from a
CSV round trip is the integrator's own, bit for bit. Both equal, bit for
bit, a frozen evaluator that steps the stored rows again on Python floats,
one step and one time at a time, with scipy's DOP853 formulas written out
from the tableau."""

from bisect import bisect_left

import numpy as np
import pytest

from keflow import bianchi as bi
from keflow import e2flow as e2
from keflow.dop853 import A, C, D
from keflow.errors import DomainError
from keflow.odes import Trajectory, integrate_flow, replay

SHOOTS = [(q, b_max) for b_max in (100.0, 1000.0)
          for q in (0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, 1.25)]


# frozen: one step of the march and scipy's Dop853DenseOutput over it, on
# floats. Each weighted sum starts from its first nonzero term and adds the
# others left to right (not by sum(), whose float sum is compensated from
# Python 3.12 on).
def _weighted(ks, pairs, c):
    (j, w), *rest = pairs
    acc = ks[j][c] * w
    for j, w in rest:
        acc = acc + ks[j][c] * w
    return acc


class _Step:
    """The step of length h from (t_old, y_old) with first stage k0, and
    the seven rows F of its dense output:
    y(t_old + x h) = y_old + x (F0 + (1 - x) (F1 + x (F2 + ...)))."""

    def __init__(self, rhs, t_old: float, h: float, y_old: tuple, k0):
        n = len(y_old)
        ks = [tuple(k0)]
        for s in range(1, 16):
            if s == 12:  # y_new, then f(t + h, y_new)
                self.y_new = tuple(y_old[c] + _weighted(ks, A[12], c) * h
                                   for c in range(n))
                ks.append(tuple(rhs(t_old + h, self.y_new)))
                continue
            y = tuple(y_old[c] + _weighted(ks, A[s], c) * h
                      for c in range(n))
            ks.append(tuple(rhs(t_old + C[s] * h, y)))
        dy = [b - a for a, b in zip(y_old, self.y_new)]
        self.rows = [dy, [h * ks[0][c] - dy[c] for c in range(n)],
                     [2 * dy[c] - h * (ks[12][c] + ks[0][c])
                      for c in range(n)]]
        self.rows += [[h * _weighted(ks, d, c) for c in range(n)] for d in D]
        self.t_old, self.h, self.y_old, self.k_end = t_old, h, y_old, ks[12]

    def __call__(self, t: float) -> tuple:
        x = (t - self.t_old) / self.h
        y = [0.0] * len(self.y_old)
        for i, f in enumerate(reversed(self.rows)):
            y = [v + fv for v, fv in zip(y, f)]
            y = [v * (x if i % 2 == 0 else 1 - x) for v in y]
        return tuple(v + y0 for v, y0 in zip(y, self.y_old))


class frozen_dense_output:
    """traj's rows stepped again in march order: every row is the step
    from the row before, bit for bit, the last one the step's dense output
    where a stop's root cut it short. Evaluated at a time t in
    [t[0], t[-1]] by the step that covers t, at an inner node by the one on
    its left."""

    def __init__(self, traj: Trajectory, rhs):
        t, rows = traj.t.tolist(), [tuple(r) for r in traj.states.tolist()]
        order = list(range(len(t)))
        if traj.last_step < 0.0:  # a backward march
            order.reverse()
        steps, k0 = [], rhs(t[order[0]], rows[order[0]])
        for n, (i, j) in enumerate(zip(order, order[1:])):
            last = n == len(order) - 2
            h = traj.last_step if last else t[j] - t[i]
            step = _Step(rhs, t[i], h, rows[i], k0)
            assert rows[j] == (step(t[j]) if last and h != t[j] - t[i]
                               else step.y_new)
            steps.append(step)
            k0 = step.k_end
        if traj.last_step < 0.0:
            steps.reverse()
        self._nodes, self._steps = t, steps

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


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def sample_times(t, n_interior=501):
    """Every node, every step midpoint and n_interior evenly spaced
    times."""
    return np.concatenate([t, t[:-1] + np.diff(t) / 2.0,
                           np.linspace(t[0], t[-1], n_interior)])


def assert_frozen_dense_output(traj, rhs):
    """traj.sample equals the frozen evaluator's int64 view at every
    sample time, on the array and, every seventh time, on the scalar
    path."""
    reference = frozen_dense_output(traj, rhs)
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
def test_replayed_shoot_is_the_live_dense_output(q, b_max):
    # the b_max stop cuts the last step short
    live = e2.shoot_unstable(q, b_max=b_max)
    assert live.last_step > live.t[-1] - live.t[-2]
    stored = Trajectory.from_csv(live.to_csv())
    assert stored.last_step == live.last_step
    replayed = replay(e2._shoot_rhs, stored)
    assert replayed.states.tobytes() == live.states.tobytes()
    assert_same_dense_output(live, replayed)
    assert_frozen_dense_output(live, e2._shoot_rhs)
    assert_frozen_dense_output(replayed, e2._shoot_rhs)


def test_replayed_bianchi_solve_is_the_live_dense_output():
    # the README euclidean `bianchi solve` flow, a p3 = 0 family
    consts = bi.ClosedFormConstants(k=1.2, w3=0.8, alpha=0.3)
    params = bi.closed_form_params("euclidean", consts)
    live = bi.integrate(params, bi.closed_form("euclidean", consts, 1.0), 2.0)
    assert live.stop_reason == "t_end"
    assert live.last_step == live.t[-1] - live.t[-2]
    stored = Trajectory.from_csv(live.to_csv())

    def rhs(t, y):
        return bi.type_a_flow(params, *y)
    replayed = replay(rhs, stored)
    assert_same_dense_output(live, replayed)
    assert_frozen_dense_output(live, rhs)
    assert_frozen_dense_output(replayed, rhs)


def test_backward_march_is_the_frozen_dense_output():
    # steps of negative length, stored in increasing time
    def rhs(t, y):
        return (-t * y[0], y[0] - y[1])
    back = integrate_flow(rhs, 3.0, (0.5, 1.0), 0.25, ("u", "v"),
                          rtol=1e-9, atol=1e-12)
    assert back.last_step < 0.0 and back.stop_reason == "t_end"
    assert_frozen_dense_output(back, rhs)


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
