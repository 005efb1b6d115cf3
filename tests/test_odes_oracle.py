"""integrate_flow against scipy's DOP853, the method it reimplements.

Both march the same Dormand-Prince 8(5,3) pair with the same controller,
so they take the same number of steps and RHS evaluations (a stop's root
adds the dense output's three stages to both) and stop for the same
reason. They do not round alike: numpy's dot fuses multiply-adds in the
stage and error sums, and the embedded error estimate is a difference of
O(1) stage values that cancels to about the tolerance, so each new step
size moves by up to ~1e-5 of itself. Node times are therefore compared as a
fraction of the local step, states through scipy's dense output at this
march's own node times, and the dense output step by step against scipy's
over the same step, each node in the max norm (van der Pol crosses zero).
Where the error estimate is all rounding, step sizes are not compared
(NOISY_STEPS).
"""

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853

from keflow import bianchi as bi
from keflow import dop853
from keflow import e2flow as e2
from keflow.odes import MAX_COMPONENT, integrate_flow


def _stop_at(value, index, direction, name):
    """A terminal scipy event; integrate_flow stops on the same function
    (_stops)."""
    def event(t, y):
        return y[index] - value
    event.terminal = True
    event.direction = direction
    event.name = name
    return event


def _stops(events):
    """integrate_flow's (function, direction, reason) stops for events."""
    return [(ev, ev.direction, f"event:{ev.name}") for ev in events]


def _euclidean():
    consts = bi.ClosedFormConstants(k=1.2, w3=0.8, alpha=0.3, t0=0.0,
                                    a0=1.0, b0=1.0, c0=1.0)
    params = bi.closed_form_params("euclidean", consts)
    s0 = bi.closed_form("euclidean", consts, 1.0)
    return dict(rhs=lambda t, y: bi.type_a_flow(params, *y), t0=s0.t,
                y0=(s0.a, s0.b, s0.c), t_end=2.0, rtol=1e-10, atol=1e-13,
                positive_components=(0, 1, 2))


# (integrate_flow arguments, largest |y| counted as away from blow-up)
CASES = {
    "exponential_decay": (dict(rhs=lambda t, y: (-y[0],), t0=0.0, y0=(1.0,),
                               t_end=3.0, rtol=1e-10, atol=1e-12), np.inf),
    "square_blow_up": (dict(rhs=lambda t, y: (y[0] * y[0],), t0=0.0,
                            y0=(1.0,), t_end=2.0, rtol=1e-8, atol=1e-10), 1e3),
    "positivity_loss": (dict(rhs=lambda t, y: (-1.0,), t0=0.0, y0=(0.5,),
                             t_end=2.0, rtol=1e-10, atol=1e-12,
                             positive_components=(0,)), np.inf),
    # the E(2) shoot in arclength r, which does not blow up
    "e2_shoot_to_b_10": (dict(rhs=e2._shoot_rhs, t0=1e-5,
                              y0=(1.0, 1e-5, 1.0, 0.0), t_end=100.0,
                              rtol=1e-12, atol=1e-14,
                              events=[_stop_at(10.0, 1, 1.0, "b_max")],
                              positive_components=(0, 1, 2)), np.inf),
    "e2_tail_gap_backward_leg": (dict(rhs=e2._shoot_rhs, t0=1e-5,
                                      y0=(1.0, 1e-5, 1.0, 0.0), t_end=0.0,
                                      rtol=1e-12, atol=1e-20,
                                      events=[_stop_at(1e-6, 1, -1.0, "cut")]),
                                 np.inf),
    "bianchi_euclidean": (_euclidean(), np.inf),
    # 13 rejected steps; the tail leg has 4 and the blow-up 127
    "van_der_pol": (dict(rhs=lambda t, y: (y[1], 5.0 * (1.0 - y[0] * y[0])
                                           * y[1] - y[0]),
                         t0=0.0, y0=(2.0, 0.0), t_end=10.0, rtol=1e-8,
                         atol=1e-10), np.inf),
}


# The tail leg's t grows at 1e5 against an atol of 1e-20: its error
# estimate for t is the rounding of stage sums of 1e5 (8e-12 summed left to
# right, -2e-12 from the same rounded products summed exactly on the first
# step), so numpy's dot and the march's sums pick steps up to 40 % apart
NOISY_STEPS = {"e2_tail_gap_backward_leg"}


def _scipy_dop853(rhs, t0, y0, t_end, rtol, atol, events=(),
                positive_components=()):
    """solve_ivp with integrate_flow's stopping events, as numpy events;
    returns the solution with its dense output, the RHS count of the same
    run without one, its nodes in increasing time and stop_reason."""
    def overflow(t, y):
        return np.max(np.abs(y)) - MAX_COMPONENT
    overflow.terminal, overflow.direction = True, 1.0
    stops = [(overflow, "component_overflow")]
    if positive_components:
        pos = list(positive_components)
        floor = 1e-13 * max(1.0, float(np.min(np.abs(np.array(y0)[pos]))))

        def positivity(t, y):
            return np.min(y[pos]) - floor
        positivity.terminal, positivity.direction = True, -1.0
        stops.append((positivity, "positivity_loss"))
    stops += [(ev, f"event:{ev.name}") for ev in events]
    runs = [solve_ivp(lambda t, y: rhs(t, tuple(y.tolist())), (t0, t_end),
                      np.array(y0), method="DOP853", rtol=rtol, atol=atol,
                      events=[ev for ev, _ in stops], dense_output=dense)
            for dense in (True, False)]
    sol = runs[0]
    reason = {-1: "step_underflow", 0: "t_end"}.get(sol.status)
    if sol.status == 1:
        reason = next(r for (_, r), te in zip(stops, sol.t_events) if te.size)
    order = slice(None) if t_end > t0 else slice(None, None, -1)
    return sol, runs[1].nfev, sol.t[order], sol.y.T[order], reason


def _worst_relative(actual, desired):
    """Largest relative difference of one node's states, in the max norm."""
    return np.max(np.max(np.abs(actual - desired), axis=-1)
                  / np.max(np.abs(desired), axis=-1))


@pytest.mark.parametrize("case", sorted(CASES))
def test_integrate_flow_matches_scipy_dop853(case):
    args, cap = CASES[case]
    columns = tuple(f"y{i}" for i in range(len(args["y0"])))
    args = dict(args)
    events = args.pop("events", ())
    traj = integrate_flow(columns=columns, stops=_stops(events), **args)
    sol, nfev, t_ref, y_ref, reason = _scipy_dop853(events=events, **args)

    assert traj.n_steps == t_ref.size - 1
    assert traj.n_rhs_evals == nfev
    assert traj.stop_reason == reason

    calm = np.max(np.abs(traj.states), axis=1) <= cap
    calm[0] = True
    steps = np.abs(np.diff(t_ref))
    dt = np.abs(traj.t - t_ref)[1:][calm[1:]] / steps[calm[1:]]
    if case not in NOISY_STEPS:
        assert dt.max(initial=0.0) < 1e-4

    # the end node of an event stop moves with the root, checked below
    end = -1 if args["t_end"] > args["t0"] else 0
    inner = calm.copy()
    if reason != "t_end":
        inner[end] = False
    assert _worst_relative(traj.states[inner],
                           sol.sol(traj.t[inner]).T) < 1e-12

    assert abs(traj.t[end] - t_ref[end]) <= 1e-13

    worst = 0.0
    for t_old, t_new, y_old, x in _steps(traj, end, calm):
        ref = DOP853(lambda t, y: np.asarray(args["rhs"](t, tuple(y.tolist())),
                                             dtype=float),
                     t_old, y_old, t_new, rtol=args["rtol"], atol=args["atol"],
                     first_step=abs(t_new - t_old))
        ref.step()
        assert ref.t == t_new
        worst = max(worst, _worst_relative(traj.sample(x).T,
                                           ref.dense_output()(x).T))
    assert worst < 1e-13


def _steps(traj, end, calm):
    """(t_old, t_new, y_old, seven evenly spaced times inside) of each
    step of traj in march order whose nodes are calm; the step that a
    stop's root cut short runs its full last_step."""
    t, y = traj.t, traj.states
    fwd = end == -1
    starts = range(t.size - 1) if fwd else range(t.size - 1, 0, -1)
    for i in starts:
        j = i + 1 if fwd else i - 1
        if not (calm[i] and calm[j]):
            continue
        t_new = t[j]
        if j == end % t.size and traj.stop_reason != "t_end":
            t_new = t[i] + traj.last_step
        x = t[i] + (t[j] - t[i]) * np.arange(1, 8) / 8.0
        yield float(t[i]), float(t_new), y[i], x


def _dense(pairs, size):
    row = np.zeros(size)
    for j, w in pairs:
        row[j] = w
    return row


def test_tableau_is_scipys():
    # every weight as a float equal to scipy's, and no nonzero one missing
    n = scipy_dop853.N_STAGES_EXTENDED
    assert len(dop853.C) == len(dop853.A) == n
    np.testing.assert_array_equal(dop853.C, scipy_dop853.C)
    np.testing.assert_array_equal([_dense(row, n) for row in dop853.A],
                                  scipy_dop853.A)
    np.testing.assert_array_equal(_dense(dop853.A[12], 12), scipy_dop853.B)
    for ours, theirs in ((dop853.E5, scipy_dop853.E5),
                         (dop853.E3, scipy_dop853.E3)):
        np.testing.assert_array_equal(_dense(ours, theirs.size), theirs)
    np.testing.assert_array_equal([_dense(row, n) for row in dop853.D],
                                  scipy_dop853.D)
    assert all(w != 0.0 for row in (*dop853.A, dop853.E5, dop853.E3,
                                     *dop853.D) for _, w in row)


def test_readme_shoot_rows_are_accurate():
    # `e2 shoot --q 1.0 --eps 1e-5 --b-max 100` at SHOOT_TOL: every stored
    # row against scipy's DOP853 at rtol 100 eps, relative per component.
    # RK45 at rtol 1e-12 stored rows off by 2.0e-12, 2.2e-12, 8.5e-12 and
    # 3.8e-12 (a, b, c, t); these read 8.8e-14, 8.7e-14, 3.5e-13, 2.6e-15
    traj = e2.shoot_unstable(1.0, eps=1e-5, b_max=100.0)
    ref = solve_ivp(lambda r, y: e2._shoot_rhs(r, tuple(y.tolist())),
                    (traj.t[0], traj.t[-1] * (1.0 + 1e-9)), traj.states[0],
                    method="DOP853", rtol=100 * np.finfo(float).eps,
                    atol=1e-30, dense_output=True).sol(traj.t).T
    # row 0 is the start, where both are exact and t is 0
    err = np.max(np.abs(traj.states[1:] - ref[1:]) / np.abs(ref[1:]), axis=0)
    assert np.all(err < 1e-12), err
