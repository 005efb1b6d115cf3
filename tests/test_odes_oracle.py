"""integrate_flow against scipy's RK45, the method it reimplements.

Both march the same Dormand-Prince pair with the same controller, so they
take the same number of steps and RHS evaluations and stop for the same
reason. They do not round alike: numpy's dot fuses multiply-adds in the
stage and error sums, and the embedded error estimate is a difference of
O(1) stage values that cancels to about the tolerance, so each new step
size moves by up to ~1e-5 of itself. Node times are therefore compared as a
fraction of the local step, and states through scipy's dense output at
this march's own node times, each node in the max norm (van der Pol
crosses zero).
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from keflow import bianchi as bi
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
    # the only case here with rejected steps (six)
    "van_der_pol": (dict(rhs=lambda t, y: (y[1], 5.0 * (1.0 - y[0] * y[0])
                                           * y[1] - y[0]),
                         t0=0.0, y0=(2.0, 0.0), t_end=10.0, rtol=1e-8,
                         atol=1e-10), np.inf),
}


def _scipy_rk45(rhs, t0, y0, t_end, rtol, atol, events=(),
                positive_components=()):
    """solve_ivp with integrate_flow's stopping events, as numpy events;
    returns the solution, its nodes in increasing time and stop_reason."""
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
    sol = solve_ivp(lambda t, y: rhs(t, tuple(y.tolist())), (t0, t_end),
                    np.array(y0), method="RK45", rtol=rtol, atol=atol,
                    events=[ev for ev, _ in stops], dense_output=True)
    reason = {-1: "step_underflow", 0: "t_end"}.get(sol.status)
    if sol.status == 1:
        reason = next(r for (_, r), te in zip(stops, sol.t_events) if te.size)
    order = slice(None) if t_end > t0 else slice(None, None, -1)
    return sol, sol.t[order], sol.y.T[order], reason


def _worst_relative(actual, desired):
    """Largest relative difference of one node's states, in the max norm."""
    return np.max(np.max(np.abs(actual - desired), axis=-1)
                  / np.max(np.abs(desired), axis=-1))


@pytest.mark.parametrize("case", sorted(CASES))
def test_integrate_flow_matches_scipy_rk45(case):
    args, cap = CASES[case]
    columns = tuple(f"y{i}" for i in range(len(args["y0"])))
    args = dict(args)
    events = args.pop("events", ())
    traj = integrate_flow(columns=columns, stops=_stops(events), **args)
    sol, t_ref, y_ref, reason = _scipy_rk45(events=events, **args)

    assert traj.n_steps == t_ref.size - 1
    assert traj.n_rhs_evals == sol.nfev
    assert traj.stop_reason == reason

    calm = np.max(np.abs(traj.states), axis=1) <= cap
    calm[0] = True
    steps = np.abs(np.diff(t_ref))
    dt = np.abs(traj.t - t_ref)[1:][calm[1:]] / steps[calm[1:]]
    assert dt.max(initial=0.0) < 1e-4

    # the final node of an event stop moves with the root, checked below
    inner = calm.copy()
    if reason != "t_end":
        inner[-1] = False
    assert _worst_relative(traj.states[inner],
                           sol.sol(traj.t[inner]).T) < 1e-12

    assert abs(traj.t[-1] - t_ref[-1]) <= 1e-13

    t_in = np.linspace(traj.t[0], traj.t[-1], 103)[1:-1]
    assert _worst_relative(traj.sample(t_in).T, sol.sol(t_in).T) < 1e-12
