import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keflow.errors import DomainError
from keflow.odes import Trajectory, integrate_flow, root


def test_exponential_decay_matches_exact():
    traj = integrate_flow(lambda t, y: (-y[0],), 0.0, [1.0], 3.0, ("y",),
                          rtol=1e-10, atol=1e-12)
    exact = np.exp(-traj.t)
    assert traj.stop_reason == "t_end"
    assert not traj.blow_up
    assert np.max(np.abs(traj.column("y") - exact)) < 1e-8


def test_sample_uses_dense_output():
    traj = integrate_flow(lambda t, y: (-y[0],), 0.0, [1.0], 2.0, ("y",),
                          rtol=1e-10, atol=1e-12)
    ts = np.linspace(0.1, 1.9, 7)
    vals = np.asarray(traj.sample(ts)).ravel()
    assert np.max(np.abs(vals - np.exp(-ts))) < 1e-8


def test_scalar_sample_matches_array_sample():
    traj = integrate_flow(lambda t, y: (-y[0], y[0] * y[1]), 0.0, [1.0, 0.5],
                          2.0, ("u", "v"), rtol=1e-10, atol=1e-12)
    for t in [0.0, 0.3, float(traj.t[5]), 2.0]:
        np.testing.assert_array_equal(traj.sample(t), traj.sample([t])[:, 0])
    with pytest.raises(DomainError):
        traj.sample(2.5)
    for t in [float("nan"), [0.5, float("nan")]]:
        with pytest.raises(DomainError):
            traj.sample(t)


def test_non_finite_inputs_rejected():
    for t0, y0, t_end in [(0.0, [1.0], np.nan), (np.inf, [1.0], 1.0),
                          (0.0, [np.nan], 1.0)]:
        with pytest.raises(DomainError, match="must be finite"):
            integrate_flow(lambda t, y: (-y[0],), t0, y0, t_end, ("y",),
                           rtol=1e-8, atol=1e-10)


def test_rtol_below_100_eps_is_raised_to_it():
    # scipy's DOP853 raises such an rtol too, and the trajectory keeps the
    # rtol it was given
    runs = [integrate_flow(lambda t, y: (-y[0],), 0.0, [1.0], 1.0, ("y",),
                           rtol=rtol, atol=1e-20)
            for rtol in (0.0, 1e-16, 100 * np.finfo(float).eps)]
    for traj in runs[:2]:
        np.testing.assert_array_equal(traj.t, runs[2].t)
        np.testing.assert_array_equal(traj.states, runs[2].states)
    assert runs[1].rtol == 1e-16


def test_zero_error_scale_ends_as_step_underflow():
    # atol 0 and a component fixed at exactly 0 give a 0/0 error estimate;
    # scipy's DOP853 keeps retrying a NaN step there
    traj = integrate_flow(lambda t, y: (-y[0], 0.0), 0.0, [1.0, 0.0], 1.0,
                          ("u", "v"), rtol=1e-8, atol=0.0)
    assert traj.blow_up and traj.stop_reason == "step_underflow"


def test_overflowing_first_step_norm_is_no_division_by_zero():
    # f / (atol + rtol |y|) overflows in the first-step rule, leaving h0 = 0;
    # the run used to end in a ZeroDivisionError. The squared error sums
    # then overflow to a NaN norm, and the step underflows, as in scipy's
    # DOP853
    traj = integrate_flow(lambda t, y: (1e300,), 0.0, [0.0], 1.0, ("y",),
                          rtol=1e-10, atol=1e-13)
    assert traj.blow_up and traj.stop_reason == "step_underflow"


def test_stage_on_a_pole_fails_the_error_test():
    # rhs divides by zero from t = 0.7 on; a stage there used to end the
    # run in a ZeroDivisionError, and now fails the step as a NaN error
    # would, until the step underflows
    def rhs(t, y):
        return (-y[0] / (1.0 if t < 0.7 else 0.0),)
    traj = integrate_flow(rhs, 0.0, [1.0], 2.0, ("y",), rtol=1e-8,
                          atol=1e-10)
    assert traj.blow_up and traj.stop_reason == "step_underflow"
    assert 0.69 < traj.t[-1] < 0.7


def test_finite_time_blow_up_is_flagged():
    # y' = y^2 from y(0) = 1 leaves every bound before t = 1
    traj = integrate_flow(lambda t, y: (y[0] * y[0],), 0.0, [1.0], 2.0, ("y",),
                          rtol=1e-8, atol=1e-10)
    assert traj.blow_up
    assert traj.stop_reason in ("component_overflow", "step_underflow")
    assert traj.t[-1] <= 1.001


def test_positivity_loss_terminates():
    traj = integrate_flow(lambda t, y: [-1.0], 0.0, [0.5], 2.0, ("y",),
                          rtol=1e-10, atol=1e-12, positive_components=(0,))
    assert traj.blow_up
    assert traj.stop_reason == "positivity_loss"
    assert abs(traj.t[-1] - 0.5) < 1e-6


def test_named_event_stop():
    def cross(t, y):
        return y[0] - 0.25
    traj = integrate_flow(lambda t, y: (-y[0],), 0.0, [1.0], 10.0, ("y",),
                          rtol=1e-10, atol=1e-12,
                          stops=[(cross, -1.0, "event:quarter")])
    assert traj.stop_reason == "event:quarter"
    assert abs(traj.column("y")[-1] - 0.25) < 1e-8


@pytest.mark.parametrize("t0, t_end", [(0.0, 10.0), (10.0, 0.0)])
def test_sampling_the_stop_step_evaluates_no_stage(t0, t_end):
    # the march evaluates the dense output's three extra stages of the step
    # a stop crosses to find its root; the dense output keeps those rows
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (-y[0],)
    traj = integrate_flow(rhs, t0, [math.exp(-t0)], t_end, ("y",),
                          rtol=1e-10, atol=1e-12,
                          stops=[(lambda t, y: y[0] - math.exp(-5.0), 0.0,
                                  "event:five")])
    assert traj.stop_reason == "event:five"
    # rows run in increasing t, so a backward march's stop step comes first
    stop_step, other = (traj.t[-2:], traj.t[:2]) if t_end > t0 else (
        traj.t[:2], traj.t[-2:])
    calls.clear()
    traj.sample(stop_step.mean())
    assert calls == []
    traj.sample(other.mean())
    assert len(calls) == 3


@pytest.mark.parametrize("t0, t_end", [(0.0, 3.0), (3.0, 0.0)])
def test_earlier_of_two_stops_in_one_step_ends_the_run(t0, t_end):
    # y = exp(-t): two stops whose roots lie inside the longest step of the
    # run without them; the root the march reaches first ends the run,
    # whichever of the two is listed first
    args = dict(rhs=lambda t, y: (-y[0],), t0=t0, y0=[math.exp(-t0)],
                t_end=t_end, columns=("y",), rtol=1e-6, atol=1e-9)
    free = integrate_flow(**args)
    k = int(np.argmax(np.diff(free.t)))
    lo, hi = free.t[k], free.t[k + 1]
    roots = [lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)]
    if t_end < t0:
        roots.reverse()
    first, second = [(lambda t, y, v=math.exp(-r): y[0] - v, 0.0, reason)
                     for r, reason in zip(roots, ("first", "second"))]
    # the node the step starts from and the stopped end, in march order
    start, end = (-2, -1) if t_end > t0 else (1, 0)
    only = integrate_flow(**args, stops=[second])
    assert only.stop_reason == "second"
    assert only.t[start] == (lo if t_end > t0 else hi)
    ends = []
    for stops in ([first, second], [second, first]):
        traj = integrate_flow(**args, stops=stops)
        assert traj.stop_reason == "first"
        assert traj.t[start] == only.t[start]
        assert abs(traj.t[end] - roots[0]) < 1e-6
        ends.append(traj.t[end])
    assert ends[0] == ends[1]


def test_empty_span_rejected():
    with pytest.raises(DomainError):
        integrate_flow(lambda t, y: (-y[0],), 1.0, [1.0], 1.0, ("y",),
                       rtol=1e-8, atol=1e-10)


# root's failures are DomainErrors, so the CLI maps them to exit 1
EPS = float(np.finfo(float).eps)


def test_root_without_sign_change_names_the_bracket():
    with pytest.raises(DomainError, match=r"no sign change on the root "
                       r"bracket \[-1.0, 1.0\]: f\(a\) = 2.0, f\(b\) = 2.0"):
        root(lambda x: x * x + 1.0, -1.0, 1.0, 2e-12, 4 * EPS)


def test_root_nan_value_names_the_bracket():
    # the first secant step lands at 0.75, inside the NaN window
    def f(x):
        return math.nan if 0.7 < x < 0.8 else x - 0.75
    with pytest.raises(DomainError, match=r"f\(0.75\) is NaN on the root "
                       r"bracket \[0.0, 1.0\]"):
        root(f, 0.0, 1.0, 2e-12, 4 * EPS)


def test_root_without_convergence_names_the_bracket():
    # a jump needs about 1,050 halvings of this bracket, not 100
    with pytest.raises(DomainError, match=r"no convergence on the root "
                       r"bracket \[-1e\+300, 1e\+300\] after 100 iterations"):
        root(lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300, 2e-12,
             4 * EPS)


def test_csv_round_trip_is_exact():
    traj = integrate_flow(lambda t, y: (-y[0], 0.5 * y[1]), 0.0, [1.0, 2.0],
                          1.0, ("u", "v"), rtol=1e-9, atol=1e-11,
                          meta={"q": 1.5, "start": [1.0, 2.0], "tag": "run"})
    back = Trajectory.from_csv(traj.to_csv())
    np.testing.assert_array_equal(back.t, traj.t)
    np.testing.assert_array_equal(back.states, traj.states)
    assert back.columns == traj.columns
    assert back.rtol == traj.rtol and back.atol == traj.atol
    assert back.meta == traj.meta
    assert back.stop_reason == traj.stop_reason


def test_csv_round_trip_loses_dense_output():
    traj = integrate_flow(lambda t, y: (-y[0],), 0.0, [1.0], 1.0, ("y",),
                          rtol=1e-9, atol=1e-11)
    back = Trajectory.from_csv(traj.to_csv())
    with pytest.raises(DomainError):
        back.sample([0.5])


@pytest.mark.parametrize("rtol, atol", [(np.nan, 1e-10), (np.inf, 1e-10),
                                        (1e-8, -1.0)])
def test_bad_tolerances_rejected(rtol, atol):
    # without the check a NaN tolerance keeps the solver stepping forever
    with pytest.raises(DomainError):
        integrate_flow(lambda t, y: (-y[0],), 0.0, [1.0], 1.0, ("y",),
                       rtol=rtol, atol=atol)


GOLDEN_CSV = (
    "# columns: t,u,v\n# rtol: 1e-09\n# atol: 1e-11\n# blow_up: 1\n"
    "# stop_reason: event:b_max\n# n_steps: 2\n# n_rhs_evals: 14\n"
    "# meta b_max: None\n# meta q: 1.5\n# meta start: [1.0, 2.0]\n"
    "# meta tag: 'run'\nt,u,v\n0.0,1.0,-2.0\n0.5,0.1,1e-300\n"
    "1.25,0.3333333333333333,2.5e+17\n")


def test_csv_golden_bytes():
    traj = Trajectory(t=[0.0, 0.5, 1.25],
                      states=[[1.0, -2.0], [0.1, 1e-300], [1 / 3, 2.5e17]],
                      columns=("u", "v"), rtol=1e-9, atol=1e-11, blow_up=True,
                      stop_reason="event:b_max", n_rhs_evals=14,
                      meta={"q": 1.5, "start": [1.0, 2.0], "tag": "run",
                            "b_max": None})
    assert traj.to_csv() == GOLDEN_CSV
    back = Trajectory.from_csv(GOLDEN_CSV.encode())
    assert back.to_csv() == GOLDEN_CSV
    assert back.blow_up and back.n_rhs_evals == 14 and back.meta == traj.meta


def test_csv_round_trip_counts_steps_from_rows():
    # a trajectory built without a step count writes one its rows agree
    # with, so its CSV reads back
    traj = Trajectory(t=[0.0, 1.0, 2.0], states=[[1.0], [2.0], [3.0]],
                      columns=("u",), rtol=1e-9, atol=1e-11)
    back = Trajectory.from_csv(traj.to_csv())
    assert back.n_steps == traj.n_steps == 2


_finite = st.floats(allow_nan=False, allow_infinity=False)
_names = st.sampled_from(["a", "b", "c", "r", "t", "u", "v"])
_meta_values = st.one_of(st.none(), st.booleans(), st.integers(), _finite,
                         st.text(max_size=8), st.lists(_finite, max_size=3))


@st.composite
def trajectories(draw):
    t = sorted(draw(st.sets(_finite, min_size=1, max_size=6)))
    variable = draw(_names)
    columns = tuple(draw(st.lists(_names.filter(lambda n: n != variable),
                                  min_size=1, max_size=4, unique=True)))
    states = draw(st.lists(st.lists(_finite, min_size=len(columns),
                                    max_size=len(columns)),
                           min_size=len(t), max_size=len(t)))
    tol = st.one_of(_finite, st.just(math.nan))
    return Trajectory(
        t=t, states=states, columns=columns, rtol=draw(tol), atol=draw(tol),
        variable=variable, blow_up=draw(st.booleans()),
        stop_reason=draw(st.sampled_from(["t_end", "event:b_max",
                                          "step_underflow"])),
        n_rhs_evals=draw(st.integers(0, 10 ** 9)),
        last_step=draw(tol),
        meta=draw(st.dictionaries(st.from_regex(r"[a-z_]{1,6}", fullmatch=True),
                                  _meta_values, max_size=4)))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None)
@given(traj=trajectories())
def test_csv_round_trip_is_bit_exact(traj):
    back = Trajectory.from_csv(traj.to_csv())
    assert _bits(back.t) == _bits(traj.t)
    assert _bits(back.states) == _bits(traj.states)
    assert (back.variable, back.columns) == (traj.variable, traj.columns)
    for name in ("rtol", "atol", "last_step"):
        assert _bits(getattr(back, name)) == _bits(getattr(traj, name))
    for name in ("blow_up", "stop_reason", "n_steps", "n_rhs_evals"):
        assert getattr(back, name) == getattr(traj, name)
    # repr tells -0.0 from 0.0 and True from 1
    assert repr(sorted(back.meta.items())) == repr(sorted(traj.meta.items()))


@settings(max_examples=40, deadline=None)
@given(traj=trajectories(), data=st.data())
def test_variable_that_is_a_column_is_refused(traj, data):
    # its CSV would head two columns with the same name
    column = data.draw(st.sampled_from(traj.columns))
    with pytest.raises(DomainError, match="is also a column"):
        Trajectory(t=traj.t, states=traj.states, columns=traj.columns,
                   rtol=traj.rtol, atol=traj.atol, variable=column)
    text = traj.to_csv().replace(",".join((traj.variable,) + traj.columns),
                                 ",".join((column,) + traj.columns))
    with pytest.raises(DomainError, match="is also a column"):
        Trajectory.from_csv(text)
