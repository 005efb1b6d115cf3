"""odes.root against scipy's brentq, the routine it ports line for line.

The port repeats brentq's arithmetic in the same order on Python floats,
so on every bracket it must return the same float, bit for bit, or raise
where brentq raises: DomainError for brentq's ValueError (no sign change,
a NaN value of f) and RuntimeError (no convergence in 100 iterations).
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from keflow import e2flow, odes
from keflow.errors import DomainError

EPS = float(np.finfo(float).eps)
# the event roots of the march, and _r_at_b's (brentq's defaults)
TOLERANCES = ((4 * EPS, 4 * EPS), (2e-12, 4 * EPS))


def _families(rng):
    """(name, f, bracket) per function family, parameters drawn from rng."""
    c = float(rng.uniform(-2.0, 2.0))
    lo, hi = (c + float(v) for v in rng.uniform(-3.0, 3.0, 2))
    k = float(10.0 ** rng.uniform(-6.0, 0.0))
    yield "cubic", lambda x: (x - c) ** 3 + k * (x - c), (lo, hi)
    s = float(10.0 ** rng.uniform(-6.0, 4.0))
    yield "tanh", lambda x: math.tanh(s * (x - c)), (hi, lo)
    w, o = float(rng.uniform(0.5, 20.0)), float(rng.uniform(-0.9, 0.9))
    yield "sin", lambda x: math.sin(w * x) + o, (lo, hi)
    m = int(rng.integers(1, 10))
    yield "power", lambda x: (x - c) ** m * (1.0 + 1e-3 * x), (lo, hi)
    # products of f-values underflow to zero here; only their signs count
    yield "subnormal", lambda x: 1e-310 * (x - c), (lo, hi)
    yield "nan", lambda x: math.nan if x > c + k else x - c, (lo, hi)
    # far too wide a bracket for 100 iterations to shrink to the tolerance
    wide = float(10.0 ** rng.uniform(0.0, 300.0))
    yield "step", lambda x: -1.0 if x < c else 1.0, (c - wide, c + wide)


def _outcome(solve, f, a, b, xtol, rtol, errors):
    try:
        return solve(f, a, b, xtol, rtol).hex()
    except errors:
        return "raised"


def _brentq(f, a, b, xtol, rtol):
    return brentq(f, a, b, xtol=xtol, rtol=rtol)


def test_root_matches_brentq_bit_for_bit():
    rng = np.random.default_rng(20241)
    seen = {"root": 0, "raised": 0}
    brackets = 0
    for _ in range(800):
        for name, f, (a, b) in _families(rng):
            brackets += 1
            for xtol, rtol in TOLERANCES:
                want = _outcome(_brentq, f, a, b, xtol, rtol,
                                (ValueError, RuntimeError))
                got = _outcome(odes.root, f, a, b, xtol, rtol, DomainError)
                assert got == want, (name, a, b, xtol)
                seen["raised" if want == "raised" else "root"] += 1
    assert brackets >= 5000
    assert min(seen.values()) > 1000


@pytest.mark.parametrize("q", [0.8, 1.1])
@pytest.mark.parametrize("b_max", [100.0, 1000.0])
def test_shoot_and_bolt_bytes_do_not_depend_on_the_root_finder(
        monkeypatch, q, b_max):
    def artifacts():
        traj = e2flow.shoot_unstable(q, b_max=b_max)
        return traj.to_csv(), e2flow.bolt_profile(traj).to_csv()

    ported = artifacts()
    monkeypatch.setattr(odes, "root", _brentq)
    monkeypatch.setattr(e2flow, "root", _brentq)
    assert artifacts() == ported
