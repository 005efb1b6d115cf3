"""The Euclidean-group flow: unstable curve, completeness evidence, bolt.

The flow is the type A flow bianchi.type_a_flow at E2_PARAMS: p = (1, 0, 1),
lam = -1. The equilibrium (q, 0, q) has a one-dimensional unstable manifold
along (0, 1, 0); shooting from (q, eps, q) tracks it, in the arclength r
(dr = a b c dt, so the 4-metric's dt term is dr^2), in which the flow does
not blow up: d(a, b, c, t)/dr = (f(a, b, c), 1) / (a b c). r is measured
from the bolt, the t -> -infinity end; the asymptotics a ~ q,
b ~ k e^{q^2 t}, c ~ q put the tail integral of a b c dt at a b c / q^2,
so the shoot starts at r = eps. Diagnostics check the trapping region
0 <= c^2 - a^2 <= 2 a^2 b^2, monotone products, the nullcline bound
a/c >= 1/sqrt(1+b^2), and the two distance statements: finite arclength
back toward the equilibrium and logarithmic-in-b growth forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bianchi import BianchiParams, type_a_flow, type_a_grids
from .errors import DomainError, VerificationError
from .grids import Axis, MetricGrid, TwoFormGrid
from .odes import Trajectory, integrate_flow, replay, root, write_table

EQUILIBRIUM_SADDLE = "q0q"
EQUILIBRIUM_DEGENERATE = "0q0"
E2_PARAMS = BianchiParams(1.0, 0.0, 1.0, lam=-1.0)
# shoot_unstable's rtol, which the march raises to 100 eps (2.2e-14); its
# atol is a hundredth of it
SHOOT_TOL = 1e-14

# diagnose's slacks, the tolerances of its backward tail leg, and the drop
# of a/c below 1 that ends the transient
REGION_SLACK = 1e-10
MONOTONE_SLACK = 1e-10
NULLCLINE_SLACK = 1e-8
TAIL_GAP_RTOL, TAIL_GAP_ATOL = 1e-12, 1e-20
TRANSIENT_DROP = 1e-6
# diagnose checks the region and the nullcline bound at this many evenly
# spaced dense-output points inside each step, as well as at the rows
DENSE_CHECKS = 7


def _shoot_rhs(r, y):
    """The E(2) flow in arclength r, with t as a column."""
    a, b, c, _ = y
    da, db, dc = type_a_flow(E2_PARAMS, a, b, c)
    abc = a * b * c
    return (da / abc, db / abc, dc / abc, 1.0 / abc)


def e2_jacobian(a: float, b: float, c: float) -> np.ndarray:
    a2, b2, c2 = a * a, b * b, c * c
    return np.array([
        [0.5 * (c2 - 3.0 * a2), 0.0, a * c],
        [a * b, 0.5 * (a2 + c2), b * c],
        [a * c * (1.0 + 2.0 * b2), 2.0 * a2 * b * c,
         0.5 * (a2 - 3.0 * c2 + 2.0 * a2 * b2)],
    ])


@dataclass(frozen=True)
class Linearization:
    """Jacobian spectrum at an equilibrium; eigenvalues sorted descending."""

    point: tuple[float, float, float]
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, matching eigenvalues

    @property
    def unstable_direction(self) -> np.ndarray:
        if self.eigenvalues[0] <= 0.0:
            raise DomainError("no positive eigenvalue at this equilibrium")
        v = self.eigenvectors[:, 0]
        return v / np.linalg.norm(v)


def linearization(q: float, which: str = EQUILIBRIUM_SADDLE) -> Linearization:
    """Linearize at (q, 0, q) (saddle) or (0, q, 0) (fully degenerate)."""
    if q <= 0.0:
        raise DomainError("q must be positive")
    if which == EQUILIBRIUM_SADDLE:
        point = (q, 0.0, q)
    elif which == EQUILIBRIUM_DEGENERATE:
        point = (0.0, q, 0.0)
    else:
        raise DomainError(f"unknown equilibrium {which!r}")
    mat = e2_jacobian(*point)
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(vals.real)[::-1]
    vals = vals.real[order]
    vecs = vecs.real[:, order]
    return Linearization(point=point, matrix=mat, eigenvalues=vals,
                         eigenvectors=vecs)


def _shoot_start(q: float, eps: float | None,
                 start: tuple[float, float, float] | None):
    """shoot_unstable's first r and state (a, b, c, t = 0), its eps and its
    r_origin: "tail" (r = eps on the unstable curve) or "start" (r = 0)."""
    if q <= 0.0:
        raise DomainError("q must be positive")
    if eps is None:
        eps = 1e-5 * q
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if start is None:
        r0, abc0, r_origin = eps, (q, eps, q), "tail"
    else:
        r0, abc0, r_origin = 0.0, tuple(float(v) for v in start), "start"
        if min(abc0) <= 0.0:
            raise DomainError("custom start must have positive components")
    if math.prod(abc0) < np.finfo(float).tiny:  # _shoot_rhs divides by it
        raise DomainError(f"the start's a*b*c = {math.prod(abc0)!r} underflows")
    return r0, abc0 + (0.0,), eps, r_origin


def shoot_unstable(q: float, eps: float | None = None,
                   b_max: float = 100.0, r_max: float = 100.0,
                   tol: float = SHOOT_TOL,
                   start: tuple[float, float, float] | None = None) -> Trajectory:
    """Integrate in arclength r from (q, eps, q) at r = eps (or a custom
    start at r = 0) until b reaches b_max, which must lie above the
    start's b, or r reaches r_max, which must lie above the start's r.

    The trajectory's variable is r and its columns are a, b, c and t. The
    time origin is t = 0 at the start, which pins the asymptotic constant
    k = eps in b ~ k e^{q^2 t}. Overflow against r_max without reaching
    b_max is flagged on the trajectory; meta key r_origin says whether r is
    the distance from the bolt ("tail") or from a custom start ("start").
    """
    if not 0.0 < b_max < math.inf:
        raise DomainError(f"b_max must be positive and finite, got {b_max}")
    r0, y0, eps, r_origin = _shoot_start(q, eps, start)
    if b_max <= y0[1] < math.inf:
        raise DomainError(f"b_max {b_max!r} must lie above the start's "
                          f"b = {y0[1]!r}")
    # a backward shoot heads into the bolt, never toward b_max; a NaN
    # r_max or a non-finite start is left to integrate_flow's check
    if r_max <= r0 < math.inf:
        raise DomainError(f"r_max {r_max!r} must lie above the start's "
                          f"r = {r0!r}")

    return integrate_flow(_shoot_rhs, r0, y0, r_max,
                          columns=("a", "b", "c", "t"), variable="r",
                          rtol=tol, atol=tol * 1e-2,
                          stops=[(lambda r, y: y[1] - b_max, 1.0,
                                  "event:b_max")],
                          positive_components=(0, 1, 2),
                          meta={"q": q, "eps": eps, "k": eps,
                               "start": list(y0[:3]), "b_max": b_max,
                               "r_origin": r_origin})


def replay_shoot(traj: Trajectory) -> Trajectory:
    """traj, a shoot_unstable trajectory read from CSV, with its dense
    output rebuilt by odes.replay from the stored rows and last_step.

    The start row and tolerances must be shoot_unstable's for the stored
    metadata, and odes.replay checks every later row and step against the
    march, so a file that this module's shoot did not write, or one edited
    since, raises VerificationError ("artifact stale?"). Missing or
    malformed metadata raises DomainError.
    """
    names = ",".join((traj.variable,) + traj.columns)
    if names != "r,a,b,c,t":
        raise DomainError(f"trajectory columns {names} are not those of "
                          f"'e2 shoot' (r,a,b,c,t)")
    meta = traj.meta
    if "q" not in meta or "b_max" not in meta:
        raise DomainError("trajectory lacks shoot metadata; "
                          "produce it with 'e2 shoot'")
    if not math.isfinite(traj.last_step):
        raise DomainError("trajectory has no last_step header; write it "
                          "again with 'e2 shoot', which records it")
    try:
        start = None if meta.get("r_origin") == "tail" else meta["start"]
        r0, y0 = _shoot_start(meta["q"], meta["eps"], start)[:2]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed shoot metadata: {exc!r}") from None
    try:
        if traj.t[0] != r0 or tuple(traj.states[0].tolist()) != y0:
            raise VerificationError("the start row is not the shoot's start "
                                    "for the stored q, eps and start")
        if traj.atol != traj.rtol * 1e-2:
            raise VerificationError("atol is not the shoot's rtol * 1e-2")
        return replay(_shoot_rhs, traj)
    except VerificationError as exc:
        raise VerificationError(f"{exc}; artifact stale?") from None


def _r_at_b(traj: Trajectory, value: float) -> float:
    """r at which b, increasing along traj, equals value. A shoot stopped
    by its b_max stop crosses b_max at r[-1], whichever side of b_max the
    stored b[-1] landed on (it may land an ulp or two either side)."""
    if traj.stop_reason == "event:b_max" and value == traj.meta.get("b_max"):
        return float(traj.t[-1])
    b = traj.column("b")
    if not (b[0] <= value <= b[-1]):
        raise DomainError(f"b = {value} outside the trajectory range")
    # at brentq's default tolerances
    return root(lambda r: float(traj.sample(r)[1]) - value,
                traj.t[0], traj.t[-1], 2e-12, 4 * np.finfo(float).eps)


def _tail_gap(traj: Trajectory) -> float:
    """Cauchy gap between two arclength tail estimates (cutoff b0 vs b0/10):
    |r - r_bolt - a b c / q^2| at b0/10, r_bolt = r0 - a0 b0 c0 / q^2 being
    the start's estimate of the bolt's r (0 to rounding on a tail shoot)."""
    q = traj.meta["q"]
    r0, (a0, b0, c0, t0) = float(traj.t[0]), traj.states[0]
    r_bolt = r0 - a0 * b0 * c0 / (q * q)
    b_cut = b0 / 10.0
    back = integrate_flow(_shoot_rhs, r0, (a0, b0, c0, t0), r_bolt,
                          columns=traj.columns, variable=traj.variable,
                          rtol=TAIL_GAP_RTOL, atol=TAIL_GAP_ATOL,
                          stops=[(lambda r, y: y[1] - b_cut, -1.0,
                                  "event:cut")])
    if back.stop_reason != "event:cut":
        raise DomainError("backward leg did not reach the b0/10 cutoff")
    ac, bc_, cc, _ = back.states[0]
    return abs(back.t[0] - r_bolt - ac * bc_ * cc / (q * q))


@dataclass
class E2Diagnostics:
    """Trapping-region, monotonicity and distance evidence for one shoot."""

    monotone_ok: dict
    region_ok: bool
    nullcline_ok: bool
    kp_fit: float | None
    dist_to_minus_inf: float
    dist_tail_gap: float
    dist_growth_slope: float
    k2_decades: tuple[float, float] | None
    region_min_lower: float
    region_min_upper: float
    nullcline_min_slack: float
    ac_ratio_max: float
    inconclusive: bool
    notes: str = ""


def diagnose(traj: Trajectory) -> E2Diagnostics:
    """Evaluate the invariant-region, monotonicity and distance diagnostics.

    The region and the nullcline bound are checked at the rows and at
    DENSE_CHECKS evenly spaced points of the dense output inside each step,
    so the evidence does not thin out with longer steps; monotonicity and
    a/c <= 1 are checked at the rows, where the dense output's error would
    come too close to their slack.
    """
    if traj.t.size < 2:
        raise DomainError(f"diagnostics need two samples or more; the run "
                          f"stopped at its start ({traj.stop_reason})")
    a, b, c = traj.column("a"), traj.column("b"), traj.column("c")
    t = traj.t
    x = np.arange(1, DENSE_CHECKS + 1) / (DENSE_CHECKS + 1)
    inside = traj.sample((t[:-1, None] + np.diff(t)[:, None] * x).ravel())
    ad, bd, cd = (np.concatenate((v, w)) for v, w in zip((a, b, c), inside))
    lower = cd * cd - ad * ad
    upper = 2.0 * ad * ad * bd * bd - lower
    region_ok = bool(lower.min() >= -REGION_SLACK and upper.min() >= -REGION_SLACK)

    monotone_ok = {}
    for name, v in (("ab", a * b), ("bc", b * c), ("ac", a * c), ("b", b)):
        rel = np.diff(v) / np.maximum(np.abs(v[:-1]), np.finfo(float).tiny)
        monotone_ok[name] = bool(rel.min() >= -MONOTONE_SLACK)

    ratio = a / c
    nullcline_min_slack = float((ad / cd - 1.0 / np.sqrt(1.0 + bd * bd)).min())
    nullcline_ok = bool(nullcline_min_slack >= -NULLCLINE_SLACK
                        and ratio.max() <= 1.0)

    kp_fit = None
    drop = np.nonzero(ratio < 1.0 - TRANSIENT_DROP)[0]
    if drop.size:
        b_p = b[drop[0]]
        sel = b >= b_p
        for k in np.arange(2.0, 20.5, 0.5):
            if np.all(ratio[sel] <= np.sqrt(k * k / (k * k + b[sel] ** 2))):
                kp_fit = float(k)
                break

    inconclusive = False
    notes = []
    dist = math.nan
    tail_gap = math.nan
    slope = math.nan
    decades = None
    if "q" not in traj.meta:
        inconclusive = True
        notes.append("no shooting metadata; distance diagnostics skipped")
    else:
        q = traj.meta["q"]
        start_gap = abs(a[0] - q) + abs(c[0] - q)
        if start_gap > 1e-6 * q:
            inconclusive = True
            notes.append("start not on the unstable curve; tail estimate invalid")
        else:
            dist = a[0] * b[0] * c[0] / (q * q)
            tail_gap = _tail_gap(traj)
        b_end = b[-1]
        if b_end < 100.0 * b[0]:
            inconclusive = True
            notes.append("trajectory spans fewer than two b-decades")
        else:
            r_mid = _r_at_b(traj, b_end / 10.0)
            slope = (traj.t[-1] - r_mid) / math.log(10.0)
            if b_end >= 1000.0 * b[0]:
                r_low = _r_at_b(traj, b_end / 100.0)
                decades = ((r_mid - r_low) / math.log(10.0), slope)

    return E2Diagnostics(
        monotone_ok=monotone_ok, region_ok=region_ok, nullcline_ok=nullcline_ok,
        kp_fit=kp_fit, dist_to_minus_inf=dist, dist_tail_gap=tail_gap,
        dist_growth_slope=slope, k2_decades=decades,
        region_min_lower=float(lower.min()), region_min_upper=float(upper.min()),
        nullcline_min_slack=nullcline_min_slack, ac_ratio_max=float(ratio.max()),
        inconclusive=inconclusive, notes="; ".join(notes))


def distance_between_b_slices(traj: Trajectory, b_lo: float, b_hi: float) -> float:
    """Arclength between the first crossings of b = b_lo and b = b_hi."""
    return _r_at_b(traj, b_hi) - _r_at_b(traj, b_lo)


@dataclass
class BoltProfile:
    """Arclength-parametrized samples (r, a, b, c) with r = 0 at the bolt."""

    r: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    meta: dict = field(default_factory=dict)
    interpolant: object = None  # callable r -> (a, b, c), in-memory only

    def to_csv(self) -> str:
        return write_table({}, self.meta, ("r", "a", "b", "c"),
                           (self.r, self.a, self.b, self.c))

    def sample(self, r):
        """(a, b, c) at radii r inside the profile, from the interpolant
        bolt_profile sets (the shoot's dense output)."""
        r = np.asarray(r, dtype=np.float64)
        if np.any(r < self.r[0]) or np.any(r > self.r[-1]):
            raise DomainError("sample radius outside the profile range")
        return self.interpolant(r)


def bolt_profile(traj: Trajectory, r_max: float = 0.4, n: int = 200) -> BoltProfile:
    """A tail shoot sampled in its arclength r, measured from the bolt.

    Samples are log-spaced in r between the start value (= eps on the
    unstable curve) and r_max; n >= 2 and r_max must lie strictly between
    the start value and the trajectory arclength.
    """
    if n < 2:
        raise DomainError(f"bolt profile needs n >= 2 samples, got {n}")
    r0, r_end = traj.t[0], traj.t[-1]
    if not (r0 < r_max < r_end):
        raise DomainError(f"r_max {r_max} outside ({r0}, {r_end}), the "
                          f"start radius and the trajectory arclength")

    r = np.geomspace(r0, r_max, n)
    a, b, c = traj.sample(r)[:3]
    meta = dict(traj.meta)
    meta["r_origin"] = "arclength from the t -> -infinity end"
    return BoltProfile(r=r, a=a, b=b, c=c, meta=meta,
                       interpolant=lambda r: traj.sample(r)[:3])


@dataclass(frozen=True)
class BoltSmoothness:
    """Richardson-extrapolated r -> 0 behavior at the bolt."""

    db_dr_limit: float
    db_dr_error: float
    a2c2_limit: float
    a2c2_refinement_change: float
    crab_limit: float
    crab_refinement_change: float
    r0: float


def bolt_smoothness(profile: BoltProfile, r0: float | None = None) -> BoltSmoothness:
    """Extrapolate db/dr, (a^2-c^2)/r^2 and (c r - a b)/r^3 to r = 0.

    Each quantity has an even expansion in r, so the two-level Richardson
    value (4 f(r/2) - f(r)) / 3 removes the r^2 term; the refinement change
    compares the ladders anchored at r0 and r0/2.
    """
    if r0 is None:
        r0 = profile.r[-1] / 2.0
    if not (profile.r[0] <= r0 / 4.0):
        raise DomainError(f"r0/4 = {r0 / 4.0} below the smallest profile "
                          f"radius {profile.r[0]} (or not a number)")

    def at(rv):
        a, b, c = profile.sample(rv)
        return float(a), float(b), float(c)

    def f_db(rv):
        a, b, c = at(rv)
        return b / rv

    def f_a2c2(rv):
        a, b, c = at(rv)
        return (a * a - c * c) / rv ** 2

    def f_crab(rv):
        a, b, c = at(rv)
        return (c * rv - a * b) / rv ** 3

    def ladder(f):
        l1 = (4.0 * f(r0 / 2.0) - f(r0)) / 3.0
        l2 = (4.0 * f(r0 / 4.0) - f(r0 / 2.0)) / 3.0
        change = abs(l2 - l1) / max(abs(l2), np.finfo(float).tiny)
        return l2, change

    db_limit, _ = ladder(f_db)
    a2c2_limit, a2c2_change = ladder(f_a2c2)
    crab_limit, crab_change = ladder(f_crab)
    return BoltSmoothness(db_dr_limit=db_limit,
                          db_dr_error=abs(db_limit - 1.0),
                          a2c2_limit=a2c2_limit,
                          a2c2_refinement_change=a2c2_change,
                          crab_limit=crab_limit,
                          crab_refinement_change=crab_change,
                          r0=r0)


def scaling_map(traj: Trajectory, k: float) -> Trajectory:
    """The symmetry (a, b, c)(t) -> (k a(k^2 t), b(k^2 t), k c(k^2 t)) on a
    shoot in r: r is invariant, so at each r the a and c columns scale by
    k and the t column by 1/k^2."""
    if k <= 0.0:
        raise DomainError("scaling factor must be positive")

    def scale(y):
        y = np.array(y)
        y[0] *= k
        y[2] *= k
        y[3] /= k * k
        return y

    meta = dict(traj.meta)
    if "q" in meta:
        meta["q"] = meta["q"] * k
    base = traj.interpolant
    return replace(traj, states=scale(traj.states.T).T, meta=meta,
                   interpolant=None if base is None else
                   (lambda r: scale(base(r))))


def e2_metric_grid(traj: Trajectory, r_axis: Axis, theta_axis: Axis,
                   x_axis: Axis | None = None, y_axis: Axis | None = None,
                   manifest: dict | None = None) -> MetricGrid:
    """The type A 4-metric dr^2 + a^2 s1^2 + b^2 s2^2 + c^2 s3^2 on
    (r, x, y, theta) along the shoot; its components depend on (r, theta)
    only, x and y are Killing directions."""
    return type_a_grids(E2_PARAMS, traj.sample(r_axis.nodes)[:3],
                        np.ones(r_axis.count),
                        (r_axis, x_axis, y_axis, theta_axis), manifest)[0]


def e2_kahler_form_grid(traj: Trajectory, r_axis: Axis, theta_axis: Axis,
                        x_axis: Axis | None = None,
                        y_axis: Axis | None = None) -> TwoFormGrid:
    """The parallel 2-form c dr ^ s3 + a b s1 ^ s2 in the same
    (r, x, y, theta) coordinates."""
    return type_a_grids(E2_PARAMS, traj.sample(r_axis.nodes)[:3],
                        np.ones(r_axis.count),
                        (r_axis, x_axis, y_axis, theta_axis))[1]
