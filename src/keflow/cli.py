"""Command line interface for solving and verifying the metric families.

Layout: three groups. `bianchi` integrates the diagonal frame flows and
checks them against the explicit families, `e2` handles the complete E(2)
shooting problem and its bolt, `pde` runs the leaf-data pipeline from
conformal factors to an assembled Ricci-flat 4-metric.

Every run writes a manifest.json recording the subcommand, the full
parameter set, the tolerances and sha256 checksums of all artifacts, so
runs are reproducible bit for bit. Each command's tolerances and
acceptance bounds are the literals of TOLERANCES, which no option
changes. Time series are CSV, grids and reports JSON.

Exit codes: 0 success; 1 usage or domain error; 2 expected mathematical
termination (blow-up or early stop, partial artifacts are still written);
3 verification failure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import bianchi as bi
from . import e2flow as e2
from . import leafpde as lp
from .curvature import (einstein_residual, exterior_derivative_closedness,
                        riemann_max)
from .errors import (CompatibilityError, DomainError, GridError,
                     VerificationError)
from .grids import Axis, MetricGrid, TwoFormGrid
from .manifest import RunManifest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_VERIFY = 3

_CASE_SPANS = {"poincare": (0.4, 1.1), "torus": (0.0, 2.0),
               "heisenberg": (1.0, 2.0), "euclidean": (1.0, 2.0)}

# Each command's tolerances and acceptance bounds: its manifest records
# its entry, and its reports and verdicts read their bounds from it
TOLERANCES = {
    "bianchi solve": {"integrator_tol": bi.INTEGRATOR_TOL,
                      "closed_form_match": 1e-6, "flatness": 1e-6},
    "e2 shoot": {"integrator_tol": e2.SHOOT_TOL},
    # the slacks of e2flow.diagnose's verdicts and the tolerances of its
    # tail leg
    "e2 diagnose": {"region_slack": e2.REGION_SLACK,
                    "monotone_slack": e2.MONOTONE_SLACK,
                    "nullcline_slack": e2.NULLCLINE_SLACK,
                    "tail_gap_rtol": e2.TAIL_GAP_RTOL,
                    "tail_gap_atol": e2.TAIL_GAP_ATOL},
    "e2 bolt": {"db_dr_bound": 1e-4},
    "pde leaf-build": {}, "pde profile": {}, "pde construct": {},
    "pde verify": {"einstein": 5e-3, "closedness": 1e-10},
}


def _parse_floats(text: str, n: int, label: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(f"{label} must be {n} comma-separated numbers")
    if len(vals) != n:
        raise click.UsageError(f"{label} must have {n} entries, got {len(vals)}")
    return vals


def _positive_finite(ctx, param, value):
    if value is not None and not 0.0 < value < math.inf:
        raise click.BadParameter(f"{value!r} is not a positive finite number")
    return value


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number")
    return value


def _start_run(ctx, command: str, parameters: dict):
    """The run's manifest, which records the command's TOLERANCES entry,
    and the directory its artifacts go to."""
    return RunManifest(command, parameters, TOLERANCES[command]), ctx.obj


@click.group()
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for artifacts.")
@click.pass_context
def cli(ctx, out_dir):
    """Cohomogeneity-one Einstein metrics: solve, construct, verify."""
    ctx.obj = Path(out_dir)
    ctx.obj.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------------------
# bianchi


@cli.group()
def bianchi():
    """Diagonal type A frame flows a, b, c."""


@bianchi.command("solve")
@click.option("--p1", type=float, default=None, help="Structure sign p1.")
@click.option("--p2", type=float, default=None, help="Structure sign p2.")
@click.option("--p3", type=float, default=None, help="Structure sign p3.")
@click.option("--lam", type=float, default=None,
              help="Einstein constant (must be 0 when p3 = 0) [default: 0].")
@click.option("--alpha", type=float, default=None,
              help="Free constant of the p3 = 0 flow.")
@click.option("--case", "case_name", type=click.Choice(bi.CLOSED_FORM_CASES),
              default=None, help="Start on a known explicit family and "
              "verify the run against it.")
@click.option("--alpha-eq-ab", is_flag=True,
              help="Torus case: pin alpha = a0 b0 and check flatness.")
@click.option("--k", type=float, default=1.0, show_default=True)
@click.option("--w3", type=float, default=1.0, show_default=True)
@click.option("--t0", type=float, default=0.0, show_default=True)
@click.option("--a0", type=float, default=1.0, show_default=True)
@click.option("--b0", type=float, default=1.0, show_default=True)
@click.option("--c0", type=float, default=1.0, show_default=True)
@click.option("--start", default=None,
              help="Explicit start t,a,b,c (required without --case).")
@click.option("--t-start", type=float, default=None,
              help="Start time on the explicit family.")
@click.option("--t-end", type=float, default=None, help="Integration target.")
@click.pass_context
def bianchi_solve(ctx, p1, p2, p3, lam, alpha, case_name, alpha_eq_ab,
                  k, w3, t0, a0, b0, c0, start, t_start, t_end):
    """Integrate one flow; verify its rows against the explicit family."""
    consts = None
    if case_name is not None:
        dropped = [name for name, v in zip(
            ("--p1", "--p2", "--p3", "--lam", "--start"),
            (p1, p2, p3, lam, start)) if v is not None]
        if dropped:
            raise click.UsageError(f"{', '.join(dropped)} cannot be combined "
                                   f"with --case, which sets the flow and "
                                   f"its start")
        if alpha_eq_ab:
            if case_name != "torus":
                raise click.UsageError("--alpha-eq-ab only applies to the torus case")
            alpha = a0 * b0
        consts = bi.ClosedFormConstants(k=k, w3=w3, alpha=alpha or 0.0,
                                        t0=t0, a0=a0, b0=b0, c0=c0)
        params = bi.closed_form_params(case_name, consts)
        span = _CASE_SPANS[case_name]
        t_begin = t_start if t_start is not None else t0 + span[0]
        t_stop = t_end if t_end is not None else t0 + span[1]
        s0 = bi.closed_form(case_name, consts, t_begin)
    else:
        if p1 is None or p2 is None or p3 is None:
            raise click.UsageError("give --p1/--p2/--p3 or pick a --case")
        if start is None or t_end is None:
            raise click.UsageError("without --case, --start and --t-end are required")
        tv, av, bv, cv = _parse_floats(start, 4, "--start")
        params = bi.BianchiParams(p1, p2, p3, lam=lam or 0.0, alpha0=alpha)
        s0 = bi.ABCState(t=tv, a=av, b=bv, c=cv)
        t_stop = t_end

    mf, out = _start_run(ctx, "bianchi solve", {
        "p1": params.p1, "p2": params.p2, "p3": params.p3, "lam": params.lam,
        "alpha0": params.alpha0, "case": case_name,
        "alpha_eq_ab": alpha_eq_ab,
        "constants": consts.__dict__ if consts else None,
        "start": [s0.t, s0.a, s0.b, s0.c], "t_end": t_stop})
    tols = mf.tolerances

    traj = bi.integrate(params, s0, t_stop, tol=tols["integrator_tol"])
    mf.write_text(traj.to_csv(), out / "trajectory.csv")

    # rows run in increasing t, so a backward march ends on the first
    end = 0 if t_stop < s0.t else -1
    t_final = float(traj.t[end])
    report = {"stop_reason": traj.stop_reason, "blow_up": traj.blow_up,
              "n_steps": traj.n_steps, "t_final": t_final,
              "final_state": [float(v) for v in traj.states[end]]}

    if case_name is not None and not traj.blow_up:
        # the march's own rows, not its dense output between them
        refs = [bi.closed_form(case_name, consts, tv) for tv in traj.t.tolist()]
        exact = np.array([[r.a, r.b, r.c] for r in refs])
        dev = float(np.max(np.abs(traj.states - exact) / exact))
        report["closed_form"] = {"case": case_name, "max_rel_deviation": dev,
                                 "bound": tols["closed_form_match"],
                                 "matched": dev <= tols["closed_form_match"]}

    if case_name == "torus" and not traj.blow_up:
        h = 1e-3
        t_mid = 0.5 * (traj.t[0] + traj.t[-1])
        t_axis = Axis("t", t_mid - 3.0 * h, h, 7)
        grid = bi.torus_metric_grid(consts, t_axis, manifest=mf.header())
        mf.write_text(grid.to_json(), out / "torus_metric.json")
        rmax = riemann_max(grid)
        eres = einstein_residual(grid, params.lam)
        report["torus_flatness"] = {"max_riemann": rmax,
                                    "einstein_residual": eres,
                                    "bound": tols["flatness"],
                                    "flat": rmax <= tols["flatness"]}

    mf.write_json(report, out / "bianchi_report.json")
    mf.save(out)

    if traj.blow_up:
        click.echo(f"terminated: {traj.stop_reason} at t = {t_final:.6g} "
                   f"(partial trajectory written)")
        return EXIT_MATH
    click.echo(f"reached t = {t_final:.6g} in {traj.n_steps} steps "
               f"({traj.stop_reason})")
    closed, torus = report.get("closed_form"), report.get("torus_flatness")
    if closed:
        click.echo(f"explicit-family deviation "
                   f"{closed['max_rel_deviation']:.3e} "
                   f"(bound {closed['bound']:.1e})")
        if not closed["matched"]:
            raise VerificationError("numerical run left the explicit family")
    if torus:
        click.echo(f"torus curvature max {torus['max_riemann']:.3e}")
        if alpha_eq_ab and not torus["flat"]:
            raise VerificationError("alpha = a0 b0 torus metric is not flat "
                                    "to tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# e2


@cli.group("e2")
def e2grp():
    """Complete E(2) family: shooting, diagnostics, bolt."""


@e2grp.command("shoot")
@click.option("--q", type=float, default=1.0, show_default=True,
              help="Saddle parameter (a, b, c) = (q, 0, q).")
@click.option("--eps", type=float, default=None,
              help="Displacement along the unstable direction [default q*1e-5].")
@click.option("--b-max", type=float, default=100.0, show_default=True,
              help="Stop once b reaches this value.")
@click.option("--r-max", type=float, default=100.0, show_default=True,
              help="End of the arclength span.")
@click.option("--start", default=None,
              help="Custom start a,b,c instead of the unstable tail.")
@click.pass_context
def e2_shoot(ctx, q, eps, b_max, r_max, start):
    """Shoot from the saddle tail; record the trajectory and its stop."""
    start_state = _parse_floats(start, 3, "--start") if start else None
    mf, out = _start_run(ctx, "e2 shoot", {
        "q": q, "eps": eps, "b_max": b_max, "r_max": r_max,
        "start": list(start_state) if start_state else None})

    traj = e2.shoot_unstable(q, eps=eps, b_max=b_max, r_max=r_max,
                             tol=mf.tolerances["integrator_tol"],
                             start=start_state)
    if traj.n_steps < 1:  # e2 diagnose and e2 bolt replay two rows or more
        raise DomainError(f"diagnostics need two samples or more; the run "
                          f"stopped at its start ({traj.stop_reason})")
    mf.write_text(traj.to_csv(), out / "e2_trajectory.csv")
    mf.write_json({"stop_reason": traj.stop_reason, "blow_up": traj.blow_up,
                   "n_steps": traj.n_steps, "r_final": float(traj.t[-1]),
                   "final_state": [float(v) for v in traj.states[-1]]},
                  out / "e2_diagnostics.json")
    mf.save(out)

    ok = traj.stop_reason == "event:b_max" and not traj.blow_up
    click.echo(f"stop: {traj.stop_reason}, b final = {traj.column('b')[-1]:.6g}")
    return EXIT_OK if ok else EXIT_MATH


@e2grp.command("diagnose")
@click.argument("traj_csv", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def e2_diagnose(ctx, traj_csv):
    """Replay a stored shoot and evaluate the qualitative diagnostics."""
    stored = e2.Trajectory.from_csv(Path(traj_csv).read_bytes())
    mf, out = _start_run(ctx, "e2 diagnose", {"traj_csv": str(traj_csv),
                                              "meta": dict(stored.meta)})

    fresh = e2.replay_shoot(stored)
    diag = e2.diagnose(fresh)
    doc = asdict(diag)
    doc["monotone_all"] = all(doc["monotone_ok"].values())
    mf.write_json(doc, out / "e2_diagnostics.json")
    mf.save(out)

    failures = [name for name, ok in
                (("region", diag.region_ok), ("nullcline", diag.nullcline_ok),
                 ("monotone", doc["monotone_all"]))
                if not ok]
    click.echo(f"region_ok = {diag.region_ok}, nullcline_ok = "
               f"{diag.nullcline_ok}, monotone = {doc['monotone_all']}, "
               f"kp_fit = {diag.kp_fit}")
    if failures:
        raise VerificationError("diagnostics failed: " + ", ".join(failures))
    return EXIT_OK


@e2grp.command("bolt")
@click.argument("traj_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--r-max", type=float, default=0.4, show_default=True,
              help="Outer arclength radius of the profile.")
@click.option("--n", type=int, default=200, show_default=True,
              help="Log-spaced sample count.")
@click.option("--r0", type=float, default=None,
              help="Anchor radius for the Richardson ladder.")
@click.pass_context
def e2_bolt(ctx, traj_csv, r_max, n, r0):
    """Replay a stored shoot: arclength profile near r = 0 and the bolt
    smoothness extrapolation."""
    stored = e2.Trajectory.from_csv(Path(traj_csv).read_bytes())
    if stored.meta.get("r_origin") != "tail":
        raise DomainError("bolt analysis needs a tail-seeded shoot "
                          "(custom --start has no bolt at r = 0)")
    mf, out = _start_run(ctx, "e2 bolt", {
        "traj_csv": str(traj_csv), "r_max": r_max, "n": n, "r0": r0,
        "meta": dict(stored.meta)})
    bound = mf.tolerances["db_dr_bound"]

    fresh = e2.replay_shoot(stored)
    profile = e2.bolt_profile(fresh, r_max=r_max, n=n)
    mf.write_text(profile.to_csv(), out / "bolt_profile.csv")
    sm = e2.bolt_smoothness(profile, r0=r0)
    doc = {**asdict(sm), "db_dr_deviation": sm.db_dr_error,
           "db_dr_bound": bound, "smooth": sm.db_dr_error <= bound}
    mf.write_json(doc, out / "bolt_report.json")
    mf.save(out)

    click.echo(f"db/dr -> {sm.db_dr_limit:.8f} (deviation "
               f"{doc['db_dr_deviation']:.3e}, bound {bound:.1e})")
    if not doc["smooth"]:
        raise VerificationError("bolt profile fails the db/dr = 1 "
                                "smoothness check")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pde


@cli.group()
def pde():
    """Leaf data to Ricci-flat 4-metric pipeline."""


@pde.command("leaf-build")
@click.option("--h-expr", default="x", show_default=True,
              help="Harmonic function as an expression in x, y.")
@click.option("--domain", default="0,1,1,2", show_default=True,
              help="Rectangle x0,x1,y0,y1.")
@click.option("--n", type=click.IntRange(min=5), default=257,
              show_default=True,
              help="Nodes per axis (square grid unless --nx/--ny).")
@click.option("--nx", type=click.IntRange(min=5), default=None)
@click.option("--ny", type=click.IntRange(min=5), default=None)
@click.option("--ell-axis", type=click.Choice(["y", "x"]), default="y",
              show_default=True,
              help="Conformal factor 1/(2 s^2) built from this coordinate.")
@click.pass_context
def pde_leaf_build(ctx, h_expr, domain, n, nx, ny, ell_axis):
    """Validate leaf data and report the curvature checks on its metric."""
    x0, x1, y0, y1 = _parse_floats(domain, 4, "--domain")
    nx = n if nx is None else nx
    ny = n if ny is None else ny
    if x1 <= x0 or y1 <= y0:
        raise click.UsageError("domain must be nondegenerate")
    x_axis = Axis("x", x0, (x1 - x0) / (nx - 1), nx)
    y_axis = Axis("y", y0, (y1 - y0) / (ny - 1), ny)
    ell = lp.hyperbolic_factor(x_axis, y_axis, ell_axis)

    mf, out = _start_run(ctx, "pde leaf-build", {
        "h_expr": h_expr, "domain": [x0, x1, y0, y1], "nx": nx, "ny": ny,
        "ell_axis": ell_axis})

    spec = lp.leaf_spec(x_axis, y_axis, h=h_expr, ell=ell)
    mf.write_text(spec.to_json(), out / "leafspec.json")

    rep = lp.leaf_report(spec)
    mf.write_json({**rep, "step": [x_axis.step, y_axis.step]},
                  out / "leaf_report.json")
    mf.save(out)

    click.echo(f"gauss dev {rep['gauss_curvature_deviation']:.3e}, leaf "
               f"residual {rep['leaf_pde_residual']:.3e}, rescaled curvature "
               f"dev {rep['rescaled_curvature_deviation']:.3e}")
    return EXIT_OK


@pde.command("profile")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="leafspec.json from leaf-build.")
@click.option("--nx", type=click.IntRange(min=2), default=None,
              help="Nodes along each geodesic [default: source count].")
@click.option("--ny", type=click.IntRange(min=2), default=None,
              help="Base-curve nodes [default: source count - 4, fewer "
                   "if they would end within two steps of its top edge].")
@click.option("--step", type=float, default=None,
              help="Profile step on both axes [default: each source "
                   "axis's own step].")
@click.option("--y-start", type=float, default=None,
              help="First base-curve seed [default: two steps in].")
@click.pass_context
def pde_profile(ctx, spec_path, nx, ny, step, y_start):
    """Shoot geodesics off the left edge and extract the profile c(x, y)."""
    spec = lp.LeafSpec.from_json(Path(spec_path).read_bytes())
    g, _ = lp.leaf_metric(spec)
    sx, sy = g.axes
    x_axis = Axis("x", 0.0, sx.step if step is None else step,
                  sx.count if nx is None else nx)
    y_axis = lp.base_curve_axis(sy, sy.step if step is None else step,
                                y_start, ny)

    mf, out = _start_run(ctx, "pde profile", {
        "spec": str(spec_path), "nx": nx, "ny": ny, "step": step,
        "y_start": y_start})

    cp = lp.geodesic_parallel_profile(g, x_axis, y_axis)
    mf.write_text(cp.to_json(), out / "cprofile.json")
    mf.write_json({"coverage": cp.coverage, "truncated": cp.truncated,
                   "truncation_reason": cp.truncation_reason,
                   "c_min": float(np.nanmin(cp.c)),
                   "c_max": float(np.nanmax(cp.c)),
                   "shape": list(cp.c.shape)},
                  out / "profile_report.json")
    mf.save(out)

    click.echo(f"profile {cp.c.shape[0]}x{cp.c.shape[1]}, coverage "
               f"{cp.coverage:.3f}, truncated = {cp.truncated}")
    return EXIT_OK


@pde.command("construct")
@click.option("--profile", "profile_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="cprofile.json from the profile step.")
@click.option("--init", default="1,0,0,1", show_default=True,
              help="Frame initial data a,b,r,s at the window corner.")
@click.option("--compat-threshold", type=float, default=None,
              callback=_positive_finite,
              help="Abort if the mixed-partial residual exceeds this.")
@click.pass_context
def pde_construct(ctx, profile_path, init, compat_threshold):
    """Solve the linear frame system and assemble the 4-metric + form."""
    cp = lp.CProfile.from_json(Path(profile_path).read_bytes())
    init_vals = _parse_floats(init, 4, "--init")
    mf, out = _start_run(ctx, "pde construct", {
        "profile": str(profile_path), "init": list(init_vals),
        "compat_threshold": compat_threshold})

    fields = lp.reduced_fields(cp)
    s2 = lp.sys2_residuals(fields, cp)
    report = {"sys2": {"radial_R": s2.radial_R, "transverse_R": s2.transverse_R,
                       "radial_L": s2.radial_L, "mixed_PQ": s2.mixed_PQ,
                       "second_order": s2.second_order,
                       "excluded_nodes": fields.n_excluded}}
    coeffs = lp.vecsys_coefficients(fields)
    try:
        sol = lp.integrate_vecsys(coeffs, cp, init=init_vals,
                                  compat_threshold=compat_threshold)
    except CompatibilityError as exc:
        report["error"] = str(exc)
        mf.write_json(report, out / "construct_report.json")
        mf.save(out)
        raise

    g4, form = lp.assemble_four_metric(sol, cp, manifest=mf.header())
    mf.write_text(g4.to_json(), out / "metric.json")
    mf.write_text(form.to_json(), out / "kahler.json")
    report.update({"compat_residual": sol.compat_residual, "det0": sol.det0,
                   "det_drift": sol.det_drift,
                   "window_offset": list(sol.window_offset),
                   "window_shape": list(sol.a.shape)})
    mf.write_json(report, out / "construct_report.json")
    mf.save(out)

    click.echo(f"window {sol.a.shape[0]}x{sol.a.shape[1]}, compat residual "
               f"{sol.compat_residual:.3e}, det drift {sol.det_drift:.3e}")
    return EXIT_OK


@pde.command("verify")
@click.option("--metric", "metric_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--form", "form_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="2-form on the metric's axes to test for closedness.")
@click.option("--lam", type=float, default=0.0, show_default=True,
              callback=_finite, help="Einstein constant to verify against.")
@click.pass_context
def pde_verify(ctx, metric_path, form_path, lam):
    """Independent curvature check of a stored metric artifact."""
    grid = MetricGrid.from_json(Path(metric_path).read_bytes())
    form = (TwoFormGrid.from_json(Path(form_path).read_bytes())
            if form_path else None)
    if form is not None and form.axes != grid.axes:
        shapes = [tuple(ax.count for ax in g.axes) for g in (form, grid)]
        raise GridError(f"the form's axes do not match the metric's: "
                        f"shape {shapes[0]} against {shapes[1]}")
    mf, out = _start_run(ctx, "pde verify", {
        "metric": str(metric_path), "form": form_path, "lam": lam})
    tols = mf.tolerances

    eres = einstein_residual(grid, lam)
    doc = {"einstein_residual": eres, "einstein_bound": tols["einstein"],
           "einstein_ok": eres <= tols["einstein"]}
    if form is not None:
        closed = exterior_derivative_closedness(form)
        doc.update(closedness=closed, closedness_bound=tols["closedness"],
                   closedness_ok=closed <= tols["closedness"])

    checks = [k for k in ("einstein_ok", "closedness_ok") if k in doc]
    doc["passed"] = all(doc[k] for k in checks)
    mf.write_json(doc, out / "verify_report.json")
    mf.save(out)

    click.echo(f"einstein residual {eres:.3e} "
               f"(bound {tols['einstein']:.1e})")
    if not doc["passed"]:
        failed = ", ".join(k[:-3] for k in checks if not doc[k])
        raise VerificationError(f"checks failed: {failed}")
    return EXIT_OK


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except (DomainError, GridError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except (VerificationError, CompatibilityError) as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return EXIT_VERIFY
    return int(rv) if isinstance(rv, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
