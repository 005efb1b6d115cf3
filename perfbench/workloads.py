"""The three benchmark workloads: seeded inputs, one pass each, literal checks.

A pass runs the program on one set of inputs and returns how long the
program took, the correctness checks it was held to and the bytes it wrote.
Bounds are written out here rather than imported from keflow, so a loosened
library tolerance cannot hide a regression.

keflow is always called through module attributes (``cli.main``,
``lp.leaf_spec``), never through names bound at import time here, so that
the span tracer's patches see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from keflow import cli
from keflow import curvature as cv
from keflow import e2flow as e2
from keflow import leafpde as lp
from keflow.grids import Axis

# Seeded input ranges, one (low, high) per input. Seed 0's first pass uses
# README_INPUTS instead. The torus pair stays in [0.7, 0.8]^2: at a0 b0 near
# 0.7 and above, the CLI's own h = 1e-3 flatness check fails (max Riemann
# 1.31e-6 > 1e-6 at (0.9, 0.9)), and a benchmark pass must not fail.
INPUT_RANGES = {
    "pde-readme": {"a": (-1.0, 1.0)},
    "pde-sweep": {"a": (0.5, 1.5)},
    "e2-flows": {"q": (0.8, 1.25), "a0": (0.7, 0.8), "b0": (0.7, 0.8)},
}
README_INPUTS = {
    "pde-readme": {"a": 1.0},
    "pde-sweep": {"a": 1.0},
    "e2-flows": {"q": 1.0, "a0": 0.8, "b0": 0.75},
}

# Literal bounds, as in tests/test_acceptance.py and the README commands.
EINSTEIN_BOUND = 5e-3
CLOSEDNESS_BOUND = 1e-10
DET_DRIFT_BOUND = 1e-8
DB_DR_BOUND = 1e-4
FLATNESS_BOUND = 1e-6
CLOSED_FORM_BOUND = 1e-6

SWEEP_LEVELS = (4e-2, 2e-2, 1e-2)
SWEEP_SPAN = 0.48
E2_LEVELS = (4e-3, 2e-3, 1e-3)


# Rank-1 lattice generators: pass j of a run sits at offset + r(j) z (mod 1),
# r the base-2 radical inverse, so the first 2^m passes form a shifted
# lattice of 2^m points.
LATTICE = {"pde-readme": (1,), "pde-sweep": (1,), "e2-flows": (1, 3, 5)}


def _radical_inverse(j: int) -> float:
    """Base-2 van der Corput point: the bits of j mirrored after the point."""
    value, digit = 0.0, 0.5
    while j:
        value += digit * (j & 1)
        j >>= 1
        digit /= 2.0
    return value


def lattice_index(seed: int, k: int) -> int:
    """Position of pass k in the run's lattice; -1 for the README pass."""
    return k - 1 if seed == 0 else k


def pass_inputs(workload: str, seed: int, k: int) -> dict:
    """Inputs of pass k of a run with this seed.

    Seed 0's first pass takes the README inputs. Every other pass takes a
    point of a lattice shifted by a seed-drawn offset, so no two passes of
    a run share inputs and the first 2^m of them cover the ranges evenly.
    The tent map u -> 1 - |2u - 1| keeps each input uniform on its range
    and makes a pass's results a periodic function of u, so a mean over
    the lattice hardly depends on the seed.
    """
    j = lattice_index(seed, k)
    if j < 0:
        return dict(README_INPUTS[workload])
    ranges = INPUT_RANGES[workload]
    z = np.array(LATTICE[workload], dtype=float)
    offset = np.random.default_rng([seed, len(z)]).random(len(z))
    unit = 1.0 - np.abs(2.0 * ((offset + _radical_inverse(j) * z) % 1.0) - 1.0)
    return {name: round(float(lo + (hi - lo) * u), 6)
            for (name, (lo, hi)), u in zip(ranges.items(), unit)}


class Pass:
    """Timing, checks and output size of one pass."""

    def __init__(self):
        self.seconds = 0.0
        self.checks = []     # (name, measured, bound); passes iff measured < bound
        self.flags = []      # (name, ok) for checks with no numeric bound
        self.artifact_bytes = 0
        self.extra = {}

    def ratio(self, name, measured, bound):
        self.checks.append((name, float(measured), bound))

    def flag(self, name, ok):
        self.flags.append((name, bool(ok)))

    @property
    def ok(self) -> bool:
        return (all(ok for _, ok in self.flags)
                and all(m < b for _, m, b in self.checks))

    @property
    def worst_ratio(self) -> float:
        return max((m / b for _, m, b in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {"seconds": self.seconds, "ok": self.ok,
                "worst_ratio": self.worst_ratio,
                "artifact_bytes": self.artifact_bytes,
                "checks": {n: [m, b] for n, m, b in self.checks},
                "flags": dict(self.flags), **self.extra}


class _Stages:
    """Runs CLI stages in-process, timing them and recording exit codes."""

    def __init__(self, out: Path, p: Pass):
        self.out, self.p, self.dirs = out, p, []

    def __call__(self, sub: str, *args: str) -> Path | None:
        d = self.out / sub
        argv = ["--out-dir", str(d), *args]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        self.p.seconds += time.perf_counter() - t0
        self.p.flag(f"{sub}.exit0", rc == 0)
        self.dirs.append(d)
        return d if rc == 0 else None

    def finish(self) -> None:
        """Check every manifest checksum and count the bytes written."""
        for d in self.dirs:
            manifest = d / "manifest.json"
            if not manifest.exists():
                self.p.flag(f"{d.name}.manifest", False)
                continue
            sums = json.loads(manifest.read_text())["checksums"]
            ok = all(hashlib.sha256((d / name).read_bytes()).hexdigest() == digest
                     for name, digest in sums.items())
            self.p.flag(f"{d.name}.checksums", ok)
        self.p.artifact_bytes = sum(f.stat().st_size for f in self.out.rglob("*")
                                    if f.is_file())


def _report(d: Path, name: str) -> dict:
    return json.loads((d / name).read_text())


def pde_readme(inp: dict, out: Path) -> Pass:
    """The four README pde stages, h = a x."""
    p = Pass()
    run = _Stages(out, p)
    h_expr = "x" if inp["a"] == 1.0 else f"{inp['a']!r}*x"
    p.extra["h_expr"] = h_expr
    spec = run("spec", "pde", "leaf-build", "--h-expr", h_expr,
               "--domain", "0,1,1,2", "--n", "257")
    prof = spec and run("prof", "pde", "profile",
                        "--spec", str(spec / "leafspec.json"), "--step", "0.02",
                        "--nx", "25", "--ny", "27", "--y-start", "1.1")
    met = prof and run("met", "pde", "construct",
                       "--profile", str(prof / "cprofile.json"))
    ver = met and run("ver", "pde", "verify", "--metric", str(met / "metric.json"),
                      "--form", str(met / "kahler.json"), "--lam", "0")
    if ver:
        rep = _report(ver, "verify_report.json")
        p.ratio("einstein", rep["einstein_residual"], EINSTEIN_BOUND)
        p.ratio("closedness", rep["closedness"], CLOSEDNESS_BOUND)
        p.ratio("det_drift", _report(met, "construct_report.json")["det_drift"],
                DET_DRIFT_BOUND)
        p.flag("coverage1", _report(prof, "profile_report.json")["coverage"] == 1.0)
    else:
        p.flag("all_stages_ran", False)
    run.finish()
    return p


def _leaf_pipeline(h: float, h_expr: str):
    """Criterion 10's leaf_pipeline at span 0.48: leaf data -> 4-metric."""
    npx = npy = int(round(SWEEP_SPAN / h)) + 1
    nsx = int(round((0.75 * SWEEP_SPAN + 0.2) / h)) + 1
    nsy = int(round((SWEEP_SPAN + 0.24) / h)) + 1
    sx = Axis("x", 1.0, h, nsx)
    sy = Axis("y", 0.0, h, nsy)
    ell = np.broadcast_to(1.0 / (2.0 * sx.nodes[:, None] ** 2),
                          (nsx, nsy)).copy()
    spec = lp.leaf_spec(sx, sy, h=h_expr, ell=ell,
                        curvature_tol=max(1e-2, 50 * h * h))
    g2s, _ = lp.leaf_metric(spec)
    cp = lp.geodesic_parallel_profile(g2s, Axis("x", 0.0, h, npx),
                                      Axis("y", 0.12, h, npy))
    flds = lp.reduced_fields(cp)
    lp.sys2_residuals(flds, cp)
    sol = lp.integrate_vecsys(lp.vecsys_coefficients(flds), cp)
    g4, w4 = lp.assemble_four_metric(sol, cp)
    return sol, g4, w4


def pde_sweep(inp: dict, out: Path) -> Pass:
    """End-to-end convergence chain at three levels, h = -a x; no artifacts."""
    p = Pass()
    h_expr = "-x" if inp["a"] == 1.0 else f"-{inp['a']!r}*x"
    compat, dets, eins = [], [], []
    t0 = time.perf_counter()
    for h in SWEEP_LEVELS:
        sol, g4, w4 = _leaf_pipeline(h, h_expr)
        compat.append(sol.compat_residual)
        dets.append(sol.det_drift)
        eins.append(cv.einstein_residual(g4, 0.0))
        dw = cv.exterior_derivative_closedness(w4)
        p.ratio(f"einstein@{h:g}", eins[-1], EINSTEIN_BOUND)
        p.ratio(f"closedness@{h:g}", dw, CLOSEDNESS_BOUND)
        p.ratio(f"det_drift@{h:g}", dets[-1], DET_DRIFT_BOUND)
    orders = {name: cv.convergence_order(SWEEP_LEVELS, vals).order
              for name, vals in (("compat", compat), ("det", dets),
                                 ("einstein", eins))}
    p.seconds = time.perf_counter() - t0
    # recorded, not gated: these sit below [1.8, 2.2] today (ROADMAP item 3)
    p.extra.update(h_expr=h_expr, orders=orders)
    return p


def _e2_einstein(q: float) -> float:
    """Criterion 07's E(2) Einstein residual at h = 1e-3, shooting to b = 100."""
    traj = e2.shoot_unstable(q, b_max=100.0, tol=1e-12)
    tmid = traj.t[int(np.searchsorted(traj.column("b"), 1.0))]
    resid = None
    for h in E2_LEVELS:
        grid = e2.e2_metric_grid(traj, Axis("t", tmid - 3 * h, h, 7),
                                 Axis("theta", 0.7 - 3 * h, h, 7),
                                 Axis("x", -2 * h, h, 5), Axis("y", -2 * h, h, 5))
        resid = cv.einstein_residual(grid, -1.0)
    return resid


def e2_flows(inp: dict, out: Path) -> Pass:
    """E(2) shoot/diagnose/bolt, the E(2) Einstein check, two Bianchi solves."""
    p = Pass()
    run = _Stages(out, p)
    q = inp["q"]
    shoot = run("shoot", "e2", "shoot", "--q", repr(q), "--eps", repr(1e-5 * q),
                "--b-max", "1000")
    if shoot:
        csv = str(shoot / "e2_trajectory.csv")
        p.flag("shoot.b_max", _report(shoot, "e2_diagnostics.json")["stop_reason"]
               == "event:b_max")
        diag = run("diag", "e2", "diagnose", csv)
        if diag:
            doc = _report(diag, "e2_diagnostics.json")
            p.flag("diagnose.all_ok", doc["region_ok"] and doc["nullcline_ok"]
                   and doc["monotone_all"])
        bolt = run("bolt", "e2", "bolt", csv)
        if bolt:
            p.ratio("db_dr", _report(bolt, "bolt_report.json")["db_dr_deviation"],
                    DB_DR_BOUND)
    t0 = time.perf_counter()
    eres = _e2_einstein(q)
    p.seconds += time.perf_counter() - t0
    p.ratio("e2_einstein", eres, EINSTEIN_BOUND)
    torus = run("torus", "bianchi", "solve", "--case", "torus", "--alpha-eq-ab",
                "--a0", repr(inp["a0"]), "--b0", repr(inp["b0"]),
                "--t-start", "0.1", "--t-end", "1.0")
    if torus:
        rep = _report(torus, "bianchi_report.json")
        p.ratio("torus_riemann", rep["torus_flatness"]["max_riemann"],
                FLATNESS_BOUND)
    euc = run("euc", "bianchi", "solve", "--case", "euclidean", "--k", "1.2",
              "--w3", "0.8", "--alpha", "0.3", "--t-start", "1.0",
              "--t-end", "2.0")
    if euc:
        rep = _report(euc, "bianchi_report.json")
        p.ratio("closed_form", rep["closed_form"]["max_rel_deviation"],
                CLOSED_FORM_BOUND)
    ran = {d.name for d in run.dirs}
    p.flag("all_stages_ran", ran == {"shoot", "diag", "bolt", "torus", "euc"})
    run.finish()
    return p


PASSES = {"pde-readme": pde_readme, "pde-sweep": pde_sweep, "e2-flows": e2_flows}
