"""Span tracer for the traced benchmark run.

Wraps the public functions of each keflow module (the layers) with spans
recorded from the benchmark's own code; nothing inside keflow changes. A
name is patched in every keflow module that binds it, because cli, leafpde,
e2flow, bianchi and curvature import functions by name. Only the traced
worker process installs the patches.

Each span records its name, start, end, parent span, pass id and, where
the first argument is a grid or array, its shape. Self time is a span's
duration minus the time its direct child spans cover.

Memory is traced with tracemalloc only while a curvature span is open:
started when the outermost one opens, so a span's peak is the most memory
allocated inside it and still live. Tracing everywhere slowed the e2-flows
pass about fourfold (scipy's RK45 makes many small arrays) and would
distort the self times it is meant to sit beside.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# layer -> wrapped public names; "Class.method" patches the class attribute,
# which subclasses (TwoFormGrid) inherit. frame_algebra is not listed: no
# CLI stage or pipeline calls it.
LAYERS = {
    "manifest": ["dump_json", "sha256_of"],
    "grids": ["MetricGrid.to_json", "MetricGrid.from_json",
              "MetricGrid.__init__", "central_diff", "second_diff",
              "mixed_diff"],
    "curvature": ["christoffel", "riemann_lowered", "ricci", "riemann_max",
                  "einstein_residual", "gauss_curvature_2d",
                  "laplace_beltrami", "exterior_derivative_closedness",
                  "convergence_order"],
    "leafpde": ["leaf_spec", "leaf_metric", "leaf_pde_residual",
                "geodesic_parallel_profile", "reduced_fields",
                "sys2_residuals", "vecsys_coefficients", "integrate_vecsys",
                "assemble_four_metric", "LeafSpec.to_json",
                "LeafSpec.from_json", "CProfile.to_json", "CProfile.from_json"],
    "odes": ["integrate_flow", "Trajectory.sample", "Trajectory.to_csv",
             "Trajectory.from_csv"],
    "e2flow": ["shoot_unstable", "diagnose", "bolt_profile",
               "bolt_smoothness", "e2_metric_grid"],
    "bianchi": ["integrate", "closed_form", "torus_metric_grid"],
}
# cli.main is traced as one span per stage, named from its argv.
CLI_STAGES = ["pde_leaf_build", "pde_profile", "pde_construct", "pde_verify",
              "e2_shoot", "e2_diagnose", "e2_bolt", "bianchi_solve"]

COUNTERS = {
    "manifest.bytes_written": "B/pass", "grids.json_bytes": "B/pass",
    "curvature.nodes": "count/pass", "curvature.killing_node_frac": "1",
    "leafpde.rk4_steps": "count/pass", "leafpde.profile_coverage": "1",
    "leafpde.vecsys_nodes": "count/pass", "leafpde.excluded_nodes": "count/pass",
    "odes.rhs_evals": "count/pass", "odes.steps": "count/pass",
    "odes.csv_bytes": "B/pass",
}


def span_names() -> list[str]:
    return ([f"cli.{s}" for s in CLI_STAGES]
            + [f"{layer}.{name}" for layer, names in LAYERS.items()
               for name in names])


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count/pass"
        units[f"{name}.self_s"] = "s/pass"
    units.update(COUNTERS)
    units["curvature.peak_mb"] = "MB"
    units["trace.overhead_frac"] = "1"
    return units


def _shape(args) -> list | None:
    first = args[0] if args else None
    counts = getattr(first, "counts", None)   # None on a class or unset grid
    if isinstance(counts, tuple):
        return list(counts)
    if isinstance(first, np.ndarray):
        return list(first.shape)
    return None


def _killing_frac(grid) -> float:
    """Share of nodes lying along axes on which every component is constant."""
    g = grid.components
    useful = 1.0
    for axis, count in enumerate(grid.counts):
        if np.all(g == g.take([0], axis=axis)):
            useful /= count
    return 1.0 - useful


class Tracer:
    """Spans and counters of one traced worker, kept in memory."""

    def __init__(self):
        self.pass_id = None
        self.spans = []          # [name, start, end, parent, pass_id, shape, self_s, peak_b]
        self.stack = []          # open spans: [index, child_s, base_b, peak_b]
        self.counts = defaultdict(float)   # (pass_id, counter) -> value
        self.files = {}          # (pass_id, path) -> size written by manifest

    # -- spans -----------------------------------------------------------

    def _tick(self) -> None:
        """Fold the tracemalloc peak since the last event into open spans."""
        if not tracemalloc.is_tracing():
            return
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self.stack:
            if frame[2] is not None:
                frame[3] = max(frame[3], peak)
        tracemalloc.reset_peak()

    def _enter(self, name, args) -> None:
        if name.startswith("curvature.") and not tracemalloc.is_tracing():
            tracemalloc.start()
        self._tick()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.pass_id, _shape(args), 0.0, None])
        base = (tracemalloc.get_traced_memory()[0]
                if tracemalloc.is_tracing() else None)
        self.stack.append([len(self.spans) - 1, 0.0, base, base])

    def _exit(self) -> None:
        self._tick()
        idx, child_s, base, peak = self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        dur = span[2] - span[1]
        span[6] = dur - child_s
        if base is not None:
            span[7] = peak - base
            if not any(f[2] is not None for f in self.stack):
                tracemalloc.stop()
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def add(self, counter, value) -> None:
        self.counts[(self.pass_id, counter)] += value

    # -- counters --------------------------------------------------------

    def _note_file(self, args, kwargs, out) -> None:
        path = Path(args[-1] if args else kwargs["path"])
        self.files[(self.pass_id, str(path))] = path.stat().st_size

    def _json_out(self, args, kwargs, out) -> None:
        self.add("grids.json_bytes", len(out))

    def _json_in(self, args, kwargs, out) -> None:
        self.add("grids.json_bytes", len(args[-1]))

    def _riemann(self, args, kwargs, out) -> None:
        grid = args[0]
        nodes = int(np.prod(grid.counts))
        self.add("curvature.nodes", nodes)
        self.add("killing_nodes", nodes * _killing_frac(grid))

    def _profile(self, args, kwargs, out) -> None:
        substeps = out.meta.get("substeps", 4)
        geodesics = out.y_axis.count + 2
        self.add("leafpde.rk4_steps", (out.x_axis.count - 1) * substeps * geodesics)
        self.add("coverage_sum", out.coverage)
        self.add("profiles", 1)

    def _fields(self, args, kwargs, out) -> None:
        self.add("leafpde.excluded_nodes", out.n_excluded)

    def _vecsys(self, args, kwargs, out) -> None:
        self.add("leafpde.vecsys_nodes", out.a.size)

    def _flow(self, args, kwargs, out) -> None:
        self.add("odes.rhs_evals", out.n_rhs_evals)
        self.add("odes.steps", out.n_steps)

    def _csv_out(self, args, kwargs, out) -> None:
        self.add("odes.csv_bytes", len(out))

    def _csv_in(self, args, kwargs, out) -> None:
        self.add("odes.csv_bytes", len(args[-1]))

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every wrapped name wherever a keflow module binds it."""
        import keflow.cli
        after = {
            "manifest.dump_json": self._note_file,
            "manifest.sha256_of": self._note_file,
            "grids.MetricGrid.to_json": self._json_out,
            "grids.MetricGrid.from_json": self._json_in,
            "curvature.riemann_lowered": self._riemann,
            "leafpde.geodesic_parallel_profile": self._profile,
            "leafpde.reduced_fields": self._fields,
            "leafpde.integrate_vecsys": self._vecsys,
            "odes.integrate_flow": self._flow,
            "odes.Trajectory.to_csv": self._csv_out,
            "odes.Trajectory.from_csv": self._csv_in,
        }
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("keflow.") and m is not None]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"keflow.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(
                            self.wrap(span, raw.__func__, after.get(span))))
                    else:
                        setattr(cls, meth, self.wrap(span, raw, after.get(span)))
                    continue
                orig = getattr(mod, name)
                traced = self.wrap(span, orig, after.get(span))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)
        main = keflow.cli.main

        def stage_main(argv=None):
            # argv is ["--out-dir", DIR, group, command, ...]
            stage = f"cli.{argv[2]}_{argv[3].replace('-', '_')}"
            self._enter(stage, ())
            try:
                return main(argv)
            finally:
                self._exit()
        keflow.cli.main = stage_main

    # -- results ---------------------------------------------------------

    def per_pass(self, timed: list[int]) -> dict:
        """Per-layer metrics over the timed passes (means per pass)."""
        n = max(len(timed), 1)
        timed_set = set(timed)
        calls, self_s = defaultdict(float), defaultdict(float)
        peak_b = 0
        for name, _, _, _, pid, _, s, peak in self.spans:
            if pid not in timed_set:
                continue
            calls[name] += 1
            self_s[name] += s
            if name.startswith("curvature."):
                peak_b = max(peak_b, peak)
        totals = defaultdict(float)
        for (pid, counter), value in self.counts.items():
            if pid in timed_set:
                totals[counter] += value
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        for counter in COUNTERS:
            out[counter] = totals[counter] / n
        out["manifest.bytes_written"] = sum(
            size for (pid, _), size in self.files.items() if pid in timed_set) / n
        out["leafpde.profile_coverage"] = (totals["coverage_sum"] / totals["profiles"]
                                           if totals["profiles"] else 0.0)
        out["curvature.killing_node_frac"] = (
            totals["killing_nodes"] / totals["curvature.nodes"]
            if totals["curvature.nodes"] else 0.0)
        out["curvature.peak_mb"] = peak_b / 2 ** 20
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, pid, shape, s, peak in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "pass": pid,
                                     "shape": shape, "self_s": s,
                                     "peak_bytes": peak}) + "\n")
