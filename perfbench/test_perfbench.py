"""Self-test of the benchmark: every workload, one timed pass per worker.

Run from the repository root (about two minutes on two cores):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from run import E2E_UNITS, RECORD_UNITS, WORKLOADS  # noqa: E402
from spans import COUNTERS, LAYERS, metric_units  # noqa: E402

# The layer table of perfbench/README.md: the workloads on which a layer's
# calls must be non-zero, and those on which they must be zero.
LAYER_USE = {
    "cli": ({"pde-readme", "e2-flows"}, {"pde-sweep"}),
    "manifest": ({"pde-readme", "e2-flows"}, {"pde-sweep"}),
    "grids": ({"pde-readme", "pde-sweep", "e2-flows"}, set()),
    "curvature": ({"pde-readme", "pde-sweep", "e2-flows"}, set()),
    "leafpde": ({"pde-readme", "pde-sweep"}, {"e2-flows"}),
    "odes": ({"e2-flows"}, {"pde-readme", "pde-sweep"}),
    "e2flow": ({"e2-flows"}, {"pde-readme", "pde-sweep"}),
    "bianchi": ({"e2-flows"}, {"pde-readme", "pde-sweep"}),
}
# Named metrics that must be zero on the workload that bypasses them.
BYPASSED = {
    "pde-sweep": ["odes.integrate_flow.calls", "grids.MetricGrid.to_json.calls",
                  "grids.MetricGrid.from_json.calls", "grids.json_bytes",
                  "manifest.bytes_written", "odes.csv_bytes"],
    "pde-readme": ["odes.rhs_evals", "odes.steps"],
    "e2-flows": ["leafpde.rk4_steps", "leafpde.vecsys_nodes"],
}
# Counters that must be non-zero on the workload that exercises them.
EXERCISED = {
    "pde-readme": ["manifest.bytes_written", "grids.json_bytes",
                   "curvature.nodes", "curvature.peak_mb", "leafpde.rk4_steps",
                   "leafpde.profile_coverage", "leafpde.vecsys_nodes"],
    "pde-sweep": ["curvature.nodes", "curvature.killing_node_frac",
                  "curvature.peak_mb", "leafpde.rk4_steps",
                  "leafpde.profile_coverage", "leafpde.vecsys_nodes"],
    "e2-flows": ["odes.rhs_evals", "odes.steps", "odes.csv_bytes",
                 "manifest.bytes_written", "curvature.nodes"],
}

_runs: dict = {}


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(last stdout line, record) of a run with one timed pass per worker."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        tag = f"{workload}-seed{seed}-trace{trace}"
        record = json.loads((HERE / "out" / f"run-{tag}.json").read_text())
        _runs[key] = (last, record)
    return _runs[key]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload, seed):
    last, record = bench(workload, seed, 1)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert record["end_to_end"]["failed_frac"] == 0.0
    for name in {**E2E_UNITS, **RECORD_UNITS}:
        assert math.isfinite(record["end_to_end"][name])

    units = metric_units()
    metrics = last["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert math.isfinite(metrics["trace.overhead_frac"]["value"])

    for layer, (moves, bypassed) in LAYER_USE.items():
        calls = sum(v["value"] for k, v in metrics.items()
                    if k.startswith(f"{layer}.") and k.endswith(".calls"))
        if workload in moves:
            assert calls > 0, layer
        if workload in bypassed:
            assert calls == 0, layer
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name


def test_untraced_run_reports_end_to_end_metrics():
    last, record = bench("e2-flows", 0, 0)
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in last["metrics"].values())
    env = record["env"]
    assert env["nproc"] >= 1 and env["thread_caps"]
    assert {"python", "numpy", "scipy", "cache_bytes"} <= set(env)


def test_seeded_inputs():
    for workload, ranges in workloads.INPUT_RANGES.items():
        assert workloads.pass_inputs(workload, 0, 0) == workloads.README_INPUTS[workload]
        for seed in (0, 7):
            seen = [workloads.pass_inputs(workload, seed, k) for k in range(1, 60)]
            assert seen == [workloads.pass_inputs(workload, seed, k)
                            for k in range(1, 60)]
            assert len({tuple(p.values()) for p in seen}) == len(seen)
            for p in seen:
                assert all(lo <= p[n] <= hi for n, (lo, hi) in ranges.items())


def test_pde_readme_artifacts_are_byte_identical(tmp_path):
    inp = workloads.pass_inputs("pde-readme", 7, 3)
    out = tmp_path / "pass"
    contents = []
    for _ in range(2):
        p = workloads.pde_readme(inp, out)
        assert p.ok
        contents.append({f.relative_to(out): f.read_bytes()
                         for f in sorted(out.rglob("*")) if f.is_file()})
        shutil.rmtree(out)
    assert contents[0] == contents[1]
    assert sum(len(b) for b in contents[0].values()) > 1_000_000


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2-flows",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_wrapped_name_exists():
    import keflow.cli  # noqa: F401  (imports every layer)
    for layer, names in LAYERS.items():
        mod = sys.modules[f"keflow.{layer}"]
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part)
    assert set(COUNTERS) <= set(metric_units())
