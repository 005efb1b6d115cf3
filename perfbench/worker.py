"""One benchmark worker process, started by run.py.

Imports keflow, runs one untimed warm-up pass, then timed passes one after
another (a closed loop with one client) until its share of the run's
seconds is used, with at least one timed pass. It prints one JSON object
on its last stdout line. Setup time runs from the parent's spawn
timestamp (``time.monotonic``, system-wide on Linux) to the end of the
warm-up pass.

Usage: python3 perfbench/worker.py '<json config>'
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _run_pass(workloads, cfg, k, tracer) -> dict:
    inp = workloads.pass_inputs(cfg["workload"], cfg["seed"], k)
    out = Path(cfg["workdir"]) / f"pass-{k}"
    out.mkdir(parents=True)
    if tracer is not None:
        tracer.pass_id = k
    t0 = time.perf_counter()
    try:
        rec = workloads.PASSES[cfg["workload"]](inp, out).to_dict()
    except Exception as exc:  # a failed pass is counted, the run goes on
        traceback.print_exc()
        rec = {"seconds": time.perf_counter() - t0, "ok": False,
               "worst_ratio": 0.0, "artifact_bytes": 0, "error": repr(exc)}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    rec.update(k=k, j=workloads.lattice_index(cfg["seed"], k), inputs=inp)
    return rec


def main() -> None:
    cfg = json.loads(sys.argv[1])
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import keflow
    if src not in Path(keflow.__file__).resolve().parents:
        raise SystemExit(f"keflow imported from {keflow.__file__}, not {src}")
    import workloads

    tracer = None
    if cfg["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    k = cfg["index"]
    warm = _run_pass(workloads, cfg, k, tracer)
    warm["warmup"] = True
    setup_s = time.monotonic() - cfg["spawned"]

    timed = []
    t0 = time.perf_counter()
    while True:
        k += cfg["stride"]
        timed.append(_run_pass(workloads, cfg, k, tracer))
        if time.perf_counter() - t0 >= cfg["budget"]:
            break

    result = {"setup_s": setup_s, "traced": bool(cfg["trace"]),
              "window_s": time.perf_counter() - t0,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "passes": [warm] + timed,
              "env": {"python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer is not None:
        result["per_layer"] = tracer.per_pass([p["k"] for p in timed])
        tracer.write_spans(Path(cfg["spans"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
