"""keflow benchmark: one workload, end-to-end metrics or a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload pde-readme --seed 0 --seconds 20 --trace 0

With --trace 0 three worker processes run one after another, each timing
passes for a third of --seconds after its own set-up and warm-up pass; the
end-to-end metrics pool their passes. With --trace 1 one untraced and one
traced worker share --seconds, and the per-layer metrics come from the
traced worker's spans. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (inputs and
checks of every pass, environment, quartiles) goes to perfbench/out/.

Workers import keflow from the src/ directory next to this one and never
from an installed copy; without it the benchmark exits 2 and prints no
result. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pde-readme", "pde-sweep", "e2-flows")
UNTRACED_WORKERS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "pass_s.p50": "s", "pass_s.tail": "s",
             "peak_rss_mb": "MB", "worst_check_ratio": "1"}
# reported in the record and on stdout, but not as contract metrics: both
# are 0 on some workload, so a relative bound on them means nothing
RECORD_UNITS = {"artifact_bytes": "B/pass", "failed_frac": "1"}


def _cache_sizes() -> dict:
    """CPU cache sizes in bytes as glibc reports them; empty if unknown."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("CACHE_SIZE") and value.strip().isdigit():
            sizes[name] = int(value)
    return sizes


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    min(10, ceil(N / 4)) of the N timed passes beyond it; the maximum for
    a single pass."""
    xs = sorted(times)
    beyond = min(10, -(-len(xs) // 4), len(xs) - 1)
    return xs[len(xs) - beyond - 1], 100.0 * (len(xs) - beyond) / len(xs)


def lattice_mean(passes: list[dict]) -> float:
    """Mean worst check ratio over the first 2^m lattice passes, m as large
    as the passes run allow, since those inputs form a whole shifted
    lattice; over all passes when the run holds no lattice prefix."""
    done = {p["j"] for p in passes}
    n = 0
    while n in done:
        n += 1
    n = 1 << (n.bit_length() - 1) if n else 0
    chosen = [p for p in passes if 0 <= p["j"] < n] or passes
    return statistics.fmean(p["worst_ratio"] for p in chosen)


def _spawn(cfg: dict, env: dict, deadline: float) -> dict:
    cfg = dict(cfg, spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _pass_stats(workers: list[dict]) -> dict:
    passes = [p for w in workers for p in w["passes"]]
    times = [p["seconds"] for p in passes if not p.get("warmup")]
    q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    tail_s, tail_pct = tail(times)
    return {"passes": passes, "times": times, "q": [q1, q2, q3],
            "p50": statistics.median(times), "tail": tail_s, "tail_pct": tail_pct,
            "attempted": len(passes),
            "failed": sum(not p["ok"] for p in passes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time of the run; 0 gives one timed pass "
                         "per worker")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "keflow" / "__init__.py").is_file():
        print(f"error: no keflow sources at {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    caps = {v: str(nproc) for v in THREAD_VARS}
    env = dict(os.environ, **caps)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{tag}-{os.getpid()}"
    n_workers = 2 if args.trace else UNTRACED_WORKERS
    base = {"workload": args.workload, "seed": args.seed, "src": str(src),
            "stride": n_workers,
            "spans": str(out_dir / f"spans-{tag}.jsonl")}
    workers = []
    try:
        for i in range(n_workers):
            traced = bool(args.trace) and i == n_workers - 1
            if args.trace:
                share = args.seconds / 2
            else:   # an overshooting worker shortens the next one's share
                share = (args.seconds * (i + 1) / n_workers
                         - sum(w["window_s"] for w in workers))
            workers.append(_spawn(dict(base, index=i, trace=traced,
                                       budget=max(0.0, share),
                                       workdir=str(work / f"worker-{i}")),
                                  env, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            (HERE / ".work").rmdir()

    plain = [w for w in workers if not w["traced"]]
    st = _pass_stats(plain)
    e2e = {"setup_s": statistics.median(w["setup_s"] for w in plain),
           "pass_s.p50": st["p50"], "pass_s.tail": st["tail"],
           "peak_rss_mb": max(w["maxrss_mb"] for w in plain),
           "worst_check_ratio": lattice_mean(st["passes"]),
           "artifact_bytes": statistics.median(p["artifact_bytes"]
                                               for p in st["passes"]),
           "failed_frac": st["failed"] / st["attempted"]}
    attempted, failed = st["attempted"], st["failed"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": dict(workers[0]["env"], nproc=nproc, thread_caps=caps,
                          cache_bytes=_cache_sizes()),
              "end_to_end": e2e,
              "pass_s": {"quartiles": st["q"], "count": len(st["times"]),
                         "tail_percentile": st["tail_pct"]},
              "worst_check_ratio_max": max(p["worst_ratio"] for p in st["passes"]),
              "setup_s_each": [w["setup_s"] for w in plain],
              "passes": st["passes"]}

    if args.trace:
        traced = [w for w in workers if w["traced"]]
        tst = _pass_stats(traced)
        per_layer = dict(traced[0]["per_layer"])
        per_layer["trace.overhead_frac"] = tst["p50"] / st["p50"] - 1.0
        record.update(per_layer=per_layer, traced_passes=tst["passes"],
                      spans=base["spans"])
        attempted += tst["attempted"]
        failed += tst["failed"]
        from spans import metric_units
        metrics = {k: {"value": per_layer[k], "unit": u}
                   for k, u in metric_units().items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}

    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    for k, u in {**E2E_UNITS, **RECORD_UNITS}.items():
        print(f"{k:<20} {e2e[k]:.6g} {u}")
    print(f"{'':<20} {len(st['times'])} timed passes, quartiles "
          + ", ".join(f"{v:.4g}" for v in st["q"])
          + f" s, tail = p{st['tail_pct']:.0f}")
    if args.trace:
        print(f"trace.overhead_frac  {per_layer['trace.overhead_frac']:.4g}; "
              f"spans in {base['spans']}")
    print(f"record in {out_dir / f'run-{tag}.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
