"""Benchmark entry point: one workload, one seed, one process.

    python3 benchmark/run.py --workload train-1k --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
of an untraced run.  With ``--trace 1`` the workload runs twice in the
process, untraced and then traced over exactly the same work, and the
last line carries the per-layer metrics of the traced pass plus the
tracing overhead; the span table goes to ``benchmark/out/``.  The line
before the result holds the run's environment and details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("LANKGC_THREADS",)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment():
    """What explains run-to-run spread: cores, workers, versions, BLAS, thread settings."""
    import numpy as np
    from lankgc import util

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as exc:
        blas = {"error": str(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_count": util.worker_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas,
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k in THREAD_VARS},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, trace):
    """Run the workload; returns ``(result line, details line)`` as dicts."""
    import tracer
    import workloads

    w = workloads.WORKLOADS[name]
    base = workloads.run(w, seed, seconds)
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment(), "untraced": _summary(base)}
    if not trace:
        metrics = dict(base.metrics, peak_rss_mb=peak_rss_mb())
        units = {"setup_s": "s", "train_facts_per_s": "1/s", "lp_queries_per_s": "1/s",
                 "tc_triplets_per_s": "1/s", "peak_rss_mb": "MB", "wall_s": "s"}
        line = {"correct": base.correct, "attempted": base.attempted, "failed": base.failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
        return line, details

    gc.collect()
    tr = tracer.Tracer()
    with tr:
        traced = workloads.run(w, seed, seconds, plan=base.plan)
    details["traced"] = _summary(traced)
    details["missing_layers"] = tr.missing
    details["hook_errors"] = sorted(set(tr.hook_errors))
    extra = {
        "trace.overhead_share": traced.details["wall_adjusted_s"] / base.details["wall_adjusted_s"] - 1.0,
        "trace.wall_s": traced.metrics["wall_s"],
        "failed_share": traced.failed / max(traced.attempted, 1),
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"trace-{name}-seed{seed}.json", {"details": details})
    line = {"correct": base.correct and traced.correct, "attempted": traced.attempted,
            "failed": traced.failed, "metrics": tr.per_layer(extra)}
    return line, details


def _summary(res):
    return {"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": res.metrics, "gates": res.gates, "errors": res.errors,
            "plan": res.plan, "details": res.details}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lankgc" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'lankgc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import lankgc
    import workloads

    if Path(lankgc.__file__).resolve().parent != ROOT / "src" / "lankgc":
        print(f"error: lankgc imported from {lankgc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    line, details = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(details, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
