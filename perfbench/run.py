"""Benchmark of keq: CLI cold start, Monte-Carlo replications and the
parallel bootstrap, with per-layer timings in a separate traced run.

Run from the root of a checkout (it builds nothing; ``src/`` is used
as it is)::

    python3 perfbench/run.py --workload mc-s5 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Workloads (see BENCHMARK.json and keqbench/workloads.py):
``cli-nec-50k``, ``mc-s5`` and ``boot-s5-t2``; ``all`` runs each workload
listed in BENCHMARK.json in turn, and ``--seconds`` defaults to its
``run_seconds``.
Inputs are made from ``--seed`` only and written under ``.bench_work/``.
Every metric is printed as ``name value unit``; a JSON line with the run's
environment and details follows, and the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from keqbench import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KEQ_THREADS")


def environment(loadavg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "loadavg_start": loadavg,
    }


def run_one(args) -> int:
    loadavg = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import keq

    if Path(keq.__file__).resolve().parent != SRC / "keq":
        print(f"error: imported keq from {keq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from keqbench import workloads

    ctx = workloads.Context(ROOT, args.seed, args.seconds, args.workload)
    if args.trace:
        metrics, detail = workloads.trace(ctx)
        units = workloads.PER_LAYER
    else:
        metrics, detail = workloads.measure(ctx)
        units = workloads.END_TO_END
    tally = ctx.tally
    detail.update(
        fail_frac=tally.failed / tally.attempted,
        ref_max_abs_dev=("n/a: reference values are recorded for seed 0 only"
                         if tally.ref_max_abs_dev is None else tally.ref_max_abs_dev),
        errors=tally.first_errors(),
    )
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(loadavg), "detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "keq" / "__init__.py").is_file():
        print(f"error: {SRC / 'keq'} not found; run from a keq checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
