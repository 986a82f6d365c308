"""The three workloads: their untraced measurement and their traced run.

Every workload is one client in a closed loop: the next operation starts
when the previous one has returned.  Load comes from this one process,
plus the two pool workers of ``bootstrap_see(threads=2)`` on boot-s5-t2.
The environment is passed on unchanged: BLAS and keq thread settings are
whatever the user has, since pinning them hides the oversubscription of
the bootstrap process pool.

Operations come in three kinds, one per workload:

* ``cli`` - one ``keq equate --design nec`` job in a fresh subprocess;
* ``replication`` - one Monte-Carlo replication (both methods, in-process);
* ``bootstrap`` - one ``bootstrap_see`` call at ``threads=2``, followed
  by the same replicate indices at ``threads=1``.

Each measured operation is followed by one calibration (see
``calibrate``), and the end-to-end times are multiples of it.

boot-s5-t2 runs here but is left out of BENCHMARK.json: with the default
BLAS threads, the time of its threads=2 call swings several-fold from run
to run, so no bound can hold it.

The traced run repeats the workload's own kind, each time untraced and
then traced, and runs each other kind once on the workload's inputs
("probes"), so that every layer of ``src/keq`` is timed on every
workload.  A traced operation calls the same entry points as the
untraced one; its spans come from the wrappers that ``spans.Tracer``
puts around keq's public functions while the operation lasts.  A
per-layer metric comes from the workload's own operations when they
reach that layer, and from a probe otherwise.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

from keq.cli import build_covariate_space, write_equating_table, write_metrics_report
from keq.cli import main as cli_main
from keq.core import KeqError, ScoreScale, coerce_dataset, read_person_csv
from keq.equate import GkePipelineConfig, NecInput, equate_gke, equate_sequential
from keq.metrics import MetricsReport
from keq.simulate import (
    METHOD_GKE,
    METHOD_SEQ,
    OTHER_SCORE,
    ScenarioSpec,
    run_scenario,
    truth_values,
)
from keq.uncertainty import BootstrapConfig, PipelineSpec, bootstrap_replicates, bootstrap_see

from . import calibrate
from .checks import DERIVED_TOL, Tally, parse_equating_csv
from .fixtures import COVARIATES, PARAMS, cli_argv, scenario_pair, write_person_csv
from .spans import Tracer, duration, self_times

SETUP_REPEATS = 5        # fresh-interpreter imports per run; setup_s is their median
BOOT_REPLICATES = 4      # bootstrap replicates per bootstrap_see call
BOOT_THREADS = 2
PROBE_REPLICATES = 2     # bootstrap replicates of the off-path bootstrap probe
TAIL_PERCENTILE = 75
PRIMARY_SHARE = 0.6      # of --seconds that the traced run gives its own operations

CONFIG = GkePipelineConfig()  # the defaults of `keq equate` and `run_scenario`

END_TO_END = {
    "setup_s": "s", "throughput_rel": "1/cal", "op_rel_p50": "cal", "op_rel_tail": "cal",
    "peak_rss_mb": "MB",
}

# Per-layer metrics taken from spans: (span name, attribute or "self").
# Times are medians over the calls into that layer.  ``equate.gke`` is a
# call of the GKE method itself; the equate_gke calls that the sequential
# method makes are ``equate.gke.nested`` (see ``label_spans``).
SPAN_METRICS = {
    "cli.write_s": ("cli.write", None),
    "core.read_csv_s": ("core.read_csv", None),
    "core.coerce_s": ("core.coerce", None),
    "core.tabulate_s": ("core.tabulate", None),
    "core.take_s": ("core.take", None),
    "core.records": ("core.tabulate", "records"),
    "simulate.gen_s": ("simulate.gen", None),
    "presmooth.fit_p_s": ("presmooth.fit_p", None),
    "presmooth.fit_q_s": ("presmooth.fit_q", None),
    "presmooth.iters_p": ("presmooth.fit_p", "iterations"),
    "presmooth.iters_q": ("presmooth.fit_q", "iterations"),
    "probmix.target_s": ("probmix.target", None),
    "continuize.bandwidth_s": ("continuize.bandwidth", None),
    "equate.invert_s": ("equate.invert", None),
    "equate.points": ("equate.invert", "points"),
    "equate.covariate_s": ("equate.covariate", None),
    "equate.covariate_self_s": ("equate.covariate", "self"),
    "equate.gke_s": ("equate.gke", None),
    "equate.gke_self_s": ("equate.gke", "self"),
    "equate.sequential_s": ("equate.sequential", None),
    "equate.sequential_self_s": ("equate.sequential", "self"),
    "metrics.report_s": ("metrics.report", None),
}

# Per-layer metrics computed from operation measurements: unit.
OP_METRICS = {
    "cli.import_s": "s", "cli.job_overhead_s": "s",
    "presmooth.converged_ratio": "ratio",
    "uncertainty.replicate_s": "s",
    "uncertainty.pool_s": "s", "uncertainty.failed": "count",
    "uncertainty.payload_bytes": "B", "uncertainty.scaling_eff": "ratio",
    "trace.untraced_op_s": "s", "trace.overhead_s": "s", "trace.layer_self_sum_s": "s",
}

PER_LAYER = {**{m: "s" if m.endswith("_s") else "count" for m in SPAN_METRICS}, **OP_METRICS}


class Context:
    def __init__(self, root: Path, seed: int, seconds: float, workload: str,
                 work: Path | None = None):
        self.root, self.seed, self.seconds, self.workload = root, seed, seconds, workload
        self.work = work or root / ".bench_work" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.tally = Tally(workload, seed)
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join(filter(None, (str(root / "src"), path)))}


def import_times(ctx: Context, modules: str, repeats: int) -> list[float]:
    """Time ``import <modules>`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root,
                              capture_output=True, text=True, check=True)
        out.append(float(proc.stdout))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


def op_seed(seed: int, k: int) -> int:
    """Seed of the k-th bootstrap call of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# The program's entry points, as each workload calls them
# ---------------------------------------------------------------------------

def direct_gke(p, q):
    """The GKE method: ``equate_gke`` on the NEC tables of (p, q)."""
    return equate_gke(NecInput.from_datasets(p, q, omega=CONFIG.omega), CONFIG)


def direct_replication(p, q) -> dict:
    """One replication's equating, with the public calls of ``run_scenario``."""
    return {METHOD_GKE: direct_gke(p, q).equated,
            METHOD_SEQ: equate_sequential(p, q, OTHER_SCORE, CONFIG).equated}


def in_process_gke(p_csv: Path, q_csv: Path):
    """``equate_gke`` on the datasets that the cli-nec-50k flags describe."""
    raws = [read_person_csv(path, score_column="score", covariate_columns=list(COVARIATES))
            for path in (p_csv, q_csv)]
    space = build_covariate_space(raws, list(COVARIATES),
                                  {OTHER_SCORE: (50.0, 60.0, 70.0, 80.0, 100.0)})
    return direct_gke(*(coerce_dataset(raw, ScoreScale(0, 100), space) for raw in raws))


# ---------------------------------------------------------------------------
# Operation kinds
# ---------------------------------------------------------------------------

class CliKind:
    """``keq equate --design nec`` on a CSV pair written from (p, q)."""

    def __init__(self, ctx: Context, p, q, name: str):
        self.ctx, self.expected = ctx, None
        self.p_csv, self.q_csv = ctx.work / f"{name}-p.csv", ctx.work / f"{name}-q.csv"
        self.out = ctx.work / f"{name}-out.csv"
        write_person_csv(p, self.p_csv)
        write_person_csv(q, self.q_csv)

    def job(self, k: int) -> float:
        """One job; its output must equal the first job's byte for byte."""
        self.out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "keq.cli", *cli_argv(self.p_csv, self.q_csv, self.out)]
        wall, proc = timed(subprocess.run, argv, env=self.ctx.env, cwd=self.ctx.root,
                           capture_output=True)
        tally = self.ctx.tally
        if proc.returncode != 0:
            tally.fail(k, f"keq equate exited {proc.returncode}: {proc.stderr[-300:]!r}")
            return wall
        data = self.out.read_bytes()
        if self.expected is None:
            self.expected = data
            self.check_first(k)
        else:
            tally.same(k, data, self.expected, "job output")
        return wall

    def check_first(self, k: int) -> None:
        """The first output against in-process ``equate_gke`` and the reference."""
        tally = self.ctx.tally
        try:
            equated = parse_equating_csv(self.expected)
        except ValueError as exc:
            tally.fail(k, f"job output: {exc}")
            return
        tally.equated(k, equated, "job output")
        tally.reference(k, "cli-job", equated)
        tally.close(k, equated, in_process_gke(self.p_csv, self.q_csv).equated,
                    "job output vs in-process equate_gke")

    def in_process(self, k: int) -> float:
        """``keq.cli.main`` with the job's flags, in this process."""
        out = self.ctx.work / "in-process-out.csv"
        out.unlink(missing_ok=True)
        wall, code = timed(cli_main, cli_argv(self.p_csv, self.q_csv, out))
        if code != 0:
            self.ctx.tally.fail(k, f"in-process keq equate returned {code}")
        else:
            self.ctx.tally.same(k, out.read_bytes(), self.expected, "in-process job output")
        return wall

    def trace_op(self, tracer: Tracer, k: int, tag: str) -> dict:
        if self.expected is None:
            self.job(k)
        job = self.job(k)
        untraced = self.in_process(k)
        with tracer.operation(k, "cli", tag):
            traced = self.in_process(k)
        return {"job": job, "untraced": untraced, "traced": traced}


class ReplicationKind:
    """One replication of ``run_scenario``: GKE and sequential GKE on a pair."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.results: dict[int, dict] = {}

    def op(self, k: int, p=None, q=None) -> float:
        """Replication k of scenario 5, or the given pair."""
        t = time.perf_counter()
        if p is None:
            p, q = scenario_pair(5, self.ctx.seed, rep=k)
        try:
            res = direct_replication(p, q)
        except KeqError as exc:
            self.ctx.tally.fail(k, f"replication: {exc}")
            return time.perf_counter() - t
        wall = time.perf_counter() - t
        self.results[k] = res
        for method, equated in res.items():
            self.ctx.tally.equated(k, equated, method)
            self.ctx.tally.reference(k, f"rep{k}/{method}", equated)
        return wall

    def trace_op(self, tracer: Tracer, k: int, tag: str, pair=None) -> dict:
        untraced = self.op(k, *(pair or ()))
        with tracer.operation(k, "replication", tag):
            t = time.perf_counter()
            p, q = pair or scenario_pair(5, self.ctx.seed, rep=k)
            try:
                res = direct_replication(p, q)
            except KeqError:
                res = {}  # counted by the untraced run
            traced = time.perf_counter() - t
        for method in res:
            if k in self.results:
                self.ctx.tally.close(k, res[method], self.results[k][method], f"traced {method}")
        return {"untraced": untraced, "traced": traced}

    def report(self, keys) -> MetricsReport:
        """The report ``run_scenario`` assembles from these replications."""
        scale = PARAMS.scale()
        reps = [self.results[k] for k in keys]
        return MetricsReport.from_replicates(
            scale.points, truth_values(ScenarioSpec.from_table(5), scale),
            {m: np.vstack([r[m] for r in reps]) for m in (METHOD_GKE, METHOD_SEQ)})

    def check_run_scenario(self) -> None:
        """Replications 0 and 1 must reproduce ``run_scenario``'s report."""
        first = (0, 1)
        if not all(k in self.results for k in first):
            return  # the failed replication is counted already
        ours = self.report(first)
        theirs = run_scenario(ScenarioSpec.from_table(5), 2, seed=self.ctx.seed)
        pairs = [(ours.ediff_points, theirs.ediff_points, "ediff")]
        for method in (METHOD_GKE, METHOD_SEQ):
            for key in ("bias", "see", "rmse"):
                pairs.append((ours.per_method[method][key], theirs.per_method[method][key],
                              f"{method} {key}"))
        for k in first:
            for a, b, what in pairs:
                self.ctx.tally.close(k, a, b, f"report {what} vs run_scenario", DERIVED_TOL)


class BootKind:
    """``bootstrap_see(PipelineSpec("GKE"))`` on one pair."""

    def __init__(self, ctx: Context, p, q, replicates: int):
        self.ctx, self.p, self.q, self.replicates = ctx, p, q, replicates
        self.spec = PipelineSpec("GKE")
        self.last = None

    def op(self, k: int) -> tuple[float, float, int]:
        """Threads=2 then threads=1 on the same replicate indices."""
        tally = self.ctx.tally
        config = BootstrapConfig(self.replicates, op_seed(self.ctx.seed, k))
        try:
            t2, res2 = timed(bootstrap_see, self.p, self.q, self.spec, config, threads=BOOT_THREADS)
            t1, res1 = timed(bootstrap_see, self.p, self.q, self.spec, config, threads=1)
        except KeqError as exc:
            tally.fail(k, f"bootstrap_see: {exc}")
            self.last = None
            return float("nan"), float("nan"), 0
        tally.same(k, res2.see, res1.see, "SEE at threads=2 vs threads=1")
        tally.same(k, res2.replicates, res1.replicates, "replicates at threads=2 vs threads=1")
        if res2.n_failed != res1.n_failed:
            tally.fail(k, "failed replicates differ between threads=2 and threads=1")
        if not (np.all(np.isfinite(res2.see)) and np.all(res2.see >= 0.0)):
            tally.fail(k, "SEE negative or not finite")
        for i, row in enumerate(res2.replicates):
            tally.equated(k, row, f"replicate row {i}")
        if k == 0:
            tally.reference(k, "boot-see", res2.see)
        self.last = res1
        return t2, t1, res2.n_failed

    def trace_op(self, tracer: Tracer, k: int, tag: str) -> dict:
        """The threads=1 call is the untraced run of the traced replicates."""
        t2, t1, failed = self.op(k)
        config = BootstrapConfig(self.replicates, op_seed(self.ctx.seed, k))
        with tracer.operation(k, "bootstrap", tag):
            t = time.perf_counter()
            rows, failures = bootstrap_replicates(self.p, self.q, self.spec, config)
            traced = time.perf_counter() - t
        if self.last is not None:
            self.ctx.tally.close(k, np.vstack(rows), self.last.replicates, "traced replicates")
        # Computed size of what the pool pickles: each chunk's call and all results.
        bounds = np.linspace(0, config.replicates, BOOT_THREADS + 1, dtype=int)
        payload = len(ForkingPickler.dumps((rows, failures)))
        for a, b in zip(bounds, bounds[1:]):
            payload += len(ForkingPickler.dumps(
                (bootstrap_replicates, (self.p, self.q, self.spec, config, int(a), int(b)))))
        return {"t2": t2, "untraced": t1, "traced": traced, "failed": failed,
                "payload": payload}


# ---------------------------------------------------------------------------
# Untraced measurement
# ---------------------------------------------------------------------------

def closed_loop(op, calibration, seconds: float) -> tuple[list, list[float]]:
    """Run op(k) for k = 1, 2, ... until ``seconds`` have passed, with a
    calibration before the first and after each: the results of the
    operations, and the calibrations' wall times (one more)."""
    out, cals, k = [], [calibration()], 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        out.append(op(k))
        cals.append(calibration())
        k += 1
    return out, cals


def latency_metrics(walls: list[float], cals: list[float],
                    units_per_op: float) -> tuple[dict, dict]:
    """Times of operations as multiples of the mean of the calibrations
    on either side of each, with the raw seconds in the detail.  A failed
    operation, whose time is NaN, is left out."""
    pairs = [(w, (a + b) / 2) for w, a, b in zip(walls, cals, cals[1:]) if np.isfinite(w)]
    if not pairs:
        raise RuntimeError("no operation completed")
    walls, cals = zip(*pairs)
    rel = [w / c for w, c in pairs]
    tail = float(np.percentile(rel, TAIL_PERCENTILE))
    metrics = {
        "throughput_rel": units_per_op * len(rel) / sum(rel),
        "op_rel_p50": statistics.median(rel),
        "op_rel_tail": tail,
    }
    detail = {"op_samples": len(rel), "tail_percentile": TAIL_PERCENTILE,
              "samples_beyond_tail": sum(r > tail for r in rel),
              "throughput": units_per_op * len(walls) / sum(walls),
              "op_s_p50": statistics.median(walls),
              "op_s_tail": float(np.percentile(walls, TAIL_PERCENTILE)),
              "calibration_s_p50": statistics.median(cals)}
    return metrics, detail


def measure(ctx: Context) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run."""
    seed, detail = ctx.seed, {}
    if ctx.workload == "cli-nec-50k":
        cli = CliKind(ctx, *scenario_pair(6, seed), "cli")
        setup = import_times(ctx, "keq, keq.cli", SETUP_REPEATS)

        def calibration():
            return calibrate.fresh(ctx.env, ctx.root)

        cli.job(0)  # warm-up; also checks the output against in-process equate_gke
        calibration()  # warm-up
        lat, detail = latency_metrics(*closed_loop(cli.job, calibration, ctx.seconds), 1.0)
        detail["throughput_unit"] = "jobs/s"
    elif ctx.workload == "mc-s5":
        reps = ReplicationKind(ctx)
        setup = import_times(ctx, "keq", SETUP_REPEATS)
        reps.op(0)  # warm-up
        calibrate.in_process()  # warm-up
        lat, detail = latency_metrics(
            *closed_loop(reps.op, calibrate.in_process, ctx.seconds), 1.0)
        reps.check_run_scenario()
        detail["throughput_unit"] = "replications/s"
    else:
        p, q = scenario_pair(5, seed)
        point = direct_gke(p, q).equated
        ctx.tally.equated(0, point, "point estimate")
        ctx.tally.reference(0, "boot-point", point)
        boot = BootKind(ctx, p, q, BOOT_REPLICATES)
        setup = import_times(ctx, "keq", SETUP_REPEATS)
        boot.op(0)  # warm-up
        calibrate.in_process()  # warm-up
        ops, cals = closed_loop(boot.op, calibrate.in_process, ctx.seconds)
        lat, detail = latency_metrics([t2 for t2, _, _ in ops], cals, BOOT_REPLICATES)
        t2s, t1s = zip(*[(t2, t1) for t2, t1, _ in ops if np.isfinite(t2)])
        detail.update(throughput_unit="bootstrap replicates/s",
                      replicates_per_call=BOOT_REPLICATES,
                      scaling_eff=sum(t1s) / (BOOT_THREADS * sum(t2s)),
                      failed_replicates=sum(f for _, _, f in ops))
    metrics = {"setup_s": statistics.median(setup), **lat, "peak_rss_mb": peak_rss_mb()}
    detail["setup_samples"] = setup
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def trace(ctx: Context) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run."""
    tracer = Tracer()
    seed, budget = ctx.seed, PRIMARY_SHARE * ctx.seconds
    ops: dict[str, list[dict]] = {"cli": [], "replication": [], "bootstrap": []}
    imports = import_times(ctx, "keq, keq.cli", SETUP_REPEATS)

    def primary(kind: str, trace_op, minimum: int = 1):
        start, k = time.perf_counter(), 0
        while k < minimum or time.perf_counter() - start < budget:
            ops[kind].append(trace_op(tracer, k, "primary"))
            k += 1

    def fixtures(scenario_id: int):
        with tracer.operation("fixtures", "fixtures", "primary"):
            return scenario_pair(scenario_id, seed)

    if ctx.workload == "cli-nec-50k":
        own = "cli"
        p, q = fixtures(6)
        primary(own, CliKind(ctx, p, q, "cli").trace_op)
    elif ctx.workload == "mc-s5":
        own = "replication"
        reps = ReplicationKind(ctx)
        primary(own, reps.trace_op, minimum=2)
        with tracer.operation("report", "report", "primary"):
            report = reps.report(sorted(reps.results))
            write_metrics_report(report, ctx.work / "report.csv", "full")
        p, q = scenario_pair(5, seed, rep=0)
    else:
        own = "bootstrap"
        p, q = fixtures(5)
        boot = BootKind(ctx, p, q, BOOT_REPLICATES)
        primary(own, boot.trace_op)
    if own != "cli":
        ops["cli"].append(CliKind(ctx, p, q, "probe").trace_op(tracer, 1000, "probe"))
    if own != "replication":
        ops["replication"].append(
            ReplicationKind(ctx).trace_op(tracer, 1001, "probe", pair=(p, q)))
    if own != "bootstrap":
        boot = BootKind(ctx, p, q, PROBE_REPLICATES)
        ops["bootstrap"].append(boot.trace_op(tracer, 1002, "probe"))
    if own != "replication":
        # The metrics layer on this workload's bootstrap replicates.
        points = p.scale.points
        with tracer.operation("report", "report", "probe"):
            MetricsReport.from_replicates(points, points.astype(float),
                                          {METHOD_GKE: boot.last.replicates})
    if own == "bootstrap":
        # What `keq equate --bootstrap` writes.
        table = direct_gke(p, q).with_see(boot.last.see)
        with tracer.operation("write", "write", "primary"):
            write_equating_table(table, ctx.work / "table.csv", "full",
                                 {"command": "equate", "design": "nec", "method": table.method})

    label_spans(tracer.spans)
    tracer.write(ctx.work / f"spans-seed{seed}.json")
    metrics = layer_metrics(tracer.spans, own, ops, imports)
    detail = {"probed": sorted(m for m in SPAN_METRICS
                               if not _spans(tracer.spans, SPAN_METRICS[m][0], "primary")),
              "operations": {kind: len(v) for kind, v in ops.items()},
              "spans": len(tracer.spans)}
    return metrics, detail


def label_spans(spans: list[dict]) -> None:
    """Name each presmoothing fit by its population, and mark the
    ``equate_gke`` calls made inside another equating method as nested.

    ``equate_gke`` fits the source population first, then the target.
    """
    fits: dict[int, int] = {}
    for s in spans:
        if s["name"] == "presmooth.fit":
            order = fits[s["parent"]] = fits.get(s["parent"], -1) + 1
            s["name"] = ("presmooth.fit_p", "presmooth.fit_q")[order % 2]
        elif (s["name"] == "equate.gke" and s["parent"] is not None
              and spans[s["parent"]]["name"].startswith("equate.")):
            s["name"] = "equate.gke.nested"


def _spans(spans, name: str, tag: str) -> list[dict]:
    return [s for s in spans if s["name"] == name and s["tag"] == tag]


def _chosen(spans, name: str) -> list[dict]:
    """The workload's own spans of a layer, or else the probes'."""
    return _spans(spans, name, "primary") or _spans(spans, name, "probe")


def layer_metrics(spans: list[dict], own: str, ops: dict, imports: list[float]) -> dict:
    selfs = self_times(spans)
    out = {}
    for metric, (name, attr) in SPAN_METRICS.items():
        chosen = _chosen(spans, name)
        if attr is None:
            values = [duration(s) for s in chosen]
        elif attr == "self":
            values = [selfs[s["id"]] for s in chosen]
        else:
            values = [s["attrs"][attr] for s in chosen]
        out[metric] = float(statistics.median(values))
    fits = [s for s in spans if s["name"] in ("presmooth.fit_p", "presmooth.fit_q")
            and s["tag"] == "primary"]
    out["presmooth.converged_ratio"] = sum(s["attrs"]["converged"] for s in fits) / len(fits)
    out["uncertainty.replicate_s"] = float(statistics.median(
        duration(s) / s["attrs"]["replicates"] for s in _chosen(spans, "uncertainty.replicates")))

    def med(kind, fn):
        return float(statistics.median(fn(o) for o in ops[kind]))

    out["cli.import_s"] = float(statistics.median(imports))
    out["cli.job_overhead_s"] = med("cli", lambda o: o["job"] - o["untraced"])
    out["uncertainty.pool_s"] = med("bootstrap", lambda o: o["t2"] - o["untraced"] / BOOT_THREADS)
    out["uncertainty.failed"] = float(sum(o["failed"] for o in ops["bootstrap"]))
    out["uncertainty.payload_bytes"] = med("bootstrap", lambda o: o["payload"])
    out["uncertainty.scaling_eff"] = med(
        "bootstrap", lambda o: o["untraced"] / (BOOT_THREADS * o["t2"]))
    out["trace.untraced_op_s"] = med(own, lambda o: o["untraced"])
    out["trace.overhead_s"] = med(own, lambda o: o["traced"] - o["untraced"])
    roots = [s for s in spans if s["parent"] is None and s["tag"] == "primary"
             and s["name"] == own]
    layer_sums = [sum(selfs[s["id"]] for s in spans if s["op"] == r["op"]
                      and s["tag"] == "primary" and s["id"] != r["id"]) for r in roots]
    out["trace.layer_self_sum_s"] = float(statistics.median(layer_sums))
    return out
