"""Command-line front end: dataset ingestion, pipeline dispatch, and
serialization of equating tables, metric reports, and plot data.

Commands::

    keq equate    --design {eg,nec} --p P.csv --q Q.csv ...
    keq simulate  --scenario 1..12 --reps R --seed S ...
    keq chain     --plan plan.json --out-dir DIR ...
    keq plot-data INPUT.csv [...] --out long.csv [--svg DIR]

Exit codes: 0 success, 2 malformed input (CSV, config, plan), 3 pipeline
error.  All outputs are deterministic given flags and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    Binned,
    Categorical,
    CovariateSpace,
    CsvFormatError,
    EquatingTable,
    KeqError,
    ScoreScale,
    ValidationError,
    coerce_dataset,
    read_person_csv,
)
from .equate import (
    ChainPlan,
    ChainStep,
    GkePipelineConfig,
    PipelineSpec,
    PlanError,
    equate_chain,
)
from .metrics import MetricsReport
from .presmooth import LoglinearSpec
from .simulate import (
    METHOD_GKE,
    METHOD_SEQ,
    BinaryPairParams,
    GeneratorParams,
    ScenarioSpec,
    run_scenario,
)
from .uncertainty import BootstrapConfig, bootstrap_see

METHOD_FLAGS = {"gke": METHOD_GKE, "seq": METHOD_SEQ}


class UsageError(KeqError):
    """Bad flags or malformed inputs (exit 2, as opposed to pipeline errors)."""


def _input_phase(fn, *args, **kwargs):
    """Run input parsing/validation; domain errors here are usage errors."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def _fmt(value, precision: str) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    if precision == "full":
        return repr(float(value))
    return f"{value:.2f}"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_equating_table(table: EquatingTable, path, precision: str = "display",
                         metadata: dict | None = None) -> None:
    """CSV columns score,equated,see,method; '#'-prefixed metadata lines."""
    lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
    lines.append("score,equated,see,method")
    for i, score in enumerate(table.source_scale.points):
        see = "" if table.see is None else _fmt(table.see[i], precision)
        lines.append(
            f"{score},{_fmt(table.equated[i], precision)},{see},{table.method}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_equating_table(path) -> EquatingTable:
    rows = []
    with open(path, encoding="utf-8") as fh:
        lineno = 0
        header = None
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                if header[:4] != ["score", "equated", "see", "method"]:
                    raise CsvFormatError("not an equating table CSV", line=lineno)
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CsvFormatError("expected 4 fields", line=lineno)
            rows.append(parts)
    if not rows:
        raise CsvFormatError("no data rows", line=1)
    scores = [int(r[0]) for r in rows]
    scale = ScoreScale(min(scores), max(scores))
    if scores != list(range(scale.min, scale.max + 1)):
        raise CsvFormatError("score points are not consecutive")
    equated = np.array([float(r[1]) for r in rows])
    sees = [r[2] for r in rows]
    see = None if all(s == "" for s in sees) else np.array([float(s) for s in sees])
    return EquatingTable(scale, equated, see, rows[0][3])


def write_metrics_report(report: MetricsReport, path, precision: str = "display") -> None:
    """CSV `score,method,bias,see,rmse` plus summary footer rows."""
    lines = [f"# {k}: {v}" for k, v in report.header.items()]
    lines.append("score,method,bias,see,rmse")
    for method, vecs in report.per_method.items():
        for i, s in enumerate(report.score_points):
            lines.append(
                f"{s},{method},{_fmt(vecs['bias'][i], precision)},"
                f"{_fmt(vecs['see'][i], precision)},{_fmt(vecs['rmse'][i], precision)}"
            )
    if report.mean_ediff is not None:
        lines.append(f"mean_ediff,{_fmt(report.mean_ediff, precision)}")
        lines.append(f"dtm_exceed,{_fmt(report.dtm_exceed_fraction, precision)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path):
    """Parse a metrics CSV back into per-method vectors plus summary values."""
    per_method: dict = {}
    summary: dict = {}
    with open(path, encoding="utf-8") as fh:
        lineno = 0
        header = None
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                if header != ["score", "method", "bias", "see", "rmse"]:
                    raise CsvFormatError("not a metrics CSV", line=lineno)
                continue
            parts = line.split(",")
            if parts[0] in ("mean_ediff", "dtm_exceed"):
                summary[parts[0]] = float(parts[1])
                continue
            if len(parts) != 5:
                raise CsvFormatError("expected 5 fields", line=lineno)
            entry = per_method.setdefault(parts[1], {"score": [], "bias": [], "see": [], "rmse": []})
            entry["score"].append(int(parts[0]))
            entry["bias"].append(float(parts[2]))
            entry["see"].append(float(parts[3]))
            entry["rmse"].append(float(parts[4]))
    if not per_method:
        raise CsvFormatError("no data rows", line=1)
    return per_method, summary


# ---------------------------------------------------------------------------
# Dataset assembly from flags
# ---------------------------------------------------------------------------

def build_covariate_space(raw_tables, covariate_names, bins: dict) -> CovariateSpace:
    """Binned variables from --bin flags; the rest categorical with levels
    pooled (sorted) across all supplied files."""
    variables = []
    for name in covariate_names:
        if name in bins:
            variables.append(Binned(name, bins[name]))
        else:
            levels: set = set()
            for raw in raw_tables:
                levels.update(raw.columns[name])
            variables.append(Categorical(name, tuple(sorted(levels))))
    return CovariateSpace(tuple(variables))


def _covariate_names(args) -> list[str]:
    return [c.strip() for c in args.covariates.split(",")] if args.covariates else []


def _load_pair(args):
    cov_names = _covariate_names(args)
    raw_p = read_person_csv(args.p, score_column=args.score, covariate_columns=cov_names)
    raw_q = read_person_csv(args.q, score_column=args.score, covariate_columns=cov_names)
    space = build_covariate_space((raw_p, raw_q), cov_names, dict(args.bin or ()))
    if args.scale:
        scale_p = scale_q = ScoreScale(*args.scale)
    else:
        scale_p = ScoreScale(int(raw_p.scores.min()), int(raw_p.scores.max()))
        scale_q = ScoreScale(int(raw_q.scores.min()), int(raw_q.scores.max()))
    return coerce_dataset(raw_p, scale_p, space), coerce_dataset(raw_q, scale_q, space)


def _pipeline_config(args) -> GkePipelineConfig:
    if getattr(args, "no_presmooth", False):
        presmooth = None
    else:
        presmooth = LoglinearSpec(
            score_degree=args.presmooth_degree,
            interaction_degree=args.interaction_degree,
            covariate_terms=args.covariate_terms,
        )
    return GkePipelineConfig(
        presmooth=presmooth, kpen=args.kpen, omega=args.omega,
        bandwidth_x=args.bandwidth_x, bandwidth_y=args.bandwidth_y,
    )


def _pipeline_spec(args) -> PipelineSpec:
    """The method that ``keq equate``'s flags select."""
    cov_names = _covariate_names(args)
    bins = dict(args.bin or ())
    if args.design == "nec" and not cov_names:
        raise UsageError("--design nec requires --covariates")
    for name in bins:
        if name not in cov_names:
            raise UsageError(f"--bin {name}: not one of --covariates")
    if args.sequential:
        if args.design != "nec":
            raise UsageError("--sequential requires --design nec")
        if not args.equate_covariate:
            raise UsageError("--sequential requires --equate-covariate")
        if args.equate_covariate not in cov_names:
            raise UsageError(
                f"--equate-covariate {args.equate_covariate}: not one of --covariates")
        if args.equate_covariate not in bins:
            raise UsageError(
                f"--equate-covariate {args.equate_covariate}: must be a binned "
                "(score-like) covariate given by --bin")
    method = "sequential GKE" if args.sequential else "GKE" if args.design == "nec" else "EG"
    return PipelineSpec(method, args.equate_covariate, _pipeline_config(args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_equate(args) -> int:
    spec = _input_phase(_pipeline_spec, args)
    p_data, q_data = _input_phase(_load_pair, args)
    if args.bootstrap:
        boot = _input_phase(BootstrapConfig, args.bootstrap, args.seed)
    metadata = {"command": "equate", "design": args.design}
    table = spec.run(p_data, q_data)
    if args.sequential:
        summary = table.diagnostics["covariate_equating"]
        metadata["equated_covariate"] = args.equate_covariate
        metadata["covariate_mean_shift"] = f"{summary['mean_shift']:.4f}"
    metadata["method"] = table.method
    if args.bootstrap:
        result = bootstrap_see(p_data, q_data, spec, boot, threads=args.threads)
        table = table.with_see(result.see)
        metadata["bootstrap_replicates"] = args.bootstrap
        metadata["bootstrap_seed"] = args.seed
        if args.dump_replicates:
            _write_replicate_matrix(result.replicates, table.source_scale,
                                    args.dump_replicates, args.precision)
    if args.verbose:
        for key, value in table.diagnostics.items():
            print(f"{key}: {value}")
    write_equating_table(table, args.out, args.precision, metadata)
    return 0


def _write_replicate_matrix(matrix, scale, path, precision) -> None:
    lines = ["score," + ",".join(f"replicate_{b}" for b in range(matrix.shape[0]))]
    for i, s in enumerate(scale.points):
        lines.append(f"{s}," + ",".join(_fmt(v, precision) for v in matrix[:, i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scenario_config(path) -> tuple[ScenarioSpec, GeneratorParams]:
    """Custom scenario from a JSON tree (ScenarioSpec fields plus an
    optional "generator" block of GeneratorParams overrides)."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid scenario config JSON: {exc}") from None
    gen_spec = dict(spec.pop("generator", {}))
    for key in ("pop_p", "pop_q"):
        if key in gen_spec:
            gen_spec[key] = BinaryPairParams(*gen_spec[key])
    for key in ("covariate_range", "covariate_thresholds", "score_range"):
        if key in gen_spec:
            gen_spec[key] = tuple(gen_spec[key])
    scenario = ScenarioSpec(
        id=int(spec.get("id", 0)),
        relationship=spec.get("relationship", "strong"),
        covariate_shift=float(spec.get("covariate_shift", 0.0)),
        y_transform=tuple(spec.get("y_transform", (1.0, 0.0))),
        alpha=float(spec.get("alpha", 1.0)),
        beta=float(spec.get("beta", 0.0)),
        n=int(spec["n"]),
    )
    return scenario, GeneratorParams(**gen_spec)


def cmd_simulate(args) -> int:
    try:
        methods = tuple(METHOD_FLAGS[m.strip()] for m in args.methods.split(","))
    except KeyError as exc:
        raise UsageError(f"unknown method {exc.args[0]!r} (expected gke, seq)") from None
    if (args.scenario is None) == (args.scenario_config is None):
        raise UsageError("give exactly one of --scenario or --scenario-config")
    if args.scenario_config:
        scenario, params = _input_phase(load_scenario_config, args.scenario_config)
    else:
        scenario = _input_phase(ScenarioSpec.from_table, args.scenario)
        params = GeneratorParams()
    if args.score_range:
        params = _input_phase(lambda: GeneratorParams(
            **{**params.__dict__, "score_range": args.score_range}))
    report = run_scenario(scenario, args.reps, methods=methods, seed=args.seed,
                          params=params, threads=args.threads)
    write_metrics_report(report, args.out, args.precision)
    if report.mean_ediff is not None:
        print(f"mean_ediff: {report.mean_ediff:.4f}")
        print(f"dtm_exceed: {report.dtm_exceed_fraction:.4f}")
    return 0


def load_chain_plan(path):
    """Parse the chain-plan JSON: plan, datasets, and covariate space."""
    plan_path = Path(path)
    try:
        spec = json.loads(plan_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid plan JSON: {exc}") from None
    for key in ("baseline", "datasets", "steps"):
        if key not in spec:
            raise PlanError(f"plan is missing {key!r}")
    score_column = spec.get("score_column", "score")
    cov_spec = spec.get("covariates", {})
    raw_tables = {}
    for form, rel in spec["datasets"].items():
        csv_path = plan_path.parent / rel
        raw_tables[form] = read_person_csv(csv_path, score_column=score_column,
                                           covariate_columns=list(cov_spec) or None)
    variables = []
    for name, vs in cov_spec.items():
        kind = vs.get("type", "categorical")
        if kind == "binned":
            variables.append(Binned(name, tuple(vs["thresholds"])))
        elif kind == "categorical":
            if "levels" in vs:
                variables.append(Categorical(name, tuple(str(v) for v in vs["levels"])))
            else:
                levels: set = set()
                for raw in raw_tables.values():
                    levels.update(raw.columns[name])
                variables.append(Categorical(name, tuple(sorted(levels))))
        else:
            raise PlanError(f"covariate {name!r}: unknown type {kind!r}")
    space = CovariateSpace(tuple(variables))
    datasets = {}
    for form, raw in raw_tables.items():
        if "scale" in spec:
            scale = ScoreScale(*spec["scale"])
        else:
            scale = ScoreScale(int(raw.scores.min()), int(raw.scores.max()))
        datasets[form] = coerce_dataset(raw, scale, space)
    steps = []
    for s in spec["steps"]:
        steps.append(ChainStep(
            source=s["source"], target=s["target"], design=s.get("design", "eg"),
            covariates=tuple(s.get("covariates", ())),
            equated_covariates=s.get("equated_covariates", {}),
            target_equated_covariates=s.get("target_equated_covariates", {}),
            omega=s.get("omega"), id=s.get("id"),
        ))
    return ChainPlan(spec["baseline"], tuple(steps)), datasets


def _safe_name(form: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in form)


def cmd_chain(args) -> int:
    plan, datasets = _input_phase(load_chain_plan, args.plan)
    config = GkePipelineConfig()
    result = equate_chain(plan, datasets, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for step_id, table in result.step_tables.items():
        write_equating_table(table, out_dir / f"step_{_safe_name(step_id)}.csv",
                             args.precision, {"step": step_id, "method": table.method})
    for form, table in result.composed_tables.items():
        write_equating_table(
            table, out_dir / f"composed_{_safe_name(form)}.csv", args.precision,
            {"form": form, "baseline": plan.baseline,
             "path": " -> ".join(table.diagnostics["path"])},
        )
    print(f"wrote {len(result.step_tables)} step tables and "
          f"{len(result.composed_tables)} composed tables to {out_dir}")
    return 0


def _plot_rows_from_metrics(path) -> list[tuple]:
    per_method, _ = read_metrics_csv(path)
    rows = []
    for panel in ("bias", "see", "rmse"):
        for method, vecs in per_method.items():
            for s, v in zip(vecs["score"], vecs[panel]):
                rows.append((s, method, v, panel))
    return rows


def _plot_rows_from_tables(paths) -> list[tuple]:
    rows = []
    tables = []
    for path in paths:
        table = read_equating_table(path)
        series = table.method
        if any(t[1] == series for t in tables):
            series = f"{series} ({Path(path).stem})"
        tables.append((table, series))
    for table, series in tables:
        pts = table.source_scale.points
        for i, s in enumerate(pts):
            rows.append((int(s), series, float(table.equated[i]), "equated"))
            if table.see is not None:
                rows.append((int(s), f"{series} +see",
                             float(table.equated[i] + table.see[i]), "equated"))
                rows.append((int(s), f"{series} -see",
                             float(table.equated[i] - table.see[i]), "equated"))
    lo = min(int(t.source_scale.min) for t, _ in tables)
    hi = max(int(t.source_scale.max) for t, _ in tables)
    for s in range(lo, hi + 1):
        rows.append((s, "identity", float(s), "equated"))
    return rows


def _detect_input_kind(path) -> str:
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                if line.startswith("score,method,"):
                    return "metrics"
                if line.startswith("score,equated,"):
                    return "table"
                raise CsvFormatError(f"{path}: unrecognized header {line!r}", line=1)
    raise CsvFormatError(f"{path}: empty file", line=1)


def cmd_plot_data(args) -> int:
    kinds = {path: _detect_input_kind(path) for path in args.inputs}
    rows: list[tuple] = []
    table_paths = [p for p, k in kinds.items() if k == "table"]
    for path in args.inputs:
        if kinds[path] == "metrics":
            rows.extend(_plot_rows_from_metrics(path))
    if table_paths:
        rows.extend(_plot_rows_from_tables(table_paths))
    lines = ["x,series,value,panel"]
    for x, series, value, panel in rows:
        lines.append(f"{x},{series},{_fmt(value, 'full')},{panel}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.svg:
        _write_svg_panels(rows, Path(args.svg))
    return 0


SVG_PALETTE = ("#000000", "#3366cc", "#8844aa", "#cc6633", "#339966", "#888888")


def _write_svg_panels(rows, svg_dir: Path) -> None:
    svg_dir.mkdir(parents=True, exist_ok=True)
    panels: dict = {}
    for x, series, value, panel in rows:
        panels.setdefault(panel, {}).setdefault(series, []).append((x, value))
    for panel, series_map in panels.items():
        svg = _render_svg(panel, series_map)
        (svg_dir / f"{_safe_name(panel)}.svg").write_text(svg, encoding="utf-8")


def _render_svg(panel: str, series_map: dict, width=640, height=420) -> str:
    pad = 50
    xs = [x for pts in series_map.values() for x, _ in pts]
    ys = [y for pts in series_map.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{panel}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="#333"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-family="sans-serif" font-size="10">{x0:g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x1:g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y0:.3g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y1:.3g}</text>',
    ]
    for i, (series, pts) in enumerate(series_map.items()):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        dash = ' stroke-dasharray="4,3"' if "see" in series or series == "identity" else ""
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline fill="none" stroke="{color}"{dash} points="{path}"/>')
        parts.append(
            f'<text x="{width-pad+4}" y="{pad + 14*i}" font-family="sans-serif" '
            f'font-size="10" fill="{color}">{series}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
# Flag values are checked by the ``type=`` functions below, so a malformed
# one is an argparse error: exit 2 with the flag named.

def _checked(kind, ok, expected: str):
    """argparse type: ``kind(text)``, which must satisfy ``ok``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _split_bin(text: str) -> tuple[str, tuple[float, ...]]:
    name, sep, rest = text.partition("=")
    if not sep:
        raise ValueError(text)
    return name.strip(), tuple(float(t) for t in rest.split(","))


_omega = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_kpen = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_bandwidth = _checked(float, lambda v: 0.0 < v < np.inf, "a finite number > 0")
_threads = _checked(int, lambda v: v >= 1, "a positive integer (--threads or KEQ_THREADS)")
_reps = _checked(int, lambda v: v >= 2, "an integer >= 2")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_int_pair = _checked(lambda text: tuple(int(v) for v in text.split(",")),
                     lambda v: len(v) == 2, "min,max integers")
_bin_spec = _checked(_split_bin, lambda v: v[0] != "", "name=t1,t2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keq",
        description="Kernel equating for EG/NEC designs, sequential covariate "
                    "equating, equating chains, and the simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser("equate", help="equate two person-level CSV files")
    eq.add_argument("--design", choices=("eg", "nec"), required=True)
    eq.add_argument("--p", required=True, help="CSV of the source-form population")
    eq.add_argument("--q", required=True, help="CSV of the target-form population")
    eq.add_argument("--score", default="score", help="score column name")
    eq.add_argument("--covariates", default="", help="comma-separated covariate columns")
    eq.add_argument("--bin", action="append", type=_bin_spec,
                    help="binned covariate spec name=t1,t2,... (repeatable)")
    eq.add_argument("--scale", type=_int_pair,
                    help="score scale as min,max (default: inferred per file)")
    eq.add_argument("--omega", type=_omega, default=None)
    eq.add_argument("--kpen", type=_kpen, default=1.0)
    eq.add_argument("--bandwidth-x", type=_bandwidth, default=None)
    eq.add_argument("--bandwidth-y", type=_bandwidth, default=None)
    eq.add_argument("--no-presmooth", action="store_true")
    eq.add_argument("--presmooth-degree", type=int, default=6)
    eq.add_argument("--interaction-degree", type=int, default=1)
    eq.add_argument("--covariate-terms", choices=("cells", "variables", "numeric"),
                    default="cells")
    eq.add_argument("--sequential", action="store_true",
                    help="equate a covariate first (sequential pipeline)")
    eq.add_argument("--equate-covariate", default=None,
                    help="covariate column to equate before the main run")
    eq.add_argument("--bootstrap", type=int, default=0,
                    help="bootstrap replicates for SEE (0 = no SEE)")
    eq.add_argument("--dump-replicates", default=None,
                    help="write the bootstrap replicate matrix CSV here")
    eq.add_argument("--seed", type=_seed, default=0)
    eq.add_argument("--threads", type=_threads, default=os.environ.get("KEQ_THREADS", "1"),
                    help="parallel bootstrap replicates")
    eq.add_argument("--precision", choices=("display", "full"), default="display")
    eq.add_argument("--verbose", action="store_true")
    eq.add_argument("--out", required=True)
    eq.set_defaults(func=cmd_equate)

    sim = sub.add_parser("simulate", help="run a simulation scenario")
    sim.add_argument("--scenario", type=int, default=None,
                     help="built-in scenario id 1..12")
    sim.add_argument("--scenario-config", default=None,
                     help="JSON file describing a custom scenario")
    sim.add_argument("--reps", type=_reps, default=100)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--methods", default="gke,seq",
                     help="comma-separated subset of gke,seq")
    sim.add_argument("--score-range", type=_int_pair, default=None,
                     help="override as min,max")
    sim.add_argument("--threads", type=_threads, default=os.environ.get("KEQ_THREADS", "1"))
    sim.add_argument("--precision", choices=("display", "full"), default="display")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ch = sub.add_parser("chain", help="execute a multi-step equating plan")
    ch.add_argument("--plan", required=True, help="plan JSON file")
    ch.add_argument("--precision", choices=("display", "full"), default="display")
    ch.add_argument("--out-dir", required=True)
    ch.set_defaults(func=cmd_chain)

    pl = sub.add_parser("plot-data", help="reshape results into long plot CSV")
    pl.add_argument("inputs", nargs="+", help="metrics or equating-table CSVs")
    pl.add_argument("--out", required=True)
    pl.add_argument("--svg", default=None, help="directory for per-panel SVG charts")
    pl.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CsvFormatError, PlanError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeqError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
