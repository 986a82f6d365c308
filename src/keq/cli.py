"""Command-line front end: dataset ingestion, pipeline dispatch, and
serialization of equating tables, metric reports, and plot data.

Commands::

    keq equate    --design {eg,nec} --p P.csv --q Q.csv ...
    keq simulate  --scenario 1..12 --reps R --seed S ...
    keq chain     --plan plan.json --out-dir DIR ...
    keq plot-data INPUT.csv [...] --out long.csv [--svg DIR]

Exit codes: 0 success, 2 malformed or unreadable input (flags, CSVs,
config, plan), 3 pipeline error.  Outputs are deterministic given flags and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
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
# Result CSVs: '#' metadata lines, a header that names the kind, data rows
# ---------------------------------------------------------------------------

TABLE_HEADER = "score,equated,see,method"
METRICS_HEADER = "score,method,bias,see,rmse"
SUMMARY_ROWS = ("mean_ediff", "dtm_exceed")


# The kind each header names and its fields' conversions (a table's SEE may be empty).
_RESULT_KINDS = {
    TABLE_HEADER: ("table", (int, float, lambda t: float(t) if t else None, str)),
    METRICS_HEADER: ("metrics", (int, str, float, float, float)),
}


def _read_result_csv(path) -> tuple[str, list[tuple[int, list]]]:
    """Kind ("table" or "metrics") and converted data rows, with their line
    numbers, of a result CSV; a metrics summary row reads as [name, value]."""
    kind, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if kind is None:
                if line not in _RESULT_KINDS:
                    raise CsvFormatError(f"unrecognized header {line!r}", line=lineno, path=path)
                kind, types = _RESULT_KINDS[line]
                continue
            parts = line.split(",")
            row_types = (str, float) if kind == "metrics" and parts[0] in SUMMARY_ROWS else types
            if len(parts) != len(row_types):
                raise CsvFormatError(f"expected {len(row_types)} fields", line=lineno, path=path)
            try:
                rows.append((lineno, [t(f) for t, f in zip(row_types, parts)]))
            except ValueError:
                raise CsvFormatError(f"malformed value in {line!r}", line=lineno,
                                     path=path) from None
    if not rows:
        raise CsvFormatError("no data rows", path=path)
    return kind, rows


def _write_csv(path, header: str, rows, metadata: dict | None = None) -> None:
    """'# key: value' metadata lines, the header, then one line per row."""
    lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
    lines += [header, *(",".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_equating_table(table: EquatingTable, path, precision: str = "display",
                         metadata: dict | None = None) -> None:
    """CSV columns score,equated,see,method; '#'-prefixed metadata lines."""
    see = [None] * table.source_scale.n_points if table.see is None else table.see
    _write_csv(path, TABLE_HEADER, (
        (s, _fmt(e, precision), _fmt(v, precision), table.method)
        for s, e, v in zip(table.source_scale.points, table.equated, see)
    ), metadata)


def read_equating_table(path) -> EquatingTable:
    """Parse a CSV written by :func:`write_equating_table`."""
    return _equating_table(path, *_read_result_csv(path))


def _equating_table(path, kind: str, rows) -> EquatingTable:
    if kind != "table":
        raise CsvFormatError("not an equating table CSV", path=path)
    first = rows[0][1][0]
    for i, (lineno, row) in enumerate(rows):
        if row[0] != first + i:
            raise CsvFormatError("score points are not consecutive", line=lineno, path=path)
    _, equated, see, method = zip(*(row for _, row in rows))
    see = None if all(s is None for s in see) else np.array(see, dtype=float)
    return EquatingTable(ScoreScale(first, first + len(rows) - 1), equated, see, method[0])


def write_metrics_report(report: MetricsReport, path, precision: str = "display") -> None:
    """CSV `score,method,bias,see,rmse` plus summary footer rows."""
    rows = [
        (s, method, *(_fmt(vecs[k][i], precision) for k in ("bias", "see", "rmse")))
        for method, vecs in report.per_method.items()
        for i, s in enumerate(report.score_points)
    ]
    if report.mean_ediff is not None:
        summary = (report.mean_ediff, report.dtm_exceed_fraction)
        rows += [(name, _fmt(v, precision)) for name, v in zip(SUMMARY_ROWS, summary)]
    _write_csv(path, METRICS_HEADER, rows, report.header)


def read_metrics_csv(path):
    """Parse a metrics CSV back into per-method vectors plus summary values."""
    return _metrics(path, *_read_result_csv(path))


def _metrics(path, kind: str, rows):
    if kind != "metrics":
        raise CsvFormatError("not a metrics CSV", path=path)
    per_method, summary = {}, {}
    for _, row in rows:
        if len(row) == 2:
            summary[row[0]] = row[1]
        else:
            entry = per_method.setdefault(row[1], {"score": [], "bias": [], "see": [], "rmse": []})
            for key, value in zip(entry, row[:1] + row[2:]):
                entry[key].append(value)
    return per_method, summary


# ---------------------------------------------------------------------------
# Datasets from person CSVs
# ---------------------------------------------------------------------------

def build_covariate_space(raw_tables, covariate_names, bins: dict,
                          levels: dict | None = None) -> CovariateSpace:
    """Binned variables at ``bins``' thresholds; the rest categorical, with their
    declared ``levels`` or else the sorted levels pooled across all files."""
    variables = []
    for name in covariate_names:
        if name in bins:
            variables.append(Binned(name, bins[name]))
        elif levels and name in levels:
            variables.append(Categorical(name, levels[name]))
        else:
            pooled = set().union(*(raw.columns[name].tokens for raw in raw_tables))
            variables.append(Categorical(name, tuple(sorted(pooled))))
    return CovariateSpace(tuple(variables))


def _load_datasets(paths: dict, score_column: str, covariate_names: list, bins: dict,
                   levels: dict | None = None, scale: tuple | None = None) -> dict:
    """Datasets from the person CSVs ``{key: path}`` over one covariate space
    (see :func:`build_covariate_space`), on the score scale with bounds
    ``scale`` or else each on its own range."""
    scale = ScoreScale(*scale) if scale else None
    raws = {key: read_person_csv(path, score_column=score_column,
                                 covariate_columns=covariate_names)
            for key, path in paths.items()}
    space = build_covariate_space(raws.values(), covariate_names, bins, levels)
    return {key: coerce_dataset(
                raw, scale or ScoreScale(int(raw.scores.min()), int(raw.scores.max())), space)
            for key, raw in raws.items()}


def _covariate_names(args) -> list[str]:
    return [c.strip() for c in args.covariates.split(",")] if args.covariates else []


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
    if args.dump_replicates and not args.bootstrap:
        raise UsageError("--dump-replicates requires --bootstrap")
    if args.equate_covariate is not None:
        if args.design != "nec":
            raise UsageError("--equate-covariate requires --design nec")
        if args.equate_covariate not in bins:  # bins name only --covariates
            raise UsageError(
                f"--equate-covariate {args.equate_covariate}: must be one of --covariates, "
                "binned (score-like) by --bin")
        return PipelineSpec("sequential GKE", args.equate_covariate, _pipeline_config(args))
    return PipelineSpec("GKE" if args.design == "nec" else "EG", config=_pipeline_config(args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _warn_unconverged(table: EquatingTable, where: str = "") -> None:
    """One stderr warning, prefixed by ``where``, per unconverged presmoothing fit."""
    covariate_run = table.diagnostics.get("covariate_equating", {})
    for run, fits in (("", table.diagnostics.get("presmooth", {})),
                      (" (covariate run)", covariate_run.get("presmooth", {}))):
        for name, fit in fits.items():
            if "warning" in fit:
                print(f"warning: {where}presmoothing {name.upper()}{run}: {fit['warning']}",
                      file=sys.stderr)


def cmd_equate(args) -> int:
    spec = _input_phase(_pipeline_spec, args)
    p_data, q_data = _input_phase(
        _load_datasets, {"p": args.p, "q": args.q}, args.score, _covariate_names(args),
        dict(args.bin or ()), scale=args.scale,
    ).values()
    if args.bootstrap:
        boot = _input_phase(BootstrapConfig, args.bootstrap, args.seed)
    metadata = {"command": "equate", "design": args.design}
    table = spec.run(p_data, q_data)
    _warn_unconverged(table)
    if spec.covariate is not None:
        summary = table.diagnostics["covariate_equating"]
        metadata["equated_covariate"] = spec.covariate
        metadata["covariate_mean_shift"] = f"{summary['mean_shift']:.4f}"
    metadata["method"] = table.method
    if args.bootstrap:
        result = bootstrap_see(p_data, q_data, spec, boot, threads=args.threads)
        table = table.with_see(result.see)
        metadata["bootstrap_replicates"] = args.bootstrap
        metadata["bootstrap_seed"] = args.seed
        if args.dump_replicates:
            replicates = (f"replicate_{b}" for b in range(len(result.replicates)))
            _write_csv(args.dump_replicates, ",".join(["score", *replicates]), (
                (s, *(_fmt(v, args.precision) for v in column))
                for s, column in zip(table.source_scale.points, result.replicates.T)))
    if args.verbose:
        for key, value in table.diagnostics.items():
            print(f"{key}: {value}")
    write_equating_table(table, args.out, args.precision, metadata)
    return 0


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid {what} JSON: {exc}") from None


def _fields(block, kinds: dict, where: str, required=()) -> dict:
    """The JSON object ``block``, each value converted by ``kinds[key]``; a missing
    or unknown key or a value that fails its conversion is a UsageError naming it."""
    if not isinstance(block, dict):
        raise UsageError(f"{where}: expected a JSON object, got {type(block).__name__}")
    for key in required:
        if key not in block:
            raise UsageError(f"{where}: missing {key!r}")
    out = {}
    for key, value in block.items():
        if key not in kinds:
            raise UsageError(f"{where}: unknown key {key!r}")
        try:
            out[key] = kinds[key](value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"{where}: bad {key} {value!r}") from None
    return out


def _json(kind, item=object, count: int | None = None):
    """Conversion that checks a JSON value's type, and a list's item type and
    length (any length if None); a list becomes a tuple.  JSON true and false
    are not numbers, and a number must be finite (``json`` reads NaN,
    Infinity and 1e999)."""
    def _is(value, kind) -> bool:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and not (isinstance(value, float) and not np.isfinite(value)))

    def convert(value):
        if not _is(value, kind) or (kind is list and (
                count not in (None, len(value)) or not all(_is(v, item) for v in value))):
            raise TypeError(value)
        return tuple(value) if kind is list else value
    return convert


_NUMBER, _STR = (int, float), _json(str)


def _float(value) -> float:
    return float(_json(_NUMBER)(value))


_SCENARIO_KEYS = {"id": _json(int), "relationship": _STR, "covariate_shift": _float,
                  "y_transform": _json(list, _NUMBER, 2), "alpha": _float, "beta": _float,
                  "n": _json(int), "generator": _json(dict)}
_GENERATOR_KEYS = {
    **{f.name: _float for f in fields(GeneratorParams) if isinstance(f.default, float)},
    "pop_p": lambda v: BinaryPairParams(*_json(list, _NUMBER, 3)(v)),
    "pop_q": lambda v: BinaryPairParams(*_json(list, _NUMBER, 3)(v)),
    "covariate_range": _json(list, _NUMBER, 2), "covariate_thresholds": _json(list, _NUMBER),
    "score_range": _json(list, _NUMBER, 2),
}
_PLAN_KEYS = {"baseline": _STR, "datasets": _json(dict), "steps": _json(list),
              "score_column": _STR, "covariates": _json(dict), "scale": _json(list, _NUMBER, 2)}
_PLAN_COVARIATE_KEYS = {"type": _STR, "thresholds": _json(list, _NUMBER),
                        "levels": _json(list, (str, *_NUMBER))}
_STEP_KEYS = {"source": _STR, "target": _STR, "design": _STR, "covariates": _json(list, str),
              "equated_covariates": _json(dict), "target_equated_covariates": _json(dict),
              "omega": _json(_NUMBER), "id": _STR}


def load_scenario_config(path) -> tuple[ScenarioSpec, GeneratorParams]:
    """Custom scenario from a JSON tree (ScenarioSpec fields plus an
    optional "generator" block of GeneratorParams overrides)."""
    spec = _fields(_read_json(path, "scenario config"), _SCENARIO_KEYS,
                   "scenario config", required=("n",))
    generator = _fields(spec.pop("generator", {}), _GENERATOR_KEYS,
                        "scenario config: generator")
    scenario = ScenarioSpec(**{"id": 0, "relationship": "strong", "covariate_shift": 0.0,
                               "y_transform": (1.0, 0.0), "alpha": 1.0, "beta": 0.0, **spec})
    return scenario, GeneratorParams(**generator)


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
    spec = _fields(_read_json(path, "plan"), _PLAN_KEYS, "plan",
                   required=("baseline", "datasets", "steps"))
    steps = [ChainStep(**_fields(s, _STEP_KEYS, f"plan: step {i}",
                                 required=("source", "target")))
             for i, s in enumerate(spec["steps"])]
    plan = ChainPlan(spec["baseline"], tuple(steps))
    cov_spec = spec.get("covariates", {})
    bins, levels = {}, {}
    for name, vs in cov_spec.items():
        vs = _fields(vs, _PLAN_COVARIATE_KEYS, f"plan: covariate {name!r}")
        kind = vs.get("type", "categorical")
        if kind == "binned":
            bins[name] = vs.get("thresholds", ())
        elif kind != "categorical":
            raise PlanError(f"covariate {name!r}: unknown type {kind!r}")
        elif "levels" in vs:
            levels[name] = tuple(str(v) for v in vs["levels"])
    return plan, _load_datasets(
        {form: Path(path).parent / str(rel) for form, rel in spec["datasets"].items()},
        spec.get("score_column", "score"), list(cov_spec), bins, levels,
        spec.get("scale"))


def _safe_name(form: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in form)


def cmd_chain(args) -> int:
    plan, datasets = _input_phase(load_chain_plan, args.plan)
    result = equate_chain(plan, datasets)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for step_id, table in result.step_tables.items():
        _warn_unconverged(table, f"step {step_id!r}: ")
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


def _plot_rows_from_metrics(path, kind: str, rows) -> list[tuple]:
    per_method, _ = _metrics(path, kind, rows)
    return [(s, method, v, panel) for panel in ("bias", "see", "rmse")
            for method, vecs in per_method.items()
            for s, v in zip(vecs["score"], vecs[panel])]


def _plot_rows_from_tables(tables) -> list[tuple]:
    rows, names, scales = [], set(), []
    for path, kind, table_rows in tables:
        table = _equating_table(path, kind, table_rows)
        series = table.method
        if series in names:
            series = f"{series} ({Path(path).stem})"
        names.add(series)
        scales.append(table.source_scale)
        for i, s in enumerate(table.source_scale.points):
            rows.append((int(s), series, float(table.equated[i]), "equated"))
            if table.see is not None:
                e, v = table.equated[i], table.see[i]
                rows += [(int(s), f"{series} +see", float(e + v), "equated"),
                         (int(s), f"{series} -see", float(e - v), "equated")]
    for s in range(min(sc.min for sc in scales), max(sc.max for sc in scales) + 1):
        rows.append((s, "identity", float(s), "equated"))
    return rows


def cmd_plot_data(args) -> int:
    # Each path is read once; a repeated one adds nothing.
    parsed = [(path, *_read_result_csv(path)) for path in dict.fromkeys(args.inputs)]
    rows = [row for path, kind, result in parsed if kind == "metrics"
            for row in _plot_rows_from_metrics(path, kind, result)]
    tables = [(path, kind, result) for path, kind, result in parsed if kind == "table"]
    rows += _input_phase(_plot_rows_from_tables, tables) if tables else []
    _write_csv(args.out, "x,series,value,panel",
               ((x, series, _fmt(value, "full"), panel) for x, series, value, panel in rows))
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
    eq.add_argument("--equate-covariate", default=None,
                    help="equate this binned covariate first (sequential GKE; nec only)")
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
    except (CsvFormatError, PlanError, UsageError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeqError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
