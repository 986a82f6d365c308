"""Equating pipelines.

``equate_gke`` runs the full kernel-equating pipeline (presmoothing,
target-population score probabilities, continuization, equating) on a
``NecInput``, the one design input.  The EG design is NEC over the one
cell of an empty covariate space: each population's cell marginal is 1,
so r and s are the two score marginals; ``PipelineSpec("EG")`` runs it
on datasets restricted to no covariates.  ``equate_sequential`` first
equates a score-like covariate between the populations, replaces the
covariate by its equated values, and then runs the main equating on the
transformed data.  ``PipelineSpec`` names one of the three methods
("EG", "GKE", "sequential GKE") and is the one place that maps a method
name to its pipeline; the CLI, the bootstrap and the simulation harness
run methods through it.  ``equate_chain`` executes a multi-step plan of
EG/NEC equatings onto a single baseline form, composing the per-step
maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .core import (
    Binned,
    CovariateSpace,
    Dataset,
    EquatingTable,
    JointProbabilityTable,
    KeqError,
    ScoreScale,
    ValidationError,
)
from .continuize import P_TAIL, ContinuizedCdf, continuize, inverse_cdf, kernel_cdf
from .presmooth import LoglinearSpec, presmooth_counts
from .probmix import nec_target_probs

__all__ = [
    "GkePipelineConfig",
    "NecInput",
    "PipelineSpec",
    "EquatingMap",
    "ComposedMap",
    "PlanError",
    "ChainStep",
    "ChainPlan",
    "ChainResult",
    "equate_gke",
    "equate_covariate",
    "equate_sequential",
    "equate_chain",
]

class PlanError(KeqError):
    """A chain plan failed validation (cycle, missing dataset, bad reference)."""


@dataclass(frozen=True)
class GkePipelineConfig:
    """Knobs for one equating run.

    ``presmooth=None`` means pass-through (raw empirical tables).
    ``omega=None`` derives the mixture weight from relative sample sizes.
    Explicit bandwidths override the penalty-based selection.
    """

    presmooth: LoglinearSpec | None = field(default_factory=LoglinearSpec)
    kpen: float = 1.0
    omega: float | None = None
    bandwidth_x: float | None = None
    bandwidth_y: float | None = None


def _require_shared_space(p, q) -> None:
    if p.covariates != q.covariates:
        raise ValidationError("populations do not share a covariate space")


@dataclass(frozen=True)
class NecInput:
    """Nonequivalent groups with covariates: joint tables plus mixture weight.

    ``from_datasets`` keeps the two datasets, which presmoothing needs:
    each dataset tabulates its counts and fits each ``LoglinearSpec`` once
    (see ``Dataset``).
    """

    p: JointProbabilityTable
    q: JointProbabilityTable
    omega: float
    p_data: Dataset | None = field(default=None, compare=False, repr=False)
    q_data: Dataset | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ValidationError(f"omega {self.omega} outside [0, 1]")
        _require_shared_space(self.p, self.q)

    @classmethod
    def from_datasets(cls, p_data: Dataset, q_data: Dataset,
                      omega: float | None = None) -> "NecInput":
        p, q = (JointProbabilityTable(data.scale, data.covariates, data.counts() / data.n)
                for data in (p_data, q_data))
        if omega is None:
            omega = p_data.n / (p_data.n + q_data.n)
        return cls(p, q, omega, p_data, q_data)


@dataclass(frozen=True)
class EquatingMap:
    """Functional equating map x -> target-scale value.

    Inputs clamp to the source scale ends; the source CDF value is pushed
    through the inverse of the target CDF, all points in one solve.  CDF
    values are clipped into [P_TAIL, 1 - P_TAIL] first, so that
    zero-probability scale ends cannot underflow out of the inverse CDF's
    domain.
    """

    source_cdf: ContinuizedCdf
    target_cdf: ContinuizedCdf

    def __call__(self, value):
        scalar = np.ndim(value) == 0
        v = np.atleast_1d(np.asarray(value, dtype=float))
        scale = self.source_cdf.dist.scale
        v = np.clip(v, scale.min, scale.max)
        p = np.clip(kernel_cdf(self.source_cdf, v), P_TAIL, 1.0 - P_TAIL)
        out = inverse_cdf(self.target_cdf, p)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ComposedMap:
    """Left-to-right composition of equating maps."""

    maps: tuple

    def __call__(self, value):
        out = value
        for m in self.maps:
            out = m(out)
        return out


def _through_maps(data: Dataset, maps: dict) -> Dataset:
    """``data`` with each column in ``maps`` sent through its chain of maps, in one
    new dataset; each distinct value goes through the chain once."""
    columns = dict(data.columns)
    for name, chain in maps.items():
        if name not in columns:
            raise ValidationError(f"unknown covariate column {name!r}")
        values, inverse = np.unique(np.asarray(columns[name], dtype=float), return_inverse=True)
        for mapping in chain:
            values = mapping(values)
        columns[name] = np.asarray(values)[inverse]
    return Dataset(data.scale, data.covariates, data.scores, columns) if maps else data


def _fit_summary(fit) -> dict:
    return {
        "converged": fit.converged,
        "iterations": fit.iterations,
        "deviance": fit.deviance,
        "score_residual": fit.score_residual,
        "step_halvings": fit.step_halvings,
        **({"warning": fit.warning} if fit.warning else {}),
    }


def _presmoothed(data: Dataset, spec: LoglinearSpec):
    """``data``'s fit under ``spec``, fitted once per dataset: sequential GKE's
    main run reuses the first population's fit from a GKE run on the same
    dataset."""
    return data.cached(spec, lambda: presmooth_counts(data.counts(), data.scale,
                                                      data.covariates, spec))


def _target_probs(nec: NecInput, config: GkePipelineConfig):
    """Presmooth (when configured) and derive (r, s) plus diagnostics."""
    p, q = nec.p, nec.q
    diag: dict = {}
    if config.presmooth is not None:
        if nec.p_data is None or nec.q_data is None:
            raise ValidationError(
                "presmoothing requires counts; build the input from datasets "
                "or configure pass-through"
            )
        fp, fq = (_presmoothed(data, config.presmooth) for data in (nec.p_data, nec.q_data))
        p, q = fp.fitted_probs, fq.fitted_probs
        diag["presmooth"] = {"p": _fit_summary(fp), "q": _fit_summary(fq)}
    r, s = nec_target_probs(p, q, nec.omega)
    diag["omega"] = nec.omega
    return r, s, diag


def equate_gke(nec: NecInput, config: GkePipelineConfig | None = None,
               method: str = "GKE") -> EquatingTable:
    """Kernel equating of the source form onto the target form's scale.

    Returns the equated value at every source score point, labelled
    ``method``; the exact functional map is attached as ``.mapping`` for
    evaluation at non-integer points and for chain composition.
    """
    config = config or GkePipelineConfig()
    r, s, diag = _target_probs(nec, config)
    if r.variance <= 0:
        raise ValidationError("source distribution degenerate")
    if s.variance <= 0:
        raise ValidationError("target distribution degenerate")
    f = continuize(r, kpen=config.kpen, h=config.bandwidth_x)
    g = continuize(s, kpen=config.kpen, h=config.bandwidth_y)
    diag["h_x"] = f.h
    diag["h_y"] = g.h
    mapping = EquatingMap(f, g)
    equated = mapping(r.scale.points.astype(float))
    return EquatingTable(r.scale, equated, see=None, method=method,
                         diagnostics=diag, mapping=mapping)


# ---------------------------------------------------------------------------
# Sequential equating: covariate first, then the primary scores
# ---------------------------------------------------------------------------

def equate_covariate(p_data: Dataset, q_data: Dataset, covariate: str,
                     config: GkePipelineConfig | None = None):
    """Equate a score-like covariate from the second population onto the first.

    The covariate plays the score role in a nested NEC run over the
    remaining covariates (EG, the one-cell case, when there are none).
    Returns that run's table, whose ``mapping`` sends second-population
    covariate values onto the first population's covariate scale, and the
    transformed dataset, which carries the real-valued equated covariate
    in place of the original column.

    The nested run's mixture weight is the complement of the main run's
    (the source role is played by the second population), which under the
    sample-size default is simply n_second / (n_first + n_second).  It
    selects its own bandwidths: ``config.bandwidth_x`` and
    ``config.bandwidth_y`` belong to the main score scale and are not
    passed on.
    """
    config = config or GkePipelineConfig()
    _require_shared_space(p_data, q_data)
    var = next((v for v in p_data.covariates.variables if v.name == covariate), None)
    if var is None:
        raise ValidationError(f"unknown covariate {covariate!r} in first dataset")
    if not isinstance(var, Binned):
        raise ValidationError(f"covariate {covariate!r} must be a binned (score-like) variable")
    values = np.concatenate([p_data.columns[covariate], q_data.columns[covariate]]).astype(float)
    if not np.all(values == np.round(values)):
        raise ValidationError(f"covariate {covariate!r} not integer-valued")
    cov_scale = ScoreScale(values.min(), values.max())
    # The covariate is the score; the other covariates are the covariates.
    space = CovariateSpace(tuple(v for v in p_data.covariates.variables if v is not var))
    p_sub, q_sub = (Dataset(cov_scale, space, data.columns[covariate],
                            {name: data.columns[name] for name in space.names})
                    for data in (p_data, q_data))

    # Roles swap: the second population is the source of the covariate map.
    omega_cov = (1.0 - config.omega) if config.omega is not None else None
    try:
        nested = NecInput.from_datasets(q_sub, p_sub, omega=omega_cov)
        table = equate_gke(nested, replace(config, bandwidth_x=None, bandwidth_y=None))
    except KeqError as exc:
        # Prefixed in place: the class, and so the CLI's exit code, stays.
        exc.args = (f"covariate run for {covariate!r} on [{cov_scale.min}, {cov_scale.max}]: "
                    f"{exc}",)
        raise
    # Every value is an integer on cov_scale and table.equated is the map at
    # each of its points, so the second population's column is read off it.
    columns = {**q_data.columns, covariate: table.equated[cov_scale.index_of(values[p_data.n:])]}
    return table, Dataset(q_data.scale, q_data.covariates, q_data.scores, columns)


def equate_sequential(p_data: Dataset, q_data: Dataset, covariate: str,
                      config: GkePipelineConfig | None = None,
                      covariate_map=None) -> EquatingTable:
    """Two-step equating: align the covariate, then equate the main scores.

    ``covariate_map`` overrides the nested covariate equating with an
    arbitrary callable (identity reproduces plain GKE on the same data).
    """
    config = config or GkePipelineConfig()
    nested_fits = None
    if covariate_map is None:
        nested, q_trans = equate_covariate(p_data, q_data, covariate, config=config)
        if "presmooth" in nested.diagnostics:
            # The nested run's source is the second population: key its fits
            # by the population they were fitted to.
            fits = nested.diagnostics["presmooth"]
            nested_fits = {"p": fits["q"], "q": fits["p"]}
    else:
        q_trans = _through_maps(q_data, {covariate: (covariate_map,)})
    shift = np.asarray(q_trans.columns[covariate], dtype=float) - np.asarray(
        q_data.columns[covariate], dtype=float
    )
    nec = NecInput.from_datasets(p_data, q_trans, omega=config.omega)
    table = equate_gke(nec, config, method="sequential GKE")
    table.diagnostics["covariate_equating"] = {
        "covariate": covariate,
        "mean_shift": float(shift.mean()),
        "mean_abs_shift": float(np.abs(shift).mean()),
        **({"presmooth": nested_fits} if nested_fits else {}),
    }
    return table


@dataclass(frozen=True)
class PipelineSpec:
    """One equating method, run on a (source, target) pair of datasets.

    ``method`` is "EG", "GKE" (NEC design) or "sequential GKE";
    sequential equating, and only it, names the covariate to equate first.
    """

    method: str
    covariate: str | None = None
    config: GkePipelineConfig = field(default_factory=GkePipelineConfig)

    def __post_init__(self):
        if self.method not in ("EG", "GKE", "sequential GKE"):
            raise ValidationError(f"unknown pipeline method {self.method!r}")
        if (self.method == "sequential GKE") != (self.covariate is not None):
            raise ValidationError(f"{self.method} pipeline with covariate {self.covariate!r}: "
                                  "sequential GKE, and only it, names a covariate")

    def run(self, p_data: Dataset, q_data: Dataset) -> EquatingTable:
        # The pipeline functions are looked up by module-global name on every
        # call, so that rebinding a name (as a tracer does) takes effect.
        if self.method == "sequential GKE":
            return equate_sequential(p_data, q_data, self.covariate, self.config)
        if self.method == "EG":
            # EG is NEC over the one cell of an empty covariate space.
            p_data, q_data = p_data.restrict(()), q_data.restrict(())
        nec = NecInput.from_datasets(p_data, q_data, omega=self.config.omega)
        return equate_gke(nec, self.config, method=self.method)

    def __call__(self, p_data: Dataset, q_data: Dataset) -> np.ndarray:
        """The equated vector, as a replication chunk calls a spec."""
        return self.run(p_data, q_data).equated


# ---------------------------------------------------------------------------
# Multi-step chains onto a baseline form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    """One equating edge: source form onto target form's scale.

    ``equated_covariates`` maps a covariate column name to the step ids
    whose maps are composed (in order) and applied to that column of the
    source dataset before tabulation; ``target_equated_covariates`` does
    the same for the target dataset.  Either may name only covariates
    in ``covariates``, each with at least one step id.
    """

    source: str
    target: str
    design: str = "eg"
    covariates: tuple[str, ...] = ()
    equated_covariates: dict = field(default_factory=dict)
    target_equated_covariates: dict = field(default_factory=dict)
    omega: float | None = None
    id: str | None = None

    def __post_init__(self):
        if self.id is None:
            object.__setattr__(self, "id", f"{self.source}->{self.target}")
        if self.design not in ("eg", "nec"):
            raise PlanError(f"unknown design {self.design!r} (expected eg or nec)")
        if self.design == "nec" and not self.covariates:
            raise PlanError(f"step {self.id!r}: nec needs covariates")
        # A bool is an int to isinstance, but true is not a mixture weight.
        if self.omega is not None and (isinstance(self.omega, bool) or not (
                isinstance(self.omega, (int, float)) and 0.0 <= self.omega <= 1.0)):
            raise PlanError(f"step {self.id!r}: omega {self.omega!r} outside [0, 1]")
        object.__setattr__(self, "covariates", tuple(self.covariates))
        for attr in ("equated_covariates", "target_equated_covariates"):
            raw = getattr(self, attr)
            norm = {c: tuple(ids) if isinstance(ids, (list, tuple)) else (ids,)
                    for c, ids in raw.items()}
            # Dataset.restrict would drop a covariate the step does not use.
            unused = [c for c in norm if c not in self.covariates]
            if unused:
                raise PlanError(f"step {self.id!r}: {attr} names {unused[0]!r}, "
                                "which is not one of its covariates")
            # No step ids would apply no map: the request would do nothing.
            empty = [c for c, ids in norm.items() if not ids]
            if empty:
                raise PlanError(f"step {self.id!r}: {attr} gives {empty[0]!r} no step ids")
            object.__setattr__(self, attr, norm)


def _topological(graph: dict, what: str) -> tuple:
    """Nodes of ``graph`` (node -> predecessors), predecessors first; a cycle is a PlanError."""
    try:
        return tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise PlanError(f"{what} involving {exc.args[1][0]!r}") from None


@dataclass(frozen=True)
class ChainPlan:
    """Steps onto the ``baseline`` form; the whole plan is checked when built.
    ``run_order`` puts each step after the steps whose maps it uses.  Steps
    that only align a covariate's forms may dead-end away from the baseline."""

    baseline: str
    steps: tuple[ChainStep, ...]
    run_order: tuple[ChainStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        by_id = {s.id: s for s in self.steps}
        if len(by_id) != len(self.steps):
            raise PlanError("duplicate step ids")
        sources = [s.source for s in self.steps]
        if len(set(sources)) != len(sources):
            dup = next(s for s in sources if sources.count(s) > 1)
            raise PlanError(f"form {dup!r} is the source of more than one step")
        if self.baseline in sources:
            raise PlanError("baseline form cannot be equated away")
        _topological({s.source: (s.target,) for s in self.steps}, "cycle in plan")
        refs = {s.id: [ref for equated in (s.equated_covariates, s.target_equated_covariates)
                       for named in equated.values() for ref in named]
                for s in self.steps}
        for step_id, deps in refs.items():
            # Compared as a list: a malformed reference need not be hashable.
            unknown = [d for d in deps if d not in list(by_id)]
            if unknown:
                raise PlanError(f"step {step_id!r} references unknown step {unknown[0]!r}")
        order = _topological(refs, "cyclic step references")
        object.__setattr__(self, "run_order", tuple(by_id[i] for i in order))

    def path_to_baseline(self, form: str) -> list[ChainStep]:
        by_source = {s.source: s for s in self.steps}
        path = []
        node = form
        while node != self.baseline and node in by_source:
            step = by_source[node]
            path.append(step)
            node = step.target
        return path


@dataclass(frozen=True)
class ChainResult:
    """Step tables by step id; composed tables (``.mapping``: the composed map) by form."""

    step_tables: dict
    composed_tables: dict


def equate_chain(plan: ChainPlan, datasets: dict) -> ChainResult:
    """Run the steps in ``plan.run_order``, each by the default pipeline at its ``omega``,
    and compose each form's path onto the baseline.  The plan was checked when
    built; this checks only what needs the datasets.
    """
    needed = {plan.baseline} | {s.source for s in plan.steps} | {s.target for s in plan.steps}
    missing = sorted(n for n in needed if n not in datasets)
    if missing:
        raise PlanError(f"missing datasets: {', '.join(missing)}")
    # Dataset.restrict would drop a covariate the datasets lack without a word,
    # and a score map sends a categorical column's levels to undeclared values.
    for step in plan.steps:
        for form, equated in ((step.source, step.equated_covariates),
                              (step.target, step.target_equated_covariates)):
            variables = {v.name: v for v in datasets[form].covariates.variables}
            unknown = [name for name in step.covariates if name not in variables]
            if unknown:
                raise PlanError(f"step {step.id!r}: {form!r} has no covariate {unknown[0]!r}")
            categorical = [name for name in equated if not isinstance(variables[name], Binned)]
            if categorical:
                raise PlanError(f"step {step.id!r}: covariate {categorical[0]!r} is "
                                "categorical; only binned covariates can be equated")

    step_tables: dict = {}
    for step in plan.run_order:
        src, tgt = (
            _through_maps(datasets[form], {c: [step_tables[i].mapping for i in ids]
                                           for c, ids in equated.items()})
            .restrict(step.covariates)
            for form, equated in ((step.source, step.equated_covariates),
                                  (step.target, step.target_equated_covariates)))
        method = "EG" if step.design == "eg" else "GKE"
        step_tables[step.id] = PipelineSpec(
            method, config=GkePipelineConfig(omega=step.omega)).run(src, tgt)

    composed_tables: dict = {}
    for step in plan.steps:
        path = plan.path_to_baseline(step.source)
        if not path or path[-1].target != plan.baseline:
            continue  # auxiliary sub-chain; no composition onto the baseline
        cmap = ComposedMap(tuple(step_tables[s.id].mapping for s in path))
        scale = datasets[step.source].scale
        composed_tables[step.source] = EquatingTable(
            scale, cmap(scale.points.astype(float)), method="chain",
            diagnostics={"path": [s.id for s in path]}, mapping=cmap,
        )
    return ChainResult(step_tables, composed_tables)
