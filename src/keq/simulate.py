"""Synthetic data generation and the Monte-Carlo evaluation harness.

Two populations share a data-generating process: a pair of correlated
binary background variables (drawn from marginals plus an odds ratio), a
continuous covariate score loaded on both binaries, and a total test
score that is a linear function of all three plus Gaussian noise.  The
twelve built-in scenarios vary the covariate shift between populations,
the covariate-score relationship strength, an affine difficulty
adjustment of the second population's scores, and the sample size.

``run_scenario`` runs its replications through the bootstrap's chunk and
driver (``uncertainty.run_pairs``, ``replicate``), with a pair maker that
generates both populations from the replication's two streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    Binned,
    Categorical,
    CovariateSpace,
    Dataset,
    ScoreScale,
    ValidationError,
)
from .equate import PipelineSpec
from .metrics import MetricsReport
from .uncertainty import replicate, run_pairs

__all__ = [
    "ScenarioSpec",
    "BinaryPairParams",
    "GeneratorParams",
    "SCENARIO_TABLE",
    "solve_joint_from_or",
    "sample_binary_pair",
    "gen_population",
    "truth_values",
    "run_scenario",
    "METHOD_GKE",
    "METHOD_SEQ",
    "SCHOOL",
    "ATTEMPT",
    "OTHER_SCORE",
]

METHOD_GKE = "GKE"
METHOD_SEQ = "sequential GKE"

SCHOOL, ATTEMPT, OTHER_SCORE = "school", "attempt", "other_score"


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation condition (rows 1..12 are the built-in study design)."""

    id: int
    relationship: str  # "strong" | "weak"
    covariate_shift: float
    y_transform: tuple[float, float]  # (slope, intercept) applied to Y in Q
    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if self.relationship not in ("strong", "weak"):
            raise ValidationError("relationship must be 'strong' or 'weak'")
        if self.n < 2:
            raise ValidationError("sample size must be at least 2")

    @classmethod
    def from_table(cls, scenario_id: int) -> "ScenarioSpec":
        try:
            return SCENARIO_TABLE[scenario_id]
        except KeyError:
            raise ValidationError(f"unknown scenario id {scenario_id}") from None


SCENARIO_TABLE = {
    1: ScenarioSpec(1, "strong", 0.0, (1.0, 0.0), 1.0, 0.0, 5_000),
    2: ScenarioSpec(2, "strong", 0.0, (1.0, 0.0), 1.0, 0.0, 50_000),
    3: ScenarioSpec(3, "weak", 0.0, (1.0, 0.0), 0.5, 30.0, 5_000),
    4: ScenarioSpec(4, "weak", 0.0, (1.0, 0.0), 0.5, 30.0, 50_000),
    5: ScenarioSpec(5, "strong", 10.0, (1.0, 0.0), 1.0, 0.0, 5_000),
    6: ScenarioSpec(6, "strong", 10.0, (1.0, 0.0), 1.0, 0.0, 50_000),
    7: ScenarioSpec(7, "weak", 10.0, (1.0, 0.0), 0.5, 30.0, 5_000),
    8: ScenarioSpec(8, "weak", 10.0, (1.0, 0.0), 0.5, 30.0, 50_000),
    9: ScenarioSpec(9, "strong", 0.0, (0.9, 5.0), 1.0, 0.0, 5_000),
    10: ScenarioSpec(10, "strong", 0.0, (0.9, 5.0), 1.0, 0.0, 50_000),
    11: ScenarioSpec(11, "strong", 10.0, (0.9, 5.0), 1.0, 0.0, 5_000),
    12: ScenarioSpec(12, "strong", 10.0, (0.9, 5.0), 1.0, 0.0, 50_000),
}


@dataclass(frozen=True)
class BinaryPairParams:
    """Marginal probabilities and odds ratio of the two binary covariates."""

    p1: float
    p2: float
    odds_ratio: float

    def __post_init__(self):
        if not (0.0 < self.p1 < 1.0 and 0.0 < self.p2 < 1.0):
            raise ValidationError("marginal probabilities must lie in (0, 1)")
        if self.odds_ratio <= 0.0:
            raise ValidationError("odds ratio must be positive")


@dataclass(frozen=True)
class GeneratorParams:
    """Population-level constants of the data-generating process."""

    pop_p: BinaryPairParams = BinaryPairParams(0.300, 0.800, 8.0)
    pop_q: BinaryPairParams = BinaryPairParams(0.050, 0.005, 3.0)
    covariate_mean: float = 30.0
    covariate_sd: float = 17.0
    covariate_loading_1: float = 10.0
    covariate_loading_2: float = 25.0
    covariate_range: tuple[float, float] = (0.0, 100.0)
    covariate_thresholds: tuple[float, ...] = (50.0, 60.0, 70.0, 80.0, 100.0)
    score_loading_1: float = 20.0
    score_loading_2: float = 5.0
    error_sd: float = 10.0
    # The generated score range; scores are truncated into it before
    # rounding.  [0, 100] keeps the whole scale inside the region the
    # score-generating process actually populates (a wider ceiling such
    # as 130 leaves a long empty top segment that the polynomial
    # presmoothing must extrapolate into, distorting upper-scale
    # equating); it also matches the covariate test's 0-100 scale.
    score_range: tuple[int, int] = (0, 100)

    def __post_init__(self):
        self.scale()  # an empty or non-integer score range is a ValidationError
        self.covariate_space()  # and so are thresholds that do not ascend
        if not (self.covariate_sd > 0.0 and self.error_sd > 0.0):
            raise ValidationError("covariate_sd and error_sd must be positive")
        if not self.covariate_range[0] < self.covariate_range[1]:
            raise ValidationError(f"covariate_range {list(self.covariate_range)} must ascend")

    def scale(self) -> ScoreScale:
        return ScoreScale(*self.score_range)

    def covariate_space(self) -> CovariateSpace:
        return CovariateSpace((
            Categorical(SCHOOL, (0, 1)),
            Categorical(ATTEMPT, (0, 1)),
            Binned(OTHER_SCORE, self.covariate_thresholds),
        ))


def solve_joint_from_or(p1: float, p2: float, odds_ratio: float) -> float:
    """P(both = 1) given the marginals and the 2x2 odds ratio.

    Solves or*(p1-p11)*(p2-p11) = p11*(1-p1-p2+p11); the valid root is the
    unique one inside the Frechet bounds.
    """
    BinaryPairParams(p1, p2, odds_ratio)  # validates
    lo, hi = max(0.0, p1 + p2 - 1.0), min(p1, p2)
    if odds_ratio == 1.0:
        return p1 * p2
    a = odds_ratio - 1.0
    b = -(odds_ratio * (p1 + p2) + 1.0 - p1 - p2)
    c = odds_ratio * p1 * p2
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise ValidationError("no real root for the joint probability")
    roots = ((-b - np.sqrt(disc)) / (2.0 * a), (-b + np.sqrt(disc)) / (2.0 * a))
    eps = 1e-12
    valid = [r for r in roots if lo - eps <= r <= hi + eps]
    if not valid:
        raise ValidationError("no root inside the Frechet bounds")
    return float(min(max(valid[0], lo), hi))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_binary_pair(params: BinaryPairParams, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """n draws of the correlated binary pair implied by the odds ratio."""
    rng = _as_generator(seed)
    p11 = solve_joint_from_or(params.p1, params.p2, params.odds_ratio)
    p10 = params.p1 - p11
    p01 = params.p2 - p11
    p00 = 1.0 - p11 - p10 - p01
    cells = rng.choice(4, size=n, p=[p00, p01, p10, p11])
    c1 = (cells >= 2).astype(np.int64)
    c2 = (cells % 2).astype(np.int64)
    return c1, c2


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(x) + 0.5).astype(np.int64)


def gen_population(pop: str, scenario: ScenarioSpec,
                   params: GeneratorParams | None = None, seed=0) -> Dataset:
    """Generate one population's dataset under a scenario.

    ``pop`` is "P" (source form) or "Q" (target form); only Q receives
    the covariate shift and the difficulty adjustment of its scores.

    The covariate shift models an easier covariate test form: it inflates
    the *recorded* covariate score, not the underlying level that drives
    the total score.  Both forms' total scores are therefore generated
    from the unshifted level, and the identity stays the true equating
    whenever the scores themselves are left unadjusted.
    """
    params = params or GeneratorParams()
    if pop not in ("P", "Q"):
        raise ValidationError("pop must be 'P' or 'Q'")
    rng = _as_generator(seed)
    binary = params.pop_p if pop == "P" else params.pop_q
    c1, c2 = sample_binary_pair(binary, scenario.n, rng)
    level = (rng.normal(params.covariate_mean, params.covariate_sd, scenario.n)
             + params.covariate_loading_1 * c1 + params.covariate_loading_2 * c2)
    level = np.clip(level, *params.covariate_range)
    raw = (params.score_loading_1 * c1 + params.score_loading_2 * c2
           + scenario.alpha * level + scenario.beta
           + rng.normal(0.0, params.error_sd, scenario.n))
    shift = scenario.covariate_shift if pop == "Q" else 0.0
    recorded = np.clip(level + shift, *params.covariate_range)
    if pop == "Q":
        slope, intercept = scenario.y_transform
        raw = slope * raw + intercept
    scores = _round_half_up(np.clip(raw, *params.score_range))
    return Dataset(
        params.scale(), params.covariate_space(), scores,
        {SCHOOL: c1, ATTEMPT: c2, OTHER_SCORE: _round_half_up(recorded)},
    )


def truth_values(scenario: ScenarioSpec, scale: ScoreScale) -> np.ndarray:
    """True equating transformation at every source score point.

    Identity when both forms share the generating equation; when the
    second population's scores are adjusted by (slope, intercept), the
    truth is that same affine map applied to the source score.
    """
    slope, intercept = scenario.y_transform
    return slope * scale.points.astype(float) + intercept


def _generate(scenario: ScenarioSpec, params: GeneratorParams, p_rng, q_rng):
    """One replication's pair of populations."""
    return (gen_population("P", scenario, params, p_rng),
            gen_population("Q", scenario, params, q_rng))


def run_scenario(scenario: ScenarioSpec, replications: int,
                 methods: tuple[str, ...] = (METHOD_GKE, METHOD_SEQ),
                 seed: int = 0, params: GeneratorParams | None = None,
                 threads: int = 1) -> MetricsReport:
    """Replicate the generate-and-equate cycle and score the results.

    ``methods`` are :class:`PipelineSpec` method names; "sequential GKE"
    equates ``other_score`` first.  All methods run on the same generated
    datasets within each replication, so the between-method differences
    are paired.  Each replication draws from an independent substream of
    ``seed``; the report is identical for any ``threads`` value.
    """
    if replications < 2:
        raise ValidationError("need at least 2 replications")
    repeated = [m for k, m in enumerate(methods) if m in methods[:k]]
    if repeated:
        raise ValidationError(f"method {repeated[0]!r} is repeated")
    params = params or GeneratorParams()
    specs = tuple(PipelineSpec(m, OTHER_SCORE if m == METHOD_SEQ else None) for m in methods)
    chunk = partial(run_pairs, partial(_generate, scenario, params), specs, seed)
    rows, failures = replicate(chunk, replications, threads, "replications", "rep")
    scale = params.scale()
    stacked = np.stack(rows)  # replications x methods x score points
    replicate_matrices = {m: stacked[:, k] for k, m in enumerate(methods)}
    header = {
        "scenario": scenario.id,
        "relationship": scenario.relationship,
        "covariate_shift": scenario.covariate_shift,
        "y_transform": list(scenario.y_transform),
        "n": scenario.n,
        "replications": replications,
        "failed_replications": len(failures),
        "seed": seed,
        "truth": ("identity" if scenario.y_transform == (1.0, 0.0)
                  else f"{scenario.y_transform[0]}*x+{scenario.y_transform[1]}"),
    }
    return MetricsReport.from_replicates(scale.points, truth_values(scenario, scale),
                                         replicate_matrices, header=header)
