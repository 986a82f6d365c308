"""Tests for the log-linear presmoothing design and IRLS fitter."""

import numpy as np
import pytest
from scipy.stats import norm

from keq.core import (
    Binned,
    Categorical,
    CovariateSpace,
    ScoreScale,
    ValidationError,
    substream,
    tabulate_counts,
)
from keq.presmooth import (
    LoglinearSpec,
    build_design_matrix,
    fit_loglinear,
    presmooth_counts,
)
from keq.simulate import ScenarioSpec, gen_population

THRESHOLDS = (50.0, 60.0, 70.0, 80.0, 100.0)


def small_space(levels=2):
    return CovariateSpace((Categorical("g", tuple(range(levels))),))


def full_space():
    return CovariateSpace((
        Categorical("school", (0, 1)),
        Categorical("attempt", (0, 1)),
        Binned("other", THRESHOLDS),
    ))


class TestDesignMatrix:
    def test_minimal_dimensions(self):
        spec = LoglinearSpec(score_degree=1, interaction_degree=1)
        design = build_design_matrix(ScoreScale(0, 1), small_space(), spec,
                                     allow_saturated=True)
        assert design.shape == (4, 4)  # intercept, score, dummy, score*dummy

    def test_study_default_dimensions(self):
        spec = LoglinearSpec(score_degree=6, interaction_degree=1,
                             covariate_terms="cells")
        design = build_design_matrix(ScoreScale(0, 95), full_space(), spec)
        assert design.shape == (96 * 20, 1 + 6 + 19 + 19)

    def test_full_column_rank(self):
        spec = LoglinearSpec(score_degree=6, interaction_degree=1,
                             covariate_terms="cells")
        design = build_design_matrix(ScoreScale(0, 95), full_space(), spec)
        assert np.linalg.matrix_rank(design) == design.shape[1]

    def test_numeric_coding_dimensions(self):
        spec = LoglinearSpec(score_degree=6, interaction_degree=1,
                             covariate_terms="numeric")
        design = build_design_matrix(ScoreScale(0, 95), full_space(), spec)
        assert design.shape == (96 * 20, 1 + 6 + 3 + 3)

    def test_saturated_guard(self):
        spec = LoglinearSpec(score_degree=1, interaction_degree=1)
        with pytest.raises(ValidationError, match="not identifiable"):
            build_design_matrix(ScoreScale(0, 1), small_space(), spec)

    def test_interaction_degree_bounded_by_score_degree(self):
        with pytest.raises(ValidationError):
            LoglinearSpec(score_degree=2, interaction_degree=3)


class TestFit:
    def test_intercept_only_is_uniform(self):
        scale = ScoreScale(0, 3)
        space = CovariateSpace(())
        counts = np.array([[5.0], [1.0], [9.0], [2.0]])
        design = np.ones((4, 1))
        fit = fit_loglinear(counts, design, scale, space)
        assert fit.converged
        assert np.allclose(fit.fitted_probs.probs, 0.25)

    def test_saturated_model_reproduces_observed(self):
        scale = ScoreScale(0, 1)
        space = small_space()
        counts = np.array([[3.0, 7.0], [5.0, 11.0]])
        spec = LoglinearSpec(score_degree=1, interaction_degree=1)
        design = build_design_matrix(scale, space, spec, allow_saturated=True)
        fit = fit_loglinear(counts, design, scale, space)
        assert np.allclose(fit.fitted_probs.probs, counts / counts.sum(), atol=1e-9)

    def test_moment_matching_on_discretized_gaussian(self):
        scale = ScoreScale(0, 30)
        space = CovariateSpace(())
        x = scale.points.astype(float)
        probs = norm.pdf(x, 14.0, 5.0)
        counts = np.round(5000 * probs / probs.sum())
        spec = LoglinearSpec(score_degree=2, interaction_degree=0)
        design = build_design_matrix(scale, space, spec)
        fit = fit_loglinear(counts.reshape(-1, 1), design, scale, space)
        assert fit.converged
        n = counts.sum()
        fitted = fit.fitted_probs.probs.reshape(-1) * n
        assert abs(x @ fitted - x @ counts) < 1e-6 * n
        assert abs(x**2 @ fitted - x**2 @ counts) < 1e-6 * n

    def test_moment_matching_all_columns_when_converged(self):
        rng = np.random.default_rng(12)
        scale = ScoreScale(0, 20)
        space = small_space(3)
        counts = rng.poisson(6.0, size=(21, 3)).astype(float)
        spec = LoglinearSpec(score_degree=4, interaction_degree=1)
        design = build_design_matrix(scale, space, spec)
        fit = fit_loglinear(counts, design, scale, space, spec=spec)
        assert fit.converged
        n = counts.sum()
        fitted = fit.fitted_probs.probs.reshape(-1) * n
        resid = design.T @ (counts.reshape(-1) - fitted)
        assert np.max(np.abs(resid)) < 1e-6 * n

    def test_fitted_probs_strictly_positive(self):
        scale = ScoreScale(0, 15)
        space = small_space()
        counts = np.zeros((16, 2))
        counts[2:6, 0] = [4, 9, 7, 2]
        counts[8:12, 1] = [1, 5, 6, 3]
        fit = presmooth_counts(counts, scale, space,
                               LoglinearSpec(score_degree=3, interaction_degree=1))
        assert np.all(fit.fitted_probs.probs > 0)

    def test_deviance_nonincreasing_in_iteration_budget(self):
        rng = np.random.default_rng(5)
        scale = ScoreScale(0, 25)
        space = small_space()
        counts = rng.poisson(4.0, size=(26, 2)).astype(float)
        spec = LoglinearSpec(score_degree=4, interaction_degree=1)
        design = build_design_matrix(scale, space, spec)
        devs = [fit_loglinear(counts, design, scale, space, max_iter=k).deviance
                for k in range(1, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(devs, devs[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        scale = ScoreScale(0, 12)
        space = small_space(4)
        counts = rng.poisson(5.0, size=(13, 4)).astype(float)
        spec = LoglinearSpec(score_degree=3, interaction_degree=1)
        design = build_design_matrix(scale, space, spec)
        fit = fit_loglinear(counts, design, scale, space)
        perm = rng.permutation(13 * 4)
        fit_p = fit_loglinear(counts.reshape(-1)[perm].reshape(13, 4)[..., None]
                              .reshape(13, 4), design[perm], scale, space)
        probs = fit.fitted_probs.probs.reshape(-1)
        probs_p = fit_p.fitted_probs.probs.reshape(-1)
        assert np.allclose(probs_p, probs[perm], atol=1e-8)

    def test_non_convergence_returns_warning_payload(self):
        rng = np.random.default_rng(2)
        scale = ScoreScale(0, 25)
        space = small_space()
        counts = rng.poisson(4.0, size=(26, 2)).astype(float)
        spec = LoglinearSpec(score_degree=5, interaction_degree=1)
        design = build_design_matrix(scale, space, spec)
        fit = fit_loglinear(counts, design, scale, space, max_iter=1)
        assert not fit.converged
        assert fit.warning is not None and "1 iteration" in fit.warning

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_budget_below_one_rejected(self, max_iter):
        scale = ScoreScale(0, 3)
        counts = np.array([[3.0], [4.0], [5.0], [2.0]])
        with pytest.raises(ValidationError, match="max_iter"):
            fit_loglinear(counts, np.ones((4, 1)), scale, CovariateSpace(()),
                          max_iter=max_iter)

    def test_all_zero_counts_rejected(self):
        scale = ScoreScale(0, 3)
        space = CovariateSpace(())
        with pytest.raises(ValidationError, match="all-zero"):
            fit_loglinear(np.zeros((4, 1)), np.ones((4, 1)), scale, space)

    def test_collinear_design_rejected(self):
        scale = ScoreScale(0, 3)
        space = CovariateSpace(())
        counts = np.array([[3.0], [4.0], [5.0], [2.0]])
        x = scale.points.astype(float)
        design = np.column_stack([np.ones(4), x, 2 * x])  # exact collinearity
        with pytest.raises(ValidationError, match="separation or collinearity"):
            fit_loglinear(counts, design, scale, space)

    def test_empty_covariate_cells_still_converge(self):
        # A cell with zero observations drives its dummy toward -inf; the
        # fit must still converge with its fitted mass pinned near zero.
        rng = np.random.default_rng(4)
        scale = ScoreScale(0, 20)
        space = small_space(3)
        counts = rng.poisson(8.0, size=(21, 3)).astype(float)
        counts[:, 2] = 0.0
        spec = LoglinearSpec(score_degree=3, interaction_degree=1)
        fit = presmooth_counts(counts, scale, space, spec)
        assert fit.converged
        assert fit.fitted_probs.probs[:, 2].sum() < 1e-8

    def test_scenario5_fits_are_pinned(self):
        # P and Q of scenario 5's first replication at seed 0, as the
        # simulation draws them.  Exact iteration counts and deviances
        # catch any change to the IRLS arithmetic.
        scenario = ScenarioSpec.from_table(5)
        for pop, key, iterations, deviance in (("P", 0, 25, 1582.5313949405659),
                                               ("Q", 1, 16, 925.2329800619581)):
            data = gen_population(pop, scenario, seed=substream(0, 0, key))
            fit = presmooth_counts(tabulate_counts(data), data.scale, data.covariates,
                                   LoglinearSpec())
            assert fit.converged
            assert (fit.iterations, fit.deviance) == (iterations, deviance)
