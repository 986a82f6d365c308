"""Tests for the log-linear presmoothing design and IRLS fitter."""

import pickle

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import norm

import keq.equate
import keq.presmooth

from keq.core import (
    Binned,
    Categorical,
    CovariateSpace,
    Dataset,
    ScoreScale,
    ValidationError,
    substream,
    tabulate_counts,
)
from keq.equate import GkePipelineConfig, NecInput, equate_gke, equate_sequential
from keq.presmooth import (
    LoglinearSpec,
    _covariate_dummies,
    _factored_design,
    _solve_pos,
    build_design_matrix,
    fit_loglinear,
    presmooth_counts,
)
from keq.simulate import OTHER_SCORE, ScenarioSpec, gen_population

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
        design = build_design_matrix(ScoreScale(0, 2), small_space(), spec)
        assert design.shape == (6, 4)  # intercept, score, dummy, score*dummy

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


def row_design(scale, covariates, spec):
    """The design built one row-matrix column at a time."""
    J, L = scale.n_points, covariates.n_cells
    x = scale.points.astype(float)
    xs = (x - x.mean()) / x.std()
    x_rows = np.repeat(xs, L)
    dummies = np.tile(_covariate_dummies(covariates, spec.covariate_terms), (J, 1))
    cols = [np.ones(J * L)] + [x_rows**d for d in range(1, spec.score_degree + 1)]
    cols += list(dummies.T)
    for d in range(1, spec.interaction_degree + 1):
        cols += [x_rows**d * dummies[:, k] for k in range(dummies.shape[1])]
    return np.column_stack(cols)


def dense_irls(counts, X, tol=1e-8, max_iter=100):
    """Plain IRLS with step-halving on the row matrix: iterations and fitted counts."""
    y = np.asarray(counts, dtype=float).reshape(-1)
    mu = y + 0.5
    eta, beta = np.log(mu), None

    def deviance(m):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(y > 0, y * np.log(np.where(y > 0, y / m, 1.0)), 0.0)
        return 2.0 * np.sum(t - (y - m))

    dev = deviance(mu)
    for it in range(1, max_iter + 1):
        xtw = X.T * mu
        new = scipy.linalg.solve(xtw @ X, xtw @ (eta + (y - mu) / mu), assume_a="pos")
        if beta is not None:
            step = 1.0
            for _ in range(30):
                cand = beta + step * (new - beta)
                if deviance(np.exp(np.clip(X @ cand, -300, 300))) <= dev * (1 + 1e-12) + 1e-12:
                    new = cand
                    break
                step *= 0.5
        beta = new
        eta = np.clip(X @ beta, -300, 300)
        mu = np.exp(eta)
        dev = deviance(mu)
        if np.max(np.abs(X.T @ (y - mu))) <= tol * y.sum():
            return it, mu
    return max_iter, mu


class TestFactoredDesign:
    @pytest.mark.parametrize("coding", ["cells", "variables", "numeric"])
    @pytest.mark.parametrize("interaction_degree", [0, 1, 2])
    def test_dense_form_has_the_row_matrix_layout(self, coding, interaction_degree):
        spec = LoglinearSpec(score_degree=4, interaction_degree=interaction_degree,
                             covariate_terms=coding)
        scale = ScoreScale(0, 40)
        design = _factored_design(scale, full_space(), spec)
        assert design.shape == (41 * 20, design.dense().shape[1])
        assert np.array_equal(design.dense(), row_design(scale, full_space(), spec))

    @pytest.mark.parametrize("coding", ["cells", "variables", "numeric"])
    def test_operations_match_the_row_matrix(self, coding):
        rng = np.random.default_rng(3)
        spec = LoglinearSpec(score_degree=6, interaction_degree=2, covariate_terms=coding)
        design = _factored_design(ScoreScale(0, 60), full_space(), spec)
        X = design.dense()
        beta = rng.normal(size=X.shape[1])
        r = rng.normal(size=X.shape[0])
        w = rng.exponential(size=X.shape[0])
        for fast, slow in ((design.eta(beta), X @ beta),
                           (design.xt(r), X.T @ r),
                           (design.gram(w), X.T @ (w[:, None] * X))):
            assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


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
        # Intercept, score, dummy and score*dummy: one parameter per cell.
        design = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0],
                           [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
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
        fit = fit_loglinear(counts, design, scale, space)
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
        for pop, key, iterations, deviance in (("P", 0, 25, 1582.5313949405604),
                                               ("Q", 1, 16, 925.2329800619578)):
            data = gen_population(pop, scenario, seed=substream(0, 0, key))
            fit = presmooth_counts(tabulate_counts(data), data.scale, data.covariates,
                                   LoglinearSpec())
            assert fit.converged
            assert (fit.iterations, fit.deviance) == (iterations, deviance)

    def test_scenario5_fits_match_dense_irls(self, monkeypatch):
        # Every table a replication presmooths (GKE's P and Q, the nested
        # covariate run's two and sequential GKE's main-run Q; the main run
        # reuses P's fit from the GKE run), replications 0-3 at seed 0: the
        # factored fit takes the iterations of plain IRLS on the row matrix
        # and lands on its fitted probabilities.
        calls = []
        real = keq.equate.presmooth_counts

        def record(counts, scale, covariates, spec):
            fit = real(counts, scale, covariates, spec)
            calls.append((counts, scale, covariates, spec, fit))
            return fit

        monkeypatch.setattr(keq.equate, "presmooth_counts", record)
        scenario = ScenarioSpec.from_table(5)
        for rep in range(4):
            p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                    for key, pop in enumerate("PQ"))
            equate_gke(NecInput.from_datasets(p, q), GkePipelineConfig())
            equate_sequential(p, q, OTHER_SCORE)
        assert len(calls) == 4 * 5
        for counts, scale, covariates, spec, fit in calls:
            iterations, mu = dense_irls(counts, build_design_matrix(scale, covariates, spec))
            assert fit.converged and fit.iterations == iterations
            probs = fit.fitted_probs.probs.reshape(-1)
            assert np.max(np.abs(probs - mu / mu.sum())) <= 1e-12

    def test_score_residual_reported(self):
        rng = np.random.default_rng(2)
        scale = ScoreScale(0, 25)
        space = small_space()
        counts = rng.poisson(4.0, size=(26, 2)).astype(float)
        design = build_design_matrix(scale, space, LoglinearSpec(score_degree=5))
        n = counts.sum()
        stopped = fit_loglinear(counts, design, scale, space, max_iter=1)
        assert not stopped.converged and stopped.score_residual > 1e-8
        assert f"residual {stopped.score_residual * n:.3g} " in stopped.warning
        fit = fit_loglinear(counts, design, scale, space)
        assert fit.converged and 0.0 < fit.score_residual <= 1e-8
        assert fit.step_halvings == 0

    def test_step_halvings_counted(self, monkeypatch):
        # The deviance calls are the start, iteration 1's fit, then
        # iteration 2's full-step candidate: reject that one, once.
        rng = np.random.default_rng(2)
        scale = ScoreScale(0, 25)
        space = small_space()
        counts = rng.poisson(4.0, size=(26, 2)).astype(float)
        design = build_design_matrix(scale, space, LoglinearSpec(score_degree=5))
        real, calls = keq.presmooth._deviance, []

        def deviance(y, mu):
            calls.append(mu)
            return np.inf if len(calls) == 3 else real(y, mu)

        monkeypatch.setattr(keq.presmooth, "_deviance", deviance)
        fit = fit_loglinear(counts, design, scale, space)
        assert fit.converged and fit.step_halvings == 1

    def test_failed_cholesky_falls_back_to_lstsq(self, monkeypatch):
        rng = np.random.default_rng(6)
        scale = ScoreScale(0, 20)
        space = small_space(3)
        counts = rng.poisson(8.0, size=(21, 3)).astype(float)
        spec = LoglinearSpec(score_degree=3, interaction_degree=1)
        design = build_design_matrix(scale, space, spec)
        expected = fit_loglinear(counts, design, scale, space)
        real, calls = np.linalg.cholesky, []

        def fails_after_first(gram):
            calls.append(gram)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("not positive definite")
            return real(gram)

        monkeypatch.setattr(np.linalg, "cholesky", fails_after_first)
        fit = fit_loglinear(counts, design, scale, space)
        assert fit.converged and len(calls) == fit.iterations
        assert np.allclose(fit.fitted_probs.probs, expected.fitted_probs.probs,
                           rtol=0, atol=1e-12)
        calls.append(None)  # now fails on the first pass too
        with pytest.raises(ValidationError, match="singular working matrix"):
            fit_loglinear(counts, design, scale, space)

    def test_non_finite_working_matrix_is_a_linalg_error(self):
        gram = np.eye(3)
        gram[1, 1] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            _solve_pos(gram, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            _solve_pos(np.eye(3), np.array([1.0, np.nan, 0.0]))


class TestFitCache:
    @staticmethod
    def pair():
        scenario = ScenarioSpec.from_table(5)
        return tuple(gen_population(pop, scenario, seed=substream(0, 0, key))
                     for key, pop in enumerate("PQ"))

    @staticmethod
    def gke_then_sequential(p, q, fresh=False):
        copy = (lambda d: pickle.loads(pickle.dumps(d))) if fresh else (lambda d: d)
        return (equate_gke(NecInput.from_datasets(copy(p), copy(q))),
                equate_sequential(copy(p), copy(q), OTHER_SCORE))

    def test_reused_fits_give_the_tables_of_fresh_datasets(self, monkeypatch):
        p, q = self.pair()
        reused = self.gke_then_sequential(p, q)
        fresh = self.gke_then_sequential(p, q, fresh=True)
        for a, b in zip(reused, fresh):
            assert a.equated.tobytes() == b.equated.tobytes()
            assert (a.diagnostics["h_x"], a.diagnostics["h_y"]) == (
                b.diagnostics["h_x"], b.diagnostics["h_y"])
            assert repr(a.diagnostics) == repr(b.diagnostics)
        # The fits stay with the object; its pickled state carries none.
        unfitted = Dataset(p.scale, p.covariates, p.scores, p.columns)
        assert pickle.dumps(p) == pickle.dumps(unfitted)
        # A fitted dataset keeps its fit; a taken or fresh one fits anew.
        fit = keq.presmooth.fit_loglinear
        monkeypatch.setattr(keq.presmooth, "fit_loglinear",
                            lambda *a, **kw: fit(*a, **{**kw, "max_iter": 1}))
        rows = np.arange(p.n)
        for data, converged in (((p, q), True), ((p.take(rows), q.take(rows)), False),
                                (tuple(pickle.loads(pickle.dumps(d)) for d in (p, q)), False)):
            fits = equate_gke(NecInput.from_datasets(*data)).diagnostics["presmooth"]
            assert [fits[k]["converged"] for k in "pq"] == [converged] * 2
