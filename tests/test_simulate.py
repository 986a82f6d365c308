"""Tests for the data generator and the Monte-Carlo harness."""

from dataclasses import replace

import numpy as np
import pytest

import keq.simulate
from keq.core import ValidationError
from keq.simulate import (
    METHOD_GKE,
    METHOD_SEQ,
    OTHER_SCORE,
    SCENARIO_TABLE,
    BinaryPairParams,
    GeneratorParams,
    ScenarioSpec,
    gen_population,
    run_scenario,
    sample_binary_pair,
    solve_joint_from_or,
    truth_values,
)

# Table of the twelve built-in scenarios:
# (relationship, covariate shift, y-transform, alpha, beta, n)
EXPECTED_TABLE = {
    1: ("strong", 0.0, (1.0, 0.0), 1.0, 0.0, 5_000),
    2: ("strong", 0.0, (1.0, 0.0), 1.0, 0.0, 50_000),
    3: ("weak", 0.0, (1.0, 0.0), 0.5, 30.0, 5_000),
    4: ("weak", 0.0, (1.0, 0.0), 0.5, 30.0, 50_000),
    5: ("strong", 10.0, (1.0, 0.0), 1.0, 0.0, 5_000),
    6: ("strong", 10.0, (1.0, 0.0), 1.0, 0.0, 50_000),
    7: ("weak", 10.0, (1.0, 0.0), 0.5, 30.0, 5_000),
    8: ("weak", 10.0, (1.0, 0.0), 0.5, 30.0, 50_000),
    9: ("strong", 0.0, (0.9, 5.0), 1.0, 0.0, 5_000),
    10: ("strong", 0.0, (0.9, 5.0), 1.0, 0.0, 50_000),
    11: ("strong", 10.0, (0.9, 5.0), 1.0, 0.0, 5_000),
    12: ("strong", 10.0, (0.9, 5.0), 1.0, 0.0, 50_000),
}


class TestJointFromOddsRatio:
    def test_independence(self):
        assert solve_joint_from_or(0.3, 0.8, 1.0) == pytest.approx(0.24)

    def test_comonotone_limit(self):
        assert solve_joint_from_or(0.3, 0.8, 1e9) == pytest.approx(0.3, abs=1e-4)

    def test_quadratic_root(self):
        # smaller root of 7 p^2 - 8.7 p + 1.92 = 0
        oracle = (8.7 - np.sqrt(8.7**2 - 4 * 7 * 1.92)) / 14
        p11 = solve_joint_from_or(0.3, 0.8, 8.0)
        assert p11 == pytest.approx(oracle, abs=1e-12)
        assert p11 == pytest.approx(0.2869323007, abs=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            solve_joint_from_or(0.0, 0.5, 2.0)
        with pytest.raises(ValidationError):
            solve_joint_from_or(0.3, 0.5, -1.0)


class TestBinaryPair:
    def test_independent_empirical_or(self):
        c1, c2 = sample_binary_pair(BinaryPairParams(0.4, 0.6, 1.0), 1_000_000, 0)
        n11 = np.sum((c1 == 1) & (c2 == 1))
        n10 = np.sum((c1 == 1) & (c2 == 0))
        n01 = np.sum((c1 == 0) & (c2 == 1))
        n00 = np.sum((c1 == 0) & (c2 == 0))
        or_hat = (n11 * n00) / (n10 * n01)
        assert 0.97 <= or_hat <= 1.03

    def test_study_marginals(self):
        c1, c2 = sample_binary_pair(BinaryPairParams(0.300, 0.800, 8.0), 1_000_000, 1)
        assert abs(c1.mean() - 0.300) < 0.003
        assert abs(c2.mean() - 0.800) < 0.003
        p11_hat = np.mean((c1 == 1) & (c2 == 1))
        assert abs(p11_hat - 0.2869323) < 0.001

    def test_large_sample_or_validates_root(self):
        c1, c2 = sample_binary_pair(BinaryPairParams(0.300, 0.800, 8.0), 10_000_000, 2)
        n11 = np.sum((c1 == 1) & (c2 == 1))
        n10 = np.sum((c1 == 1) & (c2 == 0))
        n01 = np.sum((c1 == 0) & (c2 == 1))
        n00 = np.sum((c1 == 0) & (c2 == 0))
        assert (n11 * n00) / (n10 * n01) == pytest.approx(8.0, abs=0.15)


class TestGenPopulation:
    def test_deterministic_score_pieces(self):
        params = GeneratorParams()
        sc = ScenarioSpec.from_table(1)
        # strong relationship: 20*1 + 5*1 + 1*50 + 0 = 75
        assert (params.score_loading_1 * 1 + params.score_loading_2 * 1
                + sc.alpha * 50 + sc.beta) == 75
        weak = ScenarioSpec.from_table(3)
        # weak relationship: 20 + 5 + 0.5*50 + 30 = 80
        assert (params.score_loading_1 * 1 + params.score_loading_2 * 1
                + weak.alpha * 50 + weak.beta) == 80

    def test_difficulty_adjustment_evaluation(self):
        slope, intercept = ScenarioSpec.from_table(9).y_transform
        assert slope * 50 + intercept == pytest.approx(50.0)   # fixed point
        assert slope * 100 + intercept == pytest.approx(95.0)
        assert slope * 0 + intercept == pytest.approx(5.0)

    def test_covariate_mean_matches_analytic_value(self):
        sc = replace(ScenarioSpec.from_table(1), n=1_000_000)
        data = gen_population("P", sc, seed=3)
        # 30 + 10*0.3 + 25*0.8 = 53, clamping impact < 0.2
        assert abs(np.mean(data.columns[OTHER_SCORE]) - 53.0) < 0.3

    def test_shift_applies_to_recorded_covariate_not_scores(self):
        base = replace(ScenarioSpec.from_table(1), n=200_000)
        shifted = replace(ScenarioSpec.from_table(5), n=200_000)
        q_base = gen_population("Q", base, seed=4)
        q_shift = gen_population("Q", shifted, seed=4)
        # identical streams: scores agree exactly, covariate moves up
        assert np.array_equal(q_base.scores, q_shift.scores)
        delta = (np.mean(q_shift.columns[OTHER_SCORE])
                 - np.mean(q_base.columns[OTHER_SCORE]))
        assert delta == pytest.approx(10.0, abs=0.1)

    def test_scores_within_range_and_integer(self):
        sc = replace(ScenarioSpec.from_table(11), n=50_000)
        data = gen_population("Q", sc, seed=5)
        assert data.scores.min() >= 0 and data.scores.max() <= 100
        assert data.columns[OTHER_SCORE].dtype.kind == "i"

    def test_bad_population_label(self):
        with pytest.raises(ValidationError):
            gen_population("R", ScenarioSpec.from_table(1))


class TestScenarioTable:
    def test_reproduces_embedded_copy(self):
        assert set(SCENARIO_TABLE) == set(range(1, 13))
        for sid, row in EXPECTED_TABLE.items():
            spec = ScenarioSpec.from_table(sid)
            assert (spec.relationship, spec.covariate_shift, spec.y_transform,
                    spec.alpha, spec.beta, spec.n) == row

    def test_unknown_id(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            ScenarioSpec.from_table(13)

    def test_truth_values(self):
        params = GeneratorParams()
        identity = truth_values(ScenarioSpec.from_table(1), params.scale())
        assert np.allclose(identity, params.scale().points)
        adjusted = truth_values(ScenarioSpec.from_table(9), params.scale())
        assert np.allclose(adjusted, 0.9 * params.scale().points + 5.0)


class TestRunScenario:
    def test_smoke_and_determinism(self):
        sc = replace(ScenarioSpec.from_table(1), n=1200)
        r1 = run_scenario(sc, 2, seed=1)
        r2 = run_scenario(sc, 2, seed=1)
        for method in (METHOD_GKE, METHOD_SEQ):
            for key in ("bias", "see", "rmse"):
                assert np.array_equal(r1.per_method[method][key],
                                      r2.per_method[method][key])
                assert np.all(np.isfinite(r1.per_method[method][key]))
        assert r1.mean_ediff == r2.mean_ediff

    def test_threading_does_not_change_results(self):
        sc = replace(ScenarioSpec.from_table(1), n=1200)
        serial = run_scenario(sc, 3, seed=2, threads=1)
        parallel = run_scenario(sc, 3, seed=2, threads=2)
        for method in (METHOD_GKE, METHOD_SEQ):
            assert np.array_equal(serial.per_method[method]["bias"],
                                  parallel.per_method[method]["bias"])

    def test_shift_increases_gke_bias_at_matched_seeds(self):
        plain = run_scenario(ScenarioSpec.from_table(1), 3, seed=3,
                             methods=(METHOD_GKE,))
        shifted = run_scenario(ScenarioSpec.from_table(5), 3, seed=3,
                               methods=(METHOD_GKE,))
        bias_plain = np.abs(plain.per_method[METHOD_GKE]["bias"]).mean()
        bias_shift = np.abs(shifted.per_method[METHOD_GKE]["bias"]).mean()
        assert bias_shift > bias_plain

    def test_methods_coincide_without_covariate_shift(self):
        report = run_scenario(ScenarioSpec.from_table(1), 4, seed=4)
        gap = np.abs(report.per_method[METHOD_GKE]["bias"]
                     - report.per_method[METHOD_SEQ]["bias"])
        assert gap.mean() < 0.75
        assert report.mean_ediff < 1.5

    def test_unknown_method_rejected_before_any_replication(self, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(keq.simulate, "gen_population", no_replication)
        with pytest.raises(ValidationError, match="'bogus'"):
            run_scenario(ScenarioSpec.from_table(1), 2, methods=("bogus",))

    def test_repeated_method_rejected_before_any_replication(self, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(keq.simulate, "gen_population", no_replication)
        with pytest.raises(ValidationError, match="method 'GKE' is repeated"):
            run_scenario(ScenarioSpec.from_table(1), 2,
                         methods=(METHOD_GKE, METHOD_SEQ, METHOD_GKE))

    def test_needs_two_replications(self):
        with pytest.raises(ValidationError):
            run_scenario(ScenarioSpec.from_table(1), 1)
