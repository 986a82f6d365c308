"""Tests for bias / SEE / RMSE / EDIFF / TVD metrics."""

import math

import numpy as np
import pytest

from keq.core import ValidationError
from keq.metrics import MetricsReport, bias, ediff, mc_see, rmse


class TestBias:
    def test_zero_when_replicates_equal_truth(self):
        reps = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert np.allclose(bias(reps, [1.0, 2.0, 3.0]), 0.0)

    def test_single_replicate_constant_offset(self):
        assert np.allclose(bias([[3.0, 4.0]], [1.0, 2.0]), 2.0)

    def test_hand_mean(self):
        assert np.allclose(bias([[3.0], [5.0]], [3.0]), [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            bias([[1.0, 2.0]], [1.0])


class TestMcSee:
    def test_identical_replicates_give_zero(self):
        assert np.allclose(mc_see(np.full((5, 3), 2.5)), 0.0)

    def test_two_points(self):
        assert mc_see([[1.0], [3.0]])[0] == pytest.approx(math.sqrt(2))

    def test_hand_sd(self):
        assert mc_see([[1.0], [2.0], [3.0], [4.0]])[0] == pytest.approx(
            1.2909944487358056
        )

    def test_needs_two_replicates(self):
        with pytest.raises(ValidationError):
            mc_see([[1.0, 2.0]])


class TestRmse:
    def test_three_four_five(self):
        assert rmse([3.0], [4.0])[0] == pytest.approx(5.0)

    def test_zero_bias_passes_see_through(self):
        assert rmse([0.0], [1.7])[0] == pytest.approx(1.7)

    def test_arithmetic(self):
        assert rmse([1.5], [2.0])[0] == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            rmse([1.0], [1.0, 2.0])


class TestEdiff:
    def test_identical_estimators(self):
        reps = np.arange(12.0).reshape(3, 4)
        per_point, mean = ediff(reps, reps.copy())
        assert np.allclose(per_point, 0.0)
        assert mean == 0.0

    def test_constant_offset(self):
        a = np.zeros((3, 4))
        per_point, mean = ediff(a, a + 2.0)
        assert np.allclose(per_point, 2.0)
        assert mean == pytest.approx(2.0)
        assert np.all(per_point > 1.0)  # every point exceeds the DTM

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 6))
        b = rng.normal(size=(20, 6))
        per_point, _ = ediff(a, b)
        assert np.all(per_point >= np.abs((a - b).mean(axis=0)) - 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ediff(np.zeros((2, 3)), np.zeros((2, 4)))


class TestReport:
    def test_rmse_identity_holds(self):
        rng = np.random.default_rng(3)
        reps_a = rng.normal(size=(10, 5))
        reps_b = rng.normal(size=(10, 5))
        report = MetricsReport.from_replicates(
            np.arange(5), np.zeros(5), {"A": reps_a, "B": reps_b}
        )
        for vecs in report.per_method.values():
            assert np.allclose(vecs["rmse"] ** 2,
                               vecs["bias"] ** 2 + vecs["see"] ** 2, atol=1e-12)
        assert report.mean_ediff is not None
        assert 0.0 <= report.dtm_exceed_fraction <= 1.0

    def test_rmse_identity_allows_rounding_at_large_bias(self):
        # At |bias| ~ 1e3 to 1e4 rounding alone leaves gaps of 1e-10 to 1e-8;
        # an rmse off by a relative 1e-12 is a real gap, and is still caught.
        rng = np.random.default_rng(5)
        b = rng.choice([-1.0, 1.0], 200) * rng.uniform(1e3, 1e4, 200)
        s = rng.uniform(0.0, 2.0, 200)
        vecs = {"bias": b, "see": s, "rmse": rmse(b, s)}
        assert np.max(np.abs(vecs["rmse"] ** 2 - b**2 - s**2)) > 1e-10
        MetricsReport(np.arange(200), np.zeros(200), {"A": vecs})
        vecs["rmse"] = vecs["rmse"] * (1.0 + 1e-12)
        with pytest.raises(ValidationError, match="rmse\\^2 != bias\\^2"):
            MetricsReport(np.arange(200), np.zeros(200), {"A": vecs})

    def test_inconsistent_rmse_rejected(self):
        with pytest.raises(ValidationError):
            MetricsReport(
                np.arange(2), np.zeros(2),
                {"A": {"bias": np.ones(2), "see": np.ones(2), "rmse": np.ones(2)}},
            )
