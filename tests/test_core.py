"""Tests for scales, covariate spaces, tables, datasets, and CSV ingestion."""

import numpy as np
import pytest

from keq.core import (
    Binned,
    Categorical,
    CovariateSpace,
    CsvFormatError,
    Dataset,
    EquatingTable,
    JointProbabilityTable,
    RawPersonTable,
    ScoreDistribution,
    ScoreScale,
    ValidationError,
    coerce_dataset,
    discretize,
    read_person_csv,
    tabulate,
    tabulate_counts,
)

THRESHOLDS = (50.0, 60.0, 70.0, 80.0, 100.0)


def two_by_two_space():
    return CovariateSpace((Categorical("g", (0, 1)),))


def make_dataset(scores, cells, scale=None, space=None):
    space = space or two_by_two_space()
    scale = scale or ScoreScale(min(scores), max(scores))
    return Dataset(scale, space, np.asarray(scores),
                   {"g": np.asarray(cells)})


class TestScoreScale:
    def test_points_are_consecutive(self):
        s = ScoreScale(0, 5)
        assert list(s.points) == [0, 1, 2, 3, 4, 5]
        assert s.n_points == 6

    def test_empty_scale_rejected(self):
        with pytest.raises(ValidationError):
            ScoreScale(3, 2)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            ScoreScale(0.5, 2)

    @pytest.mark.parametrize("low, high", [(0, float("inf")), (float("nan"), 2),
                                           ("0", 2), (None, 2)])
    def test_non_numeric_bounds_rejected(self, low, high):
        with pytest.raises(ValidationError, match="must be integers"):
            ScoreScale(low, high)


class TestDiscretize:
    def test_below_first_threshold_goes_to_first_bin(self):
        assert discretize(49.9, THRESHOLDS) == 0

    def test_boundary_is_left_closed(self):
        assert discretize(50.0, THRESHOLDS) == 1

    def test_top_closure_and_clamp(self):
        assert discretize(100.0, THRESHOLDS) == 4
        assert discretize(104.3, THRESHOLDS) == 4

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            discretize(float("nan"), THRESHOLDS)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(-20, 140, size=500))
        bins = discretize(values, THRESHOLDS)
        assert np.all(np.diff(bins) >= 0)


class TestCovariateSpace:
    def test_cell_count_is_product_of_levels(self):
        space = CovariateSpace((
            Categorical("a", (0, 1)),
            Categorical("b", ("x", "y")),
            Binned("c", THRESHOLDS),
        ))
        assert space.n_cells == 2 * 2 * 5
        cells = space.cells()
        assert len(cells) == 20
        # bijective index mapping
        assert [space.cell_index(c) for c in cells] == list(range(20))

    def test_empty_space_is_single_cell(self):
        space = CovariateSpace(())
        assert space.n_cells == 1

    def test_binned_needs_ascending_thresholds(self):
        with pytest.raises(ValidationError):
            Binned("c", (60, 50))


class TestLevelIndices:
    CASES = [  # int levels (simulation path), string levels (CSV path)
        ((0, 1), np.array([0, 1, 1, 0, 2, 1, 3])),
        (("a", "b"), np.array(["a", "b", "b", "a", "zz", "b", "yy"], dtype=object)),
    ]

    @pytest.mark.parametrize("levels, values", CASES)
    def test_matches_per_record_lookup(self, levels, values):
        ok = values[:4]
        expect = np.array([levels.index(v) for v in ok], dtype=np.int64)
        got = Categorical("g", levels).level_indices(ok)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("levels, values", CASES)
    def test_names_first_undeclared_record(self, levels, values):
        bad = values.tolist()[4]
        with pytest.raises(ValidationError, match=f"record 4 has undeclared level {bad!r} "):
            Categorical("g", levels).level_indices(values)
        with pytest.raises(ValidationError, match="record 4"):
            Dataset(ScoreScale(0, 9), CovariateSpace((Categorical("g", levels),)),
                    np.arange(len(values)), {"g": values})


class TestDistributions:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ScoreDistribution(ScoreScale(0, 1), [0.5, 0.4])

    def test_small_drift_is_renormalized(self):
        probs = np.array([0.5, 0.5]) * (1 + 5e-11)
        d = ScoreDistribution(ScoreScale(0, 1), probs)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ScoreDistribution(ScoreScale(0, 1), [1.2, -0.2])

    def test_moments(self):
        d = ScoreDistribution(ScoreScale(0, 2), [0.25, 0.5, 0.25])
        assert d.mean == pytest.approx(1.0)
        assert d.variance == pytest.approx(0.5)

    def test_joint_marginals_are_consistent(self):
        probs = np.array([[0.2, 0.1], [0.3, 0.4]])
        t = JointProbabilityTable(ScoreScale(0, 1), two_by_two_space(), probs)
        assert np.allclose(t.score_marginal().probs, [0.3, 0.7])
        assert np.allclose(t.covariate_marginal(), [0.5, 0.5])


class TestTabulate:
    def test_two_records(self):
        d = make_dataset([0, 1], [0, 1], scale=ScoreScale(0, 1))
        assert np.allclose(tabulate(d).probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_degenerate_mass(self):
        d = make_dataset([1] * 7, [1] * 7, scale=ScoreScale(0, 1))
        probs = tabulate(d).probs
        assert probs[1, 1] == 1.0
        assert probs.sum() == 1.0

    def test_hand_count_three_by_two(self):
        scores = [0, 0, 1, 1, 1, 2]
        cells = [0, 0, 0, 1, 1, 1]
        d = make_dataset(scores, cells, scale=ScoreScale(0, 2))
        expect = np.array([[2, 0], [1, 2], [0, 1]]) / 6
        assert np.allclose(tabulate(d).probs, expect)

    def test_dataset_without_covariates_is_one_cell(self):
        d = Dataset(ScoreScale(0, 4), CovariateSpace(()), np.array([0, 2, 2, 4]), {})
        assert np.array_equal(d.cell_indices(), [0, 0, 0, 0])
        assert np.array_equal(tabulate_counts(d), [[1], [0], [2], [0], [1]])

    def test_cell_indices_match_the_covariate_space(self):
        space = CovariateSpace((Categorical("a", ("x", "y")), Binned("c", THRESHOLDS)))
        columns = {"a": np.array(["y", "x", "y"], dtype=object),
                   "c": np.array([49.0, 100.0, 65.0])}
        d = Dataset(ScoreScale(0, 2), space, np.array([0, 1, 2]), columns)
        assert np.array_equal(d.cell_indices(), [5, 4, 7])
        assert np.array_equal(d.take(np.array([2, 2])).cell_indices(), [7, 7])

    def test_restrict_keeps_the_named_covariates(self):
        space = CovariateSpace((Categorical("a", ("x", "y")), Binned("c", THRESHOLDS)))
        columns = {"a": np.array(["y", "x", "y"], dtype=object),
                   "c": np.array([49.0, 100.0, 65.0])}
        d = Dataset(ScoreScale(0, 2), space, np.array([0, 1, 2]), columns)
        only_c = d.restrict(("c",))
        assert only_c.covariates == CovariateSpace((Binned("c", THRESHOLDS),))
        assert np.array_equal(only_c.cell_indices(), [0, 4, 2])
        assert np.array_equal(only_c.scores, d.scores)
        bare = d.restrict(())
        assert bare.columns == {}
        assert np.array_equal(tabulate_counts(bare), [[1], [1], [1]])

    def test_cell_indices_of_256_levels(self):
        space = CovariateSpace((Categorical("a", tuple(range(256))),))
        levels = np.arange(256)
        d = Dataset(ScoreScale(0, 0), space, np.zeros(256, dtype=int), {"a": levels})
        assert np.array_equal(d.cell_indices(), levels)

    def test_empty_dataset_errors(self):
        d = make_dataset([], [], scale=ScoreScale(0, 1))
        with pytest.raises(ValidationError, match="no records"):
            tabulate_counts(d)

    def test_score_outside_scale_names_record(self):
        with pytest.raises(ValidationError, match="record 1"):
            make_dataset([0, 7], [0, 1], scale=ScoreScale(0, 1))

    def test_sampling_recovery(self):
        # Sampling from a table and re-tabulating recovers it within
        # 3*sqrt(p(1-p)/n) for at least 99% of cells across seeds.
        rng = np.random.default_rng(42)
        J, L, n = 8, 4, 20_000
        probs = rng.uniform(0.5, 2.0, size=(J, L))
        probs /= probs.sum()
        space = CovariateSpace((Categorical("g", tuple(range(L))),))
        scale = ScoreScale(0, J - 1)
        flat = probs.reshape(-1)
        total = 0
        ok = 0
        for seed in range(5):
            draws = np.random.default_rng(seed).choice(J * L, size=n, p=flat)
            d = Dataset(scale, space, draws // L, {"g": draws % L})
            emp = tabulate(d).probs
            bound = 3 * np.sqrt(probs * (1 - probs) / n)
            ok += int((np.abs(emp - probs) <= bound).sum())
            total += J * L
        assert ok / total >= 0.99


class TestEquatingTable:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValidationError, match="decrease"):
            EquatingTable(ScoreScale(0, 2), [1.0, 0.5, 2.0])

    def test_see_shape_checked(self):
        with pytest.raises(ValidationError):
            EquatingTable(ScoreScale(0, 2), [0.0, 1.0, 2.0], see=[0.1])

    def test_negative_see_rejected(self):
        with pytest.raises(ValidationError):
            EquatingTable(ScoreScale(0, 1), [0.0, 1.0], see=[0.1, -0.2])


class TestPersonCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text(
            "score,school,other\n3,a,55.5\n1,b,49.0\n", encoding="utf-8"
        )
        raw = read_person_csv(path)
        space = CovariateSpace((
            Categorical("school", ("a", "b")),
            Binned("other", THRESHOLDS),
        ))
        d = coerce_dataset(raw, ScoreScale(0, 5), space)
        assert d.n == 2
        assert list(d.scores) == [3, 1]
        assert list(d.columns["school"]) == ["a", "b"]
        assert list(d.columns["other"]) == pytest.approx([55.5, 49.0])

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,school\n3,\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_person_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("score,school\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2: no data rows"):
            read_person_csv(path)

    def test_non_integer_score_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,school\n3.5,a\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_person_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,school\n3,a,extra\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_person_csv(path)

    def test_coerce_names_first_undeclared_record(self):
        raw = RawPersonTable(np.array([1, 2, 3, 4, 5]),
                             {"school": ["a", "b", "zz", "b", "yy"]})
        space = CovariateSpace((Categorical("school", ("a", "b")),))
        with pytest.raises(ValidationError, match="record 2: undeclared level 'zz'"):
            coerce_dataset(raw, ScoreScale(0, 5), space)

    def test_undeclared_level_names_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,school\n3,a\n2,zz\n", encoding="utf-8")
        raw = read_person_csv(path)
        space = CovariateSpace((Categorical("school", ("a", "b")),))
        with pytest.raises(ValidationError, match="record 1"):
            coerce_dataset(raw, ScoreScale(0, 5), space)
