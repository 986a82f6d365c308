"""Tests for scales, covariate spaces, tables, datasets, and CSV ingestion."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keq import core
from keq.core import (
    Binned,
    Categorical,
    CovariateSpace,
    CsvFormatError,
    Dataset,
    EquatingTable,
    JointProbabilityTable,
    KeqError,
    RawPersonTable,
    ScoreDistribution,
    ScoreScale,
    TokenColumn,
    ValidationError,
    coerce_dataset,
    discretize,
    read_person_csv,
    tabulate_counts,
)
from keq.equate import NecInput, equate_gke, equate_sequential
from keq.simulate import OTHER_SCORE, ScenarioSpec, gen_population

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
        # Presmoothing's per-cell design rows follow space.cells(); a record
        # at the k-th tuple's levels must fall in cell k.
        a, b, c = space.variables
        bin_values = (c.thresholds[0] - 1, *c.thresholds[:-1])
        cells = space.cells()
        data = Dataset(ScoreScale(0, 0), space, np.zeros(len(cells), dtype=int), {
            "a": np.array([a.levels[i] for i, _, _ in cells]),
            "b": np.array([b.levels[j] for _, j, _ in cells]),
            "c": np.array([bin_values[k] for _, _, k in cells]),
        })
        assert np.array_equal(data.cell_indices(), np.arange(space.n_cells))

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
        with pytest.raises(ValidationError, match=f"record 4: undeclared level {bad!r} "):
            Categorical("g", levels).level_indices(values)
        with pytest.raises(ValidationError, match="record 4"):
            Dataset(ScoreScale(0, 9), CovariateSpace((Categorical("g", levels),)),
                    np.arange(len(values)), {"g": values})

    INT_DTYPES = (np.int64, np.int32, np.int8, np.uint32, np.uint8)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small=st.lists(st.integers(-128, 255), min_size=1, max_size=5),
           wide=st.lists(st.integers(-2**63, 2**63 - 1), max_size=4),
           dtype=st.sampled_from(INT_DTYPES), data=st.data())
    def test_sorted_lookup_equals_dict_lookup(self, small, wide, dtype, data):
        # Levels in any order, negative ones included; values of an integer
        # type narrower than uint64, drawn from the levels it holds.
        levels = data.draw(st.permutations(list(dict.fromkeys(small + wide))))
        info = np.iinfo(dtype)
        fitting = [v for v in levels if info.min <= v <= info.max]
        drawn = st.lists(st.sampled_from(fitting), max_size=40) if fitting else st.just([])
        values = np.array(data.draw(drawn), dtype=dtype)
        var = Categorical("g", tuple(levels))
        got = core._sorted_level_indices(var.levels, values)
        assert got is not None and got.dtype == np.int64
        assert np.array_equal(got, var._dict_level_indices(values))
        # A value that is no level falls back and reports as the dict does.
        miss = data.draw(st.integers(info.min, info.max).filter(lambda v: v not in levels))
        at = data.draw(st.integers(0, len(values)))
        values = np.insert(values, at, miss).astype(dtype)
        assert core._sorted_level_indices(var.levels, values) is None
        for lookup in (var.level_indices, var._dict_level_indices):
            with pytest.raises(ValidationError) as err:
                lookup(values)
            assert str(err.value) == f"record {at}: undeclared level {miss!r} for covariate 'g'"

    @pytest.mark.parametrize("levels, values", [
        ((0, 1), np.array([True, False])),
        ((0, 1), np.array([0.0, 1.0])),
        ((0, 1), np.array([0, 1], dtype=object)),
        ((0, 1), np.array([0, 1], dtype=np.uint64)),
        ((False, True), np.array([0, 1])),
        ((2**64, 0, 1), np.array([0, 1])),
    ], ids=["bool-values", "float-values", "object-values", "uint64-values",
            "bool-levels", "level-beyond-int64"])
    def test_other_columns_stay_on_the_dict_path(self, levels, values):
        var = Categorical("g", levels)
        assert core._sorted_level_indices(var.levels, values) is None
        assert np.array_equal(var.level_indices(values), var._dict_level_indices(values))

    def test_scenario5_replication_makes_no_dict_lookup(self, monkeypatch):
        def refuse(self, values):
            raise AssertionError(f"dict lookup of {len(values)} records")

        monkeypatch.setattr(Categorical, "_dict_level_indices", refuse)
        scenario = ScenarioSpec.from_table(5)
        p, q = (gen_population(pop, scenario, seed=core.substream(0, 0, key))
                for key, pop in enumerate("PQ"))
        equate_gke(NecInput.from_datasets(p, q))
        equate_sequential(p, q, OTHER_SCORE)


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
        assert np.allclose(t.covariate_marginal(), [0.5, 0.5])


class TestTabulate:
    def test_two_records(self):
        d = make_dataset([0, 1], [0, 1], scale=ScoreScale(0, 1))
        assert np.allclose(tabulate_counts(d) / d.n, [[0.5, 0.0], [0.0, 0.5]])

    def test_degenerate_mass(self):
        d = make_dataset([1] * 7, [1] * 7, scale=ScoreScale(0, 1))
        probs = tabulate_counts(d) / d.n
        assert probs[1, 1] == 1.0
        assert probs.sum() == 1.0

    def test_hand_count_three_by_two(self):
        scores = [0, 0, 1, 1, 1, 2]
        cells = [0, 0, 0, 1, 1, 1]
        d = make_dataset(scores, cells, scale=ScoreScale(0, 2))
        expect = np.array([[2, 0], [1, 2], [0, 1]]) / 6
        assert np.allclose(tabulate_counts(d) / d.n, expect)

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

    def test_take_equals_building_from_the_rows(self):
        space = CovariateSpace((Categorical("a", ("x", "y")), Binned("c", THRESHOLDS)))
        columns = {"a": np.array(["y", "x", "y", "x"], dtype=object),
                   "c": np.array([49.0, 100.0, 65.0, 72.5])}
        d = Dataset(ScoreScale(0, 3), space, np.array([0, 1, 2, 3]), columns)
        rows = np.array([3, 0, 0, 2, 1, 3])
        taken = d.take(rows)
        built = Dataset(d.scale, d.covariates, d.scores[rows],
                        {k: c[rows] for k, c in d.columns.items()})
        for got, want in ((taken.scores, built.scores),
                          (taken.cell_indices(), built.cell_indices()),
                          *((taken.columns[k], built.columns[k]) for k in columns)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        assert (taken.scale, taken.covariates, taken.n) == (built.scale, built.covariates, built.n)
        assert np.array_equal(tabulate_counts(taken), tabulate_counts(built))

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
            emp = tabulate_counts(d) / d.n
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
                             {"school": TokenColumn.encode(["a", "b", "zz", "b", "yy"])})
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

    def test_duplicate_header_name_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("score,g, g\n3,a,b\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 1: duplicate column 'g'"):
            read_person_csv(path, covariate_columns=["g"])

    def test_score_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("score,g\n3,a\n99999999999999999999,b\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 3: score '99999999999999999999' outside"):
            read_person_csv(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"score,g\n3,a\r\n4,\xff\n")
        with pytest.raises(CsvFormatError, match=r"latin1\.csv: line 3: not UTF-8 text"):
            read_person_csv(path)

    def test_field_beyond_csv_limit_names_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"score,g,note\n3,a,-\n4,b,{'n' * 200_000}\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 3: field larger than field limit"):
            read_person_csv(path, covariate_columns=["g"])

    def test_plain_file_is_read_in_one_columnar_pass(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("score,g,h\n3, 01,7\n1,1,x\n3,01 ,7\n", encoding="utf-8")
        with mock.patch.object(core, "_body_by_rows") as rows:
            raw = read_person_csv(path, covariate_columns=["g"])
        rows.assert_not_called()
        assert raw.scores.tolist() == [3, 1, 3]
        g = raw.columns["g"]
        assert [g.tokens[c] for c in g.codes] == ["01", "1", "01"]


# Fields of drawn person CSVs.  The plain ones (padded, "01" next to "1",
# eight bytes and more) are the columnar pass's to read; each odd one must
# make it hand the file to the row loop, or be rejected by both readers.
PLAIN_SCORES = st.one_of(st.integers(-3, 30).map(str),
                         st.sampled_from([" 7", "7 ", "\t7", "07", "+7", "-0"]))
ODD_SCORES = st.sampled_from(["٣", "1_0", "3.0", "", " ", "#4", "9" * 20, "7\x00", '"7"'])
PLAIN_TOKENS = st.sampled_from(["1", "01", "2", " 1", "1 ", "\tb ", "a", "#", "#c", "3.5", "nan",
                                "12345678", "123456789", "x" * (core.TOKEN_BYTES - 1)])
ODD_TOKENS = st.sampled_from(["y" * (core.TOKEN_BYTES + 2), "x" * core.TOKEN_BYTES, "", " ",
                              "é", "a\x00", '"a"', '"a,b"'])


@st.composite
def person_csv_texts(draw):
    """A person CSV over columns score, g (categorical), h (binned) and an
    unused x, in drawn order: plain rows plus up to three drawn defects."""
    header = draw(st.permutations(["score", "g", "h", "x"]))
    rows = [[draw(PLAIN_SCORES if name == "score" else PLAIN_TOKENS) for name in header]
            for _ in range(draw(st.integers(1, 6)))]
    blank_at, end, final_end = [], "\n", True
    for defect in draw(st.lists(st.sampled_from(
            ["field"] * 4 + ["ragged", "blank", "crlf", "no-final-end", "header"]), max_size=3)):
        r = draw(st.integers(0, len(rows) - 1))
        if defect == "field":
            k = draw(st.integers(0, len(rows[r]) - 1))
            score = k < len(header) and header[k] == "score"
            rows[r][k] = draw(ODD_SCORES if score else ODD_TOKENS)
        elif defect == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
        elif defect == "blank":
            blank_at.append(r)
        elif defect == "crlf":
            end = "\r\n"
        elif defect == "no-final-end":
            final_end = False
        else:
            header = [f" {header[0]}"] + header[1:]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for r in sorted(blank_at, reverse=True):
        lines.insert(r + 1, "")
    return end.join(lines) + (end if final_end else "")


def _person_csv_outcome(path):
    """Scores, typed columns and cells of the dataset read from ``path``, or
    the error that reading or coercing it raised."""
    try:
        raw = read_person_csv(path, covariate_columns=["g", "h"])
        space = CovariateSpace((Categorical("g", tuple(sorted(raw.columns["g"].tokens))),
                                Binned("h", (0.0, 5.0, 10.0))))
        scale = ScoreScale(int(raw.scores.min()), int(raw.scores.max()))
        data = coerce_dataset(raw, scale, space)
    except KeqError as exc:
        return type(exc), str(exc)
    return (data.scores.tolist(), {k: c.tolist() for k, c in data.columns.items()},
            data.cell_indices().tolist())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=person_csv_texts())
@example(text=f"score,g,h,x\n1,{'y' * (core.TOKEN_BYTES + 2)},1,1\n")
@example(text="score,g,h,x\n1,a,1,1\n\n2,b,3,1\n")
def test_columnar_pass_reads_what_the_row_loop_reads(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "people.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(core, "_columnar_body", return_value=None):
        expected = _person_csv_outcome(path)
    assert _person_csv_outcome(path) == expected
