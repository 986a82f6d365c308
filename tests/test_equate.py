"""Tests for the equating pipelines, covariate equating, and chains."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from keq.core import (
    Binned,
    Categorical,
    CovariateSpace,
    Dataset,
    JointProbabilityTable,
    ScoreDistribution,
    ScoreScale,
    ValidationError,
    discretize,
    substream,
)
from keq.continuize import P_TAIL, kernel_cdf
from keq.equate import (
    ChainPlan,
    ChainStep,
    ComposedMap,
    GkePipelineConfig,
    NecInput,
    PipelineSpec,
    PlanError,
    equate_chain,
    equate_covariate,
    equate_gke,
    equate_sequential,
)
from keq.simulate import OTHER_SCORE, ScenarioSpec, gen_population

PASSTHROUGH = GkePipelineConfig(presmooth=None)


def tvd(cond_a: dict, cond_b: dict) -> float:
    """Mean total variation distance between same-keyed conditional distributions."""
    return float(np.mean([0.5 * np.abs(cond_a[g] - cond_b[g]).sum() for g in cond_a]))


def gaussian_dist(scale, mean, sd):
    probs = norm.pdf(scale.points.astype(float), mean, sd)
    return ScoreDistribution(scale, probs / probs.sum())


def one_cell(x, y, omega=0.5):
    """The EG design: NEC over J x 1 tables on an empty covariate space."""
    space = CovariateSpace(())
    return NecInput(JointProbabilityTable(x.scale, space, x.probs[:, None]),
                    JointProbabilityTable(y.scale, space, y.probs[:, None]), omega)


# Property tests draw a fixed example sequence, which keeps the suite
# reproducible.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# A round trip through two kernel inversions, each accurate to about 1e-13.
ROUND_TRIP_TOL = 1e-9


@st.composite
def full_support_dist(draw):
    """A score distribution with mass at every point of a drawn scale.

    Where the continuized density is near zero the CDF is flat and its
    inverse ill-conditioned, so the round trip holds only where it is not."""
    n = draw(st.integers(1, 40))
    low = draw(st.integers(-5, 5))
    weights = np.array(draw(st.lists(st.floats(0.02, 1.0), min_size=n + 1, max_size=n + 1)))
    return ScoreDistribution(ScoreScale(low, low + n), weights / weights.sum())


def scenario_pair(sid, n, seed=0):
    from dataclasses import replace

    sc = replace(ScenarioSpec.from_table(sid), n=n)
    return (gen_population("P", sc, seed=(seed, 0)),
            gen_population("Q", sc, seed=(seed, 1)))


class TestEquateGke:
    def test_identical_distributions_give_identity(self):
        d = gaussian_dist(ScoreScale(0, 40), 20.0, 6.0)
        table = equate_gke(one_cell(d, d), PASSTHROUGH)
        assert np.max(np.abs(table.equated - d.scale.points)) < 1e-6

    def test_mapping_evaluates_between_score_points(self):
        d = gaussian_dist(ScoreScale(0, 40), 20.0, 6.0)
        mapping = equate_gke(one_cell(d, d), PASSTHROUGH).mapping
        assert mapping(17.25) == pytest.approx(17.25, abs=1e-6)

    def test_exact_shift_is_recovered(self):
        # y-scores are an exact +3 shift of x-scores: same probability
        # vector on a shifted scale.
        base = norm.pdf(np.arange(41.0), 20.0, 6.0)
        x = ScoreDistribution(ScoreScale(0, 40), base / base.sum())
        y = ScoreDistribution(ScoreScale(3, 43), base / base.sum())
        table = equate_gke(one_cell(x, y), PASSTHROUGH)
        pts = x.scale.points
        mid = slice(2, 39)  # middle 90% of the scale
        assert np.max(np.abs(table.equated[mid] - (pts[mid] + 3))) < 0.1

    def test_large_bandwidth_matches_linear_equating(self):
        sx = ScoreScale(0, 40)
        x = gaussian_dist(sx, 20.0, 6.0)
        y = gaussian_dist(sx, 22.0, 4.5)
        hx = 50 * np.sqrt(x.variance)
        hy = 50 * np.sqrt(y.variance)
        table = equate_gke(
            one_cell(x, y),
            GkePipelineConfig(presmooth=None, bandwidth_x=hx, bandwidth_y=hy),
        )
        pts = sx.points.astype(float)
        linear = y.mean + np.sqrt(y.variance / x.variance) * (pts - x.mean)
        assert np.max(np.abs(table.equated - linear)) < 0.05

    def test_near_symmetry_eg(self):
        sx = ScoreScale(0, 40)
        x = gaussian_dist(sx, 19.0, 6.0)
        y = gaussian_dist(sx, 23.0, 5.0)
        fwd = equate_gke(one_cell(x, y), PASSTHROUGH).mapping
        back = equate_gke(one_cell(y, x), PASSTHROUGH).mapping
        pts = sx.points.astype(float)[2:39]
        round_trip = np.array([back(fwd(p)) for p in pts])
        assert np.max(np.abs(round_trip - pts)) < 0.5

    @PROPERTY
    @given(full_support_dist(), full_support_dist())
    def test_eg_round_trip_returns_interior_points(self, x, y):
        # Y -> X uses the same two continuized CDFs as X -> Y, in the other
        # roles, so composing them inverts the map.  Interior points are those
        # whose equated value lies on Y's scale, where Y -> X does not clamp it.
        fwd = equate_gke(one_cell(x, y), PASSTHROUGH).mapping
        back = equate_gke(one_cell(y, x), PASSTHROUGH).mapping
        pts = x.scale.points.astype(float)
        interior = (fwd(pts) >= y.scale.min) & (fwd(pts) <= y.scale.max)
        round_trip = ComposedMap((fwd, back))(pts[interior])
        assert np.max(np.abs(round_trip - pts[interior]), initial=0.0) < ROUND_TRIP_TOL

    @PROPERTY
    @given(st.data())
    def test_nec_on_identical_tables_gives_identity(self, data):
        # Cells empty in the table are empty in both populations, and dropped.
        j, cells = data.draw(st.integers(2, 30)), data.draw(st.integers(2, 6))
        counts = np.array(data.draw(st.lists(st.integers(0, 20), min_size=j * cells,
                                             max_size=j * cells))).reshape(j, cells)
        assume(np.count_nonzero(counts.sum(axis=1)) >= 2)
        score, cell = np.nonzero(counts)
        n = counts[score, cell]
        table = Dataset(ScoreScale(0, j - 1),
                        CovariateSpace((Categorical("g", tuple(range(cells))),)),
                        np.repeat(score, n), {"g": np.repeat(cell, n)})
        config = GkePipelineConfig(presmooth=None, omega=data.draw(st.floats(0.0, 1.0)))
        result = PipelineSpec("GKE", config=config).run(table, table)
        # EquatingMap clips the source CDF into [P_TAIL, 1 - P_TAIL], so a point
        # whose CDF is clipped maps to the target quantile at the clip instead.
        pts = table.scale.points.astype(float)
        cdf = kernel_cdf(result.mapping.source_cdf, pts)
        unclipped = (cdf > P_TAIL) & (cdf < 1.0 - P_TAIL)
        assert np.max(np.abs(result.equated - pts)[unclipped]) < ROUND_TRIP_TOL

    def test_population_role_consistency_nec(self):
        p_data, q_data = scenario_pair(1, 4000, seed=3)
        fwd = equate_gke(NecInput.from_datasets(p_data, q_data, omega=0.3)).mapping
        back = equate_gke(NecInput.from_datasets(q_data, p_data, omega=0.7)).mapping
        pts = np.arange(101.0)[10:91]
        round_trip = np.array([back(fwd(p)) for p in pts])
        assert np.max(np.abs(round_trip - pts)) < 0.5

    def test_degenerate_target_rejected(self):
        x = gaussian_dist(ScoreScale(0, 10), 5.0, 2.0)
        y = ScoreDistribution(ScoreScale(0, 10), [0, 0, 0, 1.0] + [0] * 7)
        with pytest.raises(ValidationError, match="target distribution degenerate"):
            equate_gke(one_cell(x, y), PASSTHROUGH)

    def test_presmoothing_requires_counts(self):
        d = gaussian_dist(ScoreScale(0, 10), 5.0, 2.0)
        with pytest.raises(ValidationError, match="counts"):
            equate_gke(one_cell(d, d), GkePipelineConfig())

    def test_monotone_output(self):
        p_data, q_data = scenario_pair(5, 3000, seed=1)
        table = equate_gke(NecInput.from_datasets(p_data, q_data))
        assert np.all(np.diff(table.equated) >= -1e-9)


class TestEquateCovariate:
    def test_identity_when_populations_coincide(self):
        p_data, _ = scenario_pair(1, 8000, seed=5)
        _, transformed = equate_covariate(p_data, p_data, OTHER_SCORE)
        delta = np.abs(
            np.asarray(transformed.columns[OTHER_SCORE])
            - np.asarray(p_data.columns[OTHER_SCORE], dtype=float)
        )
        assert delta.max() < 0.05

    def test_deterministic_shift_recovered(self):
        p_data, _ = scenario_pair(1, 20_000, seed=6)
        q_data = Dataset(p_data.scale, p_data.covariates, p_data.scores,
                         {**p_data.columns, OTHER_SCORE: p_data.columns[OTHER_SCORE] + 10})
        nested, _ = equate_covariate(p_data, q_data, OTHER_SCORE, config=PASSTHROUGH)
        values = np.asarray(q_data.columns[OTHER_SCORE], dtype=float)
        lo, hi = np.quantile(values, [0.05, 0.95])
        grid = np.arange(int(lo), int(hi) + 1, dtype=float)
        assert np.max(np.abs(np.asarray(nested.mapping(grid)) - (grid - 10))) < 0.1

    def test_scenario5_transform_aligns_conditional_bins(self):
        # After equating the shifted covariate, the per-(school, attempt)
        # conditional bin distributions of Q match P's within sampling
        # noise; the noise floor is estimated from two independent draws
        # of the same population.
        p_data, q_data = scenario_pair(5, 50_000, seed=2)
        _, q_star = equate_covariate(p_data, q_data, OTHER_SCORE)
        thresholds = (50.0, 60.0, 70.0, 80.0, 100.0)

        def conditionals(data):
            school = np.asarray(data.columns["school"], dtype=int)
            attempt = np.asarray(data.columns["attempt"], dtype=int)
            bins = discretize(np.asarray(data.columns[OTHER_SCORE], dtype=float),
                              thresholds)
            out = {}
            for c1 in (0, 1):
                for c2 in (0, 1):
                    mask = (school == c1) & (attempt == c2)
                    if mask.sum() == 0:
                        continue
                    counts = np.bincount(bins[mask], minlength=5)
                    out[(c1, c2)] = counts / counts.sum()
            return out

        cond_p = conditionals(p_data)
        cond_q_star = conditionals(q_star)
        cond_q_raw = conditionals(q_data)
        common = sorted(set(cond_p) & set(cond_q_star))
        aligned = tvd({g: cond_p[g] for g in common},
                      {g: cond_q_star[g] for g in common})
        raw = tvd({g: cond_p[g] for g in common},
                  {g: cond_q_raw[g] for g in common})
        # noise floor: an independent draw of Q's own process, shift undone
        q_control = scenario_pair(1, 50_000, seed=9)[1]
        cond_control = conditionals(q_control)
        floor = tvd({g: cond_q_star[g] for g in common},
                    {g: cond_control[g] for g in common})
        assert aligned < 0.5 * raw
        assert aligned < max(0.05, 1.5 * floor)

    @pytest.mark.parametrize("raise_q_to", [None, 12], ids=["scenario-5", "partial-q-range"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_transformed_column_is_the_map_of_the_raw_column(self, seed, raise_q_to):
        # With raise_q_to, Q's covariate starts that far above the joint
        # scale's minimum, so reading the table must offset by that minimum,
        # not by Q's own.
        p_data, q_data = scenario_pair(5, 5000, seed=seed)
        if raise_q_to is not None:
            low = min(np.min(p_data.columns[OTHER_SCORE]), np.min(q_data.columns[OTHER_SCORE]))
            q_data = Dataset(q_data.scale, q_data.covariates, q_data.scores, {
                **q_data.columns,
                OTHER_SCORE: np.maximum(q_data.columns[OTHER_SCORE], low + raise_q_to)})
            assert np.min(q_data.columns[OTHER_SCORE]) > np.min(p_data.columns[OTHER_SCORE])
        table, transformed = equate_covariate(p_data, q_data, OTHER_SCORE)
        raw = np.asarray(q_data.columns[OTHER_SCORE], dtype=float)
        column = np.asarray(transformed.columns[OTHER_SCORE])
        assert column.tobytes() == np.asarray(table.mapping(raw)).tobytes()
        for name in ("school", "attempt"):
            assert np.array_equal(transformed.columns[name], q_data.columns[name])
        assert np.array_equal(transformed.scores, q_data.scores)

    def test_non_integer_covariate_rejected(self):
        p_data, q_data = scenario_pair(1, 500, seed=7)
        q_bad = Dataset(q_data.scale, q_data.covariates, q_data.scores,
                        {**q_data.columns, OTHER_SCORE: q_data.columns[OTHER_SCORE] + 0.25})
        with pytest.raises(ValidationError, match="integer"):
            equate_covariate(p_data, q_bad, OTHER_SCORE)

    def test_categorical_covariate_rejected(self):
        p_data, q_data = scenario_pair(1, 500, seed=7)
        with pytest.raises(ValidationError, match="binned"):
            equate_covariate(p_data, q_data, "school")


class TestEquateSequential:
    def test_identity_covariate_map_reduces_to_plain_gke(self):
        p_data, q_data = scenario_pair(1, 5000, seed=11)
        plain = equate_gke(NecInput.from_datasets(p_data, q_data))
        seq = equate_sequential(p_data, q_data, OTHER_SCORE,
                                covariate_map=lambda v: v)
        assert np.max(np.abs(seq.equated - plain.equated)) < 1e-6
        assert seq.method == "sequential GKE"

    def test_nested_presmoothing_fits_kept_by_population(self):
        p_data, q_data = scenario_pair(1, 3000, seed=2)
        fits = equate_sequential(p_data, q_data, OTHER_SCORE).diagnostics[
            "covariate_equating"]["presmooth"]
        nested, _ = equate_covariate(p_data, q_data, OTHER_SCORE)
        # The nested run's source is the second population.
        assert fits == {"p": nested.diagnostics["presmooth"]["q"],
                        "q": nested.diagnostics["presmooth"]["p"]}
        assert {"converged", "iterations", "score_residual", "step_halvings"} <= set(fits["p"])
        given_map = equate_sequential(p_data, q_data, OTHER_SCORE, covariate_map=lambda v: v)
        assert "presmooth" not in given_map.diagnostics["covariate_equating"]

    def test_explicit_bandwidths_stay_out_of_the_covariate_run(self):
        sc = ScenarioSpec.from_table(5)
        p_data = gen_population("P", sc, seed=substream(0, 0, 0))
        q_data = gen_population("Q", sc, seed=substream(0, 0, 1))
        fixed = GkePipelineConfig(bandwidth_x=0.6, bandwidth_y=0.6)
        default, _ = equate_covariate(p_data, q_data, OTHER_SCORE)
        nested, _ = equate_covariate(p_data, q_data, OTHER_SCORE, config=fixed)
        for key in ("h_x", "h_y"):
            assert nested.diagnostics[key] == default.diagnostics[key] != 0.6
        table = equate_sequential(p_data, q_data, OTHER_SCORE, config=fixed)
        assert (table.diagnostics["h_x"], table.diagnostics["h_y"]) == (0.6, 0.6)

    def test_scenario5_sequential_is_less_biased(self):
        p_data, q_data = scenario_pair(5, 50_000, seed=4)
        idx = np.arange(101.0)
        plain = equate_gke(NecInput.from_datasets(p_data, q_data))
        seq = equate_sequential(p_data, q_data, OTHER_SCORE)
        assert (np.abs(seq.equated - idx).mean()
                < np.abs(plain.equated - idx).mean())


@pytest.mark.parametrize("method", ["EG", "GKE", "sequential GKE"])
def test_pipeline_spec_runs_the_direct_call(method):
    p_data, q_data = scenario_pair(5, 1500, seed=2)
    config = GkePipelineConfig(omega=0.4)
    if method == "EG":
        direct = equate_gke(NecInput.from_datasets(p_data.restrict(()), q_data.restrict(()),
                                                   omega=0.4), config)
    elif method == "GKE":
        direct = equate_gke(NecInput.from_datasets(p_data, q_data, omega=0.4), config)
    else:
        direct = equate_sequential(p_data, q_data, OTHER_SCORE, config)
    covariate = OTHER_SCORE if method == "sequential GKE" else None
    table = PipelineSpec(method, covariate, config).run(p_data, q_data)
    assert table.method == method
    assert np.array_equal(table.equated, direct.equated)


@pytest.mark.parametrize("method", ["EG", "GKE"])
def test_pipeline_spec_rejects_covariate_it_would_ignore(method):
    with pytest.raises(ValidationError, match="only it, names a covariate"):
        PipelineSpec(method, OTHER_SCORE)


def test_eg_ignores_covariates_and_omega():
    p_data, q_data = scenario_pair(5, 1500, seed=2)
    bare = (p_data.restrict(()), q_data.restrict(()))
    base = PipelineSpec("EG").run(*bare).equated
    for omega in (None, 0.2, 0.8):
        spec = PipelineSpec("EG", config=GkePipelineConfig(omega=omega))
        for data in ((p_data, q_data), bare):
            assert np.max(np.abs(spec.run(*data).equated - base)) < 1e-12


def synthetic_form(rng, n, mean_shift=0.0, weak=False):
    scale = ScoreScale(0, 50)
    school = rng.integers(0, 2, size=n) if not weak else (rng.random(n) < 0.15).astype(int)
    attempt = (rng.random(n) < (0.8 if not weak else 0.1)).astype(int)
    raw = rng.normal(25 + 6 * school + 4 * attempt + mean_shift, 7, size=n)
    scores = np.clip(np.round(raw), 0, 50).astype(int)
    space = CovariateSpace((Categorical("school", (0, 1)),
                            Categorical("attempt", (0, 1))))
    return Dataset(scale, space, scores, {"school": school, "attempt": attempt})


class TestEquateChain:
    def test_single_identity_step(self):
        rng = np.random.default_rng(0)
        form = synthetic_form(rng, 5000)
        plan = ChainPlan("base", (ChainStep(source="new", target="base"),))
        result = equate_chain(plan, {"base": form, "new": form})
        table = result.composed_tables["new"]
        assert np.max(np.abs(table.equated - form.scale.points)) < 1e-6

    def test_two_chained_shifts_compose(self):
        # Deterministic +3 shifts: identical draws on shifted scales, so
        # each step is an exact shift and the composition is x + 6.
        rng = np.random.default_rng(1)
        base_scores = rng.binomial(30, 0.5, size=20_000) + 5
        space = CovariateSpace(())

        def form(offset):
            return Dataset(ScoreScale(5 + offset, 35 + offset), space,
                           base_scores + offset, {})

        plan = ChainPlan("c", (
            ChainStep(source="a", target="b"),
            ChainStep(source="b", target="c"),
        ))
        result = equate_chain(plan, {"a": form(0), "b": form(3), "c": form(6)})
        composed = result.composed_tables["a"]
        pts = np.arange(5, 36)
        mid = slice(2, 29)
        assert np.max(np.abs(composed.equated[mid] - (pts[mid] + 6))) < 0.05
        assert composed.diagnostics["path"] == ["a->b", "b->c"]

    def test_six_form_plan_validates_and_orders(self):
        rng = np.random.default_rng(2)
        datasets = {
            "s2017": synthetic_form(rng, 6000),
            "s2018": synthetic_form(rng, 6000),
            "s2019": synthetic_form(rng, 6000),
            "f2017": synthetic_form(rng, 2000, mean_shift=-4.0, weak=True),
            "f2018": synthetic_form(rng, 2000, mean_shift=-4.0, weak=True),
            "f2019": synthetic_form(rng, 2000, mean_shift=-4.0, weak=True),
        }
        plan = ChainPlan("s2017", (
            ChainStep(source="s2018", target="s2017"),
            ChainStep(source="s2019", target="s2017"),
            ChainStep(source="f2018", target="f2017"),
            ChainStep(source="f2019", target="f2017"),
            ChainStep(source="f2017", target="s2017", design="nec",
                      covariates=("school", "attempt")),
        ))
        result = equate_chain(plan, datasets)
        assert len(result.step_tables) == 5
        assert set(result.composed_tables) == {"s2018", "s2019", "f2017",
                                               "f2018", "f2019"}
        # fall 2018 composes through fall 2017 onto the baseline
        assert result.composed_tables["f2018"].diagnostics["path"] == [
            "f2018->f2017", "f2017->s2017"
        ]
        for table in result.composed_tables.values():
            assert np.all(np.diff(table.equated) >= -1e-9)

    def test_cycle_rejected(self):
        with pytest.raises(PlanError, match="cycle|reach"):
            ChainPlan("base", (
                ChainStep(source="a", target="b"),
                ChainStep(source="b", target="a"),
            ))

    @pytest.mark.parametrize("steps, named", [
        ((ChainStep(source="a", target="b"), ChainStep(source="b", target="c"),
          ChainStep(source="c", target="a")), "cycle in plan"),
        ((ChainStep(source="a", target="base", design="nec", covariates=("g",),
                    target_equated_covariates={"g": "nope"}),),
         "step 'a->base' references unknown step 'nope'"),
        ((ChainStep(source="a", target="base", design="nec", covariates=("g",),
                    equated_covariates={"g": "a->base"}),),
         "cyclic step references involving 'a->base'"),
        ((ChainStep(source="a", target="base", design="nec", covariates=("g",),
                    equated_covariates={"g": "b->base"}),
          ChainStep(source="b", target="base", design="nec", covariates=("g",),
                    target_equated_covariates={"g": "a->base"})),
         "cyclic step references involving"),
    ], ids=["form-cycle", "unknown-reference", "self-reference", "reference-cycle"])
    def test_malformed_plan_rejected_when_built(self, steps, named):
        with pytest.raises(PlanError, match=named):
            ChainPlan("base", steps)

    @pytest.mark.parametrize("attr", ["equated_covariates", "target_equated_covariates"])
    def test_equated_covariate_outside_step_covariates_rejected(self, attr):
        with pytest.raises(PlanError, match=f"step 'x': {attr} names 'other', which is not"):
            ChainStep(source="a", target="b", id="x", **{attr: {"other": "align-y"}})
        with pytest.raises(PlanError, match=f"{attr} names 'other'"):
            ChainStep(source="a", target="b", design="nec", covariates=("g",),
                      **{attr: {"g": "align-y", "other": "align-y"}})

    @pytest.mark.parametrize("attr", ["equated_covariates", "target_equated_covariates"])
    @pytest.mark.parametrize("ids", [[], ()], ids=["list", "tuple"])
    def test_equated_covariate_without_step_ids_rejected(self, attr, ids):
        with pytest.raises(PlanError, match=f"step 'x': {attr} gives 'g' no step ids"):
            ChainStep(source="a", target="b", design="nec", covariates=("g",), id="x",
                      **{attr: {"g": ids}})

    def test_run_order_puts_referenced_steps_first(self):
        plan = ChainPlan("base", (
            ChainStep(source="x", target="base", design="nec", covariates=("g",),
                      equated_covariates={"g": ("cov-b", "cov-a")}),
            ChainStep(source="covB", target="covC", id="cov-b"),
            ChainStep(source="covA", target="covB", id="cov-a"),
        ))
        order = [s.id for s in plan.run_order]
        assert sorted(order) == ["cov-a", "cov-b", "x->base"]
        assert order[-1] == "x->base"

    @pytest.mark.parametrize("omega", [2, -0.1, float("nan"), "0.5", True])
    def test_step_omega_outside_unit_interval_rejected(self, omega):
        with pytest.raises(PlanError, match="omega"):
            ChainStep(source="a", target="b", design="nec", covariates=("g",),
                      omega=omega)

    def test_dead_end_subchain_gets_no_composed_table(self):
        rng = np.random.default_rng(6)
        plan = ChainPlan("base", (
            ChainStep(source="a", target="c"),
            ChainStep(source="b", target="base"),
        ))
        datasets = {n: synthetic_form(rng, 800) for n in ("a", "b", "c", "base")}
        result = equate_chain(plan, datasets)
        assert set(result.step_tables) == {"a->c", "b->base"}
        assert set(result.composed_tables) == {"b"}

    def test_missing_dataset_rejected(self):
        plan = ChainPlan("base", (ChainStep(source="a", target="base"),))
        rng = np.random.default_rng(3)
        with pytest.raises(PlanError, match="missing datasets: base"):
            equate_chain(plan, {"a": synthetic_form(rng, 500)})

    def test_unknown_step_reference_rejected(self):
        with pytest.raises(PlanError, match="unknown step"):
            ChainPlan("base", (
                ChainStep(source="a", target="base", design="nec",
                          covariates=("school",),
                          equated_covariates={"school": ("nope",)}),
            ))

    def test_equated_covariate_is_transformed_before_tabulation(self):
        # An equating chain where the covariate column of the source is
        # passed through a prior step's map before the NEC tabulation.
        rng = np.random.default_rng(5)
        scale = ScoreScale(0, 50)
        space = CovariateSpace((Binned("other", (20.0, 30.0, 40.0)),))

        def form(cov_offset, n=8000):
            other = np.clip(np.round(rng.normal(28, 8, n)), 0, 50) + cov_offset
            scores = np.clip(np.round(rng.normal(24 + 0.3 * (other - cov_offset), 6)),
                             0, 50).astype(int)
            return Dataset(scale, space, scores, {"other": other})

        datasets = {"covA": form(10), "covB": form(0), "x": form(10), "base": form(0)}
        plan = ChainPlan("base", (
            ChainStep(source="covA", target="covB", id="align-cov"),
            ChainStep(source="x", target="base", design="nec",
                      covariates=("other",),
                      equated_covariates={"other": ("align-cov",)}),
        ))
        result = equate_chain(plan, datasets)
        assert set(result.step_tables) == {"align-cov", "x->base"}
        aligned = result.composed_tables["x"]
        plain = ChainPlan("base", (
            ChainStep(source="x", target="base", design="nec",
                      covariates=("other",)),
        ))
        raw = equate_chain(plain, datasets).composed_tables["x"]
        mid = slice(10, 41)
        identity = scale.points[mid]
        assert (np.abs(aligned.equated[mid] - identity).mean()
                < np.abs(raw.equated[mid] - identity).mean())
        assert np.max(np.abs(aligned.equated[mid] - identity)) < 3.0

    def test_equated_covariates_equal_maps_applied_record_by_record(self):
        # One and two maps (the same step twice included), on the source and
        # on the target; the reference sends each whole column through each map.
        forms = dict(zip("pqrs", (*scenario_pair(5, 2000, seed=21),
                                  *scenario_pair(5, 2000, seed=22))))
        plan = ChainPlan("q", (
            ChainStep(source="p", target="q", id="a"),
            ChainStep(source="r", target="q", design="nec", covariates=("school", OTHER_SCORE),
                      equated_covariates={OTHER_SCORE: "a"},
                      target_equated_covariates={OTHER_SCORE: ("a", "a")}, id="b"),
            ChainStep(source="s", target="r", design="nec", covariates=("attempt", OTHER_SCORE),
                      equated_covariates={OTHER_SCORE: ("a", "b")},
                      target_equated_covariates={OTHER_SCORE: "b"}, id="c"),
        ))
        result = equate_chain(plan, forms)

        def mapped(form, step_ids, covariates):
            data = forms[form]
            values = data.columns[OTHER_SCORE]
            for step_id in step_ids:
                values = result.step_tables[step_id].mapping(values)
            return Dataset(data.scale, data.covariates, data.scores,
                           {**data.columns, OTHER_SCORE: values}).restrict(covariates)

        for step in plan.steps[1:]:
            src = mapped(step.source, step.equated_covariates[OTHER_SCORE], step.covariates)
            tgt = mapped(step.target, step.target_equated_covariates[OTHER_SCORE], step.covariates)
            expected = PipelineSpec("GKE").run(src, tgt)
            assert np.array_equal(result.step_tables[step.id].equated, expected.equated)
