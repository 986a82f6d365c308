"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

The heavy Monte-Carlo criteria (1 and 2) use a seed fixed in advance and
parallel replications; they dominate the runtime (a few minutes total).
"""

import csv
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
from scipy.stats import norm

from keq.cli import main, read_equating_table
from keq.continuize import ContinuizedCdf, inverse_cdf, kernel_cdf, kernel_pdf
from keq.core import (
    Categorical,
    CovariateSpace,
    Dataset,
    JointProbabilityTable,
    ScoreDistribution,
    ScoreScale,
    tabulate_counts,
)
from keq.equate import GkePipelineConfig, NecInput, equate_gke, equate_sequential
from keq.presmooth import LoglinearSpec, build_design_matrix, fit_loglinear
from keq.probmix import nec_target_probs
from keq.simulate import (
    METHOD_GKE,
    METHOD_SEQ,
    BinaryPairParams,
    ScenarioSpec,
    gen_population,
    run_scenario,
    sample_binary_pair,
)
from keq.uncertainty import BootstrapConfig, PipelineSpec, bootstrap_see

SEED = 1  # fixed before any acceptance run; see decisions ledger
THREADS = min(4, os.cpu_count() or 1)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def mid_slice(n_points, frac=0.8):
    drop = round((1 - frac) / 2 * n_points)
    return slice(drop, n_points - drop)


def test_criterion_01_scenario_ediff_levels():
    """Scenario-5 and scenario-7 mean EDIFF reproduce the reported levels."""
    start = time.time()
    r5 = run_scenario(ScenarioSpec.from_table(5), 100, seed=SEED, threads=THREADS)
    r7 = run_scenario(ScenarioSpec.from_table(7), 100, seed=SEED, threads=THREADS)
    elapsed = time.time() - start
    ok5 = 5.32 - 0.80 <= r5.mean_ediff <= 5.32 + 0.80
    ok7 = 2.13 - 0.35 <= r7.mean_ediff <= 2.13 + 0.35
    report(
        1, ok5 and ok7 and elapsed < 900,
        f"scenario5 EDIFF={r5.mean_ediff:.3f} (target 5.32+-0.80), "
        f"scenario7 EDIFF={r7.mean_ediff:.3f} (target 2.13+-0.35), "
        f"runtime {elapsed:.0f}s (<900s)",
    )


def test_criterion_02_bias_ordering_at_large_n():
    """Covariate misalignment biases GKE; sequential GKE repairs it."""
    r6 = run_scenario(ScenarioSpec.from_table(6), 20, seed=SEED, threads=THREADS)
    r2 = run_scenario(ScenarioSpec.from_table(2), 20, seed=SEED,
                      methods=(METHOD_GKE,), threads=THREADS)
    mid = mid_slice(len(r6.score_points))
    gke6 = float(np.abs(r6.per_method[METHOD_GKE]["bias"][mid]).mean())
    seq6 = float(np.abs(r6.per_method[METHOD_SEQ]["bias"][mid]).mean())
    gke2 = float(np.abs(r2.per_method[METHOD_GKE]["bias"][mid]).mean())
    report(
        2, gke6 > seq6 and gke2 < 0.5,
        f"scenario6 mean|bias| GKE={gke6:.3f} > seq={seq6:.3f}; "
        f"scenario2 GKE={gke2:.3f} (<0.5) over the middle 80%",
    )


def test_criterion_03_sequential_reduction():
    """Sequential GKE with a forced-identity covariate map is plain GKE."""
    sc = ScenarioSpec.from_table(1)
    p_data = gen_population("P", sc, seed=(SEED, 0))
    q_data = gen_population("Q", sc, seed=(SEED, 1))
    plain = equate_gke(NecInput.from_datasets(p_data, q_data))
    seq = equate_sequential(p_data, q_data, "other_score",
                            covariate_map=lambda v: v)
    gap = float(np.max(np.abs(seq.equated - plain.equated)))
    report(3, gap < 1e-6, f"max |sequential - plain| = {gap:.2e} (<1e-6)")


def test_criterion_04_linear_equating_limit():
    """Huge bandwidths collapse kernel equating onto linear equating."""
    scale = ScoreScale(0, 40)
    pts = scale.points.astype(float)
    px = norm.pdf(pts, 20.0, 6.0)
    py = norm.pdf(pts, 22.0, 4.5)
    x = ScoreDistribution(scale, px / px.sum())
    y = ScoreDistribution(scale, py / py.sum())
    config = GkePipelineConfig(presmooth=None,
                               bandwidth_x=50 * math.sqrt(x.variance),
                               bandwidth_y=50 * math.sqrt(y.variance))
    # The EG design: NEC over J x 1 tables on an empty covariate space.
    space = CovariateSpace(())
    eg = NecInput(JointProbabilityTable(scale, space, x.probs[:, None]),
                  JointProbabilityTable(scale, space, y.probs[:, None]), 0.5)
    table = equate_gke(eg, config)
    linear = y.mean + math.sqrt(y.variance / x.variance) * (pts - x.mean)
    gap = float(np.max(np.abs(table.equated - linear)))
    report(4, gap < 0.05, f"max |kernel - linear| = {gap:.2e} (<0.05)")


def test_criterion_05_nec_probability_identity():
    """Target-population probabilities sum to one; hand oracle reproduces."""
    rng = np.random.default_rng(SEED)
    space = CovariateSpace((Categorical("g", (0, 1, 2)),))
    worst = 0.0
    for _ in range(1000):
        J = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(J * 3)).reshape(J, 3)
        q = rng.dirichlet(np.ones(J * 3)).reshape(J, 3)
        pt = JointProbabilityTable(ScoreScale(0, J - 1), space, p)
        qt = JointProbabilityTable(ScoreScale(0, J - 1), space, q)
        r, s = nec_target_probs(pt, qt, float(rng.uniform()))
        worst = max(worst, abs(r.probs.sum() - 1), abs(s.probs.sum() - 1))
    two = CovariateSpace((Categorical("g", (0, 1)),))
    pt = JointProbabilityTable(ScoreScale(0, 1), two, [[0.2, 0.1], [0.3, 0.4]])
    qt = JointProbabilityTable(ScoreScale(0, 1), two, [[0.2, 0.2], [0.2, 0.4]])
    r, _ = nec_target_probs(pt, qt, 0.5)
    hand_ok = np.allclose(r.probs, [0.29, 0.71], atol=1e-12)
    report(5, worst < 1e-10 and hand_ok,
           f"worst |sum-1| = {worst:.2e} over 1000 triples (<1e-10); "
           f"hand example r=(0.29, 0.71) {'ok' if hand_ok else 'wrong'}")


def test_criterion_06_continuization_invariants():
    """Moment preservation, monotonicity, and inverse round trips."""
    rng = np.random.default_rng(SEED)
    worst_mean, worst_var, worst_inv = 0.0, 0.0, 0.0
    monotone = True
    for _ in range(200):
        n = int(rng.integers(4, 36))
        probs = rng.dirichlet(np.full(n + 1, rng.uniform(0.5, 3.0)))
        d = ScoreDistribution(ScoreScale(0, n), probs)
        if d.variance <= 1e-12:
            continue
        c = ContinuizedCdf(d, float(rng.uniform(0.2, 2.5)))
        sd = math.sqrt(d.variance + c.h**2)
        grid = np.linspace(d.mean - 14 * sd, d.mean + 14 * sd, 6001)
        pdf = kernel_pdf(c, grid)
        mean = np.trapezoid(grid * pdf, grid)
        var = np.trapezoid(grid**2 * pdf, grid) - mean**2
        worst_mean = max(worst_mean, abs(mean - d.mean))
        worst_var = max(worst_var, abs(var - d.variance) / d.variance)
        xs = np.sort(rng.uniform(-1.0, n + 1.0, size=8))
        cdf_vals = kernel_cdf(c, xs)
        monotone &= bool(np.all(np.diff(cdf_vals) > 0))
        for x0 in rng.uniform(0.5, n - 0.5, size=3):
            worst_inv = max(worst_inv,
                            abs(inverse_cdf(c, kernel_cdf(c, float(x0))) - x0))
    ok = worst_mean < 1e-6 and worst_var < 1e-4 and monotone and worst_inv < 1e-8
    report(6, ok,
           f"mean err {worst_mean:.2e} (<1e-6), relative var err {worst_var:.2e} "
           f"(<1e-4), strictly monotone: {monotone}, inverse round trip "
           f"{worst_inv:.2e} (<1e-8) over 200 distributions")


def test_criterion_07_presmoothing_moment_matching():
    """Every converged fit matches observed design-column inner products."""
    rng = np.random.default_rng(SEED)
    cases = []
    sc1 = ScenarioSpec.from_table(1)
    for pop, seed in (("P", (SEED, 0)), ("Q", (SEED, 1))):
        data = gen_population(pop, sc1, seed=seed)
        cases.append((tabulate_counts(data), data.scale, data.covariates,
                      LoglinearSpec()))
    sc5 = ScenarioSpec.from_table(5)
    q5 = gen_population("Q", sc5, seed=(SEED, 2))
    cases.append((tabulate_counts(q5), q5.scale, q5.covariates, LoglinearSpec()))
    small = CovariateSpace((Categorical("g", (0, 1)),))
    for _ in range(3):
        counts = rng.poisson(5.0, size=(21, 2)).astype(float)
        cases.append((counts, ScoreScale(0, 20), small,
                      LoglinearSpec(score_degree=4)))
    worst = 0.0
    all_converged = True
    for counts, scale, covs, spec in cases:
        design = build_design_matrix(scale, covs, spec)
        fit = fit_loglinear(counts, design, scale, covs, spec=spec)
        all_converged &= fit.converged
        n = counts.sum()
        fitted = fit.fitted_probs.probs.reshape(-1) * n
        resid = design.T @ (np.asarray(counts, dtype=float).reshape(-1) - fitted)
        worst = max(worst, float(np.max(np.abs(resid)) / (1e-6 * n)))
    report(7, all_converged and worst < 1.0,
           f"all {len(cases)} fits converged: {all_converged}; worst residual "
           f"= {worst:.3f} x (1e-6 N) tolerance")


def test_criterion_08_binary_generator():
    """Joint probability and odds ratio of the binary covariate pair."""
    c1, c2 = sample_binary_pair(BinaryPairParams(0.3, 0.8, 8.0), 1_000_000, SEED)
    p11 = float(np.mean((c1 == 1) & (c2 == 1)))
    n11 = np.sum((c1 == 1) & (c2 == 1))
    n10 = np.sum((c1 == 1) & (c2 == 0))
    n01 = np.sum((c1 == 0) & (c2 == 1))
    n00 = np.sum((c1 == 0) & (c2 == 0))
    or_hat = float(n11 * n00 / (n10 * n01))
    ok = abs(p11 - 0.2869323) < 0.001 and abs(or_hat - 8.0) < 0.25
    report(8, ok, f"empirical p11={p11:.5f} (0.2869+-0.001), "
                  f"odds ratio={or_hat:.3f} (8+-0.25) at n=1e6")


def _binomial_dataset(rng, n, scale=ScoreScale(0, 30), p=0.5):
    space = CovariateSpace(())
    return Dataset(scale, space, rng.binomial(scale.max, p, size=n), {})


def test_criterion_09_bootstrap_see_scaling():
    """SEE decays like 1/sqrt(n); degenerate data gives exactly zero."""
    pipeline = PipelineSpec("EG", config=GkePipelineConfig(
        presmooth=LoglinearSpec(score_degree=4, interaction_degree=0)))
    mid = slice(10, 21)
    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p_small = _binomial_dataset(rng, 400)
        q_small = _binomial_dataset(rng, 400, p=0.55)
        p_big = _binomial_dataset(rng, 1600)
        q_big = _binomial_dataset(rng, 1600, p=0.55)
        small = bootstrap_see(p_small, q_small, pipeline, BootstrapConfig(150, seed))
        big = bootstrap_see(p_big, q_big, pipeline, BootstrapConfig(150, seed))
        ratios.append(float(np.median(small.see[mid] / big.see[mid])))
    med = float(np.median(ratios))

    def shift_pipeline(p_data, q_data):
        return p_data.scale.points + (q_data.scores.mean() - p_data.scores.mean())

    space = CovariateSpace(())
    degenerate = Dataset(ScoreScale(0, 10), space, np.full(50, 7), {})
    deg = bootstrap_see(degenerate, degenerate, shift_pipeline,
                        BootstrapConfig(30, seed=SEED))
    deg_zero = bool(np.all(deg.see == 0.0))
    report(9, 1.6 <= med <= 2.5 and deg_zero,
           f"median mid-scale SEE ratio (n vs 4n) = {med:.3f} (in [1.6, 2.5]); "
           f"degenerate-data SEE exactly zero: {deg_zero}")


def _write_form_csv(path, rng, n, mean, school_rate):
    school = (rng.random(n) < school_rate).astype(int)
    attempt = (rng.random(n) < 0.5 + 0.3 * school_rate).astype(int)
    scores = np.clip(np.round(rng.normal(mean + 4 * school + 3 * attempt, 7, n)),
                     0, 50).astype(int)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["score", "school", "attempt"])
        for i in range(n):
            writer.writerow([scores[i], school[i], attempt[i]])


def _figure8_plan(tmp_path):
    rng = np.random.default_rng(SEED)
    forms = {}
    for name, mean, rate, n in (
        ("s2017", 26, 0.5, 4000), ("s2018", 27, 0.5, 4000), ("s2019", 25, 0.5, 4000),
        ("f2017", 20, 0.15, 1500), ("f2018", 21, 0.15, 1500), ("f2019", 19, 0.15, 1500),
    ):
        path = tmp_path / f"{name}.csv"
        _write_form_csv(path, rng, n, mean, rate)
        forms[name] = f"{name}.csv"
    plan = {
        "baseline": "s2017",
        "scale": [0, 50],
        "covariates": {"school": {"type": "categorical"},
                       "attempt": {"type": "categorical"}},
        "datasets": forms,
        "steps": [
            {"source": "s2018", "target": "s2017", "design": "eg"},
            {"source": "s2019", "target": "s2017", "design": "eg"},
            {"source": "f2018", "target": "f2017", "design": "eg"},
            {"source": "f2019", "target": "f2017", "design": "eg"},
            {"source": "f2017", "target": "s2017", "design": "nec",
             "covariates": ["school", "attempt"]},
        ],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return plan_path


def test_criterion_10_chain_on_synthetic_standins(tmp_path):
    """The published per-score tables are not reproducible (the exam data
    is unpublished); instead the full multi-step chain must run end to end
    on synthetic stand-ins, monotone and byte-reproducible."""
    plan_path = _figure8_plan(tmp_path)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["chain", "--plan", str(plan_path), "--out-dir", str(d1)])
    code2 = main(["chain", "--plan", str(plan_path), "--out-dir", str(d2)])
    files = sorted(f.name for f in d1.glob("*.csv"))
    monotone = all(
        bool(np.all(np.diff(read_equating_table(d1 / f).equated) >= -1e-9))
        for f in files
    )
    identical = all((d1 / f).read_bytes() == (d2 / f).read_bytes() for f in files)
    n_steps = sum(f.startswith("step_") for f in files)
    n_composed = sum(f.startswith("composed_") for f in files)
    ok = code1 == 0 and code2 == 0 and monotone and identical
    ok = ok and n_steps == 5 and n_composed == 5
    report(10, ok,
           f"5-step chain: exit {code1}/{code2}, {n_steps} step tables + "
           f"{n_composed} composed tables, monotone: {monotone}, "
           f"byte-identical rerun: {identical}")


def test_criterion_11_command_determinism(tmp_path):
    """Every command is byte-identical under identical flags and seed."""
    rng = np.random.default_rng(SEED)
    sc = replace(ScenarioSpec.from_table(1), n=900)
    for name, pop, seed in (("p.csv", "P", 21), ("q.csv", "Q", 22)):
        data = gen_population(pop, sc, seed=seed)
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            cols = list(data.columns)
            writer.writerow(["score"] + cols)
            for i in range(data.n):
                writer.writerow([data.scores[i]] + [data.columns[c][i] for c in cols])
    outcomes = []
    equate_args = ["equate", "--design", "nec",
                   "--p", str(tmp_path / "p.csv"), "--q", str(tmp_path / "q.csv"),
                   "--covariates", "school,attempt,other_score",
                   "--bin", "other_score=50,60,70,80,100", "--scale", "0,100",
                   "--bootstrap", "8", "--seed", "3", "--precision", "full"]
    for run in (1, 2):
        out = tmp_path / f"eq{run}.csv"
        assert main(equate_args + ["--out", str(out)]) == 0
        outcomes.append(("equate", out.read_bytes()))
    sim_args = ["simulate", "--scenario", "1", "--reps", "2", "--seed", "9",
                "--score-range", "0,60", "--precision", "full"]
    for run in (1, 2):
        out = tmp_path / f"sim{run}.csv"
        assert main(sim_args + ["--out", str(out)]) == 0
        outcomes.append(("simulate", out.read_bytes()))
    plan_path = _figure8_plan(tmp_path)
    for run in (1, 2):
        out_dir = tmp_path / f"chain{run}"
        assert main(["chain", "--plan", str(plan_path),
                     "--out-dir", str(out_dir)]) == 0
        blob = b"".join(f.read_bytes() for f in sorted(out_dir.glob("*.csv")))
        outcomes.append(("chain", blob))
    for run in (1, 2):
        out = tmp_path / f"plot{run}.csv"
        assert main(["plot-data", str(tmp_path / "sim1.csv"),
                     "--out", str(out)]) == 0
        outcomes.append(("plot-data", out.read_bytes()))
    mismatches = [
        outcomes[i][0]
        for i in range(0, len(outcomes), 2)
        if outcomes[i][1] != outcomes[i + 1][1]
    ]
    report(11, not mismatches,
           "byte-identical reruns for equate, simulate, chain, plot-data"
           + ("" if not mismatches else f"; mismatches: {mismatches}"))
