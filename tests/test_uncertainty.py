"""Tests for bootstrap standard errors of equating, the replication chunk and the driver."""

import re
from functools import partial

import numpy as np
import pytest

from keq.core import (
    Categorical,
    CovariateSpace,
    Dataset,
    KeqError,
    ScoreScale,
    ValidationError,
    substream,
)
from keq.equate import GkePipelineConfig
from keq.uncertainty import (
    BootstrapConfig,
    PipelineSpec,
    bootstrap_replicates,
    bootstrap_see,
    replicate,
    run_pairs,
)

SPACE = CovariateSpace((Categorical("g", (0, 1)),))


def mean_shift_pipeline(p_data, q_data):
    """Trivial equating oracle: shift every score by the mean difference."""
    shift = q_data.scores.mean() - p_data.scores.mean()
    return p_data.scale.points.astype(float) + shift


def sample_dataset(rng, n, p=0.5, scale=ScoreScale(0, 30)):
    scores = rng.binomial(scale.max, p, size=n)
    return Dataset(scale, SPACE, scores, {"g": rng.integers(0, 2, size=n)})


def every_kth_fails(k, start, stop):
    """Chunk of the driver: row i is a vector of i; each k-th index fails."""
    rows, failures = [], []
    for i in range(start, stop):
        if i % k == 0:
            failures.append((i, f"synthetic failure {i}"))
        else:
            rows.append(np.full(3, float(i)))
    return rows, failures


def one_draw_each(p_rng, q_rng):
    """Pair maker: one draw from each stream; a p draw below -0.5 fails."""
    p, q = p_rng.normal(), q_rng.normal()
    if p < -0.5:
        raise ValidationError(f"synthetic failure {p}")
    return p, q


def total(p, q):
    return np.array([p + q, p])


def gap(p, q):
    return np.array([p - q, q])


class TestRunPairs:
    def test_row_stacks_every_spec_on_the_index_pair(self):
        rows, failures = run_pairs(one_draw_each, (total, gap), 4, 0, 30)
        failed = dict(failures)
        assert 0 < len(failed) < 30 and len(rows) + len(failed) == 30
        kept = (i for i in range(30) if i not in failed)
        for i, row in zip(kept, rows):
            p, q = one_draw_each(substream(4, i, 0), substream(4, i, 1))
            assert np.array_equal(row, np.stack([total(p, q), gap(p, q)]))
        for i, message in failed.items():
            with pytest.raises(ValidationError, match=re.escape(message)):
                one_draw_each(substream(4, i, 0), substream(4, i, 1))


class TestReplicate:
    def test_more_than_five_percent_failing_raises(self):
        # 3 of 40 is 7.5 %.
        with pytest.raises(KeqError, match="^3 of 40 things failed; first: "
                                           "thing 0: synthetic failure 0$"):
            replicate(partial(every_kth_fails, 15), 40, 1, "things", "thing")

    def test_up_to_five_percent_are_skipped_and_counted(self):
        # 2 of 40 is exactly 5 %.
        rows, failures = replicate(partial(every_kth_fails, 20), 40, 1, "things", "thing")
        assert [i for i, _ in failures] == [0, 20]
        assert [row[0] for row in rows] == [i for i in range(40) if i % 20]

    def test_two_threads_match_one(self):
        chunk = partial(every_kth_fails, 20)
        serial_rows, serial_failures = replicate(chunk, 40, 1, "things", "thing")
        rows, failures = replicate(chunk, 40, 2, "things", "thing")
        assert failures == serial_failures
        assert np.array_equal(np.vstack(rows), np.vstack(serial_rows))

    @pytest.mark.parametrize("n, threads, spans", [
        (2, 8, [(0, 1), (1, 2)]),
        (3, 64, [(0, 1), (1, 2), (2, 3)]),
        (40, 3, [(0, 13), (13, 26), (26, 40)]),
    ])
    def test_pool_has_one_worker_per_chunk(self, monkeypatch, n, threads, spans):
        # The executor runs each chunk inline, so no process is started.
        import concurrent.futures

        opened, submitted = [], []

        class InlineExecutor:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, start, stop):
                submitted.append((start, stop))
                future = concurrent.futures.Future()
                future.set_result(fn(start, stop))
                return future

        def chunk(start, stop):
            return [np.full(3, float(i)) for i in range(start, stop)], []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        rows, failures = replicate(chunk, n, threads, "things", "thing")
        assert opened == [len(spans)]
        assert submitted == spans
        assert failures == [] and [row[0] for row in rows] == list(range(n))


class TestBootstrapSee:
    def test_degenerate_data_gives_exactly_zero(self):
        # Every person identical: each resample reproduces the dataset, so
        # the replicate vectors coincide and the SEE is exactly zero.
        scale = ScoreScale(0, 10)
        p = Dataset(scale, SPACE, np.full(40, 6), {"g": np.ones(40, dtype=int)})
        q = Dataset(scale, SPACE, np.full(40, 8), {"g": np.ones(40, dtype=int)})
        result = bootstrap_see(p, q, mean_shift_pipeline, BootstrapConfig(25, seed=3))
        assert np.all(result.see == 0.0)
        assert result.n_failed == 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        p = sample_dataset(rng, 150)
        q = sample_dataset(rng, 150, p=0.55)
        pipeline = PipelineSpec("EG", config=GkePipelineConfig(presmooth=None))
        r1 = bootstrap_see(p, q, pipeline, BootstrapConfig(20, seed=9))
        r2 = bootstrap_see(p, q, pipeline, BootstrapConfig(20, seed=9))
        assert np.array_equal(r1.see, r2.see)
        assert np.array_equal(r1.replicates, r2.replicates)

    def test_split_ranges_pool_to_full_run(self):
        rng = np.random.default_rng(1)
        p = sample_dataset(rng, 120)
        q = sample_dataset(rng, 120, p=0.6)
        pipeline = PipelineSpec("EG", config=GkePipelineConfig(presmooth=None))
        config = BootstrapConfig(16, seed=5)
        full, _ = bootstrap_replicates(p, q, pipeline, config)
        first, _ = bootstrap_replicates(p, q, pipeline, config, start=0, stop=8)
        second, _ = bootstrap_replicates(p, q, pipeline, config, start=8, stop=16)
        assert np.array_equal(np.vstack(full), np.vstack(first + second))
        # The same holds for several specs and for failed indices.
        chunk = partial(run_pairs, one_draw_each, (total, gap), 4)
        full, full_failures = chunk(0, 30)
        first, first_failures = chunk(0, 13)
        second, second_failures = chunk(13, 30)
        assert np.array_equal(np.stack(full), np.stack(first + second))
        assert full_failures == first_failures + second_failures

    def test_parallel_threads_reproduce_serial_result(self):
        rng = np.random.default_rng(3)
        p = sample_dataset(rng, 100)
        q = sample_dataset(rng, 100, p=0.6)
        pipeline = PipelineSpec("EG", config=GkePipelineConfig(presmooth=None))
        config = BootstrapConfig(12, seed=2)
        serial = bootstrap_see(p, q, pipeline, config, threads=1)
        parallel = bootstrap_see(p, q, pipeline, config, threads=2)
        assert np.array_equal(serial.replicates, parallel.replicates)
        assert np.array_equal(serial.see, parallel.see)

    def test_positive_see_on_sampled_data(self):
        rng = np.random.default_rng(2)
        p = sample_dataset(rng, 200)
        q = sample_dataset(rng, 200, p=0.6)
        pipeline = PipelineSpec("EG", config=GkePipelineConfig(presmooth=None))
        result = bootstrap_see(p, q, pipeline, BootstrapConfig(30, seed=1))
        mid = slice(8, 23)
        assert np.all(result.see[mid] > 0)

    def test_failure_cap(self):
        scale = ScoreScale(0, 10)
        p = Dataset(scale, SPACE, np.full(30, 5), {"g": np.zeros(30, dtype=int)})

        calls = {"n": 0}

        def flaky(p_data, q_data):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise ValidationError("synthetic failure")
            return np.zeros(scale.n_points)

        with pytest.raises(KeqError, match="bootstrap replicates failed"):
            bootstrap_see(p, p, flaky, BootstrapConfig(20, seed=0))

    def test_few_failures_are_skipped(self):
        scale = ScoreScale(0, 10)
        p = Dataset(scale, SPACE, np.full(30, 5), {"g": np.zeros(30, dtype=int)})
        calls = {"n": 0}

        def occasionally_flaky(p_data, q_data):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValidationError("synthetic failure")
            return np.full(scale.n_points, float(calls["n"] % 3))

        result = bootstrap_see(p, p, occasionally_flaky, BootstrapConfig(40, seed=0))
        assert result.n_failed == 1
        assert result.replicates.shape[0] == 39

    def test_replicate_count_validation(self):
        with pytest.raises(ValidationError):
            BootstrapConfig(1)

    def test_sequential_pipeline_spec_needs_covariate(self):
        with pytest.raises(ValidationError):
            PipelineSpec("sequential GKE")
        with pytest.raises(ValidationError):
            PipelineSpec("nonsense")
