"""Standard error of equating via the nonparametric bootstrap, and the
replication chunk and driver that the bootstrap and the simulation
harness share.

``run_pairs`` is the one replication loop.  Index i makes a pair of
datasets from the streams keyed (seed, i, 0) and (seed, i, 1) and runs
every spec on that pair, so between-spec differences are paired.  The
bootstrap's pair maker resamples both populations' person records with
replacement; the SEE at each score point is the sample standard
deviation of the replicate equated values.  The simulation's pair maker
generates both populations.

``replicate`` runs any such index range in contiguous chunks, serially
or on one process pool, joins the results in index order and caps the
share of failed indices.  Any partition of the range gives the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Dataset, KeqError, ValidationError, substream
from .equate import PipelineSpec  # re-exported
from .metrics import mc_see

__all__ = ["BootstrapConfig", "PipelineSpec", "BootstrapResult",
           "bootstrap_replicates", "bootstrap_see", "replicate"]

MAX_FAILURE_FRACTION = 0.05


def run_pairs(make_pair, specs, seed: int, start: int, stop: int):
    """Rows and failures of indices [start, stop).  Index i runs every spec
    on ``make_pair(substream(seed, i, 0), substream(seed, i, 1))``; its row
    stacks the specs' vectors, and a KeqError makes ``(i, message)`` its
    failure instead."""
    rows, failures = [], []
    for i in range(start, stop):
        try:
            p, q = make_pair(substream(seed, i, 0), substream(seed, i, 1))
            rows.append(np.stack([np.asarray(spec(p, q), dtype=float) for spec in specs]))
        except KeqError as exc:
            failures.append((i, str(exc)))
    return rows, failures


def replicate(chunk, n: int, threads: int, what: str, label: str):
    """Run ``chunk(start, stop) -> (rows, failures)`` over the indices [0, n).

    The range is split into at most ``threads`` contiguous chunks, run in
    this process when there is one and otherwise on a process pool with
    one worker per chunk (``chunk`` must then be picklable).  ``failures`` are
    ``(index, message)`` pairs.  Rows and failures are returned in index
    order; more than ``MAX_FAILURE_FRACTION`` of ``n`` failing is an
    error, reported as "k of n {what} failed; first: {label} i: ...".
    """
    bounds = np.linspace(0, n, threads + 1, dtype=int).tolist()
    spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    if len(spans) <= 1:
        parts = [chunk(0, n)]
    else:
        # Imported here: it loads multiprocessing, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at the first submit: one per chunk.
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(chunk, a, b) for a, b in spans]
            parts = [fut.result() for fut in futures]
    rows = [row for part_rows, _ in parts for row in part_rows]
    failures = [f for _, part_failures in parts for f in part_failures]
    if len(failures) > MAX_FAILURE_FRACTION * n:
        raise KeqError(
            f"{len(failures)} of {n} {what} failed; first: "
            f"{label} {failures[0][0]}: {failures[0][1]}"
        )
    return rows, failures


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 2:
            raise ValidationError("need at least 2 bootstrap replicates")


@dataclass(frozen=True)
class BootstrapResult:
    replicates: np.ndarray  # (successful replicates) x (score points)
    failures: tuple = ()  # (replicate index, message) of each failed replicate

    @property
    def see(self) -> np.ndarray:
        """SEE at every score point: the replicates' sample standard deviation."""
        return mc_see(self.replicates)

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _resample(p_data: Dataset, q_data: Dataset, p_rng, q_rng):
    """Both populations' records resampled with replacement."""
    return (p_data.take(p_rng.integers(0, p_data.n, p_data.n)),
            q_data.take(q_rng.integers(0, q_data.n, q_data.n)))


def bootstrap_replicates(p_data: Dataset, q_data: Dataset, pipeline,
                         config: BootstrapConfig, start: int = 0,
                         stop: int | None = None):
    """Replicate equated-score vectors for replicate indices [start, stop).

    ``pipeline`` is a :class:`PipelineSpec` or any callable of
    ``(p_data, q_data)`` returning the equated vector.  Each row is a
    (1 x score points) array, so ``np.vstack(rows)`` is the replicate
    matrix, and disjoint index ranges pool into that of a full run.
    """
    stop = config.replicates if stop is None else stop
    return run_pairs(partial(_resample, p_data, q_data), (pipeline,),
                     config.seed, start, stop)


def bootstrap_see(p_data: Dataset, q_data: Dataset, pipeline,
                  config: BootstrapConfig | None = None,
                  threads: int = 1) -> BootstrapResult:
    """Bootstrap SEE at every source score point.

    Deterministic given (data, pipeline, config) for any ``threads``.
    Replicates whose pipeline fails are skipped; more than 5% failures
    is an error.
    """
    config = config or BootstrapConfig()
    chunk = partial(bootstrap_replicates, p_data, q_data, pipeline, config)
    rows, failures = replicate(chunk, config.replicates, threads,
                               "bootstrap replicates", "replicate")
    return BootstrapResult(np.vstack(rows), tuple(failures))
