"""Evaluation metrics for equating results across replications.

All replicate inputs are R x S matrices: one row per replication, one
column per score point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError

__all__ = ["bias", "mc_see", "rmse", "ediff", "MetricsReport"]

DTM_THRESHOLD = 1.0  # score points


def _replicate_matrix(values) -> np.ndarray:
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValidationError("replicate values must be an R x S matrix")
    return m


def bias(replicate_values, truth) -> np.ndarray:
    """Mean deviation of replicate estimates from the true transformation."""
    m = _replicate_matrix(replicate_values)
    t = np.asarray(truth, dtype=float)
    if t.shape != (m.shape[1],):
        raise ValidationError("truth vector does not match replicate columns")
    return m.mean(axis=0) - t


def mc_see(replicate_values) -> np.ndarray:
    """Per-point sample standard deviation across replications (R >= 2);
    exactly zero at a point where every replication agrees."""
    m = _replicate_matrix(replicate_values)
    if m.shape[0] < 2:
        raise ValidationError("need at least 2 replications for SEE")
    see = m.std(axis=0, ddof=1)
    # Identical replicate columns must yield exactly zero, not rounding fuzz.
    see[np.ptp(m, axis=0) == 0.0] = 0.0
    return see


def rmse(bias_vec, see_vec) -> np.ndarray:
    """sqrt(bias^2 + see^2), pointwise."""
    b = np.asarray(bias_vec, dtype=float)
    s = np.asarray(see_vec, dtype=float)
    if b.shape != s.shape:
        raise ValidationError("bias and see lengths differ")
    return np.sqrt(b**2 + s**2)


def ediff(reps_a, reps_b) -> tuple[np.ndarray, float]:
    """Mean absolute per-replication difference between two estimators.

    Requires the two estimators to have been run on identical
    per-replication datasets (paired by replication index).
    """
    a = _replicate_matrix(reps_a)
    b = _replicate_matrix(reps_b)
    if a.shape != b.shape:
        raise ValidationError("replicate matrices differ in shape")
    per_point = np.abs(a - b).mean(axis=0)
    return per_point, float(per_point.mean())


@dataclass(frozen=True)
class MetricsReport:
    """Per-score-point accuracy summary for one or two equating methods."""

    score_points: np.ndarray
    truth: np.ndarray
    per_method: dict  # method -> {"bias": S, "see": S, "rmse": S}
    ediff_points: np.ndarray | None = None  # with two methods: per-point EDIFF
    header: dict = field(default_factory=dict)

    def __post_init__(self):
        for method, vecs in self.per_method.items():
            gap = np.max(np.abs(vecs["rmse"] ** 2 - vecs["bias"] ** 2 - vecs["see"] ** 2))
            if gap > 1e-10:
                raise ValidationError(f"{method}: rmse^2 != bias^2 + see^2 (gap {gap:g})")

    @property
    def mean_ediff(self) -> float | None:
        """EDIFF averaged over the score points (None without two methods)."""
        return None if self.ediff_points is None else float(self.ediff_points.mean())

    @property
    def dtm_exceed_fraction(self) -> float | None:
        """Share of score points whose EDIFF exceeds the difference that matters."""
        if self.ediff_points is None:
            return None
        return float(np.mean(self.ediff_points > DTM_THRESHOLD))

    @classmethod
    def from_replicates(cls, score_points, truth, replicates: dict,
                        header: dict | None = None) -> "MetricsReport":
        """Build the report from per-method R x S replicate matrices."""
        per_method = {}
        for method, reps in replicates.items():
            b = bias(reps, truth)
            s = mc_see(reps)
            per_method[method] = {"bias": b, "see": s, "rmse": rmse(b, s)}
        ediff_points = None
        if len(replicates) == 2:
            ediff_points, _ = ediff(*replicates.values())
        return cls(np.asarray(score_points), np.asarray(truth, dtype=float),
                   per_method, ediff_points, header=dict(header or {}))
