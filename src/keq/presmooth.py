"""Polynomial log-linear presmoothing of score-by-covariate count tables.

A Poisson GLM with log link is fit to the J x L frequency table; the
design carries polynomial score terms (standardized for conditioning),
covariate main effects, and score-by-covariate interactions.  Fitting is
iteratively reweighted least squares (Newton scoring) with step-halving,
so the fitted table inherits the Poisson-MLE moment-matching property:
observed and fitted inner products agree for every design column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    CovariateSpace,
    JointProbabilityTable,
    ScoreScale,
    ValidationError,
)

__all__ = [
    "LoglinearSpec",
    "FittedLoglinear",
    "build_design_matrix",
    "fit_loglinear",
    "presmooth_counts",
]

ETA_CLIP = 300.0  # keeps exp() finite on wild intermediate steps
MAX_STEP_HALVINGS = 30


@dataclass(frozen=True)
class LoglinearSpec:
    """Structure of the presmoothing model.

    ``score_degree`` polynomial terms of the (standardized) score,
    covariate main effects, and interactions of the score polynomial up
    to ``interaction_degree`` with the covariate dummies.

    ``covariate_terms`` picks the coding of the covariate columns, used
    both for the main effects and for the score-by-covariate
    interactions.  "cells" codes every covariate cell separately (a saturated
    covariate structure, so fitted cell marginals reproduce the observed
    ones exactly — which the target-population weighting of the NEC
    design depends on), "variables" codes each covariate's own levels as
    dummies (pooling across the cells of the other covariates), and
    "numeric" enters each covariate's level index as a single numeric
    term (binary variables are unaffected; multi-level ones are pooled
    log-linearly along their level order, which trades marginal fidelity
    for stability in sparse cells).
    """

    score_degree: int = 6
    interaction_degree: int = 1
    covariate_terms: str = "cells"

    def __post_init__(self):
        if self.score_degree < 1:
            raise ValidationError("score_degree must be >= 1")
        if not 0 <= self.interaction_degree <= self.score_degree:
            raise ValidationError("need score_degree >= interaction_degree >= 0")
        if self.covariate_terms not in ("variables", "cells", "numeric"):
            raise ValidationError(
                "covariate_terms must be 'variables', 'cells' or 'numeric'"
            )


@dataclass(frozen=True)
class FittedLoglinear:
    spec: LoglinearSpec
    coefficients: np.ndarray
    fitted_probs: JointProbabilityTable
    converged: bool
    iterations: int
    deviance: float
    warning: str | None = None


def _covariate_dummies(covariates: CovariateSpace, coding: str) -> np.ndarray:
    """Per-cell covariate columns (L rows) for the chosen coding."""
    L = covariates.n_cells
    if L <= 1:
        return np.empty((L, 0))
    if coding == "cells":
        return np.eye(L)[:, 1:]
    cells = np.asarray(covariates.cells())
    cols = []
    for k, v in enumerate(covariates.variables):
        if coding == "numeric":
            cols.append(cells[:, k].astype(float))
        else:
            for level in range(1, v.n_levels):
                cols.append((cells[:, k] == level).astype(float))
    return np.column_stack(cols) if cols else np.empty((L, 0))


def build_design_matrix(scale: ScoreScale, covariates: CovariateSpace,
                        spec: LoglinearSpec, allow_saturated: bool = False) -> np.ndarray:
    """Design matrix with one row per (score point, covariate cell).

    Rows are ordered score-major (row j*L + l pairs with a row-major
    flattening of the J x L count matrix).  Columns: intercept,
    standardized score powers 1..score_degree, covariate main-effect
    columns (first level/cell as reference), then score power x
    covariate interaction columns.
    """
    J, L = scale.n_points, covariates.n_cells
    x = scale.points.astype(float)
    xs = (x - x.mean()) / x.std() if J > 1 else np.zeros(1)
    cols = [np.ones(J * L)]
    x_rows = np.repeat(xs, L)
    for d in range(1, spec.score_degree + 1):
        cols.append(x_rows**d)
    dummies = np.tile(_covariate_dummies(covariates, spec.covariate_terms), (J, 1))
    for k in range(dummies.shape[1]):
        cols.append(dummies[:, k])
    for d in range(1, spec.interaction_degree + 1):
        for k in range(dummies.shape[1]):
            cols.append(x_rows**d * dummies[:, k])
    design = np.column_stack(cols)
    m = design.shape[1]
    if m > J * L or (m == J * L and not allow_saturated):
        raise ValidationError(
            f"model not identifiable: {m} parameters for {J * L} cells"
        )
    return design


def _deviance(y: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


def fit_loglinear(counts: np.ndarray, design: np.ndarray, scale: ScoreScale,
                  covariates: CovariateSpace, tol: float = 1e-8,
                  max_iter: int = 100, spec: LoglinearSpec | None = None) -> FittedLoglinear:
    """Poisson MLE of the log-linear model for a J x L count table.

    Convergence is declared when every component of the score vector
    ``design.T @ (counts - fitted)`` is below ``tol * N``.  On
    non-convergence the fit is returned with ``converged=False`` and a
    warning payload; the caller decides whether to proceed.
    """
    y = np.asarray(counts, dtype=float).reshape(-1)
    if y.shape[0] != design.shape[0]:
        raise ValidationError("counts do not match design matrix rows")
    if np.any(y < 0):
        raise ValidationError("negative counts")
    total = float(y.sum())
    if total <= 0:
        raise ValidationError("all-zero counts")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")

    X = np.asarray(design, dtype=float)

    def fitted(b):
        """Linear predictor, fitted counts and deviance at coefficients b."""
        eta = np.clip(X @ b, -ETA_CLIP, ETA_CLIP)
        mu = np.exp(eta)
        return eta, mu, _deviance(y, mu)

    mu = y + 0.5
    eta = np.log(mu)
    beta = None
    dev = _deviance(y, mu)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = eta + (y - mu) / mu
        xtw = X.T * mu
        try:
            with warnings.catch_warnings():
                # Weights collapse toward zero in empty covariate cells;
                # the resulting ill-conditioning is expected and guarded
                # by the finite check and the lstsq fallback below.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                new_beta = scipy.linalg.solve(xtw @ X, xtw @ z, assume_a="pos")
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
            if beta is None:
                # All initial weights are positive, so a singular working
                # matrix on the first pass means the design itself is.
                raise ValidationError(
                    "separation or collinearity: singular working matrix"
                ) from None
            # Later singularity comes from weights collapsing toward zero
            # (e.g. empty covariate cells); the minimum-norm solution keeps
            # those fitted counts pinned near zero.
            sw = np.sqrt(mu)
            new_beta = scipy.linalg.lstsq(X * sw[:, None], z * sw)[0]
        if not np.all(np.isfinite(new_beta)):
            raise ValidationError("separation or collinearity: singular working matrix")
        accepted = None
        if beta is not None:
            # Step-halving keeps the deviance nonincreasing.  The accepted
            # candidate's fit is kept; if every halving fails, the full
            # step is taken.
            step = 1.0
            for _ in range(MAX_STEP_HALVINGS):
                cand = beta + step * (new_beta - beta)
                cand_fit = fitted(cand)
                if cand_fit[2] <= dev * (1 + 1e-12) + 1e-12:
                    new_beta, accepted = cand, cand_fit
                    break
                step *= 0.5
        beta = new_beta
        eta, mu, dev = accepted if accepted is not None else fitted(beta)
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) <= tol * total:
            converged = True
            break

    warning = None
    if not converged:
        warning = (
            f"IRLS stopped after {iterations} iterations with max score "
            f"residual {np.max(np.abs(score)):.3g} (tol {tol * total:.3g})"
        )
    probs = (mu / mu.sum()).reshape(scale.n_points, covariates.n_cells)
    table = JointProbabilityTable(scale, covariates, probs)
    return FittedLoglinear(
        spec=spec, coefficients=beta, fitted_probs=table,
        converged=converged, iterations=iterations, deviance=dev, warning=warning,
    )


def presmooth_counts(counts: np.ndarray, scale: ScoreScale,
                     covariates: CovariateSpace, spec: LoglinearSpec) -> FittedLoglinear:
    """Build the design for ``spec`` and fit it to the count table."""
    design = build_design_matrix(scale, covariates, spec)
    return fit_loglinear(counts, design, scale, covariates, spec=spec)
