"""Polynomial log-linear presmoothing of score-by-covariate count tables.

A Poisson GLM with log link is fit to the J x L frequency table; the
design carries polynomial score terms (standardized for conditioning),
covariate main effects, and score-by-covariate interactions.  Fitting is
iteratively reweighted least squares (Newton scoring) with step-halving,
so the fitted table inherits the Poisson-MLE moment-matching property:
observed and fitted inner products agree for every design column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    score_residual: float  # final max |X.T (counts - fitted)| / N
    step_halvings: int  # total over all iterations
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


class _Design:
    """A design whose column c is the product of a score and a cell function.

    Row j*L + l of column c is ``F[j, a[c]] * H[l, b[c]]``: F holds the
    score functions (J x P), H the cell functions (L x Q).  IRLS needs
    X @ beta, X.T @ r and X.T diag(w) X; all three are formed from the
    factors, never from the J*L x m row matrix.  A plain row matrix is
    the one-cell case: F = X, H = [[1]], b = 0.

    Reordering these products moves fitted probabilities by ulps, which
    can move a bandwidth chosen on a penalty that is flat to rounding;
    after such a change, compare equated values with
    ``perfbench/reference.json``.
    """

    def __init__(self, F: np.ndarray, H: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.F, self.H, self.a, self.b = F, H, a, b
        (J, P), (L, Q) = F.shape, H.shape
        self.shape = (J * L, len(a))
        # Column c's entry in the P x Q grid of (score, cell) function
        # pairs, and (c, c')'s entry in the (P x P) x (Q x Q) Gram grid.
        self._flat = a * Q + b
        self._pairs = (a[:, None] * P + a[None, :]) * (Q * Q) + b[:, None] * Q + b[None, :]
        self._hh = (H[:, :, None] * H[:, None, :]).reshape(L, Q * Q)

    @classmethod
    def from_rows(cls, X: np.ndarray) -> "_Design":
        m = X.shape[1]
        return cls(X, np.ones((1, 1)), np.arange(m), np.zeros(m, dtype=int))

    def eta(self, beta: np.ndarray) -> np.ndarray:
        """X @ beta: F B H.T with beta scattered onto B at (a, b)."""
        grid = np.zeros(self.F.shape[1] * self.H.shape[1])
        grid[self._flat] = beta
        return ((self.F @ grid.reshape(self.F.shape[1], -1)) @ self.H.T).reshape(-1)

    def xt(self, r: np.ndarray) -> np.ndarray:
        """X.T @ r: F.T R H at (a, b)."""
        R = r.reshape(self.F.shape[0], self.H.shape[0])
        return ((self.F.T @ R) @ self.H).reshape(-1)[self._flat]

    def gram(self, w: np.ndarray) -> np.ndarray:
        """X.T @ diag(w) @ X: the per-cell score Grams F.T diag(w[:, l]) F,
        contracted with H (x) H over the cells, at ((a, a'), (b, b'))."""
        (J, P), L = self.F.shape, self.H.shape[0]
        fw = np.einsum("ja,jl->jal", self.F, w.reshape(J, L)).reshape(J, P * L)
        per_cell = (self.F.T @ fw).reshape(P * P, L)
        return (per_cell @ self._hh).reshape(-1)[self._pairs]

    def dense(self) -> np.ndarray:
        """The J*L x m row matrix."""
        return (self.F[:, None, self.a] * self.H[None, :, self.b]).reshape(self.shape)


def _factored_design(scale: ScoreScale, covariates: CovariateSpace,
                     spec: LoglinearSpec, allow_saturated: bool = False) -> _Design:
    """The presmoothing design of ``build_design_matrix`` in factored form."""
    J, L = scale.n_points, covariates.n_cells
    x = scale.points.astype(float)
    xs = (x - x.mean()) / x.std() if J > 1 else np.zeros(1)
    F = np.column_stack([np.ones(J)] + [xs**d for d in range(1, spec.score_degree + 1)])
    dummies = _covariate_dummies(covariates, spec.covariate_terms)
    H = np.column_stack([np.ones(L), dummies])
    # Columns: intercept and score powers (a = 0..degree, b = 0), covariate
    # main effects (a = 0, b = 1..K), then each interacted power's K columns.
    K = dummies.shape[1]
    coded = np.arange(1, K + 1)
    a = np.concatenate([np.arange(spec.score_degree + 1), np.zeros(K, dtype=int),
                        np.repeat(np.arange(1, spec.interaction_degree + 1), K)])
    b = np.concatenate([np.zeros(spec.score_degree + 1, dtype=int), coded,
                        np.tile(coded, spec.interaction_degree)])
    m = len(a)
    if m > J * L or (m == J * L and not allow_saturated):
        raise ValidationError(
            f"model not identifiable: {m} parameters for {J * L} cells"
        )
    return _Design(F, H, a, b)


def build_design_matrix(scale: ScoreScale, covariates: CovariateSpace,
                        spec: LoglinearSpec, allow_saturated: bool = False) -> np.ndarray:
    """Design matrix with one row per (score point, covariate cell).

    Rows are ordered score-major (row j*L + l pairs with a row-major
    flattening of the J x L count matrix).  Columns: intercept,
    standardized score powers 1..score_degree, covariate main-effect
    columns (first level/cell as reference), then score power x
    covariate interaction columns.
    """
    return _factored_design(scale, covariates, spec, allow_saturated).dense()


def _deviance(y: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


def _solve_pos(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs by Cholesky; LinAlgError unless finite and positive definite."""
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise np.linalg.LinAlgError("non-finite working matrix")
    c = np.linalg.cholesky(gram)
    return np.linalg.solve(c.T, np.linalg.solve(c, rhs))


def fit_loglinear(counts: np.ndarray, design: np.ndarray | _Design, scale: ScoreScale,
                  covariates: CovariateSpace, tol: float = 1e-8,
                  max_iter: int = 100, spec: LoglinearSpec | None = None) -> FittedLoglinear:
    """Poisson MLE of the log-linear model for a J x L count table.

    ``design`` is a row matrix (one row per score-major table entry) or
    the factored design that ``presmooth_counts`` builds.  Convergence is
    declared when every component of the score vector
    ``design.T @ (counts - fitted)`` is below ``tol * N``.  On
    non-convergence the fit is returned with ``converged=False`` and a
    warning payload; the caller decides whether to proceed.
    """
    X = design if isinstance(design, _Design) else _Design.from_rows(
        np.asarray(design, dtype=float))
    y = np.asarray(counts, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
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

    def fitted(b):
        """Linear predictor, fitted counts and deviance at coefficients b."""
        eta = np.clip(X.eta(b), -ETA_CLIP, ETA_CLIP)
        mu = np.exp(eta)
        return eta, mu, _deviance(y, mu)

    mu = y + 0.5
    eta = np.log(mu)
    beta = None
    dev = _deviance(y, mu)
    converged = False
    iterations = halvings = 0
    for iterations in range(1, max_iter + 1):
        z = eta + (y - mu) / mu
        try:
            new_beta = _solve_pos(X.gram(mu), X.xt(mu * z))
        except np.linalg.LinAlgError:
            if beta is None:
                # All initial weights are positive, so a singular working
                # matrix on the first pass means the design itself is.
                raise ValidationError(
                    "separation or collinearity: singular working matrix"
                ) from None
            # Later singularity comes from weights collapsing toward zero
            # (e.g. empty covariate cells); the minimum-norm solution keeps
            # those fitted counts pinned near zero.  Singular values below
            # eps times the largest count as zero (numpy's default cutoff,
            # eps * max(M, N), would drop more).
            sw = np.sqrt(mu)
            new_beta = np.linalg.lstsq(X.dense() * sw[:, None], z * sw,
                                       rcond=np.finfo(float).eps)[0]
        if not np.all(np.isfinite(new_beta)):
            raise ValidationError("separation or collinearity: singular working matrix")
        accepted = None
        if beta is not None:
            # Step-halving keeps the deviance nonincreasing.  The accepted
            # candidate's fit is kept; if every halving fails, the full
            # step is taken.
            step = 1.0
            for k in range(MAX_STEP_HALVINGS):
                cand = beta + step * (new_beta - beta)
                cand_fit = fitted(cand)
                if cand_fit[2] <= dev * (1 + 1e-12) + 1e-12:
                    new_beta, accepted = cand, cand_fit
                    halvings += k
                    break
                step *= 0.5
            else:
                halvings += MAX_STEP_HALVINGS
        beta = new_beta
        eta, mu, dev = accepted if accepted is not None else fitted(beta)
        max_score = float(np.max(np.abs(X.xt(y - mu))))
        if max_score <= tol * total:
            converged = True
            break

    warning = None
    if not converged:
        warning = (
            f"IRLS stopped after {iterations} iterations with max score "
            f"residual {max_score:.3g} (tol {tol * total:.3g})"
        )
    probs = (mu / mu.sum()).reshape(scale.n_points, covariates.n_cells)
    table = JointProbabilityTable(scale, covariates, probs)
    return FittedLoglinear(
        spec=spec, coefficients=beta, fitted_probs=table,
        converged=converged, iterations=iterations, deviance=dev,
        score_residual=max_score / total, step_halvings=halvings, warning=warning,
    )


def presmooth_counts(counts: np.ndarray, scale: ScoreScale,
                     covariates: CovariateSpace, spec: LoglinearSpec) -> FittedLoglinear:
    """Build the design for ``spec`` and fit it to the count table."""
    design = _factored_design(scale, covariates, spec)
    return fit_loglinear(counts, design, scale, covariates, spec=spec)
