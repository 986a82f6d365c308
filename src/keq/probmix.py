"""Target-population score probabilities for the NEC design.

The two populations are mixed with weight ``omega`` and the unobserved
cross-population score distributions are identified through the
covariates: each covariate cell is reweighted by the ratio of its marginal
probability in the other population to its own.  The EG design is the
case of one cell (an empty covariate space): both cell marginals are 1,
so r and s are the two score marginals, returned as they are rather than
weighted by a ratio t_q / t_p that may round an ulp off 1.
``PipelineSpec("EG")`` runs it through this function on datasets
restricted to no covariates.
"""

from __future__ import annotations

import numpy as np

from .core import JointProbabilityTable, ScoreDistribution, ValidationError

__all__ = ["nec_target_probs"]


def nec_target_probs(p: JointProbabilityTable, q: JointProbabilityTable,
                     omega: float) -> tuple[ScoreDistribution, ScoreDistribution]:
    """Score probabilities (r, s) in the target mixture of the NEC design.

    ``p`` is the joint (score x covariate-cell) table of the population
    taking the source form, ``q`` of the population taking the target
    form; both must share the covariate space.  ``omega`` is the mixture
    weight of the first population.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValidationError(f"omega {omega} outside [0, 1]")
    if p.covariates != q.covariates:
        raise ValidationError("populations do not share a covariate space")
    if p.covariates.n_cells == 1:
        return (ScoreDistribution(p.scale, p.probs[:, 0]),
                ScoreDistribution(q.scale, q.probs[:, 0]))
    t_p = p.covariate_marginal()
    t_q = q.covariate_marginal()
    support_p = t_p > 0.0
    support_q = t_q > 0.0
    if not np.array_equal(support_p, support_q):
        bad = int(np.argmax(support_p != support_q))
        raise ValidationError(
            f"covariate cell unsupported in one population (cell {bad}: "
            f"marginals {t_p[bad]:.3g} vs {t_q[bad]:.3g}); "
            "consider coarser covariate binning"
        )
    # Cells missing from both populations contribute nothing; drop them so
    # the ratio weights stay finite.
    keep = support_p
    ratio_qp = np.zeros_like(t_p)
    ratio_pq = np.zeros_like(t_p)
    ratio_qp[keep] = t_q[keep] / t_p[keep]
    ratio_pq[keep] = t_p[keep] / t_q[keep]
    w_r = omega + (1.0 - omega) * ratio_qp
    w_s = (1.0 - omega) + omega * ratio_pq
    r = p.probs @ w_r
    s = q.probs @ w_s
    return (ScoreDistribution(p.scale, r), ScoreDistribution(q.scale, s))
