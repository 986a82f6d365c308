"""Tests for target-population score probabilities (EG and NEC)."""

import numpy as np
import pytest

from keq.core import (
    Categorical,
    CovariateSpace,
    JointProbabilityTable,
    ScoreScale,
    ValidationError,
)
from keq.probmix import nec_target_probs


def table(probs, L=None):
    probs = np.asarray(probs, dtype=float)
    space = CovariateSpace((Categorical("g", tuple(range(probs.shape[1]))),))
    return JointProbabilityTable(ScoreScale(0, probs.shape[0] - 1), space, probs)


def random_pair(rng, J=6, L=3):
    p = rng.dirichlet(np.ones(J * L)).reshape(J, L)
    q = rng.dirichlet(np.ones(J * L)).reshape(J, L)
    return table(p), table(q)


def test_omega_one_gives_first_population_marginal():
    p = table([[0.2, 0.1], [0.3, 0.4]])
    q = table([[0.1, 0.2], [0.3, 0.4]])
    r, s = nec_target_probs(p, q, 1.0)
    assert np.allclose(r.probs, [0.3, 0.7])


def test_equal_covariate_marginals_collapse_the_weights():
    p = table([[0.2, 0.1], [0.3, 0.4]])
    q = table([[0.25, 0.25], [0.25, 0.25]])
    # t_P = (0.5, 0.5) = t_Q, so r is the plain row sum for every omega
    for omega in (0.0, 0.3, 1.0):
        r, _ = nec_target_probs(p, q, omega)
        assert np.allclose(r.probs, [0.3, 0.7])


def test_hand_example():
    p = table([[0.2, 0.1], [0.3, 0.4]])
    q = table([[0.2, 0.2], [0.2, 0.4]])  # t_Q = (0.4, 0.6)
    r, s = nec_target_probs(p, q, 0.5)
    assert np.allclose(r.probs, [0.29, 0.71], atol=1e-12)
    assert r.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert s.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_sums_to_one_over_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p, q = random_pair(rng)
        omega = rng.uniform()
        r, s = nec_target_probs(p, q, omega)
        assert abs(r.probs.sum() - 1.0) < 1e-10
        assert abs(s.probs.sum() - 1.0) < 1e-10


def test_affine_in_omega():
    rng = np.random.default_rng(5)
    p, q = random_pair(rng)
    r0, _ = nec_target_probs(p, q, 0.0)
    r5, _ = nec_target_probs(p, q, 0.5)
    r1, _ = nec_target_probs(p, q, 1.0)
    assert np.allclose(r5.probs, 0.5 * (r0.probs + r1.probs), atol=1e-12)


def test_role_symmetry():
    rng = np.random.default_rng(8)
    p, q = random_pair(rng)
    r, s = nec_target_probs(p, q, 0.3)
    s2, r2 = nec_target_probs(q, p, 0.7)
    assert np.allclose(r.probs, r2.probs, atol=1e-12)
    assert np.allclose(s.probs, s2.probs, atol=1e-12)


def test_unsupported_cell_is_an_error():
    p = table([[0.5, 0.0], [0.5, 0.0]])       # t_P = (1, 0)
    q = table([[0.25, 0.25], [0.25, 0.25]])   # t_Q = (0.5, 0.5)
    with pytest.raises(ValidationError, match="cell 1.*binning"):
        nec_target_probs(p, q, 0.5)


def test_cell_empty_in_both_is_dropped():
    p = table([[0.5, 0.0], [0.5, 0.0]])
    q = table([[0.3, 0.0], [0.7, 0.0]])
    r, s = nec_target_probs(p, q, 0.5)
    assert r.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_omega_out_of_range():
    p = table([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ValidationError, match="omega"):
        nec_target_probs(p, p, 1.5)


def test_mismatched_spaces_rejected():
    p = table([[0.2, 0.1], [0.3, 0.4]])
    other = CovariateSpace((Categorical("h", (0, 1)),))
    q = JointProbabilityTable(ScoreScale(0, 1), other, [[0.2, 0.2], [0.2, 0.4]])
    with pytest.raises(ValidationError, match="covariate space"):
        nec_target_probs(p, q, 0.5)
