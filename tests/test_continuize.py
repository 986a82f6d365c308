"""Tests for Gaussian-kernel continuization and bandwidth selection."""

import math
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom, norm, poisson

from keq.core import EquatingTable, ScoreDistribution, ScoreScale, ValidationError, substream
from keq.continuize import (
    EXP_NORMAL,
    EXP_ZERO,
    H_MAX_SD_FACTOR,
    H_MIN,
    INV_SQRT_2PI,
    P_TAIL,
    PHI_ONE,
    PHI_ZERO,
    SQRT2,
    ContinuizedCdf,
    _Smoothing,
    _kernel,
    _phi,
    continuize,
    inverse_cdf,
    kernel_cdf,
    kernel_pdf,
    penalty,
    select_bandwidth,
)
from keq.equate import (ComposedMap, EquatingMap, GkePipelineConfig, NecInput, PipelineSpec,
                        _target_probs)
from keq.simulate import OTHER_SCORE, ScenarioSpec, gen_population


def binomial_dist(n, p):
    return ScoreDistribution(ScoreScale(0, n), binom.pmf(np.arange(n + 1), n, p))


def two_point():
    return ScoreDistribution(ScoreScale(0, 10), [0.5] + [0.0] * 9 + [0.5])


def eager_golden_section(f, lo, hi, best, tol=1e-7):
    """Golden-section refinement with every penalty computed in full,
    returning the best evaluated point."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best[1]:
            best = (x, fx)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            if fd < best[1]:
                best = (d, fd)
    return best[0]


def bandwidth_grid(dist):
    """The 64 grid bandwidths ``select_bandwidth`` starts from."""
    h_max = H_MAX_SD_FACTOR * math.sqrt(dist.variance)
    return np.geomspace(H_MIN, max(h_max, H_MIN * 1.01), num=64)


def eager_search(dist, kpen):
    """Bandwidth search with every penalty computed in full: ``np.argmin``
    over the grid, then golden-section refinement.  The reference for
    ``select_bandwidth``; returns the bandwidth and the grid penalties."""
    grid = bandwidth_grid(dist)
    values = [penalty(dist, h, kpen) for h in grid]
    best = int(np.argmin(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    h = eager_golden_section(lambda h: penalty(dist, h, kpen), lo, hi,
                             best=(float(grid[best]), values[best]))
    return h, values


def unmasked_phi(u):
    """Phi(u) = erfc(-u / sqrt 2) / 2 with math.erfc called on every entry."""
    return np.array([0.5 * math.erfc(-v / SQRT2) for v in np.ravel(u)]).reshape(np.shape(u))


def unmasked_kernel(dist, h, x):
    """u and the Gaussian factor exp(-u**2 / 2) over every kernel entry, and a*h."""
    a = float(np.sqrt(dist.variance / (dist.variance + h * h)))
    ah = a * h
    u = (x[..., None] - a * dist.scale.points.astype(float) - (1.0 - a) * dist.mean) / ah
    return u, np.exp(-0.5 * u**2), ah


def unmasked_terms(dist, h, x, cdf=True):
    """Density, slope and (if ``cdf``) CDF at x with exp and erfc taken over
    every kernel entry."""
    u, gauss, ah = unmasked_kernel(dist, h, x)
    pdf = (gauss @ dist.probs) * INV_SQRT_2PI / ah
    slope = ((-u * gauss) @ dist.probs) * INV_SQRT_2PI / ah**2
    return (pdf, slope, (unmasked_phi(u) * dist.probs).sum(axis=-1)) if cdf else (pdf, slope)


def unmasked_row_pdf(dist, h, x):
    """The density at x summed row by row, as ``kernel_pdf`` sums it, with
    exp taken over every kernel entry."""
    _, gauss, ah = unmasked_kernel(dist, h, x)
    return (gauss * dist.probs).sum(axis=-1) * INV_SQRT_2PI / ah


def sparse_tables():
    """20 pass-through tables of 20-400 draws on 20-100 score points, most
    points empty; far from the draws their density and slope sums fall
    below 2**-800."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        j, n, p = rng.integers(20, 101), rng.integers(20, 401), rng.uniform(0.05, 0.95)
        counts = np.bincount(rng.binomial(j - 1, p, n), minlength=j)
        yield ScoreDistribution(ScoreScale(0, int(j) - 1), counts / counts.sum())


EPS = np.finfo(float).eps / 2  # 2**-53
TINY = np.finfo(float).tiny  # DBL_MIN = 2**-1022


def summation_bound(terms, scale, tiny):
    """How far apart two float sums of ``terms`` over the last axis, each
    in any order and then scaled by ``scale``, may lie: the J-term bound
    that ``_Smoothing._subset_floors`` states, 2 (J + 3) eps sum_j |t_j|
    (each sum's J - 1 additions, its products and its scalings), plus J
    ``tiny`` for the terms below ``tiny`` each that one of the sums may
    leave out (the subnormals a redo fills in)."""
    j = terms.shape[-1]
    return scale * (2 * (j + 3) * EPS * np.abs(terms).sum(axis=-1) + j * tiny)


def penalty_terms_within_bound(dist, h, smoothing=None):
    """PEN1 and PEN2 of ``smoothing`` (a fresh one by default) at h, checked
    against the full-kernel matrix products of ``unmasked_terms``.

    PEN1's densities and PEN2's slopes agree with them within
    ``summation_bound``.  PEN1 agrees within what that bound gives it: with
    d_i the oracle's gap p_i - f_i and delta_i its density's bound, the
    squares move by at most 2 |d_i| delta_i + delta_i**2, and each sum of
    squares rounds within 2 (J + 3) eps of its exact value.  PEN2 counts a
    point as the oracle does wherever both oracle slopes clear their bound,
    and so are of the same sign in both."""
    smoothing = _Smoothing(dist) if smoothing is None else smoothing
    _, gauss, ah = unmasked_kernel(dist, h, smoothing.points)
    pdf = unmasked_terms(dist, h, smoothing.points, cdf=False)[0]
    delta = summation_bound(gauss * dist.probs, INV_SQRT_2PI / ah, TINY)
    assert np.all(np.abs(smoothing._penalty_sums(h, "pdf") - pdf) <= delta)
    u, gauss, ah = unmasked_kernel(dist, h, smoothing.probes)
    oracle = unmasked_terms(dist, h, smoothing.probes, cdf=False)[1]
    bound = summation_bound(-u * gauss * dist.probs, INV_SQRT_2PI / ah**2, 39 * TINY)
    slopes = smoothing._penalty_sums(h, "slope")
    assert np.all(np.abs(slopes - oracle) <= bound)
    gap = np.abs(dist.probs - pdf)
    pen1 = smoothing.pen1(h)
    assert abs(pen1 - np.sum(gap**2)) <= (np.sum((2 * gap + delta) * delta)
                                          + 2 * (gap.size + 3) * EPS * np.sum((gap + delta)**2))
    counted, expected = ((left < 0.0) & ~(right > 0.0) for left, right in (slopes, oracle))
    clear = np.all(np.abs(oracle) > bound, axis=0)
    assert np.array_equal(counted[clear], expected[clear])
    pen2 = smoothing.pen2(h)
    assert pen2 == np.count_nonzero(counted)
    return pen1, pen2


def band_layout_oracle(smoothing, k):
    """Per term, the band's operands built for half-width k alone: the
    evaluation points repeated over the 2k + 1 band rows, the edge-padded
    score points and the zero-padded probabilities, one window per row;
    with k None, every score point in every (J, J) entry's column."""
    points, probs, j = smoothing.points, smoothing.probs, smoothing.points.size
    window = np.lib.stride_tricks.sliding_window_view
    if k is None:
        width = j
        cols, weights = (np.repeat(v[:, None], j, axis=1) for v in (points, probs))
    else:
        width = 2 * k + 1
        cols = window(np.pad(points, k, "edge"), j).copy()
        weights = window(np.pad(probs, k), j)
    return {term: (np.repeat(x[..., None, :], width, axis=-2), cols, weights)
            for term, x in (("pdf", points), ("slope", smoothing.probes))}


def subnormal_redos():
    """A spy on ``_Smoothing._with_subnormals``, the kernel's rare redo."""
    return patch.object(_Smoothing, "_with_subnormals", autospec=True,
                        side_effect=_Smoothing._with_subnormals)


def scenario_targets(scenario_id, reps=3):
    """r and s of replications 0..reps-1 at seed 0, as the simulation draws them."""
    scenario = ScenarioSpec.from_table(scenario_id)
    for rep in range(reps):
        p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                for key, pop in enumerate("PQ"))
        yield from _target_probs(NecInput.from_datasets(p, q), GkePipelineConfig())[:2]


def scalar_cdf_oracle(dist, h, x):
    """Term-by-term summation, independent of the vectorized path."""
    mu = dist.mean
    a = math.sqrt(dist.variance / (dist.variance + h * h))
    total = 0.0
    for j, xj in enumerate(dist.scale.points):
        u = (x - a * xj - (1 - a) * mu) / (a * h)
        total += dist.probs[j] * 0.5 * (1 + math.erf(u / math.sqrt(2)))
    return total


# Property tests draw a fixed example sequence, which keeps the suite
# reproducible.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def continuized(draw):
    """A score distribution (at least two points with mass) and a bandwidth."""
    n = draw(st.integers(1, 40))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)))
    two = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
    weights[two] += draw(st.floats(0.05, 1.0))
    dist = ScoreDistribution(ScoreScale(0, n), weights / weights.sum())
    return ContinuizedCdf(dist, draw(st.floats(0.1, 3.0)))


@st.composite
def grid_penalties(draw):
    """PEN1, its floor, PEN2 and PEN2's floor on the 64 bandwidth grid
    points, and PEN1 and PEN2 between them.

    On the grid, PEN1 is high but at a few points, anywhere on the grid,
    whose penalties often tie; its floor is 0, a fraction of it or PEN1
    itself; PEN2 is anything, and its floor is 0, min(1, PEN2) or PEN2.
    Between grid points PEN1 steps through four small integers per grid
    cell, and PEN2 is picked by the low bits of h, so the refinement's new
    points often tie the PEN1, or the full penalty, of the point it
    keeps."""
    pen1 = np.full(64, 8.0)
    low = draw(st.lists(st.integers(0, 63), min_size=1, max_size=6, unique=True))
    pen1[low] = draw(st.lists(st.integers(0, 2), min_size=len(low), max_size=len(low)))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0]),
                              min_size=64, max_size=64))
    pen2 = np.array(draw(st.lists(st.integers(0, 3), min_size=64, max_size=64)))
    between1 = np.array(draw(st.lists(st.integers(0, 3), min_size=4, max_size=4)))
    between2 = np.array(draw(st.lists(st.integers(0, 3), min_size=8, max_size=8)))
    floors2 = np.array(draw(st.lists(st.integers(0, 2), min_size=64, max_size=64)))
    return pen1, np.array(fractions) * pen1, pen2, between1, between2, floors2


def tied_grid_penalties(floors2=0):
    """At kpen 1, grid point 10 ties grid point 20's least penalty with a
    larger PEN1.  With PEN2's floor 0 (``floors2`` 0) the search visits it
    second and must still keep it; with the floor PEN2 (``floors2`` 2)
    point 20 waits at floor + 1, level with point 10's floor."""
    pen1, pen2 = np.full(64, 8.0), np.zeros(64)
    pen1[10], pen1[20], pen2[20] = 1.0, 0.0, 1.0
    return (pen1, pen1.copy(), pen2, np.full(4, 8), np.zeros(8, dtype=int),
            np.full(64, floors2))


def patched_penalties(dist, penalties):
    """``_Smoothing.pen1``, ``pen1_floors``, ``pen2`` and ``pen2_floors``
    replaced by ``grid_penalties``' values on the bandwidth grid of
    ``dist``.  Choice 0, 1 or 2 of ``floors2`` makes PEN2's floor at each
    grid point 0, min(1, PEN2) or PEN2."""
    pen1, floors, pen2, between1, between2, floors2 = penalties
    grid = bandwidth_grid(dist)

    def cell(h):
        k = int(np.searchsorted(grid, h))
        return k, (k < len(grid) and grid[k] == h)

    def patched_pen1(self, h):
        k, on_grid = cell(h)
        if on_grid:
            return float(pen1[k])
        t = math.log(h / grid[k - 1]) / math.log(grid[k] / grid[k - 1])
        return float(between1[min(int(4 * t), 3)])

    def patched_pen1_floors(self, hs):
        assert np.array_equal(hs, grid)
        return floors.copy()

    def patched_pen2(self, h):
        k, on_grid = cell(h)
        return float(pen2[k] if on_grid else between2[int(np.float64(h).view(np.int64)) % 8])

    def patched_pen2_floors(self, hs):
        assert np.array_equal(hs, grid)
        return np.choose(floors2, [np.zeros(64), np.minimum(1.0, pen2), pen2])

    return (patch.object(_Smoothing, "pen1", patched_pen1),
            patch.object(_Smoothing, "pen1_floors", patched_pen1_floors),
            patch.object(_Smoothing, "pen2", patched_pen2),
            patch.object(_Smoothing, "pen2_floors", patched_pen2_floors))


@st.composite
def multimodal(draw):
    """Two to four Gaussian bumps on 0..n, plus noise and some empty points."""
    n = draw(st.integers(8, 60))
    x = np.arange(n + 1)
    bumps = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 6.0),
                                    st.floats(0.1, 1.0)), min_size=2, max_size=4))
    weights = sum(w * np.exp(-0.5 * ((x - c * n) / sd) ** 2) for c, sd, w in bumps)
    noise = draw(st.lists(st.floats(0.0, 0.05), min_size=n + 1, max_size=n + 1))
    weights = weights + np.array(noise) * weights.max()
    empty = draw(st.lists(st.integers(0, n), max_size=n // 4))
    weights[empty] = 0.0
    weights[[int(round(c * n)) for c, _, _ in bumps]] += 0.05 * weights.max()
    return ScoreDistribution(ScoreScale(0, n), weights / weights.sum())


@st.composite
def dense_or_sparse(draw):
    """A score distribution on 0..n: mass at every point, or a
    pass-through table of a few binomial draws with most points empty."""
    n = draw(st.integers(1, 100))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1,
                                         max_size=n + 1)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = np.bincount(rng.binomial(n, draw(st.floats(0.05, 0.95)),
                                           draw(st.integers(2, 400))), minlength=n + 1)
        if np.count_nonzero(weights) < 2:
            weights[[0, n]] += 1
    return ScoreDistribution(ScoreScale(0, n), weights / weights.sum())


@st.composite
def offset_tables(draw):
    """A score distribution on ScoreScale(m, m + n) with m != 0 (dense, or a
    pass-through table of a few draws), two bandwidths from half to twice
    where PEN1 and PEN2 switch from the band to the full kernel, and
    whether to evaluate them in the state a redo leaves (exp cut at
    EXP_ZERO)."""
    n = draw(st.integers(4, 120))
    m = draw(st.integers(-300, 300).filter(bool))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1,
                                         max_size=n + 1)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = np.bincount(rng.binomial(n, draw(st.floats(0.05, 0.95)),
                                           draw(st.integers(2, 400))), minlength=n + 1)
        if np.count_nonzero(weights) < 2:
            weights[[0, n]] += 1
    dist = ScoreDistribution(ScoreScale(m, m + n), weights / weights.sum())
    # The band is taken while 4k + 2 < J, with k about R a h.
    switch = (n + 1) / (4.0 * math.sqrt(-2.0 * EXP_NORMAL))
    hs = [switch * draw(st.floats(0.5, 2.0)) for _ in range(2)]
    return dist, hs, draw(st.booleans())


def half_width_oracle(dist, h, cut):
    """The band's half-width for bandwidth h and exp cut ``cut``."""
    a = math.sqrt(dist.variance / (dist.variance + h * h))
    reach = float(np.max(np.abs(dist.scale.points - dist.mean)))
    return math.ceil(math.sqrt(-2.0 * cut) * (1.0 + 1e-9) * a * h + 0.25 + (1.0 - a) * reach)


class TestKernelCdf:
    def test_symmetric_midpoint(self):
        c = ContinuizedCdf(two_point(), 0.7)
        assert kernel_cdf(c, 5.0) == pytest.approx(0.5, abs=1e-12)

    def test_tail_limits(self):
        d = binomial_dist(10, 0.5)
        c = ContinuizedCdf(d, 1.0)
        sd = math.sqrt(d.variance)
        assert kernel_cdf(c, 0 - 10 * c.h - 10 * sd) < 1e-6
        assert kernel_cdf(c, 10 + 10 * c.h + 10 * sd) > 1 - 1e-6

    def test_term_by_term_oracle(self):
        d = binomial_dist(10, 0.5)
        c = ContinuizedCdf(d, 1.0)
        assert kernel_cdf(c, 5.0) == pytest.approx(0.5, abs=1e-14)
        assert kernel_cdf(c, 6.3) == pytest.approx(scalar_cdf_oracle(d, 1.0, 6.3),
                                                   abs=1e-12)
        # frozen from the oracle
        assert kernel_cdf(c, 6.3) == pytest.approx(0.7921298497937337, abs=1e-12)

    def test_monotone_on_random_pairs(self):
        d = binomial_dist(12, 0.3)
        c = ContinuizedCdf(d, 0.6)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x1, x2 = np.sort(rng.uniform(-3, 15, size=2))
            if x1 < x2:
                assert kernel_cdf(c, x1) < kernel_cdf(c, x2)

    def test_non_finite_rejected(self):
        c = ContinuizedCdf(two_point(), 1.0)
        with pytest.raises(ValidationError):
            kernel_cdf(c, float("inf"))


class TestKernelPdf:
    def test_symmetry_about_mean(self):
        c = ContinuizedCdf(two_point(), 0.8)
        for delta in (0.5, 1.7, 4.0):
            assert kernel_pdf(c, 5 - delta) == pytest.approx(kernel_pdf(c, 5 + delta),
                                                             abs=1e-12)

    def test_trapezoid_quadrature_integrates_to_one(self):
        d = binomial_dist(15, 0.4)
        c = ContinuizedCdf(d, 0.8)
        grid = np.linspace(-15, 30, 20_001)
        total = np.trapezoid(kernel_pdf(c, grid), grid)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_point_mass_rejected_upstream(self):
        d = ScoreDistribution(ScoreScale(0, 3), [0, 1.0, 0, 0])
        with pytest.raises(ValidationError):
            ContinuizedCdf(d, 1.0)

    def test_derivative_matches_finite_difference(self):
        # PEN2's slope at its probes against the density's central difference.
        c = ContinuizedCdf(binomial_dist(10, 0.5), 0.9)
        probes = c._smoothing.probes
        fd = (kernel_pdf(c, probes + 1e-6) - kernel_pdf(c, probes - 1e-6)) / 2e-6
        assert c._smoothing._penalty_sums(c.h, "slope") == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("term", ["pdf", "slope"])
    def test_unknown_term_raises(self, term):
        c = ContinuizedCdf(binomial_dist(10, 0.5), 0.9)
        with pytest.raises(ValueError, match="unknown kernel term"):
            _kernel(c, 2.0, "cdf", term)


class TestBandwidthSelection:
    def test_pen1_nonnegative(self):
        d = binomial_dist(20, 0.5)
        for h in (0.1, 0.5, 1.0, 3.0):
            assert penalty(d, h, kpen=0.0) >= 0.0

    def test_two_point_penalty_direct_formula(self):
        d = ScoreDistribution(ScoreScale(0, 1), [0.5, 0.5])
        h = 0.1
        a = math.sqrt(0.25 / (0.25 + h * h))
        mu = 0.5

        def f(x):
            total = 0.0
            for xj in (0.0, 1.0):
                u = (x - a * xj - (1 - a) * mu) / (a * h)
                total += 0.5 * math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) / (a * h)
            return total

        def fprime(x, eps=1e-7):
            return (f(x + eps) - f(x - eps)) / (2 * eps)

        pen1 = (0.5 - f(0.0)) ** 2 + (0.5 - f(1.0)) ** 2
        pen2 = sum(
            1 for xj in (0.0, 1.0)
            if fprime(xj - 0.25) < 0 and not fprime(xj + 0.25) > 0
        )
        assert penalty(d, h, kpen=1.0) == pytest.approx(pen1 + pen2, rel=1e-9)

    def test_agrees_with_exhaustive_grid(self):
        d = binomial_dist(20, 0.5)
        h = select_bandwidth(d, kpen=1.0)
        grid = np.linspace(0.05, 4 * math.sqrt(d.variance), 20_001)
        pens = np.array([penalty(d, g, 1.0) for g in grid])
        h_oracle = grid[int(np.argmin(pens))]
        assert abs(h - h_oracle) < 1e-3
        assert penalty(d, h, 1.0) <= pens.min() + 1e-12

    def test_point_mass_rejected(self):
        d = ScoreDistribution(ScoreScale(0, 2), [0, 1.0, 0])
        with pytest.raises(ValidationError, match="point mass"):
            select_bandwidth(d)

    @pytest.mark.parametrize("kpen", [-0.5, math.inf, math.nan])
    def test_kpen_must_be_finite_and_nonnegative(self, kpen):
        with pytest.raises(ValidationError, match="kpen"):
            select_bandwidth(binomial_dist(10, 0.5), kpen=kpen)

    @pytest.mark.parametrize("scenario_id", [1, 5, 9])
    def test_equals_eager_search_on_scenarios(self, scenario_id):
        visits, grid_pen1_calls = [], []
        for dist in scenario_targets(scenario_id):
            grid = set(bandwidth_grid(dist))
            for kpen in (0.0, 0.5, 1.0):
                h, values = eager_search(dist, kpen)
                with patch.object(_Smoothing, "pen1", autospec=True,
                                  side_effect=_Smoothing.pen1) as pen1_spy:
                    assert select_bandwidth(dist, kpen) == h
                grid_pen1_calls.append(sum(c.args[1] in grid for c in pen1_spy.call_args_list))
                if kpen == 0.0:
                    pen1 = values
                else:
                    # Every grid point whose PEN1 is below the grid's
                    # least penalty has its PEN2 computed.
                    visits.append(sum(v < min(values) for v in pen1))
        assert sum(v > 1 for v in visits) > len(visits) / 2
        # The floors spare most searches some of the 64 grid PEN1s.
        assert sum(n < 64 for n in grid_pen1_calls) > len(grid_pen1_calls) / 2

    def test_floors_spare_most_grid_pen1s_on_scenario_5(self):
        # A work-count guard on the grid pass: on scenario 5's r and s the
        # search computes at most 6 of the 64 grid PEN1s on average (3.7 on
        # these 20 searches, 12.2 without PEN2's batch floors), and still
        # equals the eager search.
        counts = []
        for dist in scenario_targets(5, reps=10):
            grid = set(bandwidth_grid(dist))
            with patch.object(_Smoothing, "pen1", autospec=True,
                              side_effect=_Smoothing.pen1) as pen1_spy:
                h = select_bandwidth(dist)
            counts.append(sum(c.args[1] in grid for c in pen1_spy.call_args_list))
            assert h == eager_search(dist, 1.0)[0]
        assert np.mean(counts) <= 6

    @PROPERTY
    @given(grid_penalties(), st.sampled_from([0.0, 0.5, 1.0]))
    @example(tied_grid_penalties(), 1.0)
    @example(tied_grid_penalties(floors2=2), 1.0)
    def test_equals_eager_search_on_any_grid_penalties(self, penalties, kpen):
        dist = binomial_dist(20, 0.5)
        patch_pen1, patch_floors, patch_pen2, patch_floors2 = patched_penalties(dist, penalties)
        with patch_pen1, patch_floors, patch_pen2, patch_floors2:
            assert select_bandwidth(dist, kpen) == eager_search(dist, kpen)[0]

    @pytest.mark.parametrize("kpen", [0.0, 0.5, 1.0])
    def test_pen2_floors_are_taken_once_over_the_grid(self, kpen):
        # One batch of PEN2 floors per search, over all 64 grid points, and
        # none at kpen 0; the refinement takes none.
        for dist in [*scenario_targets(5, reps=1), *list(sparse_tables())[:4]]:
            with patch.object(_Smoothing, "pen2_floors", autospec=True,
                              side_effect=_Smoothing.pen2_floors) as floors_spy:
                select_bandwidth(dist, kpen)
            assert floors_spy.call_count == (kpen != 0.0)
            for call in floors_spy.call_args_list:
                assert np.array_equal(call.args[1], bandwidth_grid(dist))

    @PROPERTY
    @given(st.data())
    def test_equals_eager_search_on_multimodal_distributions(self, data):
        dist = data.draw(multimodal())
        kpen = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        assert select_bandwidth(dist, kpen) == eager_search(dist, kpen)[0]

    @pytest.mark.parametrize("scenario_id", [1, 5, 9])
    def test_pen1_floors_are_below_pen1_on_scenarios(self, scenario_id):
        for dist in scenario_targets(scenario_id):
            smoothing, grid = _Smoothing(dist), bandwidth_grid(dist)
            floors = smoothing.pen1_floors(grid)
            assert all(f <= smoothing.pen1(h) for f, h in zip(floors, grid))
            assert np.count_nonzero(floors) > 0

    def test_subset_floor_over_every_point_is_pen1_within_slack(self):
        # Over all score points the subset floors' sum is PEN1 itself, less
        # its rounding allowance: it forms the same terms.
        for dist in scenario_targets(5, reps=1):
            smoothing, grid = _Smoothing(dist), bandwidth_grid(dist)
            shrink = np.array([smoothing._shrink(h) for h in grid])
            floors = smoothing._subset_floors(shrink, slice(None))
            pen1 = np.array([smoothing.pen1(h) for h in grid])
            assert np.all(floors <= pen1) and np.all(floors >= (1.0 - 1e-6) * pen1)

    @PROPERTY
    @given(st.one_of(dense_or_sparse(), multimodal()))
    def test_pen1_floors_are_below_pen1(self, dist):
        smoothing, grid = _Smoothing(dist), bandwidth_grid(dist)
        floors = smoothing.pen1_floors(grid)
        assert floors.shape == grid.shape
        assert all(0.0 <= f <= smoothing.pen1(h) for f, h in zip(floors, grid))


class TestPen2Floor:
    @PROPERTY
    @given(st.data())
    def test_certified_points_are_counted(self, data):
        # Every point a batch certifies is one pen2 counts, fresh and in the
        # state a redo leaves, and also where pen2 then takes the redo
        # itself: the certificates are taken before the slopes.  A batch
        # certifies exactly the points that one-bandwidth calls do.
        table = data.draw(st.one_of(dense_or_sparse(), multimodal(), offset_tables()))
        if isinstance(table, tuple):
            dist, hs, redo = table
        else:
            dist, grid = table, bandwidth_grid(table)
            hs = [data.draw(st.floats(float(grid[0]), float(grid[-1]))) for _ in range(2)]
            redo = data.draw(st.booleans())
        smoothing = _Smoothing(dist)
        if redo:
            smoothing._exp_cut = EXP_ZERO  # as _with_subnormals leaves it
        certified = np.array([smoothing._certified(hs, i) for i in range(dist.scale.n_points)]).T
        singles = [[smoothing._certified([h], i)[0] for i in range(dist.scale.n_points)]
                   for h in hs]
        assert np.array_equal(certified, singles)
        floors = smoothing.pen2_floors(hs)
        assert floors.shape == (len(hs),) and set(floors) <= {0.0, 1.0}
        for h, row, floor in zip(hs, certified, floors):
            left, right = smoothing._penalty_sums(h, "slope")
            counted = (left < 0.0) & ~(right > 0.0)
            assert not np.any(row & ~counted)
            assert floor <= smoothing.pen2(h)

    def test_declines_a_slope_within_rounding_of_zero(self):
        # Poisson(4) on 0..20: near h = 0.54 the slope at 3.75, score point
        # 4's left probe, turns from rising to falling, while the slope at
        # 4.25 keeps falling.  Within a few ulps of the turn pen2 may count
        # point 4 on a slope that is only rounding, and the certificate
        # must not.  Away from the turn it does.
        probs = poisson.pmf(np.arange(21), 4.0)
        smoothing = _Smoothing(ScoreDistribution(ScoreScale(0, 20), probs / probs.sum()))

        def slopes(h):
            left, right = smoothing._penalty_sums(h, "slope")
            return left[4], right[4]

        lo, hi = 0.5, 0.6
        assert slopes(lo)[0] > 0.0 > slopes(hi)[0]
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slopes(mid)[0] > 0.0 else (lo, mid)
        near = [hi]
        for _ in range(8):
            near.append(np.nextafter(near[-1], np.inf))
        counted = 0
        for h in near:
            left, right = slopes(h)
            assert abs(left) < 1e-14 * abs(right) and right < 0.0
            counted += left < 0.0
            assert not smoothing._certified([h], 4)[0]
        assert counted > 0
        assert np.all(smoothing._certified([0.6, hi * (1 + 1e-9)], 4))


class TestExactZeros:
    def test_exp_is_zero_at_and_below_threshold(self):
        t = np.concatenate([np.linspace(-1e4, EXP_ZERO, 100_003), [EXP_ZERO, -1e300]])
        for args in (t, t[1::3], t[::-1].copy()):
            e = np.exp(args)
            assert np.all(e == 0.0) and not np.any(np.signbit(e))
        assert all(math.exp(v) == 0.0 for v in (EXP_ZERO, -800.0, -1e4))

    @pytest.mark.parametrize("h", [H_MIN, 9.0])
    def test_terms_equal_unmasked_formula(self, h):
        # A pass-through table of 40 draws on 0..60: most points are empty.
        rng = np.random.default_rng(4)
        counts = np.bincount(rng.binomial(60, 0.45, 40), minlength=61)
        dist = ScoreDistribution(ScoreScale(0, 60), counts / counts.sum())
        c = ContinuizedCdf(dist, h)
        pen1, pen2 = penalty_terms_within_bound(dist, h)
        x = np.concatenate([dist.scale.points, np.linspace(-30.0, 90.0, 241)])
        cdf = unmasked_terms(dist, h, x)[2]
        assert np.array_equal(kernel_pdf(c, x), unmasked_row_pdf(dist, h, x))
        assert np.array_equal(kernel_cdf(c, x), cdf)
        assert kernel_cdf(c, 17.0) == unmasked_terms(dist, h, np.array(17.0))[2]
        assert kernel_pdf(c, 17.0) == unmasked_row_pdf(dist, h, np.array(17.0))
        for kpen in (0.0, 0.5, 1.0):
            assert penalty(dist, h, kpen) == (pen1 + kpen * pen2 if kpen else pen1)

    def test_exp_is_normal_exactly_above_exp_normal(self):
        tiny = np.finfo(float).tiny  # DBL_MIN
        assert EXP_NORMAL == np.nextafter(math.log(tiny), -np.inf)
        above = np.concatenate([[np.nextafter(EXP_NORMAL, np.inf)],
                                np.linspace(np.nextafter(EXP_NORMAL, np.inf), -700.0, 100_003)])
        below = np.concatenate([[EXP_NORMAL, np.nextafter(EXP_NORMAL, -np.inf)],
                                np.linspace(EXP_ZERO, EXP_NORMAL, 100_003)])
        for args in (above, above[1::3], above[::-1].copy()):
            assert np.all(np.exp(args) >= tiny)
        for args in (below, below[1::3], below[::-1].copy()):
            assert np.all(np.exp(args) <= tiny)
        assert math.exp(np.nextafter(EXP_NORMAL, np.inf)) >= tiny >= math.exp(EXP_NORMAL)

    @PROPERTY
    @given(st.data())
    def test_terms_equal_unmasked_formula_anywhere(self, data):
        dist = data.draw(dense_or_sparse())
        grid = bandwidth_grid(dist)
        h = data.draw(st.floats(float(grid[0]), float(grid[-1])))
        n = dist.scale.max
        reach = data.draw(st.floats(0.0, 20.0)) * (n + h)
        x = np.concatenate([dist.scale.points.astype(float),
                            np.linspace(-reach, n + reach, data.draw(st.integers(1, 60)))])
        pen1, pen2 = penalty_terms_within_bound(dist, h)
        assert np.array_equal(kernel_pdf(ContinuizedCdf(dist, h), x),
                              unmasked_row_pdf(dist, h, x))
        for kpen in (0.0, 1.0):
            assert penalty(dist, h, kpen) == (pen1 + kpen * pen2 if kpen else pen1)

    def test_sparse_table_takes_the_redo_and_keeps_the_search(self):
        # A pass-through table of 52 draws on 0..84: far from the mass the
        # density and slope sums fall below 2**-800, so the search redoes a
        # call with the subnormals.
        counts = np.bincount(np.random.default_rng(3).binomial(84, 0.34, 52), minlength=85)
        dist = ScoreDistribution(ScoreScale(0, 84), counts / counts.sum())
        terms = [penalty_terms_within_bound(dist, g) for g in bandwidth_grid(dist)]
        for kpen in (0.0, 0.5, 1.0):
            with subnormal_redos() as spy:
                h = select_bandwidth(dist, kpen)
            assert spy.call_count > 0
            expected, values = eager_search(dist, kpen)
            assert h == expected
            assert values == [pen1 + kpen * pen2 if kpen else pen1 for pen1, pen2 in terms]

    def test_each_smoothing_redoes_at_most_once(self):
        # After a redo a smoothing computes the subnormals on every call.
        most = 0
        for kpen in (0.0, 0.5, 1.0):
            for dist in sparse_tables():
                with subnormal_redos() as spy:
                    h = select_bandwidth(dist, kpen)
                redos = Counter(id(call.args[0]) for call in spy.call_args_list)
                most = max([most, *redos.values()])
                assert h == eager_search(dist, kpen)[0]
        assert most == 1

    def test_scenario_5_never_takes_the_redo(self):
        # The presmoothed r and s of scenario 5, and every density and slope
        # sum of the GKE and sequential GKE runs, stay above 2**-800.
        scenario = ScenarioSpec.from_table(5)
        with subnormal_redos() as spy:
            for dist in scenario_targets(5):
                select_bandwidth(dist)
            for rep in range(3):
                p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                        for key, pop in enumerate("PQ"))
                PipelineSpec("GKE").run(p, q)
                PipelineSpec("sequential GKE", OTHER_SCORE).run(p, q)
        assert spy.call_count == 0

    def test_terms_outlive_reused_scratch_arrays(self):
        c = ContinuizedCdf(binomial_dist(20, 0.4), 0.6)
        smoothing = c._smoothing
        x = np.linspace(-2.0, 22.0, 50)

        def evaluate():
            return [*_kernel(c, x, "cdf", "row_pdf"),
                    *(smoothing._penalty_sums(c.h, term) for term in ("pdf", "slope"))]

        first = evaluate()
        kept = [v.copy() for v in first]
        _kernel(c, np.linspace(0.0, 20.0, 400), "row_pdf", "cdf")  # grows the arrays
        _kernel(c, 3.0, "row_pdf")  # and uses a prefix of them
        smoothing.penalty(0.1, 1.0)  # and writes a band of another half-width
        for value, copy in zip(first, kept):
            assert np.array_equal(value, copy)
        for value, again in zip(first, evaluate()):
            assert np.array_equal(value, again)


class TestBandedKernel:
    @PROPERTY
    @given(offset_tables())
    @example((binomial_dist(60, 0.4), [0.3, 0.45], True))
    def test_penalties_equal_unmasked_formula(self, table):
        dist, hs, redo = table
        smoothing = _Smoothing(dist)
        if redo:
            smoothing._exp_cut = EXP_ZERO  # as _with_subnormals leaves it
        # One smoothing across both bandwidths and back: a band of one
        # half-width must leave no trace in the next, and every penalty has
        # the bits of a fresh smoothing's.
        for h in (*hs, hs[0]):
            pen1, pen2 = penalty_terms_within_bound(dist, h, smoothing)
            for kpen in (0.0, 1.0):
                expected = pen1 + kpen * pen2 if kpen else pen1
                assert penalty(dist, h, kpen) == expected
                assert smoothing.penalty(h, kpen) == expected
        # Summed column by column, a band row has the bits of the whole
        # kernel's row, fresh or after a redo has widened the band.
        with patch.object(_Smoothing, "_half_width", return_value=None):
            whole = _Smoothing(dist)
            for h in hs:
                for term in ("pdf", "slope"):
                    assert np.array_equal(whole._penalty_sums(h, term),
                                          smoothing._penalty_sums(h, term))

    @PROPERTY
    @given(st.data())
    def test_row_sum_density_agrees_with_pen1s(self, data):
        # At the score points kernel_pdf (a row sum over every point) and
        # PEN1's banded density (a row sum over the band) differ only by
        # rounding and dropped subnormals, within the bound that
        # _Smoothing._subset_floors states.
        dist = data.draw(dense_or_sparse())
        grid = bandwidth_grid(dist)
        h = data.draw(st.floats(float(grid[0]), float(grid[-1])))
        c = ContinuizedCdf(dist, h)
        row = kernel_pdf(c, c._smoothing.points)
        band = c._smoothing._penalty_sums(h, "pdf")
        _, gauss, ah = unmasked_kernel(dist, h, c._smoothing.points)
        bound = summation_bound(gauss * dist.probs, INV_SQRT_2PI / ah, TINY)
        assert np.all(np.abs(row - band) <= bound)

    @PROPERTY
    @given(offset_tables(), st.sampled_from([EXP_NORMAL, EXP_ZERO]))
    def test_every_entry_outside_the_band_is_cut(self, table, cut):
        dist, hs, _ = table
        smoothing = _Smoothing(dist)
        points = dist.scale.points.astype(float)
        columns = np.arange(points.size)
        for h in hs:
            k = half_width_oracle(dist, h, cut)
            assert smoothing._half_width(*smoothing._shrink(h), cut) in (k, None)
            outside = np.abs(columns[:, None] - columns) > k
            for x in (points, np.stack([points - 0.25, points + 0.25])):
                u = unmasked_kernel(dist, h, x)[0]
                assert np.all((-0.5 * u**2)[..., outside] <= cut)

    def test_most_scenario_5_penalties_take_the_band(self):
        # A work-count guard: about 80 % of the PEN1 and PEN2 evaluations of
        # GKE and sequential GKE on scenario 5 take the band.
        scenario, half_width, widths = ScenarioSpec.from_table(5), _Smoothing._half_width, []

        def spy(self, a, ah, cut):
            widths.append(half_width(self, a, ah, cut))
            return widths[-1]

        with patch.object(_Smoothing, "_half_width", spy):
            for rep in range(3):
                p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                        for key, pop in enumerate("PQ"))
                PipelineSpec("GKE").run(p, q)
                PipelineSpec("sequential GKE", OTHER_SCORE).run(p, q)
        assert sum(k is not None for k in widths) >= 0.7 * len(widths)

    def test_replications_stay_within_their_memory(self):
        # The tracemalloc peak of three scenario-5 replications (GKE and
        # sequential GKE), band operands included: 3.4 MB.
        scenario = ScenarioSpec.from_table(5)
        tracemalloc.start()
        try:
            for rep in range(3):
                p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                        for key, pop in enumerate("PQ"))
                PipelineSpec("GKE").run(p, q)
                PipelineSpec("sequential GKE", OTHER_SCORE).run(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_penalties_allocate_no_operand_sized_array(self):
        # Once the scratch arrays exist, PEN1 on the full 101 x 101 kernel
        # forms u in them: repeated calls allocate less than one operand.
        smoothing = _Smoothing(binomial_dist(100, 0.4))
        assert smoothing._half_width(*smoothing._shrink(3.0), EXP_NORMAL) is None
        smoothing.pen1(3.0)
        tracemalloc.start()
        try:
            for _ in range(5):
                smoothing.pen1(3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 101 * 101 * 8

    def test_wide_scale_penalties_hold_their_bound(self):
        # One 301-point smoothing through bands of many half-widths, sliced
        # from one set of windows, and the whole kernel at h = 20.
        dist = binomial_dist(300, 0.5)
        smoothing = _Smoothing(dist)
        assert smoothing._half_width(*smoothing._shrink(20.0), EXP_NORMAL) is None
        for h in [*np.linspace(0.1, 2.0, 8), 20.0]:
            penalty_terms_within_bound(dist, h, smoothing)

    @pytest.mark.parametrize("j", [3, 4, 7, 20, 101, 301])
    def test_bands_equal_per_k_operands_bit_for_bit(self, j):
        # K is the widest half-width the band takes; every k up to it, and
        # the whole kernel, has the operands built for that k alone, once
        # broadcast to their shape.
        smoothing = _Smoothing(binomial_dist(j - 1, 0.4))
        widest = smoothing._widest
        assert 4 * widest + 2 < j <= 4 * widest + 6
        for k in [*range(widest + 1), None]:
            oracle = band_layout_oracle(smoothing, k)
            for term in ("pdf", "slope"):
                rows, cols, probs = smoothing._band(k, term)
                assert (*rows.shape[:-2], len(cols), rows.shape[-1]) == oracle[term][0].shape
                for got, want in zip((rows, cols, probs), oracle[term]):
                    assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()

    def test_concurrent_searches_equal_the_serial_run(self):
        # Nothing module-level is shared: two threads searching scenario 5's
        # targets at once each get the serial run's bandwidths.
        targets = list(scenario_targets(5, reps=2))

        def search():
            return np.array([select_bandwidth(dist) for dist in targets]).tobytes()

        serial = search()
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(search) for _ in range(2)]
            assert [run.result() for run in runs] == [serial, serial]

    def test_inversion_allocates_no_penalty_scratch(self):
        # The inversion sums its own terms: it builds no band windows.
        c = ContinuizedCdf(binomial_dist(40, 0.3), 0.5)
        inverse_cdf(c, np.linspace(0.01, 0.99, 25))
        assert "_windows" not in vars(c._smoothing)


class TestNormalCdf:
    # A dense scan puts the formula's last value below 1.0 at u ~ 8.292361
    # and its first value above 0.0 at u ~ -38.475366.
    ONE_FROM, ZERO_TO = 8.29237, -38.47537

    def test_formula_is_exact_at_and_beyond_the_cutoffs(self):
        ones = np.concatenate([np.linspace(self.ONE_FROM, PHI_ONE, 200_001),
                               np.linspace(PHI_ONE, 40.0, 200_001), [1e3, 1e300]])
        zeros = np.concatenate([np.linspace(PHI_ZERO, self.ZERO_TO, 200_001),
                                np.linspace(-200.0, PHI_ZERO, 200_001), [-1e3, -1e300]])
        assert np.all(unmasked_phi(ones) == 1.0)
        assert np.all(unmasked_phi(zeros) == 0.0)
        assert not np.any(np.signbit(unmasked_phi(zeros)))
        assert unmasked_phi(np.array([self.ONE_FROM - 1e-5]))[0] < 1.0
        assert unmasked_phi(np.array([self.ZERO_TO + 1e-5]))[0] > 0.0

    def test_masked_equals_unmasked_formula(self):
        cut = np.array([PHI_ZERO, PHI_ONE])
        near = np.concatenate([cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)])
        u = np.concatenate([near, np.linspace(-60.0, 20.0, 100_003),
                            np.linspace(PHI_ZERO - 1.0, PHI_ZERO + 1.0, 20_001),
                            np.linspace(PHI_ONE - 1.0, PHI_ONE + 1.0, 20_001)])
        for args in (u, u[1::3], u[::-1].copy(), u[:-1].reshape(-1, 2)[:, ::-1]):
            phi = _phi(args)
            assert phi.shape == args.shape
            assert np.array_equal(phi, unmasked_phi(args))
            assert not np.any(np.signbit(phi))

    def test_agrees_with_scipy_ndtr(self):
        u = np.linspace(-45.0, 45.0, 900_001)
        phi = _phi(u)
        assert np.max(np.abs(phi - ndtr(u))) <= 2.3e-16
        # Rounding u / sqrt 2 moves erfc by about u**2 ulps relative, in both;
        # against a 200-bit reference, _phi's error on [-20, PHI_ONE] stays
        # within 1.04 (1 + u**2) eps and ndtr's within 1.87 (1 + u**2) eps.
        inner = u[(u >= -20.0) & (u <= PHI_ONE)]
        rel = np.abs(_phi(inner) / ndtr(inner) - 1.0)
        assert np.all(rel <= 4.0 * (1.0 + inner**2) * np.finfo(float).eps)


class TestInverseCdf:
    def test_round_trip(self):
        d = binomial_dist(10, 0.5)
        c = ContinuizedCdf(d, 1.0)
        for x0 in np.linspace(0.5, 9.5, 13):
            assert inverse_cdf(c, kernel_cdf(c, x0)) == pytest.approx(x0, abs=1e-8)

    def test_symmetric_median(self):
        c = ContinuizedCdf(two_point(), 0.7)
        assert inverse_cdf(c, 0.5) == pytest.approx(5.0, abs=1e-10)

    def test_bisection_oracle(self):
        d = binomial_dist(10, 0.5)
        c = ContinuizedCdf(d, 1.0)
        x = inverse_cdf(c, 0.975)
        lo, hi = -20.0, 30.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if scalar_cdf_oracle(d, 1.0, mid) < 0.975:
                lo = mid
            else:
                hi = mid
        assert x == pytest.approx(0.5 * (lo + hi), abs=1e-8)
        assert abs(kernel_cdf(c, x) - 0.975) < 1e-10

    def test_p_outside_unit_interval(self):
        c = ContinuizedCdf(two_point(), 1.0)
        for p in (0.0, 1.0, -0.1, 1.3, np.nan, [0.5, 1.0]):
            with pytest.raises(ValidationError):
                inverse_cdf(c, p)

    def test_array_call_equals_scalar_calls(self):
        c = ContinuizedCdf(binomial_dist(20, 0.4), 0.6)
        rng = np.random.default_rng(11)
        p = np.concatenate([
            rng.uniform(size=30), [1e-12, 1.0 - 1e-12, 1e-15, 1.0 - 1e-15, 0.5],
        ])
        p = rng.permutation(np.concatenate([p, p[::3]]))  # repeats, spread out
        x = inverse_cdf(c, p)
        for pi, xi in zip(p, x):
            assert xi == inverse_cdf(c, float(pi))
        for pi in p:
            assert len(set(x[p == pi])) == 1
        order = rng.permutation(len(p))
        assert np.array_equal(inverse_cdf(c, p[order]), x[order])

    def test_array_of_any_shape_is_solved_flat(self):
        uniform = ScoreDistribution(ScoreScale(0, 10), np.full(11, 1.0 / 11))
        c = ContinuizedCdf(uniform, 0.7)
        p = np.linspace(0.02, 0.98, 12)
        flat = inverse_cdf(c, p)
        for shape in ((3, 4), (2, 3, 2), (12, 1)):
            assert inverse_cdf(c, p.reshape(shape)).tobytes() == flat.tobytes()
            assert inverse_cdf(c, p.reshape(shape)).shape == shape
        assert inverse_cdf(c, np.empty((0, 3))).shape == (0, 3)
        mapping = EquatingMap(c, ContinuizedCdf(binomial_dist(10, 0.4), 0.6))
        x = np.linspace(-1.0, 11.0, 12)
        for m in (mapping, ComposedMap((mapping, mapping))):
            assert m(x.reshape(3, 4)).tobytes() == m(x).tobytes()
            assert m(x.reshape(3, 4)).shape == (3, 4)

    def test_newton_evaluates_only_open_points(self):
        c = ContinuizedCdf(binomial_dist(20, 0.4), 0.6)
        p = np.concatenate([np.linspace(0.01, 0.99, 50), [1e-12, 1.0 - 1e-12, 1e-6]])
        sizes, terms_before = [], _Smoothing.terms

        def spy(self, h, x, *terms):
            if terms == ("cdf", "row_pdf"):
                sizes.append(np.size(x))
            return terms_before(self, h, x, *terms)

        with patch.object(_Smoothing, "terms", spy):
            x = inverse_cdf(c, p)
        assert sizes[0] == len(p) and sizes[-1] < len(p)
        assert sizes == sorted(sizes, reverse=True)
        assert np.array_equal(x, [inverse_cdf(c, float(pi)) for pi in p])

    def test_monotone_in_p_including_tails(self):
        tail = np.geomspace(1e-12, 1e-3, 200)
        p = np.concatenate([tail, np.linspace(0.002, 0.998, 500), (1.0 - tail)[::-1]])
        for dist, h in ((binomial_dist(30, 0.7), 0.4), (two_point(), 0.7)):
            x = inverse_cdf(ContinuizedCdf(dist, h), p)
            assert np.all(np.diff(x) >= 0.0)

    def test_clipped_tail_gets_one_root(self):
        # Sparse samples: the source CDF reaches the clip value at several
        # top score points, and the target density there is ~1e-10, so a
        # batch-dependent CDF would move each root by ~1e-6 and break the
        # equating table's monotonicity check.
        rng = np.random.default_rng(3)
        scale = ScoreScale(0, 30)
        dists = [
            ScoreDistribution(scale, np.bincount(rng.binomial(30, prob, 200),
                                                 minlength=31) / 200)
            for prob in (0.5, 0.55)
        ]
        f, g = (continuize(d) for d in dists)
        points = scale.points.astype(float)
        p = np.clip(kernel_cdf(f, points), P_TAIL, 1.0 - P_TAIL)
        assert np.all(p[25:] == 1.0 - P_TAIL)
        x = inverse_cdf(g, p)
        assert len(set(x[25:])) == 1
        EquatingTable(scale, EquatingMap(f, g)(points))


class TestMomentPreservation:
    def test_moments_and_gaussian_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(5, 30)
            probs = rng.dirichlet(np.full(n + 1, 2.0))
            d = ScoreDistribution(ScoreScale(0, n), probs)
            if d.variance <= 0:
                continue
            c = continuize(d, h=float(rng.uniform(0.3, 2.0)))
            sd = math.sqrt(d.variance + c.h**2)
            grid = np.linspace(d.mean - 12 * sd, d.mean + 12 * sd, 8_001)
            pdf = kernel_pdf(c, grid)
            mean = np.trapezoid(grid * pdf, grid)
            var = np.trapezoid(grid**2 * pdf, grid) - mean**2
            assert abs(mean - d.mean) < 1e-6
            assert abs(var - d.variance) < 1e-4 * d.variance

    @PROPERTY
    @given(continuized())
    def test_continuization_keeps_mean_and_variance(self, c):
        # The trapezoid rule with steps of half the kernels' width a h or
        # less is exact far below the tolerance for a sum of Gaussians; the
        # range covers mu +/- 12 (sigma + h), and every kernel to 12 widths.
        # Over these examples both moments hold to 1.5e-15 relative.
        mu, sigma, points = c.mu, math.sqrt(c.sigma2), c._smoothing.points
        ah = c._smoothing._shrink(c.h)[1]
        lo = min(mu - 12 * (sigma + c.h), points[0] - 12 * c.h)
        hi = max(mu + 12 * (sigma + c.h), points[-1] + 12 * c.h)
        x = np.linspace(lo, hi, math.ceil((hi - lo) / (0.5 * ah)) + 1)
        pdf = kernel_pdf(c, x)
        assert np.trapezoid(x * pdf, x) == pytest.approx(mu, rel=1e-10, abs=1e-10 * sigma)
        assert np.trapezoid((x - mu) ** 2 * pdf, x) == pytest.approx(c.sigma2, rel=1e-10)

    def test_large_bandwidth_approaches_gaussian(self):
        d = binomial_dist(20, 0.35)
        sd = math.sqrt(d.variance)
        c = ContinuizedCdf(d, 50 * sd)
        grid = np.linspace(d.mean - 4 * sd, d.mean + 4 * sd, 801)
        gauss = norm.cdf(grid, d.mean, sd)
        assert np.max(np.abs(kernel_cdf(c, grid) - gauss)) < 0.005


def support_grid(c, num=201):
    spread = 6.0 * (math.sqrt(c.sigma2) + c.h)
    return np.linspace(c.mu - spread, c.mu + spread, num)


class TestKernelProperties:
    @PROPERTY
    @given(continuized())
    def test_cdf_nondecreasing(self, c):
        assert np.all(np.diff(kernel_cdf(c, support_grid(c))) >= 0.0)

    @PROPERTY
    @given(continuized())
    def test_pdf_and_slope_match_central_differences(self, c):
        # The density anywhere and at the score points (PEN1's) against the
        # CDF's central difference; PEN2's slope at its probes against the
        # density's.
        smoothing, eps = c._smoothing, 1e-4 * c.h
        x = support_grid(c, 41)
        pdf = kernel_pdf(c, x)
        peak = float(np.max(pdf))

        def central(f, at):
            return (f(c, at + eps) - f(c, at - eps)) / (2 * eps)

        assert central(kernel_cdf, x) == pytest.approx(pdf, rel=1e-6, abs=1e-7 * peak)
        assert central(kernel_cdf, smoothing.points) == pytest.approx(
            smoothing._penalty_sums(c.h, "pdf"), rel=1e-6, abs=1e-7 * peak)
        assert central(kernel_pdf, smoothing.probes) == pytest.approx(
            smoothing._penalty_sums(c.h, "slope"), rel=1e-6, abs=1e-7 * peak / c.h)

    @PROPERTY
    @given(continuized(), continuized(), st.data())
    def test_subsets_equal_the_full_batch(self, f, g, data):
        # Each point is solved apart from its batch: the inversion iterates
        # only on open points, the covariate map reads its own table, and
        # the density is a row sum.
        n = data.draw(st.integers(1, 40))
        p = np.array(data.draw(st.lists(st.floats(P_TAIL, 1.0 - P_TAIL),
                                        min_size=n, max_size=n)))
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        assert inverse_cdf(g, p[subset]).tobytes() == inverse_cdf(g, p)[subset].tobytes()
        x = support_grid(g, n)
        assert kernel_pdf(g, x[subset]).tobytes() == kernel_pdf(g, x)[subset].tobytes()
        mapping = EquatingMap(f, g)
        points = f.dist.scale.points.astype(float)
        picked = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=1,
                                    max_size=len(points)))
        assert mapping(points[picked]).tobytes() == mapping(points)[picked].tobytes()

    @PROPERTY
    @given(continuized())
    def test_inverse_undoes_cdf(self, c):
        x = support_grid(c)
        cdf, pdf = _kernel(c, x, "cdf", "row_pdf")
        # Where the density is tiny the CDF is flat and x is ill-determined.
        x = x[(pdf > 1e-3) & (cdf > 1e-9) & (cdf < 1.0 - 1e-9)]
        assert np.max(np.abs(inverse_cdf(c, kernel_cdf(c, x)) - x), initial=0.0) < 1e-10
