"""Tests for Gaussian-kernel continuization and bandwidth selection."""

import math
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom, norm

import keq.continuize
from keq.core import EquatingTable, ScoreDistribution, ScoreScale, ValidationError, substream
from keq.continuize import (
    BAND_CACHE_BYTES,
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
    a = float(np.sqrt(dist.variance / (dist.variance + h**2)))
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


def unmasked_penalty(dist, h, kpen):
    """PEN1 + kpen * PEN2 from ``unmasked_terms``."""
    points = dist.scale.points.astype(float)
    pdf = unmasked_terms(dist, h, points, cdf=False)[0]
    left, right = unmasked_terms(dist, h, np.stack([points - 0.25, points + 0.25]),
                                 cdf=False)[1]
    pen1 = float(np.sum((dist.probs - pdf) ** 2))
    return pen1 + kpen * float(np.sum((left < 0.0) & ~(right > 0.0))) if kpen else pen1


def cached_operand_bytes():
    """Bytes held by the band operands every smoothing shares."""
    return sum(keq.continuize._operand_bytes(v) for v in keq.continuize._band_cache.values())


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
    """PEN1, its floor and PEN2 on the 64 bandwidth grid points, and PEN1
    and PEN2 between them.

    On the grid, PEN1 is high but at a few points, anywhere on the grid,
    whose penalties often tie; its floor is 0, a fraction of it or PEN1
    itself; PEN2 is anything.  Between grid points PEN1 steps through four
    small integers per grid cell and PEN2 is picked by the low bits of h,
    so the refinement's new points often tie the PEN1, or the full
    penalty, of the point it keeps."""
    pen1 = np.full(64, 8.0)
    low = draw(st.lists(st.integers(0, 63), min_size=1, max_size=6, unique=True))
    pen1[low] = draw(st.lists(st.integers(0, 2), min_size=len(low), max_size=len(low)))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0]),
                              min_size=64, max_size=64))
    pen2 = np.array(draw(st.lists(st.integers(0, 3), min_size=64, max_size=64)))
    between1 = np.array(draw(st.lists(st.integers(0, 3), min_size=4, max_size=4)))
    between2 = np.array(draw(st.lists(st.integers(0, 3), min_size=8, max_size=8)))
    return pen1, np.array(fractions) * pen1, pen2, between1, between2


def tied_grid_penalties():
    """At kpen 1, grid point 10 ties grid point 20's least penalty with a
    larger PEN1, so the search visits it second and must still keep it."""
    pen1, pen2 = np.full(64, 8.0), np.zeros(64)
    pen1[10], pen1[20], pen2[20] = 1.0, 0.0, 1.0
    return pen1, pen1.copy(), pen2, np.full(4, 8), np.zeros(8, dtype=int)


def patched_penalties(dist, penalties):
    """``_Smoothing.pen1``, ``pen1_floors`` and ``pen2`` replaced by
    ``grid_penalties``' values on the bandwidth grid of ``dist``."""
    pen1, floors, pen2, between1, between2 = penalties
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

    return (patch.object(_Smoothing, "pen1", patched_pen1),
            patch.object(_Smoothing, "pen1_floors", patched_pen1_floors),
            patch.object(_Smoothing, "pen2", patched_pen2))


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
    a = math.sqrt(dist.variance / (dist.variance + h**2))
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
        # A work-count guard: on scenario 5's r and s the search computes at
        # most 20 of the 64 grid PEN1s on average (4.4 on these 20 searches),
        # and still equals the eager search.
        counts = []
        for dist in scenario_targets(5, reps=10):
            grid = set(bandwidth_grid(dist))
            with patch.object(_Smoothing, "pen1", autospec=True,
                              side_effect=_Smoothing.pen1) as pen1_spy:
                h = select_bandwidth(dist)
            counts.append(sum(c.args[1] in grid for c in pen1_spy.call_args_list))
            assert h == eager_search(dist, 1.0)[0]
        assert np.mean(counts) <= 20

    @PROPERTY
    @given(grid_penalties(), st.sampled_from([0.0, 0.5, 1.0]))
    @example(tied_grid_penalties(), 1.0)
    def test_equals_eager_search_on_any_grid_penalties(self, penalties, kpen):
        dist = binomial_dist(20, 0.5)
        patch_pen1, patch_floors, patch_pen2 = patched_penalties(dist, penalties)
        with patch_pen1, patch_floors, patch_pen2:
            assert select_bandwidth(dist, kpen) == eager_search(dist, kpen)[0]

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
        c, smoothing = ContinuizedCdf(dist, h), _Smoothing(dist)
        points = dist.scale.points.astype(float)
        pdf = unmasked_terms(dist, h, points, cdf=False)[0]
        slope = unmasked_terms(dist, h, smoothing.probes, cdf=False)[1]
        assert np.array_equal(smoothing._penalty_sums(h, "pdf"), pdf)  # PEN1's density
        assert np.array_equal(smoothing._penalty_sums(h, "slope"), slope)  # PEN2's
        x = np.concatenate([points, np.linspace(-30.0, 90.0, 241)])
        cdf = unmasked_terms(dist, h, x)[2]
        assert np.array_equal(kernel_pdf(c, x), unmasked_row_pdf(dist, h, x))
        assert np.array_equal(kernel_cdf(c, x), cdf)
        assert kernel_cdf(c, 17.0) == unmasked_terms(dist, h, np.array(17.0))[2]
        assert kernel_pdf(c, 17.0) == unmasked_row_pdf(dist, h, np.array(17.0))
        for kpen in (0.0, 0.5, 1.0):
            assert penalty(dist, h, kpen) == unmasked_penalty(dist, h, kpen)

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
        smoothing = _Smoothing(dist)
        assert np.array_equal(smoothing._penalty_sums(h, "pdf"),
                              unmasked_terms(dist, h, smoothing.points, cdf=False)[0])
        assert np.array_equal(smoothing._penalty_sums(h, "slope"),
                              unmasked_terms(dist, h, smoothing.probes, cdf=False)[1])
        assert np.array_equal(kernel_pdf(ContinuizedCdf(dist, h), x),
                              unmasked_row_pdf(dist, h, x))
        for kpen in (0.0, 1.0):
            assert penalty(dist, h, kpen) == unmasked_penalty(dist, h, kpen)

    def test_sparse_table_takes_the_redo_and_keeps_the_search(self):
        # A pass-through table of 52 draws on 0..84: far from the mass the
        # density and slope sums fall below 2**-800, so the search redoes a
        # call with the subnormals.
        counts = np.bincount(np.random.default_rng(3).binomial(84, 0.34, 52), minlength=85)
        dist = ScoreDistribution(ScoreScale(0, 84), counts / counts.sum())
        grid = bandwidth_grid(dist)
        for kpen in (0.0, 0.5, 1.0):
            with subnormal_redos() as spy:
                h = select_bandwidth(dist, kpen)
            assert spy.call_count > 0
            expected, values = eager_search(dist, kpen)
            assert h == expected
            assert values == [unmasked_penalty(dist, g, kpen) for g in grid]

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
        points = dist.scale.points.astype(float)
        smoothing = _Smoothing(dist)
        if redo:
            smoothing._exp_cut = EXP_ZERO  # as _with_subnormals leaves it
        # One smoothing across both bandwidths and back: a band of one
        # half-width must leave no trace in the next.
        for h in (*hs, hs[0]):
            for kpen in (0.0, 1.0):
                expected = unmasked_penalty(dist, h, kpen)
                assert penalty(dist, h, kpen) == expected
                assert smoothing.penalty(h, kpen) == expected
            # PEN1's density against the unmasked gauss @ probs.
            pdf = unmasked_terms(dist, h, points, cdf=False)[0]
            assert smoothing._penalty_sums(h, "pdf").tobytes() == pdf.tobytes()

    @PROPERTY
    @given(st.data())
    def test_row_sum_density_agrees_with_pen1s(self, data):
        # At the score points kernel_pdf (a row sum) and PEN1's banded density
        # (a matrix product) differ only by rounding and dropped subnormals,
        # within the bound that _Smoothing._subset_floors states.
        dist = data.draw(dense_or_sparse())
        grid = bandwidth_grid(dist)
        h = data.draw(st.floats(float(grid[0]), float(grid[-1])))
        c = ContinuizedCdf(dist, h)
        j, eps = dist.scale.n_points, np.finfo(float).eps / 2
        row = kernel_pdf(c, c._smoothing.points)
        band = c._smoothing._penalty_sums(h, "pdf")
        ah = c._smoothing._shrink(h)[1]
        bound = 2 * (j + 3) * eps * np.maximum(row, band) + j * INV_SQRT_2PI / ah * 2.0**-1022
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
        # sequential GKE) from an empty operand cache: 3.3 MB of working
        # memory, and 1.8 MB of band operands, within BAND_CACHE_BYTES.
        scenario = ScenarioSpec.from_table(5)
        keq.continuize._band_cache.clear()
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
        assert cached_operand_bytes() <= BAND_CACHE_BYTES
        assert peak <= 4e6 + BAND_CACHE_BYTES

    def test_operand_cache_keeps_to_its_budget(self):
        # A 301-point scale's operands pass the budget: the cache drops the
        # oldest first, and keeps none larger than the budget on its own
        # (the full kernel's, 2.9 MB, at h = 20).
        keq.continuize._band_cache.clear()
        dist = binomial_dist(300, 0.5)
        smoothing = _Smoothing(dist)
        for h in [*np.linspace(0.1, 2.0, 8), 20.0]:
            assert smoothing.pen1(h) == unmasked_penalty(dist, h, 0.0)
            assert cached_operand_bytes() <= BAND_CACHE_BYTES
        assert None in smoothing._bands
        assert len(smoothing._bands) > len(keq.continuize._band_cache)
        assert all(k is not None for _, _, k in keq.continuize._band_cache)

    def test_inversion_allocates_no_penalty_scratch(self):
        c = ContinuizedCdf(binomial_dist(40, 0.3), 0.5)
        cached = list(keq.continuize._band_cache)
        inverse_cdf(c, np.linspace(0.01, 0.99, 25))
        assert c._smoothing._bands == {} and c._smoothing._buffer is None
        assert list(keq.continuize._band_cache) == cached


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
