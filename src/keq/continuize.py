"""Gaussian-kernel continuization of discrete score distributions.

A discrete distribution with mean ``mu`` and variance ``sigma2`` is turned
into a continuous CDF by spreading each score point's mass with a Gaussian
kernel of bandwidth ``h``, after shrinking the points toward the mean by
``a = sqrt(sigma2 / (sigma2 + h^2))`` so that the continuized distribution
keeps the discrete mean and variance exactly.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import KeqError, ScoreDistribution, ValidationError

__all__ = [
    "ContinuizedCdf",
    "continuize",
    "kernel_cdf",
    "kernel_pdf",
    "select_bandwidth",
    "penalty",
    "inverse_cdf",
]

INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Bandwidth search interval is [H_MIN, 4 * sd]; PEN2 probes the density
# slope a quarter score point either side of each score point.
H_MIN = 0.05
H_MAX_SD_FACTOR = 4.0
PEN2_OFFSET = 0.25

# PEN1 and PEN2 sum the kernel over a band of each row only, of half-width
# k from the exp cut with a relative BAND_SLACK to spare, while a*h exceeds
# BAND_AH_MIN (so u stays finite) and the score points are below
# BAND_POINT_MAX in magnitude (so u's rounding is far below a score point);
# see _Smoothing.  The band's operands are shared by every smoothing on a
# score scale, up to BAND_CACHE_BYTES in all (see _band_operands).
BAND_SLACK = 1e-9
BAND_AH_MIN = 1e-280
BAND_POINT_MAX = 2.0**32
BAND_CACHE_BYTES = 2 * 2**20

# np.exp(t) is exactly 0.0 for every t <= EXP_ZERO (it underflows below
# about -745.13), and below DBL_MIN, a subnormal, for every t <= EXP_NORMAL
# (the float just below ln DBL_MIN).  NumPy's exp takes a slow path for
# each lane whose result is subnormal or zero, so the Gaussian factor calls
# it only above EXP_NORMAL and leaves the other lanes zero; a call whose
# density or slope sums come out below GAUSS_SUM_MIN, where the dropped
# subnormals could show, is redone with them (see _Smoothing.terms).
EXP_ZERO = -746.0
EXP_NORMAL = -708.3964185322642
GAUSS_SUM_MIN = 2.0**-800

# _Smoothing.pen2_floors certifies a slope only where its sum exceeds its
# rounding allowance by PEN2_FLOOR_MIN, which covers the subnormals a redo
# may add.
PEN2_FLOOR_MIN = 2.0**-790

# The bandwidth grid's PEN1 floors give up this fraction of themselves to
# cover the rounding of PEN1's own sums (see _Smoothing.pen1_floors).  They
# sum PEN1's terms over every FLOOR_STRIDE-th score point at every grid
# bandwidth, and add the points half a stride on at the bandwidths whose
# floor is within FLOOR_REFINE times the smallest.
FLOOR_SLACK = 1e-6
FLOOR_STRIDE = 8
FLOOR_REFINE = 32.0

# _phi calls math.erfc only where PHI_ZERO < u < PHI_ONE: beyond them the
# normal CDF is exactly 0.0 or 1.0 (see _Smoothing.terms).
SQRT2 = math.sqrt(2.0)
PHI_ONE = 8.3
PHI_ZERO = -38.5

# inverse_cdf sizes its starting brackets to hold every p in
# [P_TAIL, 1 - P_TAIL], the range EquatingMap clips source probabilities
# into; a more extreme p adds bracket points beyond them.  A root is
# accepted once its bracket is narrower than XTOL + RTOL * |x|, the
# termination rule of Brent's method; RTOL is four machine epsilons.
P_TAIL = 1e-12
XTOL = 1e-13
RTOL = 8.9e-16
INVERSE_MAX_ITER = 100


def _phi(u: np.ndarray) -> np.ndarray:
    """Phi(u) = erfc(-u / SQRT2) / 2 for each entry of u, from math.erfc."""
    phi = np.where(u >= PHI_ONE, 1.0, 0.0)
    inside = (u > PHI_ZERO) & (u < PHI_ONE)
    v = (u[inside] / -SQRT2).tolist()
    phi[inside] = 0.5 * np.fromiter(map(math.erfc, v), float, len(v))
    return phi


_band_cache: OrderedDict = OrderedDict()
_band_cache_lock = threading.Lock()


def _band_operands(points: np.ndarray, probes: np.ndarray, k: int | None) -> dict:
    """Per term, the operands of PEN1's ("pdf") or PEN2's ("slope") kernel
    rows on the band of half-width k, one band column c = 0 .. 2k per row
    of a (2k + 1, J) array and one kernel row i per column of it: row i's
    evaluation point (a score point, or a probe), and score point i + c - k,
    or for a column beyond the scale the point at that end (it carries
    probability zero; see ``_Smoothing._band``).  With k None, c runs over
    every score point.  Both are contiguous, so u takes one pass where a
    broadcast would loop.

    Shared by every smoothing on the same score scale, read-only, and
    dropped least recently used first once they pass BAND_CACHE_BYTES in
    all; operands larger than that on their own are not kept here.
    """
    key = (float(points[0]), points.size, k)
    with _band_cache_lock:
        operands = _band_cache.get(key)
        if operands is not None:
            _band_cache.move_to_end(key)
            return operands
    j = points.size
    if k is None:
        width, cols = j, np.repeat(points[:, None], j, axis=1)
    else:
        width = 2 * k + 1
        cols = np.lib.stride_tricks.sliding_window_view(np.pad(points, k, "edge"), j).copy()
    operands = {term: (np.repeat(x[..., None, :], width, axis=-2), cols)
                for term, x in (("pdf", points), ("slope", probes))}
    for rows, _ in operands.values():
        rows.flags.writeable = False
    cols.flags.writeable = False
    with _band_cache_lock:
        _band_cache[key] = operands
        while sum(_operand_bytes(v) for v in _band_cache.values()) > BAND_CACHE_BYTES:
            _band_cache.popitem(last=False)
    return operands


def _operand_bytes(operands: dict) -> int:
    """Bytes held by one entry of ``_band_operands``' cache."""
    return operands["pdf"][1].nbytes + sum(rows.nbytes for rows, _ in operands.values())


class _Smoothing:
    """Gaussian-kernel smoothing of one score distribution, at any bandwidth.

    Holds what does not depend on h: the score points, their
    probabilities, the mean and variance, and PEN2's probe points.  A
    bandwidth search forms it once and evaluates every h against it.
    Every kernel sum it takes is a row sum, one per evaluation point: the
    CDF and density at any x (``terms``), PEN1's density and PEN2's slope
    (``_penalty_sums``), and lower bounds of PEN1 and PEN2 at a batch of
    bandwidths (``pen1_floors``, and ``pen2_floors`` from the slopes at one
    score point).  Its scratch arrays (see ``_work``) and that score point
    make it unsafe to share between threads.

    PEN1 and PEN2 sum p_j g_ij at the score points and -p_j u_ij g_ij at
    the probes only over a band where g can be nonzero: the columns j
    within k of row i (``_band_product``).  With row i's point x_i (a
    probe is a quarter point off) and unit-spaced score points,
    |x_i - a x_j - (1-a) mu| >= |i - j| - 1/4 - (1-a) max_j |x_j - mu|.
    So with R = sqrt(-2 cut) for this smoothing's exp cut, every column
    with |i - j| > k = ceil(R (1 + BAND_SLACK) a h + 1/4
    + (1-a) max_j |x_j - mu|) has |u| >= R (1 + BAND_SLACK) + 1/(a h),
    far beyond the rounding of u and of -u**2 / 2: the masked exp gives 0
    there (a test checks it against ``unmasked_kernel``).  The band's
    columns beyond the scale's ends carry probability zero.  Each row is
    summed one column at a time, in column order, so the zero terms
    before and after its nonzero ones add nothing: at any k a band row
    has the bits of the whole kernel's row, but for the sign of a sum
    that is exactly zero, and the k a redo widens moves no bit (a test
    checks both).  The band is taken while
    4k + 2 < J, where it is under half the row, and while a h exceeds
    BAND_AH_MIN and the score points are below BAND_POINT_MAX in
    magnitude, so that u is finite and its rounding small.  Otherwise
    the rows span every column.
    """

    def __init__(self, dist: ScoreDistribution):
        self.points = dist.scale.points.astype(float)
        self.probs = dist.probs
        self.mu = dist.mean
        self.sigma2 = dist.variance
        self.probes = np.stack([self.points - PEN2_OFFSET, self.points + PEN2_OFFSET])
        self._scratch = [np.empty(0) for _ in range(3)]
        self._exp_cut = EXP_NORMAL
        # pen2_floors' score point (see pen2), at first the one nearest mu + sigma.
        self._candidate = int(np.argmin(np.abs(self.points - (self.mu + math.sqrt(self.sigma2)))))
        lo, hi = float(self.points[0]), float(self.points[-1])
        self._reach = max(self.mu - lo, hi - self.mu)  # max_j |x_j - mu|
        self._bandable = max(-lo, hi) < BAND_POINT_MAX
        # Made by the first penalty (see _band): a smoothing that only
        # evaluates ``terms`` allocates none of it.
        self._bands: dict = {}

    def _work(self, shape: tuple) -> list:
        """Arrays of ``shape`` for u, exp's argument and the Gaussian factor,
        reused from call to call: a bandwidth search makes some 50 penalty
        calls, and arrays made afresh are faulted in page by page whenever
        the allocator returns them to the system.  PEN2's certificates make
        their own (``_certified``)."""
        size = math.prod(shape)
        if self._scratch[0].size < size:
            self._scratch = [np.empty(size) for _ in range(3)]
        return [buf[:size].reshape(shape) for buf in self._scratch]

    def terms(self, h: float, x, *terms):
        """The asked-for terms at bandwidth h and x (scalar or array), in order.

        "cdf" is the CDF and "row_pdf" the density, each summed row by row
        so that a point's bits do not depend on where it sits in the batch
        (a matrix product's do); any other name raises.  Both rest on
        u = (x - a*x_j - (1-a)*mu) / (a*h) for every score point j, formed
        here once over every x and j (``_offsets``).  PEN1's density at the
        score points and PEN2's slope at the probes form the same u on a
        band instead (``_penalty_sums``; see the class docstring).

        "cdf" sums Phi(u) = erfc(-u / sqrt 2) / 2 weighted by the score
        probabilities.  ``_phi`` calls math.erfc only where
        PHI_ZERO < u < PHI_ONE.  Beyond those cut-offs the formula rounds
        to exactly 1.0 (from u ~ 8.2924 up) or underflows to exactly 0.0
        (from u ~ -38.4754 down), and ``_phi`` sets those values, so every
        entry has the formula's bits.

        "row_pdf" sums p_j g_j over the score points, and PEN1 and PEN2
        sum p_j g_j and -p_j u_j g_j, with the Gaussian factor
        g = exp(-u**2 / 2).  exp is called only where
        -u**2 / 2 > EXP_NORMAL, so g is zero wherever exp would give a
        subnormal or zero.  That leaves every sum unchanged once it reaches
        GAUSS_SUM_MIN = 2**-800: a dropped term is below
        39 * DBL_MIN = 39 * 2**-1022 in magnitude (|u| < 39 there), so all
        of them together are below 2**-990, far less than half an ulp (at
        least 2**-853) of such a sum, which rounds to the same value with
        or without them.  Where a density or slope sum is below 2**-800 (a
        density far out in a tail, a slope that cancels to zero) the
        subnormals could show, so the sum is redone with exp wherever
        -u**2 / 2 > EXP_ZERO, which leaves zero only where exp gives
        exactly 0.0 (``_with_subnormals``).  From then on this smoothing
        calls exp down to EXP_ZERO (``_exp_cut``) and needs no redo: where
        tiny sums are common, as on sparse pass-through tables, paying for
        the subnormals on every call is cheaper than redoing call after
        call.  Either way every result has the same bits as exp over the
        whole array.
        """
        scalar = np.ndim(x) == 0
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValidationError("non-finite evaluation point")
        a, ah = self._shrink(h)
        u, arg, gauss = self._work((*x.shape, self.points.size))
        self._offsets(x[..., None], self.points, a, ah, u)

        def row_sums(cut):
            self._gauss(u, arg, gauss, cut)
            np.multiply(gauss, self.probs, out=arg)
            return arg.sum(axis=-1)

        out = []
        for term in terms:
            if term == "cdf":
                value = (_phi(u) * self.probs).sum(axis=-1)
            elif term == "row_pdf":
                value = self._checked(row_sums) * INV_SQRT_2PI / ah
            else:
                raise ValueError(f"unknown kernel term {term!r}")
            out.append(float(value) if scalar else value)
        return out

    def _shrink(self, h):
        """a = sqrt(sigma2 / (sigma2 + h*h)) and a*h at bandwidth h, a float
        or an array of bandwidths."""
        a = np.sqrt(self.sigma2 / (self.sigma2 + h * h))
        return a, a * h

    def _offsets(self, x, cols, a, ah, u) -> None:
        """u = (x - a*x_j - (1-a)*mu) / (a*h) into ``u``, with the evaluation
        points x and the score points x_j in ``cols`` broadcast against u;
        a and ah are floats, or arrays that broadcast against u."""
        np.subtract(x, a * cols, out=u)
        u -= (1.0 - a) * self.mu
        u /= ah

    @staticmethod
    def _gauss(u, arg, gauss, cut: float = EXP_NORMAL) -> None:
        """The Gaussian factor exp(-u**2 / 2) into ``gauss`` where -u**2 / 2
        exceeds ``cut``, and zero elsewhere; -u**2 / 2 into ``arg``."""
        np.multiply(u, u, out=arg)
        arg *= -0.5
        gauss.fill(0.0)
        np.exp(arg, out=gauss, where=arg > cut)

    def _checked(self, sums_at) -> np.ndarray:
        """``sums_at(cut)``, density or slope sums with exp taken above
        ``cut``, at this smoothing's exp cut; redone with the subnormals
        (``_with_subnormals``) where a sum is below GAUSS_SUM_MIN (see
        ``terms``)."""
        sums = sums_at(self._exp_cut)
        # One reduction; fmin passes over NaN as the comparison would.
        if (self._exp_cut == EXP_NORMAL
                and np.fmin.reduce(np.abs(sums), axis=None, initial=np.inf) < GAUSS_SUM_MIN):
            sums = self._with_subnormals(sums_at)
        return sums

    def _with_subnormals(self, sums_at) -> np.ndarray:
        """The sums of ``sums_at`` taken again with exp called wherever
        -u**2 / 2 > EXP_ZERO, subnormal values included, and with this
        smoothing's exp cut moved there (``_exp_cut``), so later calls need
        no redo and each smoothing redoes at most once."""
        self._exp_cut = EXP_ZERO
        return sums_at(EXP_ZERO)

    def _penalty_sums(self, h: float, term: str) -> np.ndarray:
        """The density at the score points ("pdf", for PEN1) or the slope at
        PEN2's probes ("slope"), from the banded kernel (``_band_product``)."""
        a, ah = self._shrink(h)
        sums = self._checked(lambda cut: self._band_product(term, a, ah, cut))
        return sums * INV_SQRT_2PI / (ah**2 if term == "slope" else ah)

    def _band_product(self, term: str, a: float, ah: float, cut: float) -> np.ndarray:
        """sum_j p_j g_ij (term "pdf", rows at the score points) or
        -sum_j p_j u_ij g_ij ("slope", rows at the probes) for every row i,
        with exp taken above ``cut``, each row summed over its 2k + 1 band
        columns at the half-width k of ``_half_width``, or over every column
        where k is None, one column at a time (see the class docstring)."""
        k = self._half_width(a, ah, cut)
        rows, cols, probs = self._band(k)[term]
        u, arg, gauss = self._work(rows.shape)
        self._offsets(rows, cols, a, ah, u)
        self._gauss(u, arg, gauss, cut)
        if term == "slope":
            np.negative(u, out=arg)
            gauss *= arg
        return np.einsum("...ci,...ci->...i", gauss, probs)

    def _half_width(self, a: float, ah: float, cut: float) -> int | None:
        """The band's half-width k at shrink a, a*h and exp cut ``cut``, or
        None where the band is not narrow (see the class docstring)."""
        if not (ah > BAND_AH_MIN and self._bandable):
            return None
        k = math.ceil(math.sqrt(-2.0 * cut) * (1.0 + BAND_SLACK) * ah + PEN2_OFFSET
                      + (1.0 - a) * self._reach)
        return k if 4 * k + 2 < self.points.size else None

    def _band(self, k: int | None) -> dict:
        """Per term, the band's operands at half-width k (``_band_operands``)
        and the score probability of each of their entries, zero beyond the
        scale.  Kept per k for the life of the smoothing."""
        band = self._bands.get(k)
        if band is None:
            j = self.points.size
            probs = (np.broadcast_to(self.probs[:, None], (j, j)) if k is None else
                     np.lib.stride_tricks.sliding_window_view(np.pad(self.probs, k), j))
            band = self._bands[k] = {
                term: (rows, cols, probs)
                for term, (rows, cols) in _band_operands(self.points, self.probes, k).items()}
        return band

    def pen1(self, h: float) -> float:
        """Squared gap between the score probabilities and the density at
        the score points, each density a row sum over its band (see the
        class docstring)."""
        return float(np.sum((self.probs - self._penalty_sums(h, "pdf")) ** 2))

    def pen1_floors(self, hs: np.ndarray) -> np.ndarray:
        """A lower bound of ``pen1(h)`` for each h in ``hs``.

        Each is PEN1's own terms summed over a subset of the score points
        (``_subset_floors``): every FLOOR_STRIDE-th point at every h, and
        the points half a stride on wherever that floor is within
        FLOOR_REFINE times the smallest, where the bandwidths that can win
        lie.  The sum is scaled by 1 - FLOOR_SLACK.
        """
        shrink = np.stack(self._shrink(np.asarray(hs, dtype=float)), axis=1)
        subset = self._subset_floors(shrink, slice(0, None, FLOOR_STRIDE))
        refine = np.flatnonzero(subset <= FLOOR_REFINE * subset.min())
        subset[refine] += self._subset_floors(shrink[refine],
                                              slice(FLOOR_STRIDE // 2, None, FLOOR_STRIDE))
        return (1.0 - FLOOR_SLACK) * subset

    def _subset_floors(self, shrink: np.ndarray, points: slice) -> np.ndarray:
        """sum_i t_i**2 over the score points ``points`` selects, for each
        row (a, ah) of ``shrink``, each no more than the float PEN1 at h.

        ``shrink`` holds ``_shrink(h)``, so u and the masked Gaussian factor
        have the bits that PEN1's banded kernel gives them
        (``_band_product``; the factor is zero outside the band either
        way), and f~_i, summed here over every column, differs from the
        density f_i that ``pen1`` sums over the band only in the order of
        its sum and the rounding of its scaling, and in the subnormals that
        the redo may fill in (``_with_subnormals``).  Any order of a J-term
        sum of nonnegative products is within J eps of the exact one (eps =
        2**-53), plus J 2**-1075 from products that underflow; the
        subnormals add at most DBL_MIN = 2**-1022 (the p_j sum to one); the
        two scalings round by eps each.  So |f_i - f~_i| <= 2 (J + 3) eps
        f~_i (1 + O(J eps)) + J c 2**-1022, and with d_i = fl(p_i - f~_i),
        t_i = max(|d_i| - delta_i, 0), delta_i = (J + 4) 2**-51 (f~_i +
        |d_i|) + J c 2**-1020 covers that and the two roundings between
        |d_i| and |fl(p_i - f_i)|, with a factor 2 to spare for its own
        roundings (and for an exp that differs by an ulp between calls).
        Rounding is monotone, so fl(t_i**2) <= fl(fl(p_i - f_i)**2), and a
        float sum of nonnegative terms over a subset, in any order, is at
        most 1 + 2 J eps times PEN1's float sum over all points, which
        FLOOR_SLACK covers.
        """
        x = self.points[points]
        j = self.points.size
        f = np.empty((len(shrink), x.size))
        # In blocks of bandwidths no larger than PEN2's probe arrays, so the
        # scratch arrays do not grow past what the search uses anyway.
        step = max(2 * j // max(x.size, 1), 1)
        for start in range(0, len(shrink), step):
            block = shrink[start:start + step]
            a, ah = (block[:, k, None, None] for k in (0, 1))
            u, arg, gauss = self._work((len(block), x.size, j))
            self._offsets(x[..., None], self.points, a, ah, u)
            self._gauss(u, arg, gauss)
            np.einsum("...j,j->...", gauss, self.probs, out=f[start:start + step])
        peak = INV_SQRT_2PI / shrink[:, 1:]
        f *= peak
        d = np.abs(self.probs[points] - f)
        delta = (j + 4) * 2.0**-51 * (f + d) + j * 2.0**-1020 * peak
        return (np.maximum(d - delta, 0.0) ** 2).sum(axis=1)

    def pen2(self, h: float) -> float:
        """Score points where the density slopes down a quarter point to the
        left without turning up a quarter point to the right.

        The slope at each probe is a row sum of -p_j u_j g_j over its band
        (see the class docstring).  The first point counted, if any, becomes
        ``pen2_floors``' candidate."""
        left, right = self._penalty_sums(h, "slope")
        counted = (left < 0.0) & ~(right > 0.0)
        first = int(np.argmax(counted))
        if counted[first]:
            self._candidate = first
        return float(np.count_nonzero(counted))

    def pen2_floors(self, hs) -> np.ndarray:
        """A lower bound of ``pen2(h)`` for each h in ``hs``: 1.0 where one
        candidate score point is certainly counted (``_certified``), else
        0.0.  The candidate is the first point counted by the latest
        ``pen2`` that counted any, or else the point nearest mu + sigma, on
        the falling side of a unimodal density.  The grid's 64 bounds cost
        about one PEN2, a single bound a seventh of one."""
        return self._certified(hs, self._candidate).astype(float)

    def _certified(self, hs, i: int) -> np.ndarray:
        """Whether both slopes at score point i's probes are certainly
        negative in ``pen2(h)``, for each h in ``hs``.

        u and g are formed for the two probes over all J columns at every h
        at once, from ``_shrink``'s a and a*h with ``_band_product``'s
        operations (``_offsets``, ``_gauss``) at this smoothing's exp cut,
        so each term p_j u_j g_j has the bits, up to sign and an ulp of exp,
        of the term that ``pen2`` sums, and is zero outside ``pen2``'s band
        (g is 0 there).  Each slope's terms are summed row by row, so a
        point's certificate does not depend on the batch.  Each sum, there
        and over ``pen2``'s band, in any order, is within
        (J + 2) 2**-53 sum_j |p_j u_j g_j| of the exact one, counting the
        products' rounding and exp's ulp; a later redo
        (``_with_subnormals``) adds terms below 39 * 2**-1022 each.  So where
        both sums exceed 4 (J + 4) 2**-53 sum_j |p_j u_j g_j| +
        PEN2_FLOOR_MIN, ``pen2``'s sums of -p_j u_j g_j are both negative,
        and stay so through the positive scaling by 1 / (sqrt(2 pi) (a h)**2),
        which leaves them far above the smallest float: ``pen2`` counts the
        point.
        """
        # The refinement asks for one h at a time, and scalars broadcast faster.
        a, ah = self._shrink(hs[0] if len(hs) == 1 else np.asarray(hs, dtype=float)[:, None])
        j = self.points.size
        u, arg, gauss = np.empty((3, 2, len(hs), j))
        self._offsets(self.probes[:, i, None, None], self.points, a, ah, u)
        self._gauss(u, arg, gauss, self._exp_cut)
        gauss *= u
        gauss *= self.probs
        sums = np.add.reduce(gauss, axis=-1)
        sizes = np.add.reduce(np.abs(gauss, out=gauss), axis=-1)
        return (sums > 4 * (j + 4) * 2.0**-53 * sizes + PEN2_FLOOR_MIN).all(axis=0)

    def penalty(self, h: float, kpen: float, pen1: float | None = None) -> float:
        """PEN1 + kpen * PEN2, with PEN1 taken from ``pen1`` when given."""
        pen1 = self.pen1(h) if pen1 is None else pen1
        return pen1 + kpen * self.pen2(h) if kpen != 0.0 else pen1


@dataclass(frozen=True)
class ContinuizedCdf:
    """A kernel-continuized score distribution, evaluable at any real x."""

    dist: ScoreDistribution
    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValidationError(f"bandwidth must be positive, got {self.h}")
        if self.dist.variance <= 0:
            raise ValidationError("continuization undefined for a point mass")

    @cached_property
    def _smoothing(self) -> _Smoothing:
        return _Smoothing(self.dist)

    @property
    def mu(self) -> float:
        return self._smoothing.mu

    @property
    def sigma2(self) -> float:
        return self._smoothing.sigma2


def continuize(dist: ScoreDistribution, kpen: float = 1.0,
               h: float | None = None) -> ContinuizedCdf:
    """Continuize ``dist``, selecting the bandwidth by penalty unless given."""
    if h is None:
        h = select_bandwidth(dist, kpen=kpen)
    return ContinuizedCdf(dist, h)


def _kernel(c: ContinuizedCdf, x, *terms):
    """The asked-for terms of ``c`` at x; see ``_Smoothing.terms``."""
    return c._smoothing.terms(c.h, x, *terms)


def kernel_cdf(c: ContinuizedCdf, x):
    """Continuized CDF at x (scalar or array)."""
    return _kernel(c, x, "cdf")[0]


def kernel_pdf(c: ContinuizedCdf, x):
    """Density of the continuized distribution at x (scalar or array); each
    point's value is a row sum, so it does not depend on the batch."""
    return _kernel(c, x, "row_pdf")[0]


def penalty(dist: ScoreDistribution, h: float, kpen: float = 1.0) -> float:
    """PEN1 + kpen * PEN2 for bandwidth h.

    PEN1 is the squared gap between the score probabilities and the
    continuized density at the score points.  PEN2 adds one for every
    score point where the density slopes downward a quarter point to the
    left without turning upward a quarter point to the right.
    """
    return ContinuizedCdf(dist, h)._smoothing.penalty(h, kpen)


def select_bandwidth(dist: ScoreDistribution, kpen: float = 1.0) -> float:
    """Penalty-minimizing bandwidth over [0.05, 4*sd].

    A 64-point log-spaced grid locates the basin; golden-section search
    refines within the bracketing grid neighbors.  Deterministic.

    PEN1 and PEN2 are computed only where they can change the result, on
    the grid and in the refinement (see ``_golden_section``).  PEN2 and
    kpen are nonnegative and rounding is monotone, so no penalty is below
    PEN1 + kpen m (PEN1 is never NaN) for a lower bound m of its PEN2
    (``_Smoothing.pen2_floors``), and no PEN1 is below its floor
    (``_Smoothing.pen1_floors``).  Both bounds are taken for the whole grid
    at once, and each grid point is keyed by floor + kpen m.  The points
    are visited in one pass in ascending (key, index) order, which stops
    at the first key that exceeds the best penalty so far or equals it at
    a larger index: every point left has no smaller penalty.  A point
    visited gets its PEN1, and its PEN2 only where PEN1 + kpen m does not
    already lose to the best so far in the same order.  The grid point
    kept is the one ``np.argmin`` picks over all 64 penalties (the first
    on ties), so the result equals that of the search that computes every
    penalty in full.
    """
    if dist.variance <= 0 or np.count_nonzero(dist.probs) < 2:
        raise ValidationError("bandwidth undefined for point mass")
    if not 0.0 <= kpen < np.inf:
        raise ValidationError("kpen must be a finite number >= 0")
    smoothing = _Smoothing(dist)
    h_max = H_MAX_SD_FACTOR * float(np.sqrt(smoothing.sigma2))
    grid = np.geomspace(H_MIN, max(h_max, H_MIN * 1.01), num=64)
    m = smoothing.pen2_floors(grid) if kpen != 0.0 else np.zeros(len(grid))
    keys = smoothing.pen1_floors(grid) + kpen * m
    best, value = len(grid), np.inf
    for key, i in sorted(zip(keys.tolist(), range(len(grid)))):
        if (key, i) > (value, best):
            break
        pen1 = smoothing.pen1(grid[i])
        if (pen1 + kpen * m[i], i) > (value, best):
            continue
        total = smoothing.penalty(grid[i], kpen, pen1)
        if (total, i) < (value, best):
            best, value = i, total

    def total(h: float, loses=lambda v: False) -> float:
        """The penalty at h, or a lower bound of it for which ``loses``
        holds.  PEN2's floor is sought only where a floor of one could make
        the bound lose."""
        pen1 = smoothing.pen1(h)
        if loses(pen1):
            return pen1
        if kpen != 0.0 and loses(pen1 + kpen):
            bound = pen1 + kpen * float(smoothing.pen2_floors([h])[0])
            if loses(bound):
                return bound
        return smoothing.penalty(h, kpen, pen1)

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    return _golden_section(total, lo, hi, best=(float(grid[best]), value))


def _golden_section(total, lo: float, hi: float, best: tuple[float, float],
                    tol: float = 1e-7) -> float:
    """Golden-section refinement that returns the best *evaluated* point.

    ``total(h, loses)`` is the full penalty at h, or a lower bound of it
    for which ``loses`` holds: PEN1, or PEN1 + kpen times PEN2's
    certificate at h (``_Smoothing.pen2_floors``).  The penalty has step
    discontinuities (PEN2 is integer-valued), so the plain golden-section
    midpoint may land just past a step; tracking the best evaluation keeps
    the result on the right side of it.

    The full penalty of a new point is needed only where it can win the
    next comparison with the point kept: a new c's unless a lower bound of
    it is >= fd, a new d's unless one is > fc (c wins ties).  A point left
    at such a bound is discarded by that comparison and is never below
    ``best``, so the points evaluated, the branches taken and the result
    equal those of full evaluation.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = total(c)
    fd = total(d, lambda v: v > fc)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best[1]:
            best = (x, fx)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = total(c, lambda v: v >= fd)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = total(d, lambda v: v > fc)
            if fd < best[1]:
                best = (d, fd)
    return best[0]


def _bracket_grid(c: ContinuizedCdf, p_min: float, p_max: float) -> np.ndarray:
    """Ascending points whose CDF values bracket every p in [p_min, p_max].

    2J+1 evenly spaced points about the mean span [P_TAIL, 1 - P_TAIL];
    beyond them lie mu -/+ w * 3**k for as many k as the extreme p need.
    Every point depends on ``c`` alone, so a given p starts from the same
    bracket in any batch.
    """
    w = 4.0 * (float(np.sqrt(c.sigma2)) + c.h)
    while kernel_cdf(c, c.mu - w) >= P_TAIL or kernel_cdf(c, c.mu + w) <= 1.0 - P_TAIL:
        w *= 3.0
    n_lo = n_hi = 0
    while kernel_cdf(c, c.mu - w * 3.0**n_lo) >= p_min:
        n_lo += 1
    while kernel_cdf(c, c.mu + w * 3.0**n_hi) <= p_max:
        n_hi += 1
    return np.concatenate([
        c.mu - w * 3.0 ** np.arange(n_lo, 0, -1),
        c.mu + w * np.linspace(-1.0, 1.0, 2 * c.dist.scale.n_points + 1),
        c.mu + w * 3.0 ** np.arange(1, n_hi + 1),
    ])


def inverse_cdf(c: ContinuizedCdf, p):
    """The x with CDF(x) = p, for a scalar p or for every entry of an array,
    in p's shape.

    All points are solved at once by a bracketed Newton iteration.  One
    CDF evaluation on a fixed grid (see ``_bracket_grid``) gives each p a
    starting bracket [lo, hi] with CDF(lo) < p <= CDF(hi) and a start by
    linear interpolation.  Each step is a Newton step on CDF(x) - p,
    replaced by bisection when it would leave the bracket or when it is
    more than half the step before last; a step shorter than half the
    tolerance is lengthened to it, so the far end of the bracket closes in
    too.  A point is done when its bracket is narrower than
    ``XTOL + RTOL * |x|``, as in Brent's method, and the end
    with the smaller residual is returned; or when its residual is exactly
    zero.  Only the points still open are evaluated and stepped.  Every
    arithmetic step is per point, the CDF and the density being row sums
    ("row_pdf"; a matrix product would round a point by its position), so
    the result for one p does not depend on the batch it is solved in.
    """
    scalar = np.ndim(p) == 0
    shape = np.shape(p)
    p = np.asarray(p, dtype=float).ravel()
    inside = (p > 0.0) & (p < 1.0)
    if not np.all(inside):
        raise ValidationError(
            f"p must lie strictly inside (0, 1), got {p[~inside][0]}"
        )
    if p.size == 0:
        return p.reshape(shape)
    grid = _bracket_grid(c, float(p.min()), float(p.max()))
    fgrid = kernel_cdf(c, grid)
    k = np.searchsorted(fgrid, p)  # fgrid[k - 1] < p <= fgrid[k]
    lo, hi = grid[k - 1], grid[k]
    r_lo, r_hi = fgrid[k - 1] - p, fgrid[k] - p
    x = lo - r_lo * (hi - lo) / (r_hi - r_lo)
    result = np.where(r_hi == 0.0, hi, np.nan)
    # Only the open points are carried from step to step; ``open_`` holds
    # their indices into p.
    open_ = np.flatnonzero(r_hi != 0.0)
    x, p, lo, hi, r_lo, r_hi = (v[open_] for v in (x, p, lo, hi, r_lo, r_hi))
    step = step_before = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(INVERSE_MAX_ITER):
            if open_.size == 0:
                break
            cdf, pdf = _kernel(c, x, "cdf", "row_pdf")
            r = cdf - p
            below, above = r < 0.0, r > 0.0
            lo, r_lo = np.where(below, x, lo), np.where(below, r, r_lo)
            hi, r_hi = np.where(above, x, hi), np.where(above, r, r_hi)
            tol = XTOL + RTOL * np.abs(x)
            root = r == 0.0
            closed = ~root & (hi - lo <= tol)
            result[open_[root]] = x[root]
            result[open_[closed]] = np.where(-r_lo <= r_hi, lo, hi)[closed]
            keep = ~(root | closed)
            open_, x, p, lo, hi, r_lo, r_hi, r, pdf, tol, step, step_before = (
                v[keep] for v in (open_, x, p, lo, hi, r_lo, r_hi, r, pdf, tol, step,
                                  step_before))
            newton = r / pdf
            newton = np.where(np.abs(newton) < 0.5 * tol, np.copysign(0.5 * tol, r), newton)
            bisect = (~((x - newton > lo) & (x - newton < hi))
                      | (np.abs(2.0 * newton) > np.abs(step_before)))
            new_step = np.where(bisect, x - 0.5 * (lo + hi), newton)
            step_before, step = step, new_step
            x = x - new_step
    if open_.size:
        raise KeqError(f"inverse CDF did not converge in {INVERSE_MAX_ITER} iterations")
    return float(result[0]) if scalar else result.reshape(shape)
