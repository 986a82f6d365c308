"""Gaussian-kernel continuization of discrete score distributions.

A discrete distribution with mean ``mu`` and variance ``sigma2`` is turned
into a continuous CDF by spreading each score point's mass with a Gaussian
kernel of bandwidth ``h``, after shrinking the points toward the mean by
``a = sqrt(sigma2 / (sigma2 + h^2))`` so that the continuized distribution
keeps the discrete mean and variance exactly.
"""

from __future__ import annotations

import heapq
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

# PEN1 and PEN2 form the kernel on a band of each row only, of half-width
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
    rows on the band of half-width k: each row's evaluation point (a score
    point, or a probe) repeated over the band, and the score point of each
    band column, or for a column beyond the scale the point 2J past that
    end.  With k None they span every column.  Both are contiguous, so u
    takes one pass where a broadcast would loop row by row.

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
        width, cols = j, np.tile(points, (j, 1))
    else:
        width, far = 2 * k + 1, np.full(k, 2.0 * j)
        padded = np.concatenate([points[0] - far, points, points[-1] + far])
        cols = np.lib.stride_tricks.sliding_window_view(padded, width).copy()
    operands = {term: (np.repeat(x[..., None], width, axis=-1), cols)
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
    bandwidth search forms it once and evaluates every h against it.  It
    gives the CDF and density at any x as row sums (``terms``), and PEN1's
    density and PEN2's slope as matrix products over a band
    (``_penalty_sums``).  Its scratch arrays (see ``_work``) make it unsafe
    to share between threads.

    PEN1 and PEN2 form their kernel matrices, g_ij at the score points and
    -u_ij g_ij at the probes, only on a band where g can be nonzero: the
    columns j within k of row i (``_band_product``).  With row i's point
    x_i (a probe is a quarter point off) and unit-spaced score points,
    |x_i - a x_j - (1-a) mu| >= |i - j| - 1/4 - (1-a) max_j |x_j - mu|.
    So with R = sqrt(-2 cut) for this smoothing's exp cut, every column
    with |i - j| > k = ceil(R (1 + BAND_SLACK) a h + 1/4
    + (1-a) max_j |x_j - mu|) has |u| >= R (1 + BAND_SLACK) + 1/(a h),
    far beyond the rounding of u and of -u**2 / 2: the masked exp gives 0
    there (a test checks it against ``unmasked_kernel``).  The band is
    written into a zero-filled full-size matrix, and PEN1 and PEN2 take
    the same (J, J) and (2, J, J) matrix products as over the whole
    kernel, on matrices with the same bits.  The one exception is the sign
    of a zero: a slope entry outside the band is +0 where -u * 0 can give
    -0.  That can flip only the sign of a slope sum that is exactly zero,
    which PEN2's ``< 0`` and ``> 0`` tests and the redo's ``abs`` treat
    alike.

    Row i's band is a run of 2k + 1 entries from column i - k of the
    row-major matrix, so its columns beyond the scale spill into the
    neighbouring row, or into the J // 2 + 1 spare entries (more than k)
    before, between and after the two probe blocks.  They never reach
    another row's band, since 2k + 1 < J, and they hold zeros: those
    columns read a score point 2J past the scale's end, where g is 0
    too.  The band is taken while 4k + 2 < J, where it is under half the
    row and a > 1/2, which puts that point beyond the cut; and while a h
    exceeds BAND_AH_MIN and the score points are below BAND_POINT_MAX in
    magnitude, so that u is finite and its rounding small.  Otherwise
    the matrices are formed in full.
    """

    def __init__(self, dist: ScoreDistribution):
        self.points = dist.scale.points.astype(float)
        self.probs = dist.probs
        self.mu = dist.mean
        self.sigma2 = dist.variance
        self.probes = np.stack([self.points - PEN2_OFFSET, self.points + PEN2_OFFSET])
        self._scratch = [np.empty(0) for _ in range(3)]
        self._exp_cut = EXP_NORMAL
        lo, hi = float(self.points[0]), float(self.points[-1])
        self._reach = max(self.mu - lo, hi - self.mu)  # max_j |x_j - mu|
        self._bandable = max(-lo, hi) < BAND_POINT_MAX
        # Made by the first penalty (see _band and _matrices): a smoothing
        # that only evaluates ``terms`` allocates none of it.
        self._bands: dict = {}
        self._full = self._buffer = self._written = None

    def _work(self, shape: tuple) -> list:
        """Arrays of ``shape`` for u, exp's argument and the Gaussian factor,
        reused from call to call.  A bandwidth search on scenario 5 makes
        some 75 penalty calls, on arrays of up to 163 kB (2 x 101 x 101)
        in full and of 57 kB (2 x 101 x 35) on a typical band; made
        afresh, the full ones are faulted in page by page on every call
        whenever the allocator returns them to the system."""
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

    def _shrink(self, h: float) -> tuple[float, float]:
        """a = sqrt(sigma2 / (sigma2 + h**2)) and a*h at bandwidth h."""
        a = float(np.sqrt(self.sigma2 / (self.sigma2 + h**2)))
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
        with exp taken above ``cut``, the kernel formed on the band of
        ``_half_width`` and the product taken over the full matrix (see the
        class docstring)."""
        k = self._half_width(a, ah, cut)
        rows, cols, band = self._band(k)[term]
        u, arg, gauss = self._work(rows.shape)
        self._offsets(rows, cols, a, ah, u)
        self._gauss(u, arg, gauss, cut)
        if term == "slope":
            np.negative(u, out=arg)
            arg *= gauss
            gauss = arg
        if band is None:
            return gauss @ self.probs
        if self._written != k:
            # Only the band last written can hold anything but zeros.
            if self._written is not None:
                self._band(self._written)["slope"][2][...] = 0.0
            self._written = k
        band[...] = gauss
        return self._matrices()[term] @ self.probs

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
        and the view that writes the band into ``_matrices``, or None when
        k is None.  Kept per k for the life of the smoothing."""
        band = self._bands.get(k)
        if band is None:
            j = self.points.size
            band = self._bands[k] = {
                term: (rows, cols, None if k is None else self._in_buffer(rows.shape, -k, j + 1))
                for term, (rows, cols) in _band_operands(self.points, self.probes, k).items()}
        return band

    def _matrices(self) -> dict:
        """Per term, the full-size matrix the band is written into: (J, J)
        for "pdf" and (2, J, J) for "slope", in one zero-filled buffer with
        J // 2 + 1 spare entries before, between and after the blocks.
        Outside the band last written (``_written``) the buffer holds
        zeros."""
        if self._full is None:
            j = self.points.size
            pad = j // 2 + 1
            self._buffer = np.zeros(pad + 2 * (j * j + pad)), pad
            self._full = {"pdf": self._in_buffer((j, j), 0, j),
                          "slope": self._in_buffer((2, j, j), 0, j)}
        return self._full

    def _in_buffer(self, shape: tuple, shift: int, row_step: int) -> np.ndarray:
        """A view of the matrix buffer in ``shape`` (rows x columns, in one
        or two blocks) whose entry (b, i, c) sits at offset
        pad + shift + b (J**2 + pad) + i row_step + c."""
        if self._buffer is None:
            self._matrices()
        buf, pad = self._buffer
        j, step = self.points.size, buf.itemsize
        strides = ((j * j + pad) * step,) * (len(shape) - 2) + (row_step * step, step)
        return np.ndarray(shape, float, buf, (pad + shift) * step, strides)

    def pen1(self, h: float) -> float:
        """Squared gap between the score probabilities and the density.

        The density at the score points is the (J, J) matrix product of the
        banded kernel (see the class docstring): the band of g, written
        into a zero-filled matrix, has the bits of g over every column, so
        PEN1 has the bits of the whole kernel's."""
        return float(np.sum((self.probs - self._penalty_sums(h, "pdf")) ** 2))

    def pen1_floors(self, hs: np.ndarray) -> np.ndarray:
        """A lower bound of ``pen1(h)`` for each h in ``hs``.

        Each is PEN1's own terms summed over a subset of the score points
        (``_subset_floors``): every FLOOR_STRIDE-th point at every h, and
        the points half a stride on wherever that floor is within
        FLOOR_REFINE times the smallest, where the bandwidths that can win
        lie.  The sum is scaled by 1 - FLOOR_SLACK.
        """
        shrink = np.array([self._shrink(h) for h in np.asarray(hs, dtype=float)])
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
        way), and f~_i differs from the density f_i that ``pen1`` uses only
        in the rounding of its sum and scaling (a matrix product rounds a
        row by its position), and in the subnormals that the redo may fill
        in (``_with_subnormals``).  Any order of a J-term sum
        of nonnegative products is within J eps of the exact one (eps =
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
            np.matmul(gauss.reshape(-1, j), self.probs, out=f[start:start + step].reshape(-1))
        peak = INV_SQRT_2PI / shrink[:, 1:]
        f *= peak
        d = np.abs(self.probs[points] - f)
        delta = (j + 4) * 2.0**-51 * (f + d) + j * 2.0**-1020 * peak
        return (np.maximum(d - delta, 0.0) ** 2).sum(axis=1)

    def pen2(self, h: float) -> float:
        """Score points where the density slopes down a quarter point to the
        left without turning up a quarter point to the right.

        The slopes at the probes are the stacked (2, J, J) product of the
        banded kernel's -u g, with the two probe blocks more than k entries
        apart in the matrix buffer (see the class docstring).  A slope sum
        differs from the whole kernel's at most in the sign of an exact
        zero, which neither ``< 0`` nor ``> 0`` tells apart."""
        left, right = self._penalty_sums(h, "slope")
        return float(np.count_nonzero((left < 0.0) & ~(right > 0.0)))

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
    its PEN1 (which is never NaN), and no PEN1 is below its floor
    (``_Smoothing.pen1_floors``).  The grid points are visited best-first
    from a heap keyed by (floor, index) until a point's PEN1 is computed,
    and by (PEN1, index) from then on: a point popped at its floor gets
    its PEN1 and goes back in, and a point popped at its PEN1 adds its
    PEN2.  A point's floor pops before its PEN1 would, so the PEN1s pop in
    ascending (PEN1, index) order.  The search stops once the popped key
    exceeds the best penalty so far or equals it at a larger index; every
    point left has no smaller penalty.  The grid point kept is the one
    ``np.argmin`` picks over all 64 penalties (the first on ties), so the
    result equals that of the search that computes every penalty in full.
    """
    if dist.variance <= 0 or np.count_nonzero(dist.probs) < 2:
        raise ValidationError("bandwidth undefined for point mass")
    if not 0.0 <= kpen < np.inf:
        raise ValidationError("kpen must be a finite number >= 0")
    smoothing = _Smoothing(dist)
    h_max = H_MAX_SD_FACTOR * float(np.sqrt(smoothing.sigma2))
    grid = np.geomspace(H_MIN, max(h_max, H_MIN * 1.01), num=64)
    heap = [(float(floor), i) for i, floor in enumerate(smoothing.pen1_floors(grid))]
    heapq.heapify(heap)
    exact = [False] * len(grid)
    best, value = len(grid), np.inf
    while heap and heap[0] <= (value, best):
        key, i = heapq.heappop(heap)
        if not exact[i]:  # key is the floor
            exact[i] = True
            heapq.heappush(heap, (smoothing.pen1(grid[i]), i))
            continue
        total = smoothing.penalty(grid[i], kpen, key)
        if (total, i) < (value, best):
            best, value = i, total
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    return _golden_section(smoothing.pen1, lambda h, p1: smoothing.penalty(h, kpen, p1),
                           lo, hi, best=(float(grid[best]), value))


def _golden_section(pen1, total, lo: float, hi: float, best: tuple[float, float],
                    tol: float = 1e-7) -> float:
    """Golden-section refinement that returns the best *evaluated* point.

    ``pen1(h)`` is PEN1 and ``total(h, pen1)`` the full penalty.  The
    penalty has step discontinuities (PEN2 is integer-valued), so the
    plain golden-section midpoint may land just past a step; tracking the
    best evaluation keeps the result on the right side of it.

    A new point's PEN1 is a lower bound of its penalty, so the full
    penalty is computed only where it can win the next comparison with the
    point kept: a new c needs it unless its PEN1 >= fd, a new d unless its
    PEN1 > fc (c wins ties).  A point left at its PEN1 is discarded by that
    comparison and is never below ``best``, so the points evaluated, the
    branches taken and the result equal those of full evaluation.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = total(c, pen1(c))
    p1 = pen1(d)
    fd = p1 if p1 > fc else total(d, p1)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best[1]:
            best = (x, fx)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            p1 = pen1(c)
            fc = p1 if p1 >= fd else total(c, p1)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            p1 = pen1(d)
            fd = p1 if p1 > fc else total(d, p1)
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
