"""Second-difference (Allan-type) phase statistics and mixture calibration.

The variance of the overlapping second difference of the phase at lag h
has the closed leading form

    Var(D2 phi at lag h) = C(H) h^(2H) * (1 + O((h/t)^(4-2H))),
    C(H) = (4 - 4^H) csc(H pi) / Gamma(2H+1),

with the H = 1 pole removable: the constant tends to 4 ln2 / pi there.
That law, C(H) included, lives in ``fbm`` (``fbm.avar_constant``), next
to the trace generator that draws from it; this module estimates the
curve from a raw trace, a :class:`PhaseTrace`, and fits it.  Since
second differences annihilate affine drift, the statistic isolates the
stochastic phase, and fitting the measured curve against the white and
flicker basis {C(1/2) h, C(1) h^2} = {2h, (4 ln2/pi) h^2} recovers the
mixture coefficients.

:func:`estimate` measures the curve at every lag from one FFT
autocorrelation of the trace's increments, centred so that drift never
enters a sum of squares, with exact corrections for the windows cut off
by the trace ends; its cost is one FFT plus O(m) per lag m, and a
variance that rounding pushes below zero is clamped to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError, TraceFormatError
from .fbm import _as_hurst, _fast_len, avar_constant

__all__ = [
    "AllanCurve",
    "FitResult",
    "PhaseTrace",
    "avar_constant",
    "estimate",
    "fit_mixture",
    "theoretical_d2_variance",
]


@dataclass(frozen=True)
class PhaseTrace:
    """Uniformly sampled phase observations.

    ``dt`` is the sample interval (s), ``samples`` the phase values
    (rad), ``f0`` an optional nominal oscillator frequency (Hz) used for
    normalised Allan output, ``source`` free-form provenance metadata.
    """

    dt: float
    samples: np.ndarray = field(repr=False)
    f0: float | None = None
    source: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise TraceFormatError(f"dt must be positive, got {self.dt}")
        if self.f0 is not None and not (self.f0 > 0 and math.isfinite(self.f0)):
            raise TraceFormatError(f"f0 must be positive, got {self.f0}")
        if samples.ndim != 1 or samples.size < 3:
            raise TraceFormatError("trace needs at least 3 samples")
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise TraceFormatError(f"non-finite sample at index {bad[0]}")


@dataclass(frozen=True)
class AllanCurve:
    """Empirical second-difference variance curve.

    ``lags`` in seconds (strictly increasing), ``variances`` in rad^2,
    ``counts`` the number of overlapping differences per lag, and
    ``d2_means`` the mean second difference per lag -- a residual-drift
    diagnostic that should sit at zero for drift-free data.
    """

    lags: np.ndarray
    variances: np.ndarray
    counts: np.ndarray
    d2_means: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        cnt = np.asarray(self.counts, dtype=np.int64)
        means = np.asarray(self.d2_means, dtype=float)
        if not (lags.shape == var.shape == cnt.shape == means.shape):
            raise DomainError("curve arrays must have identical shapes")
        if lags.size < 1 or not (
            np.all((lags > 0) & np.isfinite(lags)) and np.all(np.diff(lags) > 0)
        ):
            raise DomainError("lags must be positive, finite and strictly increasing")
        if not np.all((var >= 0) & np.isfinite(var)):
            raise DomainError("variances must be nonnegative and finite")
        if np.any(cnt < 2):
            raise DomainError("need at least 2 differences per lag")
        for name, arr in (("lags", lags), ("variances", var), ("d2_means", means)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "counts", cnt)


@dataclass(frozen=True)
class FitResult:
    """Recovered mixture coefficients.

    ``c_white`` (rad s^-1/2) and ``c_flicker`` (rad s^-1) are the square
    roots of the fitted nonnegative basis weights; ``covariance_of_fit``
    is the 2x2 covariance of the weights themselves.  Its entries are NaN
    when the weighted normal matrix is singular, and infinite where they
    overflow, as for a trace scaled by 1e100; the ``calibrate`` command
    prints such entries as ``null``.
    """

    c_white: float
    c_flicker: float
    residual_norm: float
    covariance_of_fit: np.ndarray


def theoretical_d2_variance(h, lag_h: float) -> float:
    """Leading-order Var of the second difference at lag h: C(H) h^(2H)."""
    if lag_h <= 0 or not math.isfinite(lag_h):
        raise DomainError(f"lag must be positive, got {lag_h}")
    return avar_constant(h) * lag_h ** (2.0 * _as_hurst(h).h)


def estimate(trace: PhaseTrace, lags: Sequence[int]) -> AllanCurve:
    """Overlapping second-difference variance of a phase trace.

    For each integer lag m, the mean square of all N - 2m overlapping
    differences d_n = x[n+2m] - 2 x[n+m] + x[n]; the model is zero-mean
    after differencing, so no mean is subtracted (the per-lag mean is
    reported as a diagnostic instead).  Affine drift 2 pi f0 t + phi0 is
    annihilated exactly.

    All lags come from one autocorrelation R of the increments
    y = diff(x).  With w = (-1) * m then (+1) * m, d_n = sum_i w_i y[n+i],
    which no constant in y changes, so y is centred first: that removes
    affine drift exactly before anything is squared, where sums over x
    itself would cancel (x^2 reaches 1e11 for flicker at 1e6 samples).
    Summed over every window position that overlaps y, with y taken as
    zero outside it,

        sum d^2 = 2m R(0) + sum_{0<k<2m} c_m(k) R(k),
        c_m(k) = 2 (2 max(m - k, 0) - min(k, 2m - k)),

    and R comes from one real FFT of length at least len(y) + 2 max(lags).
    The 2(2m - 1) partial windows at the two ends are summed from prefix
    sums of the first and last 2 max(lags) increments, and their squares
    are subtracted.  The sum over all windows is (sum w)(sum y) = 0, so
    the sum of the d_n is minus that of the partial windows.  Rounding
    can leave a near-constant trace's variance just below zero; it is
    clamped to 0.  A lag with fewer full windows than partial ones,
    count < 2 (2m - 1), would lose most digits to that subtraction, so
    its d_n are summed directly from the prefix sums of y.  Cost: one FFT
    of the trace plus O(m) per lag m, so it barely grows with the number
    of lags.
    """
    x = np.asarray(trace.samples, dtype=float)
    ms = [int(m) for m in lags]
    if len(ms) < 1 or any(m < 1 for m in ms) or any(
        b <= a for a, b in zip(ms, ms[1:])
    ):
        raise DomainError("lags must be strictly increasing positive integers")
    mmax = ms[-1]
    if x.size < 2 * mmax + 1:
        raise InsufficientDataError(
            f"trace of {x.size} samples cannot support lag {mmax} "
            f"(needs {2 * mmax + 1})"
        )
    span = 2 * mmax
    # the increments, written straight into the zero-padded FFT input
    size = _fast_len(x.size - 1 + span)
    padded = np.zeros(size)
    y = padded[: x.size - 1]
    np.subtract(x[1:], x[:-1], out=y)
    y -= y.mean()
    # prefix sums of the first and of the last (reversed) span increments
    head = np.concatenate(([0.0], np.cumsum(y[:span])))
    tail = np.concatenate(([0.0], np.cumsum(y[: -span - 1 : -1])))
    # prefix sums of all increments, for lags with fewer full windows than
    # partial ones (a trace shorter than about 6 max(lags))
    whole = np.concatenate(([0.0], np.cumsum(y))) if x.size < 6 * mmax - 2 else None
    # numpy's FFT: scipy.fft left about 17 MB resident after a 1e6-sample call
    spec = np.fft.rfft(padded)
    del padded, y
    # |Y|^2 in place: square the (re, im) pairs, add, zero the imaginary part
    pairs = spec.view(float)
    np.square(pairs, out=pairs)
    pairs[0::2] += pairs[1::2]
    pairs[1::2] = 0.0
    acf = np.fft.irfft(spec, size)[:span].copy()

    counts = x.size - 2 * np.array(ms, dtype=np.int64)
    variances, means = np.empty(len(ms)), np.empty(len(ms))
    for i, m in enumerate(ms):
        if counts[i] < 2 * (2 * m - 1):
            # subtracting the partial windows would cancel most digits of
            # so few full ones; they are summed directly, at O(m) cost
            d = whole[2 * m :] - 2.0 * whole[m:-m] + whole[: -2 * m]
            variances[i] = (d @ d) / counts[i]
            means[i] = d.sum() / counts[i]
            continue
        k = np.arange(1, 2 * m)
        below = np.maximum(m - k, 0)
        weights = 2.0 * (2.0 * below - np.minimum(k, 2 * m - k))
        # sums of the windows cut to 2m - k increments at the start, k at the end
        starts = head[2 * m - k] - 2.0 * head[below]
        ends = 2.0 * tail[np.maximum(k - m, 0)] - tail[k]
        total = 2.0 * m * acf[0] + weights @ acf[1 : 2 * m]
        total -= starts @ starts + ends @ ends
        variances[i] = max(total, 0.0) / counts[i]
        means[i] = -(starts.sum() + ends.sum()) / counts[i]
    return AllanCurve(
        lags=np.array(ms, dtype=float) * trace.dt,
        variances=variances,
        counts=counts,
        d2_means=means,
    )


def _nnls2(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares on two columns, by the active set.

    The unconstrained least-squares solution when both weights are
    nonnegative.  Otherwise the convex minimum lies on an axis of the
    quadrant, so it is the better of the two one-column fits, each
    clipped at 0.
    """
    weights = np.linalg.lstsq(A, b, rcond=None)[0]
    if (weights >= 0.0).all():
        return weights
    fits = np.zeros((2, 2))
    for j in range(2):
        col = A[:, j]
        fits[j, j] = max(float(col @ b) / float(col @ col), 0.0)
    return min(fits, key=lambda fit: float(np.sum((A @ fit - b) ** 2)))


def fit_mixture(curve: AllanCurve) -> FitResult:
    """Recover (c_white, c_flicker) from a measured curve.

    Nonnegative least squares of the variances against the basis
    {C(1/2) h, C(1) h^2} = {2 h, (4 ln2 / pi) h^2}, each row weighted by the inverse of its
    standard error; linear-space fitting preserves the additivity of
    component variances exactly.  The overlapping estimator at lag m with
    ``count`` differences has relative standard error about
    sqrt(4m / (3 count)), so a first fit weighted by sqrt(count) gives
    the model variance at each lag, and the fit is repeated with weights
    1 / (model * sqrt(4m / (3 count))).  Weighted by sqrt(count) alone,
    the largest lags dominate and c_white is poorly pinned.  m is the lag
    in units of the smallest lag: exact for lags starting at one sample,
    otherwise a common scale that changes only ``residual_norm``.
    ``covariance_of_fit`` and ``residual_norm`` come from the same
    weighted rows as the second fit.

    The fit runs on the variances over 2^k, k the binary exponent of the
    largest, so that no sum of squares of them or of their inverses
    leaves the double range.  The weights scale back by 2^k and their
    covariance by 2^2k, exactly, and the weighted residual does not
    scale.  A covariance entry beyond the double range is then infinite
    or 0.
    """
    lags = curve.lags
    if lags.size < 2 or lags[-1] / lags[0] < 10.0:
        raise DomainError("fit needs >= 2 lags spanning at least one decade")
    A = np.column_stack([avar_constant(0.5) * lags, avar_constant(1.0) * lags**2])
    counts = curve.counts.astype(float)
    k = math.frexp(float(curve.variances.max()))[1]
    variances = np.ldexp(curve.variances, -k)

    w = np.sqrt(counts)
    weights = _nnls2(A * w[:, None], variances * w)
    if weights.any():
        # the model variance is positive at every lag once any weight is
        rel_se = np.sqrt(4.0 * (lags / lags[0]) / (3.0 * counts))
        w = 1.0 / ((A @ weights) * rel_se)
        weights = _nnls2(A * w[:, None], variances * w)
    Aw = A * w[:, None]
    res = Aw @ weights - variances * w
    dof = max(lags.size - 2, 1)
    gram = Aw.T @ Aw
    try:
        cov = np.linalg.inv(gram) * float(res @ res) / dof
    except np.linalg.LinAlgError:
        cov = np.full((2, 2), np.nan)
    with np.errstate(over="ignore"):
        cov = np.ldexp(cov, 2 * k)
    # sqrt(w 2^k) as sqrt(w 2^(k mod 2)) 2^(k // 2): the same bits, and no
    # digit lost where w 2^k would be subnormal
    c_white, c_flicker = (
        math.ldexp(math.sqrt(math.ldexp(float(v), k % 2)), k // 2) for v in weights
    )
    return FitResult(
        c_white=c_white,
        c_flicker=c_flicker,
        residual_norm=float(np.linalg.norm(res)),
        covariance_of_fit=cov,
    )
