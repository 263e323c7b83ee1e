"""Power-law Gaussian phase model: covariance closed forms and simulation.

The accumulated phase of a free-running oscillator is modelled as a
mixture of independent self-similar Gaussian processes, one per noise
type.  The Hurst exponent selects the power law: H = 1/2 is white
frequency noise (Wiener phase), H = 1 is flicker frequency noise.  The
covariance of a single component is

    Cov(phi_s, phi_t) = 2 s^(H+1/2) t^(H-1/2)
                        2F1(1, 1/2-H; H+3/2; s/t)
                        / (Gamma(H+1/2)^2 (2H+1)),      s <= t,

with Var(phi_t) = t^(2H) / (2H Gamma(H+1/2)^2).  Exact simulation on an
arbitrary grid goes through a Cholesky factor of that covariance.

This module owns the law of the second differences, the only part of a
trace the Allan statistic sees: at lag h their variance is
C(H) h^(2H) in the stationary t -> infinity limit of the model, with
C(H) of ``avar_constant``.  Calibration-length traces on uniform grids
are drawn through that law, exactly, by circulant embedding in
O(n log n) time and O(n) memory, with the affine part that second
differences do not see pinned (see ``simulate_trace``).  ``allan``
estimates the curve from traces and fits the same C(H) to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from . import specfun
from .errors import DecompositionError, DomainError

__all__ = [
    "HurstExponent",
    "NoiseMixture",
    "TimeGrid",
    "RNG_ALGORITHM",
    "avar_constant",
    "covariance",
    "covariance_matrix",
    "cholesky_with_jitter",
    "component_variances",
    "cross_covariance",
    "correlation",
    "simulate",
    "simulate_trace",
    "variance",
]

# all sampling in this package draws from numpy's PCG64 via _rng;
# recorded in CLI artifact headers for reproducibility
RNG_ALGORITHM = "numpy-pcg64"

# packed upper-triangle elements per row block of covariance_matrix; a
# 64-point matrix is one block
_PACKED_BLOCK = 1 << 16


def _rng(seed: int) -> np.random.Generator:
    # the one generator constructor; numpy would reject a negative seed
    # with a bare ValueError
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class HurstExponent:
    """Hurst exponent, restricted to (0, 3/2) where the spectral laws hold."""

    h: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.5) or not math.isfinite(self.h):
            raise DomainError(f"Hurst exponent must lie in (0, 3/2), got {self.h}")


def _as_hurst(h) -> HurstExponent:
    return h if isinstance(h, HurstExponent) else HurstExponent(float(h))


@dataclass(frozen=True)
class NoiseMixture:
    """Independent noise components (hurst, coeff), phase = sum c_H phi^H.

    Coefficients carry units rad * s^-H.  Variances add because the
    components are independent.
    """

    components: tuple[tuple[HurstExponent, float], ...]

    def __post_init__(self):
        if not self.components:
            raise DomainError("mixture needs at least one component")
        seen = set()
        for hurst, coeff in self.components:
            if not isinstance(hurst, HurstExponent):
                raise DomainError("components must pair HurstExponent with a coefficient")
            if coeff < 0 or not math.isfinite(coeff):
                raise DomainError(f"coefficient must be >= 0 and finite, got {coeff}")
            if hurst.h in seen:
                raise DomainError(f"duplicate Hurst value {hurst.h} in mixture")
            seen.add(hurst.h)

    @classmethod
    def from_pairs(cls, pairs) -> "NoiseMixture":
        return cls(tuple((_as_hurst(h), float(c)) for h, c in pairs))

    @classmethod
    def single(cls, h, coeff: float = 1.0) -> "NoiseMixture":
        return cls.from_pairs([(h, coeff)])

    @classmethod
    def white_flicker(cls, c_white: float, c_flicker: float) -> "NoiseMixture":
        """The two-component model used for calibration: H = 1/2 and H = 1."""
        return cls.from_pairs([(0.5, c_white), (1.0, c_flicker)])


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing, strictly positive sample times (seconds).

    t = 0 is excluded: the process variance vanishes there, which makes
    any covariance matrix containing it exactly singular.  The value at
    the origin is deterministically zero anyway.
    """

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise DomainError("grid must be a one-dimensional array with >= 1 point")
        if not np.all(np.isfinite(pts)) or pts[0] <= 0.0:
            raise DomainError("grid times must be finite and strictly positive")
        if np.any(np.diff(pts) <= 0.0):
            raise DomainError("grid times must be strictly increasing")

    def __len__(self):
        return self.points.size


def variance(h, t: float) -> float:
    """Var(phi^H_t) = t^(2H) / (2H Gamma(H+1/2)^2), in rad^2."""
    h = _as_hurst(h).h
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    try:
        power = t ** (2.0 * h)
    except OverflowError:
        raise DomainError(f"time {t} too large: t^(2H) overflows at H = {h}") from None
    return power / (2.0 * h * math.gamma(h + 0.5) ** 2)


def avar_constant(h) -> float:
    """Lag-independent constant C(H) = (4 - 4^H) csc(H pi) / Gamma(2H+1).

    Evaluated as -4 expm1((H-1) ln4) / ((-1)^n sin((H-n) pi)) / Gamma(2H+1)
    with n = round(H), so that H-1 and H-n are exact and neither factor
    loses digits near H = 1/2 or H = 1; at H = 1, the removable
    singularity, it is the limit 4 ln2 / pi.
    """
    h = _as_hurst(h).h
    if h == 1.0:
        return 4.0 * math.log(2.0) / math.pi
    n = round(h)
    sin_h_pi = (-1.0) ** n * math.sin((h - n) * math.pi)
    return -4.0 * math.expm1((h - 1.0) * math.log(4.0)) / sin_h_pi / math.gamma(2.0 * h + 1.0)


def cross_covariance(model, s, t) -> np.ndarray:
    """Elementwise Cov(phi_s, phi_t) of a HurstExponent (or float) or a
    NoiseMixture, in rad^2.

    ``s`` and ``t`` broadcast against each other and the result has their
    broadcast shape.  A mixture sums c_H^2 times each component.  The value
    is symmetric in (s, t) bit for bit and zero where either time is zero.
    A value that overflows the double range raises ``DomainError``, as in
    ``variance``.
    """
    lo = np.minimum(s, t, dtype=float)
    hi = np.maximum(s, t, dtype=float)
    lo_min = lo.min() if lo.size else 1.0
    if not (lo_min >= 0.0 and np.isfinite(hi).all()):
        raise DomainError(f"times must be finite and >= 0, got min {lo_min}, max {hi.max()}")
    if lo_min == 0.0:
        positive = lo > 0.0
        out = np.zeros(lo.shape)
        out[positive] = cross_covariance(model, lo[positive], hi[positive])
        return out
    z = lo / hi
    out = np.zeros(lo.shape)
    # overflow is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        for h, scale in _components(model):
            out += _term(specfun.hyp2f1_curve(h, z), lo ** (h + 0.5) * hi ** (h - 0.5), scale)
    if not np.isfinite(out).all():
        raise DomainError(f"covariance overflows the double range at times up to {hi.max()}")
    return out


def _components(model) -> list[tuple[float, float]]:
    # (H, c^2 * 2 / (Gamma(H+1/2)^2 (2H+1))) of each component with c > 0,
    # for a HurstExponent (or float) or a NoiseMixture
    if isinstance(model, NoiseMixture):
        parts = model.components
    else:
        parts = ((_as_hurst(model), 1.0),)
    return [
        (hurst.h, coeff * coeff * 2.0 / (math.gamma(hurst.h + 0.5) ** 2 * (2.0 * hurst.h + 1.0)))
        for hurst, coeff in parts
        if coeff > 0.0
    ]


def _term(f, powers, scale: float):
    # one component's c^2 Cov(phi_s, phi_t), s <= t, written over f, its
    # 2F1 value at s/t: f times the product s^(H+1/2) t^(H-1/2), then
    # times the scale of _components
    f *= powers
    f *= scale
    return f


def covariance(h, s: float, t: float) -> float:
    """Cov(phi^H_s, phi^H_t) in rad^2; symmetric in (s, t), zero when either
    time is zero."""
    return float(cross_covariance(_as_hurst(h), s, t))


def correlation(h, s: float, t: float) -> float:
    """Cor(phi^H_s, phi^H_t); depends only on the ratio max/min and decays
    like (4H/(2H+1)) sqrt(s/t) as the ratio grows."""
    h = _as_hurst(h)
    if s <= 0 or t <= 0:
        raise DomainError(f"times must be positive, got ({s}, {t})")
    if s == t:
        return 1.0
    return float(cross_covariance(h, s, t)) / math.sqrt(
        variance(h, s) * variance(h, t)
    )


def component_variances(mix: NoiseMixture, t: float) -> list[float]:
    """c_H^2 Var(phi^H_t) of each component at time t, in rad^2, in the
    order of ``mix.components``.  A part or a sum of them that overflows
    a double raises ``DomainError``."""
    parts = [c * c * variance(hurst, t) for hurst, c in mix.components]
    if not math.isfinite(sum(parts)):
        raise DomainError(f"phase variance c^2 Var(phi_t) at time {t} overflows")
    return parts


def _row_blocks(n: int):
    # the packed upper triangle of an n x n matrix, row r holding columns
    # r..n-1, in blocks of whole rows with at most _PACKED_BLOCK elements
    # (or one row).  Yields a block's rows r0:r1, its slice of the packed
    # triangle, and the mask that picks those elements, in packed order,
    # out of the rectangle of rows r0:r1 and columns r0:n
    step = max(1, _PACKED_BLOCK // n)
    start = 0
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        size = (r1 - r0) * (2 * n - r0 - r1 + 1) // 2
        yield r0, r1, slice(start, start + size), np.arange(r0, n) >= np.arange(r0, r1)[:, None]
        start += size


def _packed_term(ts: np.ndarray, z: np.ndarray, h: float, scale: float) -> np.ndarray:
    # one component's terms over the packed pairs of times ts with ratios
    # z, written over its 2F1 values; the powers are taken per point
    f = specfun.hyp2f1_curve(h, z)
    lo_pow, hi_pow = ts ** (h + 0.5), ts ** (h - 0.5)
    for r0, r1, packed, mask in _row_blocks(ts.size):
        _term(f[packed], (lo_pow[r0:r1, None] * hi_pow[r0:])[mask], scale)
    return f


def covariance_matrix(model, grid: TimeGrid) -> np.ndarray:
    """Covariance matrix of a HurstExponent or NoiseMixture on a grid.

    Only the n(n+1)/2 pairs s <= t of the upper triangle are evaluated,
    with the terms of ``cross_covariance`` and the same values bit for
    bit; the lower triangle is their mirror image, so the matrix is
    exactly symmetric.  The ratios s/t are built once, packed row by row,
    and each component takes one ``specfun.hyp2f1_curve`` call over them;
    the powers come from the 2n per-point powers t^(H+1/2) and t^(H-1/2).
    A covariance that overflows the double range raises ``DomainError``,
    as in ``cross_covariance``.

    Working memory is K plus about three packed triangles of n(n+1)/2
    doubles, K being about two of them.  The ratios, the running sum over
    components and one component's 2F1 values are held at once; a 2F1
    call that sorts adds its sort order and sorted copy.  K is allocated
    once the sum is complete and the ratios are freed, and is written in
    row blocks of bounded size, both triangles.  The peak is four packed
    triangles for one component and five for a mixture whose second 2F1
    sorts.  ``simulate`` factors K in place, so beside K it holds only
    LAPACK's working copy of it.
    """
    ts = grid.points
    n = ts.size
    components = _components(model)
    if not components:
        return np.zeros((n, n))
    z = np.empty(n * (n + 1) // 2)
    for r0, r1, packed, mask in _row_blocks(n):
        z[packed] = (ts[r0:r1, None] / ts[r0:])[mask]
    # overflow is reported once, below; every entry is positive, so one
    # maximum finds an infinite or NaN one without a temporary array
    with np.errstate(over="ignore", invalid="ignore"):
        total = _packed_term(ts, z, *components[0])
        for h, scale in components[1:]:
            total += _packed_term(ts, z, h, scale)
    del z
    if not math.isfinite(total.max()):
        raise DomainError(f"covariance overflows the double range at times up to {ts[-1]}")
    K = np.empty((n, n))
    for r0, r1, packed, mask in _row_blocks(n):
        K[r0:r1, r0:][mask] = total[packed]
        # the mirror: columns r0:r1 below the block, then the lower half of
        # the block's diagonal square
        K[r1:, r0:r1] = K[r0:r1, r1:].T
        square = K[r0:r1, r0:r1]
        upper = mask[:, : r1 - r0]
        square.T[upper] = square[upper]
    return K


def _not_positive_definite(err, flag):
    # the floating-point error callback of numpy's own Cholesky wrapper:
    # a failed factor sets the invalid flag and fills its output with NaN
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def cholesky_with_jitter(build) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix ``build()`` returns,
    escalating diagonal jitter from 1e-12 to 1e-6 of the mean diagonal
    before failing.

    Nearby grid points make phase covariance matrices nearly singular;
    a loud failure beats silently biasing the law with large jitter.

    The factor is written over the matrix built, with the upper triangle
    zeroed: it is the gufunc behind ``np.linalg.cholesky``, the same
    LAPACK call and the same bits, given ``out`` (a private numpy name,
    pinned by a bit-identity test against ``np.linalg.cholesky``).  Memory
    is K and LAPACK's working copy of it.  A failed attempt leaves NaN in
    K, so ``build``, a function of no arguments that returns a fresh
    float64 matrix, is called once for the first attempt and once more for
    each jitter rung, whose diagonal is then diag + eps * mean(diag).
    """
    K = build()
    scale = float(np.mean(np.diag(K)))
    eps = 0.0
    while True:
        try:
            with np.errstate(call=_not_positive_definite, invalid="call",
                             over="ignore", divide="ignore", under="ignore"):
                return _umath_linalg.cholesky_lo(K, out=K, signature="d->d")
        except np.linalg.LinAlgError:
            eps = 1e-12 if eps == 0.0 else eps * 10.0
            if eps > 1e-6:
                raise DecompositionError(
                    "covariance matrix not positive definite even with "
                    f"jitter 1e-6 * mean(diag) = {1e-6 * scale:.3e}"
                ) from None
            K = build()
            np.fill_diagonal(K, np.diag(K) + eps * scale)


def simulate(model, grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """Exact zero-mean Gaussian paths on a grid, shape (len(grid), n_paths).

    ``model`` is a HurstExponent (or float) or a NoiseMixture; mixtures
    compose per-component covariance matrices additively before a single
    factorisation.  Output is deterministic for a fixed seed (PCG64).
    Working memory is K, factored in place (see ``cholesky_with_jitter``),
    plus LAPACK's working copy of K while it factors and, while K is
    built, about three packed triangles of n(n+1)/2 doubles (see
    ``covariance_matrix``).  At 2048 points that is about 67 MB, set by
    the factorisation; the normals and the paths add n * n_paths doubles
    each.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    L = cholesky_with_jitter(lambda: covariance_matrix(model, grid))
    rng = _rng(seed)
    return L @ rng.standard_normal((len(grid), n_paths))


# lags from which _diff_autocovariance sums the central-difference series
# instead of the finite stencil, and where its second, shorter series
# starts; each range takes the terms its smallest lag needs
_SERIES_RANGES = (3, 64)

# the circulant's eigenvalues are nonnegative in exact arithmetic (see
# _embedded_draws); rounding left none below -5e-16 of the largest in those
# checks, so anything below this bound is a genuine failure
_EIGEN_RTOL = 1e-10


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, n >= 1: a length the
    real FFT factors into radix-2, -3 and -5 passes only."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _diff_autocovariance(h: float, order: int, m: int) -> np.ndarray:
    # autocovariance at lags 0..m of the lag-one differences of the given
    # order (1 or 2) of the stationary-increment limit of phi^H, unit
    # coefficient and dt = 1, scaled so that the second differences have
    # variance C(H) of avar_constant.  With G(t) = -|t|^(2H)/2
    # (H < 1), +|t|^(2H)/2 (H > 1) or t^2 ln|t| (H = 1), the generalised
    # covariance, it is (-1)^p delta^(2p) G for order p, delta the central
    # difference.  delta^(2p) annihilates t^(2p-2), so every H differences
    # f(t) = (t^(2H) - t^(2p-2)) / (2H - 2p + 2), which is continuous
    # through H = 1 (t^2 ln t for p = 2), and the result is
    # C(H) (-1)^p delta^(2p) f / delta^4 f(0).  The stencil cancels at large
    # lags, so from lag 3 on delta^(2p) = sum_n>=p a_n D^(2n) is summed, with
    # a_n = sum_j (-1)^j binom(2p, j) (p - j)^(2n) / (2n)! and
    # D^(2n) f(k) = q_n k^(2H-2n), q_n the product of 2H - i over
    # i = 0..2n-1 but i = 2p - 2.  Its terms share a sign and term n+1 is
    # below (p/k)^2 of term n.  Stencil values that vanish as H tends to
    # 1/2 (or, at lag 2 of p = 2, to 3/2) keep the rounding of gamma(0),
    # not their own
    x = 2.0 * h - 2 * order + 2

    def f(t):
        if t == 0:
            return -1.0 / x if order == 1 else 0.0
        log_t = math.log(t)
        return t ** (2 * order - 2) * (math.expm1(x * log_t) / x if x else log_t)

    def stencil(k, p):
        return sum(
            (-1) ** j * math.comb(2 * p, j) * f(abs(k + j - p)) for j in range(2 * p + 1)
        )

    gamma = np.empty(m + 1)
    first = _SERIES_RANGES[0]
    gamma[:first] = [stencil(k, order) for k in range(min(first, m + 1))]
    edges = _SERIES_RANGES + (m + 1,)
    for lo, hi in zip(edges, edges[1:]):
        hi = min(hi, m + 1)
        if lo >= hi:
            break
        terms = 1 + math.ceil(56.0 * math.log(2.0) / (2.0 * math.log(lo / order)))
        coeffs = []
        q = math.prod(2.0 * h - i for i in range(2 * order) if i != 2 * order - 2)
        for n in range(order, order + terms):
            a = sum(
                (-1) ** j * math.comb(2 * order, j) * (order - j) ** (2 * n)
                for j in range(2 * order + 1)
            )
            coeffs.append(a / math.factorial(2 * n) * q)
            q *= (2.0 * h - 2 * n) * (2.0 * h - 2 * n - 1)
        k = np.arange(lo, hi, dtype=float)
        u = k**-2.0
        acc = gamma[lo:hi]
        acc[:] = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc *= u
            acc += c
        acc *= np.power(k, 2.0 * h - 2 * order, out=k)
    gamma *= (-1) ** order * avar_constant(h) / stencil(0, 2)
    return gamma


def _embedded_draws(h: float, order: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # n stationary Gaussian lag-one differences of the given order with
    # autocovariance _diff_autocovariance, by circulant embedding: the
    # symmetric circulant of order 2m whose first row is gamma(0..m),
    # gamma(m-1..1), with m >= n - 1, holds their covariance as its leading
    # n x n block.  One real FFT gives its eigenvalues; Hermitian unit noise
    # scaled by their square roots goes through one inverse real FFT.
    # Where gamma(k) <= 0 at every lag k >= 1, every eigenvalue is at least
    # the zero-frequency one, the sum of the row, and that is at least the
    # sum of gamma over all lags, which is 0 (Craigmile 2003).  This holds
    # for first differences at H < 1/2 and for second differences from
    # H = 1/2 to about 1.26; above that gamma(1) > 0, and the eigenvalues
    # were checked numerically (H to 1.4999, m to 2^22).  Second differences
    # at H < 1/2 have a positive tail, which the row misses, so their
    # zero-frequency eigenvalue is negative at every m
    m = _fast_len(max(n - 1, 1))
    gamma = _diff_autocovariance(h, order, m)
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    del gamma
    spec = np.fft.rfft(row)
    del row
    low, top = spec.real.min(), spec.real.max()
    if low < -_EIGEN_RTOL * top:
        raise DecompositionError(
            f"circulant embedding of H = {h} at {2 * m} points has eigenvalue "
            f"{low:.3e} against a largest of {top:.3e}"
        )
    # the amplitudes sqrt(2m eig / 2), negative rounding set to zero
    amp = np.maximum(spec.real, 0.0)
    del spec
    amp *= m
    np.sqrt(amp, out=amp)
    noise = rng.standard_normal(2 * m + 2).view(complex)
    noise *= amp
    del amp
    # the zero and Nyquist terms are real and carry the full variance
    noise[0] *= math.sqrt(2.0)
    noise[m] *= math.sqrt(2.0)
    return np.fft.irfft(noise, 2 * m)[:n]


def simulate_trace(mix: NoiseMixture, n_samples: int, dt: float, seed: int) -> np.ndarray:
    """Single long phase trace on a uniform grid dt, 2dt, ..., n*dt.

    Cholesky simulation is cubic in the grid size and calibration needs
    millions of samples, so the trace is drawn through the law that the
    Allan statistic sees: that of its second differences.  For each
    component they follow the stationary t -> infinity limit of the
    model.  At lag dt their autocovariance is the fourth central
    difference of the generalised covariance -|t|^(2H)/2 (H < 1),
    +|t|^(2H)/2 (H > 1) or t^2 ln|t| (H = 1), scaled so that
    gamma(0) = c^2 C(H) dt^(2H) with C(H) of ``avar_constant``.
    They are drawn exactly by circulant embedding (Davies & Harte 1987;
    Wood & Chan 1994).  One real FFT of the embedded autocovariance gives
    its eigenvalues, which must be nonnegative to rounding or
    ``DecompositionError`` is raised.  One inverse real FFT of Hermitian
    Gaussian noise scaled by their square roots gives the differences,
    and two cumulative sums make them a trace.  For H < 1/2 that
    embedding is never nonnegative, so the increments are drawn instead,
    with minus the second central difference of the same covariance, and
    summed once.  Either way the second differences at every lag follow
    the stationary law exactly, with variance C(H) (m dt)^(2H) at lag m.
    The samples themselves do not have the Riemann-Liouville variance of
    ``variance``, early samples least of all.

    The part of the trace that the drawn differences do not see is
    pinned: each component is zero at the first sample and, for
    H > 1/2, at the second too, which fixes its affine part a + b t.
    H = 1/2, white frequency noise, is the exact cumulative sum of
    independent N(0, dt) increments from the origin.

    Cost is O(n log n): two real FFTs of a 5-smooth length 2m >= 2(n - 3)
    per non-white component.  Memory is the trace plus one such FFT at a
    time: its input, its output and numpy's scratch of twice its output,
    about 8m doubles, so about ten doubles per sample at the peak.  The
    components draw in order from one PCG64 stream: n normals for white
    noise, 2m + 2 for each other.  ``DomainError`` is raised when the
    coefficients and dt overflow the double range.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if dt <= 0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive, got {dt}")
    rng = _rng(seed)
    total = np.zeros(n_samples)
    # overflow is reported once, below, as a DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        for hurst, coeff in mix.components:
            if coeff == 0.0:
                continue
            if hurst.h == 0.5:
                total += coeff * np.cumsum(rng.standard_normal(n_samples) * math.sqrt(dt))
                continue
            # the order whose circulant embedding is nonnegative
            order = 1 if hurst.h < 0.5 else 2
            if n_samples <= order:
                continue
            part = _embedded_draws(hurst.h, order, n_samples - order, rng)
            for _ in range(order):
                np.cumsum(part, out=part)
            part *= coeff * np.float64(dt) ** hurst.h
            total[order:] += part
    if not np.isfinite(total).all():
        raise DomainError(
            f"trace overflows the double range: coefficients too large for dt = {dt}"
        )
    return total
