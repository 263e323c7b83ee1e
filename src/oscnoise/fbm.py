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
arbitrary grid goes through a Cholesky factor of that covariance;
calibration-length traces on uniform grids use a moving-average
discretisation of the defining integral (see ``simulate_trace``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import DecompositionError, DomainError

__all__ = [
    "HurstExponent",
    "NoiseMixture",
    "OscillatorConfig",
    "TimeGrid",
    "RNG_ALGORITHM",
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


@dataclass(frozen=True)
class OscillatorConfig:
    """What the security report needs of a sampled oscillator: its duty
    cycle alpha in (0, 1) and its sampling interval dt (s)."""

    duty_alpha: float
    dt: float

    def __post_init__(self):
        vals = (self.duty_alpha, self.dt)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"oscillator parameters must be finite, got {vals}")
        if not 0.0 < self.duty_alpha < 1.0:
            raise DomainError(f"duty cycle must lie strictly in (0, 1), got {self.duty_alpha}")
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")


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
    return t ** (2.0 * h) / (2.0 * h * math.gamma(h + 0.5) ** 2)


def cross_covariance(model, s, t) -> np.ndarray:
    """Elementwise Cov(phi_s, phi_t) of a HurstExponent (or float) or a
    NoiseMixture, in rad^2.

    ``s`` and ``t`` broadcast against each other and the result has their
    broadcast shape.  A mixture sums c_H^2 times each component.  The value
    is symmetric in (s, t) bit for bit and zero where either time is zero.
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
    for h, scale in _components(model):
        out += _term(specfun.hyp2f1_curve(h, z), lo ** (h + 0.5) * hi ** (h - 0.5), scale)
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
    order of ``mix.components``."""
    return [c * c * variance(hurst, t) for hurst, c in mix.components]


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

    Working memory is K plus about three packed triangles of n(n+1)/2
    doubles, K being about two of them.  The ratios, the running sum over
    components and one component's 2F1 values are held at once; a 2F1
    call that sorts adds its sort order and sorted copy.  K is allocated
    once the sum is complete and the ratios are freed, and is written in
    row blocks of bounded size, both triangles.  The peak is four packed
    triangles for one component and five for a mixture whose second 2F1
    sorts.
    """
    ts = grid.points
    n = ts.size
    components = _components(model)
    if not components:
        return np.zeros((n, n))
    z = np.empty(n * (n + 1) // 2)
    for r0, r1, packed, mask in _row_blocks(n):
        z[packed] = (ts[r0:r1, None] / ts[r0:])[mask]
    total = _packed_term(ts, z, *components[0])
    for h, scale in components[1:]:
        total += _packed_term(ts, z, h, scale)
    del z
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


def cholesky_with_jitter(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter from 1e-12 to 1e-6
    of the mean diagonal before failing.

    Nearby grid points make phase covariance matrices nearly singular;
    a loud failure beats silently biasing the law with large jitter.
    """
    scale = float(np.mean(np.diag(K)))
    eps = 0.0
    jittered = K
    while True:
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            eps = 1e-12 if eps == 0.0 else eps * 10.0
            if eps > 1e-6:
                raise DecompositionError(
                    "covariance matrix not positive definite even with "
                    f"jitter 1e-6 * mean(diag) = {1e-6 * scale:.3e}"
                ) from None
            # one copy of K for all retries, its diagonal reset each time
            if jittered is K:
                jittered = K.copy()
            np.fill_diagonal(jittered, np.diag(K) + eps * scale)


def simulate(model, grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """Exact zero-mean Gaussian paths on a grid, shape (len(grid), n_paths).

    ``model`` is a HurstExponent (or float) or a NoiseMixture; mixtures
    compose per-component covariance matrices additively before a single
    factorisation.  Output is deterministic for a fixed seed (PCG64).
    Working memory is K and its factor L plus, while K is built, about
    three packed triangles of n(n+1)/2 doubles (see ``covariance_matrix``);
    numpy's factorisation adds a working copy of K.  At 2048 points that
    is about 100 MB, set by the factorisation.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    K = covariance_matrix(model, grid)
    L = cholesky_with_jitter(K)
    rng = _rng(seed)
    return L @ rng.standard_normal((len(grid), n_paths))


def _ma_kernel(h: float, j: np.ndarray, dt_fine: float) -> np.ndarray:
    # cell weights of the moving-average discretisation at fine lags j;
    # chosen so the one-point variance of the discrete process is exact at
    # every sample
    incr = (j + 1.0) ** (2.0 * h) - j ** (2.0 * h)
    return dt_fine**h * np.sqrt(incr / (2.0 * h)) / math.gamma(h + 0.5)


def _decimated_moving_average(xi: np.ndarray, h: float, o: int, dt_fine: float) -> np.ndarray:
    # outputs o*i + o-1 of the fine-grid causal sum sum_j g[j] xi[k - j],
    # with g the kernel at j = 0 .. n*o - 1.  Writing j = o*q + r splits
    # it into o causal convolutions of length n, g[r::o] with xi[o-1-r::o],
    # whose spectra add before a single inverse FFT of length 2n
    nf = xi.size
    n = nf // o
    npad = 1 << int(math.ceil(math.log2(2 * n)))
    acc = np.zeros(npad // 2 + 1, dtype=complex)
    for r in range(o):
        part = np.fft.rfft(_ma_kernel(h, np.arange(r, nf, o, dtype=float), dt_fine), npad)
        part *= np.fft.rfft(xi[o - 1 - r :: o], npad)
        acc += part
    return np.fft.irfft(acc, npad)[:n]


def simulate_trace(
    mix: NoiseMixture,
    n_samples: int,
    dt: float,
    seed: int,
    oversample: int = 8,
) -> np.ndarray:
    """Single long phase trace on a uniform grid dt, 2dt, ..., n*dt.

    Cholesky simulation is cubic in the grid size; calibration needs
    millions of samples, so each non-white component is generated as a
    causal moving average over fine-grid Brownian innovations, i.e. a
    direct discretisation of the defining fractional integral.  The
    marginal variance of every sample is exact by construction; second
    difference statistics at analysis lag m carry a relative bias that
    depends only on oversample * m and falls roughly like
    (oversample * m)^-1.4 at H = 1 and (oversample * m)^-0.8 at H = 0.3
    (-1.49% at m = 1 for H = 1 with the default oversampling, -1.0% for
    H = 0.3; none for H = 1/2, which bypasses the moving average
    entirely).

    Only the kept samples of the fine-grid moving average are computed:
    the sum is split into ``oversample`` polyphase convolutions of length
    n_samples, so every FFT has length 2 n_samples (rounded up to a power
    of two) rather than 2 n_samples * oversample, and the kernel is built
    one phase at a time.  Memory is O(n_samples * oversample) for the
    innovations plus O(n_samples) for the rest.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if dt <= 0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive, got {dt}")
    if oversample < 1:
        raise DomainError(f"oversample must be >= 1, got {oversample}")
    rng = _rng(seed)
    total = np.zeros(n_samples)
    for hurst, coeff in mix.components:
        if coeff == 0.0:
            continue
        if hurst.h == 0.5:
            total += coeff * np.cumsum(
                rng.standard_normal(n_samples) * math.sqrt(dt)
            )
            continue
        xi = rng.standard_normal(n_samples * oversample)
        total += coeff * _decimated_moving_average(
            xi, hurst.h, oversample, dt / oversample
        )
    return total
