"""Worst-case bit bias and min-entropy of threshold-sampled oscillator bits.

A sampled bit reads 1 while the wrapped phase sits inside a window
covering a fraction alpha of the cycle.  Under any Gaussian phase
posterior the wrapped phase is a periodic Gaussian, whose density is a
theta function:

    p_Y(y) = (1/r) theta_3(pi (mu - y) / r, exp(-2 pi^2 sigma^2 / r^2)).

An attacker who controls the initial phase offset slides the window; the
extreme window positions are centred on the density's peak or trough, so
the worst-case bias over offsets is the mass of the peak-centred window
of half-width amax pi on the 2 pi period, less 1/2:

    eps(sigma, alpha) = P(|Y - mu| <= amax pi) - 1/2,   Y - mu in (-pi, pi],

with amax = max(alpha, 1 - alpha): whichever of the bit and its
complement owns the longer window pins more probability around the
peak.  (The window of alpha itself gives the bias of the peak-centred
window only; for alpha < 1/2 the trough-centred placement is worse,
which the offset-scan oracle in the test suite confirms.)  The mass has
two exact closed forms: the theta series, each term's window mass in
closed form,

    amax + (2/pi) sum_n exp(-n^2 sigma^2 / 2) sin(n pi amax) / n,

summed for sigma^2 >= 2, and the sum over Gaussian images

    sum_k [Phi((amax pi + 2 pi k)/sigma) - Phi((-amax pi + 2 pi k)/sigma)],

summed below; both are ``specfun.wrapped_gaussian``.  Min-entropy of the
bit is -log2(1/2 + eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fbm, leakage, specfun
from .errors import DomainError, NoSolutionError
from .fbm import NoiseMixture, OscillatorConfig

__all__ = [
    "SecurityReport",
    "WrappedGaussian",
    "bandwidth_report",
    "bias",
    "bias_entropy_curve",
    "min_entropy",
    "solve_min_dt",
    "wrapped_gaussian_pdf",
]

@dataclass(frozen=True)
class WrappedGaussian:
    """Gaussian with mean mu (rad) and variance sigma2 (rad^2), reduced
    modulo period_r."""

    mu: float
    sigma2: float
    period_r: float

    def __post_init__(self):
        if self.sigma2 <= 0 or not math.isfinite(self.sigma2):
            raise DomainError(f"sigma2 must be positive, got {self.sigma2}")
        if self.period_r <= 0 or not math.isfinite(self.period_r):
            raise DomainError(f"period must be positive, got {self.period_r}")


@dataclass(frozen=True)
class SecurityReport:
    """Security summary for one sampling configuration.

    ``per_component`` lists (hurst value, rad^2 contribution) adding up to
    ``sigma2``; ``min_entropy_bits`` is -log2(1/2 + bias).
    """

    sigma2: float
    duty_alpha: float
    bias: float
    min_entropy_bits: float
    per_component: tuple[tuple[float, float], ...]


def wrapped_gaussian_pdf(wg: WrappedGaussian, y: float) -> float:
    """Density of the wrapped Gaussian at y in [0, r).

    The unit-period ``specfun.wrapped_gaussian`` at (mu - y) / r with
    variance sigma2 / r^2, divided by r; equal to
    theta_3(pi (mu - y) / r | exp(-2 pi^2 sigma2 / r^2)) / r.
    """
    r = wg.period_r
    if not 0.0 <= y < r:
        raise DomainError(f"y must lie in [0, {r}), got {y}")
    return float(specfun.wrapped_gaussian((wg.mu - y) / r, wg.sigma2 / (r * r))) / r


def bias(sigma2, alpha: float):
    """Worst-case bit bias over the attacker-controlled phase offset.

    sigma2 is the conditional phase variance (rad^2), a scalar or an
    array, and alpha the duty cycle.  The value lies in [0, 1/2];
    sigma2 = 0 forces a deterministic bit (bias 1/2) and sigma2 -> infinity
    leaves only the duty-cycle asymmetry |alpha - 1/2|.  A scalar sigma2
    gives a float, an array an array of its shape.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"duty cycle must lie in (0, 1), got {alpha}")
    s2 = np.asarray(sigma2, dtype=float)
    if not np.all((s2 >= 0) & np.isfinite(s2)):
        raise DomainError(f"sigma2 must be >= 0, got {sigma2}")
    amax = max(alpha, 1.0 - alpha)
    v = s2 / (4.0 * math.pi**2)
    eps = np.full(s2.shape, 0.5)  # where sigma is 0 the bit is fixed
    noisy = v > 0.0
    mass = specfun.wrapped_gaussian(amax / 2.0, v[noisy], mass=True)
    eps[noisy] = np.clip(mass - 0.5, 0.0, 0.5)
    return float(eps) if eps.ndim == 0 else eps


def _entropy_bits(eps):
    """-log2(1/2 + eps), elementwise; adding 0.0 turns the -0.0 of a
    saturated bias into 0.0."""
    bits = -np.log2(0.5 + np.asarray(eps)) + 0.0
    return float(bits) if bits.ndim == 0 else bits


def min_entropy(sigma2, alpha: float):
    """Min-entropy of one sampled bit, -log2(1/2 + bias), in [0, 1];
    scalar or array in sigma2 like ``bias``."""
    return _entropy_bits(bias(sigma2, alpha))


def bandwidth_report(mix: NoiseMixture, osc: OscillatorConfig) -> SecurityReport:
    """Per-bit security of sampling at interval dt.

    Successive bits are separated by dt; conditioned on everything an
    attacker saw before, the leftover phase variance is the full-history
    conditional variance at gap dt, which sets the bias and min-entropy;
    ``per_component`` is its split, ``fbm.component_variances``.
    """
    parts = fbm.component_variances(mix, osc.dt)
    sigma2 = sum(parts)
    eps = bias(sigma2, osc.duty_alpha)
    hursts = [hurst.h for hurst, _ in mix.components]
    return SecurityReport(
        sigma2=sigma2,
        duty_alpha=osc.duty_alpha,
        bias=eps,
        min_entropy_bits=_entropy_bits(eps),
        per_component=tuple(zip(hursts, parts)),
    )


def solve_min_dt(
    mix: NoiseMixture,
    alpha: float,
    target_entropy: float,
    dt_min: float = 1e-12,
    rel_tol: float = 1e-6,
) -> float:
    """Smallest sampling interval achieving the target min-entropy.

    Entropy is monotone in dt (more time, more accumulated noise), so a
    bracket-and-bisect on dt suffices.  The achievable supremum is
    -log2(1/2 + |alpha - 1/2|) -- one bit only for a symmetric duty
    cycle; targets at or above the supremum raise ``NoSolutionError``.
    A target of zero is degenerate (any interval works) and returns
    ``dt_min``.  A target that is negative or not finite, a ``dt_min``
    that is not positive and finite, or a ``rel_tol`` outside (0, 1)
    raises ``DomainError``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"duty cycle must lie in (0, 1), got {alpha}")
    if not 0.0 <= target_entropy < math.inf:
        raise DomainError(f"target entropy must be finite and >= 0, got {target_entropy}")
    if not 0.0 < dt_min < math.inf:
        raise DomainError(f"dt_min must be positive and finite, got {dt_min}")
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if target_entropy == 0.0:
        return dt_min
    cap = -math.log2(0.5 + abs(alpha - 0.5))
    if target_entropy >= cap:
        raise NoSolutionError(
            f"target {target_entropy} bits unreachable; supremum for "
            f"alpha={alpha} is {cap} bits"
        )
    if all(c == 0.0 for _, c in mix.components):
        raise NoSolutionError("mixture has no noise; entropy stays at 0")

    def entropy_at(dt: float) -> float:
        return min_entropy(leakage.conditional_variance(mix, dt), alpha)

    hi = 1.0
    while entropy_at(hi) < target_entropy:
        hi *= 8.0
        if hi > 1e30:
            raise NoSolutionError("no finite interval reaches the target")
    lo = hi
    while lo > dt_min and entropy_at(lo) >= target_entropy:
        lo /= 8.0
    if lo <= dt_min:
        return dt_min
    while (hi - lo) > rel_tol * hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles: rel_tol is below their spacing
        if entropy_at(mid) >= target_entropy:
            hi = mid
        else:
            lo = mid
    return hi


def bias_entropy_curve(
    alpha: float, sigma2_grid=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma2, bias, min-entropy) arrays over a variance grid.

    Defaults to 60 points on [0.01, 20], geometrically spaced.  The bias is the
    closed-form window mass of ``bias``, one vectorised call over the
    grid: the Gaussian image sum below sigma2 = 2 and the theta series
    from there on.
    """
    if sigma2_grid is None:
        sigma2_grid = np.logspace(math.log10(0.01), math.log10(20.0), 60)
    grid = np.asarray(sigma2_grid, dtype=float)
    biases = bias(grid, alpha)
    return grid, biases, _entropy_bits(biases)
