"""Worst-case bit bias and min-entropy of threshold-sampled oscillator bits.

A sampled bit reads 1 while the wrapped phase sits inside a window
covering a fraction alpha of the cycle.  Under any Gaussian phase
posterior the wrapped phase is a periodic Gaussian, whose density is a
theta function:

    p_Y(y) = (1/r) theta_3(pi (mu - y) / r, exp(-2 pi^2 sigma^2 / r^2)).

An attacker who controls the initial phase offset slides the window; the
extreme window positions are centred on the density's peak or trough, so
the worst-case bias over offsets is

    eps(sigma, alpha) = (1/pi) * integral_0^(amax pi)
                        theta_3(y/2, exp(-sigma^2/2)) dy - 1/2,

with amax = max(alpha, 1 - alpha): whichever of the bit and its
complement owns the longer window pins more probability around the
peak.  (Evaluating the integral at alpha itself gives the bias of the
peak-centred window only; for alpha < 1/2 the trough-centred placement
is worse, which the offset-scan oracle in the test suite confirms.)
Min-entropy of the bit is -log2(1/2 + eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

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

_QUAD_ABS_TOL = 1e-10


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

    The theta-function form theta_3(pi (mu - y) / r | q) / r with nome
    q = exp(-2 pi^2 sigma2 / r^2); ``specfun.theta3`` itself switches to
    the aliased Gaussian sum for nome above 0.9.  Rounding q costs a
    relative error of about 2^-53 r^2 / (2 pi^2 sigma2) in the variance
    (6e-12 at sigma2/r^2 = 1e-6), and once sigma2/r^2 falls below about
    6e-18 the nome rounds to 1 and ``theta3`` raises ``DomainError``.
    """
    r = wg.period_r
    if not 0.0 <= y < r:
        raise DomainError(f"y must lie in [0, {r}), got {y}")
    q = math.exp(-2.0 * math.pi**2 * wg.sigma2 / (r * r))
    return specfun.theta3(math.pi * (wg.mu - y) / r, q) / r


def _theta_window_mass(sigma2: float, frac: float) -> float:
    """Probability that the wrapped phase lands within +-frac*pi of the
    density peak, for the 2 pi period.

    Adaptive quadrature of the theta density, split at the peak scale so
    a sharply concentrated density is still resolved.
    """
    q = math.exp(-sigma2 / 2.0)
    upper = frac * math.pi
    sigma = math.sqrt(sigma2)
    cuts = sorted({0.0, min(sigma, upper), min(8.0 * sigma, upper), upper})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        val, _ = scipy.integrate.quad(
            lambda y: specfun.theta3(y / 2.0, q),
            a,
            b,
            epsabs=_QUAD_ABS_TOL,
            epsrel=0.0,
            limit=200,
        )
        total += val
    return total / math.pi


def bias(sigma2: float, alpha: float) -> float:
    """Worst-case bit bias over the attacker-controlled phase offset.

    sigma2 is the conditional phase variance (rad^2) and alpha the duty
    cycle.  The value lies in [0, 1/2]; sigma2 = 0 forces a deterministic
    bit (bias 1/2) and sigma2 -> infinity leaves only the duty-cycle
    asymmetry |alpha - 1/2|.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"duty cycle must lie in (0, 1), got {alpha}")
    if sigma2 < 0 or not math.isfinite(sigma2):
        raise DomainError(f"sigma2 must be >= 0, got {sigma2}")
    if sigma2 < 1e-15:
        # the missing window mass is ~exp(-pi^2/(8 sigma2)); indistinguishable
        # from the deterministic limit many orders before the nome rounds to 1
        return 0.5
    amax = max(alpha, 1.0 - alpha)
    mass = _theta_window_mass(sigma2, amax)
    return min(max(mass - 0.5, 0.0), 0.5)


def min_entropy(sigma2: float, alpha: float) -> float:
    """Min-entropy of one sampled bit, -log2(1/2 + bias), in [0, 1]."""
    return -math.log2(0.5 + bias(sigma2, alpha)) + 0.0  # normalise -0.0


def bandwidth_report(mix: NoiseMixture, osc: OscillatorConfig) -> SecurityReport:
    """Per-bit security of sampling at interval dt.

    Successive bits are separated by dt; conditioned on everything an
    attacker saw before, the leftover phase variance is the full-history
    conditional variance at gap dt, which sets the bias and min-entropy.
    """
    per_component = tuple(
        (hurst.h, coeff * coeff * fbm.variance(hurst, osc.dt))
        for hurst, coeff in mix.components
    )
    sigma2 = leakage.conditional_variance(mix, osc.dt)
    eps = bias(sigma2, osc.duty_alpha)
    return SecurityReport(
        sigma2=sigma2,
        duty_alpha=osc.duty_alpha,
        bias=eps,
        min_entropy_bits=-math.log2(0.5 + eps) + 0.0,
        per_component=per_component,
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
    ``dt_min``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"duty cycle must lie in (0, 1), got {alpha}")
    if target_entropy < 0:
        raise DomainError(f"target entropy must be >= 0, got {target_entropy}")
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
        if entropy_at(mid) >= target_entropy:
            hi = mid
        else:
            lo = mid
    return hi


def bias_entropy_curve(
    alpha: float, sigma2_grid=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma2, bias, min-entropy) arrays over a variance grid.

    Defaults to 60 log-spaced points on [0.01, 20].  The bias curve must
    come out non-increasing in sigma2; a violation would mean the
    quadrature lost the density peak, so it raises rather than returning
    a silently wrong curve.
    """
    if sigma2_grid is None:
        sigma2_grid = np.logspace(math.log10(0.01), math.log10(20.0), 60)
    grid = np.asarray(sigma2_grid, dtype=float)
    biases = np.array([bias(s2, alpha) for s2 in grid])
    if np.any(np.diff(biases) > 1e-12):
        raise DomainError("bias curve not non-increasing; quadrature failure")
    entr = -np.log2(0.5 + biases)
    return grid, biases, entr
