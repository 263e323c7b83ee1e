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

summed below; both are ``specfun.wrapped_gaussian``, the package's one
wrapped-Gaussian kernel, which also gives the density above.  Min-entropy
of the bit is -log2(1/2 + eps).  The security calls take plain numbers:
a mixture, the duty cycle alpha and the sampling interval dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fbm, leakage, specfun
from .errors import DomainError, NoSolutionError
from .fbm import NoiseMixture

__all__ = [
    "SecurityReport",
    "bandwidth_report",
    "bias",
    "bias_entropy_curve",
    "min_entropy",
    "solve_min_dt",
]

# solve_min_dt's smallest interval, returned for a zero target, and the
# relative width of its final bracket
_DT_MIN = 1e-12
_REL_TOL = 1e-6


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


def bandwidth_report(mix: NoiseMixture, alpha: float, dt: float) -> SecurityReport:
    """Per-bit security of sampling bits of duty cycle alpha at interval dt (s).

    Successive bits are separated by dt; conditioned on everything an
    attacker saw before, the leftover phase variance is the full-history
    conditional variance at gap dt, which sets the bias and min-entropy;
    ``per_component`` is its split, ``fbm.component_variances``.  A
    non-finite alpha or dt, an alpha outside (0, 1) or a dt <= 0 raises
    ``DomainError``.
    """
    if not (math.isfinite(alpha) and math.isfinite(dt)):
        raise DomainError(f"oscillator parameters must be finite, got {(alpha, dt)}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"duty cycle must lie strictly in (0, 1), got {alpha}")
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    parts = fbm.component_variances(mix, dt)
    sigma2 = sum(parts)
    eps = bias(sigma2, alpha)
    hursts = [hurst.h for hurst, _ in mix.components]
    return SecurityReport(
        sigma2=sigma2,
        duty_alpha=alpha,
        bias=eps,
        min_entropy_bits=_entropy_bits(eps),
        per_component=tuple(zip(hursts, parts)),
    )


def solve_min_dt(mix: NoiseMixture, alpha: float, target_entropy: float) -> float:
    """Smallest sampling interval achieving the target min-entropy.

    Entropy is monotone in dt (more time, more accumulated noise), so a
    bracket-and-bisect on dt suffices, down to a bracket 1e-6 of its upper
    end wide; dt is never below 1e-12 s, which a target of zero (any
    interval works) returns too.  The achievable supremum is
    -log2(1/2 + |alpha - 1/2|) -- one bit only for a symmetric duty
    cycle; targets at or above the supremum raise ``NoSolutionError``.
    A target that is negative or not finite raises ``DomainError``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"duty cycle must lie in (0, 1), got {alpha}")
    if not 0.0 <= target_entropy < math.inf:
        raise DomainError(f"target entropy must be finite and >= 0, got {target_entropy}")
    if target_entropy == 0.0:
        return _DT_MIN
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
    while lo > _DT_MIN and entropy_at(lo) >= target_entropy:
        lo /= 8.0
    if lo <= _DT_MIN:
        return _DT_MIN
    while (hi - lo) > _REL_TOL * hi:
        mid = math.sqrt(lo * hi)
        if entropy_at(mid) >= target_entropy:
            hi = mid
        else:
            lo = mid
    return hi


def bias_entropy_curve(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma2, bias, min-entropy) arrays over 60 variances on [0.01, 20],
    geometrically spaced.

    The bias is the closed-form window mass of ``bias``, one vectorised
    call over the grid: the Gaussian image sum below sigma2 = 2 and the
    theta series from there on.
    """
    grid = np.logspace(math.log10(0.01), math.log10(20.0), 60)
    biases = bias(grid, alpha)
    return grid, biases, _entropy_bits(biases)
