"""Conditional phase law under leakage of the observation history.

Conditioned on its entire past up to time s, the phase component
restarts: the leftover uncertainty about phi_{s+tau} is exactly the
unconditional variance at lag tau,

    Var(phi_t | phi_{<=s}) = (t-s)^(2H) / (2H Gamma(H+1/2)^2),

independent of the absolute time and of any deterministic drift, and
future covariances equal the unconditional covariances of the restarted
process.  These closed forms are the normative security quantities: an
attacker who saw only finitely many samples can never do better.

``discrete_posterior`` provides the matching finite-history oracle, a
plain Gaussian conditional via a Cholesky solve of the history's
covariance, factored with ``fbm.cholesky_with_jitter``.  Its variance
converges to the closed form from above as the observation grid
densifies.  It imports ``scipy.linalg`` for ``cho_solve`` on first use,
so that ``import oscnoise`` loads no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

from . import fbm
from .errors import DomainError
from .fbm import NoiseMixture, TimeGrid, _as_hurst

__all__ = ["conditional_variance", "discrete_posterior"]


def conditional_variance(mix: NoiseMixture, gap_tau: float) -> float:
    """Var of the mixture phase given its full past, gap_tau after the last
    observation: the sum of ``fbm.component_variances`` at gap_tau, since
    components add independently."""
    if not math.isfinite(gap_tau):
        raise DomainError(f"gap must be finite, got {gap_tau}")
    if gap_tau <= 0:
        raise DomainError(f"gap must be positive, got {gap_tau}")
    return sum(fbm.component_variances(mix, gap_tau))


def discrete_posterior(
    h,
    observed_times: TimeGrid | None,
    target_t: float,
    observations,
) -> tuple[float, float]:
    """Gaussian conditional (mean, variance) of phi_{target} given finitely
    many observed samples.

    The variance is a Schur complement and never touches the observed
    values, so it is bit-for-bit identical across observation vectors.
    The model has zero mean: a drift in the data is projected like any
    other observation, so a caller who knows a deterministic component
    subtracts it from the observations and adds it back to the mean.

    There is one observation per time, and the target lies after the
    last one.  ``observed_times=None``, with no observations, is the
    unconditional law.
    """
    h = _as_hurst(h)
    if observed_times is None:
        if observations is not None and np.size(observations):
            raise DomainError("observations given without observed_times")
        if target_t <= 0:
            raise DomainError(f"target time must be positive, got {target_t}")
        return 0.0, fbm.variance(h, target_t)
    y = np.asarray(observations, dtype=float)
    if y.shape != (len(observed_times),):
        raise DomainError(
            f"need one observation per time, got {y.shape} for {len(observed_times)}"
        )
    ts = observed_times.points
    if target_t <= ts[-1]:
        raise DomainError(f"target {target_t} must lie after the last observation {ts[-1]}")
    import scipy.linalg

    cf = (fbm.cholesky_with_jitter(fbm.covariance_matrix(h, observed_times)), True)
    k = fbm.cross_covariance(h, ts, target_t)
    alpha = scipy.linalg.cho_solve(cf, k)
    return float(y @ alpha), fbm.variance(h, target_t) - float(k @ alpha)
