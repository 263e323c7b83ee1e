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
plain Gaussian conditional via a Cholesky solve.  Its variance converges
to the closed form from above as the observation grid densifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import fbm
from .errors import DomainError
from .fbm import HurstExponent, NoiseMixture, TimeGrid, _as_hurst

__all__ = [
    "ConditionalLaw",
    "conditional_covariance",
    "conditional_law",
    "conditional_variance",
    "discrete_posterior",
    "renewal_sample",
]


@dataclass(frozen=True)
class ConditionalLaw:
    """Leftover law of one component after full-history leakage: a zero-drift
    restart with variance gap_tau^(2H) / (2H Gamma(H+1/2)^2)."""

    gap_tau: float
    variance: float
    hurst: HurstExponent


def conditional_law(h, gap_tau: float) -> ConditionalLaw:
    h = _as_hurst(h)
    if gap_tau <= 0:
        raise DomainError(f"gap must be positive, got {gap_tau}")
    return ConditionalLaw(gap_tau, fbm.variance(h, gap_tau), h)


def conditional_variance(mix: NoiseMixture, gap_tau: float) -> float:
    """Var of the mixture phase given its full past, gap_tau after the last
    observation; components add independently."""
    if gap_tau <= 0:
        raise DomainError(f"gap must be positive, got {gap_tau}")
    return fbm.mixture_variance(mix, gap_tau)


def conditional_covariance(h, t: float, s: float, t0: float) -> float:
    """Cov(phi_t, phi_s | phi_{<=t0}) = Cov(phi_{t-t0}, phi_{s-t0}) for
    t >= s > t0 >= 0."""
    if not (t >= s > t0 >= 0):
        raise DomainError(f"need t >= s > t0 >= 0, got ({t}, {s}, {t0})")
    return fbm.covariance(h, t - t0, s - t0)


def _posterior_system(h, observed_times: TimeGrid, target_t: float):
    ts = observed_times.points
    if target_t <= ts[-1]:
        raise DomainError(
            f"target {target_t} must lie after the last observation {ts[-1]}"
        )
    K = fbm.covariance_matrix(h, observed_times)
    k = fbm.cross_covariance(h, ts, target_t)
    return (fbm.cholesky_with_jitter(K), True), k


def discrete_posterior(
    h,
    observed_times: TimeGrid,
    target_t: float,
    observations,
    drift: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Gaussian conditional (mean, variance) of phi_{target} given finitely
    many observed samples.

    The variance is a Schur complement and never touches the observed
    values, so it is bit-for-bit identical across observation vectors.
    ``drift=(a, b)`` declares a known deterministic component a + b*t in
    the observations; it is removed before conditioning and a + b*target
    is added back to the mean, so a modelled drift passes through exactly
    and leaves the variance untouched.  (With the zero-mean model, an
    unmodelled drift in the data is simply projected like any other
    observation, which is not the same thing.)

    With no observations this reduces to the unconditional law.
    """
    h = _as_hurst(h)
    if observations is None:
        observations = []
    y = np.asarray(observations, dtype=float)
    if observed_times is None or len(observed_times) == 0 or y.size == 0:
        if y.size or (observed_times is not None and len(observed_times)):
            raise DomainError("observed_times and observations must match")
        if target_t <= 0:
            raise DomainError(f"target time must be positive, got {target_t}")
        return 0.0, fbm.variance(h, target_t)
    if y.shape != (len(observed_times),):
        raise DomainError(
            f"need one observation per time, got {y.shape} for {len(observed_times)}"
        )
    cf, k = _posterior_system(h, observed_times, target_t)
    alpha = scipy.linalg.cho_solve(cf, k)
    var = fbm.variance(h, target_t) - float(k @ alpha)
    if drift is not None:
        a, b = drift
        y = y - (a + b * observed_times.points)
        return float(y @ alpha) + a + b * target_t, var
    return float(y @ alpha), var


def renewal_sample(
    h,
    observed_times: TimeGrid | None,
    observations,
    future_grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Sample future phase given a finite history, shape (len(future), n_paths).

    The conditional law is materialised as posterior mean curve plus an
    independent fresh start: a new copy of the process on the shifted
    grid (t - s), s the last observation time.  Cross-covariances between
    future points therefore equal the unconditional covariances of the
    restarted process.  With an empty history this is plain simulation.
    """
    h = _as_hurst(h)
    empty = observed_times is None or len(observed_times) == 0
    s_last = 0.0 if empty else float(observed_times.points[-1])
    if future_grid.points[0] <= s_last:
        raise DomainError(
            f"future grid must start after the conditioning time {s_last}"
        )
    if empty:
        mean = np.zeros(len(future_grid))
    else:
        y = np.asarray(observations, dtype=float)
        if y.shape != (len(observed_times),):
            raise DomainError(
                f"need one observation per time, got {y.shape} for {len(observed_times)}"
            )
        cf, _ = _posterior_system(h, observed_times, float(future_grid.points[0]))
        weights = scipy.linalg.cho_solve(cf, y)
        cross = fbm.cross_covariance(h, future_grid.points[:, None], observed_times.points)
        mean = cross @ weights
    shifted = TimeGrid(future_grid.points - s_last)
    fresh = fbm.simulate(h, shifted, n_paths, seed)
    return mean[:, None] + fresh
