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
``renewal_sample`` draws future paths from the same conditional law; the
two share one conditioning step, which checks the history against the
targets and factors its covariance with ``fbm.cholesky_with_jitter``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import fbm
from .errors import DomainError
from .fbm import NoiseMixture, TimeGrid, _as_hurst

__all__ = [
    "conditional_covariance",
    "conditional_variance",
    "discrete_posterior",
    "renewal_sample",
]


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


def _condition(h, observed_times: TimeGrid | None, observations, first_target: float):
    # the one Gaussian conditioning step: one observation per time, all of
    # them before the first target (after t = 0 with no history).  Returns
    # the observations and the jitter-Cholesky factor of their covariance
    # in cho_solve form, or None when there is no history.
    if observed_times is None:
        if observations is not None and np.size(observations):
            raise DomainError("observations given without observed_times")
        if first_target <= 0:
            raise DomainError(f"target time must be positive, got {first_target}")
        return None
    y = np.asarray(observations, dtype=float)
    if y.shape != (len(observed_times),):
        raise DomainError(
            f"need one observation per time, got {y.shape} for {len(observed_times)}"
        )
    ts = observed_times.points
    if first_target <= ts[-1]:
        raise DomainError(
            f"target {first_target} must lie after the last observation {ts[-1]}"
        )
    K = fbm.covariance_matrix(h, observed_times)
    return y, (fbm.cholesky_with_jitter(K), True)


def discrete_posterior(
    h,
    observed_times: TimeGrid | None,
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

    The history is checked and factored by the same conditioning step as
    :func:`renewal_sample`: one observation per time, the target after
    the last one.  ``observed_times=None``, with no observations, is the
    unconditional law.
    """
    h = _as_hurst(h)
    system = _condition(h, observed_times, observations, target_t)
    if system is None:
        return 0.0, fbm.variance(h, target_t)
    y, cf = system
    k = fbm.cross_covariance(h, observed_times.points, target_t)
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
    restarted process.  The history goes through the same conditioning
    step as :func:`discrete_posterior`, with the first future time as the
    target; ``observed_times=None``, with no observations, is plain
    simulation.
    """
    h = _as_hurst(h)
    system = _condition(h, observed_times, observations, float(future_grid.points[0]))
    if system is None:
        s_last, mean = 0.0, np.zeros(len(future_grid))
    else:
        y, cf = system
        s_last = float(observed_times.points[-1])
        cross = fbm.cross_covariance(h, future_grid.points[:, None], observed_times.points)
        mean = cross @ scipy.linalg.cho_solve(cf, y)
    fresh = fbm.simulate(h, TimeGrid(future_grid.points - s_last), n_paths, seed)
    return mean[:, None] + fresh
