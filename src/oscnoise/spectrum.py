"""Wigner-Ville spectra of the phase model and derived frequency spectra.

The phase process is not stationary, so spectra here are time-varying:
the instantaneous spectrum is the Fourier transform of the covariance in
the lag variable, and its running time average converges to the pure
power law omega^-(2H+1).  Both are evaluated through closed forms in the
restricted 1F2 families of :mod:`oscnoise.specfun`; no numerical Fourier
transform is performed outside the test suite.

For H > 1/2 the instantaneous spectrum oscillates around the power law
with an envelope that grows like (t*omega)^(H-1/2), and takes negative
values once t*omega exceeds roughly 3 -- a familiar feature of
Wigner-Ville distributions, not a numerical artefact.  The time-averaged
spectrum stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import specfun
from .errors import DomainError
from .fbm import _as_hurst

__all__ = [
    "SpectrumPoint",
    "differenced",
    "fractional_frequency",
    "instantaneous",
    "oscillation_envelope",
    "time_averaged",
]


@dataclass(frozen=True)
class SpectrumPoint:
    """One spectrum sample: angular frequency (rad/s), value (rad^2 s), and
    which evaluation branch produced it."""

    omega: float
    value: float
    branch: str


def instantaneous(h, t: float, omega: float) -> SpectrumPoint:
    """Instantaneous spectrum of a single component at time t.

    S(t, omega) = 2^(2H+1) t^(2H+1) 1F2(H+1/2; H+1, H+3/2; -(t omega)^2)
                  / Gamma(2H+2)
    """
    h = _as_hurst(h).h
    if t <= 0 or omega <= 0:
        raise DomainError(f"t and omega must be positive, got ({t}, {omega})")
    x = t * omega
    res = specfun.hyp1f2(h + 0.5, h + 1.0, h + 1.5, -x * x)
    value = 2.0 ** (2.0 * h + 1.0) * t ** (2.0 * h + 1.0) * res.value / math.gamma(
        2.0 * h + 2.0
    )
    return SpectrumPoint(omega, value, res.branch)


def time_averaged(h, T: float, omega: float) -> SpectrumPoint:
    """Running time average (1/T) integral of the instantaneous spectrum.

    Closed form with the shifted parameter triple:

    Sbar(T, omega) = 2^(2H+1) T^(2H+1) 1F2(H+1/2; H+3/2, H+2; -(T omega)^2)
                     / Gamma(2H+3)

    and Sbar -> omega^-(2H+1) as T*omega grows, with relative corrections
    of order (T omega)^(H-3/2).
    """
    h = _as_hurst(h).h
    if T <= 0 or omega <= 0:
        raise DomainError(f"T and omega must be positive, got ({T}, {omega})")
    x = T * omega
    res = specfun.hyp1f2(h + 0.5, h + 1.5, h + 2.0, -x * x)
    value = 2.0 ** (2.0 * h + 1.0) * T ** (2.0 * h + 1.0) * res.value / math.gamma(
        2.0 * h + 3.0
    )
    return SpectrumPoint(omega, value, res.branch)


def differenced(
    s_fn: Callable[[float, float], float],
    t: float,
    omega: float,
    lag_h: float,
    scheme: str = "forward",
) -> float:
    """Spectrum of a differenced process from the spectrum of the original.

    For the forward increment X(t+h) - X(t):

        S(t+h, w) + S(t, w) - 2 cos(w h) S(t + h/2, w)

    and for the centred increment X(t+h/2) - X(t-h/2):

        4 sin^2(w h / 2) S(t, w) + [S(t+h/2, w) - 2 S(t, w) + S(t-h/2, w)]

    where the bracketed second difference vanishes for any
    time-constant spectrum, recovering the stationary multiplier.
    """
    if lag_h <= 0:
        raise DomainError(f"lag must be positive, got {lag_h}")
    if scheme == "forward":
        return (
            s_fn(t + lag_h, omega)
            + s_fn(t, omega)
            - 2.0 * math.cos(omega * lag_h) * s_fn(t + lag_h / 2.0, omega)
        )
    if scheme == "centered":
        stationary = 4.0 * math.sin(omega * lag_h / 2.0) ** 2 * s_fn(t, omega)
        correction = (
            s_fn(t + lag_h / 2.0, omega)
            - 2.0 * s_fn(t, omega)
            + s_fn(t - lag_h / 2.0, omega)
        )
        return stationary + correction
    raise DomainError(f"scheme must be 'forward' or 'centered', got {scheme!r}")


def fractional_frequency(h, f0: float, delta_t: float, omega: float) -> float:
    """Time-averaged spectrum of the fractional frequency deviation.

    y_t is the phase increment over delta_t divided by 2 pi f0 delta_t:

        Sbar_y(omega) = 4 sin^2(omega delta_t / 2)
                        / (2 pi f0 delta_t)^2 * omega^-(2H+1)

    which approaches (2 pi f0)^-2 omega^-(2H-1) as omega*delta_t -> 0;
    H = 1 gives the flicker 1/f law.
    """
    h = _as_hurst(h).h
    if f0 <= 0 or delta_t <= 0 or omega <= 0:
        raise DomainError(
            f"f0, delta_t, omega must be positive, got ({f0}, {delta_t}, {omega})"
        )
    return (
        4.0
        * math.sin(omega * delta_t / 2.0) ** 2
        / (2.0 * math.pi * f0 * delta_t) ** 2
        * omega ** (-2.0 * h - 1.0)
    )


def oscillation_envelope(h, t: float, omega: float) -> float:
    """Amplitude of the leading oscillation of S(t, w) around omega^-(2H+1).

    The instantaneous spectrum behaves like

        omega^-(2H+1) [1 + (t w)^(H-1/2) sin(2 t w - H pi/2 - pi/4)
                           / Gamma(H+1/2) + O((t w)^(H-3/2))]

    (exact for H = 1/2, where it collapses to (1 - cos 2tw)/w^2); this
    helper returns the relative envelope (t w)^(H-1/2) / Gamma(H+1/2).
    """
    h = _as_hurst(h).h
    x = t * omega
    if x <= 0:
        raise DomainError(f"t*omega must be positive, got {x}")
    return x ** (h - 0.5) / math.gamma(h + 0.5)
