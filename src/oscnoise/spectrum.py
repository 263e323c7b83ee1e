"""Wigner-Ville spectra of the phase model, instantaneous and time-averaged.

The phase process is not stationary, so spectra here are time-varying:
the instantaneous spectrum is the Fourier transform of the covariance in
the lag variable, and its running time average converges to the pure
power law omega^-(2H+1).  Both are evaluated through closed forms in the
restricted 1F2 families of :mod:`oscnoise.specfun`; no numerical Fourier
transform is performed outside the test suite.  Times and angular
frequencies must be positive and finite, and their product at most 5e14,
beyond which the Bessel closed form loses its phase.

For H > 1/2 the instantaneous spectrum oscillates around the power law
with an envelope that grows like (t*omega)^(H-1/2), and takes negative
values once t*omega exceeds roughly 3 -- a familiar feature of
Wigner-Ville distributions, not a numerical artefact.  The time-averaged
spectrum stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .errors import DomainError
from .fbm import _as_hurst

__all__ = ["SpectrumPoint", "instantaneous", "time_averaged"]


@dataclass(frozen=True)
class SpectrumPoint:
    """One spectrum sample: angular frequency (rad/s), value (rad^2 s), and
    which evaluation branch produced it."""

    omega: float
    value: float
    branch: str


def _scaled_frequency(name: str, t: float, omega: float) -> float:
    # t * omega, checked here so that an error names the spectrum's own
    # arguments rather than the 1F2 argument built from them
    if not (0.0 < t < math.inf and 0.0 < omega < math.inf):
        raise DomainError(f"{name} and omega must be positive and finite, got ({t}, {omega})")
    x = t * omega
    if not x <= specfun._HYP1F2_S_MAX:
        raise DomainError(f"{name}*omega = {x} exceeds {specfun._HYP1F2_S_MAX}")
    return x


def instantaneous(h, t: float, omega: float) -> SpectrumPoint:
    """Instantaneous spectrum of a single component at time t.

    S(t, omega) = 2^(2H+1) t^(2H+1) 1F2(H+1/2; H+1, H+3/2; -(t omega)^2)
                  / Gamma(2H+2)
    """
    h = _as_hurst(h).h
    x = _scaled_frequency("t", t, omega)
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
    x = _scaled_frequency("T", T, omega)
    res = specfun.hyp1f2(h + 0.5, h + 1.5, h + 2.0, -x * x)
    value = 2.0 ** (2.0 * h + 1.0) * T ** (2.0 * h + 1.0) * res.value / math.gamma(
        2.0 * h + 3.0
    )
    return SpectrumPoint(omega, value, res.branch)
