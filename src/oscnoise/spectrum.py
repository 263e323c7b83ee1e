"""Wigner-Ville spectra of the phase model, instantaneous and time-averaged.

The phase process is not stationary, so spectra here are time-varying:
the instantaneous spectrum is the Fourier transform of the covariance in
the lag variable, and its running time average converges to the pure
power law omega^-(2H+1).  Both are evaluated through closed forms in the
restricted 1F2 families of :mod:`oscnoise.specfun`; no numerical Fourier
transform is performed outside the test suite.  Both take a scalar omega
or an array of them; an array costs one call of the spectral 1F2 kernel,
at s = t*omega formed directly, never squared and rooted.  Times and
angular frequencies must be positive and finite, and their product at
most 5e14, beyond which the Bessel closed form loses its phase; an error
names the first offending omega in array order.  A spectrum value that
overflows the double range raises ``DomainError`` naming the time; a
time whose power t^(2H+1) alone overflows is fine where the value is a
double.

For H > 1/2 the instantaneous spectrum oscillates around the power law
with an envelope that grows like (t*omega)^(H-1/2), and takes negative
values once t*omega exceeds roughly 3 -- a familiar feature of
Wigner-Ville distributions, not a numerical artefact.  The time-averaged
spectrum stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError
from .fbm import _as_hurst

__all__ = ["SpectrumPoint", "instantaneous", "time_averaged"]


@dataclass(frozen=True)
class SpectrumPoint:
    """Spectrum samples: angular frequency (rad/s), value (rad^2 s), and
    which evaluation branch produced each, ``"series"`` or ``"bessel"``.

    For a scalar omega the fields are a float, a float and a str; for an
    array of omegas they are arrays of its shape.
    """

    omega: float | np.ndarray
    value: float | np.ndarray
    branch: str | np.ndarray


def _scaled_frequency(name: str, t: float, omega: np.ndarray) -> np.ndarray:
    # t * omega, checked here so that an error names the spectrum's own
    # arguments rather than the 1F2 argument built from them, at the first
    # offending omega in grid order
    with np.errstate(over="ignore", invalid="ignore"):
        x = t * omega
    ok = (0.0 < t < math.inf) & (0.0 < omega) & (omega < math.inf) & (x <= specfun._HYP1F2_S_MAX)
    if not ok.all():
        om = float(omega.flat[np.argmin(ok)])
        if not (0.0 < t < math.inf and 0.0 < om < math.inf):
            raise DomainError(f"{name} and omega must be positive and finite, got ({t}, {om})")
        raise DomainError(f"{name}*omega = {t * om} exceeds {specfun._HYP1F2_S_MAX}")
    return x


def _spectrum(h, name: str, t: float, omega, family: str, shift: float) -> SpectrumPoint:
    # 2^(2H+1) t^(2H+1) 1F2(family; -(t omega)^2) / Gamma(2H + shift), one
    # kernel call over every omega
    h = _as_hurst(h).h
    omega = np.asarray(omega, dtype=float)
    f, _, branch = specfun._spectral_1f2(h, _scaled_frequency(name, t, omega), family)
    gamma = math.gamma(2.0 * h + shift)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = 2.0 ** (2.0 * h + 1.0) * t ** (2.0 * h + 1.0) * f / gamma
        except OverflowError:
            value = math.inf
        if not np.isfinite(value).all():
            # t^(2H+1), or its product with 2^(2H+1), overflows where the
            # spectrum, that times a small 1F2, may not: the power goes in
            # last, as two halves
            half = np.float64(t) ** (h + 0.5)
            value = 2.0 ** (2.0 * h + 1.0) * f / gamma * half * half
    if not np.isfinite(value).all():
        raise DomainError(f"{name} = {t} too large: the spectrum overflows at H = {h}")
    if omega.ndim == 0:
        return SpectrumPoint(float(omega), float(value), str(branch))
    return SpectrumPoint(omega, value, branch)


def instantaneous(h, t: float, omega) -> SpectrumPoint:
    """Instantaneous spectrum of a single component at time t, for a
    scalar omega or elementwise over an array of them.

    S(t, omega) = 2^(2H+1) t^(2H+1) 1F2(H+1/2; H+1, H+3/2; -(t omega)^2)
                  / Gamma(2H+2)
    """
    return _spectrum(h, "t", t, omega, "instantaneous", 2.0)


def time_averaged(h, T: float, omega) -> SpectrumPoint:
    """Running time average (1/T) integral of the instantaneous spectrum,
    for a scalar omega or elementwise over an array of them.

    Closed form with the shifted parameter triple:

    Sbar(T, omega) = 2^(2H+1) T^(2H+1) 1F2(H+1/2; H+3/2, H+2; -(T omega)^2)
                     / Gamma(2H+3)

    and Sbar -> omega^-(2H+1) as T*omega grows, with relative corrections
    of order (T omega)^(H-3/2).
    """
    return _spectrum(h, "T", T, omega, "averaged", 3.0)
