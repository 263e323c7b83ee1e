"""Special-function kernel for the phase-noise model.

Only the parameter families the model actually needs are implemented,
which allows much stronger evaluation strategies than a general-purpose
hypergeometric routine could use:

* ``hyp2f1_restricted`` evaluates 2F1(1, 1/2-H; H+3/2; z) on z in [0, 1]
  for 0 < H < 3/2, and ``hyp2f1_curve`` does so over arrays, summing the
  series in fixed-size blocks of sorted z.  The forward power series is
  used up to z = 0.8; above that the series stalls, so the standard
  z -> 1-z connection formula is applied.  With the first upper parameter
  equal to 1 the second term of the connection formula collapses to an
  elementary power, so the transformed evaluation needs a single fast
  series.  Near integer 2H the two connection terms have cancelling
  poles; the function itself is analytic in H, so it is interpolated there
  from Chebyshev nodes in H that keep clear of the poles.
* ``hyp1f2`` evaluates 1F2(H+1/2; H+1, H+3/2; -x) and the companion
  triple (H+1/2; H+3/2, H+2; -x) appearing in the oscillator spectra.
  The alternating series cancels catastrophically (peak terms grow like
  exp(2*sqrt(|x|))), so large arguments go through an oscillatory tail
  expansion in Bessel functions that is exact term by term.
* ``theta3`` is the Jacobi theta function; for nome close to 1 the
  defining series is replaced by its modular dual, a wrapped Gaussian
  sum, which converges fast exactly where the theta series does not.

All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import jv as _besselj

from .errors import ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "Hyp1F2Result",
    "default_tolerance",
    "gamma",
    "gaussian_cdf",
    "gaussian_pdf",
    "hyp1f2",
    "hyp2f1_restricted",
    "theta3",
]

# distance of 2H to an integer below which the z -> 1-z connection formula
# loses digits to cancellation (1e-12 relative at 2H = 2e-4); there the
# transformed branch is interpolated in H from _DEGENERATE_NODES Chebyshev
# nodes over +-_DEGENERATE_HALF_WIDTH around the degenerate value.  The
# node count is even, so no node sits on the pole; 8 nodes over +-3e-3 keep
# the interpolant within 2e-13 of mpmath for z up to 1 - 1e-12
_DEGENERATE_MARGIN = 1e-3
_DEGENERATE_HALF_WIDTH = 3e-3
_DEGENERATE_NODES = 8
# z values per block of the 2F1 series sums; keeps the working arrays in cache
_BLOCK = 8192
# forward 2F1 series up to here, transformed series above
_SERIES_SWITCH = 0.8
# theta series below, wrapped Gaussian sum above
_THETA_SWITCH = 0.9
# |t*omega| above which hyp1f2 uses the oscillatory tail form; below it the
# series runs in 80-bit floats up to _NATIVE_SERIES_MAX and in mpmath between
_HYP1F2_CROSSOVER = 30.0
_NATIVE_SERIES_MAX = 12.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Tolerance:
    """Truncation control for the series evaluations.

    Every series stops only once the current term is below ``abs_tol``
    *and* the estimated tail is below ``rel_tol`` times the partial sum;
    ``max_terms`` is a hard cap that raises instead of truncating
    silently.
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


@dataclass(frozen=True)
class Hyp1F2Result:
    """Value of a 1F2 evaluation plus how it was obtained.

    ``branch`` is ``"series"`` or ``"asymptotic"``; ``error_estimate`` is
    an absolute bound on the numerical error of ``value`` (cancellation
    noise for the series branch, first neglected term for the asymptotic
    branch).
    """

    value: float
    branch: str
    error_estimate: float


def default_tolerance() -> Tolerance:
    """Package default tolerance, overridable through the environment.

    Reads ``OSCNOISE_ABS_TOL``, ``OSCNOISE_REL_TOL`` and
    ``OSCNOISE_MAX_TERMS`` if set.
    """
    return Tolerance(
        abs_tol=_env_number("OSCNOISE_ABS_TOL", float, 1e-14),
        rel_tol=_env_number("OSCNOISE_REL_TOL", float, 1e-12),
        max_terms=_env_number("OSCNOISE_MAX_TERMS", int, 1_000_000),
    )


def _env_number(name: str, kind, default):
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{name}={text!r} is not a valid {kind.__name__}") from None


def gamma(x: float) -> float:
    """Gamma function on the positive half line.

    Negative arguments never occur in the model's formulas, so they are
    rejected rather than handled through reflection.
    """
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def gaussian_pdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    u = (x - mu) / sigma
    return math.exp(-0.5 * u * u) / (sigma * _SQRT_2PI)


def gaussian_cdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


# ---------------------------------------------------------------------------
# restricted 2F1
# ---------------------------------------------------------------------------


def _hurst_from_params(a: float, b: float, c: float) -> float:
    """Map (a, b, c) = (1, 1/2-H, H+3/2) back to H, validating the shape."""
    if a != 1.0:
        raise DomainError(f"first parameter must be 1, got {a}")
    h = 0.5 - b
    if abs(c - (h + 1.5)) > 1e-9:
        raise DomainError(
            f"parameters ({a}, {b}, {c}) are not of the form (1, 1/2-H, H+3/2)"
        )
    if not 0.0 < h < 1.5:
        raise DomainError(f"implied Hurst exponent {h} outside (0, 3/2)")
    return h


def hyp2f1_restricted(
    a: float, b: float, c: float, z: float, tol: Tolerance | None = None
) -> float:
    """2F1(1, 1/2-H; H+3/2; z) for z in [0, 1].

    At z = 1 the Gauss summation gives the exact value (H+1/2)/(2H).
    """
    h = _hurst_from_params(a, b, c)
    if not (0.0 <= z <= 1.0):
        raise DomainError(f"z must lie in [0, 1], got {z}")
    out = hyp2f1_curve(h, np.array([z], dtype=float), tol)
    return float(out[0])


def hyp2f1_curve(h: float, z: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Vectorised 2F1(1, 1/2-H; H+3/2; z) over an array of z in [0, 1].

    This is the workhorse behind covariance matrices; the scalar
    ``hyp2f1_restricted`` wraps it.  The z values are sorted once so that
    each fixed-size block of the series sums holds neighbouring z, which
    need nearly the same number of terms.
    """
    tol = tol or default_tolerance()
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= 0.0 and z.max() <= 1.0):
        raise DomainError("z values must lie in [0, 1]")

    if h == 0.5:
        # second parameter is 0: every term beyond n = 0 vanishes
        return np.ones(z.shape)

    flat = z.ravel()
    if h == 1.0:
        out = _h1_elementary(flat)
        small = flat < 0.1
        if small.any():
            out[small] = _series_2f1(-0.5, 2.5, flat[small], tol)
        return out.reshape(z.shape)

    order = np.argsort(flat)
    zs = flat[order]
    k = int(np.searchsorted(zs, _SERIES_SWITCH, side="right"))
    sorted_out = np.empty_like(zs)
    sorted_out[:k] = _series_2f1(0.5 - h, h + 1.5, zs[:k], tol)
    sorted_out[k:] = _transformed_2f1(h, zs[k:], tol)
    out = np.empty_like(zs)
    out[order] = sorted_out
    return out.reshape(z.shape)


def _h1_elementary(z: np.ndarray) -> np.ndarray:
    # 2F1(1, -1/2; 5/2; z) in closed form; cancellation-prone below z ~ 0.1,
    # callers route small z to the series instead
    sq = np.sqrt(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        at = np.arctanh(np.where(sq < 1.0, sq, 0.0))
        val = 3.0 * (sq * (z + 1.0) - (z - 1.0) ** 2 * at) / (8.0 * z**1.5)
    return np.where(z == 1.0, 0.75, val)


def _series_2f1(b, c, z: np.ndarray, tol: Tolerance, weights=1.0) -> np.ndarray:
    """Forward series sum_j weights_j sum_n (b_j)_n/(c_j)_n z^n.

    ``b``, ``c`` and ``weights`` are scalars or equal-length sequences, one
    entry per series; a weighted sum of series is summed as the single
    series of its combined coefficients.  The z values are summed in
    blocks of _BLOCK, each running one term count for all its elements.
    """
    coefs = _SeriesCoefficients(b, c, weights)
    out = np.empty_like(z)
    for lo in range(0, z.size, _BLOCK):
        out[lo : lo + _BLOCK] = _series_block(coefs, z[lo : lo + _BLOCK], tol)
    return out


class _SeriesCoefficients:
    """Coefficients of a weighted sum of 2F1 series, extended on demand.

    For term n >= 1: ``d[n-1]`` is the combined coefficient
    sum_j w_j (b_j)_n/(c_j)_n, ``e[n-1]`` the majorant sum_j |w_j (b_j)_n/(c_j)_n|
    and ``rho[n-1]`` the largest |(b_j+n-1)/(c_j+n-1)|, the term ratio
    over z that the geometric tail bound uses.
    """

    _CHUNK = 64

    def __init__(self, b, c, weights):
        self.b, self.c, w = np.broadcast_arrays(
            np.atleast_1d(np.asarray(b, dtype=float)),
            np.atleast_1d(np.asarray(c, dtype=float)),
            np.atleast_1d(np.asarray(weights, dtype=float)),
        )
        self.head = float(w.sum())
        self.last = w.copy()
        self.d: list[float] = []
        self.e: list[float] = []
        self.rho: list[float] = []

    def extend(self) -> None:
        n = np.arange(len(self.d), len(self.d) + self._CHUNK, dtype=float)
        ratio = (self.b[:, None] + n) / (self.c[:, None] + n)
        table = self.last[:, None] * np.cumprod(ratio, axis=1)
        self.last = table[:, -1]
        self.d += table.sum(axis=0).tolist()
        self.e += np.abs(table).sum(axis=0).tolist()
        self.rho += np.abs(ratio).max(axis=0).tolist()


def _series_block(coefs: _SeriesCoefficients, z: np.ndarray, tol: Tolerance) -> np.ndarray:
    # every element runs the same number of terms; the block stops once all of
    # them meet the Tolerance rule, applied to the majorant e_n z^n of the
    # term (for a single series, exactly the term).  Term and tail bound grow
    # with z, so the largest z is tested first and the whole block only once
    # that passes.
    total = np.full_like(z, coefs.head)
    power = np.ones_like(z)
    scratch = np.empty_like(z)
    top = int(np.argmax(z))
    z_top = float(z[top])
    n = 0
    while True:
        if n == len(coefs.d):
            coefs.extend()
        power *= z
        np.multiply(power, coefs.d[n], out=scratch)
        total += scratch
        e, r = coefs.e[n], coefs.rho[n]
        n += 1
        if n >= tol.max_terms:
            raise ConvergenceError(f"2F1 series exceeded {tol.max_terms} terms at z={z_top}")
        a = e * float(power[top])
        if (
            a < tol.abs_tol
            and r * z_top < 1.0
            and a * r * z_top / (1.0 - r * z_top) < tol.rel_tol * abs(float(total[top]))
            and _converged(e * power, r * z, total, tol)
        ):
            return total


def _converged(term: np.ndarray, ratio: np.ndarray, total: np.ndarray, tol: Tolerance) -> bool:
    # the Tolerance rule for every element: last term below abs_tol and
    # geometric tail bound below rel_tol times the partial sum
    with np.errstate(divide="ignore"):
        tail = term * np.where(ratio < 1.0, ratio / (1.0 - ratio), np.inf)
    return bool(np.all((term < tol.abs_tol) & (tail < tol.rel_tol * np.abs(total))))


def _transformed_2f1(h: float, z: np.ndarray, tol: Tolerance) -> np.ndarray:
    # z -> 1-z connection formula; with a = 1 the second 2F1 degenerates to
    # z^-(H+1/2), leaving one fast series in w = 1-z <= 0.2:
    #   F = (H+1/2)/(2H) 2F1(1/2-H, 1; 1-2H; w) + P(H) w^(2H) z^-(H+1/2).
    # Near integer 2H the two terms have poles that cancel, while F is
    # analytic in H; there F is interpolated to h from Chebyshev nodes in H
    # that keep clear of the poles.  The interpolant is linear in the node
    # values, so the node series sum as one series of combined coefficients.
    # At z = 1 the Gauss value (H+1/2)/(2H) is exact.
    if abs(2.0 * h - round(2.0 * h)) < _DEGENERATE_MARGIN:
        m = _DEGENERATE_NODES
        x = np.cos((2.0 * np.arange(m) + 1.0) * math.pi / (2.0 * m))
        u = (h - 0.5 * round(2.0 * h)) / _DEGENERATE_HALF_WIDTH
        weights = np.array([np.prod((u - np.delete(x, j)) / (x[j] - np.delete(x, j)))
                            for j in range(m)])
        hs = h + _DEGENERATE_HALF_WIDTH * (x - u)
    else:
        weights, hs = np.ones(1), np.array([h])
    out = np.full_like(z, (h + 0.5) / (2.0 * h))
    inner = z < 1.0
    zi = z[inner]
    w = 1.0 - zi
    t1 = _series_2f1(0.5 - hs, 1.0 - 2.0 * hs, w, tol, weights * (hs + 0.5) / (2.0 * hs))
    log_w, log_z = np.log(w), np.log(zi)
    t2 = sum(
        wj * math.gamma(hj + 1.5) * math.gamma(-2.0 * hj) / math.gamma(0.5 - hj)
        * np.exp(2.0 * hj * log_w - (hj + 0.5) * log_z)
        for wj, hj in zip(weights.tolist(), hs.tolist())
    )
    out[inner] = t1 + t2
    return out


# ---------------------------------------------------------------------------
# restricted 1F2
# ---------------------------------------------------------------------------


def _family_from_params(a: float, b1: float, b2: float) -> tuple[float, str]:
    h = a - 0.5
    if not 0.0 < h < 1.5:
        raise DomainError(f"implied Hurst exponent {h} outside (0, 3/2)")
    if abs(b1 - (h + 1.0)) < 1e-9 and abs(b2 - (h + 1.5)) < 1e-9:
        return h, "instantaneous"
    if abs(b1 - (h + 1.5)) < 1e-9 and abs(b2 - (h + 2.0)) < 1e-9:
        return h, "averaged"
    raise DomainError(
        f"parameters ({a}, {b1}, {b2}) match neither (H+1/2; H+1, H+3/2) "
        f"nor (H+1/2; H+3/2, H+2)"
    )


def hyp1f2(
    a: float,
    b1: float,
    b2: float,
    x: float,
    tol: Tolerance | None = None,
    crossover: float = _HYP1F2_CROSSOVER,
) -> Hyp1F2Result:
    """1F2 for the two spectral parameter triples, argument x <= 0.

    Writing x = -(s^2), the defining series is summed for s below
    ``crossover`` (in 80-bit arithmetic up to s = 12, in mpmath above,
    where the cancellation exceeds hardware precision) and the
    oscillatory tail expansion takes over beyond.  The returned record
    carries the branch taken and an absolute error estimate.
    """
    tol = tol or default_tolerance()
    h, family = _family_from_params(a, b1, b2)
    if x > 0:
        raise DomainError(f"argument must be <= 0, got {x}")
    if x == 0.0:
        return Hyp1F2Result(1.0, "series", 0.0)
    s = math.sqrt(-x)
    if s < crossover:
        if s <= _NATIVE_SERIES_MAX:
            value, err = _hyp1f2_series_native(a, b1, b2, x, tol)
        else:
            value, err = _hyp1f2_series_mp(a, b1, b2, x, s)
        return Hyp1F2Result(value, "series", err)
    value, err = _hyp1f2_asymptotic(h, s, family)
    return Hyp1F2Result(value, "asymptotic", err)


def _hyp1f2_series_native(
    a: float, b1: float, b2: float, x: float, tol: Tolerance
) -> tuple[float, float]:
    al, b1l, b2l, xl = (np.longdouble(v) for v in (a, b1, b2, x))
    term = np.longdouble(1.0)
    total = np.longdouble(1.0)
    peak = 1.0
    n = 0
    while True:
        term = term * (al + n) / ((b1l + n) * (b2l + n)) * xl / (n + 1)
        total += term
        t = abs(float(term))
        peak = max(peak, t)
        n += 1
        if n >= tol.max_terms:
            raise ConvergenceError(f"1F2 series exceeded {tol.max_terms} terms")
        if n * n > -x and t < tol.abs_tol and t < tol.rel_tol * max(
            abs(float(total)), tol.abs_tol
        ):
            break
    # cancellation noise: 80-bit floats carry a 64-bit mantissa
    err = peak * 2.0**-63 * math.sqrt(n)
    return float(total), err


def _hyp1f2_series_mp(
    a: float, b1: float, b2: float, x: float, s: float
) -> tuple[float, float]:
    import mpmath as mp

    # peak terms grow like exp(2s); budget digits for them plus headroom
    dps = int(2.0 * s / math.log(10.0)) + 25
    with mp.workdps(dps):
        am, b1m, b2m, xm = (mp.mpf(v) for v in (a, b1, b2, x))
        term = mp.mpf(1)
        total = mp.mpf(1)
        n = 0
        while True:
            term = term * (am + n) / ((b1m + n) * (b2m + n)) * xm / (n + 1)
            total += term
            n += 1
            if n * n > -x and abs(term) < mp.mpf(10) ** (-(dps - 5)):
                break
        value = float(total)
    return value, abs(value) * 1e-15 + 1e-300


def _bessel_tail(X: float, mu: float, nu: float, max_depth: int = 24) -> tuple[float, float]:
    """Regularised tail integral of u^mu J_nu(u) beyond X.

    Repeated reduction through d/du[u^m J_{n+1}] = u^m J_n + (m-n-1) u^{m-1} J_{n+1}
    turns the tail into sum_k -c_k X^{mu-k} J_{nu+1+k}(X) with
    c_0 = 1, c_{k+1} = -(mu - nu - 1 - 2k) c_k; terms fall off by ~1/X each.
    """
    total = 0.0
    coef = 1.0
    best = math.inf
    for k in range(max_depth):
        mk = mu - k
        nk = nu + k
        total += -coef * X**mk * float(_besselj(nk + 1.0, X))
        nxt = coef * (mk - nk - 1.0)
        envelope = abs(nxt) * X ** (mk - 1.0) * math.sqrt(2.0 / (math.pi * X))
        best = min(best, envelope)
        if envelope < 1e-16 or envelope > 10.0 * best:
            break
        coef = -nxt
    return total, best


def _hyp1f2_asymptotic(h: float, s: float, family: str) -> tuple[float, float]:
    c1 = math.sqrt(math.pi) / (2.0**h * math.gamma(h + 0.5))
    if family == "instantaneous":
        tail, tail_err = _bessel_tail(2.0 * s, h, h)
        gfac = math.gamma(2.0 * h + 2.0)
    else:
        tail, tail_err = _bessel_tail(2.0 * s, h - 1.0, h + 1.0)
        gfac = math.gamma(2.0 * h + 3.0)
    scale = gfac / (2.0 ** (2.0 * h + 1.0) * s ** (2.0 * h + 1.0))
    return scale * (1.0 - c1 * tail), scale * c1 * tail_err


# ---------------------------------------------------------------------------
# Jacobi theta-3
# ---------------------------------------------------------------------------


def theta3(z: float, q: float, tol: Tolerance | None = None) -> float:
    """theta_3(z | q) = 1 + 2 sum q^(n^2) cos(2nz), 0 <= q < 1.

    For q above 0.9 the series converges slowly and the value is computed
    from the modular dual instead: the wrapped Gaussian sum with variance
    -ln(q)/(2 pi^2) on a unit period, which converges in a couple of
    terms exactly where the theta series stalls.
    """
    tol = tol or default_tolerance()
    if not (0.0 <= q < 1.0) or not math.isfinite(z):
        raise DomainError(f"need 0 <= q < 1 and finite z, got q={q}, z={z}")
    if q == 0.0:
        return 1.0
    if q <= _THETA_SWITCH:
        total = 1.0
        n = 1
        while True:
            total += 2.0 * q ** (n * n) * math.cos(2.0 * n * z)
            nxt = 2.0 * q ** ((n + 1) ** 2)
            if nxt < tol.abs_tol and nxt / (1.0 - q) < tol.rel_tol * max(
                abs(total), tol.abs_tol
            ):
                return total
            n += 1
            if n >= tol.max_terms:
                raise ConvergenceError(f"theta series exceeded {tol.max_terms} terms")
    return _theta3_wrapped(z, q, tol)


def _theta3_wrapped(z: float, q: float, tol: Tolerance) -> float:
    sigma2 = -math.log(q) / (2.0 * math.pi**2)
    sigma = math.sqrt(sigma2)
    d = (z / math.pi) % 1.0  # theta_3 has period pi in z
    n0 = round(d)
    total = 0.0
    for k in range(0, 64):
        shells = (n0,) if k == 0 else (n0 - k, n0 + k)
        shell_sum = 0.0
        for n in shells:
            shell_sum += math.exp(-((d - n) ** 2) / (2.0 * sigma2))
        total += shell_sum
        if k > 0 and shell_sum < tol.abs_tol * sigma * _SQRT_2PI:
            break
    return total / (sigma * _SQRT_2PI)
