"""Special-function kernel for the phase-noise model.

Only the parameter families the model actually needs are implemented,
which allows much stronger evaluation strategies than a general-purpose
hypergeometric routine could use:

* ``hyp2f1_curve`` evaluates 2F1(1, 1/2-H; H+3/2; z) over arrays of z in
  [0, 1] for 0 < H < 3/2, summing the series in fixed-size blocks of
  sorted z.  The forward power series is used up to z = 0.8; above that
  the series stalls, so the standard z -> 1-z connection formula is
  applied.  With the first upper parameter equal to 1 the second term of
  the connection formula collapses to an elementary power, so the
  transformed evaluation needs a single fast series.  Near integer 2H the
  two connection terms have cancelling poles; the function itself is
  analytic in H, so it is interpolated there from Chebyshev nodes in H
  that keep clear of the poles.
* ``_spectral_1f2`` evaluates 1F2(H+1/2; H+1, H+3/2; -s^2) and the
  companion triple (H+1/2; H+3/2, H+2; -s^2) appearing in the oscillator
  spectra, elementwise over an array of s = t*omega in one call per
  branch.  Both are integrals of u^H J_H(u), which DLMF 10.22.2 gives in
  closed form through Bessel J and Struve H functions; that form is used
  above s = 1, and the defining series, which has no cancellation there,
  below.  ``hyp1f2`` is a temporary scalar adapter onto it that takes the
  parameter triple and x = -(s^2).
* ``wrapped_gaussian`` is the unit-period wrapped Gaussian, a function of
  its variance v: its density and the mass of a centred window, from the
  theta series in q = exp(-2 pi^2 v) for v >= 1/(2 pi^2) and from the sum
  over Gaussian images below, each converging in a few terms on its side.
  Its density at x is the Jacobi theta_3(pi x | q); it is the package's
  one wrapped-Gaussian entry.

Every series follows one fixed truncation rule: it stops only once its
current term is below 1e-14 and its estimated tail below 1e-12 of the
partial sum, and raises ``ConvergenceError`` at a million terms rather
than truncate silently.  The wrapped Gaussian's term counts are worked
out once from the same rule.

All functions are pure and safe to call from multiple threads.
``scipy.special`` is imported inside the two functions that call it, the
1F2 closed form and the small-variance window mass: it takes about 0.4 s
to import, which commands that never reach either should not pay.  The
closed form makes one ``jv`` and one ``struve`` call for all its orders
and points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "Hyp1F2Result",
    "hyp1f2",
    "hyp2f1_curve",
    "wrapped_gaussian",
]

# distance of 2H to an integer below which the z -> 1-z connection formula
# loses digits to cancellation (1e-12 relative at 2H = 2e-4); there the
# transformed branch is interpolated in H from _DEGENERATE_NODES Chebyshev
# nodes over +-_DEGENERATE_HALF_WIDTH around the degenerate value.  The
# node count is even, so no node sits on the pole; 8 nodes over +-3e-3 keep
# the interpolant within 2e-13 of a 40-digit reference for z up to 1 - 1e-12
_DEGENERATE_MARGIN = 1e-3
_DEGENERATE_HALF_WIDTH = 3e-3
_DEGENERATE_NODES = 8
# z values per block of the 2F1 series sums; keeps the working arrays in cache
_BLOCK = 8192
# forward 2F1 series up to here, transformed series above
_SERIES_SWITCH = 0.8
# unit-period variance from which the wrapped Gaussian sums its theta series
# (nome <= 1/e, sigma^2 >= 2 on a 2 pi period); its Gaussian images below
_THETA_SWITCH = 1.0 / (2.0 * math.pi**2)
# s = sqrt(-x) up to which hyp1f2 sums its series; the series has no
# cancellation there, while the closed form's X^-(2H+1) prefactor overflows
# and its terms cancel as s -> 0
_HYP1F2_SERIES_MAX = 1.0
# machine epsilon of the 1F2 series' accumulator: 2^-63 for x86 80-bit
# floats, 2^-52 where np.longdouble is a plain double
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
# largest s for the closed form: scipy's jv loses the phase beyond X = 2s
# of about 2e15 (it is good to 2e-16 of the envelope at 1.6e15)
_HYP1F2_S_MAX = 5e14
# error of the closed form in units of 2^-52 of the envelopes of the terms
# it adds.  scipy's struve is good to about 1e-12 relative (8e-13 seen near
# X = 26), jv and the powers to a few ulp; a sweep against a 60-digit
# reference over H in (0, 3/2) and s in (1, 500] found at most 6000 and 13 units
_STRUVE_ULPS = 16384.0
_BESSEL_ULPS = 32.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# the series truncation rule of the module docstring
_ABS_TOL = 1e-14
_REL_TOL = 1e-12
_MAX_TERMS = 1_000_000

# term counts of the wrapped Gaussian's two forms, set at the split
# v = 1/(2 pi^2), where both forms' terms are largest: the first omitted
# series term is below exp(-(n + 1)^2), and the first omitted image, at
# least k + 1/2 away, is below exp(-pi^2 (k + 1/2)^2) of the nearest.  With
# root = sqrt(ln(2 / min(_ABS_TOL, _REL_TOL))) = 5.74, n = floor(root) = 5
# and k = ceil(root / pi) = 2 put both below half of that minimum
_THETA_TERMS = 5
_IMAGE_TERMS = 2


@dataclass(frozen=True)
class Hyp1F2Result:
    """Value of one ``hyp1f2`` evaluation plus how it was obtained.

    The scalar record of the temporary ``hyp1f2`` adapter; the spectral
    kernel behind it returns the same three quantities as arrays.
    ``branch`` is ``"series"`` (the defining series in ``np.longdouble``,
    80-bit on x86, summed to the truncation rule) or ``"bessel"`` (the
    closed form in Bessel J and Struve H functions).  ``error_estimate``
    is an absolute bound on the numerical error of ``value``.  For the
    series it is the ``np.longdouble`` rounding noise of the largest
    term, the leading 1.  For the closed form it is 2^-52 times the terms
    the form adds, each at the envelope of its oscillating factors,
    weighted 16384 for the products with a Struve function and 32 for the
    pure Bessel terms; both weights were fixed by a sweep against a
    60-digit reference.
    """

    value: float
    branch: str
    error_estimate: float


# ---------------------------------------------------------------------------
# restricted 2F1
# ---------------------------------------------------------------------------


def hyp2f1_curve(h: float, z: np.ndarray) -> np.ndarray:
    """2F1(1, 1/2-H; H+3/2; z) for 0 < H < 3/2, elementwise over z in [0, 1].

    This is the kernel behind the covariance; a scalar z returns a 0-d
    array.  At z = 1 the Gauss summation gives the exact value
    (H+1/2)/(2H).  The z values are sorted once so that each fixed-size
    block of the series sums holds neighbouring z, which need nearly the
    same number of terms.
    """
    if not 0.0 < h < 1.5:
        raise DomainError(f"Hurst exponent {h} outside (0, 3/2)")
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= 0.0 and z.max() <= 1.0):
        raise DomainError("z values must lie in [0, 1]")

    if h == 0.5:
        # second parameter is 0: every term beyond n = 0 vanishes
        return np.ones(z.shape)

    flat = z.ravel()
    if h == 1.0:
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _BLOCK):
            out[lo : lo + _BLOCK] = _h1_elementary(flat[lo : lo + _BLOCK])
        small = flat < 0.1
        if small.any():
            out[small] = _series_2f1(-0.5, 2.5, flat[small])
        return out.reshape(z.shape)

    # the sorted copy is overwritten with the values, then scattered back
    order = np.argsort(flat)
    zs = flat[order]
    k = int(np.searchsorted(zs, _SERIES_SWITCH, side="right"))
    _series_2f1(0.5 - h, h + 1.5, zs[:k])
    _transformed_2f1(h, zs[k:])
    out = np.empty_like(zs)
    out[order] = zs
    return out.reshape(z.shape)


def _h1_elementary(z: np.ndarray) -> np.ndarray:
    # 2F1(1, -1/2; 5/2; z) in closed form; cancellation-prone below z ~ 0.1,
    # callers route small z to the series instead
    sq = np.sqrt(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        at = np.arctanh(np.where(sq < 1.0, sq, 0.0))
        val = 3.0 * (sq * (z + 1.0) - (z - 1.0) ** 2 * at) / (8.0 * z**1.5)
    return np.where(z == 1.0, 0.75, val)


def _series_2f1(b, c, z: np.ndarray, weights=1.0) -> np.ndarray:
    """Forward series sum_j weights_j sum_n (b_j)_n/(c_j)_n z^n, written over z.

    ``b``, ``c`` and ``weights`` are scalars or equal-length sequences, one
    entry per series; a weighted sum of series is summed as the single
    series of its combined coefficients.  The z values are summed in
    blocks of _BLOCK, each running one term count for all its elements,
    and each block's sums replace its z values; z is returned.
    """
    coefs = _SeriesCoefficients(b, c, weights)
    for lo in range(0, z.size, _BLOCK):
        z[lo : lo + _BLOCK] = _series_block(coefs, z[lo : lo + _BLOCK])
    return z


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


def _series_block(coefs: _SeriesCoefficients, z: np.ndarray) -> np.ndarray:
    # every element runs the same number of terms; the block stops once all of
    # them meet the truncation rule, applied to the majorant e_n z^n of the
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
        if n >= _MAX_TERMS:
            raise ConvergenceError(f"2F1 series exceeded {_MAX_TERMS} terms at z={z_top}")
        a = e * float(power[top])
        if (
            a < _ABS_TOL
            and r * z_top < 1.0
            and a * r * z_top / (1.0 - r * z_top) < _REL_TOL * abs(float(total[top]))
            and _converged(e * power, r * z, total)
        ):
            return total


def _converged(term: np.ndarray, ratio: np.ndarray, total: np.ndarray) -> bool:
    # the truncation rule for every element: last term below _ABS_TOL and
    # geometric tail bound below _REL_TOL times the partial sum
    with np.errstate(divide="ignore"):
        tail = term * np.where(ratio < 1.0, ratio / (1.0 - ratio), np.inf)
    return bool(np.all((term < _ABS_TOL) & (tail < _REL_TOL * np.abs(total))))


def _transformed_2f1(h: float, z: np.ndarray) -> None:
    # z -> 1-z connection formula over ascending z, written over z; with
    # a = 1 the second 2F1 degenerates to z^-(H+1/2), leaving one fast
    # series in w = 1-z <= 0.2:
    #   F = (H+1/2)/(2H) 2F1(1/2-H, 1; 1-2H; w) + P(H) w^(2H) z^-(H+1/2).
    # Near integer 2H the two terms have poles that cancel, while F is
    # analytic in H; there F is interpolated to h from Chebyshev nodes in H
    # that keep clear of the poles.  The interpolant is linear in the node
    # values, so the node series sum as one series of combined coefficients.
    # At z = 1 the Gauss value (H+1/2)/(2H) is exact.  z runs in blocks of
    # _BLOCK; the values z < 1 open each block, so they form the same
    # series blocks as the z < 1 of the whole array would.
    if abs(2.0 * h - round(2.0 * h)) < _DEGENERATE_MARGIN:
        m = _DEGENERATE_NODES
        x = np.cos((2.0 * np.arange(m) + 1.0) * math.pi / (2.0 * m))
        u = (h - 0.5 * round(2.0 * h)) / _DEGENERATE_HALF_WIDTH
        weights = np.array([np.prod((u - np.delete(x, j)) / (x[j] - np.delete(x, j)))
                            for j in range(m)])
        hs = h + _DEGENERATE_HALF_WIDTH * (x - u)
    else:
        weights, hs = np.ones(1), np.array([h])
    coefs = _SeriesCoefficients(0.5 - hs, 1.0 - 2.0 * hs, weights * (hs + 0.5) / (2.0 * hs))
    nodes = [
        (wj * math.gamma(hj + 1.5) * math.gamma(-2.0 * hj) / math.gamma(0.5 - hj), hj)
        for wj, hj in zip(weights.tolist(), hs.tolist())
    ]
    for lo in range(0, z.size, _BLOCK):
        block = z[lo : lo + _BLOCK]
        inner = int(np.searchsorted(block, 1.0))
        if inner:
            zi = block[:inner]
            w = 1.0 - zi
            log_w, log_z = np.log(w), np.log(zi)
            t2 = sum(p * np.exp(2.0 * hj * log_w - (hj + 0.5) * log_z) for p, hj in nodes)
            block[:inner] = _series_block(coefs, w) + t2
        block[inner:] = (h + 0.5) / (2.0 * h)


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


def hyp1f2(a: float, b1: float, b2: float, x: float) -> Hyp1F2Result:
    """1F2 for the two spectral parameter triples at one argument x <= 0.

    A temporary scalar adapter onto the spectral kernel behind
    ``spectrum``, kept while callers pass the parameter triple and
    x = -(s^2): it recovers H and the family from (a, b1, b2), takes
    s = sqrt(-x) and hands the kernel the offset that moves s back to the
    exact root.  Writing x = -(s^2), the defining series is summed for
    s <= 1.  Above, with X = 2s, Hs the Struve function and
    k = sqrt(pi) 2^(H-1) Gamma(H+1/2), DLMF 10.22.2 gives

        G(X) = int_0^X u^H J_H(u) du = k X [J_H(X) Hs_(H-1)(X) - Hs_H(X) J_(H-1)(X)],

    and with c = 2^H (2H+1) Gamma(H+1)

        1F2(H+1/2; H+1, H+3/2; -s^2) = c X^-(2H+1) G(X),
        1F2(H+1/2; H+3/2, H+2; -s^2) = (2H+2) c X^-(2H+1) [G(X) - X^H J_(H+1)(X)].

    s above 5e14 raises ``DomainError``: there scipy's Bessel functions
    lose their phase.  The returned record carries the branch taken and an
    absolute error estimate.
    """
    h, family = _family_from_params(a, b1, b2)
    if not (x <= 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and <= 0, got {x}")
    s = math.sqrt(-x)
    if s > _HYP1F2_S_MAX:
        raise DomainError(f"sqrt(-x) = {s} exceeds {_HYP1F2_S_MAX}")
    # sqrt(-x) rounds; s + ds is the exact root to second order
    ds = float(Fraction(-x) - Fraction(s) ** 2) / (2.0 * s) if s else 0.0
    value, err, branch = _spectral_1f2(h, s, family, ds)
    return Hyp1F2Result(float(value), str(branch), float(err))


def _spectral_1f2(h: float, s, family: str, ds=0.0):
    """The spectral 1F2 of ``family`` at argument -(s + ds)^2, elementwise.

    ``family`` is ``"instantaneous"``, 1F2(H+1/2; H+1, H+3/2; .), or
    ``"averaged"``, 1F2(H+1/2; H+3/2, H+2; .); s lies in [0, 5e14] and
    broadcasts with the offset ds, which is zero or a rounding-sized
    correction of s.  Returns (values, error estimates, branch labels),
    arrays of s's shape.  Points with s <= 1 take the series, the others
    the closed form, each branch in one array evaluation.
    """
    s, ds = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(ds, dtype=float))
    values, errors = np.empty(s.shape), np.empty(s.shape)
    series = s <= _HYP1F2_SERIES_MAX
    if series.any():
        values[series], errors[series] = _hyp1f2_series(h, family, s[series], ds[series])
    if not series.all():
        bessel = ~series
        values[bessel], errors[bessel] = _hyp1f2_bessel(h, family, s[bessel], ds[bessel])
    return values, errors, np.where(series, "series", "bessel")


def _hyp1f2_series(h: float, family: str, s: np.ndarray, ds: np.ndarray):
    # the defining series in np.longdouble, every element in step; each
    # keeps the partial sum at which its own terms meet the truncation rule
    # once n exceeds s.  For s <= 1 the terms fall from the leading 1 on,
    # so that 1 is the largest term the rounding noise scales with
    d1, d2 = (1.0, 1.5) if family == "instantaneous" else (1.5, 2.0)
    al, b1l, b2l = (np.longdouble(v) for v in (h + 0.5, h + d1, h + d2))
    sl = s.astype(np.longdouble) + ds
    xl = -(sl * sl)
    term = np.ones(s.shape, dtype=np.longdouble)
    total = term.copy()
    value, n_terms = np.empty(s.shape), np.empty(s.shape)
    active = np.ones(s.shape, dtype=bool)
    n = 0
    while active.any():
        term *= (al + n) / ((b1l + n) * (b2l + n) * (n + 1)) * xl
        total += term
        t = np.abs(term.astype(float))
        n += 1
        if n >= _MAX_TERMS:
            raise ConvergenceError(f"1F2 series exceeded {_MAX_TERMS} terms")
        done = active & (n > s) & (t < _ABS_TOL)
        done &= t < _REL_TOL * np.maximum(np.abs(total.astype(float)), _ABS_TOL)
        value[done] = total[done]
        n_terms[done] = n
        active &= ~done
    # cancellation noise at np.longdouble precision, then the rounding to
    # a double
    return value, _LONGDOUBLE_EPS * np.sqrt(n_terms) + np.abs(value) * 2.0**-53


def _hyp1f2_bessel(h: float, family: str, s: np.ndarray, ds: np.ndarray):
    # The closed form of hyp1f2's docstring, rearranged.  Hs_H carries the
    # power (X/2)^(H-1) / (sqrt(pi) Gamma(H+1/2)); its product with J_(H-1)
    # grows like X^(H-1/2) and cancels against X^H J_(H+1).  The Struve and
    # Bessel recurrences (DLMF 11.4.23, 10.6.1) take it out exactly:
    #   G - X^H J_(H+1) = k X [J_(H-1) Hs_(H-2) - Hs_(H-1) J_(H-2)] - 2H X^(H-1) J_H,
    # whose terms stay within a few times the result.  The instantaneous
    # family adds back X^H J_(H+1), its own oscillation.  One jv and one
    # struve call cover every order and point.
    from scipy.special import jv, struve

    big_x = 2.0 * s
    j_m2, j_m1, j_0, j_p1 = jv(h + np.arange(-2.0, 2.0)[:, None], big_x)
    hs_m2, hs_m1 = struve(h + np.arange(-2.0, 0.0)[:, None], big_x)
    kx = math.sqrt(math.pi) * 2.0 ** (h - 1.0) * math.gamma(h + 0.5) * big_x
    p, q = kx * j_m1 * hs_m2, kx * hs_m1 * j_m2
    r_factor = 2.0 * h * big_x ** (h - 1.0)
    value = p - q - r_factor * j_0
    scale = 2.0**h * (2.0 * h + 1.0) * math.gamma(h + 1.0) / big_x ** (2.0 * h + 1.0)
    # the error of each term scales with the envelope of its oscillating
    # factors, not with their value, which can sit at a zero.  s_slope is
    # s d/ds of the bracket
    struve_terms = kx * np.hypot(j_m2, j_m1) * np.hypot(hs_m2, hs_m1)
    envelope = np.hypot(j_0, j_p1)
    bessel_terms = r_factor * envelope
    if family == "instantaneous":
        value += big_x**h * j_p1
        bessel_terms += big_x**h * envelope
        s_slope = big_x ** (h + 1.0) * j_0
    else:
        scale *= 2.0 * h + 2.0
        s_slope = big_x**h * j_p1
    # the offset ds moves the oscillation's phase by 2 ds: the value moves
    # to first order and the second stays in the error (up to 1e-10 of the
    # oscillation at s ~ 1e12).  The prefactor's own move is below rounding
    value += s_slope * (ds / s)
    err = scale * (
        2.0**-52 * (_STRUVE_ULPS * struve_terms + _BESSEL_ULPS * bessel_terms)
        + (2.0 * ds) ** 2 * bessel_terms
    )
    return scale * value, err


# ---------------------------------------------------------------------------
# the wrapped Gaussian
# ---------------------------------------------------------------------------


def wrapped_gaussian(x, v, mass: bool = False) -> np.ndarray:
    """Unit-period wrapped Gaussian with variance v > 0, elementwise.

    Returns the density at x, which is theta_3(pi x | exp(-2 pi^2 v)), or
    with ``mass`` the probability of the window [-x, x], 0 <= x <= 1/2.
    Two dual forms of the same function are summed, split at
    v = 1/(2 pi^2) (sigma^2 = 2 on a 2 pi period):

    * at and above it, the theta series in q = exp(-2 pi^2 v) <= 1/e:
      density 1 + 2 sum q^(n^2) cos(2 pi n x) and
      mass 2x + (2/pi) sum q^(n^2) sin(2 pi n x) / n;
    * below it, the sum over Gaussian images at the integers:
      density sum_k exp(-(x - k)^2 / (2v)) / sqrt(2 pi v) and
      mass sum_k [Phi((x + k)/sqrt(v)) - Phi((k - x)/sqrt(v))], taken as
      erf(x/sqrt(2v)) plus twice the lower tails of the images k < 0,
      so that no two numbers near 1 are subtracted.

    Both forms' terms are largest at the split, so the term counts are set
    there: 5 series terms and the images |k| <= 2 leave the first omitted
    term below the truncation rule's 1e-14.  A v that
    is not positive and finite, a non-finite x, or with ``mass`` an x
    outside [0, 1/2] raises ``DomainError``.
    """
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    bad = ~((v > 0.0) & np.isfinite(v))
    if bad.any():
        raise DomainError(f"variance must be positive and finite, got {v[bad].flat[0]}")
    bad = ~((0.0 <= x) & (x <= 0.5) if mass else np.isfinite(x))
    if bad.any():
        window = "0 <= x <= 1/2" if mass else "finite x"
        raise DomainError(f"need {window}, got {x[bad].flat[0]}")
    series = v >= _THETA_SWITCH
    out = np.empty(x.shape)
    if series.any():
        out[series] = _wrapped_series(x[series], v[series], _THETA_TERMS, mass)
    if not series.all():
        out[~series] = _wrapped_images(x[~series], v[~series], _IMAGE_TERMS, mass)
    return out


def _wrapped_series(x: np.ndarray, v: np.ndarray, n_terms: int, mass: bool) -> np.ndarray:
    n = np.arange(1, n_terms + 1, dtype=float)
    # at a large v the exponent overflows to -inf and q^(n^2) is then 0
    with np.errstate(over="ignore"):
        qn = np.exp(-2.0 * math.pi**2 * v[:, None] * (n * n))
    phase = 2.0 * math.pi * (x - np.rint(x))[:, None] * n
    if mass:
        return 2.0 * x + (2.0 / math.pi) * np.sum(qn * np.sin(phase) / n, axis=1)
    return 1.0 + 2.0 * np.sum(qn * np.cos(phase), axis=1)


def _wrapped_images(x: np.ndarray, v: np.ndarray, n_images: int, mass: bool) -> np.ndarray:
    sd = np.sqrt(v)
    if mass:
        from scipy.special import erf, ndtr

        k = np.arange(1, n_images + 1, dtype=float)
        tails = ndtr((x[:, None] - k) / sd[:, None]) - ndtr((-x[:, None] - k) / sd[:, None])
        return erf(x / (math.sqrt(2.0) * sd)) + 2.0 * np.sum(tails, axis=1)
    k = np.arange(-n_images, n_images + 1, dtype=float)
    u = ((x - np.rint(x))[:, None] - k) / sd[:, None]
    return np.sum(np.exp(-0.5 * u * u), axis=1) / (sd * _SQRT_2PI)
