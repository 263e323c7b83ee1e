"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
special functions go through mpmath's arbitrary-precision summation,
spectra through direct oscillatory quadrature of the covariance, moments
through Monte Carlo of the defining stochastic integral, and expected
bit biases through brute-force offset scans over wrapped Gaussian draws.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
import scipy.fft
import scipy.optimize
from scipy.integrate import quad

mp.mp.dps = 40


def mp_hyp2f1(h: float, z: float) -> float:
    """Reference 2F1(1, 1/2-H; H+3/2; z) via mpmath."""
    return float(mp.hyp2f1(1.0, 0.5 - h, h + 1.5, z))


def mp_hyp1f2(a: float, b1: float, b2: float, x: float, dps: int = 60) -> float:
    """Reference 1F2 via arbitrary-precision term-by-term summation."""
    with mp.workdps(dps):
        return float(mp.hyp1f2(a, b1, b2, x))


def mp_spectral_1f2_miss(h: float, d1: float, d2: float, s: float, value: float) -> float:
    """|value - 1F2(H+1/2; H+d1, H+d2; -s^2)| at 60 digits, with H and s
    taken exactly as the doubles given, so the argument is not rounded."""
    with mp.workdps(60):
        hh, ss = mp.mpf(h), mp.mpf(s)
        return float(abs(mp.mpf(value) - mp.hyp1f2(hh + 0.5, hh + d1, hh + d2, -ss * ss)))


def oscillation_envelope(h: float, t: float, omega: float) -> float:
    """Amplitude of the leading oscillation of S(t, w) around omega^-(2H+1).

    The instantaneous spectrum behaves like

        omega^-(2H+1) [1 + (t w)^(H-1/2) sin(2 t w - H pi/2 - pi/4)
                           / Gamma(H+1/2) + O((t w)^(H-3/2))]

    (exact for H = 1/2, where it collapses to (1 - cos 2tw)/w^2); this
    returns the relative envelope (t w)^(H-1/2) / Gamma(H+1/2).
    """
    return (t * omega) ** (h - 0.5) / math.gamma(h + 0.5)


def mp_avar_constant(h: float) -> float:
    """Reference C(H) = (4 - 4^H) csc(H pi) / Gamma(2H+1) at 50 digits."""
    with mp.workdps(50):
        if h == 1.0:
            return float(4 * mp.log(2) / mp.pi)
        hh = mp.mpf(h)
        return float((4 - mp.mpf(4) ** hh) / mp.sin(hh * mp.pi) / mp.gamma(2 * hh + 1))


def mp_theta3(z: float, q: float) -> float:
    return float(mp.jtheta(3, z, q))


def series_2f1_tail_sum(h: float, z: float, n_terms: int = 200_000) -> float:
    """Plain direct summation of the 2F1 series; usable near z = 1 because
    the terms decay like n^-(1+2H)."""
    b, c = 0.5 - h, h + 1.5
    term, total = 1.0, 1.0
    for n in range(n_terms):
        term *= (b + n) / (c + n) * z
        total += term
        if abs(term) < 1e-16 and n > 10:
            break
    return total

def integral_identity_2f1(h: float, z: float) -> float:
    """Quadrature of (H+1/2) * int_0^1 (1-v)^(H-1/2) (1-z v)^(H-1/2) dv.

    The endpoint singularity for H < 1/2 is handled by QUADPACK's
    algebraic weight.
    """
    val, _ = quad(
        lambda v: (1.0 - z * v) ** (h - 0.5),
        0.0,
        1.0,
        weight="alg",
        wvar=(0.0, h - 0.5),
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return (h + 0.5) * val


def wigner_ville_quadrature(cov_fn, t: float, omega: float) -> float:
    """Direct Fourier transform of the covariance in the lag variable.

    S(t, w) = int_-2t^2t K(t - tau/2, t + tau/2) e^(-i w tau) d tau; the
    kernel is even in tau, so this is twice the cosine transform on
    [0, 2t], evaluated with QUADPACK's oscillatory weight.
    """
    val, _ = quad(
        lambda tau: cov_fn(t - tau / 2.0, t + tau / 2.0),
        0.0,
        2.0 * t,
        weight="cos",
        wvar=omega,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=400,
    )
    return 2.0 * val


def mc_rl_covariance(
    h: float,
    pairs,
    t_max: float,
    n_disc: int = 10_000,
    n_paths: int = 10_000,
    seed: int = 0,
    block: int = 2_000,
):
    """Monte Carlo covariance of the discretised defining integral.

    phi(t) ~ Gamma(H+1/2)^-1 sum_i (t - u_i)^(H-1/2) dB_i on a midpoint
    grid.  Returns (estimates, standard_errors) for the given (s, t)
    pairs, estimated from n_paths independent discrete paths.
    """
    rng = np.random.default_rng(seed)
    du = t_max / n_disc
    umid = (np.arange(n_disc) + 0.5) * du
    g = 1.0 / math.gamma(h + 0.5)
    kernels = []
    for s, t in pairs:
        ks = np.where(umid < s, np.clip(s - umid, 0.0, None) ** (h - 0.5), 0.0) * g
        kt = np.where(umid < t, np.clip(t - umid, 0.0, None) ** (h - 0.5), 0.0) * g
        kernels.append((ks, kt))
    sums = np.zeros(len(pairs))
    sums_sq = np.zeros(len(pairs))
    done = 0
    while done < n_paths:
        b = min(block, n_paths - done)
        dB = rng.standard_normal((b, n_disc)) * math.sqrt(du)
        for i, (ks, kt) in enumerate(kernels):
            prod = (dB @ ks) * (dB @ kt)
            sums[i] += prod.sum()
            sums_sq[i] += (prod**2).sum()
        done += b
    mean = sums / n_paths
    se = np.sqrt((sums_sq / n_paths - mean**2) / n_paths)
    return mean, se


def worst_case_bias_scan(
    phases: np.ndarray, alpha: float, scan_step: float = 1e-3
) -> float:
    """Brute-force worst-case bit bias over the phase offset.

    Bins the wrapped phases, slides a window of fractional length alpha
    over all offsets at the given step, and returns the largest observed
    |P(bit=1) - 1/2|.
    """
    nbins = int(round(2.0 * math.pi / scan_step))
    u = np.mod(phases, 2.0 * math.pi)
    counts = np.bincount(
        (u / (2.0 * math.pi) * nbins).astype(np.int64) % nbins, minlength=nbins
    )
    wrapped = np.concatenate([counts, counts])
    csum = np.concatenate([[0], np.cumsum(wrapped)])
    wlen = int(round(alpha * nbins))
    window = csum[wlen : wlen + nbins] - csum[:nbins]
    p = window / phases.size
    return float(np.max(np.abs(p - 0.5)))


def bisect_min_dt(entropy_at, target: float, dt_min: float = 1e-12, dt_max: float = 1e30,
                  rel_tol: float = 1e-6):
    """Smallest dt with entropy_at(dt) >= target, one interval at a time.

    From dt = 1, steps up by factors of 8 to the first interval that
    reaches the target (None if none up to dt_max does), then down by
    factors of 8 to one that does not (dt_min if none above dt_min
    fails), then bisects geometrically, mid = sqrt(lo hi), until the
    bracket is rel_tol of its upper end wide, and returns the upper end.
    """
    hi = 1.0
    while entropy_at(hi) < target:
        hi *= 8.0
        if hi > dt_max:
            return None
    lo = hi
    while lo > dt_min and entropy_at(lo) >= target:
        lo /= 8.0
    if lo <= dt_min:
        return dt_min
    while (hi - lo) > rel_tol * hi:
        mid = math.sqrt(lo * hi)
        if entropy_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def bias_series_exact(sigma2: float, alpha: float) -> float:
    """Term-by-term integrated theta series for the worst-case bias.

    Integrating the theta series termwise gives
    amax + (2/pi) sum_n q^(n^2) sin(n amax pi)/n - 1/2 with
    q = exp(-sigma2/2) and amax = max(alpha, 1-alpha); exact to the
    series truncation, no quadrature involved.
    """
    amax = max(alpha, 1.0 - alpha)
    q = math.exp(-sigma2 / 2.0)
    total, n = 0.0, 1
    while True:
        total += q ** (n * n) * math.sin(n * amax * math.pi) / n
        if q ** ((n + 1) ** 2) / (n + 1) < 1e-18:
            break
        n += 1
    return abs(amax + 2.0 / math.pi * total - 0.5)


def periodogram(paths: np.ndarray, dt: float):
    """Hann-windowed one-sided periodogram averaged across path columns.

    Returns (omega [rad/s], mean PSD estimate)."""
    n = paths.shape[0]
    wnd = np.hanning(n)
    scale = dt / np.sum(wnd**2)
    spec = np.mean(np.abs(np.fft.rfft(wnd[:, None] * paths, axis=0)) ** 2, axis=1) * scale
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, dt)
    return omega, spec


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def central_decade_mask(omega: np.ndarray, dt: float) -> np.ndarray:
    om_max = math.pi / dt
    return (omega >= om_max / 10**1.5) & (omega <= om_max / 10**0.5)


def allan_loop_estimate(trace, lags):
    """The per-lag second-difference loop that ``allan.estimate`` replaced.

    For each integer lag m, all overlapping differences
    x[n+2m] - 2 x[n+m] + x[n] are formed directly from the samples,
    squared and averaged: O(N) work per lag, and no shared intermediate.
    """
    from oscnoise.allan import AllanCurve
    from oscnoise.errors import DomainError, InsufficientDataError

    x = np.asarray(trace.samples, dtype=float)
    ms = [int(m) for m in lags]
    if len(ms) < 1 or any(m < 1 for m in ms) or any(
        b <= a for a, b in zip(ms, ms[1:])
    ):
        raise DomainError("lags must be strictly increasing positive integers")
    mmax = ms[-1]
    if x.size < 2 * mmax + 1:
        raise InsufficientDataError(
            f"trace of {x.size} samples cannot support lag {mmax} "
            f"(needs {2 * mmax + 1})"
        )
    variances, counts, means = [], [], []
    for m in ms:
        d = x[2 * m :] - 2.0 * x[m : x.size - m] + x[: x.size - 2 * m]
        variances.append(float(np.mean(d * d)))
        counts.append(d.size)
        means.append(float(np.mean(d)))
    return AllanCurve(
        lags=np.array(ms, dtype=float) * trace.dt,
        variances=np.array(variances),
        counts=np.array(counts, dtype=np.int64),
        d2_means=np.array(means),
    )


_STENCILS = {1: ((0.0, -1.0), (1.0, 1.0)), 2: ((0.0, 1.0), (1.0, -2.0), (2.0, 1.0))}


def diff_covariance(cov_fn, order: int, t: float, s: float, lag_h: float) -> float:
    """Covariance of the order-1 or order-2 lag-h differences at times t and
    s, from the raw covariance kernel ``cov_fn``.

    Differencing commutes with covariance, so the result is the iterated
    finite difference of ``cov_fn`` in both arguments: a 4-point stencil
    for first differences, 9-point for second differences.
    """
    stencil = _STENCILS[order]
    total = 0.0
    for off_i, w_i in stencil:
        for off_j, w_j in stencil:
            total += w_i * w_j * cov_fn(t + off_i * lag_h, s + off_j * lag_h)
    return total


def fft_fast_len(n: int) -> int:
    """scipy's fast length for a real FFT of at least n points."""
    return scipy.fft.next_fast_len(n, real=True)


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares by scipy's Lawson-Hanson active set."""
    return scipy.optimize.nnls(A, b)[0]


@functools.lru_cache(maxsize=None)
def mp_covariance(h: float, s: float, t: float) -> float:
    """Cov(phi^H_s, phi^H_t) from the closed form in the ``fbm`` docstring,
    evaluated in mpmath at 40 digits; symmetric in (s, t), s, t > 0."""
    with mp.workdps(40):
        hh = mp.mpf(h)
        lo, hi = sorted((mp.mpf(s), mp.mpf(t)))
        f = mp.hyp2f1(1, mp.mpf(0.5) - hh, hh + mp.mpf(1.5), lo / hi)
        return float(
            2 * lo ** (hh + 0.5) * hi ** (hh - 0.5) * f
            / (mp.gamma(hh + 0.5) ** 2 * (2 * hh + 1))
        )


def covariance_matrix_assembly(model, ts: np.ndarray) -> np.ndarray:
    """Covariance matrix on the times ts, pair by pair from the closed form
    in the ``fbm`` docstring, in mpmath:

        Cov(phi_s, phi_t) = 2 s^(H+1/2) t^(H-1/2) 2F1(1, 1/2-H; H+3/2; s/t)
                            / (Gamma(H+1/2)^2 (2H+1)),      s <= t,

    through ``mp_covariance``, summed over a mixture's components with
    weights c^2.  ``model`` is a Hurst exponent as a float, or a mixture
    whose ``components`` pair objects with an ``h`` field with
    coefficients; nothing of the package is called.
    """
    parts = [(float(model), 1.0)] if isinstance(model, (int, float)) else [
        (hurst.h, coeff) for hurst, coeff in model.components
    ]
    n = ts.size
    K = np.zeros((n, n))
    for r in range(n):
        for c in range(r, n):
            K[r, c] = K[c, r] = sum(
                coeff * coeff * mp_covariance(h, float(ts[r]), float(ts[c]))
                for h, coeff in parts
                if coeff > 0.0
            )
    return K


def mp_diff_autocovariance(h: float, k: int, order: int = 2) -> float:
    """Autocovariance at lag k of the lag-one differences of the given order
    (1 or 2) of the stationary-increment limit of phi^H, scaled so that the
    second differences have variance C(H), at 50 digits.

    The stencil (-1)^j binom(2p, j), p the order, is applied directly to
    the generalised covariance |t|^(2H) (t^2 ln|t| at H = 1): the second
    central difference for increments, the five-term fourth difference for
    second differences, with no series.  The result is
    C(H) (-1)^p delta^(2p) G(k) / delta^4 G(0); 50 digits leave about 24
    after the cancellation at k = 1e6.
    """
    with mp.workdps(50):
        hh = mp.mpf(h)
        if h == 1.0:
            def G(t):
                return t * t * mp.log(abs(t)) if t else mp.mpf(0)
        else:
            def G(t):
                return abs(t) ** (2 * hh)

        def stencil(k, p):
            return sum(
                (-1) ** j * mp.binomial(2 * p, j) * G(mp.mpf(k + j - p)) for j in range(2 * p + 1)
            )

        return float(
            mp.mpf(mp_avar_constant(h)) * (-1) ** order * stencil(k, order) / stencil(0, 2)
        )


@functools.lru_cache(maxsize=None)
def _mp_embedding_eigenvalues(h: float, order: int, m: int) -> np.ndarray:
    # eigenvalues 0..m of the symmetric circulant of order 2m whose first
    # row is gamma(0..m), gamma(m-1..1), by the direct cosine sum.  The row
    # sums to nearly zero, so each sum of rounded products is taken exactly
    gamma = np.array([mp_diff_autocovariance(h, k, order) for k in range(m + 1)])
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    jk = np.outer(np.arange(m + 1), np.arange(2 * m)) % (2 * m)
    return np.array([math.fsum(terms) for terms in np.cos(np.pi * jk / m) * row])


def embedded_trace_direct(mix, n: int, dt: float, seed: int) -> np.ndarray:
    """The circulant-embedding trace generator with direct sums for its FFTs.

    Replays ``fbm.simulate_trace``'s PCG64 draws component by component.
    Each non-white component's embedded autocovariance comes from
    ``mp_diff_autocovariance`` (the 50-digit stencil, not the package's
    series); its eigenvalues and the synthesis from the scaled Hermitian
    noise are direct cosine and sine sums over the 2m-point circle.  The
    differences are summed once per order, with the first samples pinned
    at zero, as the ``simulate_trace`` docstring states.
    """
    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    for hurst, coeff in mix.components:
        if coeff == 0.0:
            continue
        if hurst.h == 0.5:
            total += coeff * np.cumsum(rng.standard_normal(n) * math.sqrt(dt))
            continue
        order = 1 if hurst.h < 0.5 else 2
        if n <= order:
            continue
        draws = n - order
        m = fft_fast_len(max(draws - 1, 1))
        amp = np.sqrt(np.maximum(_mp_embedding_eigenvalues(hurst.h, order, m), 0.0) * m)
        xi = rng.standard_normal(2 * m + 2).reshape(m + 1, 2)
        re, im = amp * xi[:, 0], amp * xi[:, 1]
        angle = np.pi * (np.outer(np.arange(draws), np.arange(1, m)) % (2 * m)) / m
        d = (
            math.sqrt(2.0) * (re[0] + (-1.0) ** np.arange(draws) * re[m])
            + 2.0 * (np.cos(angle) @ re[1:m] - np.sin(angle) @ im[1:m])
        ) / (2 * m)
        for _ in range(order):
            d = np.cumsum(d)
        total[order:] += coeff * dt**hurst.h * d
    return total


def cholesky_eye_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + eps mean(diag(K)) I for the smallest
    eps in 0, 1e-12, 1e-11, ..., 1e-6 that factors, and that eps; the
    jitter is added as a full identity matrix."""
    scale = float(np.mean(np.diag(K)))
    eps = 0.0
    while True:
        try:
            return np.linalg.cholesky(K if eps == 0.0 else K + eps * scale * np.eye(len(K))), eps
        except np.linalg.LinAlgError:
            eps = 1e-12 if eps == 0.0 else eps * 10.0
            if eps > 1e-6:
                raise
