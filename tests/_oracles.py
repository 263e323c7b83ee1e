"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
special functions go through mpmath's arbitrary-precision summation,
spectra through direct oscillatory quadrature of the covariance, moments
through Monte Carlo of the defining stochastic integral, and expected
bit biases through brute-force offset scans over wrapped Gaussian draws.
"""

from __future__ import annotations

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


def ma_trace_direct(mix, n: int, dt: float, seed: int, oversample: int) -> np.ndarray:
    """The moving-average trace generator by direct fine-grid convolution.

    Replays ``fbm.simulate_trace``'s PCG64 draws component by component;
    each non-white component's fine-grid innovations go through one full
    ``np.convolve`` with the package's kernel (the discretised law, not
    the convolution under test), and every oversample-th output is kept.
    """
    from oscnoise.fbm import _ma_kernel

    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    for hurst, coeff in mix.components:
        if coeff == 0.0:
            continue
        if hurst.h == 0.5:
            total += coeff * np.cumsum(rng.standard_normal(n) * math.sqrt(dt))
            continue
        nf = n * oversample
        xi = rng.standard_normal(nf)
        g = _ma_kernel(hurst.h, np.arange(nf, dtype=float), dt / oversample)
        fine = np.convolve(xi, g)[:nf]
        total += coeff * fine[oversample - 1 :: oversample]
    return total


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


def fft_fast_len(n: int) -> int:
    """scipy's fast length for a real FFT of at least n points."""
    return scipy.fft.next_fast_len(n, real=True)


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares by scipy's Lawson-Hanson active set."""
    return scipy.optimize.nnls(A, b)[0]


def ma_d2_variance_exact(h: float, o: int, m: int, n_terms: int = 1 << 20) -> float:
    """Second-difference variance of the moving-average trace generator.

    The generator's sample is sum_j g[j] xi[k - j] over unit fine-grid
    innovations, with g[j] = dt_f^H sqrt(((j+1)^(2H) - j^(2H)) / (2H))
    / Gamma(H + 1/2) and dt_f = 1/o for dt = 1.  Its second difference at
    lag m samples (o*m fine steps) is the same sum with g replaced by the
    kernel's own second difference a[l] = g[l] - 2 g[l - om] + g[l - 2om],
    so far from the trace start its variance is sum_l a[l]^2, summed here
    to n_terms + 2om cells (the tail falls like l^(2H-5)).  The power
    difference is formed as j^(2H) expm1(2H log1p(1/j)), so large j do
    not cancel.
    """
    s = o * m
    j = np.arange(n_terms + 2 * s, dtype=float)
    incr = np.ones_like(j)
    incr[1:] = j[1:] ** (2.0 * h) * np.expm1(2.0 * h * np.log1p(1.0 / j[1:]))
    g = (1.0 / o) ** h * np.sqrt(incr / (2.0 * h)) / math.gamma(h + 0.5)
    a = g.copy()
    a[s:] -= 2.0 * g[:-s]
    a[2 * s :] += g[: -2 * s]
    return float(np.sum(a * a))


def covariance_matrix_assembly(model, ts: np.ndarray) -> np.ndarray:
    """Covariance matrix by the pair-list assembly that ``fbm`` used before
    its packed kernel.

    The n(n+1)/2 pairs of the upper triangle, listed row by row as
    (rows, cols), go through ``fbm.cross_covariance`` in one call; each row
    is then written into K and mirrored into its column.
    """
    from oscnoise import fbm

    n = ts.size
    rows = np.repeat(ts, np.arange(n, 0, -1))
    cols = np.concatenate([ts[r:] for r in range(n)])
    upper = fbm.cross_covariance(model, rows, cols)
    K = np.empty((n, n))
    start = 0
    for r in range(n):
        row = upper[start : start + n - r]
        K[r, r:] = row
        K[r:, r] = row
        start += n - r
    return K


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
