"""Independent output checks for the benchmark's operations.

Nothing here imports oscnoise.  The references are the model's closed
forms written out again with ``math``, mpmath evaluations of the
hypergeometric functions, and exact sampling distributions of Gaussian
paths.  Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy.special import chdtri

C_FLICKER = 4.0 * math.log(2.0) / math.pi

# calibrate: the fitted coefficients against the generating mixture.  Over
# 30 seeds c_flicker spread 0.8% and c_white 3.4% (one standard deviation),
# so 10% is 12 sigma for c_flicker but only 3 sigma for c_white, which a
# correct program misses about once in 270 operations; 25% is 7 sigma.
CAL_REL_TOL = {"c_white": 0.25, "c_flicker": 0.10}
# calibrate: each Allan lag m lies within AVAR_SIGMAS standard errors of the
# closed form, the standard error of the overlapping estimator on white
# noise being sqrt(4m / (3 count)), plus AVAR_BIAS for the trace generator's
# discretisation bias (measured at -0.15% at lag 1)
AVAR_SIGMAS = 7.0
AVAR_BIAS = 0.005
# grid: two-sided probability of a chi-square band missing a correct path set
CHI2_TAIL = 1e-9
POOLED_POINTS = 16
# security
BIAS_ABS_TOL = 1e-9
REL_TOL = 1e-12
SPECTRUM_REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def rl_variance(h: float, t: float) -> float:
    """Var(phi^H_t) = t^(2H) / (2H Gamma(H+1/2)^2)."""
    return t ** (2.0 * h) / (2.0 * h * math.gamma(h + 0.5) ** 2)


def mixture_variance(pairs, t: float) -> float:
    return sum(c * c * rl_variance(h, t) for h, c in pairs)


@functools.lru_cache(maxsize=4096)
def rl_covariance(h: float, s: float, t: float) -> float:
    """Closed-form covariance with the 2F1 factor from mpmath.

    Cached: every operation of a workload checks the same times.
    """
    lo, hi = min(s, t), max(s, t)
    with mpmath.workdps(30):
        f = mpmath.hyp2f1(1, mpmath.mpf(0.5) - h, h + mpmath.mpf(1.5), mpmath.mpf(lo) / hi)
        val = 2 * mpmath.mpf(lo) ** (h + 0.5) * mpmath.mpf(hi) ** (h - 0.5) * f / (
            mpmath.gamma(h + 0.5) ** 2 * (2 * h + 1)
        )
    return float(val)


def bias_series(sigma2, alpha: float):
    """Worst-case bias as the termwise theta series.

    amax - 1/2 + (2/pi) sum_n q^(n^2) sin(n pi amax) / n with q = exp(-sigma2/2)
    and amax = max(alpha, 1 - alpha); exact for every sigma2 > 0.
    """
    s2 = np.atleast_1d(np.asarray(sigma2, dtype=float))
    amax = max(alpha, 1.0 - alpha)
    # q^(n^2) < 1e-18 once n^2 sigma2 / 2 > 41.5
    n_max = int(math.ceil(math.sqrt(83.0 / s2.min()))) + 1
    n = np.arange(1, n_max + 1, dtype=float)
    terms = np.exp(-np.outer(s2, n * n) / 2.0) * (np.sin(n * math.pi * amax) / n)
    return amax - 0.5 + (2.0 / math.pi) * terms.sum(axis=1)


def min_entropy_bits(bias: float) -> float:
    return -math.log2(0.5 + bias)


def time_averaged_spectrum(h: float, T: float, omega: float) -> float:
    """2^(2H+1) T^(2H+1) 1F2(H+1/2; H+3/2, H+2; -(T omega)^2) / Gamma(2H+3)."""
    with mpmath.workdps(30):
        h_ = mpmath.mpf(h)
        x = mpmath.mpf(T) * omega
        f = mpmath.hyp1f2(h_ + 0.5, h_ + 1.5, h_ + 2, -x * x)
        val = 2 ** (2 * h_ + 1) * mpmath.mpf(T) ** (2 * h_ + 1) * f / mpmath.gamma(2 * h_ + 3)
    return float(val)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def check_calibration(fit: dict, c_white: float, c_flicker: float) -> list[str]:
    problems = []
    for key, want in (("c_white", c_white), ("c_flicker", c_flicker)):
        got = fit.get(key)
        if not isinstance(got, float) or abs(got - want) > CAL_REL_TOL[key] * want:
            problems.append(f"calibrate {key}={got!r}, generating value {want}")
    return problems


def avar_band(lag_count: int, count: int) -> float:
    """Relative half-width of the accepted band at lag index m."""
    return AVAR_SIGMAS * math.sqrt(4.0 * lag_count / (3.0 * count)) + AVAR_BIAS


def check_avar(csv_text: str, lags, dt: float, c_white: float, c_flicker: float,
               n_samples: int) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != "lag_s,var,var_normalized,count":
        return ["avar header missing"]
    rows = lines[1:]
    if len(rows) != len(lags):
        return [f"avar has {len(rows)} rows, expected {len(lags)}"]
    problems = []
    for m, row in zip(lags, rows):
        lag_s, var, _, count = row.split(",")
        h = float(lag_s)
        if not _close(h, m * dt, 1e-12):
            problems.append(f"avar lag {h} where {m * dt} was asked")
            continue
        if int(count) != n_samples - 2 * m:
            problems.append(f"avar lag {m} count {count}, expected {n_samples - 2 * m}")
            continue
        want = c_white**2 * 2.0 * h + c_flicker**2 * C_FLICKER * h * h
        band = avar_band(m, int(count))
        if not abs(float(var) / want - 1.0) <= band:
            problems.append(f"avar lag {m}: {var} outside {want:.6g} +- {band:.2%}")
    return problems


def check_identical(a: bytes, b: bytes) -> list[str]:
    return [] if a == b else ["rerun with the same seed gave a different trace"]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def chi2_band(dof: int) -> tuple[float, float]:
    """Bounds on sum(x^2)/variance for dof independent N(0, variance) draws."""
    return float(chdtri(dof, 1.0 - CHI2_TAIL / 2.0)), float(chdtri(dof, CHI2_TAIL / 2.0))


def parse_paths(csv_text: str) -> tuple[list[str], np.ndarray | None, list[str]]:
    lines = csv_text.splitlines()
    header, body = lines[:2], lines[2:]
    widths = {row.count(",") for row in body}
    if len(widths) != 1:
        return header, None, ["path rows have different lengths"]
    try:
        values = np.array(",".join(body).split(","), dtype=float)
    except ValueError:
        return header, None, ["path value that is not a number"]
    return header, values.reshape(len(body), widths.pop() + 1), []


def check_paths(csv_text: str, pairs, t0: float, t1: float, n: int, n_paths: int,
                seed: int, index_pairs) -> list[str]:
    """Shape, header, finiteness, and variance/covariance at a few (s, t).

    For exact zero-mean Gaussian paths, sum over paths of x_s^2, x_t^2 and
    (x_s - x_t)^2, each divided by its variance, is chi-square with
    n_paths degrees of freedom; the three together pin Var_s, Var_t and
    Cov(s, t).  Pooled over POOLED_POINTS times, the paths whitened by the
    closed-form covariance give a chi-square with POOLED_POINTS * n_paths
    degrees of freedom, which resolves a covariance error of about 14%.
    """
    header, paths, problems = parse_paths(csv_text)
    if problems:
        return problems
    want_head = f"# rng=numpy-pcg64 seed={seed} paths={n_paths}"
    if len(header) != 2 or not header[0].startswith("# dt=") or header[1] != want_head:
        problems.append(f"path header {header!r}")
    if paths.shape != (n, n_paths):
        return problems + [f"paths shape {paths.shape}, expected {(n, n_paths)}"]
    if not np.all(np.isfinite(paths)):
        return problems + ["non-finite path value"]
    times = np.linspace(t0, t1, n)
    lo, hi = chi2_band(n_paths)
    for i, j in index_pairs:
        s, t = float(times[i]), float(times[j])
        var_s, var_t = (mixture_variance(pairs, u) for u in (s, t))
        cov = sum(c * c * rl_covariance(h, s, t) for h, c in pairs)
        for label, x, var in (
            (f"Var(t={s:.4g})", paths[i], var_s),
            (f"Var(t={t:.4g})", paths[j], var_t),
            (f"Var(x({t:.4g}) - x({s:.4g}))", paths[j] - paths[i], var_s + var_t - 2.0 * cov),
        ):
            stat = float(x @ x) / var
            if not lo <= stat <= hi:
                problems.append(f"{label}: chi2 {stat:.1f} outside [{lo:.1f}, {hi:.1f}]")
    idx = np.unique(np.linspace(0, n - 1, POOLED_POINTS).round().astype(int))
    K = np.array([[sum(c * c * rl_covariance(h, float(times[i]), float(times[j]))
                        for h, c in pairs)
                   for j in idx] for i in idx])
    white = np.linalg.solve(np.linalg.cholesky(K), paths[idx])
    stat = float(np.sum(white * white))
    lo, hi = chi2_band(idx.size * n_paths)
    if not lo <= stat <= hi:
        problems.append(f"pooled chi2 over {idx.size} times {stat:.1f} "
                        f"outside [{lo:.1f}, {hi:.1f}]")
    return problems


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------


def check_entropy(report: dict, curves_csv: str, pairs, dt: float, alpha: float) -> list[str]:
    problems = []
    sigma2 = mixture_variance(pairs, dt)
    if not _close(report["sigma2"], sigma2, REL_TOL):
        problems.append(f"entropy sigma2 {report['sigma2']!r}, closed form {sigma2!r}")
    want_bias = float(bias_series(sigma2, alpha)[0])
    if not abs(report["bias"] - want_bias) <= BIAS_ABS_TOL:
        problems.append(f"entropy bias {report['bias']!r}, theta series {want_bias!r}")
    if not abs(report["min_entropy_bits"] - min_entropy_bits(report["bias"])) <= REL_TOL:
        problems.append("entropy min_entropy_bits is not -log2(1/2 + bias)")
    lines = curves_csv.splitlines()
    if not lines or lines[0] != "sigma2,bias,min_entropy_bits":
        return problems + ["curves header missing"]
    curve = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    if curve.shape != (60, 3):
        return problems + [f"curves shape {curve.shape}, expected (60, 3)"]
    err = np.abs(curve[:, 1] - bias_series(curve[:, 0], alpha))
    if not err.max() <= BIAS_ABS_TOL:
        problems.append(f"curve bias off the theta series by {err.max():.2e}")
    if not np.all(np.abs(curve[:, 2] + np.log2(0.5 + curve[:, 1])) <= REL_TOL):
        problems.append("curve min_entropy_bits is not -log2(1/2 + bias)")
    return problems


def check_bandwidth(payload: dict, pairs, alpha: float, target: float) -> list[str]:
    dt = payload["dt"]

    def entropy_at(u: float) -> float:
        return min_entropy_bits(float(bias_series(mixture_variance(pairs, u), alpha)[0]))

    problems = []
    if not entropy_at(dt) >= target:
        problems.append(f"bandwidth dt={dt!r} gives {entropy_at(dt)!r} < target {target!r}")
    if not entropy_at(dt * (1.0 - 1e-5)) < target:
        problems.append(f"bandwidth dt={dt!r} is not the smallest: dt(1-1e-5) reaches the target")
    return problems


def check_leakage(payload: dict, pairs, gap: float) -> list[str]:
    want = mixture_variance(pairs, gap)
    if not _close(payload["conditional_variance"], want, REL_TOL):
        return [f"leakage variance {payload['conditional_variance']!r}, closed form {want!r}"]
    return []


def check_spectrum(csv_text: str, h: float, reference) -> list[str]:
    """``reference`` maps omega to (closed-form value, absolute error bound)."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "omega,value,branch":
        return ["spectrum header missing"]
    if len(lines) - 1 != len(reference):
        return [f"spectrum has {len(lines) - 1} rows, expected {len(reference)}"]
    problems = []
    for row, (omega, (want, err_bound)) in zip(lines[1:], reference.items()):
        om, value, _ = row.split(",")
        if float(om) != omega:
            problems.append(f"spectrum omega {om}, expected {omega!r}")
        elif not abs(float(value) - want) <= err_bound + SPECTRUM_REL_TOL * abs(want):
            problems.append(f"spectrum H={h} omega={om}: {value}, mpmath {want!r}")
    return problems


def check_posterior(variance: float, h: float, last_obs: float, target: float) -> list[str]:
    full = rl_variance(h, target - last_obs)
    unconditional = rl_variance(h, target)
    if not full <= variance <= unconditional:
        return [f"posterior variance {variance!r} outside [{full!r}, {unconditional!r}]"]
    return []
