"""End-to-end acceptance gate.

One test per release criterion, each printing a PASS line with its
measured numbers once its assertions hold (run ``pytest -s`` to see
them).  Tolerances are fixed here, not tuned at runtime; stochastic
checks use pinned seeds and state their statistical margin.
"""

import math

import numpy as np
import pytest

from oscnoise import allan, entropy, fbm, leakage, spectrum
from oscnoise.cli import PhaseTrace, dispatch
from oscnoise.fbm import NoiseMixture, TimeGrid

import _oracles


def _ok(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def test_c01_covariance_matches_monte_carlo_of_defining_integral():
    rng = np.random.default_rng(42)
    worst = 0.0
    for h in (0.5, 0.75, 1.0):
        pairs = [tuple(sorted(rng.uniform(0.5, 9.5, 2))) for _ in range(5)]
        est, se = _oracles.mc_rl_covariance(
            h, pairs, t_max=10.0, n_disc=10_000, n_paths=10_000, seed=42
        )
        for (s, t), e, sd in zip(pairs, est, se):
            z = abs(e - fbm.covariance(h, s, t)) / sd
            worst = max(worst, z)
            assert z < 3.0, (h, s, t, z)
    _ok(1, f"closed-form covariance within 3 SE of the Monte Carlo oracle "
           f"(worst |z| = {worst:.2f}, 15 pairs, 1e4 paths x 1e4 steps)")


def test_c02_brownian_reduction_and_self_similarity():
    rng = np.random.default_rng(7)
    worst_bm = 0.0
    for _ in range(1000):
        s, t = rng.uniform(0.0, 1000.0, 2)
        dev = abs(fbm.covariance(0.5, s, t) - min(s, t))
        worst_bm = max(worst_bm, dev)
        assert dev < 1e-10 * max(1.0, max(s, t))
    worst_ss = 0.0
    for _ in range(200):
        h = float(rng.uniform(0.05, 1.45))
        s, t = rng.uniform(0.01, 50.0, 2)
        base = fbm.covariance(h, s, t)
        for lam in (0.5, 2.0, 10.0):
            rel = abs(fbm.covariance(h, lam * s, lam * t) - lam ** (2 * h) * base) / abs(
                lam ** (2 * h) * base
            )
            worst_ss = max(worst_ss, rel)
            assert rel < 1e-9
    _ok(2, f"H=1/2 reduces to min(s,t) (worst abs dev {worst_bm:.1e}) and "
           f"covariance scales like lambda^2H (worst rel dev {worst_ss:.1e})")


def test_c03_spectrum_power_law_closed_form_and_periodogram():
    slopes = {}
    for h in (0.5, 0.75, 1.0):
        ws = np.logspace(2, 4, 41)
        vals = np.array([spectrum.time_averaged(h, 1.0, float(w)).value for w in ws])
        slope = _oracles.loglog_slope(ws, vals)
        slopes[h] = slope
        assert slope == pytest.approx(-(2 * h + 1), abs=0.05)
    emp = {}
    n, npaths, dt = 2048, 1000, 1.0
    grid = TimeGrid(dt * np.arange(1, n + 1))
    for h in (0.5, 0.75, 1.0):
        paths = fbm.simulate(h, grid, npaths, seed=37)
        om, psd = _oracles.periodogram(paths, dt)
        sel = _oracles.central_decade_mask(om, dt)
        slope = _oracles.loglog_slope(om[sel], psd[sel])
        emp[h] = slope
        assert slope == pytest.approx(-(2 * h + 1), abs=0.15)
    _ok(3, "time-averaged spectrum slopes "
        + ", ".join(f"H={h}: {s:.3f}" for h, s in slopes.items())
        + " (tol 0.05); periodogram of 1000 simulated traces "
        + ", ".join(f"H={h}: {s:.3f}" for h, s in emp.items())
        + " (tol 0.15)")


def test_c04_quasi_renewal_posterior_convergence():
    h, target, gap = 1.0, 1.1, 0.1
    theory = leakage.conditional_variance(NoiseMixture.single(h), gap)
    prev = math.inf
    final = None
    for n in (25, 50, 100, 200):
        grid = TimeGrid(np.linspace(0.1, 1.0, n))
        _, var = leakage.discrete_posterior(h, grid, target, np.zeros(n))
        assert var <= prev + 1e-12, "variance must be monotone in refinement"
        assert var >= theory - 1e-9, "full history is the infimum"
        prev = var
        final = var
    assert final == pytest.approx(theory, rel=0.10)
    grid = TimeGrid(np.linspace(0.1, 1.0, 200))
    rng = np.random.default_rng(3)
    _, v1 = leakage.discrete_posterior(h, grid, target, rng.standard_normal(200))
    _, v2 = leakage.discrete_posterior(h, grid, target, rng.standard_normal(200) * 50)
    assert v1 == v2, "posterior variance must not depend on observed values"
    _ok(4, f"200-point history posterior variance {final:.6f} vs closed form "
           f"{theory:.6f} ({100 * (final / theory - 1):.1f}% above, monotone, "
           f"value-independent bit-for-bit)")


def test_c05_wrapped_gaussian_normalization_and_dual_branches():
    from scipy.integrate import quad

    from oscnoise import specfun

    # the density of phase y on a 2 pi period is the unit-period wrapped
    # Gaussian at (mu - y) / r with variance s2 / r^2, divided by r
    r = 2 * math.pi
    worst_norm = 0.0
    for mu, s2 in [(1.0, 0.49), (0.0, 4.0), (2.5, 0.04)]:
        val, _ = quad(
            lambda y: float(specfun.wrapped_gaussian((mu - y) / r, s2 / (r * r))) / r,
            0.0, 2 * math.pi, epsabs=1e-11, limit=300,
        )
        worst_norm = max(worst_norm, abs(val - 1.0))
        assert abs(val - 1.0) < 1e-9
    # theta_3(z | q) is the same kernel at z / pi with variance -ln q / (2 pi^2)
    worst_gap = 0.0
    for q in np.linspace(0.85, 0.92, 8):
        for z in np.linspace(0.0, math.pi, 9):
            a = float(specfun.wrapped_gaussian(
                float(z) / math.pi, -math.log(float(q)) / (2.0 * math.pi**2)
            ))
            total, n = 1.0, 1
            while 2 * q ** ((n + 1) ** 2) > 1e-18:
                total += 2 * q ** (n * n) * math.cos(2 * n * z)
                n += 1
            total += 2 * q ** (n * n) * math.cos(2 * n * z)
            worst_gap = max(worst_gap, abs(a - total))
            assert abs(a - total) < 1e-10
    _ok(5, f"wrapped density normalises to 1 within {worst_norm:.1e} and the "
           f"theta/wrapped-sum branches agree within {worst_gap:.1e} on "
           f"q in [0.85, 0.92]")


def test_c06_bias_quadrature_vs_monte_carlo_and_limits():
    # seed pinned; measured margin ~3x below the 2e-4 tolerance at 1e7 draws
    devs = {}
    for sigma2 in (0.25, 1.0, 4.0):
        draws = np.random.default_rng(8).standard_normal(10**7) * math.sqrt(sigma2)
        emp = _oracles.worst_case_bias_scan(draws, 0.5, scan_step=1e-3)
        dev = abs(emp - entropy.bias(sigma2, 0.5))
        devs[sigma2] = dev
        assert dev < 2e-4, (sigma2, dev)
    assert entropy.bias(0.0, 0.5) == pytest.approx(0.5, abs=1e-6)
    for alpha in (0.5, 0.3, 0.8):
        assert entropy.bias(1e9, alpha) == pytest.approx(abs(alpha - 0.5), abs=1e-6)
    _ok(6, "quadrature bias vs 1e7-draw offset-scan oracle: "
        + ", ".join(f"s2={s}: {d:.1e}" for s, d in devs.items())
        + " (tol 2e-4); degenerate limits exact to 1e-6")


def test_c07_allan_constants_continuity_and_stencil():
    assert allan.theoretical_d2_variance(0.5, 1.0) == pytest.approx(2.0, abs=1e-9)
    assert allan.theoretical_d2_variance(1.0, 1.0) == pytest.approx(
        4.0 * math.log(2.0) / math.pi, abs=1e-9
    )
    hs = np.arange(0.995, 1.005 + 1e-12, 1e-4)
    vals = np.array([allan.avar_constant(float(x)) for x in hs])
    max_jump = float(np.max(np.abs(np.diff(vals)) / vals[:-1]))
    assert max_jump < 1e-3
    worst = 0.0
    for h in (0.5, 0.75, 1.0):
        cov = lambda a, b: fbm.covariance(h, a, b)
        got = _oracles.diff_covariance(cov, 2, 1000.0, 1000.0, 1.0)
        rel = abs(got / allan.theoretical_d2_variance(h, 1.0) - 1.0)
        worst = max(worst, rel)
        assert rel < 1e-4
    _ok(7, f"second-difference constants 2h and (4 ln2/pi) h^2 to 1e-9; "
           f"constant continuous through H=1 (max step {max_jump:.1e}); "
           f"9-point stencil at t/h=1e3 within {worst:.1e}")


def test_c08_calibration_recovers_mixture_and_error_shrinks():
    mix = NoiseMixture.white_flicker(1.0, 0.5)
    lags = list(range(1, 101))

    def recover(n, seed):
        x = fbm.simulate_trace(mix, n, 1.0, seed=seed)
        fit = allan.fit_mixture(allan.estimate(PhaseTrace(dt=1.0, samples=x), lags))
        return abs(fit.c_white - 1.0), abs(fit.c_flicker - 0.5) / 0.5

    seeds = (1, 4, 7)
    errs_small, errs_big = [], []
    for seed in seeds:
        ew, ef = recover(10**6, seed)
        assert ew < 0.10 and ef < 0.10, (seed, ew, ef)
        errs_small.append(max(ew, ef))
        ew, ef = recover(4 * 10**6, seed + 1000)
        assert ew < 0.10 and ef < 0.10, (seed, ew, ef)
        errs_big.append(max(ew, ef))
    rms_small = math.sqrt(np.mean(np.square(errs_small)))
    rms_big = math.sqrt(np.mean(np.square(errs_big)))
    # 1/sqrt(N) predicts 0.5; allow statistical spread around it
    assert rms_big < 0.85 * rms_small
    _ok(8, f"recovered (c_white, c_flicker) within 10% on every run; RMS error "
           f"{rms_small:.3f} at 1e6 -> {rms_big:.3f} at 4e6 samples "
           f"(ratio {rms_big / rms_small:.2f}, 1/sqrt(N) predicts 0.50)")


def test_c09_bandwidth_monotone_and_inverse_consistent():
    mixtures = {
        "white": NoiseMixture.single(0.5),
        "flicker": NoiseMixture.single(1.0),
        "white+flicker": NoiseMixture.white_flicker(1.0, 0.5),
    }
    for name, mix in mixtures.items():
        prev = -1.0
        for dt in np.logspace(-3, 1, 50):
            ent = entropy.bandwidth_report(mix, 0.5, float(dt)).min_entropy_bits
            assert ent >= prev - 1e-12, name
            prev = ent
    worst = 0.0
    for name, mix in mixtures.items():
        for target in (0.3, 0.9):
            dt = entropy.solve_min_dt(mix, 0.5, target)
            got = entropy.bandwidth_report(mix, 0.5, dt).min_entropy_bits
            worst = max(worst, abs(got - target))
            assert got >= target - 1e-4
            assert got - target < 1e-3  # smallest such dt, not merely some dt
    _ok(9, f"min-entropy non-decreasing in dt over 50-point grids for 3 mixtures; "
           f"solve_min_dt meets its target within {worst:.1e} bits")


def test_c10_bitstream_bias_matches_prediction():
    n = 10**6
    devs = {}
    for h, dt in ((0.5, 1.0), (1.0, 1.0)):
        phases = fbm.simulate(h, TimeGrid(np.array([dt])), n, seed=101).ravel()
        emp = _oracles.worst_case_bias_scan(phases, 0.5, scan_step=1e-3)
        sigma2 = leakage.conditional_variance(NoiseMixture.single(h), dt)
        predicted = entropy.bias(sigma2, 0.5)
        se = 0.5 / math.sqrt(n)
        devs[(h, dt)] = abs(emp - predicted) / se
        assert abs(emp - predicted) < 3.0 * se, (h, dt, emp, predicted)
    _ok(10, "worst-offset bias of 1e6 thresholded simulated bits within 3 SE: "
        + ", ".join(f"(H={h}, dt={dt}): {z:.2f} SE" for (h, dt), z in devs.items()))


def test_cli_subcommands_cover_reported_pipelines(tmp_path, capsys):
    # not a numbered criterion: a final smoke pass that the CLI surfaces used
    # above (simulate -> calibrate, entropy report) run end to end
    trace = str(tmp_path / "t.csv")
    assert dispatch(
        "simulate --c-white 1.0 --c-flicker 0.5 --samples 100000 --dt 1.0 "
        "--seed 5".split() + ["--out", trace]
    ) == 0
    assert dispatch(["calibrate", "--in", trace, "--lags", "1:100:4"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["c_white"] - 1.0) < 0.15
    assert dispatch(
        "entropy --c-white 1 --c-flicker 0.5 --dt 1e-6 --alpha 0.5".split()
    ) == 0
    json.loads(capsys.readouterr().out)
