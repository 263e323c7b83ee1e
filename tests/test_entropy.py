import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscnoise import entropy, fbm, leakage
from oscnoise.entropy import WrappedGaussian
from oscnoise.errors import DomainError, NoSolutionError
from oscnoise.fbm import NoiseMixture, OscillatorConfig

import _oracles

TWO_PI = 2.0 * math.pi


class TestWrappedGaussian:
    def test_validation(self):
        with pytest.raises(DomainError):
            WrappedGaussian(mu=0.0, sigma2=0.0, period_r=1.0)
        with pytest.raises(DomainError):
            WrappedGaussian(mu=0.0, sigma2=1.0, period_r=-1.0)

    def test_large_variance_uniform(self):
        wg = WrappedGaussian(mu=1.0, sigma2=1e4, period_r=TWO_PI)
        for y in np.linspace(0.0, TWO_PI, 7, endpoint=False):
            assert entropy.wrapped_gaussian_pdf(wg, float(y)) == pytest.approx(
                1.0 / TWO_PI, rel=1e-10
            )

    def test_small_sigma_gaussian_peak(self):
        # aliasing terms are astronomically small at sigma = 0.1
        wg = WrappedGaussian(mu=0.0, sigma2=0.01, period_r=TWO_PI)
        got = entropy.wrapped_gaussian_pdf(wg, 0.0)
        assert got == pytest.approx(1.0 / (0.1 * math.sqrt(TWO_PI)), rel=1e-12)

    @pytest.mark.parametrize("sigma2", [1e-6, 1e-10, 1e-16, 1e-200])
    def test_small_sigma_matches_plain_gaussian(self, sigma2):
        # two standard deviations off the mean; every other image is beyond
        # double precision, so the wrapped density is the plain Gaussian
        sigma = math.sqrt(sigma2)
        wg = WrappedGaussian(mu=0.0, sigma2=sigma2, period_r=TWO_PI)
        got = entropy.wrapped_gaussian_pdf(wg, 2.0 * sigma)
        assert got == pytest.approx(math.exp(-2.0) / (sigma * math.sqrt(TWO_PI)), rel=1e-13)

    def test_normalization(self):
        wg = WrappedGaussian(mu=1.0, sigma2=0.49, period_r=TWO_PI)
        val, _ = quad(
            lambda y: entropy.wrapped_gaussian_pdf(wg, y), 0.0, TWO_PI, epsabs=1e-11, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_periodicity_through_theta(self):
        wg = WrappedGaussian(mu=0.7, sigma2=1.3, period_r=TWO_PI)
        a = entropy.wrapped_gaussian_pdf(wg, 0.3)
        shifted = WrappedGaussian(mu=0.7 + TWO_PI, sigma2=1.3, period_r=TWO_PI)
        assert entropy.wrapped_gaussian_pdf(shifted, 0.3) == pytest.approx(a, rel=1e-12)

    def test_branches_agree(self):
        # the same density through the theta series and the aliased sum
        for target_q in [0.85, 0.895, 0.905, 0.92]:
            sigma2 = -2.0 * math.log(target_q)  # q = exp(-sigma2/2) at r = 2 pi
            wg = WrappedGaussian(mu=1.0, sigma2=sigma2, period_r=TWO_PI)
            for y in [0.0, 1.0, 2.5, 4.0]:
                via_theta = (
                    1.0
                    / TWO_PI
                    * _oracles.mp_theta3(
                        math.pi * (wg.mu - y) / TWO_PI,
                        math.exp(-2 * math.pi**2 * sigma2 / TWO_PI**2),
                    )
                )
                assert entropy.wrapped_gaussian_pdf(wg, y) == pytest.approx(
                    via_theta, abs=1e-10
                )

    def test_domain(self):
        wg = WrappedGaussian(mu=0.0, sigma2=1.0, period_r=TWO_PI)
        with pytest.raises(DomainError):
            entropy.wrapped_gaussian_pdf(wg, TWO_PI)
        with pytest.raises(DomainError):
            entropy.wrapped_gaussian_pdf(wg, -0.1)


class TestBias:
    def test_zero_variance_is_fully_biased(self):
        assert entropy.bias(0.0, 0.5) == 0.5

    def test_large_variance_leaves_duty_asymmetry(self):
        for alpha in [0.5, 0.3, 0.7, 0.45]:
            assert entropy.bias(1e6, alpha) == pytest.approx(abs(alpha - 0.5), abs=1e-6)

    def test_saturates_below_resolution(self):
        for sigma2 in [1e-300, 1e-16, 1e-15]:
            assert entropy.bias(sigma2, 0.5) == 0.5

    def test_matches_exact_series(self):
        grid = np.logspace(-6.0, 2.0, 400)
        for alpha in [0.1, 0.3, 0.45, 0.5, 0.7, 0.77]:
            got = entropy.bias(grid, alpha)
            want = np.array([_oracles.bias_series_exact(float(s2), alpha) for s2 in grid])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_branches_agree_at_switch(self):
        # image sum below sigma2 = 2, theta series from 2 on; 4 ulp either side
        grid = np.concatenate([2.0 - 2.0**-52 * np.arange(4, 0, -1), 2.0 + 2.0**-51 * np.arange(5)])
        for alpha in [0.1, 0.3, 0.5, 0.77]:
            vals = entropy.bias(grid, alpha)
            assert np.ptp(vals) <= 1e-15, (alpha, vals)

    def test_accepts_arrays(self):
        grid = np.array([[0.0, 0.3, 1.9], [2.0, 7.0, 1e4]])
        got = entropy.bias(grid, 0.3)
        assert got.shape == grid.shape
        for s2, b in zip(grid.ravel(), got.ravel()):
            assert b == entropy.bias(float(s2), 0.3)
        assert isinstance(entropy.bias(1.0, 0.3), float)

    def test_matches_monte_carlo_scan(self):
        rng = np.random.default_rng(123)
        draws = rng.standard_normal(2_000_000)
        for sigma2 in [0.5, 2.0]:
            emp = _oracles.worst_case_bias_scan(draws * math.sqrt(sigma2), 0.5)
            se = 0.5 / math.sqrt(draws.size)
            assert abs(emp - entropy.bias(sigma2, 0.5)) < 4.0 * se

    def test_offset_scan_confirms_worst_case_for_asymmetric_duty(self):
        # the windows worth attacking are peak- or trough-centred; the scan
        # must not beat the implemented worst case, and the peak-centred
        # value at alpha alone must undershoot it for alpha < 1/2
        rng = np.random.default_rng(7)
        sigma2, alpha = 2.0, 0.3
        draws = rng.standard_normal(2_000_000) * math.sqrt(sigma2)
        emp = _oracles.worst_case_bias_scan(draws, alpha)
        se = 0.5 / math.sqrt(draws.size)
        implemented = entropy.bias(sigma2, alpha)
        assert abs(emp - implemented) < 4.0 * se
        q = math.exp(-sigma2 / 2.0)
        peak_only = abs(
            alpha
            + 2.0 / math.pi
            * sum(
                q ** (n * n) * math.sin(n * alpha * math.pi) / n for n in range(1, 40)
            )
            - 0.5
        )
        assert implemented > peak_only + 0.05

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.05, 0.95), sigma2=st.floats(0.01, 20.0))
    def test_complement_symmetry(self, alpha, sigma2):
        assert entropy.bias(sigma2, alpha) == pytest.approx(
            entropy.bias(sigma2, 1.0 - alpha), abs=1e-9
        )

    def test_strictly_decreasing_in_sigma2(self):
        # below sigma2 ~ 0.05 the bias saturates at 1/2 to all 16 digits
        # (the missing tail mass is ~exp(-pi^2/(2 sigma2))), so strictness is
        # only observable once the value is distinguishable from 1/2; the
        # grid crosses the switch between the two closed forms at 2
        grid = np.logspace(math.log10(0.01), math.log10(20.0), 5000)
        for alpha in [0.1, 0.3, 0.5, 0.77]:
            vals = entropy.bias(grid, alpha)
            steps = np.diff(vals)
            assert np.all(steps <= 0.0), alpha
            assert np.all(steps[vals[:-1] < 0.5 - 1e-12] < 0.0), alpha

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy.bias(-1.0, 0.5)
        with pytest.raises(DomainError):
            entropy.bias(1.0, 0.0)
        with pytest.raises(DomainError):
            entropy.bias(1.0, 1.0)


class TestMinEntropy:
    def test_limits(self):
        assert entropy.min_entropy(1e9, 0.5) == pytest.approx(1.0, abs=1e-6)
        assert entropy.min_entropy(0.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_composition_with_bias(self):
        s2 = 1.0
        assert entropy.min_entropy(s2, 0.5) == pytest.approx(
            -math.log2(0.5 + entropy.bias(s2, 0.5)), rel=1e-12
        )

    def test_range(self):
        for s2 in [0.0, 0.3, 5.0, 1e5]:
            for alpha in [0.2, 0.5, 0.9]:
                assert 0.0 <= entropy.min_entropy(s2, alpha) <= 1.0


class TestBandwidthReport:
    def test_white_composition(self):
        c, dt, alpha = 0.7, 0.3, 0.5
        mix = NoiseMixture.single(0.5, c)
        osc = OscillatorConfig(duty_alpha=alpha, dt=dt)
        rep = entropy.bandwidth_report(mix, osc)
        assert rep.sigma2 == pytest.approx(c * c * dt, rel=1e-12)
        assert rep.bias == pytest.approx(entropy.bias(c * c * dt, alpha), rel=1e-12)

    def test_mixture_report(self):
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        osc = OscillatorConfig(duty_alpha=0.5, dt=1.0)
        rep = entropy.bandwidth_report(mix, osc)
        sigma2 = 1.0 + 0.25 * 2.0 / math.pi
        assert rep.sigma2 == pytest.approx(sigma2, rel=1e-12)
        assert rep.min_entropy_bits == pytest.approx(entropy.min_entropy(sigma2, 0.5), rel=1e-12)
        assert sum(c for _, c in rep.per_component) == pytest.approx(rep.sigma2, rel=1e-12)
        assert rep.min_entropy_bits == pytest.approx(-math.log2(0.5 + rep.bias), rel=1e-12)

    def test_flicker_dt_scaling(self):
        mix = NoiseMixture.single(1.0, 0.8)
        r1 = entropy.bandwidth_report(mix, OscillatorConfig(duty_alpha=0.5, dt=1.0))
        r2 = entropy.bandwidth_report(mix, OscillatorConfig(duty_alpha=0.5, dt=2.0))
        assert r2.sigma2 == pytest.approx(4.0 * r1.sigma2, rel=1e-12)

    def test_monotone_in_dt(self):
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        prev = -1.0
        for dt in np.logspace(-3, 1, 25):
            osc = OscillatorConfig(duty_alpha=0.5, dt=float(dt))
            ent = entropy.bandwidth_report(mix, osc).min_entropy_bits
            assert ent >= prev - 1e-12
            prev = ent


    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.5, 1.0), (1.0, 0.5)],
            [(0.3, 2.0), (0.5, 1e-3), (1.0, 0.7), (1.4, 0.05)],
            [(1.2, 3.0), (0.7, 0.0), (0.1, 0.9)],
        ],
    )
    def test_per_component_is_the_variance_split(self, pairs):
        mix = NoiseMixture.from_pairs(pairs)
        for dt in (1e-6, 0.37, 250.0):
            parts = fbm.component_variances(mix, dt)
            assert len(parts) == len(pairs)
            rep = entropy.bandwidth_report(mix, OscillatorConfig(duty_alpha=0.4, dt=dt))
            assert rep.per_component == tuple(zip([h for h, _ in pairs], parts))
            assert rep.sigma2 == leakage.conditional_variance(mix, dt)


class TestSolveMinDt:
    def test_degenerate_target(self):
        mix = NoiseMixture.single(0.5)
        assert entropy.solve_min_dt(mix, 0.5, 0.0, dt_min=1e-9) == 1e-9

    def test_white_inverse_consistency(self):
        mix = NoiseMixture.single(0.5)
        target = 0.999
        dt = entropy.solve_min_dt(mix, 0.5, target)
        assert entropy.min_entropy(dt, 0.5) >= target
        assert entropy.min_entropy(dt * (1 - 1e-5), 0.5) < target

    def test_flicker_coefficient_scaling(self):
        # sigma = c * dt for H = 1: doubling c halves the required dt
        t1 = entropy.solve_min_dt(NoiseMixture.single(1.0, 1.0), 0.5, 0.9)
        t2 = entropy.solve_min_dt(NoiseMixture.single(1.0, 2.0), 0.5, 0.9)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-4)

    def test_unreachable_targets(self):
        mix = NoiseMixture.single(0.5)
        with pytest.raises(NoSolutionError):
            entropy.solve_min_dt(mix, 0.5, 1.0)
        # asymmetric duty caps below one bit
        with pytest.raises(NoSolutionError):
            entropy.solve_min_dt(mix, 0.3, 0.9)
        with pytest.raises(NoSolutionError):
            entropy.solve_min_dt(NoiseMixture.single(0.5, 0.0), 0.5, 0.5)


    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_entropy": math.nan},
            {"target_entropy": math.inf},
            {"target_entropy": 0.0, "dt_min": 0.0},
            {"dt_min": 0.0},
            {"dt_min": -1e-12},
            {"dt_min": math.nan},
            {"dt_min": math.inf},
            {"rel_tol": 0.0},
            {"rel_tol": 1.0},
            {"rel_tol": -1e-6},
            {"rel_tol": math.nan},
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        # rel_tol = 0 never returned; a NaN dt_min or target gave a wrong dt
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        with pytest.raises(DomainError):
            entropy.solve_min_dt(mix, 0.5, **({"target_entropy": 0.5} | kwargs))

    def test_rel_tol_below_double_spacing_returns(self):
        # below the spacing of doubles the bisection stops at adjacent dt
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        dt = entropy.solve_min_dt(mix, 0.5, 0.5, rel_tol=1e-17)
        assert entropy.min_entropy(leakage.conditional_variance(mix, dt), 0.5) >= 0.5
        assert dt == pytest.approx(entropy.solve_min_dt(mix, 0.5, 0.5, rel_tol=1e-12), rel=1e-11)


class TestCurve:
    def test_curve_monotone_and_consistent(self):
        grid, biases, entr = entropy.bias_entropy_curve(0.5)
        assert np.all(np.diff(biases) <= 1e-12)
        np.testing.assert_allclose(entr, -np.log2(0.5 + biases), rtol=1e-12)

    def test_saturated_entropy_is_positive_zero(self):
        for alpha in [0.1, 0.3, 0.5, 0.77]:
            grid, biases, entr = entropy.bias_entropy_curve(alpha)
            assert biases[0] == 0.5 and entr[0] == 0.0
            assert not np.any(np.signbit(entr))
        assert not math.copysign(1.0, entropy.min_entropy(0.0, 0.5)) < 0

    def test_asymmetric_alpha_curve(self):
        grid, biases, entr = entropy.bias_entropy_curve(0.3)
        assert biases[-1] == pytest.approx(0.2, abs=1e-3)


class TestEndToEndBits:
    def test_simulated_bits_match_bias(self):
        # threshold one-step phases from the exact simulator and scan offsets
        from oscnoise.fbm import TimeGrid

        n = 200_000
        for h, dt in [(0.5, 1.0), (1.0, 1.0)]:
            phases = fbm.simulate(h, TimeGrid(np.array([dt])), n, seed=101).ravel()
            emp = _oracles.worst_case_bias_scan(phases, 0.5)
            sigma2 = leakage.conditional_variance(NoiseMixture.single(h), dt)
            se = 0.5 / math.sqrt(n)
            assert abs(emp - entropy.bias(sigma2, 0.5)) < 4.0 * se
