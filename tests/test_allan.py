import math

import numpy as np
import pytest

from oscnoise import allan, fbm
from oscnoise.allan import AllanCurve, PhaseTrace
from oscnoise.errors import DomainError, InsufficientDataError
from oscnoise.fbm import NoiseMixture

import _oracles

C_WHITE = 2.0
C_FLICKER = 4.0 * math.log(2.0) / math.pi


def _curve(lags, variances, counts=None):
    lags = np.asarray(lags, dtype=float)
    if counts is None:
        counts = np.full(lags.size, 1000)
    return AllanCurve(
        lags=lags,
        variances=np.asarray(variances, dtype=float),
        counts=np.asarray(counts),
        d2_means=np.zeros(lags.size),
    )


class TestTheoreticalD2Variance:
    def test_white_constant(self):
        assert allan.theoretical_d2_variance(0.5, 1.0) == pytest.approx(2.0, abs=1e-9)
        assert allan.theoretical_d2_variance(0.5, 3.0) == pytest.approx(6.0, rel=1e-12)

    def test_flicker_constant(self):
        assert allan.theoretical_d2_variance(1.0, 1.0) == pytest.approx(
            C_FLICKER, abs=1e-9
        )
        assert allan.theoretical_d2_variance(1.0, 2.0) == pytest.approx(
            4.0 * C_FLICKER, rel=1e-12
        )

    def test_continuity_through_flicker(self):
        # the removable csc singularity: both the series window and the
        # direct formula near the switch agree with a high-precision oracle
        import mpmath as mp

        def oracle(h):
            with mp.workdps(50):
                hh = mp.mpf(h)
                return float((4 - mp.mpf(4) ** hh) / mp.sin(hh * mp.pi) / mp.gamma(2 * hh + 1))

        assert allan.avar_constant(1.0) == pytest.approx(C_FLICKER, rel=1e-14)
        for u in (1e-7, -1e-7, 9.9e-7, -9.9e-7, 1.1e-6, -1.1e-6, 1e-4):
            h = 1.0 + u
            assert allan.avar_constant(h) == pytest.approx(oracle(h), rel=1e-9), u

    def test_continuity_grid(self):
        hs = np.arange(0.995, 1.005, 1e-4)
        vals = np.array([allan.avar_constant(float(h)) for h in hs])
        jumps = np.abs(np.diff(vals)) / vals[:-1]
        assert jumps.max() < 1e-3

    def test_positive_across_range(self):
        for h in np.linspace(0.05, 1.45, 29):
            assert allan.avar_constant(float(h)) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            allan.theoretical_d2_variance(0.5, 0.0)
        with pytest.raises(DomainError):
            allan.theoretical_d2_variance(1.6, 1.0)


class TestDiffCovariance:
    def test_brownian_disjoint_increments(self):
        cov = lambda a, b: fbm.covariance(0.5, a, b)
        got = allan.diff_covariance(cov, 1, 5.0, 1.0, 0.5)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_brownian_overlapping_increment_variance(self):
        cov = lambda a, b: fbm.covariance(0.5, a, b)
        got = allan.diff_covariance(cov, 1, 3.0, 3.0, 0.25)
        assert got == pytest.approx(0.25, rel=1e-10)

    def test_second_difference_white(self):
        cov = lambda a, b: fbm.covariance(0.5, a, b)
        got = allan.diff_covariance(cov, 2, 1000.0, 1000.0, 1.0)
        assert got == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("h,rtol", [(0.5, 1e-4), (0.75, 1e-4), (1.0, 1e-4)])
    def test_stencil_matches_theorem_constant(self, h, rtol):
        lag = 1.0
        t = 1000.0 * lag
        cov = lambda a, b: fbm.covariance(h, a, b)
        got = allan.diff_covariance(cov, 2, t, t, lag)
        assert got == pytest.approx(allan.theoretical_d2_variance(h, lag), rel=rtol)

    def test_flicker_lag_squared(self):
        cov = lambda a, b: fbm.covariance(1.0, a, b)
        lag = 0.5
        got = allan.diff_covariance(cov, 2, 2000.0, 2000.0, lag)
        assert got == pytest.approx(C_FLICKER * lag * lag, rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            allan.diff_covariance(lambda a, b: 0.0, 3, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            allan.diff_covariance(lambda a, b: 0.0, 2, 1.0, 1.0, 0.0)


class TestEstimate:
    def test_constant_trace_zero(self):
        trace = PhaseTrace(dt=1.0, samples=np.full(100, 2.2))
        curve = allan.estimate(trace, [1, 2, 5])
        assert np.all(curve.variances == 0.0)

    def test_affine_drift_annihilated(self):
        t = np.arange(200) * 0.5
        trace = PhaseTrace(dt=0.5, samples=3.0 + 2.0 * math.pi * 7.0 * t)
        curve = allan.estimate(trace, [1, 3, 10])
        assert np.all(np.abs(curve.variances) < 1e-18)
        assert np.all(np.abs(curve.d2_means) < 1e-10)

    def test_drift_invariance_of_estimates(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.standard_normal(5000))
        t = np.arange(5000) * 1.0
        a = allan.estimate(PhaseTrace(dt=1.0, samples=x), [1, 4, 16])
        b = allan.estimate(
            PhaseTrace(dt=1.0, samples=x + 2.0 * math.pi * 50.0 * t), [1, 4, 16]
        )
        np.testing.assert_allclose(a.variances, b.variances, rtol=1e-7)

    def test_white_trace_matches_theory(self):
        mix = NoiseMixture.single(0.5)
        x = fbm.simulate_trace(mix, 1_000_000, 1.0, seed=21)
        trace = PhaseTrace(dt=1.0, samples=x)
        lags = [1, 3, 10, 30, 100]
        curve = allan.estimate(trace, lags)
        for lag_s, var in zip(curve.lags, curve.variances):
            assert var == pytest.approx(2.0 * lag_s, rel=0.05), lag_s

    def test_lag_seconds_and_counts(self):
        trace = PhaseTrace(dt=0.25, samples=np.zeros(101))
        curve = allan.estimate(trace, [1, 10])
        np.testing.assert_allclose(curve.lags, [0.25, 2.5])
        assert list(curve.counts) == [99, 81]

    def test_insufficient_data(self):
        trace = PhaseTrace(dt=1.0, samples=np.zeros(10))
        with pytest.raises(InsufficientDataError):
            allan.estimate(trace, [5])

    def test_bad_lags(self):
        trace = PhaseTrace(dt=1.0, samples=np.zeros(100))
        with pytest.raises(DomainError):
            allan.estimate(trace, [3, 2])
        with pytest.raises(DomainError):
            allan.estimate(trace, [0, 2])

    def test_estimator_consistency_rate(self):
        # fixed lag, error roughly halves when the trace grows fourfold
        mix = NoiseMixture.single(0.5)
        errs = []
        for n, seed in [(50_000, 5), (200_000, 5)]:
            x = fbm.simulate_trace(mix, n, 1.0, seed=seed)
            curve = allan.estimate(PhaseTrace(dt=1.0, samples=x), [5])
            errs.append(abs(curve.variances[0] - 10.0) / 10.0)
        assert errs[1] < errs[0]

    def test_edge_bias_shrinks_with_windowing(self):
        # the estimator averages the exact finite-time variance over the
        # window; near the trace start that deviates from the leading-order
        # law, and excluding early samples must shrink the deviation.
        # Checked at the estimator's expectation (deterministic stencil) --
        # the effect is a fraction of a percent, far below MC resolution.
        h, m = 1.3, 50.0
        cov = lambda a, b: fbm.covariance(h, a, b)
        theory = allan.theoretical_d2_variance(h, m)
        devs = []
        for lo, hi in ((2 * m, 300.0), (200.0, 300.0)):
            ts = np.linspace(lo, hi, 25)
            mean = np.mean([allan.diff_covariance(cov, 2, float(t), float(t), m) for t in ts])
            devs.append(abs(mean / theory - 1.0))
        assert devs[1] < devs[0]
        assert devs[0] < 0.01  # already a sub-percent effect at these scales


MIXES = {
    "H=0.3": NoiseMixture.single(0.3),
    "H=0.5": NoiseMixture.single(0.5),
    "H=1": NoiseMixture.single(1.0),
    "H=1.25": NoiseMixture.single(1.25),
    "white+flicker": NoiseMixture.white_flicker(1.0, 0.5),
}


def _assert_matches_loop(trace, lags):
    got = allan.estimate(trace, lags)
    ref = _oracles.allan_loop_estimate(trace, lags)
    np.testing.assert_array_equal(got.lags, ref.lags)
    np.testing.assert_array_equal(got.counts, ref.counts)
    np.testing.assert_allclose(got.variances, ref.variances, rtol=1e-12, atol=0.0)
    # the loop sums x-sized terms; 1e-12 of the largest lag's spread covers
    # both roundings (measured differences are below 1e-14 of it)
    scale = math.sqrt(ref.variances.max())
    np.testing.assert_allclose(got.d2_means, ref.d2_means, rtol=0.0, atol=1e-12 * scale)
    return got


class TestEstimateMatchesLoop:
    @pytest.mark.parametrize("name", sorted(MIXES))
    @pytest.mark.parametrize(
        "n,lags",
        [(50_000, list(range(1, 101))), (20_000, [1, 2, 5, 1000]), (202, list(range(1, 101)))],
        ids=["dense", "sparse", "two-windows-at-mmax"],
    )
    def test_matches_per_lag_loop(self, name, n, lags):
        x = fbm.simulate_trace(MIXES[name], n, 1.0, seed=13)
        _assert_matches_loop(PhaseTrace(dt=1.0, samples=x), lags)

    def test_one_window_at_mmax_rejected_alike(self):
        # N = 2 mmax + 1 leaves one difference at mmax; AllanCurve needs two
        trace = PhaseTrace(dt=1.0, samples=np.random.default_rng(4).standard_normal(201))
        for estimator in (allan.estimate, _oracles.allan_loop_estimate):
            with pytest.raises(DomainError, match="at least 2"):
                estimator(trace, range(1, 101))

    def test_large_drift_matches_drift_free_twin(self):
        # 2 pi 1e8 t at dt = 1e-3 puts x near 1.3e11, where an ulp is 1.5e-5
        # against second differences of about 0.045; that input rounding,
        # the same for any estimator, is what the twin tolerances allow for
        n, dt = 200_000, 1e-3
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        x = fbm.simulate_trace(mix, n, dt, seed=9)
        drifted = x + 2.0 * math.pi * 1e8 * dt * np.arange(n)
        lags = list(range(1, 101))
        twin = allan.estimate(PhaseTrace(dt=dt, samples=x), lags)
        got = _assert_matches_loop(PhaseTrace(dt=dt, samples=drifted), lags)
        np.testing.assert_allclose(got.variances, twin.variances, rtol=1e-5)
        np.testing.assert_allclose(got.d2_means, twin.d2_means, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize(
        "x",
        [
            2.2 + np.random.default_rng(5).integers(-1, 2, 1000) * np.spacing(2.2),
            1e8 + 2.0 * math.pi * 1e3 * np.arange(1000),
            np.cumsum(np.full(999, 0.1)),
        ],
        ids=["ulp-noise", "steep-ramp", "summed-ramp"],
    )
    def test_near_constant_trace_nonnegative(self, x):
        trace, lags = PhaseTrace(dt=1.0, samples=x), [1, 2, 5, 10, 50, 100]
        curve = allan.estimate(trace, lags)
        assert np.all(curve.variances >= 0.0)
        ref = _oracles.allan_loop_estimate(trace, lags)
        # both are rounding noise of x: compare on the scale of an ulp of x
        atol = (16 * np.spacing(np.abs(x).max())) ** 2
        np.testing.assert_allclose(curve.variances, ref.variances, rtol=0.0, atol=atol)


class TestFitMixture:
    def test_exact_white_curve(self):
        # the vanishing weight is resolved to lstsq noise ~1e-14, so its
        # square root is only zero to ~1e-7
        lags = np.arange(1.0, 21.0)
        fit = allan.fit_mixture(_curve(lags, C_WHITE * lags))
        assert fit.c_white == pytest.approx(1.0, abs=1e-10)
        assert fit.c_flicker == pytest.approx(0.0, abs=1e-6)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-9)

    def test_exact_flicker_curve(self):
        lags = np.arange(1.0, 21.0)
        fit = allan.fit_mixture(_curve(lags, C_FLICKER * lags**2))
        assert fit.c_white == pytest.approx(0.0, abs=1e-6)
        assert fit.c_flicker == pytest.approx(1.0, abs=1e-10)

    def test_exact_mixture_curve(self):
        lags = np.arange(1.0, 31.0)
        vals = 4.0 * C_WHITE * lags + 0.25 * C_FLICKER * lags**2
        fit = allan.fit_mixture(_curve(lags, vals))
        assert fit.c_white == pytest.approx(2.0, rel=1e-10)
        assert fit.c_flicker == pytest.approx(0.5, rel=1e-10)

    def test_nonnegative_even_for_misfit_data(self):
        lags = np.arange(1.0, 21.0)
        vals = np.maximum(C_WHITE * lags - 10.0, 0.1)  # not in the model cone
        fit = allan.fit_mixture(_curve(lags, vals))
        assert fit.c_white >= 0.0 and fit.c_flicker >= 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_white_pinned_by_standard_error_weights(self, seed):
        # lag 1 fixes c_white to a few 0.1%; weighting rows only by
        # sqrt(count) lets lag 100 dominate and spreads it by several %
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        x = fbm.simulate_trace(mix, 500_000, 1.0, seed=seed, oversample=4)
        curve = allan.estimate(PhaseTrace(dt=1.0, samples=x), range(1, 101))
        fit = allan.fit_mixture(curve)
        assert abs(fit.c_white - 1.0) < 0.01, (seed, fit.c_white)
        assert abs(fit.c_flicker / 0.5 - 1.0) < 0.03, (seed, fit.c_flicker)

    def test_needs_a_decade(self):
        with pytest.raises(DomainError):
            allan.fit_mixture(_curve([1.0, 2.0, 5.0], [2.0, 4.0, 10.0]))

    def test_covariance_shape(self):
        lags = np.arange(1.0, 21.0)
        noisy = C_WHITE * lags * (1.0 + 0.01 * np.sin(lags))
        fit = allan.fit_mixture(_curve(lags, noisy))
        assert fit.covariance_of_fit.shape == (2, 2)
        assert np.all(np.isfinite(fit.covariance_of_fit))


class TestCurveValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            AllanCurve(
                lags=np.array([1.0, 2.0]),
                variances=np.array([1.0]),
                counts=np.array([10, 10]),
                d2_means=np.zeros(2),
            )

    def test_decreasing_lags(self):
        with pytest.raises(DomainError):
            _curve([2.0, 1.0], [1.0, 1.0])

    def test_small_counts(self):
        with pytest.raises(DomainError):
            AllanCurve(
                lags=np.array([1.0]),
                variances=np.array([1.0]),
                counts=np.array([1]),
                d2_means=np.zeros(1),
            )
