import math

import numpy as np
import pytest

from oscnoise import fbm, leakage
from oscnoise.errors import DomainError
from oscnoise.fbm import NoiseMixture, TimeGrid


class TestConditionalVariance:
    def test_brownian_independent_increments(self):
        mix = NoiseMixture.single(0.5)
        assert leakage.conditional_variance(mix, 2.0) == pytest.approx(2.0)

    def test_flicker_unit_gap(self):
        mix = NoiseMixture.single(1.0)
        assert leakage.conditional_variance(mix, 1.0) == pytest.approx(2.0 / math.pi)

    def test_mixture_additivity(self):
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        assert leakage.conditional_variance(mix, 1.0) == pytest.approx(
            1.0 + 0.25 * 2.0 / math.pi, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            leakage.conditional_variance(NoiseMixture.single(0.5), 0.0)


class TestConditionalCovariance:
    def test_diagonal_reduces_to_variance(self):
        t, t0 = 4.0, 1.5
        got = leakage.conditional_covariance(0.9, t, t, t0)
        assert got == pytest.approx(fbm.variance(0.9, t - t0), rel=1e-12)

    def test_empty_conditioning(self):
        got = leakage.conditional_covariance(0.7, 5.0, 3.0, 0.0)
        assert got == pytest.approx(fbm.covariance(0.7, 5.0, 3.0), rel=1e-14)

    def test_brownian_shift(self):
        assert leakage.conditional_covariance(0.5, 5.0, 3.0, 1.0) == pytest.approx(2.0)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            leakage.conditional_covariance(0.5, 3.0, 5.0, 1.0)
        with pytest.raises(DomainError):
            leakage.conditional_covariance(0.5, 5.0, 1.0, 1.0)


class TestDiscretePosterior:
    def test_brownian_markov_single_point(self):
        grid = TimeGrid(np.array([1.0]))
        mean, var = leakage.discrete_posterior(0.5, grid, 2.0, [0.4])
        assert mean == pytest.approx(0.4, rel=1e-12)
        assert var == pytest.approx(1.0, rel=1e-10)

    def test_no_observations_unconditional(self):
        mean, var = leakage.discrete_posterior(0.8, None, 2.0, [])
        assert mean == 0.0
        assert var == pytest.approx(fbm.variance(0.8, 2.0), rel=1e-14)

    def test_dense_history_converges_to_closed_form(self):
        h, target = 1.0, 1.1
        theory = leakage.conditional_variance(NoiseMixture.single(h), 0.1)
        prev = math.inf
        for n in (25, 50, 100, 200):
            grid = TimeGrid(np.linspace(0.1, 1.0, n))
            _, var = leakage.discrete_posterior(h, grid, target, np.zeros(n))
            assert var <= prev + 1e-12  # refinement adds information
            assert var >= theory - 1e-9  # full history is the infimum
            prev = var
        assert prev == pytest.approx(theory, rel=0.10)

    def test_value_independence_bit_exact(self):
        grid = TimeGrid(np.linspace(0.2, 1.0, 40))
        rng = np.random.default_rng(0)
        _, v1 = leakage.discrete_posterior(0.9, grid, 1.3, rng.standard_normal(40))
        _, v2 = leakage.discrete_posterior(0.9, grid, 1.3, rng.standard_normal(40) * 100)
        assert v1 == v2

    def test_monotone_information_superset(self):
        h, target = 0.75, 2.0
        base = np.linspace(0.5, 1.5, 20)
        mids = 0.5 * (base[:-1] + base[1:])
        finer = np.sort(np.concatenate([base, mids]))  # superset, same endpoint
        _, v_base = leakage.discrete_posterior(h, TimeGrid(base), target, np.zeros(20))
        _, v_fine = leakage.discrete_posterior(h, TimeGrid(finer), target, np.zeros(39))
        assert v_fine <= v_base + 1e-9
        assert v_fine >= leakage.conditional_variance(NoiseMixture.single(h), 0.5) - 1e-9

    def test_modelled_drift_passes_through(self):
        # declaring the deterministic component makes it pass through to the
        # target exactly and leaves the variance untouched
        h, a, b = 1.0, 0.7, 2.0 * math.pi * 3.0
        grid = TimeGrid(np.linspace(0.1, 1.0, 50))
        rng = np.random.default_rng(4)
        y = rng.standard_normal(50)
        m0, v0 = leakage.discrete_posterior(h, grid, 1.2, y)
        drifted = y + a + b * grid.points
        m1, v1 = leakage.discrete_posterior(h, grid, 1.2, drifted, drift=(a, b))
        assert v1 == v0
        assert m1 == pytest.approx(m0 + a + b * 1.2, rel=1e-10, abs=1e-10)

    def test_unmodelled_drift_is_just_projected(self):
        # without the declaration the zero-mean model projects the drift like
        # any observation; for Brownian motion that is flat extrapolation
        grid = TimeGrid(np.array([1.0]))
        m, _ = leakage.discrete_posterior(0.5, grid, 2.0, [5.0])
        assert m == pytest.approx(5.0)  # not 10.0

    def test_flicker_full_history_beats_two_point(self):
        h, t, tau = 1.0, 1.0, 0.01
        rho = fbm.correlation(h, t - tau, t)
        two_point = fbm.variance(h, t) * (1.0 - rho * rho)
        grid = TimeGrid(np.linspace(0.05, t - tau, 300))
        _, dense = leakage.discrete_posterior(h, grid, t, np.zeros(300))
        assert dense < two_point
        # the gap is the log factor, not a few percent
        assert two_point / dense > 2.0

    def test_target_must_be_after_history(self):
        grid = TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            leakage.discrete_posterior(0.5, grid, 1.5, [0.0, 0.0])

    def test_mismatched_lengths(self):
        grid = TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            leakage.discrete_posterior(0.5, grid, 3.0, [0.0])

    def test_observations_without_grid(self):
        with pytest.raises(DomainError, match="without observed_times"):
            leakage.discrete_posterior(0.5, None, 3.0, [0.0])

    def test_unconditional_target_must_be_positive(self):
        with pytest.raises(DomainError, match="positive"):
            leakage.discrete_posterior(0.5, None, 0.0, None)


class TestRenewalSample:
    def test_empty_history_matches_plain_simulation(self):
        future = TimeGrid(np.linspace(1.0, 2.0, 8))
        a = leakage.renewal_sample(0.8, None, [], future, 5, seed=11)
        b = fbm.simulate(0.8, future, 5, seed=11)
        assert np.array_equal(a, b)

    def test_deterministic_per_seed(self):
        hist = TimeGrid(np.array([0.5, 1.0]))
        future = TimeGrid(np.array([1.5, 2.0]))
        a = leakage.renewal_sample(0.8, hist, [0.1, -0.2], future, 3, seed=2)
        b = leakage.renewal_sample(0.8, hist, [0.1, -0.2], future, 3, seed=2)
        assert np.array_equal(a, b)

    def test_empirical_conditional_moments(self):
        h = 0.75
        hist = TimeGrid(np.linspace(0.2, 1.0, 10))
        obs = np.linspace(-0.1, 0.4, 10)
        tau1, tau2 = 0.3, 0.8
        future = TimeGrid(np.array([1.0 + tau1, 1.0 + tau2]))
        n = 10_000
        paths = leakage.renewal_sample(h, hist, obs, future, n, seed=13)
        centered = paths - paths.mean(axis=1, keepdims=True)
        v1 = float(np.mean(centered[0] ** 2))
        v2 = float(np.mean(centered[1] ** 2))
        c12 = float(np.mean(centered[0] * centered[1]))
        th1 = fbm.variance(h, tau1)
        th2 = fbm.variance(h, tau2)
        thc = fbm.covariance(h, tau1, tau2)
        # 3 standard errors for second moments of Gaussians
        assert abs(v1 - th1) < 3.0 * th1 * math.sqrt(2.0 / n)
        assert abs(v2 - th2) < 3.0 * th2 * math.sqrt(2.0 / n)
        se_c = math.sqrt((th1 * th2 + thc**2) / n)
        assert abs(c12 - thc) < 3.0 * se_c

    def test_future_must_follow_history(self):
        hist = TimeGrid(np.array([1.0]))
        with pytest.raises(DomainError):
            leakage.renewal_sample(0.5, hist, [0.0], TimeGrid(np.array([0.5])), 1, seed=0)

    @pytest.mark.parametrize("observations", [[0.0], None])
    def test_observations_must_match_grid(self, observations):
        hist = TimeGrid(np.array([0.5, 1.0]))
        future = TimeGrid(np.array([1.5]))
        with pytest.raises(DomainError, match="one observation per time"):
            leakage.renewal_sample(0.5, hist, observations, future, 1, seed=0)

    def test_observations_without_grid(self):
        future = TimeGrid(np.array([1.5]))
        with pytest.raises(DomainError, match="without observed_times"):
            leakage.renewal_sample(0.5, None, [0.1], future, 1, seed=0)

    def test_negative_seed(self):
        future = TimeGrid(np.array([1.5]))
        with pytest.raises(DomainError, match="seed"):
            leakage.renewal_sample(0.5, None, None, future, 1, seed=-1)
