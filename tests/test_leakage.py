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

    @pytest.mark.parametrize("gap", [math.nan, math.inf])
    def test_non_finite_gap_rejected(self, gap):
        with pytest.raises(DomainError, match=f"gap must be finite, got {gap}"):
            leakage.conditional_variance(NoiseMixture.single(0.5), gap)


class TestDiscretePosterior:
    def test_brownian_markov_single_point(self):
        grid = TimeGrid(np.array([1.0]))
        mean, var = leakage.discrete_posterior(0.5, grid, 2.0, [0.4])
        assert mean == pytest.approx(0.4, rel=1e-12)
        assert var == pytest.approx(1.0, rel=1e-10)

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

    def test_unmodelled_drift_is_just_projected(self):
        # the zero-mean model projects a drift like any observation; for
        # Brownian motion that is flat extrapolation
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
