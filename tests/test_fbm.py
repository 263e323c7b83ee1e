import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oscnoise import allan, fbm
from oscnoise.errors import DecompositionError, DomainError
from oscnoise.fbm import HurstExponent, NoiseMixture, TimeGrid

import _oracles


class TestTypes:
    @pytest.mark.parametrize("h", [0.0, 1.5, -0.3, 2.0, math.nan])
    def test_hurst_range(self, h):
        with pytest.raises(DomainError):
            HurstExponent(h)

    def test_mixture_validation(self):
        with pytest.raises(DomainError):
            NoiseMixture(())
        with pytest.raises(DomainError):
            NoiseMixture.from_pairs([(0.5, -1.0)])
        with pytest.raises(DomainError):
            NoiseMixture.from_pairs([(0.5, 1.0), (0.5, 2.0)])  # duplicate H
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        assert len(mix.components) == 2

    def test_time_grid_validation(self):
        TimeGrid(np.array([1.0, 2.0]))
        for pts in ([0.0, 1.0], [2.0, 1.0], [1.0, 1.0], [], [math.inf]):
            with pytest.raises(DomainError):
                TimeGrid(np.array(pts, dtype=float))


class TestCovariance:
    def test_brownian_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s, t = rng.uniform(0.0, 100.0, 2)
            assert fbm.covariance(0.5, s, t) == pytest.approx(min(s, t), abs=1e-10 * max(t, 1))

    def test_flicker_unit_variance(self):
        assert fbm.covariance(1.0, 1.0, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_zero_time(self):
        assert fbm.covariance(0.8, 0.0, 5.0) == 0.0
        assert fbm.variance(0.8, 0.0) == 0.0

    def test_variance_formula(self):
        assert fbm.variance(0.5, 7.3) == pytest.approx(7.3)
        assert fbm.variance(1.0, 2.0) == pytest.approx(8.0 / math.pi, rel=1e-12)

    def test_variance_overflow_is_a_domain_error(self):
        # t^(2H) beyond the double range, not a bare OverflowError
        with pytest.raises(DomainError, match=r"time 1e\+300 too large"):
            fbm.variance(1.4, 1e300)
        assert math.isfinite(fbm.variance(1.4, 1e100))

    def test_variance_equals_diagonal_covariance(self):
        for h in [0.2, 0.5, 0.75, 1.0, 1.3]:
            for t in [0.1, 1.0, 42.0]:
                assert fbm.covariance(h, t, t) == pytest.approx(
                    fbm.variance(h, t), rel=1e-10
                )

    @settings(max_examples=50, deadline=None)
    @given(
        h=st.floats(0.05, 1.45),
        s=st.floats(1e-3, 1e3),
        t=st.floats(1e-3, 1e3),
    )
    def test_symmetry_exact(self, h, s, t):
        assert fbm.covariance(h, s, t) == fbm.covariance(h, t, s)

    @settings(max_examples=40, deadline=None)
    @given(h=st.floats(0.05, 1.45), s=st.floats(0.01, 50.0), t=st.floats(0.01, 50.0))
    def test_self_similarity(self, h, s, t):
        base = fbm.covariance(h, s, t)
        for lam in (0.5, 2.0, 10.0):
            scaled = fbm.covariance(h, lam * s, lam * t)
            assert scaled == pytest.approx(lam ** (2 * h) * base, rel=1e-9)

    def test_matches_quadrature_identity(self):
        # Ito isometry: Cov = Gamma(H+1/2)^-2 int_0^s ((s-u)(t-u))^(H-1/2) du;
        # the (s-u)^(H-1/2) factor goes into QUADPACK's algebraic weight so
        # the endpoint singularity for H < 1/2 is integrated exactly
        from scipy.integrate import quad

        for h in [0.3, 0.75, 1.2]:
            for s, t in [(1.0, 1.0), (0.5, 2.0), (3.0, 3.1)]:
                if s == t:  # both kernel factors are singular at u = s
                    integrand, beta = (lambda u: 1.0), 2.0 * h - 1.0
                else:
                    integrand, beta = (lambda u: (t - u) ** (h - 0.5)), h - 0.5
                val, _ = quad(
                    integrand, 0.0, s, weight="alg", wvar=(0.0, beta), epsabs=1e-12
                )
                ref = val / math.gamma(h + 0.5) ** 2
                assert fbm.covariance(h, s, t) == pytest.approx(ref, rel=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            fbm.covariance(0.5, -1.0, 1.0)


class TestCorrelation:
    def test_equal_times(self):
        assert fbm.correlation(0.7, 3.0, 3.0) == 1.0

    def test_brownian_sqrt_ratio(self):
        for s, t in [(1.0, 4.0), (2.0, 50.0)]:
            assert fbm.correlation(0.5, s, t) == pytest.approx(math.sqrt(s / t), rel=1e-12)

    def test_flicker_wide_separation(self):
        # (4/3) sqrt(1/100) 2F1(1,-1/2;5/2;0.01)
        got = fbm.correlation(1.0, 1.0, 100.0)
        assert got == pytest.approx(0.1331, abs=2e-4)
        cov = fbm.covariance(1.0, 1.0, 100.0)
        norm = math.sqrt(fbm.variance(1.0, 1.0) * fbm.variance(1.0, 100.0))
        assert got == pytest.approx(cov / norm, rel=1e-12)

    def test_ratio_only_dependence(self):
        for h in [0.3, 0.9, 1.3]:
            a = fbm.correlation(h, 1.0, 7.0)
            b = fbm.correlation(h, 3.0, 21.0)
            assert a == pytest.approx(b, rel=1e-11)

    def test_asymptotic_prefactor(self):
        for h in [0.4, 1.0, 1.4]:
            r = 1e8
            got = fbm.correlation(h, 1.0, r) * math.sqrt(r)
            assert got == pytest.approx(4 * h / (2 * h + 1), rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            fbm.correlation(0.5, 0.0, 1.0)


class TestMixture:
    def test_single_white(self):
        mix = NoiseMixture.single(0.5)
        assert fbm.component_variances(mix, 3.7) == [pytest.approx(3.7)]

    def test_zero_coefficient_inert(self):
        mix = NoiseMixture.white_flicker(1.0, 0.0)
        assert fbm.component_variances(mix, 5.0) == [pytest.approx(5.0), 0.0]

    def test_additivity(self):
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        expected = 1.0 + 0.25 * 2.0 / math.pi
        assert sum(fbm.component_variances(mix, 1.0)) == pytest.approx(expected, rel=1e-12)


class TestCovarianceMatrix:
    def test_positive_semidefinite_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 51))
            ts = np.sort(rng.uniform(1e-3, 1e3, n))
            ts += np.arange(n) * 1e-9  # enforce strict increase
            h = float(rng.uniform(0.1, 1.45))
            K = fbm.covariance_matrix(h, TimeGrid(ts))
            eig = np.linalg.eigvalsh(K)
            assert eig.min() >= -1e-8 * np.trace(K)

    def test_matches_scalar_entries(self):
        ts = np.array([0.5, 1.0, 3.0, 10.0])
        K = fbm.covariance_matrix(0.85, TimeGrid(ts))
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                assert K[i, j] == pytest.approx(fbm.covariance(0.85, a, b), rel=1e-12)

    def test_mixture_is_weighted_sum(self):
        ts = TimeGrid(np.linspace(1.0, 5.0, 8))
        mix = NoiseMixture.white_flicker(2.0, 0.3)
        K = fbm.covariance_matrix(mix, ts)
        expected = 4.0 * fbm.covariance_matrix(0.5, ts) + 0.09 * fbm.covariance_matrix(1.0, ts)
        np.testing.assert_allclose(K, expected, rtol=1e-12)


# models of the bitwise checks against the pair-list assembly: generic H,
# H = 1/2 and H = 1 (elementary 2F1s), near-degenerate 2H, and mixtures
# with a zero coefficient and with three components
_ASSEMBLY_MODELS = {
    "0.3": 0.3,
    "0.5": 0.5,
    "0.75": 0.75,
    "1.0": 1.0,
    "1.25": 1.25,
    "0.99999": 0.99999,
    "white_flicker": NoiseMixture.white_flicker(1.0, 0.5),
    "zero_white": NoiseMixture.from_pairs([(0.5, 0.0), (1.0, 0.7)]),
    "three": NoiseMixture.from_pairs([(0.5, 1.0), (1.0, 0.5), (0.3, 0.2)]),
}


def _pair_assembly(model, ts):
    # the n(n+1)/2 upper-triangle pairs, listed row by row, through
    # fbm.cross_covariance in one call; each row written into K and mirrored
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


def _assert_assembly(model, ts):
    K = fbm.covariance_matrix(model, TimeGrid(ts))
    # bit for bit the elementwise kernel, so the packing and mirroring add
    # no rounding of their own
    assert np.array_equal(K, _pair_assembly(model, ts))
    # and the closed form, in mpmath, on a subgrid of about ten points
    sub = slice(None, None, max(1, ts.size // 10))
    want = _oracles.covariance_matrix_assembly(model, ts[sub])
    np.testing.assert_allclose(K[sub, sub], want, rtol=1e-12, atol=0.0)


class TestCovarianceMatrixAssembly:
    # 300 points give 45150 pairs: several 8192-value blocks of the 2F1 series
    @pytest.mark.parametrize("n", [1, 2, 64, 300])
    @pytest.mark.parametrize("name", list(_ASSEMBLY_MODELS))
    def test_bitwise_equal_to_pair_assembly(self, name, n):
        _assert_assembly(_ASSEMBLY_MODELS[name], np.linspace(1.0, 10.0, n))

    @pytest.mark.parametrize("name", ["1.0", "0.75", "white_flicker", "three"])
    def test_small_ratios_bitwise(self, name):
        # t0/t1 = 1e-3, so the H = 1 closed form hands z < 0.1 to its series
        _assert_assembly(_ASSEMBLY_MODELS[name], np.linspace(1e-3, 1.0, 300))

    def test_all_zero_coefficients(self):
        mix = NoiseMixture.from_pairs([(0.5, 0.0), (1.0, 0.0)])
        K = fbm.covariance_matrix(mix, TimeGrid(np.linspace(1.0, 2.0, 5)))
        assert np.array_equal(K, np.zeros((5, 5)))

    @pytest.mark.parametrize("name", ["0.75", "1.0", "white_flicker"])
    def test_working_memory_bounded(self, name):
        # tracemalloc counts numpy's buffers: at most K plus three packed
        # triangles of n(n+1)/2 doubles
        n = 1024
        grid = TimeGrid(np.linspace(1.0, 10.0, n))
        tracemalloc.start()
        try:
            fbm.covariance_matrix(_ASSEMBLY_MODELS[name], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 3 * 8 * n * (n + 1) // 2


class TestCrossCovariance:
    @pytest.mark.parametrize("h", [0.2, 0.75, 0.99999, 1.0, 1.3])
    def test_matrix_exactly_symmetric(self, h):
        rng = np.random.default_rng(23)
        ts = np.sort(rng.uniform(0.01, 100.0, 97))
        K = fbm.covariance_matrix(h, TimeGrid(ts))
        assert np.array_equal(K, K.T)

    def test_matrix_against_oracle(self):
        ts = np.array([0.3, 1.0, 1.01, 4.0, 50.0])
        for h in [0.3, 1.2]:
            K = fbm.covariance_matrix(h, TimeGrid(ts))
            for i, a in enumerate(ts):
                for j, b in enumerate(ts):
                    assert K[i, j] == pytest.approx(_oracles.mp_covariance(h, a, b), rel=1e-12)

    def test_near_degenerate_matrix_needs_no_mpmath(self, monkeypatch):
        import mpmath

        h = 0.99999
        ts = np.linspace(1.0, 10.0, 150)
        picks = [(0, 0), (0, 1), (3, 140), (75, 76), (149, 149), (20, 149), (100, 130)]
        ref = {ij: _oracles.mp_covariance(h, ts[ij[0]], ts[ij[1]]) for ij in picks}

        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.hyp2f1 called on the covariance path")

        monkeypatch.setattr(mpmath, "hyp2f1", refuse)
        K = fbm.covariance_matrix(h, TimeGrid(ts))
        for (i, j), r in ref.items():
            assert K[i, j] == pytest.approx(r, rel=1e-12)
            assert K[j, i] == K[i, j]

    @pytest.mark.parametrize(
        "model",
        [0.3, 0.99999, HurstExponent(1.0), NoiseMixture.white_flicker(2.0, 0.3),
         NoiseMixture.from_pairs([(0.25, 1.0), (0.5, 0.0), (1.4, 0.7)])],
    )
    def test_matches_scalar_covariance_broadcast(self, model):
        s = np.array([[0.0], [0.5], [2.0], [7.5]])
        t = np.array([0.0, 0.5, 1.0, 3.0, 7.5, 40.0])
        got = fbm.cross_covariance(model, s, t)
        assert got.shape == (4, 6)
        parts = (
            model.components if isinstance(model, NoiseMixture) else [(model, 1.0)]
        )
        for i in range(4):
            for j in range(6):
                ref = sum(
                    c * c * fbm.covariance(hurst, s[i, 0], t[j]) for hurst, c in parts
                )
                assert got[i, j] == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert np.array_equal(fbm.cross_covariance(model, t[:, None], s.T), got.T)

    def test_scalar_arguments(self):
        got = fbm.cross_covariance(0.75, 2.0, 3.0)
        assert got.shape == ()
        assert float(got) == pytest.approx(_oracles.mp_covariance(0.75, 2.0, 3.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            fbm.cross_covariance(0.5, np.array([1.0, bad]), 2.0)


def _shifted_matrix(shift):
    # a positive definite matrix whose least eigenvalue is moved to
    # -shift * mean(diag)
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    K = (q * np.linspace(1e-3, 1.0, 30)) @ q.T
    K -= (1e-3 + shift * np.mean(np.diag(K))) * np.outer(q[:, 0], q[:, 0])
    return (K + K.T) / 2.0


class TestSimulate:
    def test_deterministic_for_seed(self):
        grid = TimeGrid(np.linspace(1.0, 2.0, 16))
        a = fbm.simulate(0.8, grid, 4, seed=123)
        b = fbm.simulate(0.8, grid, 4, seed=123)
        assert np.array_equal(a, b)
        c = fbm.simulate(0.8, grid, 4, seed=124)
        assert not np.array_equal(a, c)

    def test_negative_seed(self):
        # numpy's own error would be a bare ValueError
        with pytest.raises(DomainError, match="seed must be >= 0"):
            fbm.simulate(0.8, TimeGrid(np.array([1.0])), 1, seed=-1)

    def test_single_point_variance(self):
        grid = TimeGrid(np.array([1.0]))
        x = fbm.simulate(NoiseMixture.single(0.5), grid, 100_000, seed=5)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(17)
        h = 0.75
        ts = np.sort(rng.uniform(0.5, 10.0, 5))
        grid = TimeGrid(ts)
        paths = fbm.simulate(h, grid, 100_000, seed=29)
        emp = np.cov(paths)
        npaths = paths.shape[1]
        for i in range(len(ts)):
            for j in range(i, len(ts)):
                ref = fbm.covariance(h, ts[i], ts[j])
                # SE of a covariance estimate from Gaussian samples
                se = math.sqrt(
                    (fbm.covariance(h, ts[i], ts[i]) * fbm.covariance(h, ts[j], ts[j]) + ref**2)
                    / npaths
                )
                assert abs(emp[i, j] - ref) < 3.0 * se, (i, j)

    def test_marginal_normality_ks(self):
        grid = TimeGrid(np.array([0.7, 2.2]))
        h = 1.0
        paths = fbm.simulate(h, grid, 10_000, seed=31)
        for i, t in enumerate(grid.points):
            z = paths[i] / math.sqrt(fbm.variance(h, float(t)))
            assert stats.kstest(z, "norm").pvalue > 0.01

    def test_jitter_repairs_near_singular_grid(self):
        # near-duplicate times give a numerically singular but PSD matrix;
        # the jitter ladder must quietly fix it
        ts = np.array([1.0, 1.0 + 1e-13, 1.0 + 2e-13, 2.0])
        x = fbm.simulate(0.9, TimeGrid(ts), 3, seed=0)
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize(
        "shift, eps", [(-1e-3, 0.0), (3e-12, 1e-11), (3e-9, 1e-8), (3e-7, 1e-6)]
    )
    def test_jitter_matches_identity_jitter(self, shift, eps):
        # the factor must be that of K + eps scale I
        K = _shifted_matrix(shift)
        L, used = _oracles.cholesky_eye_jitter(K)
        assert used == pytest.approx(eps, rel=1e-12)
        assert np.array_equal(fbm.cholesky_with_jitter(lambda: K.copy()), L)

    def test_decomposition_failure_loud(self):
        # an indefinite matrix is beyond what the bounded jitter may repair;
        # it is built for the first attempt and seven rungs, 1e-12 to 1e-6
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        built = []
        with pytest.raises(DecompositionError):
            fbm.cholesky_with_jitter(lambda: built.append(bad.copy()) or built[-1])
        assert len(built) == 8

    @pytest.mark.parametrize(
        "model", [0.3, 0.75, 1.0, 1.25, 0.99999, NoiseMixture.white_flicker(1.0, 0.5)]
    )
    def test_in_place_factor_bitwise_numpy(self, model):
        # the factor is numpy's private Cholesky gufunc writing over K; it
        # must give np.linalg.cholesky's bits, upper triangle zeroed included
        grid = TimeGrid(np.linspace(1.0, 10.0, 256))
        want = np.linalg.cholesky(fbm.covariance_matrix(model, grid))
        got = fbm.cholesky_with_jitter(lambda: fbm.covariance_matrix(model, grid))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shift, builds", [(-1e-3, 1), (3e-12, 3), (3e-7, 8)])
    def test_builder_called_once_per_attempt(self, shift, builds):
        # once for the first attempt and once per jitter rung tried; the
        # last factor is written over the last matrix built
        K = _shifted_matrix(shift)
        built = []
        L = fbm.cholesky_with_jitter(lambda: built.append(K.copy()) or built[-1])
        assert len(built) == builds
        assert L is built[-1]

    def test_monte_carlo_defining_integral(self):
        # covariance against MC of the discretised defining integral
        pairs = [(2.0, 7.0), (4.5, 5.0)]
        est, se = _oracles.mc_rl_covariance(
            0.75, pairs, t_max=8.0, n_disc=4000, n_paths=4000, seed=2
        )
        for (s, t), e, sd in zip(pairs, est, se):
            assert abs(e - fbm.covariance(0.75, s, t)) < 3.0 * sd


class TestSimulateTrace:
    def test_deterministic(self):
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        a = fbm.simulate_trace(mix, 1000, 1.0, seed=7)
        b = fbm.simulate_trace(mix, 1000, 1.0, seed=7)
        assert np.array_equal(a, b)

    def test_white_increments_iid(self):
        x = fbm.simulate_trace(NoiseMixture.single(0.5), 40_000, 0.5, seed=9)
        inc = np.diff(x)
        assert np.std(inc) == pytest.approx(math.sqrt(0.5), rel=0.02)
        assert abs(np.corrcoef(inc[:-1], inc[1:])[0, 1]) < 0.02

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("h", [0.3, 1.0, 1.25])
    def test_short_traces_pinned(self, h, n):
        # the part the drawn differences do not see is zero: the first
        # sample for increments (H < 1/2), the first two for second differences
        x = fbm.simulate_trace(NoiseMixture.single(h, 0.7), n, 0.5, seed=5)
        pinned = 1 if h < 0.5 else 2
        assert x.shape == (n,)
        assert np.all(x[:pinned] == 0.0)
        assert np.all(np.isfinite(x[pinned:])) and np.all(x[pinned:] != 0.0)

    def test_zero_coefficient_draws_nothing(self):
        # a zero component takes nothing from the stream
        with_zeros = NoiseMixture.from_pairs([(1.0, 0.0), (0.5, 1.0), (1.25, 0.0), (0.3, 0.0)])
        got = fbm.simulate_trace(with_zeros, 500, 1.0, seed=3)
        assert np.array_equal(got, fbm.simulate_trace(NoiseMixture.single(0.5), 500, 1.0, seed=3))
        none = NoiseMixture.from_pairs([(1.0, 0.0), (0.3, 0.0)])
        assert np.array_equal(fbm.simulate_trace(none, 7, 1.0, seed=3), np.zeros(7))

    @pytest.mark.parametrize("seed", [1, 3, 8])
    @pytest.mark.parametrize("h", [0.3, 1.0, 1.25])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_matches_direct_convolution(self, n, h, seed):
        # the FFT pair against direct cosine and sine sums over the same
        # draws, from the 50-digit autocovariance; most of what is left is
        # the rounding of the smallest eigenvalue, about 1e-12 of itself
        mix = NoiseMixture.single(h, 0.7)
        got = fbm.simulate_trace(mix, n, 0.5, seed=seed)
        want = _oracles.embedded_trace_direct(mix, n, 0.5, seed)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [1, 3, 8])
    @pytest.mark.parametrize(
        "pairs",
        [
            ((0.5, 1.0), (1.0, 0.5)),
            ((0.3, 0.7), (0.5, 1.0), (1.0, 0.0), (1.25, 0.2)),
        ],
    )
    def test_mixture_matches_direct_convolution(self, pairs, seed):
        mix = NoiseMixture.from_pairs(pairs)
        got = fbm.simulate_trace(mix, 1000, 1.0, seed=seed)
        want = _oracles.embedded_trace_direct(mix, 1000, 1.0, seed)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "h", [0.001, 0.05, 0.3, 0.49, 0.51, 0.75, 1.0, 1.26, 1.3, 1.49, 1.4999]
    )
    def test_embedding_nonnegative_at_every_size(self, h):
        # DecompositionError would be raised on a negative eigenvalue
        for n in [3, 4, 5, 6, 13, 100, 1001, 10007, 2**17 + 3]:
            x = fbm.simulate_trace(NoiseMixture.single(h), n, 1.0, seed=n)
            assert np.all(np.isfinite(x))

    def test_second_differences_below_one_half_not_embeddable(self):
        # their autocovariance has a positive tail, which the circulant's
        # row misses, so its zero-frequency eigenvalue is negative
        with pytest.raises(DecompositionError, match="eigenvalue"):
            fbm._embedded_draws(0.3, 2, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("h", [0.3, 0.75, 1.0, 1.25, 1.49])
    def test_second_difference_law_chi_square(self, h):
        # one trace of 16 samples per pinned seed: at lag j of the lag-dt
        # second differences d, the sum and the difference of d[2] and
        # d[2 + j] have variance 2 (gamma(0) +- gamma(j)); over independent
        # traces their scaled sums of squares are chi-square with one degree
        # of freedom per trace
        reps, coeff, dt = 2000, 0.7, 0.5
        mix = NoiseMixture.single(h, coeff)
        d = np.array([np.diff(fbm.simulate_trace(mix, 16, dt, seed=s), 2) for s in range(reps)])
        scale = coeff * coeff * dt ** (2.0 * h)
        gamma = {j: scale * _oracles.mp_diff_autocovariance(h, j) for j in (0, 1, 2, 10)}
        lo, hi = stats.chi2.ppf([1e-4, 1.0 - 1e-4], reps)
        assert lo < np.sum(d[:, 2] ** 2) / gamma[0] < hi
        for j in (1, 2, 10):
            for sign in (1.0, -1.0):
                u = d[:, 2] + sign * d[:, 2 + j]
                stat = np.sum(u * u) / (2.0 * (gamma[0] + sign * gamma[j]))
                assert lo < stat < hi, (j, sign, stat)

    @pytest.mark.parametrize("h", [0.3, 1.0, 1.25])
    def test_three_samples_one_exact_difference(self, h):
        # the smallest embedding: one second difference, variance C(H) dt^(2H)
        reps = 2000
        mix = NoiseMixture.single(h)
        x = np.array([fbm.simulate_trace(mix, 3, 2.0, seed=s) for s in range(reps)])
        d = x[:, 2] - 2.0 * x[:, 1] + x[:, 0]
        stat = np.sum(d * d) / (allan.avar_constant(h) * 2.0 ** (2.0 * h))
        assert stats.chi2.ppf(1e-4, reps) < stat < stats.chi2.ppf(1.0 - 1e-4, reps)

    @pytest.mark.parametrize("h", [0.3, 1.0, 1.25])
    def test_lag_one_variance_of_long_trace(self, h):
        # the mean square of N stationary second differences has variance
        # (2/N^2) sum_ij gamma(i-j)^2, which fixes it to about 0.2% here
        n = 1 << 20
        x = fbm.simulate_trace(NoiseMixture.single(h), n + 2, 1.0, seed=17)
        d = np.diff(x, 2)
        gamma = fbm._diff_autocovariance(h, 2, n - 1)
        k = np.arange(1, n)
        var = 2.0 * (n * gamma[0] ** 2 + 2.0 * np.sum((n - k) * gamma[1:] ** 2)) / n**2
        assert abs(np.mean(d * d) - gamma[0]) < 4.0 * math.sqrt(var)

    def test_white_coefficient_unbiased_over_seeds(self):
        # lag 1 pins c_white to about 0.1% a trace, so a bias of the
        # lag-one second-difference law shows as an offset over seeds
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        fits = []
        for seed in range(16):
            x = fbm.simulate_trace(mix, 10**6, 1.0, seed=seed)
            curve = allan.estimate(allan.PhaseTrace(dt=1.0, samples=x), range(1, 101))
            fits.append(allan.fit_mixture(curve).c_white)
        se = np.std(fits, ddof=1) / math.sqrt(len(fits))
        assert abs(np.mean(fits) - 1.0) < 2.0 * se, (np.mean(fits), se)

    def test_overflow_is_a_domain_error(self):
        mix = NoiseMixture.white_flicker(1e200, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                fbm.simulate_trace(mix, 4, 1e200, seed=1)

    def test_validation(self):
        mix = NoiseMixture.single(1.0)
        with pytest.raises(DomainError):
            fbm.simulate_trace(mix, 0, 1.0, seed=0)
        with pytest.raises(DomainError):
            fbm.simulate_trace(mix, 10, -1.0, seed=0)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            fbm.simulate_trace(mix, 10, 1.0, seed=-1)
