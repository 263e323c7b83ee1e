import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnoise import specfun
from oscnoise.errors import ConvergenceError, DomainError

import _oracles


class TestTolerance:
    def test_defaults_valid(self):
        tol = specfun.Tolerance()
        assert tol.abs_tol > 0 and tol.rel_tol > 0 and tol.max_terms >= 1

    @pytest.mark.parametrize(
        "kwargs", [{"abs_tol": 0.0}, {"rel_tol": -1e-9}, {"max_terms": 0}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            specfun.Tolerance(**kwargs)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("OSCNOISE_ABS_TOL", "1e-10")
        monkeypatch.setenv("OSCNOISE_MAX_TERMS", "500")
        tol = specfun.default_tolerance()
        assert tol.abs_tol == 1e-10
        assert tol.max_terms == 500

    @pytest.mark.parametrize(
        "name, value",
        [
            ("OSCNOISE_ABS_TOL", "1e-"),
            ("OSCNOISE_REL_TOL", "abc"),
            ("OSCNOISE_MAX_TERMS", "1e6"),
        ],
    )
    def test_malformed_env_names_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(DomainError, match=name):
            specfun.default_tolerance()


class TestGamma:
    def test_known_values(self):
        assert specfun.gamma(1.0) == 1.0
        assert specfun.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
        assert specfun.gamma(2.0) == 1.0  # Gamma(2H+1) at H = 1/2

    def test_recurrence(self):
        for x in np.linspace(0.1, 10.0, 34):
            lhs = specfun.gamma(x + 1.0)
            assert abs(lhs - x * specfun.gamma(x)) / lhs < 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            specfun.gamma(x)


class TestHyp2F1:
    def test_h_half_is_one(self):
        for z in [0.0, 0.3, 0.8, 0.97, 1.0]:
            assert specfun.hyp2f1_restricted(1.0, 0.0, 2.0, z) == 1.0

    def test_gauss_summation_at_one(self):
        # at z=1 the value is (H+1/2)/(2H); H=1 gives 0.75, confirmed by
        # direct summation just below 1 where the tail still decays
        val = specfun.hyp2f1_restricted(1.0, -0.5, 2.5, 1.0)
        assert val == pytest.approx(0.75, abs=1e-14)
        direct = _oracles.series_2f1_tail_sum(1.0, 1.0 - 1e-8)
        assert val == pytest.approx(direct, abs=1e-7)

    def test_series_head_at_zero(self):
        assert specfun.hyp2f1_restricted(1.0, -0.5, 2.5, 0.0) == 1.0

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.49, 0.51, 0.75, 0.999, 1.0, 1.2, 1.45])
    def test_matches_mpmath_across_z(self, h):
        for z in [0.0, 0.1, 0.5, 0.79, 0.81, 0.9, 0.999, 1.0 - 1e-12, 1.0]:
            got = specfun.hyp2f1_restricted(1.0, 0.5 - h, h + 1.5, z)
            ref = _oracles.mp_hyp2f1(h, z)
            assert got == pytest.approx(ref, rel=5e-13), (h, z)

    def test_near_degenerate_fallback(self):
        # within 1e-4 of 2H integer the transformed series cancels; the
        # fallback path must still deliver full precision

        for h in [0.5 + 3e-5, 1.0 - 2e-5, 1.5 - 4e-5]:
            for z in [0.85, 0.99]:
                got = specfun.hyp2f1_restricted(1.0, 0.5 - h, h + 1.5, z)
                assert got == pytest.approx(_oracles.mp_hyp2f1(h, z), rel=1e-11)

    @pytest.mark.parametrize("h", [3e-5, 0.49999, 0.50002, 0.99999, 1.00004, 1.49999])
    def test_near_degenerate_sweep(self, h):
        # 2H within 1e-4 of 0, 1, 2 and 3, up to and onto the z = 1 endpoint
        zs = np.array([0.81, 0.9, 0.99, 1.0 - 1e-9, 1.0])
        got = specfun.hyp2f1_curve(h, zs)
        for g, z in zip(got, zs):
            assert g == pytest.approx(_oracles.mp_hyp2f1(h, z), rel=1e-12), (h, z)

    def test_near_degenerate_needs_no_mpmath(self, monkeypatch):
        import mpmath

        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.hyp2f1 called on the 2F1 path")

        zs = np.linspace(0.0, 1.0, 201)
        ref = [_oracles.mp_hyp2f1(0.99999, z) for z in zs]
        monkeypatch.setattr(mpmath, "hyp2f1", refuse)
        np.testing.assert_allclose(specfun.hyp2f1_curve(0.99999, zs), ref, rtol=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.75, 1.25])
    def test_curve_unsorted_and_shaped(self, h):
        # values come back in input order and shape, across block boundaries
        rng = np.random.default_rng(5)
        z = rng.uniform(0.0, 1.0, (3, 7000))
        z[0, :3] = [1.0, 0.0, specfun._SERIES_SWITCH]
        got = specfun.hyp2f1_curve(h, z)
        assert got.shape == z.shape
        for idx in [(0, 0), (0, 1), (0, 2), (1, 17), (2, 6999)] + [
            tuple(i) for i in rng.integers(0, [3, 7000], (20, 2))
        ]:
            assert got[idx] == pytest.approx(_oracles.mp_hyp2f1(h, z[idx]), rel=5e-13)

    @pytest.mark.parametrize("h", [0.3, 0.5, 1.0, 1.4])
    @pytest.mark.parametrize("z", [0.0, 0.5, 0.99])
    def test_integral_identity(self, h, z):
        # the hypergeometric factor equals (H+1/2) times the kernel
        # integral used to derive the covariance
        got = specfun.hyp2f1_restricted(1.0, 0.5 - h, h + 1.5, z)
        assert got == pytest.approx(_oracles.integral_identity_2f1(h, z), abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp2f1_restricted(2.0, -0.5, 2.5, 0.5)  # a != 1
        with pytest.raises(DomainError):
            specfun.hyp2f1_restricted(1.0, -0.5, 3.0, 0.5)  # b + c != 2
        with pytest.raises(DomainError):
            specfun.hyp2f1_restricted(1.0, -0.5, 2.5, 1.5)  # z > 1
        with pytest.raises(DomainError):
            specfun.hyp2f1_restricted(1.0, 0.5, 1.5, 0.5)  # H = 0
        with pytest.raises(DomainError):
            specfun.hyp2f1_restricted(1.0, -0.5, 2.5, -0.1)

    def test_max_terms_cap(self):
        tol = specfun.Tolerance(abs_tol=1e-30, rel_tol=1e-30, max_terms=5)
        with pytest.raises(ConvergenceError):
            specfun.hyp2f1_restricted(1.0, 0.5 - 0.3, 0.3 + 1.5, 0.5, tol=tol)


class TestHyp1F2:
    def test_empty_tail_at_zero(self):
        res = specfun.hyp1f2(1.0, 1.5, 2.0, 0.0)
        assert res.value == 1.0 and res.branch == "series"

    def test_series_matches_highprecision_sum(self):
        # H = 1/2, x = -1: also equals sin(1)^2 in closed form
        res = specfun.hyp1f2(1.0, 1.5, 2.0, -1.0)
        assert res.value == pytest.approx(_oracles.mp_hyp1f2(1.0, 1.5, 2.0, -1.0), abs=1e-10)
        assert res.value == pytest.approx(math.sin(1.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.75, 1.0, 1.4])
    @pytest.mark.parametrize("s", [0.5, 5.0, 15.0, 29.0, 31.0, 80.0, 500.0])
    def test_both_families_match_reference(self, h, s):
        for b1, b2 in [(h + 1.0, h + 1.5), (h + 1.5, h + 2.0)]:
            res = specfun.hyp1f2(h + 0.5, b1, b2, -s * s)
            ref = _oracles.mp_hyp1f2(h + 0.5, b1, b2, -s * s, dps=120)
            # branch error estimates are absolute; check against them
            budget = max(res.error_estimate * 3.0, abs(ref) * 1e-9, 1e-18)
            assert abs(res.value - ref) <= budget, (h, s, b1, res)

    def test_cross_branch_consistency(self):
        # spectrum at H=1/2, t=1, omega=50: series branch (forced by a
        # high crossover) against the default asymptotic branch
        x = -(50.0**2)
        asym = specfun.hyp1f2(1.0, 1.5, 2.0, x)
        series = specfun.hyp1f2(1.0, 1.5, 2.0, x, crossover=100.0)
        assert asym.branch == "asymptotic" and series.branch == "series"
        assert asym.value == pytest.approx(series.value, rel=1e-2)
        # both agree with the closed form (1 - cos(2x))/(2 x^2) to much better
        exact = (1.0 - math.cos(100.0)) / (2.0 * 50.0**2)
        assert asym.value == pytest.approx(exact, rel=1e-9)

    def test_branch_agreement_window(self):
        # overlap window around the native-series limit
        for h in [0.5, 1.0]:
            for s in [20.0, 25.0]:
                x = -s * s
                ser = specfun.hyp1f2(h + 0.5, h + 1.0, h + 1.5, x, crossover=1e9)
                asy = specfun.hyp1f2(h + 0.5, h + 1.0, h + 1.5, x, crossover=1.0)
                assert ser.branch == "series" and asy.branch == "asymptotic"
                assert abs(ser.value - asy.value) <= 1e-5 * max(abs(ser.value), 1e-6)

    def test_error_metadata_flags_branch(self):
        res = specfun.hyp1f2(1.5, 2.5, 3.0, -(40.0**2))
        assert res.branch == "asymptotic"
        assert res.error_estimate >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp1f2(1.0, 1.5, 2.0, 0.5)  # positive argument
        with pytest.raises(DomainError):
            specfun.hyp1f2(1.0, 1.4, 2.0, -1.0)  # wrong family
        with pytest.raises(DomainError):
            specfun.hyp1f2(2.2, 3.2, 3.7, -1.0)  # H out of range


class TestTheta3:
    def test_q_zero(self):
        for z in [0.0, 1.0, -3.4]:
            assert specfun.theta3(z, 0.0) == 1.0

    def test_truncated_series_value(self):
        # 1 + 2 q + 2 q^4 + 2 q^9 + ...
        assert specfun.theta3(0.0, 0.1) == pytest.approx(1.2002000020000002, abs=1e-12)

    def test_alternating_value(self):
        # cos(2n pi/2) = (-1)^n
        assert specfun.theta3(math.pi / 2, 0.1) == pytest.approx(0.800199998, abs=1e-9)

    @pytest.mark.parametrize("q", [0.2, 0.6, 0.85, 0.88, 0.91, 0.95, 0.999])
    def test_matches_mpmath(self, q):
        for z in [0.0, 0.7, 2.0, math.pi / 2]:
            assert specfun.theta3(z, q) == pytest.approx(
                _oracles.mp_theta3(z, q), rel=1e-11, abs=1e-13
            )

    def test_dual_branch_agreement_overlap(self):
        # both representations available in the switch neighbourhood
        for q in np.linspace(0.85, 0.92, 8):
            for z in np.linspace(0.0, math.pi, 9):
                ser = specfun._theta3_wrapped(z, q, specfun.default_tolerance())
                direct = specfun.theta3(z, min(q, 0.9))
                if q <= 0.9:
                    assert abs(ser - direct) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        z=st.floats(-10.0, 10.0),
        q=st.floats(0.0, 0.99, exclude_max=False),
    )
    def test_periodicity(self, z, q):
        assert specfun.theta3(z, q) == pytest.approx(
            specfun.theta3(z + math.pi, q), rel=1e-12, abs=1e-12
        )

    def test_normalization(self):
        from scipy.integrate import quad

        for q in [0.3, 0.9, 0.97]:
            val, _ = quad(lambda z: specfun.theta3(z, q), 0.0, math.pi, epsabs=1e-11, limit=200)
            assert val / math.pi == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [-0.1, 1.0, 1.5])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            specfun.theta3(0.0, q)


class TestGaussian:
    def test_pdf_peak(self):
        assert specfun.gaussian_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_cdf_symmetry(self):
        assert specfun.gaussian_cdf(0.0) == 0.5
        assert specfun.gaussian_cdf(1.3, mu=1.3, sigma=2.0) == 0.5

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            specfun.gaussian_pdf(0.0, sigma=0.0)
