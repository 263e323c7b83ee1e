import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnoise import specfun
from oscnoise.errors import ConvergenceError, DomainError

import _oracles


class TestHyp2F1:
    def test_h_half_is_one(self):
        for z in [0.0, 0.3, 0.8, 0.97, 1.0]:
            assert float(specfun.hyp2f1_curve(0.5, z)) == 1.0

    def test_gauss_summation_at_one(self):
        # at z=1 the value is (H+1/2)/(2H); H=1 gives 0.75, confirmed by
        # direct summation just below 1 where the tail still decays
        val = float(specfun.hyp2f1_curve(1.0, 1.0))
        assert val == pytest.approx(0.75, abs=1e-14)
        direct = _oracles.series_2f1_tail_sum(1.0, 1.0 - 1e-8)
        assert val == pytest.approx(direct, abs=1e-7)

    def test_series_head_at_zero(self):
        assert float(specfun.hyp2f1_curve(1.0, 0.0)) == 1.0

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.49, 0.51, 0.75, 0.999, 1.0, 1.2, 1.45])
    def test_matches_mpmath_across_z(self, h):
        for z in [0.0, 0.1, 0.5, 0.79, 0.81, 0.9, 0.999, 1.0 - 1e-12, 1.0]:
            got = float(specfun.hyp2f1_curve(h, z))
            ref = _oracles.mp_hyp2f1(h, z)
            assert got == pytest.approx(ref, rel=5e-13), (h, z)

    def test_near_degenerate_fallback(self):
        # within 1e-4 of 2H integer the transformed series cancels; the
        # fallback path must still deliver full precision

        for h in [0.5 + 3e-5, 1.0 - 2e-5, 1.5 - 4e-5]:
            for z in [0.85, 0.99]:
                got = float(specfun.hyp2f1_curve(h, z))
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
        got = float(specfun.hyp2f1_curve(h, z))
        assert got == pytest.approx(_oracles.integral_identity_2f1(h, z), abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp2f1_curve(1.0, 1.5)  # z > 1
        with pytest.raises(DomainError):
            specfun.hyp2f1_curve(1.0, -0.1)  # z < 0
        for h in (0.0, -0.5, 1.5, 2.0, math.nan):  # H outside (0, 3/2)
            with pytest.raises(DomainError):
                specfun.hyp2f1_curve(h, [0.3, 0.9])

    def test_max_terms_cap(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError, match="exceeded 5 terms"):
            specfun.hyp2f1_curve(0.3, 0.5)


# the H grid of the 1F2 error-estimate sweep, across (0, 3/2)
SWEEP_H = [0.01, 0.1, 0.3, 0.5, 0.75, 0.999, 1.0, 1.25, 1.49]
# (b1 - H, b2 - H) of the instantaneous and the time-averaged family
FAMILIES = [(1.0, 1.5), (1.5, 2.0)]


def _leading_term(h: float, d1: float, s: float) -> float:
    # the power law both families approach: Gamma(2H + 2 d1) / (2s)^(2H+1)
    return math.gamma(2.0 * h + 2.0 * d1) / (2.0 * s) ** (2.0 * h + 1.0)


class TestHyp1F2:
    def test_empty_tail_at_zero(self):
        res = specfun.hyp1f2(1.0, 1.5, 2.0, 0.0)
        assert res.value == 1.0 and res.branch == "series"

    @pytest.mark.parametrize("h", [0.01, 0.5, 1.49])
    def test_tiny_argument_is_one(self, h):
        # s^-(2H+1) of the closed form would overflow here; the series does not
        for d1, d2 in FAMILIES:
            res = specfun.hyp1f2(h + 0.5, h + d1, h + d2, -1e-300)
            assert res.value == pytest.approx(1.0, abs=1e-15) and res.branch == "series"

    def test_series_matches_highprecision_sum(self):
        # H = 1/2, x = -1: also equals sin(1)^2 in closed form
        res = specfun.hyp1f2(1.0, 1.5, 2.0, -1.0)
        assert res.value == pytest.approx(_oracles.mp_hyp1f2(1.0, 1.5, 2.0, -1.0), abs=1e-10)
        assert res.value == pytest.approx(math.sin(1.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.75, 1.0, 1.4])
    @pytest.mark.parametrize(
        "s", [0.5, 1.0, 2.0, 5.0, 12.0, 13.2, 15.0, 29.0, 31.0, 80.0, 500.0]
    )
    def test_both_families_match_reference(self, h, s):
        for b1, b2 in [(h + 1.0, h + 1.5), (h + 1.5, h + 2.0)]:
            res = specfun.hyp1f2(h + 0.5, b1, b2, -s * s)
            ref = _oracles.mp_hyp1f2(h + 0.5, b1, b2, -s * s, dps=120)
            # branch error estimates are absolute; check against them
            budget = max(res.error_estimate * 3.0, abs(ref) * 1e-9, 1e-18)
            assert abs(res.value - ref) <= budget, (h, s, b1, res)

    @pytest.mark.parametrize("h", SWEEP_H)
    @pytest.mark.parametrize("d1, d2", FAMILIES)
    def test_error_estimate_honest_and_tight(self, h, d1, d2):
        # every value within its error estimate of the reference sum, and the
        # estimate within 1e-11 of the larger of |F| and the leading power
        # law; s in [3, 15] holds the first zero crossings of the
        # instantaneous family for H > 1/2
        grid = np.concatenate([np.logspace(-6, math.log10(500.0), 61), np.linspace(3.0, 15.0, 49)])
        for s in grid.tolist():
            res = specfun.hyp1f2(h + 0.5, h + d1, h + d2, -s * s)
            ref = _oracles.mp_hyp1f2(h + 0.5, h + d1, h + d2, -s * s)
            # the reference is itself rounded to a double
            assert abs(res.value - ref) <= res.error_estimate + abs(ref) * 2.0**-53, (s, res, ref)
            bound = 1e-11 * max(abs(ref), _leading_term(h, d1, s))
            assert res.error_estimate <= bound, (s, res, ref)

    def test_error_estimate_covers_rounded_roots(self):
        # s = sqrt(-x) rounds, which moves the phase of the oscillation by up
        # to X 2^-53: the value is moved back to first order and the second
        # order is in the estimate, out to s = 1e12.  Dyadic H keeps the three
        # parameters exact, so the reference is the very family evaluated
        rng = np.random.default_rng(4)
        for h in (0.25, 0.75, 1.484375):
            for d1, d2 in FAMILIES:
                for s in np.exp(rng.uniform(math.log(100.0), math.log(1e12), 40)).tolist():
                    res = specfun.hyp1f2(h + 0.5, h + d1, h + d2, -s * s)
                    ref = _oracles.mp_hyp1f2(h + 0.5, h + d1, h + d2, -s * s)
                    assert abs(res.value - ref) <= res.error_estimate + abs(ref) * 2.0**-53, (h, s)

    def test_cross_branch_consistency(self):
        # the series at s = 1 and the closed form one ulp above meet without
        # a step, for every H and both families
        above = math.nextafter(1.0, 2.0)
        for h in SWEEP_H:
            for d1, d2 in FAMILIES:
                lo = specfun.hyp1f2(h + 0.5, h + d1, h + d2, -1.0)
                hi = specfun.hyp1f2(h + 0.5, h + d1, h + d2, -above * above)
                assert lo.branch == "series" and hi.branch == "bessel"
                assert abs(hi.value - lo.value) <= lo.error_estimate + hi.error_estimate + 1e-15
        # H = 1/2 has the elementary form (1 - cos(2s))/(2 s^2)
        res = specfun.hyp1f2(1.0, 1.5, 2.0, -(50.0**2))
        exact = (1.0 - math.cos(100.0)) / (2.0 * 50.0**2)
        assert res.value == pytest.approx(exact, rel=1e-9)

    def test_branch_agreement_window(self):
        # around the switch at s = 1: the series at and below it, the closed
        # form above, both within their error estimates of the reference
        for s in np.linspace(0.5, 2.0, 16).tolist():
            for h in (0.3, 1.25):
                for d1, d2 in FAMILIES:
                    res = specfun.hyp1f2(h + 0.5, h + d1, h + d2, -s * s)
                    ref = _oracles.mp_hyp1f2(h + 0.5, h + d1, h + d2, -s * s)
                    assert res.branch == ("series" if s <= 1.0 else "bessel")
                    assert abs(res.value - ref) <= res.error_estimate + abs(ref) * 2.0**-53

    def test_error_metadata_flags_branch(self):
        res = specfun.hyp1f2(1.5, 2.5, 3.0, -(40.0**2))
        ref = _oracles.mp_hyp1f2(1.5, 2.5, 3.0, -(40.0**2))
        assert res.branch == "bessel"
        assert 0.0 < res.error_estimate <= 1e-11 * abs(ref)
        assert abs(res.value - ref) <= res.error_estimate

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp1f2(1.0, 1.5, 2.0, 0.5)  # positive argument
        with pytest.raises(DomainError):
            specfun.hyp1f2(1.0, 1.4, 2.0, -1.0)  # wrong family
        with pytest.raises(DomainError):
            specfun.hyp1f2(2.2, 3.2, 3.7, -1.0)  # H out of range
        for x in (math.nan, -math.inf, -1e30):  # not finite; s beyond 5e14
            with pytest.raises(DomainError):
                specfun.hyp1f2(1.0, 1.5, 2.0, x)


class TestSpectralKernel:
    @pytest.mark.parametrize("h", [0.05, 0.3, 0.5, 0.75, 1.0, 1.25, 1.49])
    @pytest.mark.parametrize(
        "family, d1, d2", [("instantaneous", 1.0, 1.5), ("averaged", 1.5, 2.0)]
    )
    def test_within_error_estimate_at_double_s(self, h, family, d1, d2):
        # one array call over both branches: s = 1 and its neighbours, where
        # the series hands over to the closed form, and the largest s
        s = np.array([math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
                      math.nextafter(5e14, 0.0), 5e14])
        values, errors, branches = specfun._spectral_1f2(h, s, family)
        assert branches.tolist() == ["series"] * 2 + ["bessel"] * 3
        for si, value, err in zip(s.tolist(), values.tolist(), errors.tolist()):
            assert _oracles.mp_spectral_1f2_miss(h, d1, d2, si, value) <= err, (si, value, err)


def _theta3(z, q):
    # theta_3(z | q) is the unit-period wrapped Gaussian density at z/pi
    # with variance -ln(q)/(2 pi^2), 0 < q < 1
    return float(specfun.wrapped_gaussian(z / math.pi, -math.log(q) / (2.0 * math.pi**2)))


class TestTheta3:
    def test_truncated_series_value(self):
        # 1 + 2 q + 2 q^4 + 2 q^9 + ...
        assert _theta3(0.0, 0.1) == pytest.approx(1.2002000020000002, abs=1e-12)

    def test_alternating_value(self):
        # cos(2n pi/2) = (-1)^n
        assert _theta3(math.pi / 2, 0.1) == pytest.approx(0.800199998, abs=1e-9)

    @pytest.mark.parametrize("q", [0.2, 0.6, 0.85, 0.88, 0.91, 0.95, 0.999])
    def test_matches_mpmath(self, q):
        for z in [0.0, 0.7, 2.0, math.pi / 2]:
            assert _theta3(z, q) == pytest.approx(
                _oracles.mp_theta3(z, q), rel=1e-11, abs=1e-13
            )

    def test_dual_branch_agreement_overlap(self):
        # both representations available in the switch neighbourhood (q = 1/e)
        for q in np.linspace(0.3, 0.45, 8):
            for z in np.linspace(0.0, math.pi, 9):
                ser = specfun._wrapped_images(
                    np.array([z / math.pi]), np.array([-math.log(q) / (2.0 * math.pi**2)]),
                    specfun._IMAGE_TERMS, False,
                )[0]
                direct = _theta3(z, min(q, math.exp(-1.0)))
                if q <= math.exp(-1.0):
                    assert abs(ser - direct) < 1e-10

    def test_term_counts_follow_truncation_rule(self):
        # the fixed counts are those the truncation rule gives at the split
        root = math.sqrt(math.log(2.0 / min(specfun._ABS_TOL, specfun._REL_TOL)))
        assert specfun._THETA_TERMS == math.floor(root)
        assert specfun._IMAGE_TERMS == math.ceil(root / math.pi)

    def test_wrapped_gaussian_branches_agree_at_switch(self):
        # image sum below v0, theta series from v0 on; a few ulp either side
        v0 = 1.0 / (2.0 * math.pi**2)
        v = v0 * (1.0 + 2.0**-52 * np.arange(-4, 5))
        for x in np.linspace(0.0, 0.5, 11):
            dens = specfun.wrapped_gaussian(x, v)
            mass = specfun.wrapped_gaussian(x, v, mass=True)
            assert np.ptp(dens) <= 4e-15 * dens.max(), x  # a few ulp
            assert np.ptp(mass) <= 1e-15, x

    @settings(max_examples=60, deadline=None)
    @given(
        z=st.floats(-10.0, 10.0),
        q=st.floats(0.0, 0.99, exclude_min=True),
    )
    def test_periodicity(self, z, q):
        assert _theta3(z, q) == pytest.approx(
            _theta3(z + math.pi, q), rel=1e-12, abs=1e-12
        )

    def test_normalization(self):
        from scipy.integrate import quad

        for q in [0.3, 0.9, 0.97]:
            val, _ = quad(lambda z: _theta3(z, q), 0.0, math.pi, epsabs=1e-11, limit=200)
            assert val / math.pi == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("v", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mass", [False, True])
    def test_wrapped_gaussian_rejects_variance(self, v, mass):
        with pytest.raises(DomainError, match="variance"):
            specfun.wrapped_gaussian(0.25, v, mass=mass)
        with pytest.raises(DomainError, match="variance"):
            specfun.wrapped_gaussian(0.25, [0.1, v, 0.2], mass=mass)

    @pytest.mark.parametrize(
        "x,mass",
        [
            (math.nan, False), (math.inf, False), (-math.inf, False),
            (0.7, True), (-0.2, True), (math.nan, True), (math.inf, True),
        ],
    )
    def test_wrapped_gaussian_rejects_x(self, x, mass):
        with pytest.raises(DomainError):
            specfun.wrapped_gaussian(x, 0.1, mass=mass)
        with pytest.raises(DomainError):
            specfun.wrapped_gaussian([0.1, x], 0.1, mass=mass)

    def test_wrapped_gaussian_accepts_window_ends(self):
        v = np.array([0.01, 0.1])  # one on each side of the branch split
        assert np.all(specfun.wrapped_gaussian(0.0, v, mass=True) == 0.0)
        np.testing.assert_allclose(specfun.wrapped_gaussian(0.5, v, mass=True), 1.0, rtol=1e-15)
        # the density takes any finite x, being periodic
        np.testing.assert_allclose(
            specfun.wrapped_gaussian(3.3, v), specfun.wrapped_gaussian(0.3, v), rtol=1e-12
        )
