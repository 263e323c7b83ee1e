import math

import numpy as np
import pytest

from oscnoise import fbm, spectrum
from oscnoise.errors import DomainError
from oscnoise.fbm import TimeGrid

import _oracles

# H across (0, 3/2)
SWEEP_H = [0.01, 0.1, 0.3, 0.5, 0.75, 0.999, 1.0, 1.25, 1.49]


class TestInstantaneous:
    def test_small_omega_limit(self):
        # 1F2 head is 1, so S -> 2^(2H+1) t^(2H+1) / Gamma(2H+2)
        pt = spectrum.instantaneous(0.5, 1.0, 1e-9)
        assert pt.value == pytest.approx(4.0 / math.gamma(3.0), rel=1e-6)
        for h, t in [(0.3, 2.0), (1.2, 0.7)]:
            pt = spectrum.instantaneous(h, t, 1e-9 / t)
            lim = 2.0 ** (2 * h + 1) * t ** (2 * h + 1) / math.gamma(2 * h + 2)
            assert pt.value == pytest.approx(lim, rel=1e-6)

    def test_brownian_phase_closed_form(self):
        # H = 1/2: S(t, w) = (1 - cos(2 t w)) / w^2 exactly
        for t, w in [(1.0, 3.0), (2.5, 14.0), (1.0, 80.0)]:
            pt = spectrum.instantaneous(0.5, t, w)
            assert pt.value == pytest.approx(
                (1 - math.cos(2 * t * w)) / w**2, rel=1e-8, abs=1e-12
            )

    def test_matches_fourier_quadrature(self):
        # the closed form against a direct cosine transform of the covariance
        for h, t, w in [(0.5, 1.0, 4.0), (0.75, 2.0, 3.0), (1.0, 1.5, 5.0), (1.2, 1.0, 2.0)]:
            ref = _oracles.wigner_ville_quadrature(
                lambda a, b: fbm.covariance(h, a, b), t, w
            )
            pt = spectrum.instantaneous(h, t, w)
            assert pt.value == pytest.approx(ref, rel=1e-6, abs=1e-10), (h, t, w)

    def test_series_branch_positivity_white_regime(self):
        # nonnegativity holds on t*omega < 30 for H <= 1/2; larger H go
        # negative in the oscillation regime (checked below)
        rng = np.random.default_rng(1)
        for h in (0.3, 0.4, 0.5):
            for _ in range(100):
                t = float(rng.uniform(0.1, 5.0))
                w = float(rng.uniform(0.05, 29.0 / t))
                pt = spectrum.instantaneous(h, t, w)
                assert pt.value >= -1e-15, (h, t, w)

    def test_wigner_ville_negativity_beyond_white(self):
        # a genuine feature of the time-frequency distribution for H > 1/2
        vals = [spectrum.instantaneous(1.0, 1.0, w).value for w in np.linspace(3.0, 8.0, 30)]
        assert min(vals) < 0.0

    def test_oscillation_envelope(self):
        # out to t*omega = 1e7, against the power law and its envelope
        t = 1.0
        for h in SWEEP_H:
            for w in np.concatenate([np.linspace(40.0, 400.0, 60), np.logspace(3, 7, 41)]):
                pt = spectrum.instantaneous(h, t, w)
                dev = abs(pt.value * w ** (2 * h + 1) - 1.0)
                env = _oracles.oscillation_envelope(h, t, w)
                assert dev <= env * 1.05 + 1e-9, (h, w)

    def test_branch_flag(self):
        # the series up to t*omega = 1, the Bessel-Struve closed form above,
        # both against the reference sum
        h = 0.75
        for w, branch in [(0.5, "series"), (1.0, "series"), (2.0, "bessel"), (200.0, "bessel")]:
            pt = spectrum.instantaneous(h, 1.0, w)
            f = _oracles.mp_hyp1f2(h + 0.5, h + 1.0, h + 1.5, -w * w)
            ref = 2.0 ** (2 * h + 1) * f / math.gamma(2 * h + 2)
            assert pt.branch == branch
            assert abs(pt.value - ref) <= 1e-11 * max(abs(ref), w ** -(2 * h + 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum.instantaneous(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            spectrum.instantaneous(0.5, 1.0, -1.0)

    @pytest.mark.parametrize("t, omega", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, t, omega):
        with pytest.raises(DomainError, match="t and omega must be positive and finite"):
            spectrum.instantaneous(0.5, t, omega)

    @pytest.mark.parametrize(
        "t, omega, product",
        [(1.0, 1e300, "1e+300"), (2.0, 2.5e14 + 1.0, "500000000000002.0"), (1e200, 1e200, "inf")],
    )
    def test_large_t_omega_rejected(self, t, omega, product):
        # the limit of the Bessel closed form, named as t*omega rather than
        # as the 1F2 argument built from it
        with pytest.raises(DomainError) as info:
            spectrum.instantaneous(1.0, t, omega)
        assert str(info.value) == f"t*omega = {product} exceeds 500000000000000.0"
        assert spectrum.instantaneous(1.0, 2.0, 2.5e14).branch == "bessel"


class TestTimeAveraged:
    def test_small_argument_limit(self):
        for h, T in [(0.5, 1.0), (1.1, 3.0)]:
            pt = spectrum.time_averaged(h, T, 1e-9 / T)
            lim = 2.0 ** (2 * h + 1) * T ** (2 * h + 1) / math.gamma(2 * h + 3)
            assert pt.value == pytest.approx(lim, rel=1e-6)

    def test_large_argument_power_law(self):
        # T*omega = 1e3: within (T w)^(H-3/2) of omega^-(2H+1)
        for h in [0.5, 0.75, 1.0]:
            T, w = 1.0, 1e3
            pt = spectrum.time_averaged(h, T, w)
            assert pt.value * w ** (2 * h + 1) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("h", SWEEP_H)
    def test_power_law_out_to_1e7(self, h):
        # averaging divides the instantaneous deviation by about T w: what
        # is left falls like H env / (T w), or like 1 / (T w) for H < 1/2;
        # checked out to T w = 1e7
        T = 1.0
        for w in np.logspace(1, 7, 61):
            pt = spectrum.time_averaged(h, T, w)
            dev = abs(pt.value * w ** (2 * h + 1) - 1.0)
            env = _oracles.oscillation_envelope(h, T, w)
            assert dev <= (1.0 + h * env) / (T * w), (h, w)

    def test_consistency_with_time_quadrature(self):
        from scipy.integrate import quad

        h, T, w = 0.75, 5.0, 2.0
        ref, _ = quad(
            lambda t: spectrum.instantaneous(h, t, w).value,
            0.0,
            T,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=300,
        )
        ref /= T
        assert spectrum.time_averaged(h, T, w).value == pytest.approx(ref, rel=1e-4)

    def test_positive_everywhere_tested(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            h = float(rng.uniform(0.1, 1.45))
            T = float(rng.uniform(0.1, 10.0))
            w = float(rng.uniform(0.01, 1e4))
            assert spectrum.time_averaged(h, T, w).value > 0.0, (h, T, w)

    @pytest.mark.parametrize("T, omega", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_rejected(self, T, omega):
        with pytest.raises(DomainError, match="T and omega must be positive and finite"):
            spectrum.time_averaged(0.5, T, omega)

    @pytest.mark.parametrize(
        "T, omega, product",
        [(1.0, 1e300, "1e+300"), (2.0, 2.5e14 + 1.0, "500000000000002.0"), (1e200, 1e200, "inf")],
    )
    def test_large_t_omega_rejected(self, T, omega, product):
        with pytest.raises(DomainError) as info:
            spectrum.time_averaged(0.75, T, omega)
        assert str(info.value) == f"T*omega = {product} exceeds 500000000000000.0"
        assert spectrum.time_averaged(0.75, 2.0, 2.5e14).branch == "bessel"

    def test_power_law_slope(self):
        for h in [0.5, 0.75, 1.0]:
            ws = np.logspace(2, 4, 41)
            vals = np.array([spectrum.time_averaged(h, 1.0, float(w)).value for w in ws])
            slope = _oracles.loglog_slope(ws, vals)
            assert slope == pytest.approx(-(2 * h + 1), abs=0.05)


class TestEmpiricalPeriodogram:
    def test_simulated_trace_slope(self):
        # Welch-style average over simulated paths, central decade
        n, paths, dt = 1024, 300, 1.0
        grid = TimeGrid(dt * np.arange(1, n + 1))
        for h in [0.5, 1.0]:
            x = fbm.simulate(h, grid, paths, seed=37)
            om, psd = _oracles.periodogram(x, dt)
            sel = _oracles.central_decade_mask(om, dt)
            slope = _oracles.loglog_slope(om[sel], psd[sel])
            assert slope == pytest.approx(-(2 * h + 1), abs=0.15)
