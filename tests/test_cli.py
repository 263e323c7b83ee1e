import json
import math

import numpy as np
import pytest

from oscnoise import entropy, fbm
from oscnoise.cli import PhaseTrace, dispatch, read_trace, write_trace
from oscnoise.errors import TraceFormatError
from oscnoise.fbm import NoiseMixture, OscillatorConfig


class TestPhaseTrace:
    def test_validation(self):
        with pytest.raises(TraceFormatError):
            PhaseTrace(dt=0.0, samples=np.zeros(5))
        with pytest.raises(TraceFormatError):
            PhaseTrace(dt=1.0, samples=np.zeros(2))
        with pytest.raises(TraceFormatError):
            PhaseTrace(dt=1.0, samples=np.array([0.0, np.nan, 1.0]))


class TestTraceIO:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = PhaseTrace(dt=1e-8, samples=rng.standard_normal(50), f0=1e8)
        path = str(tmp_path / "t.csv")
        write_trace(trace, path)
        back = read_trace(path)
        assert back.dt == trace.dt
        assert back.f0 == trace.f0
        assert np.array_equal(back.samples, trace.samples)

    def test_raw_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = PhaseTrace(dt=0.5, samples=rng.standard_normal(64))
        path = str(tmp_path / "t.raw")
        write_trace(trace, path, fmt="raw_f64_le")
        back = read_trace(path, fmt="raw_f64_le", dt=0.5)
        assert np.array_equal(back.samples, trace.samples)

    def test_minimal_csv(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("# dt=1e-08 f0=1e6\n0.1\n0.2\n0.3\n")
        trace = read_trace(str(path))
        assert trace.dt == 1e-8 and trace.f0 == 1e6 and trace.samples.size == 3

    def test_raw_byte_count(self, tmp_path):
        path = tmp_path / "three.raw"
        np.array([1.0, 2.0, 3.0]).astype("<f8").tofile(path)
        assert path.stat().st_size == 24
        trace = read_trace(str(path), fmt="raw_f64_le", dt=1.0)
        assert trace.samples.size == 3

    def test_nan_rejected_with_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dt=1.0\n0.1\nnan\n0.3\n")
        with pytest.raises(TraceFormatError, match="index 1"):
            read_trace(str(path))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dt=1.0\n0.1\nhello,world\n0.3\n")
        with pytest.raises(TraceFormatError, match=":3"):
            read_trace(str(path))

    def test_raw_needs_dt(self, tmp_path):
        path = tmp_path / "t.raw"
        np.zeros(4).astype("<f8").tofile(path)
        with pytest.raises(TraceFormatError, match="dt"):
            read_trace(str(path), fmt="raw_f64_le")

    def test_missing_header_dt(self, tmp_path):
        path = tmp_path / "no_dt.csv"
        path.write_text("0.1\n0.2\n0.3\n")
        with pytest.raises(TraceFormatError, match="dt"):
            read_trace(str(path))


class TestDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_domain_error_exit_one(self, capsys):
        code = dispatch(["covariance", "--hurst", "2.0", "--s", "1", "--t", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "omega_args",
        [
            ["--omega-min", "0", "--omega-max", "10"],
            ["--omega-min", "10", "--omega-max", "1"],
            ["--omega-min", "1", "--omega-max", "10", "--n-omega", "0"],
        ],
    )
    def test_spectrum_bad_omega_range_exit_one(self, capsys, omega_args):
        code = dispatch(["spectrum", "--hurst", "1", "--avg-time", "1", *omega_args])
        assert code == 1
        captured = capsys.readouterr()
        assert "omega" in captured.err and captured.out == ""

    def test_every_subcommand_has_help(self, capsys):
        for name in [
            "simulate", "covariance", "spectrum", "leakage",
            "entropy", "avar", "calibrate", "bandwidth",
        ]:
            assert dispatch([name, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--" in out  # flags are documented

    def test_covariance_json(self, capsys):
        assert dispatch(["covariance", "--hurst", "0.5", "--s", "2", "--t", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["covariance"] == pytest.approx(2.0)
        assert payload["correlation"] == pytest.approx(math.sqrt(2.0 / 5.0))

    def test_simulate_grid_matches_library(self, tmp_path, capsys):
        out = str(tmp_path / "paths.csv")
        code = dispatch(
            "simulate --hurst 1.0 --t0 100 --t1 200 --n 100 --paths 10 --seed 7".split()
            + ["--out", out]
        )
        assert code == 0
        rows = [
            line for line in open(out) if not line.startswith("#")
        ]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert data.shape == (100, 10)
        from oscnoise.fbm import TimeGrid

        ref = fbm.simulate(1.0, TimeGrid(np.linspace(100, 200, 100)), 10, seed=7)
        np.testing.assert_array_equal(data, ref)

    def test_simulate_deterministic_stdout(self, capsys):
        argv = "simulate --hurst 0.8 --t0 1 --t1 2 --n 5 --paths 2 --seed 3".split()
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == first

    def test_simulate_trace_roundtrip(self, tmp_path):
        out = str(tmp_path / "trace.csv")
        code = dispatch(
            "simulate --c-white 1.0 --c-flicker 0.5 --samples 64 --dt 1.0 "
            "--seed 11".split() + ["--out", out]
        )
        assert code == 0
        trace = read_trace(out)
        ref = fbm.simulate_trace(NoiseMixture.white_flicker(1.0, 0.5), 64, 1.0, seed=11)
        np.testing.assert_array_equal(trace.samples, ref)

    def test_spectrum_csv(self, capsys):
        code = dispatch(
            "spectrum --hurst 0.75 --avg-time 1.0 --omega-min 100 --omega-max 1000 "
            "--n-omega 5".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,value,branch"
        assert len(lines) == 6
        omega, value, branch = lines[1].split(",")
        assert branch in ("series", "asymptotic")
        assert float(value) > 0

    def test_leakage_json_breakdown(self, capsys):
        code = dispatch("leakage --c-white 1 --c-flicker 0.5 --gap 1.0".split())
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        total = payload["conditional_variance"]
        assert total == pytest.approx(1.0 + 0.25 * 2.0 / math.pi, rel=1e-12)
        assert sum(c["contribution"] for c in payload["components"]) == pytest.approx(
            total, rel=1e-12
        )

    def test_entropy_report_matches_library(self, capsys):
        code = dispatch(
            "entropy --c-white 1 --c-flicker 0.5 --dt 1e-6 --alpha 0.5".split()
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        mix = NoiseMixture.white_flicker(1.0, 0.5)
        osc = OscillatorConfig(f0=1.0, duty_alpha=0.5, phi0=0.0, dt=1e-6)
        ref = entropy.bandwidth_report(mix, osc)
        assert payload["sigma2"] == pytest.approx(ref.sigma2, rel=1e-12)
        assert payload["bias"] == pytest.approx(ref.bias, rel=1e-9)
        assert payload["min_entropy_bits"] == pytest.approx(
            ref.min_entropy_bits, rel=1e-9
        )

    def test_entropy_curves_csv(self, tmp_path, capsys):
        curves = str(tmp_path / "curves.csv")
        code = dispatch(
            "entropy --c-white 1 --dt 1.0 --alpha 0.5 --curves".split() + [curves]
        )
        assert code == 0
        capsys.readouterr()
        lines = open(curves).read().strip().splitlines()
        assert lines[0] == "sigma2,bias,min_entropy_bits"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(np.diff(rows[:, 1]) <= 1e-12)  # bias non-increasing
        assert np.all(np.diff(rows[:, 2]) >= -1e-12)  # entropy non-decreasing

    def test_bandwidth_inverse(self, capsys):
        code = dispatch(
            "bandwidth --c-white 1 --alpha 0.5 --target 0.5".split()
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["min_entropy_bits"] >= 0.5 - 1e-9

    def test_avar_and_calibrate_end_to_end(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.csv")
        code = dispatch(
            "simulate --c-white 1.0 --c-flicker 0.0 --samples 20000 --dt 1.0 "
            "--f0 1e6 --seed 5".split() + ["--out", trace_path]
        )
        assert code == 0
        curve_path = str(tmp_path / "curve.csv")
        code = dispatch(
            ["avar", "--in", trace_path, "--lags", "1:64:4", "--out", curve_path]
        )
        assert code == 0
        lines = open(curve_path).read().strip().splitlines()
        assert lines[0] == "lag_s,var,var_normalized,count"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(2.0, rel=0.1)
        # normalized column follows the classic convention
        assert float(first[2]) == pytest.approx(
            float(first[1]) / (2.0 * float(first[0]) ** 2 * (2 * math.pi * 1e6) ** 2),
            rel=1e-9,
        )
        code = dispatch(["calibrate", "--in", trace_path, "--lags", "1:64:4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_white"] == pytest.approx(1.0, rel=0.05)
        assert payload["c_flicker"] == pytest.approx(0.0, abs=0.1)

    def test_calibrate_lag_list_forms(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.csv")
        dispatch(
            "simulate --c-white 1.0 --samples 4000 --dt 1.0 --seed 2".split()
            + ["--out", trace_path]
        )
        for spec in ["1,2,5,10,20", "1:20:2"]:
            assert dispatch(["calibrate", "--in", trace_path, "--lags", spec]) == 0
            capsys.readouterr()

    def test_identical_argv_identical_stdout(self, capsys):
        argv = "entropy --c-white 1 --c-flicker 0.5 --dt 1e-6 --alpha 0.4".split()
        assert dispatch(argv) == 0
        a = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == a
