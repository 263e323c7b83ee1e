import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oscnoise
from oscnoise import allan, cli, entropy, fbm, leakage
from oscnoise.cli import PhaseTrace, dispatch, read_trace, write_trace
from oscnoise.errors import TraceFormatError
from oscnoise.fbm import NoiseMixture, TimeGrid


def _run_python(args, cwd, stdout=subprocess.PIPE):
    # a fresh interpreter that imports this checkout's oscnoise
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )


class TestPackageLayout:
    def test_module_run_does_not_warn(self, tmp_path):
        proc = _run_python(
            "-W error::RuntimeWarning -m oscnoise.cli covariance --hurst 1 --s 1 --t 2".split(),
            tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["covariance"] > 0

    def test_package_import_leaves_cli_unloaded(self, tmp_path):
        proc = _run_python(
            ["-c", "import sys, oscnoise; print('oscnoise.cli' in sys.modules)"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_import_skips_scipy_optimize_and_fft(self, tmp_path):
        # a fresh interpreter: this test process loads both for its oracles
        code = (
            "import sys, oscnoise, oscnoise.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.fft') if m in sys.modules])"
        )
        proc = _run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    def test_import_loads_no_scipy(self, tmp_path):
        code = (
            "import sys, oscnoise, oscnoise.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])"
        )
        proc = _run_python(["-W", "error", "-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    def test_numpy_only_commands_load_no_scipy(self, tmp_path):
        # none of these calls a Bessel function, erf or a Cholesky solve
        trace = str(tmp_path / "t.csv")
        calls = [
            "covariance --hurst 1 --s 1 --t 2",
            "leakage --c-white 1 --c-flicker 0.5 --gap 1.0",
            "simulate --c-white 1 --c-flicker 0.5 --t0 0.1 --t1 1 --n 16 --paths 2 --seed 1",
            "simulate --c-white 1 --c-flicker 0.5 --samples 2000 --dt 1 --seed 3",
            f"avar --in {trace} --lags 1:20",
            f"calibrate --in {trace} --lags 1:20",
        ]
        argvs = [
            c.split() + ["--out", trace if "--samples" in c else str(tmp_path / f"{i}.out")]
            for i, c in enumerate(calls)
        ]
        script = (
            "import json, sys\n"
            "from oscnoise.cli import dispatch\n"
            "codes = [dispatch(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, [m for m in sys.modules if m.startswith('scipy')])\n"
        )
        proc = _run_python(["-W", "error", "-c", script, json.dumps(argvs)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([0] * len(calls)) + " []"

    @pytest.mark.parametrize(
        "argv",
        [
            # the 1F2 closed form: scipy.special.jv and struve
            "spectrum --hurst 0.75 --avg-time 1 --omega-min 100 --omega-max 1000 --n-omega 5",
            # small-variance window masses: scipy.special.erf and ndtr
            "entropy --c-white 1 --c-flicker 0.5 --dt 1e-3 --alpha 0.4 --curves {out}",
            "bandwidth --c-white 1 --alpha 0.5 --target 0.5",
        ],
    )
    def test_first_scipy_use_in_fresh_process(self, tmp_path, capsysbinary, argv):
        # scipy.special is first imported inside the command; its output
        # must match this process's, where it is long loaded
        script = (
            "import sys\n"
            "from oscnoise.cli import dispatch\n"
            "before = 'scipy.special' in sys.modules\n"
            "code = dispatch(sys.argv[1:])\n"
            "print(code, before, 'scipy.special' in sys.modules, file=sys.stderr)\n"
        )
        fresh_out, here_out = tmp_path / "fresh.csv", tmp_path / "here.csv"
        proc = _run_python(["-c", script, *argv.format(out=fresh_out).split()], tmp_path)
        assert proc.stderr.split() == ["0", "False", "True"]
        assert dispatch(argv.format(out=here_out).split()) == 0
        assert proc.stdout == capsysbinary.readouterr().out.decode()
        if "{out}" in argv:
            assert fresh_out.read_bytes() == here_out.read_bytes()

    def test_first_cho_solve_in_fresh_process(self, tmp_path):
        # both leakage call sites import scipy.linalg on first use
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from oscnoise import leakage\n"
            "from oscnoise.fbm import TimeGrid\n"
            "grid, y = TimeGrid(np.linspace(0.05, 1.0, 40)), np.sin(np.arange(40.0))\n"
            "print('scipy.linalg' in sys.modules)\n"
            "print(repr(leakage.discrete_posterior(1.45, grid, 1.2, y)))\n"
            "paths = leakage.renewal_sample(0.7, grid, y, TimeGrid([1.5, 2.0]), 3, 5)\n"
            "print(hashlib.sha256(paths.tobytes()).hexdigest())\n"
        )
        proc = _run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        grid, y = TimeGrid(np.linspace(0.05, 1.0, 40)), np.sin(np.arange(40.0))
        paths = leakage.renewal_sample(0.7, grid, y, TimeGrid([1.5, 2.0]), 3, 5)
        assert proc.stdout.splitlines() == [
            "False",
            repr(leakage.discrete_posterior(1.45, grid, 1.2, y)),
            hashlib.sha256(paths.tobytes()).hexdigest(),
        ]

    def test_exports(self):
        assert oscnoise.read_trace is oscnoise.cli.read_trace
        assert oscnoise.write_trace is cli.write_trace
        assert oscnoise.PhaseTrace is allan.PhaseTrace is PhaseTrace
        with pytest.raises(AttributeError):
            oscnoise.no_such_name


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

    def test_raw_partial_trailing_sample(self, tmp_path):
        path = tmp_path / "five.raw"
        path.write_bytes(np.arange(5.0).astype("<f8").tobytes() + b"abc")
        with pytest.raises(TraceFormatError, match=r"five\.raw: 43 bytes"):
            read_trace(str(path), fmt="raw_f64_le", dt=1.0)

    @pytest.mark.parametrize(
        "body",
        [
            np.array([1.0, -2.0, 3.5]).astype("<f8").tobytes(),
            b"# dt=1.0\n0.1\n0.2\xe9\n0.3\n",
            b"# dt=1.0 site=\xe9\n0.1\n0.2\n0.3\n",
        ],
        ids=["raw", "sample", "header"],
    )
    def test_non_ascii_csv(self, tmp_path, body):
        path = tmp_path / "t.bin"
        path.write_bytes(body)
        with pytest.raises(TraceFormatError, match=r"t\.bin: not an ASCII trace.*raw_f64_le"):
            read_trace(str(path))

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

    def test_comments_blank_lines_whitespace_crlf(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_bytes(
            b"# generated by hand\r\n\r\n# dt=0.5 f0=2e6\r\n# dt=9\r\n  0.1  \r\n"
            b"# note between samples\r\n\r\n\t-0.2\r\n0.3\r\n\r\n"
        )
        trace = read_trace(str(path))
        assert trace.dt == 0.5 and trace.f0 == 2e6
        assert trace.samples.tolist() == [0.1, -0.2, 0.3]

    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("0.1\n0.2 0.3\n0.4\n", 3),
            ("1 2\n3 4\n5 6\n", 2),
            ("0.1 0.2 0.3\n", 2),
            ("0.1\n0.2\n\n# c\n1,5\n", 6),
        ],
    )
    def test_extra_column_carries_line_number(self, tmp_path, body, lineno):
        path = tmp_path / "cols.csv"
        path.write_text("# dt=1.0\n" + body)
        with pytest.raises(TraceFormatError, match=f":{lineno}: expected one float"):
            read_trace(str(path))

    def test_inf_rejected_with_index(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("# dt=1.0\n0.1\n0.2\ninf\n")
        with pytest.raises(TraceFormatError, match="index 2"):
            read_trace(str(path))

    @pytest.mark.parametrize("body", ["0.5\n", ""])
    def test_too_short(self, tmp_path, body):
        path = tmp_path / "short.csv"
        path.write_text("# dt=1.0\n" + body)
        with pytest.raises(TraceFormatError, match="at least 3 samples"):
            read_trace(str(path))

    def test_extreme_values_roundtrip_bitwise(self, tmp_path):
        values = np.array(
            [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300]
        )
        path = str(tmp_path / "extreme.csv")
        write_trace(PhaseTrace(dt=1.0, samples=values), path)
        back = read_trace(path)
        np.testing.assert_array_equal(back.samples.view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("block", [None, 7])
    def test_csv_one_repr_per_line(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
        values = np.random.default_rng(3).standard_normal(20)
        path = tmp_path / "t.csv"
        write_trace(PhaseTrace(dt=0.25, samples=values, source="s"), str(path))
        body = "".join(f"{float(v)!r}\n" for v in values)
        assert path.read_text() == "# dt=0.25\n# s\n" + body

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
        with open(out) as fh:
            rows = [line for line in fh if not line.startswith("#")]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert data.shape == (100, 10)
        from oscnoise.fbm import TimeGrid

        ref = fbm.simulate(1.0, TimeGrid(np.linspace(100, 200, 100)), 10, seed=7)
        np.testing.assert_array_equal(data, ref)

    @pytest.mark.parametrize("block", [None, 7, 2])
    def test_simulate_grid_csv_bytes(self, capsys, monkeypatch, block):
        # rows are written in blocks; the text is the header and one
        # comma-joined repr row per grid point, whatever the block size
        if block is not None:
            monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
        argv = "simulate --hurst 0.8 --t0 1 --t1 2 --n 9 --paths 3 --seed 3".split()
        assert dispatch(argv) == 0
        ref = fbm.simulate(0.8, TimeGrid(np.linspace(1.0, 2.0, 9)), 3, seed=3)
        body = "".join(",".join(map(repr, row)) + "\n" for row in ref.tolist())
        expected = "# dt=0.125 t0=1.0\n# rng=numpy-pcg64 seed=3 paths=3\n" + body
        assert capsys.readouterr().out == expected

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

    def test_simulate_trace_stdout_matches_out_file(self, tmp_path, capsysbinary):
        argv = "simulate --c-white 1 --c-flicker 0.5 --samples 5000 --dt 0.001 --seed 3".split()
        out = tmp_path / "trace.csv"
        assert dispatch(argv + ["--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert dispatch(argv) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == out.read_bytes()
        assert captured.err == b""

    def test_write_trace_raw_to_stdout(self, tmp_path, capsysbinary):
        trace = PhaseTrace(dt=1.0, samples=np.arange(10.0))
        out = tmp_path / "trace.f64"
        write_trace(trace, str(out), fmt="raw_f64_le")
        write_trace(trace, None, fmt="raw_f64_le")
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_os_error_without_file_name(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("device vanished")

        monkeypatch.setattr(cli.entropy, "bandwidth_report", fail)
        assert dispatch("entropy --c-white 1 --dt 1.0".split()) == 1
        assert capsys.readouterr().err == "oscnoise: error: device vanished\n"

    @pytest.mark.parametrize("command", ["avar", "calibrate"])
    @pytest.mark.parametrize("fmt", ["csv", "raw_f64_le"])
    def test_missing_trace_file_exit_one(self, tmp_path, capsys, command, fmt):
        missing = str(tmp_path / "missing.csv")
        argv = [command, "--in", missing, "--format", fmt, "--dt", "1", "--lags", "1:10"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("oscnoise: error: ")
        assert missing in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "fmt, body",
        [
            ("csv", np.arange(5.0).astype("<f8").tobytes()),
            ("raw_f64_le", np.arange(5.0).astype("<f8").tobytes() + b"abc"),
        ],
        ids=["not-ascii", "partial-sample"],
    )
    def test_unreadable_trace_exit_one(self, tmp_path, capsys, fmt, body):
        path = tmp_path / "trace.bin"
        path.write_bytes(body)
        argv = ["avar", "--in", str(path), "--format", fmt, "--dt", "1", "--lags", "1:10"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"oscnoise: error: {path}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("covariance --hurst 1 --s 1 --t 2", "--out"),
            ("entropy --c-white 1 --dt 1.0", "--curves"),
            ("simulate --c-white 1 --samples 64 --dt 1.0 --seed 1", "--out"),
            ("simulate --hurst 1 --t0 1 --t1 2 --n 4 --seed 1", "--out"),
        ],
    )
    def test_unwritable_output_exit_one(self, tmp_path, capsys, argv, flag):
        target = str(tmp_path / "missing" / "out.txt")
        assert dispatch(argv.split() + [flag, target]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"oscnoise: error: {target}: No such file or directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            "covariance --hurst 1 --s 1 --t 2",
            "simulate --c-white 1 --samples 64 --dt 1.0 --seed 1",
        ],
    )
    def test_full_device_exit_one(self, capsys, argv):
        assert dispatch(argv.split() + ["--out", "/dev/full"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "oscnoise: error: /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "raw_f64_le"])
    def test_write_trace_full_device_names_path(self, fmt):
        trace = PhaseTrace(dt=1.0, samples=np.arange(10.0))
        with pytest.raises(OSError) as info:
            write_trace(trace, "/dev/full", fmt=fmt)
        assert info.value.filename == "/dev/full"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exit_one(self, tmp_path):
        argv = "-m oscnoise.cli covariance --hurst 1 --s 1 --t 2".split()
        with open("/dev/full", "w") as full:
            proc = _run_python(argv, tmp_path, stdout=full)
        assert proc.returncode == 1
        assert proc.stderr == "oscnoise: error: <stdout>: No space left on device\n"

    @pytest.mark.parametrize(
        "argv",
        [
            "simulate --hurst 1 --t0 1 --t1 2 --n 4 --seed -1",
            "simulate --c-white 1 --samples 64 --dt 1.0 --seed -1",
        ],
    )
    def test_negative_seed_exit_one(self, capsys, argv):
        assert dispatch(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err == "oscnoise: error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("f0", ["-3", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            "simulate --hurst 1 --t0 1 --t1 2 --n 4 --seed 1",
            "simulate --c-white 1 --samples 64 --dt 1.0 --seed 1",
        ],
    )
    def test_nonpositive_f0_exit_one(self, capsys, argv, f0):
        assert dispatch(argv.split() + ["--f0", f0]) == 1
        captured = capsys.readouterr()
        assert "--f0 must be positive" in captured.err and captured.out == ""

    @pytest.mark.parametrize("gap", ["0", "-1"])
    def test_leakage_nonpositive_gap_exit_one(self, capsys, gap):
        assert dispatch(["leakage", "--c-white", "1", "--gap", gap]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"oscnoise: error: gap must be positive, got {float(gap)}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--t0 1 --t1 2 --n -1", "--n must be >= 1, got -1"),
            ("--t0 1 --t1 2 --n 0", "--n must be >= 1, got 0"),
            ("--t0 1 --t1 inf --n 4", "--t0 and --t1 must be finite, got (1.0, inf)"),
            ("--t0 nan --t1 2 --n 4", "--t0 and --t1 must be finite, got (nan, 2.0)"),
            ("--t0 1 --t1 2 --n 4 --dt 1", "grid mode does not take --dt"),
            ("--samples 10 --dt 1 --t0 5", "trace mode (--samples) does not take --t0"),
            (
                "--samples 10 --dt 1 --n 4 --t1 2 --paths 1",
                "trace mode (--samples) does not take --t1, --n, --paths",
            ),
        ],
    )
    def test_bad_grid_flags_exit_one(self, capsys, argv, message):
        # checked before np.linspace, which raises or warns on these, and
        # the flags of the other mode are named rather than ignored
        assert dispatch(f"simulate --hurst 0.7 {argv} --seed 1".split()) == 1
        captured = capsys.readouterr()
        assert captured.err == f"oscnoise: error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 37.3 GiB"), "Unable to allocate 37.3 GiB"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_grid_out_of_memory_exit_one(self, capsys, monkeypatch, exc, message):
        # a large --n asks numpy for tens of GiB; raised here instead of
        # allocated, since an overcommitted request can succeed lazily
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(fbm, "covariance_matrix", no_memory)
        assert dispatch("simulate --hurst 1 --t0 1 --t1 2 --n 100000 --seed 1".split()) == 1
        captured = capsys.readouterr()
        assert captured.err == f"oscnoise: error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "leakage --c-white 1 --gap 1 --csv",
            "bandwidth --c-white 1 --target 0.5 --dt-min 1e-9",
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert dispatch(argv.split()) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "spectrum --hurst 1 --time nan --omega-min 1 --omega-max 10",
                "t and omega must be positive and finite",
            ),
            (
                "spectrum --hurst 1 --avg-time inf --omega-min 1 --omega-max 10",
                "T and omega must be positive and finite",
            ),
            ("leakage --c-white 1 --gap nan", "gap must be finite, got nan"),
            ("leakage --c-white 1 --gap inf", "gap must be finite, got inf"),
            (
                "spectrum --hurst 1 --time 1 --omega-min 1 --omega-max 1e300 --n-omega 3",
                "t*omega = 1e+150 exceeds 500000000000000.0",
            ),
            (
                "spectrum --hurst 0.5 --avg-time 1e200 --omega-min 1e200 --omega-max 1e200 "
                "--n-omega 1",
                "T*omega = inf exceeds 500000000000000.0",
            ),
        ],
    )
    def test_non_finite_time_exit_one(self, capsys, argv, message):
        # each function names its own argument, not that of a function it calls
        assert dispatch(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"oscnoise: error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_grid_f0_in_header(self, capsys):
        argv = "simulate --hurst 1 --t0 1 --t1 2 --n 4 --seed 1 --f0 2.5".split()
        assert dispatch(argv) == 0
        assert capsys.readouterr().out.startswith("# dt=0.3333333333333333 t0=1.0 f0=2.5\n")

    def test_read_trace_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="No such file"):
            read_trace(str(tmp_path / "missing.csv"))

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
        assert branch == "bessel"
        assert float(value) > 0

    def test_spectrum_runs_without_mpmath(self, tmp_path):
        # omega in [0.1, 1e3] at T = 1 runs both 1F2 branches; neither may
        # import the arbitrary-precision library, a test-only dependency
        out = tmp_path / "spectrum.csv"
        script = (
            "import sys\n"
            "from oscnoise.cli import dispatch\n"
            "code = dispatch(['spectrum', '--hurst', '0.75', '--avg-time', '1',\n"
            "                 '--omega-min', '0.1', '--omega-max', '1e3', '--n-omega', '50',\n"
            "                 '--out', sys.argv[1]])\n"
            "print(code, 'mpmath' in sys.modules)\n"
        )
        proc = _run_python(["-c", script, str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        branches = [row.split(",")[2] for row in out.read_text().splitlines()[1:]]
        assert "series" in branches and "bessel" in branches

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
        ref = entropy.bandwidth_report(mix, 0.5, 1e-6)
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
        with open(curves) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "sigma2,bias,min_entropy_bits"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(np.diff(rows[:, 1]) <= 1e-12)  # bias non-increasing
        assert np.all(np.diff(rows[:, 2]) >= -1e-12)  # entropy non-decreasing

    @pytest.mark.parametrize("flags", ["--target nan"])
    def test_bandwidth_bad_input_exit_one(self, capsys, flags):
        # this printed a dt (1.0) with exit 0
        assert dispatch(["bandwidth", "--c-white", "1", *flags.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("oscnoise: error: ")
        assert captured.err.count("\n") == 1

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
        with open(curve_path) as fh:
            lines = fh.read().strip().splitlines()
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

    def test_reused_parser_matches_fresh_parser(self, tmp_path, capsysbinary):
        trace = str(tmp_path / "t.csv")
        argv = "simulate --c-white 1 --c-flicker 0.5 --samples 4000 --dt 1 --seed 3"
        assert dispatch(argv.split() + ["--out", trace]) == 0
        calls = [
            "leakage --component 0.3:1 --gap 0.5".split(),
            "leakage --component 1.2:2 --gap 0.5".split(),
            "leakage --gap 0.5 --no-such-flag".split(),
            "leakage --component 0.7:1 --gap 2".split(),
            ["avar", "--in", trace, "--lags", "1:50"],
            ["calibrate", "--in", trace, "--lags", "1:50"],
        ]

        def run(argv):
            code = dispatch(argv)
            captured = capsysbinary.readouterr()
            return code, captured.out, captured.err

        capsysbinary.readouterr()
        cli._build_parser.cache_clear()
        shared = [run(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1  # one parser for all
        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        assert shared == alone
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
        assert shared[0][1] != shared[1][1]
