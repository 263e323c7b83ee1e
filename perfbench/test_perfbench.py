"""Tests of the benchmark itself: its checks reject perturbed outputs, and
traced runs repeat their counts exactly.

    python3 -m pytest -q perfbench

About 70 s on two cores: the count test runs every workload twice.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oscnoise import cli  # noqa: E402


def rewrite_json(path, **changes):
    with open(path) as fh:
        payload = json.load(fh)
    payload.update(changes)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def scale_csv_cell(path, row, col, factor):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibration_check_rejects_wrong_coefficients():
    assert checks.check_calibration({"c_white": 1.1, "c_flicker": 0.52}, 1.0, 0.5) == []
    assert checks.check_calibration({"c_white": 1.3, "c_flicker": 0.5}, 1.0, 0.5)
    assert checks.check_calibration({"c_white": 1.0, "c_flicker": 0.56}, 1.0, 0.5)
    assert checks.check_calibration({"c_white": 1.0}, 1.0, 0.5)


def avar_csv(lags, n_samples, scale_at=None, factor=1.0):
    rows = ["lag_s,var,var_normalized,count"]
    for m in lags:
        var = 2.0 * m + 0.25 * checks.C_FLICKER * m * m
        if m == scale_at:
            var *= factor
        rows.append(f"{float(m)!r},{var!r},nan,{n_samples - 2 * m}")
    return "\n".join(rows) + "\n"


def test_avar_check_rejects_a_lag_outside_its_band():
    lags, n = range(1, 101), 1_000_000
    assert checks.check_avar(avar_csv(lags, n), lags, 1.0, 1.0, 0.5, n) == []
    for m in (1, 50, 100):
        band = checks.avar_band(m, n - 2 * m)
        inside = avar_csv(lags, n, scale_at=m, factor=1.0 + 0.9 * band)
        outside = avar_csv(lags, n, scale_at=m, factor=1.0 + 1.1 * band)
        assert checks.check_avar(inside, lags, 1.0, 1.0, 0.5, n) == []
        assert checks.check_avar(outside, lags, 1.0, 1.0, 0.5, n)
    assert checks.check_avar(avar_csv(range(1, 100), n), lags, 1.0, 1.0, 0.5, n)


def test_identical_check_rejects_a_changed_trace():
    assert checks.check_identical(b"# dt=1.0\n0.5\n", b"# dt=1.0\n0.5\n") == []
    assert checks.check_identical(b"# dt=1.0\n0.5\n", b"# dt=1.0\n0.6\n")


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """Exact paths of H = 0.75 on 64 points of [1, 10], as the CLI writes them."""
    out = str(tmp_path_factory.mktemp("grid") / "paths.csv")
    assert cli.dispatch(["simulate", "--hurst", "0.75", "--t0", "1", "--t1", "10", "--n", "64",
                         "--paths", "256", "--seed", "11", "--out", out]) == 0
    with open(out) as fh:
        return fh.read()


def grid_problems(text, seed=11):
    return checks.check_paths(text, ((0.75, 1.0),), 1.0, 10.0, 64, 256, seed,
                              workloads._far_and_near(64))


def perturb_paths(text, fn):
    header, paths, _ = checks.parse_paths(text)
    paths = fn(paths.copy())
    return "\n".join(header + [",".join(repr(float(v)) for v in row) for row in paths]) + "\n"


def test_grid_check_accepts_the_program_output(small_grid):
    assert grid_problems(small_grid) == []


@pytest.mark.parametrize("change", [
    lambda p: 1.5 * p,                                  # variance off by 2.25x
    lambda p: 1.1 * p,                                  # off by 1.21x: only the pooled test
    lambda p: np.vstack([p[:-1], p[-2:-1]]),            # last point copies its neighbour
    lambda p: p[:, :-1],                                # a path missing
    lambda p: p[:-1],                                   # a time point missing
    lambda p: np.where(np.arange(p.size).reshape(p.shape) == 7, np.nan, p),
])
def test_grid_check_rejects_perturbed_paths(small_grid, change):
    assert grid_problems(perturb_paths(small_grid, change))


def test_grid_check_rejects_a_wrong_seed_header(small_grid):
    assert grid_problems(small_grid, seed=12)


def test_grid_covariance_reference_matches_brownian_motion():
    # H = 1/2 is Brownian motion: Cov(s, t) = min(s, t)
    assert checks.rl_covariance(0.5, 2.0, 7.0) == pytest.approx(2.0, rel=1e-14)
    assert checks.rl_variance(0.5, 7.0) == pytest.approx(7.0, rel=1e-14)


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------


@pytest.fixture
def security_op(tmp_path):
    """Run one real security operation; return its workload, files and output."""
    wl = workloads.Security(5, str(tmp_path))
    ops = wl.round(1)
    # alpha 0.3, dt 0.05, H 0.75: the wrapped-Gaussian side of the theta switch
    op = ops[1]
    posterior = op.run()
    assert op.check(posterior) == []
    return op, wl.files, posterior


def test_bias_series_matches_its_limits():
    # a wide posterior leaves only the duty-cycle asymmetry; a narrow one pins the bit
    assert checks.bias_series(60.0, 0.3)[0] == pytest.approx(0.2, abs=1e-12)
    assert checks.bias_series(1e-4, 0.5)[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("key,delta", [("bias", 1e-8), ("min_entropy_bits", 1e-9),
                                       ("sigma2", 1e-9)])
def test_entropy_check_rejects_perturbed_report(security_op, key, delta):
    op, files, posterior = security_op
    with open(files["entropy"]) as fh:
        value = json.load(fh)[key]
    rewrite_json(files["entropy"], **{key: value + delta})
    assert op.check(posterior)


def test_entropy_check_rejects_a_perturbed_curve(security_op):
    op, files, posterior = security_op
    scale_csv_cell(files["curves"], 30, 1, 1.0 + 1e-7)
    assert op.check(posterior)


@pytest.mark.parametrize("factor", [1.0 + 1e-4, 1.0 - 1e-4])
def test_bandwidth_check_rejects_a_dt_that_is_not_the_smallest(security_op, factor):
    op, files, posterior = security_op
    with open(files["bandwidth"]) as fh:
        dt = json.load(fh)["dt"]
    rewrite_json(files["bandwidth"], dt=dt * factor)
    assert op.check(posterior)


def test_leakage_check_rejects_a_perturbed_variance(security_op):
    op, files, posterior = security_op
    with open(files["leakage"]) as fh:
        var = json.load(fh)["conditional_variance"]
    rewrite_json(files["leakage"], conditional_variance=var * (1.0 + 1e-9))
    assert op.check(posterior)


@pytest.mark.parametrize("row", [5, 30, 45])  # native series, mpmath series, asymptotic
def test_spectrum_check_rejects_a_perturbed_value(security_op, row):
    op, files, posterior = security_op
    scale_csv_cell(files["spectrum"], row, 1, 1.0 + 1e-8)
    assert op.check(posterior)


def test_posterior_check_rejects_variances_outside_the_closed_forms(security_op):
    op, _, (mean, var) = security_op
    full = checks.rl_variance(0.75, 0.05)
    unconditional = checks.rl_variance(0.75, 6.45)
    assert op.check((mean, full * 0.999))
    assert op.check((mean, unconditional * 1.001))
    assert math.isfinite(mean)


# ---------------------------------------------------------------------------
# the run as a whole
# ---------------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        result = run.measure(name, 3, 0.0, True, str(workdir))
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v for k, v in result["per_layer"].items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "security",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
