"""Byte and bit anchors: fixed outputs that a change must not move unnoticed.

Two sets are kept in ``anchors.json`` next to this file:

- ``bits``: ``float.hex`` of about 50 library values -- covariance
  matrix entries at generic H, at H = 1, near degenerate 2H and for the
  white+flicker mixture, the 2F1 curve, ``entropy.bias`` and
  ``allan.avar_constant``;
- ``cli``: for about 25 in-process ``cli.dispatch`` invocations, the
  exit code and the SHA-256 of stdout, stderr and every output file.

Both depend on the numerical stack (LAPACK and FFT results, argparse
wording), so the file also records the Python, numpy, scipy and OpenBLAS
versions they were made under; ``test_anchors.py`` fails on a mismatch
and names it.

Usage, from the repository root::

    PYTHONPATH=src python tests/anchors.py           # regenerate anchors.json
    PYTHONPATH=src python tests/anchors.py --check   # list moved anchors, exit 1 if any

A change that moves bytes on purpose regenerates the file and lists the
moved anchors, as ``--check`` prints them beforehand, in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import scipy

from oscnoise import allan, entropy, fbm, specfun
from oscnoise.cli import dispatch
from oscnoise.fbm import NoiseMixture, TimeGrid

ANCHOR_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchors.json")

# sample times of the covariance anchors: ratios on both sides of the
# 2F1's series switch at z = 0.8, below the H = 1 closed form's z = 0.1,
# and z = 1 on the diagonal
_GRID = (0.25, 1.0, 1.7, 1.9)
_COVARIANCE_MODELS = {
    "H=0.7": 0.7,
    "H=1": 1.0,
    "H=0.99999": 0.99999,
    "white+flicker": NoiseMixture.white_flicker(1.0, 0.5),
}

# run in order in one working directory: later cases read the traces
# written by earlier ones.  raw.f64 is written before the first case.
CLI_CASES = {
    "covariance": "covariance --hurst 0.7 --s 1.5 --t 4",
    "covariance_zero_time": "covariance --hurst 1 --s 0 --t 2",
    "covariance_bad_hurst": "covariance --hurst 2.0 --s 1 --t 2",
    "covariance_unwritable": "covariance --hurst 1 --s 1 --t 2 --out nodir/x.json",
    "spectrum_averaged": "spectrum --hurst 0.75 --avg-time 1 --omega-min 0.1 --omega-max 100 "
    "--n-omega 12",
    "spectrum_instantaneous": "spectrum --hurst 1.2 --time 2 --omega-min 0.1 --omega-max 50 "
    "--n-omega 9",
    "spectrum_bad_omega": "spectrum --hurst 1 --avg-time 1 --omega-min 0 --omega-max 10",
    "leakage_json": "leakage --c-white 1 --c-flicker 0.5 --gap 1.0",
    "leakage_csv": "leakage --component 0.3:2 --c-white 1 --gap 0.25 --csv --out leak.csv",
    "leakage_zero_gap": "leakage --c-white 1 --gap 0",
    "entropy": "entropy --c-white 1 --c-flicker 0.5 --dt 0.5 --alpha 0.45",
    "entropy_curves": "entropy --c-white 1 --dt 1.0 --alpha 0.4 --curves curves.csv "
    "--out report.json",
    "entropy_no_model": "entropy --dt 1.0",
    "bandwidth": "bandwidth --c-white 1 --c-flicker 0.5 --alpha 0.5 --target 0.99",
    "bandwidth_bad_target": "bandwidth --c-white 1 --target nan",
    "simulate_grid": "simulate --c-white 1 --c-flicker 0.5 --t0 0.5 --t1 8 --n 40 --paths 3 "
    "--seed 7",
    "simulate_grid_file": "simulate --hurst 0.3 --t0 1 --t1 2 --n 4 --seed 1 --f0 2.5 "
    "--out grid.csv",
    "simulate_grid_incomplete": "simulate --hurst 1 --t0 1 --t1 2 --seed 1",
    "simulate_trace_file": "simulate --c-white 1 --c-flicker 0.5 --samples 4096 --dt 1.0 "
    "--f0 1e6 --seed 5 --out trace.csv",
    "simulate_trace_stdout": "simulate --component 1.25:0.3 --samples 512 --dt 1e-3 --seed 3",
    "simulate_negative_seed": "simulate --c-white 1 --samples 64 --dt 1.0 --seed -1",
    "avar_csv": "avar --in trace.csv --lags 1:64:3 --out avar.csv",
    "calibrate_csv": "calibrate --in trace.csv --lags 1:100",
    "avar_raw": "avar --in raw.f64 --format raw_f64_le --dt 0.5 --f0 1e3 --lags 1,2,5,10,20",
    "calibrate_raw": "calibrate --in raw.f64 --format raw_f64_le --dt 1 --lags 1:50",
    "calibrate_raw_no_dt": "calibrate --in raw.f64 --format raw_f64_le --lags 1:50",
    "avar_missing_file": "avar --in missing.csv --lags 1:10",
    "unknown_command": "frobnicate",
}


def environment() -> dict[str, str]:
    """Versions of what the anchored values depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas['name']} {blas['version']}",
    }


def bit_anchors() -> dict[str, str]:
    """``float.hex`` of the library values anchored bit for bit."""
    values = {}
    grid = TimeGrid(np.array(_GRID))
    for name, model in _COVARIANCE_MODELS.items():
        K = fbm.covariance_matrix(model, grid)
        for i, j in zip(*np.triu_indices(len(_GRID))):
            values[f"cov {name} ({_GRID[i]}, {_GRID[j]})"] = float(K[i, j])
    for z in (0.05, 0.5, 0.85, 0.999):
        values[f"hyp2f1_curve H=0.7 z={z}"] = float(specfun.hyp2f1_curve(0.7, z))
    for s2, alpha in ((0.5, 0.5), (3.0, 0.4), (30.0, 0.5)):
        values[f"bias sigma2={s2} alpha={alpha}"] = entropy.bias(s2, alpha)
    for h in (0.3, 0.5, 1.0, 1.25):
        values[f"avar_constant H={h}"] = allan.avar_constant(h)
    return {name: float.hex(v) for name, v in values.items()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _in_process_io(workdir: str):
    # stdout and stderr into byte buffers, the working directory at
    # workdir, and argparse's line width fixed at 80 columns
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr, os.getcwd(), os.environ.get("COLUMNS")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", newline="\n")
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir)
    try:
        yield out, err
    finally:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
            stream.detach()
        sys.stdout, sys.stderr = saved[:2]
        os.chdir(saved[2])
        if saved[3] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[3]


def _output_files(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in ("--out", "--curves")]


def cli_anchors(workdir: str) -> dict[str, dict]:
    """Exit code and SHA-256 digests of every ``CLI_CASES`` invocation,
    run in order in the empty directory workdir."""
    np.random.default_rng(11).standard_normal(2048).cumsum().astype("<f8").tofile(
        os.path.join(workdir, "raw.f64")
    )
    anchors = {}
    for name, command in CLI_CASES.items():
        argv = command.split()
        with _in_process_io(workdir) as (out, err):
            code = dispatch(argv)
        files = {}
        for path in _output_files(argv):
            full = os.path.join(workdir, path)
            if os.path.exists(full):
                with open(full, "rb") as fh:
                    files[path] = _sha256(fh.read())
        anchors[name] = {
            "exit": code,
            "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue()),
            "files": files,
        }
    return anchors


def environment_mismatch(recorded: dict[str, str]) -> list[str]:
    """One line per version that differs from the recorded environment."""
    now = environment()
    return [
        f"{key}: anchors made under {recorded.get(key)!r}, running {now.get(key)!r}"
        for key in sorted(set(recorded) | set(now))
        if recorded.get(key) != now.get(key)
    ]


def moved(recorded: dict, current: dict) -> list[str]:
    """Names of the anchors whose recorded and current values differ,
    with the differing parts of a CLI anchor."""
    lines = []
    for name in sorted(set(recorded) | set(current)):
        old, new = recorded.get(name), current.get(name)
        if old == new:
            continue
        if isinstance(old, dict) and isinstance(new, dict):
            parts = [key for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]
            lines.append(f"{name}: {', '.join(parts)}")
        else:
            lines.append(f"{name}: {old} -> {new}")
    return lines


def load() -> dict:
    with open(ANCHOR_FILE, encoding="ascii") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="list moved anchors instead of rewriting the file"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        current = {
            "environment": environment(),
            "bits": bit_anchors(),
            "cli": cli_anchors(workdir),
        }
    if not args.check:
        with open(ANCHOR_FILE, "w", encoding="ascii") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(current['bits'])} bit and {len(current['cli'])} CLI anchors")
        return 0
    recorded = load()
    report = environment_mismatch(recorded["environment"])
    report += [f"bits {line}" for line in moved(recorded["bits"], current["bits"])]
    report += [f"cli {line}" for line in moved(recorded["cli"], current["cli"])]
    print("\n".join(report) if report else "no anchor moved")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
