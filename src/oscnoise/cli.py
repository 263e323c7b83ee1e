"""Command-line surface: trace files, subcommands, JSON/CSV reports.

Units are SI throughout: seconds, hertz, radians.  Scalar results are
emitted as JSON, curves and traces as CSV.  All stochastic subcommands
take an explicit ``--seed`` and produce byte-identical output for
identical arguments.

Trace CSV format: a first header line ``# dt=<seconds> f0=<hz>`` (f0
optional, extra ``key=value`` tokens preserved as metadata), optional
further ``#`` comment lines, then one sample (radians) per line.  The
raw format is little-endian float64 with dt/f0 supplied via flags.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from typing import NoReturn

import numpy as np

from . import allan, entropy, fbm, leakage, spectrum
from .allan import PhaseTrace
from .errors import DomainError, OscNoiseError, TraceFormatError
from .fbm import NoiseMixture, TimeGrid

__all__ = ["PhaseTrace", "dispatch", "main", "read_trace", "write_trace"]

_WRITE_BLOCK = 1 << 16  # samples formatted per write of a trace or of grid paths


def _parse_header(line: str) -> dict[str, str]:
    fields = {}
    for token in line.lstrip("#").split():
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key] = value
    return fields


def _leading_header(path: str) -> dict[str, str]:
    # the first comment line with key=value fields before the first sample
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                header = _parse_header(line)
                if header:
                    return header
            elif line:
                break
    return {}


def _raise_bad_line(path: str, reason: str) -> NoReturn:
    # error path of read_trace: find the first line that is neither blank,
    # a comment nor one float, to report it with its line number
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                float(line)
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected one float per line, got {line!r}"
                ) from None
    raise TraceFormatError(f"{path}: cannot parse samples: {reason}")


def read_trace(
    path: str,
    fmt: str = "csv",
    dt: float | None = None,
    f0: float | None = None,
) -> PhaseTrace:
    """Load a phase trace; ``fmt`` is ``"csv"`` or ``"raw_f64_le"``.

    For raw input the sample interval must come from ``dt``; for CSV it
    comes from the header (a ``dt`` argument overrides it).  The CSV
    header is the first ``#`` line with ``key=value`` fields before the
    first sample; the samples are parsed in one ``np.loadtxt`` call,
    which rounds correctly, so ``write_trace`` output reads back
    bit-exactly.  Blank lines and ``#`` comment lines are skipped.  A
    file that cannot be opened, a CSV that is not ASCII and a raw file
    that is not a whole number of 8-byte samples are a
    ``TraceFormatError`` too.
    """
    try:
        return _read_trace(path, fmt, dt, f0)
    except OSError as exc:
        raise TraceFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise TraceFormatError(
            f"{path}: not an ASCII trace (raw float64 input needs --format raw_f64_le)"
        ) from None


def _read_trace(path: str, fmt: str, dt: float | None, f0: float | None) -> PhaseTrace:
    if fmt == "raw_f64_le":
        if dt is None:
            raise TraceFormatError("raw traces need an explicit dt")
        size = os.path.getsize(path)
        if size % 8:
            raise TraceFormatError(
                f"{path}: {size} bytes is not a whole number of 8-byte float64 samples"
            )
        samples = np.fromfile(path, dtype="<f8")
        return PhaseTrace(dt=dt, samples=samples, f0=f0, source=path)
    if fmt != "csv":
        raise TraceFormatError(f"unknown trace format {fmt!r}")
    header = _leading_header(path)
    with warnings.catch_warnings():
        # a header-only file is reported below as too short, not as a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            values = np.loadtxt(path, comments="#", dtype=float, ndmin=2, encoding="ascii")
        except ValueError as exc:
            _raise_bad_line(path, str(exc))
    if values.shape[1] != 1:
        _raise_bad_line(path, f"{values.shape[1]} columns")
    if dt is None:
        if "dt" not in header:
            raise TraceFormatError(f"{path}: header missing dt")
        try:
            dt = float(header["dt"])
        except ValueError:
            raise TraceFormatError(f"{path}: bad dt {header['dt']!r}") from None
    if f0 is None and "f0" in header:
        try:
            f0 = float(header["f0"])
        except ValueError:
            raise TraceFormatError(f"{path}: bad f0 {header['f0']!r}") from None
    return PhaseTrace(dt=dt, samples=values[:, 0], f0=f0, source=path)


def write_trace(trace: PhaseTrace, path: str | None, fmt: str = "csv") -> None:
    """Write a trace so that ``read_trace`` reproduces it bit-exactly.

    An empty or ``None`` path writes to stdout.  A file that cannot be
    opened or written, a full device included, raises ``OSError`` with
    ``filename`` set to ``path``.
    """
    if fmt == "raw_f64_le":
        with _output(path, "wb") as fh:
            fh.write(trace.samples.astype("<f8"))
        return
    if fmt != "csv":
        raise TraceFormatError(f"unknown trace format {fmt!r}")
    with _output(path) as fh:
        header = f"# dt={trace.dt!r}"
        if trace.f0 is not None:
            header += f" f0={trace.f0!r}"
        fh.write(header + "\n")
        if trace.source:
            fh.write(f"# {trace.source}\n")
        # in blocks, so the Python strings of a long trace never all exist
        for start in range(0, trace.samples.size, _WRITE_BLOCK):
            block = trace.samples[start : start + _WRITE_BLOCK].tolist()
            fh.write("\n".join(map(repr, block)) + "\n")


@contextlib.contextmanager
def _output(path: str | None, mode: str = "w"):
    # the file at path, ASCII text or "wb", or stdout when path is empty.
    # An OSError from opening, writing or closing it names the path, since
    # a failed write (as on a full device) carries no file name.
    try:
        if not path:
            yield sys.stdout.buffer if "b" in mode else sys.stdout
            sys.stdout.flush()
        else:
            with open(path, mode, encoding=None if "b" in mode else "ascii") as fh:
                yield fh
    except OSError as exc:
        if not path:
            # stdout may keep the bytes it could not write; send them to
            # devnull so the flush at interpreter exit cannot fail again
            with contextlib.suppress(OSError, ValueError):
                stdout_fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout_fd)
                os.close(devnull)
        exc.filename = path or "<stdout>"
        raise


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _add_mixture_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hurst", type=float, help="single component with coefficient 1")
    p.add_argument("--c-white", type=float, help="coefficient of the H=1/2 component (rad s^-1/2)")
    p.add_argument("--c-flicker", type=float, help="coefficient of the H=1 component (rad s^-1)")
    p.add_argument(
        "--component",
        action="append",
        metavar="H:C",
        help="extra component as hurst:coeff (repeatable)",
    )


def _mixture_from_args(args) -> NoiseMixture:
    pairs = []
    if args.hurst is not None:
        pairs.append((args.hurst, 1.0))
    if args.c_white is not None:
        pairs.append((0.5, args.c_white))
    if args.c_flicker is not None:
        pairs.append((1.0, args.c_flicker))
    for spec in args.component or []:
        try:
            h_str, _, c_str = spec.partition(":")
            pairs.append((float(h_str), float(c_str)))
        except ValueError:
            raise DomainError(f"bad --component {spec!r}, expected H:C") from None
    if not pairs:
        raise DomainError(
            "no noise model given; use --hurst, --c-white/--c-flicker or --component"
        )
    return NoiseMixture.from_pairs(pairs)


def _parse_lags(spec: str) -> list[int]:
    """Lag list from '1:100', '1:100:5' or '1,2,5,10'."""
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
            lags = list(range(start, stop + 1, step))
        else:
            lags = [int(p) for p in spec.split(",")]
    except (ValueError, IndexError):
        raise DomainError(f"bad lag specification {spec!r}") from None
    if not lags:
        raise DomainError(f"empty lag specification {spec!r}")
    return lags


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` and a final newline to the file ``out``, or to stdout."""
    text += "\n"
    with _output(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    mix = _mixture_from_args(args)
    if args.f0 is not None and not (args.f0 > 0 and math.isfinite(args.f0)):
        raise DomainError(f"--f0 must be positive and finite, got {args.f0}")
    trace_mode = args.samples is not None
    other_mode = ("t0", "t1", "n", "paths") if trace_mode else ("dt",)
    given = [f"--{name}" for name in other_mode if getattr(args, name) is not None]
    if given:
        mode = "trace mode (--samples)" if trace_mode else "grid mode"
        raise DomainError(f"{mode} does not take {', '.join(given)}")
    if trace_mode:
        if args.dt is None:
            raise DomainError("trace mode needs --dt")
        samples = fbm.simulate_trace(mix, args.samples, args.dt, args.seed)
        trace = PhaseTrace(
            dt=args.dt,
            samples=samples,
            f0=args.f0,
            source=f"rng={fbm.RNG_ALGORITHM} seed={args.seed}",
        )
        write_trace(trace, args.out)
        return 0
    if args.t0 is None or args.t1 is None or args.n is None:
        raise DomainError("grid mode needs --t0, --t1 and --n (or use --samples)")
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise DomainError(f"--t0 and --t1 must be finite, got ({args.t0}, {args.t1})")
    if not 0 < args.t0 < args.t1:
        raise DomainError("need 0 < t0 < t1")
    if args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n}")
    n_paths = 1 if args.paths is None else args.paths
    grid = TimeGrid(np.linspace(args.t0, args.t1, args.n))
    paths = fbm.simulate(mix, grid, n_paths, args.seed)
    dt = (args.t1 - args.t0) / (args.n - 1) if args.n > 1 else args.t1 - args.t0
    header = f"# dt={dt!r} t0={args.t0!r}" + (f" f0={args.f0!r}" if args.f0 is not None else "")
    with _output(args.out) as fh:
        fh.write(f"{header}\n# rng={fbm.RNG_ALGORITHM} seed={args.seed} paths={n_paths}\n")
        # in blocks of rows, so the text of the whole matrix never exists
        step = max(1, _WRITE_BLOCK // n_paths)
        for start in range(0, len(paths), step):
            rows = paths[start : start + step].tolist()
            fh.write("\n".join(",".join(map(repr, row)) for row in rows) + "\n")
    return 0


def _cmd_covariance(args) -> int:
    payload = {
        "hurst": args.hurst,
        "s": args.s,
        "t": args.t,
        "covariance": fbm.covariance(args.hurst, args.s, args.t),
        "variance_s": fbm.variance(args.hurst, args.s),
        "variance_t": fbm.variance(args.hurst, args.t),
    }
    if args.s > 0 and args.t > 0:
        payload["correlation"] = fbm.correlation(args.hurst, args.s, args.t)
    _emit(_json(payload), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if not (args.omega_min > 0.0 and math.isfinite(args.omega_min)):
        raise DomainError(f"--omega-min must be positive and finite, got {args.omega_min}")
    if not (args.omega_max >= args.omega_min and math.isfinite(args.omega_max)):
        raise DomainError(
            f"--omega-max must be finite and >= --omega-min, got {args.omega_max}"
        )
    if args.n_omega < 1:
        raise DomainError(f"--n-omega must be >= 1, got {args.n_omega}")
    omegas = np.logspace(math.log10(args.omega_min), math.log10(args.omega_max), args.n_omega)
    if args.avg_time is not None:
        pts = spectrum.time_averaged(args.hurst, args.avg_time, omegas)
    else:
        pts = spectrum.instantaneous(args.hurst, args.time, omegas)
    lines = ["omega,value,branch"]
    lines += [
        f"{om!r},{value!r},{branch}"
        for om, value, branch in zip(pts.omega.tolist(), pts.value.tolist(), pts.branch.tolist())
    ]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_leakage(args) -> int:
    mix = _mixture_from_args(args)
    variance = leakage.conditional_variance(mix, args.gap)
    parts = fbm.component_variances(mix, args.gap)
    components = [
        {"hurst": hurst.h, "coeff": coeff, "contribution": part}
        for (hurst, coeff), part in zip(mix.components, parts)
    ]
    payload = {"gap_tau": args.gap, "conditional_variance": variance, "components": components}
    _emit(_json(payload), args.out)
    return 0


def _report_payload(report: entropy.SecurityReport) -> dict:
    return {
        "sigma2": report.sigma2,
        "duty_alpha": report.duty_alpha,
        "bias": report.bias,
        "min_entropy_bits": report.min_entropy_bits,
        "per_component": [
            {"hurst": h, "contribution": c} for h, c in report.per_component
        ],
    }


def _cmd_entropy(args) -> int:
    mix = _mixture_from_args(args)
    report = entropy.bandwidth_report(mix, args.alpha, args.dt)
    if args.curves:
        grid, biases, entr = entropy.bias_entropy_curve(args.alpha)
        lines = ["sigma2,bias,min_entropy_bits"]
        lines += [
            f"{float(s2)!r},{float(b)!r},{float(e)!r}"
            for s2, b, e in zip(grid, biases, entr)
        ]
        _emit("\n".join(lines), args.curves)
    _emit(_json(_report_payload(report)), args.out)
    return 0


def _cmd_bandwidth(args) -> int:
    mix = _mixture_from_args(args)
    dt = entropy.solve_min_dt(mix, args.alpha, args.target)
    report = entropy.bandwidth_report(mix, args.alpha, dt)
    payload = {"dt": dt, "target": args.target, "report": _report_payload(report)}
    _emit(_json(payload), args.out)
    return 0


def _cmd_avar(args) -> int:
    trace = read_trace(args.infile, fmt=args.format, dt=args.dt, f0=args.f0)
    curve = allan.estimate(trace, _parse_lags(args.lags))
    lines = ["lag_s,var,var_normalized,count"]
    for lag, var, cnt in zip(curve.lags, curve.variances, curve.counts):
        lag, var = float(lag), float(var)
        if trace.f0 is not None:
            # classic Allan convention for fractional frequency
            try:
                norm = var / (2.0 * lag**2 * (2.0 * math.pi * trace.f0) ** 2)
            except (ZeroDivisionError, OverflowError):
                norm = math.inf
            if not math.isfinite(norm):
                raise DomainError(
                    f"f0 = {trace.f0!r} puts the normalised variance at lag "
                    f"{lag!r} s out of the double range"
                )
            norm_txt = repr(norm)
        else:
            norm_txt = "nan"
        lines.append(f"{lag!r},{var!r},{norm_txt},{int(cnt)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_calibrate(args) -> int:
    trace = read_trace(args.infile, fmt=args.format, dt=args.dt, f0=args.f0)
    curve = allan.estimate(trace, _parse_lags(args.lags))
    fit = allan.fit_mixture(curve)
    payload = {
        "c_white": fit.c_white,
        "c_flicker": fit.c_flicker,
        "residual_norm": fit.residual_norm,
        # strict JSON: an entry that overflowed, or NaN of a singular fit, is null
        "covariance_of_fit": [
            [float(v) if math.isfinite(v) else None for v in row]
            for row in fit.covariance_of_fit
        ],
        "n_lags": int(curve.lags.size),
        "max_abs_d2_mean": float(np.max(np.abs(curve.d2_means))),
    }
    _emit(_json(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was, and
    # each call fills a fresh Namespace (an append action copies its list)
    parser = argparse.ArgumentParser(
        prog="oscnoise",
        description="Closed-form phase-noise analysis for oscillator TRNGs "
        "(SI units: seconds, hertz, radians).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample phase paths (grid) or one long trace")
    _add_mixture_flags(p)
    p.add_argument("--t0", type=float, help="grid start time (s), grid mode")
    p.add_argument("--t1", type=float, help="grid end time (s), grid mode")
    p.add_argument("--n", type=int, help="number of grid points, grid mode")
    p.add_argument("--paths", type=int, help="paths to draw, grid mode (default 1)")
    p.add_argument("--samples", type=int, help="trace length; switches to trace mode")
    p.add_argument("--dt", type=float, help="sample interval (s), trace mode")
    p.add_argument("--f0", type=float, help="nominal frequency recorded in the header (Hz)")
    p.add_argument("--seed", type=int, required=True, help="PCG64 seed")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("covariance", help="closed-form covariance of one component")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--s", type=float, required=True, help="first time (s)")
    p.add_argument("--t", type=float, required=True, help="second time (s)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_covariance)

    p = sub.add_parser("spectrum", help="instantaneous or time-averaged spectrum as CSV")
    p.add_argument("--hurst", type=float, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--time", type=float, help="fixed time t for the instantaneous spectrum (s)")
    g.add_argument("--avg-time", type=float, help="averaging horizon T (s)")
    p.add_argument("--omega-min", type=float, required=True, help="rad/s")
    p.add_argument("--omega-max", type=float, required=True, help="rad/s")
    p.add_argument("--n-omega", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("leakage", help="conditional variance after full-history leakage")
    _add_mixture_flags(p)
    p.add_argument("--gap", type=float, required=True, help="time since last observation (s)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_leakage)

    p = sub.add_parser("entropy", help="per-bit security report for a sampling interval")
    _add_mixture_flags(p)
    p.add_argument("--dt", type=float, required=True, help="sampling interval (s)")
    p.add_argument("--alpha", type=float, default=0.5, help="duty cycle (default 0.5)")
    p.add_argument("--curves", help="also write bias/entropy vs sigma^2 CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("bandwidth", help="smallest dt reaching a min-entropy target")
    _add_mixture_flags(p)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--target", type=float, required=True, help="target min-entropy (bits)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bandwidth)

    for name, help_text in (
        ("avar", "second-difference variance curve of a trace"),
        ("calibrate", "recover white/flicker coefficients from a trace"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, help="trace file")
        p.add_argument("--format", choices=["csv", "raw_f64_le"], default="csv")
        p.add_argument("--dt", type=float, help="sample interval, required for raw input (s)")
        p.add_argument("--f0", type=float, help="nominal frequency override (Hz)")
        p.add_argument("--lags", required=True, help="'1:100', '1:100:5' or '1,2,5'")
        p.add_argument("--out")
        p.set_defaults(func=_cmd_avar if name == "avar" else _cmd_calibrate)

    return parser


def dispatch(argv) -> int:
    """Run one CLI invocation; exit code 0 on success, 1 on domain errors,
    on output files that cannot be opened or written and on running out
    of memory, 2 on usage errors.

    Errors with exit code 1 print one ``oscnoise: error:`` line to
    stderr; for an I/O error it reads ``<path>: <reason>``.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OscNoiseError as exc:
        print(f"oscnoise: error: {exc}", file=sys.stderr)
    except OSError as exc:
        reason = f"{exc.filename}: {exc.strerror or exc}" if exc.filename else exc
        print(f"oscnoise: error: {reason}", file=sys.stderr)
    except MemoryError as exc:
        # as from a grid too large for its covariance matrix
        print(f"oscnoise: error: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 1


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
