"""Benchmark of the oscnoise pipelines, one workload per process.

    python3 perfbench/run.py --workload calibrate|grid|security \
        [--seed 1] [--seconds 20] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
The loop is closed: one operation at a time, each checked after it ends.
A warm-up operation runs before timing starts, then whole rounds of
operations run until their summed wall time reaches ``--seconds``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per operation) with ``--trace 1``.
The line before it records the machine and the run.
"""

import os

# one BLAS thread, set before numpy loads: on two shared cores extra BLAS
# threads measure the scheduler rather than the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
SETUP_SAMPLES = 3

PER_LAYER = {
    "specfun.hyp2f1_curve.self_s": "s",
    "specfun.hyp2f1_curve.z_evals": "count",
    "fbm.covariance_matrix.self_s": "s",
    "fbm.cholesky_with_jitter.self_s": "s",
    "fbm.simulate.self_s": "s",
    "fbm.covariance.calls": "count",
    "fbm.covariance.self_s": "s",
    "specfun.theta3.calls": "count",
    "specfun.theta3.self_s": "s",
    "entropy.bias.calls": "count",
    "entropy.bias.self_s": "s",
    "entropy.bias_entropy_curve.self_s": "s",
    "entropy.solve_min_dt.self_s": "s",
    "leakage.discrete_posterior.self_s": "s",
    "specfun.hyp1f2.calls": "count",
    "specfun.hyp1f2.self_s": "s",
    "spectrum.time_averaged.self_s": "s",
    "fbm.simulate_trace.self_s": "s",
    "cli.write_trace.self_s": "s",
    "cli.read_trace.self_s": "s",
    "cli.trace_bytes": "bytes",
    "allan.estimate.self_s": "s",
    "allan.fit_mixture.self_s": "s",
    "cli.dispatch.self_s": "s",
}

# set-up as a user pays it: a fresh interpreter importing oscnoise, plus
# building the workload's inputs (importing the benchmark is not counted)
SETUP_PROBE = """
import sys, time
here, src, name, seed, workdir = sys.argv[1:6]
sys.path[:0] = [src, here]
t0 = time.perf_counter()
import oscnoise
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[name](int(seed), workdir)
print(t1 - t0 + time.perf_counter() - t2)
"""


def setup_seconds(name: str, seed: int, workdir: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, HERE, SRC, name, str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def cpu_times() -> list[int] | None:
    """The aggregate cpu line of /proc/stat, up to and including steal."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import mpmath
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "oscnoise")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def attempt(op, label: str, tracer=None) -> tuple[float, float, bool, bool]:
    """Time one operation, then check it: (wall s, cpu s, ok, output correct).

    An operation that raises, or whose check fails, is not ok; only a
    failed check makes the output incorrect.
    """
    if tracer:
        tracer.active = True
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception:
        error = traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer:
        tracer.active = False
    if error:
        print(f"perfbench: {label} failed:\n{error}", file=sys.stderr)
        return t1 - t0, c1 - c0, False, True
    try:
        problems = op.check(out)
    except Exception:
        problems = [f"check raised\n{traceback.format_exc()}"]
    for p in problems:
        print(f"perfbench: {label}: {p}", file=sys.stderr)
    return t1 - t0, c1 - c0, not problems, not problems


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Warm up, then run whole rounds until their wall time reaches seconds."""
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        # output not checked: the warm-up is neither timed nor counted
        workload.round(0)[0].run()
    except Exception:
        print(f"perfbench: warm-up failed:\n{traceback.format_exc()}", file=sys.stderr)
    correct = True
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    walls = []
    rounds = []  # per round: (wall s, cpu s, operations, operations completed)
    failed = 0
    stat0 = cpu_times()
    index = 1
    try:
        while not walls or sum(walls) < seconds:
            ops = workload.round(index)
            round_wall = round_cpu = 0.0
            completed = 0
            for op in ops:
                if tracer:
                    tracer.operation = len(walls)
                wall, cpu, ok, right = attempt(op, f"round {index} op {len(walls)}", tracer)
                walls.append(wall)
                round_wall += wall
                round_cpu += cpu
                completed += ok
                correct = correct and right
            failed += len(ops) - completed
            rounds.append((round_wall, round_cpu, len(ops), completed))
            index += 1
    finally:
        if tracer:
            tracer.uninstall()
    stat1 = cpu_times()
    attempted = len(walls)
    # rates are taken per round and their median reported, so that a burst
    # of steal time in one round does not move the run's figure
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "timed_s": sum(walls),
        "op_s_p50": statistics.median(walls),
        "op_s_p90": statistics.quantiles(walls, n=10)[-1] if attempted > 1 else walls[0],
        "ops_per_s": statistics.median(done / wall for wall, _, _, done in rounds),
        "cpu_s_per_op": statistics.median(cpu / n for _, cpu, n, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steal_share": steal_share(stat0, stat1),
        "process_threads": process_threads(),
    }
    if tracer:
        layer = {}
        for metric in PER_LAYER:
            func, _, kind = metric.rpartition(".")
            if kind == "self_s":
                total = tracer.self_s.get(func, 0.0)
            elif kind == "calls":
                total = tracer.calls.get(func, 0)
            else:
                total = tracer.counts.get(metric, 0)
            layer[metric] = total / attempted
        result["per_layer"] = layer
        result["spans"] = len(tracer.start)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{name}.npz"))
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["calibrate", "grid", "security"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oscnoise", "__init__.py")):
        print(f"perfbench: no oscnoise sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import oscnoise

    if os.path.dirname(os.path.dirname(os.path.abspath(oscnoise.__file__))) != SRC:
        print(f"perfbench: oscnoise imported from {oscnoise.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup = [setup_seconds(args.workload, args.seed, workdir) for _ in range(SETUP_SAMPLES)]
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in run.pop("per_layer").items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_s_p50": {"value": run["op_s_p50"], "unit": "s"},
            "cpu_s_per_op": {"value": run["cpu_s_per_op"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup, "machine": machine_record(), **run}
    print("perfbench record " + json.dumps(record))
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
