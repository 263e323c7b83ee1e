"""The benchmark's workloads: their inputs, operations and output checks.

A workload is built from a seed and a private working directory.  Its
``round(index)`` returns the operations of one round; every round of a
workload has the same make-up, so a run of whole rounds repeats the same
mix whatever its length.  An operation's ``run`` enters the program only
through ``oscnoise.cli.dispatch`` (the console script minus process
start-up) or ``oscnoise.leakage.discrete_posterior``; its ``check`` reads
what ``run`` wrote and returns a list of problems.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from oscnoise import cli, leakage, specfun
from oscnoise.fbm import TimeGrid

import checks

MIX_FLAGS = ["--c-white", "1", "--c-flicker", "0.5"]
MIX_PAIRS = ((0.5, 1.0), (1.0, 0.5))


class OperationError(RuntimeError):
    """The program reported an error for an operation."""


@dataclass
class Operation:
    run: Callable[[], object]
    check: Callable[[object], list]


def op_seed(seed: int, *index: int) -> int:
    """A seed for one operation, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def dispatch(argv: list[str]) -> None:
    # cli.dispatch is looked up at call time, so the tracer's wrapper is used
    code = cli.dispatch(argv)
    if code != 0:
        raise OperationError(f"oscnoise {' '.join(argv)} exited with {code}")


def read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


class Calibrate:
    """simulate (1e6 samples, dt = 1 s) -> avar -> calibrate, fresh seed each.

    dt = 1 s puts flicker at 92% of the statistic at lag 100, so both
    coefficients are identifiable; at dt = 1e-3 s flicker is under 1%.
    """

    C_WHITE, C_FLICKER = 1.0, 0.5
    SAMPLES = 1_000_000
    LAGS = range(1, 101)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.trace = os.path.join(workdir, "trace.csv")
        self.rerun = os.path.join(workdir, "trace_rerun.csv")
        self.curve = os.path.join(workdir, "curve.csv")
        self.fit = os.path.join(workdir, "calibrate.json")

    def simulate_argv(self, seed: int, out: str) -> list[str]:
        return ["simulate", *MIX_FLAGS, "--samples", str(self.SAMPLES), "--dt", "1",
                "--f0", "1e8", "--seed", str(seed), "--out", out]

    def round(self, index: int) -> list[Operation]:
        seed = op_seed(self.seed, index)
        lags = f"{self.LAGS[0]}:{self.LAGS[-1]}"

        def run():
            dispatch(self.simulate_argv(seed, self.trace))
            dispatch(["avar", "--in", self.trace, "--lags", lags, "--out", self.curve])
            dispatch(["calibrate", "--in", self.trace, "--lags", lags, "--out", self.fit])

        def check(_):
            problems = checks.check_calibration(
                json.loads(read(self.fit)), self.C_WHITE, self.C_FLICKER)
            problems += checks.check_avar(read(self.curve), self.LAGS, 1.0, self.C_WHITE,
                                          self.C_FLICKER, self.SAMPLES)
            dispatch(self.simulate_argv(seed, self.rerun))
            with open(self.trace, "rb") as a, open(self.rerun, "rb") as b:
                problems += checks.check_identical(a.read(), b.read())
            return problems

        return [Operation(run, check)]


@dataclass(frozen=True)
class GridCase:
    flags: tuple[str, ...]
    pairs: tuple[tuple[float, float], ...]
    n: int
    # (i, j) grid indices whose variance and covariance are checked
    index_pairs: tuple[tuple[int, int], ...]


def _far_and_near(n: int) -> tuple[tuple[int, int], ...]:
    # the ends (s/t = 0.1) and two neighbour pairs (s/t > 0.97: the
    # transformed 2F1 branch, or the mpmath fallback near degenerate 2H)
    return ((0, n - 1), (n // 2, n // 2 + 1), (n - 2, n - 1))


class Grid:
    """Grid-mode simulate, 256 paths on [1, 10], five cases per operation.

    Three generic H across (0, 3/2) at N = 1024, the white+flicker mixture
    at N = 2048, and H = 0.99999 (2H within 2e-5 of 2) at N = 64, where
    every near-diagonal 2F1 value goes through mpmath.  256 paths rather
    than 1000 keep CSV formatting from swamping the covariance kernel.
    """

    PATHS = 256
    T0, T1 = 1.0, 10.0
    CASES = tuple(
        GridCase(("--hurst", repr(h)), ((h, 1.0),), n, _far_and_near(n))
        for h, n in ((0.3, 1024), (0.75, 1024), (1.25, 1024))
    ) + (
        GridCase(tuple(MIX_FLAGS), MIX_PAIRS, 2048, _far_and_near(2048)),
        GridCase(("--hurst", "0.99999"), ((0.99999, 1.0),), 64, _far_and_near(64)),
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.outs = [os.path.join(workdir, f"paths{k}.csv") for k in range(len(self.CASES))]

    def round(self, index: int) -> list[Operation]:
        seeds = [op_seed(self.seed, index, k) for k in range(len(self.CASES))]

        def run():
            for case, seed, out in zip(self.CASES, seeds, self.outs):
                dispatch(["simulate", *case.flags, "--t0", repr(self.T0), "--t1", repr(self.T1),
                          "--n", str(case.n), "--paths", str(self.PATHS), "--seed", str(seed),
                          "--out", out])

        def check(_):
            problems = []
            for case, seed, out in zip(self.CASES, seeds, self.outs):
                problems += checks.check_paths(read(out), case.pairs, self.T0, self.T1, case.n,
                                               self.PATHS, seed, case.index_pairs)
            return problems

        return [Operation(run, check)]


class Security:
    """One design point per operation, from a fixed 18-point cycle.

    Duty alpha in {0.3, 0.5, 0.77}; dt in {0.05, 2} s, which puts sigma^2
    at 0.05 and 2.6 rad^2, on both sides of the theta switch (nome 0.9 at
    sigma^2 = 0.21); posterior and spectrum H in {0.3, 0.75, 1.25}.  An
    operation runs entropy --curves, bandwidth at 90% of the alpha-dependent
    supremum, leakage, spectrum over omega in [0.1, 1e3] (all three 1F2
    branches), and discrete_posterior on 64 observations.
    """

    ALPHAS = (0.3, 0.5, 0.77)
    DTS = (0.05, 2.0)
    HURSTS = (0.3, 0.75, 1.25)
    AVG_TIME = 1.0
    OMEGA = (0.1, 1e3, 50)
    N_OBS = 64
    OBS_SPAN = (0.1, 6.4)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cycle = list(itertools.product(self.ALPHAS, self.DTS, self.HURSTS))
        self.obs_times = np.linspace(*self.OBS_SPAN, self.N_OBS)
        self.grid = TimeGrid(self.obs_times)
        self.files = {k: os.path.join(workdir, f"{k}.out")
                      for k in ("entropy", "curves", "bandwidth", "leakage", "spectrum")}
        self._spectrum_refs = {}

    def spectrum_reference(self, h: float) -> dict:
        """omega -> (mpmath value, error bound the program states), per H."""
        if h not in self._spectrum_refs:
            lo, hi, n = self.OMEGA
            ref = {}
            for om in np.logspace(math.log10(lo), math.log10(hi), n):
                om = float(om)
                x = self.AVG_TIME * om
                stated = specfun.hyp1f2(h + 0.5, h + 1.5, h + 2.0, -x * x).error_estimate
                scale = 2.0 ** (2 * h + 1) * self.AVG_TIME ** (2 * h + 1) / math.gamma(2 * h + 3)
                ref[om] = (checks.time_averaged_spectrum(h, self.AVG_TIME, om), scale * stated)
            self._spectrum_refs[h] = ref
        return self._spectrum_refs[h]

    def round(self, index: int) -> list[Operation]:
        rng = np.random.default_rng(op_seed(self.seed, index))
        return [self._operation(alpha, dt, h, rng.standard_normal(self.N_OBS))
                for alpha, dt, h in self.cycle]

    def _operation(self, alpha: float, dt: float, h: float, z: np.ndarray) -> Operation:
        f = self.files
        target = 0.9 * -math.log2(0.5 + abs(alpha - 0.5))
        target_t = self.OBS_SPAN[1] + dt
        observations = z * np.sqrt([checks.rl_variance(h, t) for t in self.obs_times])
        lo, hi, n = self.OMEGA

        def run():
            dispatch(["entropy", *MIX_FLAGS, "--dt", repr(dt), "--alpha", repr(alpha),
                      "--curves", f["curves"], "--out", f["entropy"]])
            dispatch(["bandwidth", *MIX_FLAGS, "--alpha", repr(alpha), "--target", repr(target),
                      "--out", f["bandwidth"]])
            dispatch(["leakage", *MIX_FLAGS, "--gap", repr(dt), "--out", f["leakage"]])
            dispatch(["spectrum", "--hurst", repr(h), "--avg-time", repr(self.AVG_TIME),
                      "--omega-min", repr(lo), "--omega-max", repr(hi), "--n-omega", str(n),
                      "--out", f["spectrum"]])
            return leakage.discrete_posterior(h, self.grid, target_t, observations)

        def check(posterior):
            problems = checks.check_entropy(json.loads(read(f["entropy"])), read(f["curves"]),
                                            MIX_PAIRS, dt, alpha)
            problems += checks.check_bandwidth(json.loads(read(f["bandwidth"])), MIX_PAIRS,
                                               alpha, target)
            problems += checks.check_leakage(json.loads(read(f["leakage"])), MIX_PAIRS, dt)
            problems += checks.check_spectrum(read(f["spectrum"]), h, self.spectrum_reference(h))
            problems += checks.check_posterior(posterior[1], h, self.OBS_SPAN[1], target_t)
            return problems

        return Operation(run, check)


WORKLOADS = {"calibrate": Calibrate, "grid": Grid, "security": Security}
