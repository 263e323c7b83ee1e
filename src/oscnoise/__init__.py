"""Closed-form phase-noise analysis for oscillator-based random number
generators.

Accumulated oscillator phase is modelled as a mixture of self-similar
power-law Gaussian processes (white frequency noise at Hurst exponent
1/2, flicker at 1).  On top of that model the package provides, in
closed form: covariance and exact simulation (:mod:`oscnoise.fbm`),
time-varying and averaged spectra (:mod:`oscnoise.spectrum`), leftover
uncertainty after full leakage of the phase history
(:mod:`oscnoise.leakage`), worst-case bit bias and min-entropy of
threshold-sampled bits (:mod:`oscnoise.entropy`), and calibration of the
noise coefficients from measured traces, a :class:`PhaseTrace`, via
second-difference statistics (:mod:`oscnoise.allan`).  ``oscnoise.cli``
exposes all of it as a command-line tool and owns the trace file format
(``read_trace``, ``write_trace``); the library does not import it, so it
is loaded on first use of one of those names.
"""

import importlib

from . import allan, entropy, fbm, leakage, specfun, spectrum
from .allan import AllanCurve, FitResult, PhaseTrace
from .entropy import SecurityReport, WrappedGaussian
from .errors import (
    ConvergenceError,
    DecompositionError,
    DomainError,
    InsufficientDataError,
    NoSolutionError,
    OscNoiseError,
    TraceFormatError,
)
from .fbm import HurstExponent, NoiseMixture, OscillatorConfig, TimeGrid
from .specfun import Tolerance

__version__ = "0.1.0"

__all__ = [
    "AllanCurve",
    "ConvergenceError",
    "DecompositionError",
    "DomainError",
    "FitResult",
    "HurstExponent",
    "InsufficientDataError",
    "NoSolutionError",
    "NoiseMixture",
    "OscNoiseError",
    "OscillatorConfig",
    "PhaseTrace",
    "SecurityReport",
    "TimeGrid",
    "Tolerance",
    "TraceFormatError",
    "WrappedGaussian",
    "allan",
    "cli",
    "entropy",
    "fbm",
    "leakage",
    "read_trace",
    "specfun",
    "spectrum",
    "write_trace",
    "__version__",
]


def __getattr__(name):
    # importing cli eagerly would put it in sys.modules before
    # ``python -m oscnoise.cli`` runs it, which runpy warns about; a plain
    # ``from . import cli`` here would re-enter this hook through the
    # import system's fromlist handling, so the submodule is imported by name
    if name in ("cli", "read_trace", "write_trace"):
        cli = importlib.import_module(f"{__name__}.cli")
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
