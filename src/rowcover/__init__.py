"""Cover-time math and seeded simulation for Bernoulli row-sparsity patterns.

The package answers one question from several directions: how many columns
must an n x p matrix with i.i.d. Bernoulli(theta)-sparse entries have
before every row holds a nonzero entry?  `coverage` gives the exact
distribution theory, `bounds` the closed-form lower bounds, `montecarlo`
seeded stochastic verification, `omf` concrete orthogonal-times-sparse
instances where row coverage is the recovery-necessary condition, and
`cli` a command-line front end over all of it.

`coverage` and `bounds` need no numpy and load with the package.
`montecarlo` and `omf` import numpy, so they load on first access to
either module or to any name they export.  The package repeats those names
in _LAZY, which a test holds equal to their `__all__`, so that a lookup of
any other name fails without loading numpy.
"""

import importlib

from .bounds import *
from .coverage import *
from .errors import DomainError

__version__ = "0.1.0"

_LAZY_MODULES = ("montecarlo", "omf")
_LAZY = (
    "Z95", "MonteCarloEstimate", "PhasePoint", "PhaseCurve", "sample_cover_time",
    "sample_indicator_pattern", "estimate_expected_cover_time",
    "estimate_coverage_probability", "phase_sweep",
    "OmfInstance", "CoverageReport", "random_orthogonal", "sample_sparse_matrix",
    "assemble_instance", "row_coverage_check", "coverage_experiment", "write_instance",
    "read_instance",
)

__all__ = ["DomainError", *coverage.__all__, *bounds.__all__, *_LAZY, "__version__"]


def __getattr__(name: str):
    # Called only for names not yet in the namespace (PEP 562).  Any name
    # but a lazy one is refused at once: `from . import _streams` inside
    # montecarlo, and `from rowcover import cli`, look the submodule up
    # here before importing it, and answering would re-enter the import or
    # load numpy.
    if name not in _LAZY and name not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for lazy in _LAZY_MODULES:
        module = importlib.import_module(f"{__name__}.{lazy}")
        namespace.update((key, getattr(module, key)) for key in module.__all__)
    return namespace[name]
