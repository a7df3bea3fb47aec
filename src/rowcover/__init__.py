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
either module, to any name they export, or to `__all__`.
"""

import importlib

from .bounds import *
from .coverage import *
from .errors import DomainError

__version__ = "0.1.0"


def __getattr__(name: str):
    # Called only for names not yet in the namespace (PEP 562).  Private
    # names are refused at once: `from . import _streams` inside montecarlo
    # looks the submodule up here first, and importing montecarlo again
    # from that lookup would be circular.  So is `cli`, the one submodule
    # the package does not import: `from rowcover import cli` looks it up
    # here before importing it, and answering would load numpy.
    if name.startswith("_") and name != "__all__" or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    lazy = [importlib.import_module(f"{__name__}.{module}") for module in ("montecarlo", "omf")]
    for module in lazy:
        namespace.update((key, getattr(module, key)) for key in module.__all__)
    namespace["__all__"] = [
        "DomainError",
        *coverage.__all__,
        *bounds.__all__,
        *(key for module in lazy for key in module.__all__),
        "__version__",
    ]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]
