"""Cover-time math and seeded simulation for Bernoulli row-sparsity patterns.

The package answers one question from several directions: how many columns
must an n x p matrix with i.i.d. Bernoulli(theta)-sparse entries have
before every row holds a nonzero entry?  `coverage` gives the exact
distribution theory, `bounds` the closed-form lower bounds, `montecarlo`
seeded stochastic verification, `omf` concrete orthogonal-times-sparse
instances where row coverage is the recovery-necessary condition, and
`cli` a command-line front end over all of it.
"""

from .bounds import *
from .coverage import *
from .errors import DomainError
from .montecarlo import *
from .omf import *

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    *coverage.__all__,
    *bounds.__all__,
    *montecarlo.__all__,
    *omf.__all__,
    "__version__",
]
