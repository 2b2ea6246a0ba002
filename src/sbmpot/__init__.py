"""Potential theory for subordinate Brownian motion.

Complete Bernstein functions and their conjugates, potential and Levy
densities as integrals over phi's cut, Green and jump kernels through
subordination, ladder-height objects on the half-line, and a deterministic
Monte Carlo engine for exit-time, exit-distribution, Harnack, and boundary
Harnack checks.

Each module's ``__all__`` is the one list of its public names.  The package
re-exports those of bernstein, densities, errors, harnack, kernels, ladder
and montecarlo; laplace and rng are reachable as modules only.
"""

from . import bernstein, densities, errors, harnack, kernels, ladder, laplace, montecarlo, rng
from .bernstein import *
from .densities import *
from .errors import *
from .harnack import *
from .kernels import *
from .ladder import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bernstein", "densities", "errors", "harnack", "kernels", "ladder", "laplace",
    "montecarlo", "rng",
    *bernstein.__all__, *densities.__all__, *errors.__all__, *harnack.__all__,
    *kernels.__all__, *ladder.__all__, *montecarlo.__all__,
]
