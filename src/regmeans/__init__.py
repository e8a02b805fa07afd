"""Quasi-arithmetic (regular) means.

Generators, the induced means and their axioms, generalized expected values,
normal and Edgeworth asymptotics for the sampling error, a Monte Carlo
verification harness, generator-perturbation stability bounds, and the
geometric-return portfolio application.

Each module's __all__ is the one declaration of its public names; the
package re-exports them in the order below.
"""

__version__ = "0.1.0"

from . import (
    asymptotics,
    distributions,
    errors,
    figures,
    generators,
    means,
    portfolio,
    simulation,
    stability,
)
from .asymptotics import *
from .distributions import *
from .errors import *
from .figures import *
from .generators import *
from .means import *
from .portfolio import *
from .simulation import *
from .stability import *

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += generators.__all__
__all__ += means.__all__
__all__ += distributions.__all__
__all__ += asymptotics.__all__
__all__ += simulation.__all__
__all__ += stability.__all__
__all__ += portfolio.__all__
__all__ += figures.__all__
