"""Greedy lifetime consumption and investment under habit-scaled utility.

Monte Carlo implementation of the pointwise-optimal ("greedy")
consumption rule for a retiree with multiplicative habit formation,
Gompertz mortality, and a constant Black-Scholes market: multiplier
calibration via the budget identity, wealth via the martingale
representation, and the risky allocation via nested simulation with a
pathwise delta.
"""

from . import allocation, habit, lifetime, market, merton, solver
from .allocation import *  # noqa: F403
from .habit import *  # noqa: F403
from .lifetime import *  # noqa: F403
from .market import *  # noqa: F403
from .merton import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

# the package exports each module's public names, listed once in its __all__
__all__ = [
    *market.__all__,
    *habit.__all__,
    *solver.__all__,
    *allocation.__all__,
    *lifetime.__all__,
    *merton.__all__,
]
