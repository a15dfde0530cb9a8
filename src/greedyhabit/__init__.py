"""Greedy lifetime consumption and investment under habit-scaled utility.

Monte Carlo implementation of the pointwise-optimal ("greedy")
consumption rule for a retiree with multiplicative habit formation,
Gompertz mortality, and a constant Black-Scholes market: multiplier
calibration via the budget identity, wealth via the martingale
representation, and the risky allocation via nested simulation with a
pathwise delta.
"""

from .allocation import (
    NestedConfig,
    PolicyPoint,
    ThetaEstimate,
    allocation_at,
    default_zeta_grid,
    policy_curve,
    policy_surface,
    wealth_no_pension,
    wealth_with_pension,
)
from .habit import HabitParams, habit_closed_form, habit_euler_step
from .lifetime import LifetimeRecord, pension_sweep, simulate_lifetime
from .market import (
    DEFAULT_SEED,
    GompertzParams,
    MarketParams,
    PathBundle,
    TimeGrid,
    generate_paths,
    hazard_rate,
    survival_probability,
)
from .merton import (
    MertonOracle,
    merton_alpha,
    merton_annuity,
    merton_budget,
    merton_propensity,
    merton_theta,
)
from .solver import (
    BudgetEstimate,
    BudgetMonotonicityError,
    CalibrationConfig,
    CalibrationError,
    GreedySolution,
    ModelParams,
    budget_value,
    calibrate_alpha,
    consumption_no_pension,
    consumption_with_pension,
    solve_paths,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "MarketParams",
    "GompertzParams",
    "TimeGrid",
    "PathBundle",
    "generate_paths",
    "survival_probability",
    "hazard_rate",
    "HabitParams",
    "habit_euler_step",
    "habit_closed_form",
    "ModelParams",
    "CalibrationConfig",
    "GreedySolution",
    "BudgetEstimate",
    "CalibrationError",
    "BudgetMonotonicityError",
    "consumption_no_pension",
    "consumption_with_pension",
    "solve_paths",
    "budget_value",
    "calibrate_alpha",
    "NestedConfig",
    "ThetaEstimate",
    "PolicyPoint",
    "wealth_no_pension",
    "wealth_with_pension",
    "allocation_at",
    "policy_curve",
    "policy_surface",
    "default_zeta_grid",
    "LifetimeRecord",
    "simulate_lifetime",
    "pension_sweep",
    "MertonOracle",
    "merton_theta",
    "merton_annuity",
    "merton_budget",
    "merton_propensity",
    "merton_alpha",
]
