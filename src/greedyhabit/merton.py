"""Closed-form time-separable (eta = 0) baseline with mortality.

When the habit is frozen at its initial level the problem reduces to a
Merton consumption problem with survival-weighted utility.  Everything
is available in closed form up to a one-dimensional integral

    A(t) = integral_0^{t_max - t} exp(-rho u / gamma)
           * p(age + t, u)^(1/gamma)
           * exp(-a (r + kappa^2 / (2 gamma)) u) du,
    a = 1 - 1/gamma,

which is the wealth-to-consumption annuity factor: optimal consumption
is wealth / A(t), and the optimal risky fraction is the constant
kappa / (sigma gamma).  These serve as independent oracles for the
Monte Carlo machinery in the eta -> 0 limit.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .market import GompertzParams, MarketParams, survival_probability

__all__ = [
    "merton_theta",
    "merton_annuity",
    "merton_budget",
    "merton_propensity",
    "merton_alpha",
]

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-9, limit=200)


def merton_theta(market: MarketParams) -> float:
    """Constant optimal risky fraction kappa / (sigma * gamma)."""
    return market.kappa / (market.sigma * market.gamma)


def merton_annuity(
    market: MarketParams,
    mortality: GompertzParams,
    t: float = 0.0,
    t_max: float = 60.0,
) -> float:
    """Annuity factor A(t) converting wealth into consumption.

    Computed by adaptive quadrature; the integrand is smooth and
    decays like the survival probability, so the default tolerances
    give ~9 significant digits.
    """
    from scipy.integrate import quad  # loaded here: only the oracle needs scipy

    if not 0.0 <= t < t_max:
        raise ValueError(f"require 0 <= t < t_max, got t={t}, t_max={t_max}")
    g = market.gamma
    a = 1.0 - 1.0 / g
    rate = market.rho / g + a * (market.r + market.kappa**2 / (2.0 * g))
    aged = replace(mortality, age=mortality.age + t)

    def integrand(u: float) -> float:
        return survival_probability(aged, u) ** (1.0 / g) * math.exp(-rate * u)

    value, _ = quad(integrand, 0.0, t_max - t, **_QUAD_KW)
    return value


def merton_budget(
    alpha: float,
    market: MarketParams,
    mortality: GompertzParams,
    c_bar: float = 1.0,
    t_max: float = 60.0,
) -> float:
    """Exact expected cost of the eta = 0 consumption stream.

    c_bar^(1 - 1/gamma) * alpha^(-1/gamma) * A(0); strictly decreasing
    in alpha.
    """
    if not (alpha > 0.0 and c_bar > 0.0):  # a NaN fails too
        raise ValueError(f"alpha={alpha} and c_bar={c_bar} must be positive")
    g = market.gamma
    return (
        c_bar ** (1.0 - 1.0 / g)
        * alpha ** (-1.0 / g)
        * merton_annuity(market, mortality, 0.0, t_max)
    )


def merton_propensity(
    market: MarketParams,
    mortality: GompertzParams,
    t: float = 0.0,
    t_max: float = 60.0,
) -> float:
    """Consumption-to-wealth ratio 1 / A(t) at time t."""
    return 1.0 / merton_annuity(market, mortality, t, t_max)


def merton_alpha(
    v: float,
    market: MarketParams,
    mortality: GompertzParams,
    c_bar: float = 1.0,
    t_max: float = 60.0,
) -> float:
    """Multiplier solving the eta = 0 budget identity exactly.

    Inverts merton_budget: alpha = (c_bar^(1 - 1/gamma) A(0) / v)^gamma.
    """
    if not (v > 0.0 and c_bar > 0.0):  # a NaN fails too
        raise ValueError(f"v={v} and c_bar={c_bar} must be positive")
    g = market.gamma
    a0 = merton_annuity(market, mortality, 0.0, t_max)
    return (c_bar ** (1.0 - 1.0 / g) * a0 / v) ** g
