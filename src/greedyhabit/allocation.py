"""Wealth representation and risky allocation via nested Monte Carlo.

Optimal wealth is the conditional expected cost of remaining funded
consumption,

    X_t = G(t, y, h) = E[ integral_t^T zeta~_s (C_s - pi)_+ ds ],

where zeta~ restarts at 1 at time t, consumption is driven by the
absolute density y * zeta~_s and the inner habit starts at h.  Without
a pension the state collapses to z = y * h and G(t, y, h) = F(t, z) / y
with

    F(t, z) = E[ integral_t^T zeta~_s C~_s ds ],

the inner habit starting at z; F is priced through the Bernoulli
kernel, the pension case by stepping the habit explicitly.

The risky fraction follows from the delta of the wealth,

    theta = -(kappa / sigma) * y G_y / G,

estimated by central finite differences on common random numbers: the
same inner paths are reused for the base and both bumped evaluations,
so the difference is smooth path-by-path and the estimator variance
stays small even with modest inner sample sizes.  Near wealth
exhaustion G is of the same order as its standard error and the ratio
estimate degrades; such points are flagged unreliable instead of
raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .market import DEFAULT_SEED, MarketParams, TimeGrid, _simulate
from .solver import (
    BudgetEstimate,
    ModelParams,
    _CostFunctional,
    _estimate_from_samples,
    _require_two_samples,
    _resolve_method,
    consumption_with_pension,
)

__all__ = [
    "NestedConfig",
    "ThetaEstimate",
    "PolicyPoint",
    "wealth_no_pension",
    "wealth_with_pension",
    "allocation_at",
    "policy_curve",
    "policy_surface",
    "default_zeta_grid",
]


@dataclass(frozen=True)
class NestedConfig:
    """Inner-simulation settings for wealth/allocation estimates.

    Parameters
    ----------
    n_inner : int
        Inner paths per state evaluation.
    bump : float
        Relative bump for the central difference (the estimate is also
        produced at bump/2 agreement levels in the test-suite).
    seed : int
        Master seed for inner streams (domain-separated from outer
        bundles by a spawn-key prefix).
    grid : TimeGrid
        Grid the inner integrals are discretised on; evaluation times
        must lie on it.
    antithetic : bool
        Mirror the second half of the inner paths (variance reduction;
        on by default since the inner estimates sit inside ratios).
    """

    n_inner: int = 5000
    bump: float = 1e-3
    seed: int = DEFAULT_SEED
    grid: TimeGrid = TimeGrid(60.0, 0.05)
    antithetic: bool = True

    def __post_init__(self) -> None:
        _require_two_samples("n_inner", self.n_inner, self.antithetic)
        if not 0.0 < self.bump < 0.5:
            raise ValueError(f"bump must be in (0, 0.5), got {self.bump}")


class ThetaEstimate(NamedTuple):
    """Finite-difference allocation estimate at one state.

    ``value``/``std_error`` are NaN when ``reliable`` is False, which
    happens when the wealth estimate is within ten standard errors of
    zero (deep in the exhaustion region).
    """

    value: float
    std_error: float
    reliable: bool
    wealth: BudgetEstimate


@dataclass(frozen=True)
class PolicyPoint:
    """One row of the policy surface (CSV-shaped)."""

    t: float
    habit: float
    zeta: float
    wealth: float
    consumption: float
    theta: float
    wealth_se: float
    theta_reliable: bool


class _InnerPaths:
    """Reusable inner density paths for nested simulations.

    The density restarted at 1 is built once on the full grid; an
    evaluation anchored at grid index k0 reads its leading n_steps - k0
    steps, which equal the density built from the leading increments
    alone (cumulative sum, time grid and exponential are prefix-stable).
    Sharing the leading block across anchor times makes repeated
    estimates along a lifetime co-monotone (common random numbers in t
    as well as in the bump).  The last cost functional is kept, so every
    state and bump at one anchor time shares its set-up.

    The closed-form functional sums along each path and takes the
    path-major prefix ``zeta[:, :m + 1]``.  The Euler functional steps
    all paths at once and wants the density step-major, so the first one
    built makes a single step-major copy, and every Euler anchor then
    reads the contiguous prefix ``zeta_t[:m + 1]``.  Pension-0 use never
    makes that copy.
    """

    def __init__(self, market: MarketParams, config: NestedConfig):
        self.config = config
        self._zeta = _simulate(
            market,
            config.grid,
            config.n_inner,
            config.seed,
            config.antithetic,
            key=(1,),
            keep_w=False,
        ).zeta
        self._zeta_t = None
        self._last = None

    def cost_from(
        self, t: float, params: ModelParams, method: str = "auto"
    ) -> _CostFunctional:
        """Remaining-cost functional on the density paths restarted at t.

        Repeated calls with the same (t, params, resolved method) return
        the same functional.
        """
        key = (t, params, _resolve_method(params, method))
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        grid = self.config.grid
        m = grid.n_steps - grid.index_of(t)
        if m < 1:
            raise ValueError(f"t={t} leaves no horizon on the grid")
        self._last = None  # release the old set-up before building the new
        if key[2] == "euler":
            if self._zeta_t is None:
                self._zeta_t = np.ascontiguousarray(self._zeta.T)
            zeta = self._zeta_t[: m + 1].T
        else:
            zeta = self._zeta[:, : m + 1]
        cost = _CostFunctional(
            params,
            t + np.arange(m + 1) * grid.dt,
            zeta,
            grid.dt,
            self.config.antithetic,
            key[2],
        )
        self._last = (key, cost)
        return cost


def _fd_theta(f0, f_up, f_dn, bump, kappa_sig):
    """Central-difference theta = -(kappa/sigma) y G_y / G with a delta-method SE."""
    n = f0.shape[0]
    mean_f = f0.mean()
    se_f = f0.std(ddof=1) / math.sqrt(n)
    wealth = BudgetEstimate(float(mean_f), float(se_f))
    if not mean_f > 10.0 * se_f:
        return ThetaEstimate(math.nan, math.nan, False, wealth)
    # relative bumps make state * d/d(state) = central diff / (2 * bump)
    u = (f_up - f_dn) / (2.0 * bump)
    ratio = u.mean() / mean_f
    resid = u - ratio * f0
    var_ratio = resid.var(ddof=1) / (n * mean_f**2)
    return ThetaEstimate(
        float(-kappa_sig * ratio),
        float(kappa_sig * math.sqrt(var_ratio)),
        True,
        wealth,
    )


def wealth_no_pension(
    t: float,
    z: float,
    alpha: float,
    params: ModelParams,
    config: NestedConfig = NestedConfig(),
    _inner: Optional[_InnerPaths] = None,
) -> BudgetEstimate:
    """F(t, z): expected remaining cost in the reduced state z = zeta*H.

    Satisfies F(0, initial habit) = budget(alpha) in expectation; the
    martingale wealth at (t, zeta, H) is F(t, zeta * H) / zeta.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    inner = _inner or _InnerPaths(params.market, config)
    cost = inner.cost_from(t, params, "closed_form")
    return _estimate_from_samples(cost.per_path(alpha, 1.0, z))


def wealth_with_pension(
    t: float,
    zeta: float,
    habit_level: float,
    alpha: float,
    params: ModelParams,
    config: NestedConfig = NestedConfig(),
    _inner: Optional[_InnerPaths] = None,
) -> BudgetEstimate:
    """G(t, zeta, H): wealth with a pension (valid for pension = 0 too)."""
    if zeta <= 0.0 or habit_level <= 0.0:
        raise ValueError("zeta and habit_level must be positive")
    inner = _inner or _InnerPaths(params.market, config)
    cost = inner.cost_from(t, params, "euler")
    return _estimate_from_samples(cost.per_path(alpha, zeta, habit_level))


def allocation_at(
    t: float,
    zeta: float,
    habit_level: float,
    alpha: float,
    params: ModelParams,
    config: NestedConfig = NestedConfig(),
    _inner: Optional[_InnerPaths] = None,
) -> ThetaEstimate:
    """Risky fraction at state (t, zeta, H) with its wealth estimate."""
    if zeta <= 0.0 or habit_level <= 0.0:
        raise ValueError("zeta and habit_level must be positive")
    inner = _inner or _InnerPaths(params.market, config)
    cost = inner.cost_from(t, params)
    bump = config.bump
    return _fd_theta(
        f0=cost.per_path(alpha, zeta, habit_level),
        f_up=cost.per_path(alpha, zeta * (1.0 + bump), habit_level),
        f_dn=cost.per_path(alpha, zeta * (1.0 - bump), habit_level),
        bump=bump,
        kappa_sig=params.market.kappa / params.market.sigma,
    )


def default_zeta_grid(
    t: float,
    market: MarketParams,
    n: int = 41,
    spread: float = 4.0,
) -> np.ndarray:
    """Log-spaced density grid centred on the median of zeta_t.

    The median of the lognormal zeta_t is exp(-(r + kappa^2/2) t); the
    grid spans exp(+-spread) around it, which covers the wealth range
    plotted in the policy figures.  A one-point grid is the median.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    center = math.exp(-(market.r + 0.5 * market.kappa**2) * t)
    offsets = np.linspace(-spread, spread, n) if n > 1 else np.zeros(1)
    return center * np.exp(offsets)


def policy_surface(
    times: Sequence[float],
    habit_level: float,
    alpha: float,
    params: ModelParams,
    config: NestedConfig = NestedConfig(),
    zeta_grid: Optional[np.ndarray] = None,
    max_wealth: float = 20.0,
) -> List[PolicyPoint]:
    """Wealth/consumption/allocation rows over a (t, zeta) grid.

    ``zeta_grid`` is one density grid for every time, or a 2-D array
    with one row per time; by default each time gets
    :func:`default_zeta_grid`.  For each time slice the rows are ordered
    by increasing wealth and clipped to (0, max_wealth].  One set of
    inner paths is shared by the whole surface, and one cost functional
    by every state (and every bump) at one time.
    """
    if habit_level <= 0.0:
        raise ValueError("habit_level must be positive")
    if max_wealth <= 0.0:
        raise ValueError("max_wealth must be positive")
    if zeta_grid is None:
        grids = [default_zeta_grid(t, params.market) for t in times]
    else:
        grids = np.asarray(zeta_grid, dtype=float)
        if grids.ndim == 1:
            grids = [grids] * len(times)
        elif grids.ndim != 2 or grids.shape[0] != len(times):
            raise ValueError(
                "zeta_grid must be 1-D or 2-D with one row per time"
            )
    inner = _InnerPaths(params.market, config)
    rows: List[PolicyPoint] = []
    for t, grid_z in zip(times, grids):
        slice_rows = []
        for zeta in grid_z:
            est = allocation_at(
                t, float(zeta), habit_level, alpha, params, config, _inner=inner
            )
            wealth = est.wealth.value
            if not 0.0 < wealth <= max_wealth:
                continue
            consumption = consumption_with_pension(
                habit_level,
                float(zeta),
                t,
                alpha,
                params.pension,
                params.market,
                params.mortality,
            )
            slice_rows.append(
                PolicyPoint(
                    t=float(t),
                    habit=float(habit_level),
                    zeta=float(zeta),
                    wealth=wealth,
                    consumption=float(consumption),
                    theta=est.value,
                    wealth_se=est.wealth.std_error,
                    theta_reliable=est.reliable,
                )
            )
        slice_rows.sort(key=lambda row: row.wealth)
        rows.extend(slice_rows)
    return rows


def policy_curve(
    t: float,
    habit_level: float,
    alpha: float,
    params: ModelParams,
    config: NestedConfig = NestedConfig(),
    zeta_grid: Optional[np.ndarray] = None,
    max_wealth: float = 20.0,
) -> List[PolicyPoint]:
    """Single time slice of :func:`policy_surface`."""
    return policy_surface(
        [t], habit_level, alpha, params, config, zeta_grid, max_wealth
    )
