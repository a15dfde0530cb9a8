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

estimated pathwise: the sweep that prices G on the inner paths also
carries y * dG/dy along each path (through the Bernoulli kernel, or as
a forward tangent of the Euler habit step), so one pass gives both.
Every state of a surface or a lifetime is known before any is priced,
so one pass over the inner paths prices them all.  The pension floor is
Lipschitz, so the path-by-path derivative is unbiased (Glasserman, Monte
Carlo Methods in Financial Engineering, 2003, section 7.2); it is the
limit of central differences on common random numbers as the bump goes
to 0.  The ratio and its delta-method standard error come from the
per-path samples; the wealth reported is their regression estimate on
the eta = 0 cost, whose mean is exact.  Near wealth exhaustion G is of
the same order as its standard error and the ratio estimate degrades;
such points are flagged unreliable instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .market import DEFAULT_SEED, MarketParams, TimeGrid, _Stream
from .market import _require_nonnegative, _require_positive, _require_seed
from .solver import (
    BudgetEstimate,
    ModelParams,
    _CostFunctional,
    _Density,
    _estimate_from_samples,
    _require_two_samples,
    consumption_with_pension,
)

__all__ = [
    "NestedConfig",
    "ThetaEstimate",
    "PolicyPoint",
    "allocation_at",
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
    seed: int = DEFAULT_SEED
    grid: TimeGrid = TimeGrid(60.0, 0.05)
    antithetic: bool = True

    def __post_init__(self) -> None:
        _require_two_samples("n_inner", self.n_inner, self.antithetic)
        _require_seed("NestedConfig.seed", self.seed)

    def _density(self, market: MarketParams) -> _Density:
        """The inner density, restarted at 1, from the streams of spawn key ``(1,)``.

        It is drawn on the full grid; an evaluation anchored at grid index
        k0 reads its leading n_steps - k0 steps, which equal the density
        built from the leading increments alone (cumulative sum, time grid
        and exponential are prefix-stable).  Sharing the leading block
        across anchor times makes repeated estimates along a lifetime
        co-monotone (common random numbers in t as well as in the state).
        """
        return _Density(
            _Stream(market, self.grid, self.n_inner, self.seed, self.antithetic, (1,))
        )


class ThetaEstimate(NamedTuple):
    """Pathwise allocation estimate at one state, with its wealth.

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


def _horizon_steps(grid: TimeGrid, t: float) -> int:
    """Grid steps left after ``t``, which must lie on ``grid`` before its end."""
    m = grid.n_steps - grid.index_of(t)
    if m < 1:
        raise ValueError(f"t={t} leaves no horizon on the grid")
    return m


def _nested_costs(states, alpha: float, params: ModelParams, density: _Density):
    """Per-sample G, y * dG/dy and control at every state (t, y, h), in one pass.

    One (samples, deltas, x, mean_x) per state, in order, as
    ``solver._CostFunctional.price`` returns them, on ``density``'s grid
    and pairing; alpha and every state are checked before any draw.
    """
    grid = density.grid
    _require_positive("alpha", alpha)
    for _, y, h in states:
        if not (0.0 < y < math.inf and 0.0 < h < math.inf):
            raise ValueError(
                f"zeta={y} and habit_level={h} must be positive and finite"
            )
    if not states:
        return []
    starts = list(dict.fromkeys(t for t, _, _ in states))
    times = [t + np.arange(_horizon_steps(grid, t) + 1) * grid.dt for t in starts]
    rows = [(starts.index(t), y, h) for t, y, h in states]
    return _CostFunctional(params, times, density).price(alpha, rows, True)


def _ratio_theta(f0, u, kappa_sig, x=None, mean_x=0.0):
    """theta = -(kappa/sigma) y G_y / G from per-path samples of G and y G_y.

    The ratio is of plain means, and its standard error the delta-method
    one.  The wealth reported is the regression estimate on the control
    ``x`` of known mean ``mean_x``; the reliability gate reads the plain
    mean and SE.
    """
    plain = _estimate_from_samples(f0)
    wealth = _estimate_from_samples(f0, x, mean_x)
    if not plain.value > 10.0 * plain.std_error:
        return ThetaEstimate(math.nan, math.nan, False, wealth)
    n = f0.shape[0]
    ratio = u.mean() / plain.value
    resid = u - ratio * f0
    var_ratio = resid.var(ddof=1) / (n * plain.value**2)
    return ThetaEstimate(
        float(-kappa_sig * ratio),
        float(kappa_sig * math.sqrt(var_ratio)),
        True,
        wealth,
    )


def _allocations(
    states, alpha: float, params: ModelParams, density: _Density
) -> List[ThetaEstimate]:
    """:func:`allocation_at` at every state (t, zeta, H), from one pass."""
    kappa_sig = params.market.kappa / params.market.sigma
    return [
        _ratio_theta(f0, u, kappa_sig, *control)
        for f0, u, *control in _nested_costs(states, alpha, params, density)
    ]


def allocation_at(
    t: float,
    zeta: float,
    habit_level: float,
    alpha: float,
    params: ModelParams,
    config: NestedConfig = NestedConfig(),
) -> ThetaEstimate:
    """Risky fraction at state (t, zeta, H) with its wealth estimate."""
    inner = config._density(params.market)
    return _allocations([(t, zeta, habit_level)], alpha, params, inner)[0]


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
    _require_nonnegative("t", t)
    if not math.isfinite(spread):
        raise ValueError(f"spread must be finite, got {spread}")
    center = math.exp(-(market.r + 0.5 * market.kappa**2) * t)
    offsets = np.linspace(-spread, spread, n) if n > 1 else np.zeros(1)
    return center * np.exp(offsets)


def _check_surface(
    times: Sequence[float], habit_level: float, max_wealth: float, grid: TimeGrid
) -> None:
    """Reject policy-surface arguments that need no pricing to be found bad."""
    _require_positive("habit_level", habit_level)
    if not max_wealth > 0.0:
        raise ValueError("max_wealth must be positive")
    for t in times:
        _horizon_steps(grid, t)


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
    by every state at one time.
    """
    _check_surface(times, habit_level, max_wealth, config.grid)
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
    states = [
        (t, float(zeta), habit_level)
        for t, grid_z in zip(times, grids)
        for zeta in grid_z
    ]
    inner = config._density(params.market)
    estimates = iter(_allocations(states, alpha, params, inner))
    rows: List[PolicyPoint] = []
    for t, grid_z in zip(times, grids):
        slice_rows = []
        for zeta in grid_z:
            est = next(estimates)
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
