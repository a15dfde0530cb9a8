"""Single-scenario lifetime paths: consumption, habit, wealth, allocation.

A lifetime record follows one market scenario (one Brownian path, or
the zero-noise median path) and reports the greedy consumption rule
together with the wealth trajectory and risky fraction.  Wealth can be
tracked two ways:

* ``euler_wealth`` integrates the self-financing budget equation

      dX = [(r + theta (mu - r)) X - C + pi] dt + theta sigma X dW

  with the allocation refreshed from the nested estimator every
  ``theta_refresh`` years and held constant in between; the path
  absorbs at zero (consumption drops to the pension, allocation to
  zero) and the first such time is reported as ``exhausted_at``;
* ``martingale_wealth`` evaluates the conditional-expectation wealth
  representation at every refresh time directly.

Agreement between the two is a consistency check on the whole pipeline
(pricing, habit dynamics, and the allocation estimator feed back into
the same path).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .allocation import NestedConfig, _InnerPaths, allocation_at
from .habit import habit_euler_step
from .market import PathBundle, TimeGrid, _density_paths, generate_paths
from .solver import (
    CalibrationConfig,
    CalibrationError,
    ModelParams,
    _calibration_paths,
    calibrate_alpha,
    solve_paths,
)

__all__ = ["LifetimeRecord", "simulate_lifetime", "pension_sweep"]

# the wealth-tracking modes, the default first
MODES = ("euler_wealth", "martingale_wealth")


@dataclass
class LifetimeRecord:
    """One lifetime scenario on a uniform grid.

    ``allocation`` holds the piecewise-constant risky fraction actually
    used by the wealth integrator; ``zeta`` the scenario's state-price
    density (handy for cross-record comparisons: sweeps run on a
    common scenario).  ``exhausted_at`` is None when wealth never hits
    zero on the grid.
    """

    times: np.ndarray
    consumption: np.ndarray
    habit: np.ndarray
    wealth: np.ndarray
    allocation: np.ndarray
    zeta: np.ndarray
    pension: float
    exhausted_at: Optional[float]
    mode: str


def simulate_lifetime(
    params: ModelParams,
    alpha: float,
    scenario_seed: Optional[int] = None,
    mode: str = "euler_wealth",
    horizon: float = 40.0,
    dt: float = 0.05,
    theta_refresh: float = 0.25,
    nested: NestedConfig = NestedConfig(),
    scenario: Optional[PathBundle] = None,
) -> LifetimeRecord:
    """Simulate one lifetime under the calibrated rule.

    Parameters
    ----------
    alpha : float
        Calibrated budget multiplier (see ``calibrate_alpha``); the
        record starts from wealth ``params.v``.
    scenario_seed : int, optional
        Seed for the single market scenario; None selects the
        zero-noise path (all Brownian increments zero), a medians-only
        run for figure-style output.
    mode : {"euler_wealth", "martingale_wealth"}
    horizon : float
        Length of the record in years; must not exceed the nested
        grid's t_max (allocation estimates need remaining horizon).
    dt : float
        Outer step; refresh times must lie on both grids.
    theta_refresh : float
        Spacing of nested allocation estimates.
    scenario : PathBundle, optional
        Use the first path of an existing bundle as the market
        scenario instead of generating one; its grid must match
        (horizon, dt).  Lets several runs share one scenario exactly.

    Returns
    -------
    LifetimeRecord
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if horizon >= nested.grid.t_max:
        raise ValueError(
            f"horizon {horizon} must be < nested grid t_max {nested.grid.t_max}"
        )
    grid = TimeGrid(horizon, dt)
    m = round(theta_refresh / dt)
    if m < 1 or abs(m * dt - theta_refresh) > 1e-9:
        raise ValueError(
            f"theta_refresh={theta_refresh} is not a multiple of dt={dt}"
        )
    times = grid.times()
    n = grid.n_steps

    if scenario is not None:
        if scenario.grid != grid:
            raise ValueError("scenario grid must match (horizon, dt)")
        w, zeta = scenario.w[:1], scenario.zeta[:1]
    elif scenario_seed is None:
        w, zeta = _density_paths(params.market, np.zeros((1, n)), dt, False)
    else:
        bundle = generate_paths(params.market, grid, 1, seed=scenario_seed)
        w, zeta = bundle.w, bundle.zeta
    zeta_path = zeta[0]
    dw = np.diff(w[0])
    scenario = PathBundle(
        grid=grid, n_paths=1, seed=scenario_seed or 0, w=w, zeta=zeta
    )
    consumption, habit = solve_paths(alpha, params, scenario)
    consumption = consumption[0].copy()
    habit = habit[0].copy()

    refresh_idx = list(range(0, n + 1, m))
    if refresh_idx[-1] != n:
        refresh_idx.append(n)
    refresh_times = times[refresh_idx]

    inner = _InnerPaths(params.market, nested)
    theta_pts = np.empty(len(refresh_idx))
    wealth_pts = np.empty(len(refresh_idx))
    last_reliable = math.nan
    for j, k in enumerate(refresh_idx):
        est = allocation_at(
            float(times[k]),
            float(zeta_path[k]),
            float(habit[k]),
            alpha,
            params,
            nested,
            _inner=inner,
        )
        wealth_pts[j] = est.wealth.value
        if est.reliable:
            theta_pts[j] = est.value
            last_reliable = est.value
        else:
            # deep in the exhaustion region: hold the last reliable value
            theta_pts[j] = last_reliable
    if math.isnan(theta_pts[0]):
        raise CalibrationError(
            "allocation estimate unreliable at the initial state; "
            "increase n_inner or check the calibration"
        )
    # Hold each estimate until the next refresh.  Interpolating instead
    # would let the integrator see an estimate from the path's future,
    # which drifts wealth upward by several percent however small dt is.
    hold = np.searchsorted(refresh_times, times, side="right") - 1
    allocation = theta_pts[hold]

    exhausted_at: Optional[float] = None
    if mode == "martingale_wealth":
        wealth = np.interp(times, refresh_times, wealth_pts)
        below = np.nonzero(wealth <= 0.0)[0]
        if below.size:
            exhausted_at = float(times[below[0]])
    else:
        market = params.market
        pi = params.pension
        eta = params.habit.eta
        wealth = np.empty(n + 1)
        wealth[0] = params.v
        absorbed = False
        for k in range(n):
            if absorbed:
                wealth[k + 1] = 0.0
                continue
            x = wealth[k]
            drift = (
                (market.r + allocation[k] * (market.mu - market.r)) * x
                - consumption[k]
                + pi
            )
            x_next = x + drift * dt + allocation[k] * market.sigma * x * dw[k]
            if x_next <= 0.0:
                x_next = 0.0
                absorbed = True
                exhausted_at = float(times[k + 1])
                # from the absorbing state on, consume the pension only
                for j in range(k + 1, n + 1):
                    consumption[j] = pi
                    allocation[j] = 0.0
                    if j < n:
                        habit[j + 1] = habit_euler_step(habit[j], pi, dt, eta)
            wealth[k + 1] = x_next

    return LifetimeRecord(
        times=times,
        consumption=consumption,
        habit=habit,
        wealth=wealth,
        allocation=allocation,
        zeta=zeta_path,
        pension=params.pension,
        exhausted_at=exhausted_at,
        mode=mode,
    )


def pension_sweep(
    params: ModelParams,
    pensions: Sequence[float],
    scenario_seed: Optional[int] = None,
    alphas: Optional[Sequence[float]] = None,
    calibration: CalibrationConfig = CalibrationConfig(),
    **sim_kwargs,
) -> List[LifetimeRecord]:
    """Lifetime records across pension levels on one common scenario.

    Each pension level is calibrated separately on one shared bundle, and
    every record is driven by the identical market scenario so the
    curves are directly comparable, as in the pension-comparison
    figures.

    Parameters
    ----------
    alphas : sequence of float, optional
        Pre-calibrated multipliers aligned with ``pensions``; skips
        calibration when given.
    """
    if alphas is not None and len(alphas) != len(pensions):
        raise ValueError("alphas must align with pensions")
    if alphas is None:
        bundle = _calibration_paths(params.market, calibration)
        alphas = [
            calibrate_alpha(
                dataclasses.replace(params, pension=float(pension)),
                calibration,
                paths=bundle,
            ).alpha
            for pension in pensions
        ]
    records = []
    for pension, alpha in zip(pensions, alphas):
        p = dataclasses.replace(params, pension=float(pension))
        records.append(
            simulate_lifetime(
                p, float(alpha), scenario_seed=scenario_seed, **sim_kwargs
            )
        )
    return records
