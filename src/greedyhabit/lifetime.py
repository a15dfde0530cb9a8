"""Single-scenario lifetime paths: consumption, habit, wealth, allocation.

A lifetime record follows one market scenario (one Brownian path, or
the zero-noise median path) and reports the greedy consumption rule
together with two wealth tracks from one pass:

* ``wealth`` integrates the self-financing budget equation

      dX = [(r + theta (mu - r)) X - C + pi] dt + theta sigma X dW

  with the allocation refreshed from the nested estimator every
  ``theta_refresh`` years and held constant in between; the path
  absorbs at zero (consumption drops to the pension, allocation to
  zero) and the first such time is reported as ``exhausted_at``;
* ``nested_wealth`` is the conditional-expectation (martingale) wealth
  that the same nested estimate returns at every refresh, with its
  standard error.  It is priced on the greedy path before absorption,
  so after ``exhausted_at`` it values the unabsorbed greedy path.

Agreement between the two is a consistency check on the whole pipeline
(pricing, habit dynamics, and the allocation estimator feed back into
the same path).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .allocation import NestedConfig, _allocations, _horizon_steps
from .habit import habit_euler_step
from .market import PathBundle, TimeGrid, _density_paths, generate_paths
from .solver import (
    CalibrationConfig,
    CalibrationError,
    ModelParams,
    _Density,
    calibrate_alpha,
    solve_paths,
)

__all__ = ["LifetimeRecord", "simulate_lifetime", "pension_sweep"]


@dataclass
class LifetimeRecord:
    """One lifetime scenario on a uniform grid.

    ``wealth`` is the self-financing Euler track and ``allocation`` the
    piecewise-constant risky fraction it uses; ``zeta`` is the scenario's
    state-price density (handy for cross-record comparisons: sweeps run
    on a common scenario).  ``exhausted_at`` is None when wealth never
    hits zero on the grid.

    The last four fields have one entry per allocation refresh, at
    ``refresh_times``: the nested wealth estimate and its standard
    error, and whether that refresh's theta estimate was reliable.  An
    unreliable refresh holds the last reliable theta in ``allocation``.
    """

    times: np.ndarray
    consumption: np.ndarray
    habit: np.ndarray
    wealth: np.ndarray
    allocation: np.ndarray
    zeta: np.ndarray
    pension: float
    exhausted_at: Optional[float]
    refresh_times: np.ndarray
    nested_wealth: np.ndarray
    nested_wealth_se: np.ndarray
    theta_reliable: np.ndarray


def _refresh_plan(
    eta: float, horizon: float, dt: float, theta_refresh: float, nested: NestedConfig
) -> Tuple[TimeGrid, List[int]]:
    """The record's grid and the grid indices of its allocation refreshes.

    Checks every argument of :func:`simulate_lifetime` that needs no
    pricing, so a sweep can reject bad ones before it calibrates.
    """
    if horizon >= nested.grid.t_max:
        raise ValueError(
            f"horizon {horizon} must be < nested grid t_max {nested.grid.t_max}"
        )
    grid = TimeGrid(horizon, dt)
    # the absorption tail steps the habit ODE on the record grid
    if eta * dt >= 1.0:
        raise ValueError(f"eta * dt = {eta * dt} >= 1: record grid too coarse")
    steps = theta_refresh / dt
    m = round(steps) if math.isfinite(steps) else 0
    if m < 1 or abs(m * dt - theta_refresh) > 1e-9:
        raise ValueError(
            f"theta_refresh={theta_refresh} is not a multiple of dt={dt}"
        )
    n = grid.n_steps
    refresh_idx = list(range(0, n + 1, m))
    if refresh_idx[-1] != n:
        refresh_idx.append(n)
    times = grid.times()
    for k in refresh_idx:
        _horizon_steps(nested.grid, float(times[k]))
    return grid, refresh_idx


def simulate_lifetime(
    params: ModelParams,
    alpha: float,
    scenario_seed: Optional[int] = None,
    horizon: float = 40.0,
    dt: float = 0.05,
    theta_refresh: float = 0.25,
    nested: NestedConfig = NestedConfig(),
    _inner: Optional[_Density] = None,
) -> LifetimeRecord:
    """Simulate one lifetime under the calibrated rule.

    One pass prices the nested estimate at every refresh and integrates
    the Euler wealth with the allocations it gives, so the record holds
    both wealth tracks (see :class:`LifetimeRecord`).

    Parameters
    ----------
    alpha : float
        Calibrated budget multiplier (see ``calibrate_alpha``); the
        record starts from wealth ``params.v``.
    scenario_seed : int, optional
        Seed for the single market scenario; None selects the
        zero-noise path (all Brownian increments zero), a medians-only
        run for figure-style output.
    horizon : float
        Length of the record in years; must not exceed the nested
        grid's t_max (allocation estimates need remaining horizon).
    dt : float
        Outer step; refresh times must lie on both grids.
    theta_refresh : float
        Spacing of nested allocation estimates.

    Returns
    -------
    LifetimeRecord
    """
    grid, refresh_idx = _refresh_plan(
        params.habit.eta, horizon, dt, theta_refresh, nested
    )
    times = grid.times()
    n = grid.n_steps

    if scenario_seed is None:
        w, zeta = _density_paths(params.market, np.zeros((1, n)), dt, False)
        scenario = PathBundle(grid=grid, n_paths=1, seed=0, w=w, zeta=zeta)
    else:
        scenario = generate_paths(params.market, grid, 1, seed=scenario_seed)
    zeta_path = scenario.zeta[0]
    dw = np.diff(scenario.w[0])
    # the arrays of the one path, made afresh, which absorption overwrites
    consumption, habit = (a[0] for a in solve_paths(alpha, params, scenario))

    refresh_times = times[refresh_idx]

    estimates = _allocations(
        [(float(times[k]), float(zeta_path[k]), float(habit[k])) for k in refresh_idx],
        alpha,
        params,
        _inner or nested._density(params.market),
    )
    wealth_pts = np.array([est.wealth.value for est in estimates])
    wealth_se = np.array([est.wealth.std_error for est in estimates])
    theta_reliable = np.array([est.reliable for est in estimates])
    theta_pts = np.empty(len(refresh_idx))
    last_reliable = math.nan
    for j, est in enumerate(estimates):
        if est.reliable:
            last_reliable = est.value
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

    market = params.market
    pi = params.pension
    eta = params.habit.eta
    wealth = np.zeros(n + 1)
    wealth[0] = params.v
    exhausted_at: Optional[float] = None
    for k in range(n):
        x = wealth[k]
        drift = (
            (market.r + allocation[k] * (market.mu - market.r)) * x
            - consumption[k]
            + pi
        )
        x_next = x + drift * dt + allocation[k] * market.sigma * x * dw[k]
        if x_next <= 0.0:
            # wealth stays at zero; from here on, consume the pension only
            exhausted_at = float(times[k + 1])
            consumption[k + 1 :] = pi
            allocation[k + 1 :] = 0.0
            for j in range(k + 1, n):
                habit[j + 1] = habit_euler_step(habit[j], pi, dt, eta)
            break
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
        refresh_times=refresh_times,
        nested_wealth=wealth_pts,
        nested_wealth_se=wealth_se,
        theta_reliable=theta_reliable,
    )


def pension_sweep(
    params: ModelParams,
    pensions: Sequence[float],
    scenario_seed: Optional[int] = None,
    alphas: Optional[Sequence[float]] = None,
    calibration: CalibrationConfig = CalibrationConfig(),
    horizon: float = 40.0,
    dt: float = 0.05,
    theta_refresh: float = 0.25,
    nested: NestedConfig = NestedConfig(),
) -> List[LifetimeRecord]:
    """Lifetime records across pension levels on one common scenario.

    Every pension level is calibrated on the same calibration density
    (common random numbers), every record is driven by the identical
    market scenario, and the records share one set of inner paths, so the
    curves are directly comparable, as in the pension-comparison figures.
    Each density is one ``solver._Density``; with a pension in any level
    what it keeps (``_Density.steps``) is written once, before it is read.

    Parameters
    ----------
    alphas : sequence of float, optional
        Pre-calibrated multipliers aligned with ``pensions``; skips
        calibration when given.
    horizon, dt, theta_refresh, nested
        Passed to :func:`simulate_lifetime` for every record; they and
        every pension are checked before any pricing.
    """
    if alphas is not None and len(alphas) != len(pensions):
        raise ValueError("alphas must align with pensions")
    # reject bad record arguments and pensions before any pricing
    _refresh_plan(params.habit.eta, horizon, dt, theta_refresh, nested)
    legs = [dataclasses.replace(params, pension=float(p)) for p in pensions]
    euler = any(p.pension != 0.0 for p in legs)
    if alphas is None:
        density = calibration._density(params.market)
        if euler:
            density.steps
        alphas = [calibrate_alpha(p, calibration, _density=density).alpha for p in legs]
        del density  # freed before the first record allocates its own
    # the inner density depends on the market only, so every record shares it
    inner = nested._density(params.market)
    if euler:
        inner.steps
    return [
        simulate_lifetime(
            p, float(alpha), scenario_seed=scenario_seed, horizon=horizon, dt=dt,
            theta_refresh=theta_refresh, nested=nested, _inner=inner,
        )
        for p, alpha in zip(legs, alphas)
    ]
