"""Greedy consumption rule, budget pricing, and multiplier calibration.

The greedy rule maximises the expected discounted flow of habit-scaled
CRRA utility pointwise.  Without a pension the first-order condition
gives

    C_t = H_t^(1 - 1/gamma)
          * (alpha * exp(rho t) * zeta_t / p_t)^(-1/gamma),

with p_t the survival probability; with a pension pi the rule is
max(pi, same expression) and only the excess C_t - pi is funded from
wealth.  The multiplier alpha is calibrated so the expected
density-weighted cost of the funded consumption stream equals the
initial wealth ("budget identity").  Because the cost is strictly
decreasing in alpha, a bisection in log space converges globally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from .habit import HabitParams, bernoulli_kernel, habit_euler_step
from .market import (
    DEFAULT_SEED,
    GompertzParams,
    MarketParams,
    PathBundle,
    TimeGrid,
    _row_blocks,
    _simulate,
    log_survival_probability,
)

__all__ = [
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
]

ArrayLike = Union[float, np.ndarray]


class CalibrationError(RuntimeError):
    """Raised when the budget equation cannot be solved for alpha."""


class BudgetMonotonicityError(CalibrationError):
    """Raised when evaluated budgets fail to decrease in alpha.

    The budget is strictly decreasing in alpha path-by-path, so a
    violation on the common path bundle signals a numerical defect
    (bad grid, overflow) rather than sampling noise.
    """


@dataclass(frozen=True)
class ModelParams:
    """Full model: market, mortality, habit, pension, initial wealth."""

    market: MarketParams = MarketParams()
    mortality: GompertzParams = GompertzParams()
    habit: HabitParams = HabitParams()
    pension: float = 0.0
    v: float = 10.0

    def __post_init__(self) -> None:
        if self.pension < 0.0:
            raise ValueError(f"pension must be non-negative, got {self.pension}")
        if self.v <= 0.0:
            raise ValueError(f"initial wealth v must be positive, got {self.v}")


def _require_two_samples(name: str, n: int, antithetic: bool) -> None:
    """Reject path counts that leave fewer than two independent samples.

    An antithetic pair is one sample, so a standard error needs n >= 4
    with mirroring and n >= 2 without, and mirroring needs an even n.
    """
    least = 4 if antithetic else 2
    if n < least:
        raise ValueError(
            f"{name} must be >= {least} for a standard error"
            f"{' with antithetic pairs' if antithetic else ''}, got {n}"
        )
    if antithetic and n % 2 != 0:
        raise ValueError(f"antithetic sampling requires an even {name}")


@dataclass(frozen=True)
class CalibrationConfig:
    """Monte Carlo and root-finding settings for alpha calibration.

    ``tolerance`` is relative: the search stops once
    |budget(alpha) - v| / v <= tolerance on the common path bundle.
    """

    grid: TimeGrid = TimeGrid(60.0, 0.05)
    n_paths: int = 20000
    seed: int = DEFAULT_SEED
    tolerance: float = 5e-3
    max_iterations: int = 80
    bracket: Tuple[float, float] = (1e-6, 1e6)
    antithetic: bool = False

    def __post_init__(self) -> None:
        _require_two_samples("n_paths", self.n_paths, self.antithetic)
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        lo, hi = self.bracket
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid bracket {self.bracket}")


class BudgetEstimate(NamedTuple):
    value: float
    std_error: float


@dataclass
class GreedySolution:
    """Calibrated greedy solution on a path bundle.

    Attributes
    ----------
    alpha : float
        Calibrated budget multiplier.
    budget_residual : float
        Relative residual |budget(alpha) - v| / v at convergence.
    budget_se : float
        Standard error of the Monte Carlo budget at alpha.
    consumption, habit : ndarray, shape (n_paths, n_times)
        Optimal consumption and habit along the calibration bundle.
        They are solved on first read, on the bundle calibration was
        given or on the density rebuilt from the config's seed, and then
        kept; a solution whose arrays are never read holds none.
    pension : float
    v : float
    iterations : int
        Number of budget evaluations performed.
    """

    alpha: float
    budget_residual: float
    budget_se: float
    pension: float
    v: float
    iterations: int
    _cost: Optional[Callable[[], "_CostFunctional"]] = field(
        default=None, repr=False, compare=False
    )

    @functools.cached_property
    def _solved(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._cost().paths(self.alpha)

    @functools.cached_property
    def consumption(self) -> np.ndarray:
        return self._solved[0]

    @functools.cached_property
    def habit(self) -> np.ndarray:
        return self._solved[1]


def _validate_positive(name: str, value: ArrayLike) -> None:
    if np.any(np.asarray(value) <= 0.0):
        raise ValueError(f"{name} must be positive")


def consumption_no_pension(
    h: ArrayLike,
    zeta: ArrayLike,
    t: ArrayLike,
    alpha: float,
    market: MarketParams,
    mortality: GompertzParams,
) -> ArrayLike:
    """Greedy consumption at state (h, zeta, t) without a pension.

    Increasing in habit for gamma > 1 (exponent 1 - 1/gamma > 0) and
    decreasing in both alpha and zeta.
    """
    _validate_positive("habit h", h)
    _validate_positive("zeta", zeta)
    _validate_positive("alpha", alpha)
    g = market.gamma
    log_p = log_survival_probability(mortality, t)
    shadow = np.exp(
        -(math.log(alpha) + market.rho * np.asarray(t, dtype=float) - log_p) / g
    ) * np.asarray(zeta, dtype=float) ** (-1.0 / g)
    out = np.asarray(h, dtype=float) ** (1.0 - 1.0 / g) * shadow
    return float(out) if np.ndim(out) == 0 else out


def consumption_with_pension(
    h: ArrayLike,
    zeta: ArrayLike,
    t: ArrayLike,
    alpha: float,
    pension: float,
    market: MarketParams,
    mortality: GompertzParams,
) -> ArrayLike:
    """Greedy consumption with a pension floor: max(pension, unfloored)."""
    if pension < 0.0:
        raise ValueError(f"pension must be non-negative, got {pension}")
    base = consumption_no_pension(h, zeta, t, alpha, market, mortality)
    out = np.maximum(pension, base)
    return float(out) if np.ndim(out) == 0 else out


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.empty_like(times)
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    return w


def _estimate_from_samples(y: np.ndarray) -> BudgetEstimate:
    se = y.std(ddof=1) / math.sqrt(y.shape[0]) if y.shape[0] > 1 else 0.0
    return BudgetEstimate(float(y.mean()), float(se))


def _resolve_method(params: ModelParams, method: str) -> str:
    """Resolve ``auto`` to closed_form at pension 0 and euler otherwise."""
    if method == "auto":
        return "closed_form" if params.pension == 0.0 else "euler"
    return method


class _CostFunctional:
    """Expected cost of the remaining greedy stream, per path.

    ``zeta`` holds density paths restarted at 1 at ``times[0]`` (absolute
    times, step ``dt``), shape (n_paths, n_times).  Everything that
    depends on neither alpha nor the state is computed once, so
    calibration, wealth and allocation all price through one object.
    ``closed_form`` (pension 0) reduces the state to z = y * h and prices
    through the Bernoulli kernel; ``euler`` steps the floored rule and
    prices the excess over the pension; ``auto`` picks closed_form when
    the pension is zero.

    The two branches keep the density in different layouts.  ``euler``
    visits one time step of every path at a time, so it holds the density
    and ``zeta ** (-1/gamma)`` step-major, shape (n_times, n_paths), and
    each step reads one contiguous row; a transposed view of a step-major
    array is taken without a copy.  ``closed_form`` keeps ``zeta``
    path-major, because its sums run along each path's time axis and
    their pairwise summation order depends on that layout.  It builds the
    kernel on construction and ``wz`` on the first :meth:`per_path`, both
    in blocks of ``ROW_BLOCK`` rows, and prices block by block; every row
    is computed on its own, so the block size never changes a result.
    """

    def __init__(
        self,
        params: ModelParams,
        times: np.ndarray,
        zeta: np.ndarray,
        dt: float,
        antithetic: bool,
        method: str = "auto",
    ):
        method = _resolve_method(params, method)
        if method not in ("closed_form", "euler"):
            raise ValueError(f"unknown method {method!r}")
        if method == "closed_form" and params.pension != 0.0:
            raise ValueError("closed_form requires pension == 0")
        g = params.market.gamma
        eta = params.habit.eta
        self.params = params
        self._antithetic = antithetic
        self._euler = method == "euler"
        self._dt = dt
        log_p = log_survival_probability(params.mortality, times)
        # exp(-rho t / g) * p_t^(1/g): the deterministic part of the rule
        self._shadow = np.exp((-params.market.rho * times + log_p) / g)
        self._wgt = _trapezoid_weights(times)
        if self._euler:
            if eta * dt >= 1.0:
                raise ValueError(f"eta * dt = {eta * dt} >= 1: grid too coarse")
            self._zeta_t = np.ascontiguousarray(zeta.T)
            self._zpow_t = self._zeta_t ** (-1.0 / g)
            return
        self._zeta = zeta
        self._wz = None
        if eta == 0.0:
            # frozen habit: the kernel drops out and the cost factorises
            self._kernel = None
        else:
            self._kernel, self._decay = bernoulli_kernel(
                params.habit, params.market, params.mortality, times, zeta
            )

    def _weights(self) -> np.ndarray:
        """``zeta^(1 - 1/g)`` times the deterministic weights, per path and step.

        Without habit formation only their sum along each path is needed.
        """
        g = self.params.market.gamma
        zeta = self._zeta
        if self._kernel is None:
            vec = self._shadow * self._wgt
            wz = np.empty(zeta.shape[0])
            for rows in _row_blocks(zeta.shape[0]):
                wz[rows] = (zeta[rows] ** (1.0 - 1.0 / g) * vec).sum(axis=-1)
            return wz
        vec = self._shadow * self._decay ** (g - 1.0)
        wz = np.empty(zeta.shape)
        for rows in _row_blocks(zeta.shape[0]):
            wz[rows] = zeta[rows] ** (1.0 - 1.0 / g) * vec * self._wgt
        return wz

    def _stream(self, alpha: float, y: float, h: float):
        """Yield (k, consumption, habit) of the floored rule, step by step."""
        g = self.params.market.gamma
        eta = self.params.habit.eta
        pi = self.params.pension
        e = 1.0 - 1.0 / g
        fac = (alpha ** (-1.0 / g) * y ** (-1.0 / g)) * self._shadow
        m, n = self._zeta_t.shape
        h = np.full(n, float(h))
        for k in range(m):
            c = h**e * (fac[k] * self._zpow_t[k])
            np.maximum(c, pi, out=c)
            yield k, c, h
            if k < m - 1:
                h = habit_euler_step(h, c, self._dt, eta)

    def per_path(self, alpha: float, y: float, h: float) -> np.ndarray:
        """Remaining cost in wealth units from density level y and habit h.

        One sample per path, or per antithetic pair when the paths are
        mirrored.
        """
        if self._euler:
            pi = self.params.pension
            cost = np.zeros(self._zeta_t.shape[1])
            for k, c, _ in self._stream(alpha, y, h):
                cost += (self._wgt[k] * (c - pi)) * self._zeta_t[k]
        else:
            g = self.params.market.gamma
            eta = self.params.habit.eta
            beta = alpha ** (-1.0 / g)
            if self._wz is None:
                self._wz = self._weights()
            # zeta C = beta * wz * (z^(1/g) + (eta/g) beta K)^(g-1) with
            # z = y * h; dividing by y turns F(t, z) into wealth units
            u0 = (y * h) ** (1.0 / g)
            if self._kernel is None:
                cost = beta * (self._wz * u0 ** (g - 1.0))
            else:
                sums = np.empty(self._kernel.shape[0])
                scale = (eta / g) * beta
                for rows in _row_blocks(self._kernel.shape[0]):
                    block = self._kernel[rows] * scale
                    block += u0
                    block **= g - 1.0
                    block *= self._wz[rows]
                    sums[rows] = block.sum(axis=-1)
                cost = beta * sums
            cost = cost / y
        if self._antithetic:
            half = cost.shape[0] // 2
            cost = 0.5 * (cost[:half] + cost[half:])
        return cost

    def paths(self, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
        """Consumption and habit along the paths from (1, initial habit)."""
        h0 = self.params.habit.initial
        if self._euler:
            consumption = np.empty_like(self._zeta_t)
            habit = np.empty_like(self._zeta_t)
            for k, c, h in self._stream(alpha, 1.0, h0):
                consumption[k] = c
                habit[k] = h
            return consumption.T, habit.T
        g = self.params.market.gamma
        beta = alpha ** (-1.0 / g)
        if self._kernel is None:
            habit = np.full(self._zeta.shape, h0)
        else:
            habit = (
                self._decay
                * (h0 ** (1.0 / g) + (self.params.habit.eta / g) * beta * self._kernel)
            ) ** g
        consumption = habit ** (1.0 - 1.0 / g) * (
            beta * self._shadow * self._zeta ** (-1.0 / g)
        )
        return consumption, habit


def solve_paths(
    alpha: float,
    params: ModelParams,
    paths: PathBundle,
    method: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal consumption and habit along every path of a bundle.

    Parameters
    ----------
    method : {"auto", "closed_form", "euler"}
        ``closed_form`` evaluates the Bernoulli solution (pension must
        be zero); ``euler`` steps the habit ODE explicitly and supports
        any pension.  ``auto`` picks closed_form when pension == 0.

    Returns
    -------
    (consumption, habit) : ndarray pairs, shape (n_paths, n_times)
    """
    _validate_positive("alpha", alpha)
    return _bundle_cost(params, paths, method).paths(alpha)


def _bundle_cost(
    params: ModelParams, paths: PathBundle, method: str = "auto"
) -> _CostFunctional:
    grid = paths.grid
    return _CostFunctional(
        params, grid.times(), paths.zeta, grid.dt, paths.antithetic, method
    )


def _calibration_paths(
    market: MarketParams, config: CalibrationConfig
) -> PathBundle:
    """The config's calibration density, as a bundle without Brownian paths.

    Its ``zeta`` is that of ``generate_paths`` at the config's seed.
    """
    return _simulate(
        market,
        config.grid,
        config.n_paths,
        config.seed,
        config.antithetic,
        keep_w=False,
    )


def _calibration_cost(
    params: ModelParams, config: CalibrationConfig, paths: Optional[PathBundle]
) -> _CostFunctional:
    """The functional calibration prices through, on ``paths`` if given."""
    return _bundle_cost(params, paths or _calibration_paths(params.market, config))


def budget_value(
    alpha: float, params: ModelParams, paths: PathBundle
) -> BudgetEstimate:
    """Expected density-weighted cost of the funded consumption stream.

    E[ integral zeta_t * (C_t - pension)_+ dt ] by trapezoid rule over
    the bundle grid, averaged across paths.  The returned standard
    error accounts for antithetic pairing when the bundle uses it.
    """
    _validate_positive("alpha", alpha)
    cost = _bundle_cost(params, paths)
    return _estimate_from_samples(cost.per_path(alpha, 1.0, params.habit.initial))


def calibrate_alpha(
    params: ModelParams,
    config: CalibrationConfig = CalibrationConfig(),
    paths: Optional[PathBundle] = None,
) -> GreedySolution:
    """Solve budget(alpha) = v by bisection on a common path bundle.

    All evaluations reuse one bundle (common random numbers), so the
    empirical budget is strictly decreasing in alpha and the bisection
    is deterministic given the seed.  Iterates are checked for that
    monotonicity; a violation raises :class:`BudgetMonotonicityError`.

    Parameters
    ----------
    paths : PathBundle, optional
        Reuse an existing bundle instead of generating one (its grid
        and size then take precedence over ``config``).

    Raises
    ------
    CalibrationError
        If the bracket cannot be expanded to straddle v or the
        iteration cap is hit before reaching tolerance.
    """
    cost = _calibration_cost(params, config, paths)
    v = params.v
    history = {}

    def budget_at(alpha: float) -> BudgetEstimate:
        if alpha not in history:
            history[alpha] = _estimate_from_samples(
                cost.per_path(alpha, 1.0, params.habit.initial)
            )
        return history[alpha]

    lo, hi = config.bracket
    for _ in range(6):
        if budget_at(lo).value >= v:
            break
        lo /= 10.0
    for _ in range(6):
        if budget_at(hi).value <= v:
            break
        hi *= 10.0
    b_lo, b_hi = budget_at(lo), budget_at(hi)
    if b_lo.value < v or b_hi.value > v:
        raise CalibrationError(
            f"could not bracket v={v}: budget({lo})={b_lo.value:.6g}, "
            f"budget({hi})={b_hi.value:.6g}"
        )

    alpha = None
    estimate = None
    for endpoint, est in ((lo, b_lo), (hi, b_hi)):
        if abs(est.value - v) / v <= config.tolerance:
            alpha, estimate = endpoint, est
            break
    while alpha is None:
        if len(history) >= config.max_iterations:
            raise CalibrationError(
                f"no convergence within {config.max_iterations} budget "
                f"evaluations (last bracket [{lo:.6g}, {hi:.6g}])"
            )
        mid = math.sqrt(lo * hi)
        est = budget_at(mid)
        if abs(est.value - v) / v <= config.tolerance:
            alpha, estimate = mid, est
        elif est.value > v:
            lo = mid
        else:
            hi = mid

    evaluated = sorted(history.items())
    values = [est.value for _, est in evaluated]
    if not all(a > b for a, b in zip(values[:-1], values[1:])):
        raise BudgetMonotonicityError(
            "budget iterates are not strictly decreasing in alpha; "
            "the Monte Carlo budget is numerically corrupt on this grid"
        )

    return GreedySolution(
        alpha=alpha,
        budget_residual=abs(estimate.value - v) / v,
        budget_se=estimate.std_error,
        pension=params.pension,
        v=v,
        iterations=len(history),
        _cost=functools.partial(_calibration_cost, params, config, paths),
    )
