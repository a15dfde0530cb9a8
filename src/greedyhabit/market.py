"""Market model, Gompertz mortality, and simulation grids.

The investment opportunity set is a constant-coefficient Black-Scholes
market (one risky asset, one riskless bond).  All pricing in the solver
runs through the state-price density

    zeta_t = exp(-r t) * exp(-kappa W_t - kappa^2 t / 2),

where kappa = (mu - r) / sigma is the market price of risk.  Mortality
follows a Gompertz law parameterised by modal age and dispersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "MarketParams",
    "GompertzParams",
    "TimeGrid",
    "PathBundle",
    "survival_probability",
    "hazard_rate",
    "generate_paths",
]

ArrayLike = Union[float, np.ndarray]

#: Default master seed used across the package when none is supplied.
DEFAULT_SEED = 20260814

#: Paths per block in the row-blocked array builders: a block's
#: temporaries stay in cache, and results do not depend on the size.
ROW_BLOCK = 64


@dataclass(frozen=True)
class MarketParams:
    """Constant Black-Scholes market coefficients and preferences.

    Parameters
    ----------
    mu : float
        Drift of the risky asset.
    sigma : float
        Volatility of the risky asset (must be positive).
    r : float
        Riskless rate.
    rho : float
        Subjective discount rate of the agent.
    gamma : float
        Relative risk aversion; must be positive and != 1.
    """

    mu: float = 0.08
    sigma: float = 0.16
    r: float = 0.02
    rho: float = 0.02
    gamma: float = 3.0

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.gamma <= 0.0 or self.gamma == 1.0:
            raise ValueError(
                f"gamma must be positive and != 1, got {self.gamma}"
            )

    @property
    def kappa(self) -> float:
        """Market price of risk (mu - r) / sigma."""
        return (self.mu - self.r) / self.sigma


@dataclass(frozen=True)
class GompertzParams:
    """Gompertz mortality law for an individual of a given age.

    Parameters
    ----------
    age : float
        Current age x of the individual.
    modal_age : float
        Modal age at death m of the Gompertz law.
    dispersion : float
        Dispersion coefficient b (must be positive).
    """

    age: float = 65.0
    modal_age: float = 89.335
    dispersion: float = 9.5

    def __post_init__(self) -> None:
        if self.dispersion <= 0.0:
            raise ValueError(
                f"dispersion must be positive, got {self.dispersion}"
            )
        if self.age < 0.0:
            raise ValueError(f"age must be non-negative, got {self.age}")


def survival_probability(mortality: GompertzParams, s: ArrayLike) -> ArrayLike:
    """Probability that an individual aged ``age`` survives ``s`` more years.

    Under the Gompertz law the conditional survival probability is

        p(s) = exp(-exp((age - modal_age) / b) * (exp(s / b) - 1)),

    which equals 1 at s = 0 and decreases to 0.

    Parameters
    ----------
    mortality : GompertzParams
        Mortality law.
    s : float or ndarray
        Horizon(s) in years; must be non-negative.

    Returns
    -------
    float or ndarray
        Survival probabilities, same shape as ``s``.
    """
    return np.exp(log_survival_probability(mortality, s))


def log_survival_probability(
    mortality: GompertzParams, s: ArrayLike
) -> ArrayLike:
    """Log of :func:`survival_probability`; exact for very small tails."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("survival horizon s must be non-negative")
    b = mortality.dispersion
    base = np.exp((mortality.age - mortality.modal_age) / b)
    out = -base * np.expm1(s_arr / b)
    return float(out) if np.isscalar(s) else out


def hazard_rate(mortality: GompertzParams, y: ArrayLike) -> ArrayLike:
    """Instantaneous Gompertz hazard (force of mortality) at age ``y``.

    lambda(y) = (1 / b) * exp((y - modal_age) / b).
    """
    y_arr = np.asarray(y, dtype=float)
    b = mortality.dispersion
    out = np.exp((y_arr - mortality.modal_age) / b) / b
    return float(out) if np.isscalar(y) else out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid [0, t_max] with step dt.

    ``t_max`` must be an integer multiple of ``dt`` (within float
    tolerance); grid times are ``k * dt`` for k = 0..n_steps.
    """

    t_max: float = 60.0
    dt: float = 0.05

    def __post_init__(self) -> None:
        if self.dt <= 0.0 or self.t_max <= 0.0:
            raise ValueError("t_max and dt must be positive")
        n = round(self.t_max / self.dt)
        if n < 1 or abs(n * self.dt - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(
                f"t_max={self.t_max} is not an integer multiple of dt={self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)

    def times(self) -> np.ndarray:
        """Grid times as an array of length n_steps + 1."""
        return np.arange(self.n_steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Index of grid time ``t``; raises if ``t`` is not on the grid."""
        k = round(t / self.dt)
        if k < 0 or k > self.n_steps or abs(k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} does not lie on the grid (dt={self.dt})")
        return k


@dataclass
class PathBundle:
    """A bundle of simulated Brownian/state-price-density paths.

    Attributes
    ----------
    grid : TimeGrid
        Grid the paths are sampled on.
    n_paths : int
        Number of paths.
    seed : int
        Master seed the bundle was generated from.
    w : ndarray, shape (n_paths, n_steps + 1), or None
        Brownian motion paths, w[:, 0] = 0.  None in a calibration-only
        bundle, which prices through the density alone; its ``zeta`` is
        that of :func:`generate_paths` at the same seed.
    zeta : ndarray, shape (n_paths, n_steps + 1)
        State-price density along each path, zeta[:, 0] = 1.
    antithetic : bool
        Whether the second half of the bundle mirrors the first.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    w: Optional[np.ndarray]
    zeta: np.ndarray
    antithetic: bool = False


def _row_blocks(n: int):
    """Consecutive slices of at most ``ROW_BLOCK`` rows that cover ``n`` rows."""
    return [slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK)]


def _fill_normals(
    out: np.ndarray, seed: int, key: tuple, rows: range
) -> None:
    """Fill ``out[j]`` with standard normals from child stream ``key + (rows[j],)``.

    Each stream is keyed by its row index, so the draws do not depend on
    how the rows are split into blocks.
    """
    n_steps = out.shape[1]
    for j, i in enumerate(rows):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key + (i,))
        rng = np.random.Generator(np.random.PCG64(ss))
        out[j] = rng.standard_normal(n_steps)


def _density_paths(
    market: MarketParams, dw: np.ndarray, dt: float, antithetic: bool
):
    """Brownian paths and state-price density from standard-normal increments.

    ``dw`` has one row per stream and one column per step of size ``dt``;
    the paths start at w = 0, zeta = 1.  With ``antithetic`` the rows are
    followed by their mirrors, built by negating the Brownian half-block
    (negating a cumulative sum is exact).  Returns ``(w, zeta)``.
    """
    n_steps = dw.shape[1]
    w = np.empty((dw.shape[0], n_steps + 1))
    w[:, 0] = 0.0
    np.cumsum(dw, axis=1, out=w[:, 1:])
    w[:, 1:] *= math.sqrt(dt)
    if antithetic:
        w = np.vstack([w, -w])
    kappa = market.kappa
    times = np.arange(n_steps + 1) * dt
    log_zeta = -(market.r + 0.5 * kappa**2) * times - kappa * w
    return w, np.exp(log_zeta)


def _simulate(
    market: MarketParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    antithetic: bool,
    key: tuple = (),
    keep_w: bool = True,
) -> PathBundle:
    """Bundle of ``n_paths`` seeded streams, built in row blocks.

    Each block of streams is drawn and turned into paths by
    :func:`_density_paths`, with its mirrors placed in the second half
    when ``antithetic`` is set, so no full-size temporary is made.  The
    bundle's ``w`` is None unless ``keep_w`` is set.
    """
    n_streams = n_paths // 2 if antithetic else n_paths
    shape = (n_paths, grid.n_steps + 1)
    w = np.empty(shape) if keep_w else None
    zeta = np.empty(shape)
    for rows in _row_blocks(n_streams):
        k = rows.stop - rows.start
        dw = np.empty((k, grid.n_steps))
        _fill_normals(dw, seed, key, range(rows.start, rows.stop))
        w_blk, zeta_blk = _density_paths(market, dw, grid.dt, antithetic)
        targets = [rows]
        if antithetic:
            targets.append(slice(n_streams + rows.start, n_streams + rows.stop))
        for j, target in enumerate(targets):
            zeta[target] = zeta_blk[j * k : (j + 1) * k]
            if keep_w:
                w[target] = w_blk[j * k : (j + 1) * k]
    return PathBundle(grid, n_paths, seed, w, zeta, antithetic)


def generate_paths(
    market: MarketParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    antithetic: bool = False,
) -> PathBundle:
    """Simulate Brownian paths and the state-price density on a grid.

    The density is updated in log space,

        log zeta_k = -(r + kappa^2 / 2) * t_k - kappa * W_k,

    which is exact on grid points (no Euler error in zeta itself).

    Parameters
    ----------
    market : MarketParams
        Market coefficients (only r, kappa enter the density).
    grid : TimeGrid
        Simulation grid.
    n_paths : int
        Number of paths; must be even when ``antithetic`` is set.
    seed : int
        Master seed; per-path streams are spawned from it.
    antithetic : bool
        If set, paths [n/2:] use the negated increments of paths [:n/2].

    Returns
    -------
    PathBundle
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("antithetic sampling requires an even n_paths")
    return _simulate(market, grid, n_paths, seed, antithetic)
