"""Habit dynamics: exponential smoothing of past consumption.

The habit level follows dH_t = eta * (C_t - H_t) dt with H_0 equal to
the initial habit.  Along the optimal consumption rule (no pension) the
habit ODE is of Bernoulli type and admits a closed form: with
u = H^(1/gamma),

    u_s = exp(-eta (s - t0) / gamma) * (u_{t0} + (eta / gamma) * K_s),
    K_s = integral_{t0}^{s} exp(eta (q - t0) / gamma)
          * (alpha * zeta_q * exp(rho q) / p_q)^(-1/gamma) dq,

where p_q is the survival probability.  Anchoring the exponentials at
t0 keeps the integrand bounded, so the expression is overflow-safe on
long horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .market import (
    GompertzParams,
    MarketParams,
    _Workspace,
    _require_finite,
    _require_nonnegative,
    _require_positive,
    _row_blocks,
    log_survival_probability,
)

__all__ = ["HabitParams", "habit_euler_step", "habit_closed_form"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class HabitParams:
    """Habit-formation preferences.

    Parameters
    ----------
    eta : float
        Smoothing rate of the habit (>= 0); eta = 0 freezes the habit
        at its initial level and recovers time-separable utility.
    initial : float
        Initial habit level (must be positive).
    """

    eta: float = 0.1
    initial: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_nonnegative("eta", self.eta)
        _require_positive("initial habit", self.initial)


def habit_euler_step(
    h: ArrayLike, c: ArrayLike, dt: float, eta: float
) -> ArrayLike:
    """One explicit Euler step of the habit ODE.

    h_{k+1} = h_k + eta * (c_k - h_k) * dt.  Requires eta * dt < 1 so
    the step preserves positivity and monotone tracking.  ``h`` must be
    positive and ``c`` non-negative (a pension-0 tail consumes 0), both
    finite.
    """
    _require_positive("habit h", h)
    _require_nonnegative("consumption c", c)
    _require_positive("dt", dt)
    _require_nonnegative("eta", eta)
    if eta * dt >= 1.0:
        raise ValueError(
            f"eta * dt = {eta * dt} >= 1: step too coarse for the habit ODE"
        )
    return h + eta * (np.asarray(c, dtype=float) - h) * dt


def bernoulli_kernel(
    habit: HabitParams,
    market: MarketParams,
    mortality: GompertzParams,
    times: np.ndarray,
    zeta: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Alpha-independent pieces of the closed-form habit solution.

    Returns ``(kernel, decay)`` where, for a given multiplier alpha with
    beta = alpha^(-1/gamma) and start habit h0 at times[0],

        u = decay * (h0^(1/gamma) + (eta / gamma) * beta * kernel)

    and H = u^gamma.  ``times`` are absolute (mortality and discounting
    are evaluated at them); the exponential anchor is times[0].

    Parameters
    ----------
    times : ndarray, shape (m,)
        Increasing absolute grid times.
    zeta : ndarray, shape (..., m)
        State-price-density values along the last axis (rebased so the
        conditioning value at times[0] is already divided out).

    The kernel is filled in blocks of rows, each row on its own, as a
    cumulative trapezoid summed in the order of scipy's implementation.
    """
    zeta = np.asarray(zeta)
    rows = zeta.reshape(-1, zeta.shape[-1])
    kernel = np.empty(rows.shape)
    blocks = ((block, rows[block]) for block in _row_blocks(rows.shape[0]))
    work = _Workspace()
    integrands = _integrand_blocks(habit, market, mortality, times, blocks, work)
    for block, _, _, k in integrands:
        _trapezoid_kernel(k, times, kernel[block], work, [(0, times.shape[0])])
    decay = np.exp(-habit.eta * (times - times[0]) / market.gamma)
    return kernel.reshape(zeta.shape), decay


def _integrand_blocks(habit, market, mortality, times, blocks, work):
    """Yield ``(rows, zeta, log_z, k)`` for each ``(rows, zeta)`` of ``blocks``.

    log_z = log(zeta) / gamma of 2-D density rows on ``times``, and the kernel
    integrand k = exp(drift - log_z) = exp(eta tau / gamma) (zeta exp(rho t) /
    p)^(-1/gamma), tau = t - times[0], in log space so that deep density
    tails do not overflow; views of the chunk's :class:`_Workspace` ``work``,
    valid until the next block is asked for (the caller may overwrite k).
    """
    g = market.gamma
    log_p = log_survival_probability(mortality, times)
    drift = (habit.eta * (times - times[0]) - market.rho * times + log_p) / g
    for rows, zeta in blocks:
        shape = (zeta.shape[0], drift.shape[0])
        log_z = np.log(zeta, out=work.take("log_z", shape))
        log_z /= g
        k = np.subtract(drift, log_z, out=work.take("k", shape))
        yield rows, zeta, log_z, np.exp(k, out=k)


def _trapezoid_kernel(k, times, out, work, segments):
    """Fill ``out`` with the kernel: the cumulative trapezoid of ``k`` over ``times``.

    Restarted at 0 at each column range [lo, hi) of ``segments``, so a late
    one loses no digits to those before; each row is summed on its own, in
    scipy's order, with the areas in ``work``'s ``temp`` at the size of ``k``.
    """
    n, m = k.shape
    area = work.take("temp", (n * m,))[: n * (m - 1)].reshape(n, m - 1)
    np.add(k[:, 1:], k[:, :-1], out=area)
    area *= np.diff(times)
    area /= 2.0
    for lo, hi in segments:
        out[:, lo] = 0.0
        np.cumsum(area[:, lo : hi - 1], axis=-1, out=out[:, lo + 1 : hi])
    return out


def habit_closed_form(
    habit: HabitParams,
    market: MarketParams,
    mortality: GompertzParams,
    alpha: float,
    times: np.ndarray,
    zeta: np.ndarray,
    h_start: ArrayLike = None,
) -> np.ndarray:
    """Habit path along the optimal (no-pension) consumption rule.

    Evaluates the Bernoulli closed form on ``times`` given density
    values ``zeta`` (trapezoid rule for the inner integral, so the
    result is exact up to O(dt^2) quadrature error).

    Parameters
    ----------
    alpha : float
        Budget multiplier (positive).
    times : ndarray, shape (m,)
        Absolute grid times; the habit starts at times[0].
    zeta : ndarray, shape (m,) or (n_paths, m)
        Density values along the last axis.
    h_start : float or ndarray, optional
        Habit at times[0]; defaults to ``habit.initial``.

    Returns
    -------
    ndarray
        Habit values, same shape as ``zeta``.
    """
    _require_positive("alpha", alpha)
    h0 = np.asarray(habit.initial if h_start is None else h_start, dtype=float)
    _require_positive("start habit", h0)
    g = market.gamma
    if h0.ndim > 0:
        h0 = h0[..., np.newaxis]
    if habit.eta == 0.0:
        # decay is exactly 1 and the kernel's term exactly 0: u stays at u0
        u = np.empty(np.broadcast_shapes(h0.shape, np.shape(zeta)))
        u[...] = h0 ** (1.0 / g)
        return u**g
    kernel, decay = bernoulli_kernel(habit, market, mortality, times, zeta)
    beta = alpha ** (-1.0 / g)
    return (decay * (h0 ** (1.0 / g) + (habit.eta / g) * beta * kernel)) ** g
