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
initial wealth ("budget identity").  The cost is strictly decreasing in
alpha, so Newton steps on log cost against log alpha, kept inside the
bracket of evaluated iterates, converge globally.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .habit import (
    HabitParams,
    _integrand_blocks,
    _trapezoid_kernel,
    habit_closed_form,
)
from .market import (
    DEFAULT_SEED,
    GompertzParams,
    MarketParams,
    PathBundle,
    TimeGrid,
    _Stream,
    _Workspace,
    _in_threads,
    _log_drift,
    _require_nonnegative,
    _require_positive,
    _require_seed,
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
        _require_nonnegative("pension", self.pension)
        _require_positive("initial wealth v", self.v)


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
    ``max_iterations`` caps the budget evaluations.  ``bracket`` widened
    by six decades each way, (lo / 1e6, hi * 1e6), limits the search.
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
        _require_seed("CalibrationConfig.seed", self.seed)
        _require_positive("tolerance", self.tolerance)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        lo, hi = self.bracket
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"invalid bracket {self.bracket}")

    def _density(self, market: MarketParams) -> _Density:
        """The calibration density: the streams of ``generate_paths`` at ``seed``."""
        return _Density(
            _Stream(market, self.grid, self.n_paths, self.seed, self.antithetic, ())
        )


class BudgetEstimate(NamedTuple):
    value: float
    std_error: float


@dataclass
class GreedySolution:
    """Calibrated multiplier and its budget; :func:`calibrate_alpha` says
    how to get the consumption and habit arrays.

    Attributes
    ----------
    alpha : float
        Calibrated budget multiplier.
    budget_residual : float
        Relative residual |budget(alpha) - v| / v at convergence.
    budget_se : float
        Standard error of the budget at alpha, the regression estimate
        of :func:`budget_value` on its controls: X, and at pension 0 with
        eta > 0 and a whole gamma - 1 the kernel moments M_0 and M_1.
    plain : BudgetEstimate
        The plain sample mean of the budget at alpha and its SE.
    pension : float
    v : float
    iterations : int
        Number of budget evaluations performed.
    """

    alpha: float
    budget_residual: float
    budget_se: float
    plain: BudgetEstimate
    pension: float
    v: float
    iterations: int


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
    _require_positive("habit h", h)
    _require_positive("zeta", zeta)
    _require_positive("alpha", alpha)
    _require_nonnegative("time t", t)
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
    _require_nonnegative("pension", pension)
    base = consumption_no_pension(h, zeta, t, alpha, market, mortality)
    out = np.maximum(pension, base)
    return float(out) if np.ndim(out) == 0 else out


def _estimate_from_samples(
    y: np.ndarray, x: Optional[np.ndarray] = None, mean_x: ArrayLike = 0.0
) -> BudgetEstimate:
    """mean(y) - b . (mean(x) - mean_x), b fitted, and the residual SE.

    The regression estimate on the controls ``x``, shape (k, n) (or (n,)
    for one), of known means ``mean_x`` (Glasserman 2003, section 4.1),
    with n - 1 - r degrees of freedom for the r coefficients fitted.  At
    most the leading n - 2 controls are fitted, so one degree of freedom
    is always left; without ``x``, with fewer than three samples or with
    no control of variance, the plain mean and SE.  One control is fitted
    by its own normal equation; several by least squares on the controls
    scaled to unit norm, which drops a direction the others explain to
    1e-10 of its norm (a collinear or constant control).
    """
    n = y.shape[0]
    mean = y.mean()
    x = np.empty((0, n)) if x is None else np.atleast_2d(x)[: max(n - 2, 0)]
    dx = x - x.mean(axis=-1, keepdims=True)
    sxx = (dx * dx).sum(axis=-1)
    if not (sxx > 0.0).any():
        se = y.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        return BudgetEstimate(float(mean), float(se))
    resid = y - mean
    if dx.shape[0] == 1:
        b, rank = (dx * resid).sum(axis=-1) / sxx, 1
    else:
        norm = np.sqrt(np.where(sxx > 0.0, sxx, 1.0))
        b, _, rank, _ = np.linalg.lstsq((dx / norm[:, None]).T, resid, rcond=1e-10)
        b /= norm
    resid -= (b[:, None] * dx).sum(axis=0)
    se = math.sqrt((resid * resid).sum() / (n - 1 - rank) / n)
    gap = x.mean(axis=-1) - np.atleast_1d(mean_x)[: x.shape[0]]
    return BudgetEstimate(float(mean - (b * gap).sum()), se)


def _require_stable_step(params: ModelParams, dt: float) -> None:
    """Reject a pension's Euler sweep on steps of ``dt`` too coarse for the habit.

    habit_euler_step's condition, checked once for every step of the sweep.
    """
    eta = params.habit.eta
    if params.pension != 0.0 and eta * dt >= 1.0:
        raise ValueError(
            f"eta * dt = {eta * dt} >= 1 at eta = {eta}, dt = {dt}: grid too "
            f"coarse for the pension's Euler sweep, which needs dt < 1/eta = {1 / eta}"
        )


def _anchor_terms(params: ModelParams, times: np.ndarray):
    """Deterministic vectors of an anchor at absolute ``times``.

    Returns ``(shadow, wgt, vec, lift, means)``: exp(-rho t / g) * p_t^(1/g),
    the deterministic part of the rule; the trapezoid weights;
    exp(-eta tau) * wgt, which turns the kernel integrand into ``wz``;
    lift = exp(eta q tau), q = 1 - 1/g; and the exact means on the grid of
    the controls X, M_0 and M_1 per path.  X = sum_k wgt_k shadow_k zeta_k^q
    = sum_k wz_k lift_k is the eta = 0, pension-0 cost over beta h^(g - 1);
    M_j = sum_k wz_k m_k^j are the kernel moments (:func:`_kernel_moments`).
    The density restarts at 1 at times[0], so F = E[zeta_tau^q] =
    exp(q mu tau + q^2 kappa^2 tau / 2), mu = -(r + kappa^2/2).  With
    A = shadow exp(eta tau / g), the kernel integrand A zeta^(-1/g),
    E[M_0] = sum_i A_i vec_i F_i.  For l <= i the increment of log zeta
    after t_l is independent of zeta_l, so E[zeta_i^q zeta_l^(-1/g)] =
    F_i G_l, G = exp(-mu tau / g + (kappa^2/2)((1 - 2/g)^2 - q^2) tau), and
    E[M_1] = (eta/g) sum_i A_i vec_i F_i S_i, S the cumulative trapezoid of
    A G over ``times``.
    """
    m, eta = params.market, params.habit.eta
    g, q, mu = m.gamma, 1.0 - 1.0 / m.gamma, -(m.r + 0.5 * m.kappa**2)
    tau = times - times[0]
    log_p = log_survival_probability(params.mortality, times)
    # the trapezoid weights: half the gap between each time's neighbours
    wgt = 0.5 * (np.r_[times[1:], times[-1]] - np.r_[times[0], times[:-1]])
    shadow = np.exp((-m.rho * times + log_p) / g)
    moment = np.exp(q * (0.5 * q * m.kappa**2 - m.r - 0.5 * m.kappa**2) * tau)
    vec = np.exp(-eta * tau) * wgt
    a = shadow * np.exp(eta * tau / g)
    ag = a * np.exp((0.5 * m.kappa**2 * ((1.0 - 2.0 / g) ** 2 - q * q) - mu / g) * tau)
    s = np.zeros_like(times)
    np.cumsum(0.5 * (ag[1:] + ag[:-1]) * np.diff(times), out=s[1:])
    w = a * vec * moment
    means = [(wgt * shadow * moment).sum(), w.sum(), (eta / g) * (w * s).sum()]
    return shadow, wgt, vec, np.exp(eta * q * tau), np.array(means)


def _moment_order(gamma: float) -> Optional[int]:
    """n = gamma - 1 when the closed form prices from kernel moments, else None.

    With m = (eta/g) K, a path's cost is beta/y sum_k wz_k (u0 + beta m_k)^n.
    When n is a whole number that sum is sum_j C(n, j) u0^(n-j) beta^j M_j
    over the moments M_j = sum_k wz_k m_k^j, j = 0..n, of the path, which
    depend on neither alpha nor the state; every term is non-negative, so
    nothing cancels.  Up to n = 53 every C(n, j) <= 2^n is an exact float
    and a path keeps few moments; past it, and at any other gamma, the
    cost takes the power of the kernel.
    """
    n = float(gamma) - 1.0
    return int(n) if n.is_integer() and 1.0 <= n <= 53.0 else None


def _moment_sum(moments, n, u0, beta):
    """sum_k wz_k (u0 + beta m_k)^n per row from the moments M_j, j <= n."""
    total = moments[:, n] * beta**n
    for j in range(n - 1, -1, -1):
        total += moments[:, j] * (math.comb(n, j) * u0 ** (n - j) * beta**j)
    return total


def _price_rows(params, alpha, y, h, kernel, wz, work, scale=1.0):
    """Closed-form cost and y * d(cost)/dy of rows of paths.

    ``kernel``, ``wz`` and ``scale``, u0's factor per row, are the rows'
    terms from :func:`_anchor_pass`: without a kernel, wz summed along each
    row at eta = 0, or the rows' kernel moments.  Each row is priced on its
    own, so a result never depends on how rows are split into blocks.
    Returns (cost, delta) in wealth units per path; the delta costs a few
    operations per path, or one division per element on the power form, in ``work``.
    """
    g = params.market.gamma
    beta = alpha ** (-1.0 / g)
    # zeta C = beta * wz * (z^(1/g) + (eta/g) beta K)^(g-1) with
    # z = y * h; dividing by y turns F(t, z) into wealth units
    u0 = (y * h) ** (1.0 / g) * scale
    if kernel is None and params.habit.eta == 0.0:
        cost = beta * (wz * u0 ** (g - 1.0)) / y
        return cost, -cost / g
    if kernel is None:
        n = wz.shape[1] - 1
        cost = beta * _moment_sum(wz, n, u0, beta) / y
        # the delta's B^(g-2) is the polynomial of degree n - 1
        dsums = _moment_sum(wz, n - 1, u0, beta)
    else:
        block = work.take("temp", kernel.shape)
        np.multiply(kernel, (params.habit.eta / g) * beta, out=block)
        block += np.reshape(u0, (-1, 1))
        power = np.power(block, g - 1.0, out=work.take("power", kernel.shape))
        power *= wz
        cost = beta * power.sum(axis=-1) / y
        # the delta's B^(g-2) is B^(g-1) / B
        dsums = np.divide(power, block, out=block).sum(axis=-1)
    # y du0/dy = u0 / g, and d(1/y) gives -cost
    return cost, -cost + (beta / y) * ((g - 1.0) / g) * u0 * dsums


def _anchor_pass(params, density, anchors, in_block):
    """Every anchor's closed-form terms and control X, in one pass over row blocks.

    Anchor j reads the density's last ``len(anchors[j])`` columns restarted at
    1 at the first, s: zeta_k / zeta_s, whose increments, independent of
    zeta_s, have the law of the leading ones (Glasserman 2003).  The anchors
    are tails of the longest, whose times the columns take; their starts cut
    the columns into segments, each closed by a copy of the next start, so a
    row block of :meth:`_Density.chunks` takes one exp per element for all
    (README, "Estimates and standard errors").  Returns ``(kept, xs)``: anchor
    j's X per path ``xs[j]``, and ``kept[j]`` its terms that need no kernel:
    ``xs`` at eta = 0, at a moment order n (:func:`_moment_order`) the kernel
    moments, shape (n_paths, n + 1), else None, and ``in_block(rows, j, kernel,
    wz, work, scale)`` takes each block's C - C_s, W and exp(-l), u0's factor
    once the others cancel, valid until it returns.  A row's terms are its own.
    """
    g, eta, (n_paths, width) = params.market.gamma, params.habit.eta, density.shape
    order = None if eta == 0.0 else _moment_order(g)
    starts = sorted({width - len(times) for times in anchors})
    sizes = np.diff(starts + [width - 1]) + 1  # each closed by the next start
    cols = np.concatenate([np.arange(a, a + m) for a, m in zip(starts, sizes)])
    times = max(anchors, key=len)[cols - starts[0]]
    edges = np.r_[0, np.cumsum(sizes)]
    segments = list(zip(edges[:-1], edges[1:]))
    _, _, vec, lift, _ = _anchor_terms(params, times)
    eta_tau = eta * (times[edges[:-1]] - times[0]) / g  # eta tau_s / g
    at = [starts.index(width - len(t)) for t in anchors]
    xs, deltas = np.empty((len(starts), n_paths)), np.empty((len(starts) - 1, n_paths))
    lz = np.zeros((len(starts), n_paths if starts[-1] else 1))  # 0 at column 0
    kept = None if order is None else np.empty((len(starts), n_paths, order + 1))

    def fill(blocks):
        work = _Workspace()

        def columns(z):  # a view, or a copy with each inner start twice
            if len(starts) == 1:
                return z[:, starts[0] :]
            return np.take(z, cols, 1, work.take("ext", (len(z), len(cols))), "clip")

        for rows, z, log_z, k in _integrand_blocks(
            params.habit, params.market, params.mortality, times,
            ((r, columns(z)) for r, z in blocks), work,
        ):
            if starts[-1]:
                lz[:, rows] = log_z[:, edges[:-1]].T
            if eta != 0.0:  # the kernel, before k turns into W
                kernel = work.take("kernel", k.shape)
                _trapezoid_kernel(k, times, kernel, work, segments)
                if order is not None:
                    kernel *= eta / g
                deltas[:, rows] = kernel[:, edges[1:-1] - 1].T
            # W = zeta Q exp(-eta tau) wgt in place of k, G = W exp(eta q tau);
            # with l = log(zeta_s) / g - eta tau_s / g, anchor s's kernel is
            # exp(l) (C - C_s), its wz exp((1 - g) l) W, its X zeta_s^-q sum G
            wz = np.multiply(k, z, out=k)
            wz *= vec
            terms = np.multiply(wz, lift, out=work.take("temp", k.shape)) if eta else wz
            for i, (lo, hi) in enumerate(segments):  # G = W at eta = 0
                xs[i, rows] = terms[:, lo:hi].sum(axis=-1)
            for j in range(order + 1 if order is not None else 0):
                if j:
                    wz *= kernel
                for i, (lo, hi) in enumerate(segments):
                    kept[i, rows, j] = wz[:, lo:hi].sum(axis=-1)
            if order is not None or eta == 0.0:
                continue
            for i, (lo, _) in enumerate(segments):  # the power form
                shifted = kernel[:, lo:]  # C - C_s: c plus the deltas between
                if i + 1 < len(starts):
                    off = np.zeros((len(z), len(starts) - i))
                    np.cumsum(deltas[i:, rows].T, axis=1, out=off[:, 1:])
                    off = np.repeat(off, sizes[i:], axis=1)
                    shifted = np.add(shifted, off, out=work.take("block", off.shape))
                scale = np.exp(eta_tau[i] - log_z[:, lo])  # exp(-l)
                for j in (j for j, a in enumerate(at) if a == i):
                    in_block(rows, j, shifted, wz[:, lo:], work, scale)

    density.chunks(fill)
    for i in range(len(starts) - 2, -1, -1):  # suffix sums, last start first
        xs[i] += xs[i + 1]
        # the moments P_r of W (m - m_s)^r: the segment's, plus the next
        # start's shifted by d = m_s' - m_s >= 0, sum_m C(r, m) d^(r - m) P_m
        for r in range(order + 1 if order is not None else 0):
            acc = kept[i + 1, :, 0].copy()  # by Horner's rule in d
            for m in range(1, r + 1):
                acc *= deltas[i]
                acc += math.comb(r, m) * kept[i + 1, :, m]
            kept[i, :, r] += acc
    xs *= np.exp((1.0 - g) * lz)
    for i in range(order or 0):  # M_i = exp((i - n) l) P_i
        kept[..., i] *= np.exp((i - order) * (lz - eta_tau[:, None]))
    xs = xs[at]
    return (xs if eta == 0.0 else None if kept is None else kept[at]), xs


def _euler_stream(
    params, alpha, density, paths, anchors, states, dtype, sums=None, lows=None
):
    """Yield (k, consumption, habit) of the floored rule, step by step.

    One row per state (anchor index, y, h) on ``paths``, a slice of the paths
    of ``density``, stepping zeta_k / zeta_s from its anchor's start s (as
    :func:`_anchor_pass` reads it).  The states come in order of increasing
    start, so the rows stepping at step k are a prefix and each array yielded
    holds those rows only.  Per block of 8 steps (cut at multiples of 8) log
    zeta is read from the density and two per-path factors are taken as exps
    of their logs rounded to ``dtype``: V_k = S_k zeta_k^(-1/g), S the shadow
    exp(-rho t / g) p_t^(1/g) at the first row's anchor times, and T_k = w_k
    zeta_k, w_k the step dt (dt / 2 at the last).  With R = (alpha y)^(-1/g)
    zeta_s^(1/g), set once per row and path, the rule is max(pi, h^(1 - 1/g)
    V_k R).  Every array yielded is in ``dtype``, and so is every operation of
    a step (the pension and eta dt rounded to it).  Each step writes into the
    leading rows of arrays made once per sweep, valid until the next, and
    overwrites the habit (with ``sums`` also C) once the consumer read it.

    ``sums``, shape (1 or 2, rows, paths) in float64, takes each row's
    trapezoid of zeta_k / zeta_s (C - pi): the terms (C - pi) T_k, a row's
    first at half weight, are summed in ``dtype`` over a block and then into
    ``sums``, which is divided by zeta_s at the end.  A second row takes
    the same sums of y dC/dy, carried forward through the habit's own Euler
    step as y dH/dy (zero at the start); it is zero where the floor binds.
    ``lows`` gets each block's least log T_k, rounded, while a row with s > 0
    steps.
    """
    g, eta, pi = params.market.gamma, params.habit.eta, params.pension
    dt, width, m = density.grid.dt, density.shape[1], paths.stop - paths.start
    starts = [width - len(anchors[j]) for j, _, _ in states]
    times, e = anchors[states[0][0]], 1.0 - 1.0 / g  # of columns starts[0] on
    log_p = log_survival_probability(params.mortality, times)
    log_s = (log_p - params.market.rho * times) / g  # the shadow's log
    log_w = np.log(np.r_[np.full(len(times) - 1, dt), 0.5 * dt])
    # counts[k]: the rows that take step k, a prefix as starts increase
    counts = np.searchsorted(starts, np.arange(width), side="right")
    later = next((s for s in starts if s > 0), width)
    tangent = sums is not None and len(sums) == 2
    h = np.zeros((1 + tangent, len(states), m), dtype)  # (h, y dH/dy)
    zs, rise = np.empty((len(states), m)), np.empty((len(states), m), dtype)
    for r, (j, y, h0) in enumerate(states):
        zs[r] = density.step(starts[r], paths, zs[r])
        np.multiply((alpha * y) ** (-1.0 / g), np.power(zs[r], 1.0 / g), out=rise[r])
        h[0, r] = h0
    # (C, y dC/dy), a temporary and the block's sums, in the leading rows of these
    cs, terms, part = np.empty_like(h), np.empty_like(h), np.empty_like(h)
    floor = np.empty(h.shape[1:], bool)
    log_z, v, t = np.empty((8, m)), np.empty((8, m), dtype), np.empty((8, m), dtype)
    for k in range(starts[0], width):
        n, born = counts[k], counts[k - 1] if k else 0
        if k % 8 == 0 or k == starts[0]:  # the block's factors, step-major
            k0, end = k, min(k - k % 8 + 8, width)
            tb, vb = t[: end - k], v[: end - k]
            at = slice(k - starts[0], end - starts[0])  # of times
            lz = density.step(slice(k, end), paths, log_z[: end - k].T, True).T
            np.add(lz, log_w[at, None], out=tb)
            if lows is not None and end > later:
                lows.append(tb[max(later - k, 0) :].min())
            np.exp(tb, out=tb)
            lz *= -1.0 / g
            np.exp(np.add(lz, log_s[at, None], out=vb), out=vb)
            part[:, n : counts[end - 1]] = 0.0  # rows that start in the block
        if born < n:  # rows start here: views of the live rows, made once
            hk, c, pk, tk = h[:, :n], cs[:, :n], part[:, :n], terms[:, :n]
            h0, c0, r0, mask = hk[0], c[0], rise[:n], floor[:n]
            dh, dc = hk[-1], c[-1]  # the tangents, where carried
        np.power(h0, e, out=c0)
        c0 *= v[k - k0]
        c0 *= r0
        if tangent:
            # C = h^e y^(-1/g) (...) off the floor, so y dC/dy = C (e dh/h - 1/g)
            np.divide(dh, h0, out=dc)
            dc *= e
            dc -= 1.0 / g
            dc *= c0
        np.maximum(c0, pi, out=c0)
        if tangent:
            dc *= np.greater(c0, pi, out=mask)
        yield k, c0, h0
        if k + 1 < width:
            # habit_euler_step and its tangent; _require_stable_step checked eta dt
            step = np.subtract(c, hk, out=tk)
            step *= eta * dt
            hk += step
        if sums is None:
            continue
        c0 -= pi  # the terms, in place: (C - pi) T_k and y dC/dy T_k
        if born < n:  # the rows that start here take half weight
            c[:, born:] *= 0.5
        if k == k0:
            np.multiply(c, t[0], out=pk)
        else:
            c *= t[k - k0]
            pk += c
        if k + 1 == end:
            sums[:, :n] += pk
    if sums is not None:
        sums /= zs


class _Density:
    """The density of simulated paths, and what is kept of it for every pricer.

    The one place that decides how a density is read.  ``source`` is a
    :class:`market._Stream`, whose row blocks are drawn as they are read,
    or a :class:`PathBundle`, whose path-major rows it stores.  Either way
    the density holds the source's ``grid`` and ``antithetic`` pairing,
    and every way of reading it gives each row the same bits: a stream's
    log zeta, drift - kappa W, and its mirror's, drift + kappa W, are
    rebuilt from the kept kappa W with the stream's operands and ufuncs.
    """

    def __init__(self, source):
        self.grid, self.antithetic = source.grid, source.antithetic
        self.shape = source.n_paths, source.grid.n_steps + 1
        self._source = source
        self._rows = source.zeta if isinstance(source, PathBundle) else None
        self._steps = None
        self._xs = {}

    def chunks(self, work) -> None:
        """Call ``work(blocks)`` on :func:`_in_threads` chunks of the rows.

        ``blocks`` yields ``(rows, zeta)`` per row block, ``rows`` a slice,
        path-major because the closed form's sums run along each path's
        time axis and their pairwise summation order depends on that
        layout.  They are a bundle's rows, else rebuilt from a stream's
        kept :attr:`steps` into an array the chunk allocates once, else
        drawn from the stream, each antithetic half a block of its own, so
        a kept density is never drawn again.  ``work`` reads a block
        before it asks for the next, which may overwrite it.
        """
        if self._rows is not None:
            _in_threads(self.shape[0], lambda c: work((r, self._rows[r]) for r in c))
            return
        if self._steps is None:
            self._source.chunks(lambda blocks: work((r, z) for r, _, z in blocks))
            return

        def blocks(chunk):
            work = _Workspace()
            for rows in chunk:
                zeta = work.take("zeta", (rows.stop - rows.start, self.shape[1]))
                yield rows, self.step(slice(None), rows, zeta)

        _in_threads(self.shape[0], lambda chunk: work(blocks(chunk)))

    @property
    def steps(self) -> np.ndarray:
        """The density's kept step-major form, written on first use.

        A bundle keeps its zeta, shape (n_times, n_paths); a stream kappa W
        of its streams alone (a mirror is a function of its stream), shape
        (n_times, n_paths / 2) with antithetic pairing and (n_times,
        n_paths) without, written from each block's Brownian rows as drawn.
        """
        if self._steps is None and self._rows is not None:
            self._steps = np.ascontiguousarray(self._rows.T)
        elif self._steps is None:
            market = self._source.market
            streams = self.shape[0] // 2 if self.antithetic else self.shape[0]
            kept = np.empty((self.shape[1], streams))

            def fill(blocks):
                for rows, w, _ in blocks:
                    if w is not None:  # a block of streams, not of mirrors
                        np.multiply(market.kappa, w.T, out=kept[:, rows])

            self._source.chunks(fill)
            self._drift = _log_drift(market, self.grid.times())
            self._steps = kept
        return self._steps

    def step(self, k, paths: slice, out: np.ndarray, log=False) -> np.ndarray:
        """Step ``k`` of the density on ``paths``, a slice of its paths, or its log.

        One float per path, or path-major for a slice ``k`` of steps.  A
        bundle's zeta is a view of :attr:`steps` and its log is written into
        ``out``; a stream's log zeta is rebuilt into ``out``, and its zeta by
        ``exp`` in place.  Callers on threads read :attr:`steps` first.
        """
        kept = self.steps
        if self._rows is not None:
            return np.log(kept[k, paths].T, out=out) if log else kept[k, paths].T
        lo, hi, n = paths.start, paths.stop, kept.shape[1]
        cut = min(max(lo, n), hi)  # the first mirror in paths, or their end
        drift = self._drift[k]
        np.subtract(drift, kept[k, lo:cut].T, out=out[: cut - lo])
        np.add(drift, kept[k, max(lo, n) - n : max(hi, n) - n].T, out=out[cut - lo :])
        return out if log else np.exp(out, out=out)

    def terms(self, params: ModelParams, anchors, in_block=None):
        """(kept, xs) of :func:`_anchor_pass` here, its one caller; the eta = 0
        pass's X, which no pension or alpha moves, is kept per set for every pricer."""
        key = params.market, params.mortality, tuple((t[0], len(t)) for t in anchors)
        if params.habit.eta == 0.0 and key in self._xs:
            return self._xs[key]
        terms = _anchor_pass(params, self, anchors, in_block)
        if params.habit.eta == 0.0:
            self._xs[key] = terms
        return terms


def _euler_costs(params, alpha, density, anchors, states, delta, dtype=np.float32):
    """Per-path cost and delta (None without ``delta``) of every state, one sweep.

    ``states`` are (anchor index, y, h), as :func:`_euler_stream` takes
    them but in any order; the rows come back in the order given.  The
    sweep steps in ``dtype`` and sums each block of steps into float64.  A
    quiet float32 sweep with a cost or delta not finite (a deep path past
    float32's range), or a row with s > 0 on a term zeta_k dt below its
    normal range, is run again in float64.
    """
    density.steps  # kept once, before the chunks read it
    order = sorted(range(len(states)), key=lambda r: -anchors[states[r][0]].shape[0])
    rows = [states[r] for r in order]
    sums, lows = np.empty((2 if delta else 1, len(rows), density.shape[0])), [np.inf]

    def sweep(blocks):
        # the paths of the blocks, summed into contiguous rows of their own, as
        # a float32 partial added into a strided float64 view is much slower
        cols = slice(blocks[0].start, blocks[-1].stop)
        total = np.zeros(sums.shape[:2] + (cols.stop - cols.start,))
        for _ in _euler_stream(
            params, alpha, density, cols, anchors, rows, dtype, total, lows
        ):
            pass
        sums[..., cols] = total

    single = dtype == np.float32
    with np.errstate(all="ignore" if single else None):  # threads copy it
        if len(rows) > 1:
            _in_threads(density.shape[0], sweep)
        else:
            # one state's step is a numpy call over one row of paths, too
            # short to pay for handing the interpreter lock between threads
            sweep([slice(0, density.shape[0])])
    low = min(lows) < math.log(np.finfo(np.float32).tiny)
    if single and (low or not np.isfinite(sums).all()):
        return _euler_costs(params, alpha, density, anchors, states, delta, np.float64)
    sums = sums[:, np.argsort(order)]
    return sums[0], sums[1] if delta else None


def _pair_average(x: np.ndarray, antithetic: bool) -> np.ndarray:
    """One sample per antithetic pair along the last axis, when mirrored."""
    if not antithetic:
        return x
    half = x.shape[-1] // 2
    return 0.5 * (x[..., :half] + x[..., half:])


class _CostFunctional:
    """Expected cost of the remaining greedy stream, per path, at many states.

    The one pricer of the remaining cost: the budget is its value at
    (t = 0, zeta = 1, H0), and the nested wealth and the pathwise theta
    its values at later states, all read through :meth:`price`.
    ``density`` is a :class:`_Density`, which decides how its paths are
    read and gives their step and pairing.  ``anchors`` are absolute time
    vectors on that step, tails of the longest, each reading the density's
    last columns restarted at 1, and a state is (anchor index, y, h).
    At pension 0 the closed form prices through the Bernoulli kernel in
    z = y * h; with a pension the Euler branch sweeps the density step-major,
    steps the floored rule in ``dtype`` and prices the excess over the pension.

    The closed form's first :meth:`price` runs :func:`_anchor_pass` and
    keeps the terms that need no kernel: the eta = 0 sums, or the kernel
    moments at a whole gamma - 1 (:func:`_moment_order`), from which every
    alpha and state prices in O(paths).  On the power form (any other
    gamma) the pass runs at every call and prices each block in place.
    Every row is computed on its own, so neither the block size nor the
    thread count changes a result; the other anchors change it by rounding.
    """

    def __init__(self, params, anchors, density: _Density, dtype=np.float32):
        _require_stable_step(params, density.grid.dt)
        _require_two_samples("n_paths", density.shape[0], density.antithetic)
        self.params = params
        self._anchors = anchors
        self._euler = params.pension != 0.0
        self._dtype = dtype
        # X, and the kernel moments M_0 and M_1 where the pass keeps them
        moments = not self._euler and params.habit.eta != 0.0
        k = 3 if moments and _moment_order(params.market.gamma) else 1
        self._means = [_anchor_terms(params, t)[-1][:k] for t in anchors]
        self._kept = self._xs = None
        self._density = density

    @property
    def mean_x(self) -> float:
        """E[X] of the first anchor, known before any path is priced."""
        return float(self._means[0][0])

    def price(self, alpha: float, states, delta: bool = False):
        """One (cost, delta, x, mean_x) per state (anchor index, y, h), in order.

        The remaining cost in wealth units from density level y and habit
        h, y * d(cost)/dy with ``delta`` (else None), and the controls of
        the state's anchor, shape (k, paths), with their exact means
        (:func:`_anchor_terms`): X, from the closed form's pass or kept by
        the density, and at pension 0 with eta > 0 and a moment order the
        kept moments M_0 and M_1 as well.  Per path or per antithetic pair.
        Neither the other states of an anchor nor ``delta`` change a result.
        """
        density = self._density
        if self._euler:
            cost, tangent = _euler_costs(
                self.params, alpha, density, self._anchors, states, delta, self._dtype
            )
            frozen = replace(self.params, habit=HabitParams(0.0))
            self._xs = density.terms(frozen, self._anchors)[1][:, None]
        else:
            cost, tangent = self._closed_form(alpha, states)
        x = _pair_average(self._xs, density.antithetic)
        cost = _pair_average(cost, density.antithetic)
        if delta:
            tangent = _pair_average(tangent, density.antithetic)
        return [
            (cost[r], tangent[r] if delta else None, x[j], self._means[j])
            for r, (j, _, _) in enumerate(states)
        ]

    def _closed_form(self, alpha, states):
        """Per-path cost and delta of every state, shape (2, states, paths)."""
        p = self.params
        out = np.empty((2, len(states), self._density.shape[0]))

        def fill(rows, j, kernel, wz, work, scale=1.0):
            for r, (at, y, h) in enumerate(states):
                if at == j:
                    priced = _price_rows(p, alpha, y, h, kernel, wz, work, scale)
                    out[:, r, rows] = priced

        if self._kept is None:
            # the first call, or any on the power form, whose blocks price
            # their anchor's states while the kernel is in cache
            self._kept, xs = self._density.terms(p, self._anchors, fill)
            self._xs = xs[:, None]  # the controls, shape (anchors, k, paths)
            if len(self._means[0]) > 1:
                moments = self._kept[..., :2].transpose(0, 2, 1)
                self._xs = np.concatenate((self._xs, moments), axis=1)
        if self._kept is not None:
            for j, terms in enumerate(self._kept):
                fill(slice(None), j, None, terms, None)
        return out


def solve_paths(
    alpha: float, params: ModelParams, paths: PathBundle
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal consumption and habit along every path of a bundle.

    At pension 0 the habit is :func:`habit.habit_closed_form` and the
    consumption :func:`consumption_no_pension` on it; with a pension,
    explicit Euler steps of the habit ODE under the floored rule in float64,
    so the consumption is at least the pension exactly.

    Returns
    -------
    (consumption, habit) : ndarray pairs, shape (n_paths, n_times)
    """
    _require_positive("alpha", alpha)
    p, zeta, times, dt = params, paths.zeta, paths.grid.times(), paths.grid.dt
    if p.pension == 0.0:
        h = habit_closed_form(p.habit, p.market, p.mortality, alpha, times, zeta)
        return consumption_no_pension(h, zeta, times, alpha, p.market, p.mortality), h
    _require_stable_step(p, dt)
    n = zeta.shape[0]
    consumption, habit = np.empty((times.shape[0], n)), np.empty((times.shape[0], n))
    for k, c, h in _euler_stream(
        p, alpha, _Density(paths), slice(0, n), [times], [(0, 1.0, p.habit.initial)],
        np.float64,
    ):
        consumption[k], habit[k] = c[0], h[0]
    return consumption.T, habit.T


def budget_value(
    alpha: float, params: ModelParams, paths: PathBundle
) -> BudgetEstimate:
    """Expected density-weighted cost of the funded consumption stream.

    E[ integral zeta_t * (C_t - pension)_+ dt ] by trapezoid rule over
    the bundle grid, estimated across paths by regression on controls of
    exact mean on the grid (:meth:`_CostFunctional.price`).  The returned
    standard error accounts for antithetic pairing when the bundle uses it.
    """
    _require_positive("alpha", alpha)
    cost = _CostFunctional(params, [paths.grid.times()], _Density(paths))
    [(samples, _, *control)] = cost.price(alpha, [(0, 1.0, params.habit.initial)])
    return _estimate_from_samples(samples, *control)


def calibrate_alpha(
    params: ModelParams,
    config: CalibrationConfig = CalibrationConfig(),
    paths: Optional[PathBundle] = None,
    _density: Optional[_Density] = None,
) -> GreedySolution:
    """Solve budget(alpha) = v by safeguarded Newton steps on a common path bundle.

    All evaluations reuse one bundle (common random numbers), so the
    plain sample mean P of the budget is strictly decreasing in alpha and
    the search is deterministic given the seed.  B is the budget of
    :func:`budget_value`, a function of alpha and the bundle.  From the
    eta = 0 solution, exact on the grid, it steps
    log alpha += log(v / B) / (D / P), where D = alpha dP/dalpha is the
    mean pathwise delta of the pricing sweep (the rule sees alpha and y
    only through alpha * y).  A step that leaves the bracket of evaluated
    iterates, or a delta that is not negative and finite, is replaced by
    the bracket's geometric midpoint; the widened ``config.bracket``
    bounds a side not yet found.  Iterates whose P fail to decrease raise
    :class:`BudgetMonotonicityError`, except equal finite P whose deltas
    predict a change below float resolution.  With a pension and a
    ``tolerance`` below 1e-6 every sweep steps in float64, finer than the
    pricer's float32 sweep resolves the budget.

    Without ``paths`` the calibration density is ``config._density``, the
    streams of ``generate_paths`` at the config's seed.  The solution holds
    scalars only; :func:`solve_paths` at its alpha on that density, or on
    ``paths``, gives the consumption and habit arrays.

    Parameters
    ----------
    paths : PathBundle, optional
        Reuse an existing bundle of at least two independent samples
        instead of generating one; its grid, size and antithetic pairing
        then take precedence over ``config``, which sets only the search.
    _density : optional
        Without ``paths``, ``config._density``, shared by the caller's legs
        and, like a bundle, priced on its own grid, size and pairing.

    Raises
    ------
    CalibrationError
        If a budget is NaN, the widened bracket does not straddle v, an
        iterate repeats, or ``max_iterations`` budget evaluations do not
        reach tolerance.
    """
    v, h0, g = params.v, params.habit.initial, params.market.gamma
    if paths is None:
        density = _density or config._density(params.market)
        # the power form reads the density at every call: a stream keeps it
        if params.habit.eta != 0.0 and _moment_order(g) is None:
            density.steps
    else:
        density = _Density(paths)
    dtype = np.float64 if config.tolerance < 1e-6 else np.float32
    cost = _CostFunctional(params, [density.grid.times()], density, dtype)
    lo, hi = limits = (config.bracket[0] / 1e6, config.bracket[1] * 1e6)
    history = {}
    # the eta = 0, pension-0 budget is alpha^(-1/g) h0^(1 - 1/g) E[X]
    try:
        alpha = min(max((h0 ** (1.0 - 1.0 / g) * cost.mean_x / v) ** g, lo), hi)
    except OverflowError:  # a start beyond float range is above the bracket
        alpha = hi
    while True:
        if len(history) >= config.max_iterations:
            raise CalibrationError(
                f"no convergence within {config.max_iterations} budget "
                f"evaluations (last bracket [{lo:.6g}, {hi:.6g}])"
            )
        [(samples, deltas, *control)] = cost.price(alpha, [(0, 1.0, h0)], True)
        estimate = _estimate_from_samples(samples, *control)
        plain = _estimate_from_samples(samples)
        b, p, d = estimate.value, plain.value, float(deltas.mean())
        if math.isnan(b):  # an infinite budget at a tiny alpha is bisected
            raise CalibrationError(f"budget at alpha={alpha!r} is {b}, not a number")
        history[alpha] = p, d
        del samples, deltas  # freed before the next sweep allocates its own
        if abs(b - v) / v <= config.tolerance:
            break
        if b > v:
            lo = alpha
        else:
            hi = alpha
        if lo == limits[1] or hi == limits[0]:
            raise CalibrationError(
                f"could not bracket v={v}: budget({alpha:.6g})={b:.6g} "
                f"at the search limits [{limits[0]:.6g}, {limits[1]:.6g}]"
            )
        step = math.nan
        if 0.0 < b < math.inf and -math.inf < d < 0.0:
            # log(v / B) / (D / P), capped so that exp cannot overflow
            step = min((math.log(v) - math.log(b)) * (p / d), 700.0)
        proposal = min(max(alpha * math.exp(step), limits[0]), limits[1])
        if not lo <= proposal <= hi or proposal in history:
            proposal = math.sqrt(lo) * math.sqrt(hi)
        if proposal in history:
            raise CalibrationError(
                f"iterate alpha={proposal!r} repeats before the budget reached "
                f"tolerance {config.tolerance:g} (bracket [{lo!r}, {hi!r}])"
            )
        alpha = proposal

    # Equal finite means are float resolution, not corruption, when the
    # two deltas predict a relative change |D/P| log(a1/a0) below 4 eps:
    # two floats' relative spacing is at most eps, and the rounding of
    # each mean's sum and of the prediction adds about as much again, so a
    # smaller change need not show; any gap the budget resolves predicts
    # far more.  A non-finite delta predicts nothing and forgives nothing.
    ordered = sorted(history.items())
    for (a0, (p0, d0)), (a1, (p1, d1)) in zip(ordered[:-1], ordered[1:]):
        change = 0.5 * (abs(d0) + abs(d1)) * math.log(a1 / a0)
        resolution = 4.0 * sys.float_info.epsilon * p0
        tie = p0 == p1 and math.isfinite(p0) and change <= resolution
        if not (p0 > p1 or tie):
            raise BudgetMonotonicityError(
                "budget iterates are not strictly decreasing in alpha; "
                "the Monte Carlo budget is numerically corrupt on this grid"
            )

    return GreedySolution(
        alpha=alpha,
        budget_residual=abs(estimate.value - v) / v,
        budget_se=estimate.std_error,
        plain=plain,
        pension=params.pension,
        v=v,
        iterations=len(history),
    )
