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
from dataclasses import dataclass
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


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.empty_like(times)
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    return w


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
    wgt = _trapezoid_weights(times)
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


def _kernel_moments(m, wz, n):
    """M_j = sum_k wz_k m_k^j per row, j = 0..n, shape (rows, n + 1).

    ``m`` and ``wz`` are one block's rows; ``wz`` is overwritten.  Each
    row's moments come from that row alone.
    """
    out = np.empty((m.shape[0], n + 1))
    out[:, 0] = wz.sum(axis=-1)
    for j in range(1, n + 1):
        wz *= m
        out[:, j] = wz.sum(axis=-1)
    return out


def _moment_sum(moments, n, u0, beta):
    """sum_k wz_k (u0 + beta m_k)^n per row from the moments M_j, j <= n."""
    total = moments[:, n] * beta**n
    for j in range(n - 1, -1, -1):
        total += moments[:, j] * (math.comb(n, j) * u0 ** (n - j) * beta**j)
    return total


def _price_rows(params, alpha, y, h, kernel, wz, work):
    """Closed-form cost and y * d(cost)/dy of rows of paths.

    ``kernel`` and ``wz`` are the rows' terms from :func:`_anchor_pass`:
    without a kernel, wz summed along each row at eta = 0, or the rows'
    kernel moments.  Each row is priced on its own, so a result never
    depends on how rows are split into blocks.  Returns (cost, delta) in
    wealth units per path; the delta costs a few operations per path, or
    one division per element on the power form, in views of ``work``.
    """
    g = params.market.gamma
    beta = alpha ** (-1.0 / g)
    # zeta C = beta * wz * (z^(1/g) + (eta/g) beta K)^(g-1) with
    # z = y * h; dividing by y turns F(t, z) into wealth units
    u0 = (y * h) ** (1.0 / g)
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
        block += u0
        power = np.power(block, g - 1.0, out=work.take("power", kernel.shape))
        power *= wz
        cost = beta * power.sum(axis=-1) / y
        # the delta's B^(g-2) is B^(g-1) / B
        dsums = np.divide(power, block, out=block).sum(axis=-1)
    # y du0/dy = u0 / g, and d(1/y) gives -cost
    return cost, -cost + (beta / y) * ((g - 1.0) / g) * u0 * dsums


def _anchor_pass(params, density, anchors, in_block):
    """Every anchor's closed-form terms and control X, over row blocks.

    ``anchors`` are absolute time vectors reading the leading columns of
    the path-major rows that :meth:`_Density.chunks` hands out.  Each
    block builds every anchor's kernel and ``wz`` once, from one
    log(zeta) / gamma, so no full-size array is made; each row's terms
    come from that row alone, written into its chunk's :class:`_Workspace`.
    Returns ``(kept, xs)``:
    ``xs[j]`` is anchor j's X per path (:func:`_anchor_terms`), and
    ``kept[j]`` its terms per path when they need no kernel: wz summed
    along the path at eta = 0 (``xs`` itself), or with a moment order n
    (:func:`_moment_order`) the moments of m = (eta/g) K, shape
    (n_paths, n + 1).  On the power form ``kept`` is None, and
    ``in_block(rows, j, kernel, wz, work)`` takes each block's terms while
    they are in cache, with the chunk's workspace; they are valid until it
    returns.
    """
    frozen = params.habit.eta == 0.0
    order = None if frozen else _moment_order(params.market.gamma)
    n_paths = density.shape[0]
    terms = [_anchor_terms(params, times)[2:4] for times in anchors]  # vec, lift
    xs = np.empty((len(anchors), n_paths))
    kept = None
    if frozen:
        kept = xs  # X is the eta = 0 sum itself
    elif order is not None:
        kept = np.empty((len(anchors), n_paths, order + 1))

    def fill(blocks):
        work = _Workspace()
        for rows, z, j, k in _integrand_blocks(
            params.habit, params.market, params.mortality, anchors, blocks, work
        ):
            times, (vec, lift) = anchors[j], terms[j]
            if not frozen:  # the kernel, before k turns into wz
                kernel = _trapezoid_kernel(k, times, work.take("kernel", k.shape), work)
            # wz = zeta * k * vec = zeta^(1 - 1/g) * shadow * decay^(g - 1) * wgt
            # in place of k, as exp(drift - eta tau) = shadow * decay^(g - 1)
            wz = np.multiply(k, z[:, : times.shape[0]], out=k)
            wz *= vec
            if frozen:  # the kernel drops out of the cost, and X is its sum
                xs[j, rows] = wz.sum(axis=-1)
                continue
            xs[j, rows] = np.multiply(wz, lift, out=work.take("temp", k.shape)).sum(-1)
            if order is not None:
                kernel *= params.habit.eta / params.market.gamma
                kept[j, rows] = _kernel_moments(kernel, wz, order)
            else:
                in_block(rows, j, kernel, wz, work)

    density.chunks(fill)
    return kept, xs


def _euler_stream(params, alpha, density, paths, anchors, states, tangent=False):
    """Yield (k, zeta_k, consumption, habit, tangent) of the floored rule, step by step.

    One row per state (anchor index, y, h) on ``paths``, a slice of the
    paths of ``density``, whose leading steps the anchor's absolute times
    ``anchors[j]`` read.  The states must come in order of decreasing
    horizon, so the rows still stepping at step k are a prefix and each
    array yielded holds those rows only; each step reads zeta_k and takes
    zeta_k^(-1/g) once for all of them, on one contiguous row, so its bits
    are those of the power taken on any block of the same paths.
    The habit is updated in place after the consumer has read it.  Each
    step writes its arrays into the leading rows of arrays made once per
    sweep, so a yielded step is valid until the next one is asked for.

    With ``tangent`` the last item is y * dC/dy along the paths, carried
    forward through the habit's own Euler step as y * dH/dy (zero at
    the start); it is zero where the floor binds.  Otherwise it is None.
    """
    g, dt = params.market.gamma, density.grid.dt
    eta = params.habit.eta
    pi = params.pension
    e = 1.0 - 1.0 / g
    steps = [anchors[j].shape[0] for j, _, _ in states]
    fac = np.zeros((len(states), steps[0]))
    h = np.empty((len(states), paths.stop - paths.start))
    for r, (j, y, h0) in enumerate(states):
        shadow = _anchor_terms(params, anchors[j])[0]
        fac[r, : steps[r]] = (alpha ** (-1.0 / g) * y ** (-1.0 / g)) * shadow
        h[r] = h0
    dh = np.zeros_like(h) if tangent else None
    dc = None
    # counts[k]: the rows that take step k, a prefix as horizons decrease
    counts = (np.asarray(steps)[:, None] > np.arange(steps[0] + 1)).sum(axis=0)
    # a prefix of rows is contiguous, so each step's temporaries are the
    # leading rows of these; zeta holds zeta_k, and zpow zeta_k^(-1/g)
    cs, scratch = np.empty_like(h), np.empty_like(h)
    zeta, zpow = np.empty(h.shape[1]), np.empty(h.shape[1])
    dcs = np.empty_like(h) if tangent else None
    floor = np.empty(h.shape, bool) if tangent else None
    for k in range(steps[0]):
        n = counts[k]
        hk = h[:n]
        c = np.power(hk, e, out=cs[:n])
        z = density.step(k, paths, zeta)
        np.power(z, -1.0 / g, out=zpow)
        c *= np.multiply(fac[:n, k, None], zpow, out=scratch[:n])
        if tangent:
            # C = h^e y^(-1/g) (...) off the floor, so y dC/dy = C (e dh/h - 1/g)
            dc = np.divide(dh[:n], hk, out=dcs[:n])
            dc *= e
            dc -= 1.0 / g
            dc *= c
        np.maximum(c, pi, out=c)
        if tangent:
            dc *= np.greater(c, pi, out=floor[:n])
        yield k, z, c, hk, dc
        # habit_euler_step on the rows with a step left, whose eta * dt
        # check ran in _require_stable_step
        nxt = counts[k + 1]
        step = np.subtract(c[:nxt], hk[:nxt], out=scratch[:nxt])
        step *= eta
        step *= dt
        hk[:nxt] += step
        if tangent:
            # the tangent of the same linear step
            np.subtract(dc[:nxt], dh[:nxt], out=step)
            step *= eta * dt
            dh[:nxt] += step


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

    def step(self, k, paths: slice, out: np.ndarray) -> np.ndarray:
        """Step ``k`` of the density on ``paths``, a slice of its paths.

        A bundle's row is a view of :attr:`steps`; a stream's is rebuilt into
        ``out``, one float per path, or path-major at every step with ``k``
        slice(None).  Callers on threads read :attr:`steps` first.
        """
        kept = self.steps
        if self._rows is not None:
            return kept[k, paths]
        lo, hi, n = paths.start, paths.stop, kept.shape[1]
        cut = min(max(lo, n), hi)  # the first mirror in paths, or their end
        drift = self._drift[k]
        np.subtract(drift, kept[k, lo:cut].T, out=out[: cut - lo])
        np.add(drift, kept[k, max(lo, n) - n : max(hi, n) - n].T, out=out[cut - lo :])
        return np.exp(out, out=out)

    def controls(self, params: ModelParams, anchors) -> np.ndarray:
        """X per path of every anchor, one :func:`_euler_controls` per set.

        X does not depend on the pension, eta or alpha; anchors step the
        density's grid, so their first time and length fix them.  Every
        pricer on the density reads the same X.
        """
        key = (
            params.market,
            params.mortality,
            tuple((float(times[0]), times.shape[0]) for times in anchors),
        )
        if key not in self._xs:
            self._xs[key] = _euler_controls(params, self, anchors)
        return self._xs[key]


def _euler_costs(params, alpha, density, anchors, states, delta):
    """Per-path cost and delta (None without ``delta``) of every state, one sweep.

    ``states`` are (anchor index, y, h), as :func:`_euler_stream` takes
    them but in any order; the rows come back in the order given.
    """
    density.steps  # kept once, before the chunks read it
    pi = params.pension
    order = sorted(range(len(states)), key=lambda r: -anchors[states[r][0]].shape[0])
    rows = [states[r] for r in order]
    wgt = np.zeros((len(rows), anchors[rows[0][0]].shape[0]))
    for r, (j, _, _) in enumerate(rows):
        w = _anchor_terms(params, anchors[j])[1]
        wgt[r, : w.shape[0]] = w
    cost = np.zeros((len(rows), density.shape[0]))
    tangent = np.zeros_like(cost) if delta else None

    def sweep(blocks):
        # the paths of the blocks, a run of columns read as one row per step
        cols = slice(blocks[0].start, blocks[-1].stop)
        terms = np.empty((len(rows), cols.stop - cols.start))
        for k, z, c, _, dc in _euler_stream(
            params, alpha, density, cols, anchors, rows, delta
        ):
            live = c.shape[0]
            # (wgt_k (c - pi)) zeta_k in this order, in the leading rows of
            # terms; dc is read again by the stream, so it is not scaled in place
            term = np.subtract(c, pi, out=terms[:live])
            term *= wgt[:live, k, None]
            term *= z
            cost[:live, cols] += term
            if delta:
                np.multiply(dc, wgt[:live, k, None], out=term)
                term *= z
                tangent[:live, cols] += term

    if len(rows) > 1:
        _in_threads(density.shape[0], sweep)
    else:
        # one state's step is a numpy call over one row of paths, too
        # short to pay for handing the interpreter lock between threads
        sweep([slice(0, density.shape[0])])
    given = np.argsort(order)
    return cost[given], None if tangent is None else tangent[given]


def _euler_controls(params, density, anchors):
    """X per path of every anchor (:func:`_anchor_terms`), one step-major pass.

    X sums (wgt_k shadow_k) * (zeta_k * zeta_k^(-1/g)) in step order, the
    step and its power taken once for every anchor.  Anchors go longest
    first, so those still summing at step k are a prefix.
    """
    order = sorted(range(len(anchors)), key=lambda j: -anchors[j].shape[0])
    steps = np.array([anchors[j].shape[0] for j in order])
    scale = np.zeros((len(order), steps[0]))
    for r, j in enumerate(order):
        shadow, wgt, *_ = _anchor_terms(params, anchors[j])
        scale[r, : steps[r]] = wgt * shadow
    counts = (steps[:, None] > np.arange(steps[0])).sum(axis=0)
    xs = np.zeros((len(order), density.shape[0]))
    zeta, term, scaled = np.empty(xs.shape[1]), np.empty(xs.shape[1]), np.empty_like(xs)
    # serial over all paths: each step is a few short numpy calls, and
    # handing the interpreter lock between threads cost more than it saved
    # (2 threads were faster only at one anchor on 20000 paths, by 20 ms)
    for k, live in enumerate(counts):
        z = density.step(k, slice(0, xs.shape[1]), zeta)
        np.power(z, -1.0 / params.market.gamma, out=term)
        np.multiply(z, term, out=term)
        np.multiply(scale[:live, k, None], term, out=scaled[:live])
        xs[:live] += scaled[:live]
    return xs[np.argsort(order)]


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
    vectors on that step, each reading the leading columns of the density
    restarted at 1 at its first time, and a state is (anchor index, y, h).
    At pension 0 the closed form prices through the Bernoulli kernel in
    z = y * h; with a pension the Euler branch sweeps the density step-major,
    steps the floored rule and prices the excess over the pension.

    The closed form's first :meth:`price` runs :func:`_anchor_pass` and
    keeps the terms that need no kernel: the eta = 0 sums, or the kernel
    moments at a whole gamma - 1 (:func:`_moment_order`), from which every
    alpha and state prices in O(paths).  On the power form (any other
    gamma) the pass runs at every call and prices each block in place, so
    no full-size kernel is kept.  Every row is computed on its own, so
    neither the block size nor the thread count changes a result.
    """

    def __init__(self, params: ModelParams, anchors, density: _Density):
        _require_stable_step(params, density.grid.dt)
        _require_two_samples("n_paths", density.shape[0], density.antithetic)
        self.params = params
        self._anchors = anchors
        self._euler = params.pension != 0.0
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
        A state's result depends on neither the others nor ``delta``.
        """
        density = self._density
        if self._euler:
            cost, tangent = _euler_costs(
                self.params, alpha, density, self._anchors, states, delta
            )
            self._xs = density.controls(self.params, self._anchors)[:, None]
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

        def fill(rows, j, kernel, terms, work):
            for r, (at, y, h) in enumerate(states):
                if at == j:
                    out[:, r, rows] = _price_rows(p, alpha, y, h, kernel, terms, work)

        if self._kept is None:
            # the first call, or any on the power form, whose blocks price
            # their anchor's states while the kernel is in cache
            self._kept, xs = _anchor_pass(p, self._density, self._anchors, fill)
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
    explicit Euler steps of the habit ODE under the floored rule.

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
    for k, _, c, h, _ in _euler_stream(
        p, alpha, _Density(paths), slice(0, n), [times], [(0, 1.0, p.habit.initial)]
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
    predict a change below float resolution.

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
    cost = _CostFunctional(params, [density.grid.times()], density)
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
