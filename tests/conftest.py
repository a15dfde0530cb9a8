"""Shared fixtures: default parameter sets and a session-wide calibration cache.

Calibrating the budget multiplier is the slow step of the pipeline (a
search whose every iterate is a Monte Carlo budget evaluation), and
several test modules want the same calibrated configurations.  The
``calibrated`` fixture memoizes solutions per parameter key so the full
suite pays for each configuration exactly once.
"""

import dataclasses
import math

import numpy as np
import pytest

from greedyhabit import (
    CalibrationConfig,
    GompertzParams,
    HabitParams,
    MarketParams,
    ModelParams,
    PathBundle,
    TimeGrid,
    calibrate_alpha,
    generate_paths,
)
from greedyhabit.allocation import _ratio_theta
from greedyhabit.market import _density_paths, _fill_normals, log_survival_probability
from greedyhabit.solver import _anchor_pass, _CostFunctional, _Density

CAL_GRID = TimeGrid(60.0, 0.05)
CAL_SEED = 23


def make_params(eta=0.1, pension=0.0, v=10.0, c_bar=1.0):
    """Model parameters at the defaults, with the knobs tests sweep."""
    return ModelParams(
        market=MarketParams(),
        mortality=GompertzParams(),
        habit=HabitParams(eta=eta, initial=c_bar),
        pension=pension,
        v=v,
    )


def euler_at_zero(params):
    """``params`` at the least positive pension, which the Euler branch prices.

    Every consumption c >= 2^-1020 has max(c, pi) = c, c > pi and
    c - pi == c at this pension, so the sweep prices pi = 0 bit for bit.
    """
    return dataclasses.replace(params, pension=math.ulp(0.0))


def reference_euler(alpha, params, times, zeta, dt, y=1.0, h=None):
    """Oracle for the Euler branch: the floored rule stepped path-major.

    Reads column k of the (n_paths, n_times) density at step k, with the
    solver's arithmetic in the solver's order, so the solver's
    step-major sweep must match it exactly.  Returns the per-path cost
    of the excess over the pension in wealth units from density level
    ``y`` and habit ``h`` (default the initial habit), the consumption
    and habit arrays, and the per-path pathwise delta y * d(cost)/dy,
    carried through the habit step as the tangent y * dH/dy.
    """
    g, eta, pi = params.market.gamma, params.habit.eta, params.pension
    wgt = np.empty_like(times)
    wgt[1:-1] = 0.5 * (times[2:] - times[:-2])
    wgt[0] = 0.5 * (times[1] - times[0])
    wgt[-1] = 0.5 * (times[-1] - times[-2])
    log_p = log_survival_probability(params.mortality, times)
    shadow = np.exp((-params.market.rho * times + log_p) / g)
    fac = (alpha ** (-1.0 / g) * y ** (-1.0 / g)) * shadow
    zpow = zeta ** (-1.0 / g)
    h = np.full(zeta.shape[0], params.habit.initial if h is None else h)
    dh = np.zeros(zeta.shape[0])
    cost, delta = np.zeros(zeta.shape[0]), np.zeros(zeta.shape[0])
    consumption, habit = np.empty_like(zeta), np.empty_like(zeta)
    for k in range(times.shape[0]):
        free = h ** (1.0 - 1.0 / g) * (fac[k] * zpow[:, k])
        c = np.maximum(free, pi)
        dc = ((dh / h) * (1.0 - 1.0 / g) - 1.0 / g) * free * (c > pi)
        cost += (wgt[k] * (c - pi)) * zeta[:, k]
        delta += (wgt[k] * dc) * zeta[:, k]
        consumption[:, k], habit[:, k] = c, h
        h = h + eta * (c - h) * dt
        dh = dh + (eta * dt) * (dc - dh)
    return cost, consumption, habit, delta


def inner_density(market, config):
    """The density of a ``NestedConfig``'s inner paths, path-major.

    The nested pass never stores it: it reads the streams of spawn key
    (1,) a row block at a time.  Here they are drawn in one block and
    built by ``_density_paths`` in one call, so the rows are the same
    whatever blocks and chunks the pass reads them in.
    """
    n_streams = config.n_inner // 2 if config.antithetic else config.n_inner
    dw = np.empty((n_streams, config.grid.n_steps))
    _fill_normals(dw, config.seed, (1,), range(n_streams))
    return _density_paths(market, dw, config.grid.dt, config.antithetic)[1]


def stored_density(zeta, dt, antithetic=False):
    """A ``solver._Density`` that stores the path-major rows ``zeta``.

    A density is made from a ``PathBundle``, whose grid and pairing it
    prices on; this bundle holds only ``zeta``, on the grid of steps
    ``dt`` that its columns span.
    """
    grid = TimeGrid((zeta.shape[1] - 1) * dt, dt)
    return _Density(PathBundle(grid, zeta.shape[0], 0, None, zeta, antithetic))


def bundle_cost(params, bundle):
    """The cost functional of a bundle at its one anchor, t = 0."""
    return _CostFunctional(params, [bundle.grid.times()], _Density(bundle))


def per_path(cost, alpha, y, h, delta=False):
    """The samples of ``cost.price`` at (first anchor, y, h): the cost,
    or with ``delta`` the pair (cost, delta)."""
    [(samples, deltas, _, _)] = cost.price(alpha, [(0, y, h)], delta)
    return (samples, deltas) if delta else samples


def density_rows(density):
    """Every row of a ``solver._Density``, gathered from its ``chunks``."""
    rows = np.empty(density.shape)

    def gather(blocks):
        for at, zeta in blocks:
            rows[at] = zeta

    density.chunks(gather)
    return rows


def anchor_pass_terms(params, times, zeta):
    """``(kernel, wz, x)`` of the closed form's pass at one anchor, per path.

    On the power form the pass keeps no kernel, so its in-block callback
    copies each block's kernel and wz = zeta^(1 - 1/g) * shadow *
    decay^(g - 1) * wgt into full arrays.  At eta = 0 the kernel is None
    and wz is summed along each path; on kernel moments the kernel is
    None and wz holds the moments, shape (n_paths, n + 1).  ``x`` is the
    control X per path.
    """
    kernel, wz = np.empty_like(zeta), np.empty_like(zeta)

    def store(rows, _, block_kernel, block_wz, _work):
        kernel[rows], wz[rows] = block_kernel, block_wz

    density = stored_density(zeta, times[1] - times[0])
    kept, xs = _anchor_pass(params, density, [times], store)
    if kept is None:
        return kernel, wz, xs[0]
    return None, kept[0], xs[0]


def control_mean(params, times):
    """E[X] of the control X = sum_k wgt_k shadow_k zeta_k^q, q = 1 - 1/g.

    The density restarts at 1 at times[0] and is lognormal on the grid,
    so E[zeta_tau^q] = exp(-q (r + kappa^2/2) tau + q^2 kappa^2 tau / 2).
    """
    m = params.market
    q = 1.0 - 1.0 / m.gamma
    wgt, shadow = _anchor_vectors(params, times)
    tau = times - times[0]
    moment = np.exp(q * (0.5 * q * m.kappa**2 - m.r - 0.5 * m.kappa**2) * tau)
    return float((wgt * shadow * moment).sum())


def moment_means(params, times):
    """E[M_0] and E[M_1] of the kernel moments M_j = sum_k wz_k m_k^j.

    A brute-force double sum over grid pairs l <= i: with the kernel
    integrand A_l zeta_l^(-1/g), A = exp((eta tau - rho t + log p_t) / g),
    and the trapezoid weights c_il of the kernel K_i, E[M_1] = (eta/g)
    sum_i sum_l A_i vec_i c_il A_l E[zeta_i^q zeta_l^(-1/g)], each
    expectation that of a lognormal whose exponent has variance kappa^2
    (q^2 tau_i + tau_l / g^2 - 2 q tau_l / g), as Cov(W_i, W_l) = tau_l.
    """
    m, eta = params.market, params.habit.eta
    g, q, k2 = m.gamma, 1.0 - 1.0 / m.gamma, m.kappa**2
    drift = -(m.r + 0.5 * k2)
    wgt, shadow = _anchor_vectors(params, times)
    tau = times - times[0]
    a = shadow * np.exp(eta * tau / g)
    vec = np.exp(-eta * tau) * wgt
    m0 = (a * vec * np.exp(q * drift * tau + 0.5 * q * q * k2 * tau)).sum()
    dt = np.diff(times)
    c = np.zeros((times.shape[0], times.shape[0]))
    for i in range(1, times.shape[0]):
        c[i, :i] += 0.5 * dt[:i]
        c[i, 1 : i + 1] += 0.5 * dt[:i]
    ti, tl = tau[:, None], tau[None, :]
    var = k2 * (q * q * ti + tl / g**2 - 2.0 * q * tl / g)
    pair = np.exp(q * drift * ti - drift * tl / g + 0.5 * var)
    m1 = (eta / g) * ((a * vec)[:, None] * c * a[None, :] * pair).sum()
    return float(m0), float(m1)


def reference_control(params, times, zeta):
    """Oracle for the Euler sweeps' control: X per path and E[X].

    X is summed path-major in step order, with the solver's arithmetic,
    as (wgt_k shadow_k) * (zeta_k * zeta_k^(-1/g)).
    """
    wgt, shadow = _anchor_vectors(params, times)
    zpow = zeta ** (-1.0 / params.market.gamma)
    x = np.zeros(zeta.shape[0])
    for k in range(times.shape[0]):
        x += (wgt[k] * shadow[k]) * (zeta[:, k] * zpow[:, k])
    return x, control_mean(params, times)


def _anchor_vectors(params, times):
    """Trapezoid weights and exp(-rho t / g) p_t^(1/g) on absolute ``times``."""
    wgt = np.empty_like(times)
    wgt[1:-1] = 0.5 * (times[2:] - times[:-2])
    wgt[0] = 0.5 * (times[1] - times[0])
    wgt[-1] = 0.5 * (times[-1] - times[-2])
    log_p = log_survival_probability(params.mortality, times)
    return wgt, np.exp((-params.market.rho * times + log_p) / params.market.gamma)


def central_theta(price, y, bump, kappa_sig, *control):
    """Central-difference theta on common random numbers.

    ``price(level)`` returns the per-sample costs at density level
    ``level``; relative bumps make y * d/dy = difference / (2 * bump).
    The pathwise estimate is its limit as the bump goes to 0.  The
    wealth is the regression estimate on ``control`` (X, E[X]) if given.
    """
    u = (price(y * (1.0 + bump)) - price(y * (1.0 - bump))) / (2.0 * bump)
    return _ratio_theta(price(y), u, kappa_sig, *control)


@pytest.fixture(scope="session")
def market():
    return MarketParams()


@pytest.fixture(scope="session")
def mortality():
    return GompertzParams()


@pytest.fixture(scope="session")
def calibrated():
    """Memoized calibration: get(eta, pension, ...) -> (params, config, solution)."""
    cache = {}

    def get(eta, pension=0.0, v=10.0, c_bar=1.0, n_paths=20000, tolerance=5e-3):
        key = (eta, pension, v, c_bar, n_paths, tolerance)
        if key not in cache:
            params = make_params(eta, pension, v, c_bar)
            config = CalibrationConfig(
                grid=CAL_GRID,
                n_paths=n_paths,
                seed=CAL_SEED,
                tolerance=tolerance,
                antithetic=True,
            )
            cache[key] = (params, config, calibrate_alpha(params, config))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def small_bundle(market):
    """4000 antithetic paths on the calibration grid, for cheap MC checks."""
    return generate_paths(market, CAL_GRID, 4000, seed=7, antithetic=True)
