"""Nested-simulation wealth and allocation estimators.

Wealth is a conditional expectation evaluated by inner simulation from
an outer state; the allocation is its log-density derivative via
common-random-number central differences.  The tests anchor both to the
zero-habit closed form, check the two state representations against
each other, and exercise the estimator's own error reporting (standard
errors, the reliability gate, bump robustness, determinism).
"""

import math

import numpy as np
import pytest

from greedyhabit import (
    GompertzParams,
    HabitParams,
    MarketParams,
    ModelParams,
    NestedConfig,
    TimeGrid,
    allocation_at,
    default_zeta_grid,
    merton_alpha,
    merton_theta,
    policy_curve,
    policy_surface,
    wealth_no_pension,
    wealth_with_pension,
)
from greedyhabit.allocation import _InnerPaths, _fd_theta
from greedyhabit.market import _density_paths, _fill_normals
from conftest import make_params, reference_euler

GRID = TimeGrid(60.0, 0.05)

# calibrated multiplier for eta=0.1, pi=0, v=10 (seed-23 bundle); the
# estimator tests only need a fixed sensible value, not a fresh fit
ALPHA = 2.88377211135682


def config(n_inner=6000, seed=77, bump=1e-3):
    return NestedConfig(
        n_inner=n_inner, bump=bump, seed=seed, grid=GRID, antithetic=True
    )


class TestWealth:
    def test_no_habit_anchor(self):
        # at eta = 0 the time-0 wealth is known in closed form: the
        # exact multiplier for v must reproduce v within Monte Carlo noise
        market, mort = MarketParams(), GompertzParams()
        params = make_params(eta=0.0, v=10.0)
        alpha = merton_alpha(10.0, market, mort)
        est = wealth_no_pension(0.0, 1.0, alpha, params, config(20000, seed=41))
        assert abs(est.value - 10.0) < 3.0 * est.std_error
        assert est.std_error < 0.1

    def test_state_representations_agree(self):
        # the reduced one-dimensional state and the explicit
        # (zeta, habit) state price the same wealth at pi = 0
        params = make_params(eta=0.1)
        cfg = config()
        for t, zeta, h in [(0.0, 1.0, 1.0), (10.0, 0.8, 1.1), (25.0, 1.6, 0.9)]:
            f = wealth_no_pension(t, zeta * h, ALPHA, params, cfg)
            g = wealth_with_pension(t, zeta, h, ALPHA, params, cfg)
            x = f.value / zeta
            pooled = math.hypot(f.std_error / zeta, g.std_error)
            assert abs(g.value - x) < 3.0 * pooled + 2e-3 * x, (
                f"(t={t}, zeta={zeta}): {g.value} vs {x}"
            )

    def test_monotone_in_state(self):
        # the remaining cost grows with the combined state (a higher
        # start habit commits to higher consumption), while wealth at a
        # fixed habit level falls as the density rises
        params = make_params(eta=0.1)
        cfg = config(4000)
        zs = (0.25, 0.5, 1.0, 2.0, 4.0)
        cost = [wealth_no_pension(10.0, z, ALPHA, params, cfg).value for z in zs]
        assert all(a < b for a, b in zip(cost, cost[1:]))
        wealth = [c / z for c, z in zip(cost, zs)]
        assert all(a > b for a, b in zip(wealth, wealth[1:]))

    def test_deterministic(self):
        params = make_params(eta=0.1)
        a = wealth_no_pension(10.0, 1.0, ALPHA, params, config(2000))
        b = wealth_no_pension(10.0, 1.0, ALPHA, params, config(2000))
        assert a.value == b.value
        assert a.std_error == b.std_error


class TestAllocation:
    def test_merton_limit(self):
        # with the habit channel switched (almost) off the estimator
        # must land on the constant closed-form allocation
        market, mort = MarketParams(), GompertzParams()
        params = make_params(eta=1e-6, v=10.0)
        alpha = merton_alpha(10.0, market, mort)
        est = allocation_at(
            10.0, 0.7, 1.0, alpha, params, config(4000, seed=101)
        )
        assert est.reliable
        assert abs(est.value - merton_theta(market)) < 0.01

    def test_scale_invariance_with_common_random_numbers(self):
        # scaling (wealth, start habit) by lam and the multiplier by
        # 1/lam rescales every inner path, so theta is unchanged to
        # rounding and wealth scales exactly
        lam = 3.0
        cfg = config()
        base_params = make_params(eta=0.1, v=10.0, c_bar=1.0)
        scaled_params = make_params(eta=0.1, v=lam * 10.0, c_bar=lam * 1.0)
        base = allocation_at(10.0, 0.9, 1.2, ALPHA, base_params, cfg)
        scaled = allocation_at(
            10.0, 0.9, lam * 1.2, ALPHA / lam, scaled_params, cfg
        )
        assert scaled.value == pytest.approx(base.value, abs=1e-9)
        assert scaled.wealth.value == pytest.approx(
            lam * base.wealth.value, rel=1e-12
        )

    def test_theta_matches_reduced_state_difference(self):
        # without a pension theta = (kappa/sigma) (1 - z F_z / F) in the
        # reduced state z = zeta * H; bumping the density level instead
        # of z changes the central difference only at O(bump^2)
        params = make_params(eta=0.1)
        cfg = config(4000)
        b, ks = cfg.bump, params.market.kappa / params.market.sigma
        for t, zeta, h in [(0.0, 1.0, 1.0), (10.0, 0.5, 1.2), (20.0, 2.0, 0.9)]:
            f0, f_up, f_dn = (
                wealth_no_pension(t, zeta * h * s, ALPHA, params, cfg).value
                for s in (1.0, 1.0 + b, 1.0 - b)
            )
            expected = ks * (1.0 - (f_up - f_dn) / (2.0 * b * f0))
            est = allocation_at(t, zeta, h, ALPHA, params, cfg)
            assert abs(est.value - expected) < 1e-5, (t, zeta, est.value, expected)

    def test_bump_halving_stable(self):
        params = make_params(eta=0.1)
        a = allocation_at(10.0, 1.0, 1.0, ALPHA, params, config(3000))
        b = allocation_at(
            10.0, 1.0, 1.0, ALPHA, params, config(3000, bump=5e-4)
        )
        assert abs(a.value - b.value) < 1e-3

    def test_unreliable_state_returns_nan(self):
        # astronomically expensive consumption: the wealth estimate
        # drowns in its own noise and the gate must say so
        params = make_params(eta=0.1)
        cfg = NestedConfig(
            n_inner=32, bump=1e-3, seed=3, grid=GRID, antithetic=False
        )
        est = allocation_at(10.0, 1e10, 1.0, ALPHA, params, cfg)
        assert not est.reliable
        assert math.isnan(est.value)

    def test_fully_floored_pension_state_is_unreliable(self):
        # when the floor binds on every inner path the funded wealth is
        # exactly zero and no allocation signal exists
        params = make_params(eta=0.1, pension=1.5)
        est = allocation_at(
            10.0, 50.0, 1.0, 2.0, params, config(2000, seed=3)
        )
        assert est.wealth.value < 1e-5
        assert not est.reliable
        assert math.isnan(est.value)

    def test_deterministic(self):
        params = make_params(eta=0.1)
        a = allocation_at(10.0, 1.0, 1.0, ALPHA, params, config(2000))
        b = allocation_at(10.0, 1.0, 1.0, ALPHA, params, config(2000))
        assert a.value == b.value

    def test_config_needs_two_samples(self):
        # one antithetic pair would leave a NaN theta and a zero SE
        with pytest.raises(ValueError, match="n_inner must be >= 4"):
            NestedConfig(n_inner=2, antithetic=True)
        with pytest.raises(ValueError, match="n_inner must be >= 2"):
            NestedConfig(n_inner=1, antithetic=False)
        assert NestedConfig(n_inner=4, antithetic=True).n_inner == 4
        assert NestedConfig(n_inner=2, antithetic=False).n_inner == 2


class TestPolicySurface:
    def test_zeta_grid_centred_on_median(self):
        market = MarketParams()
        grid = default_zeta_grid(10.0, market, n=41)
        assert grid.shape == (41,)
        assert np.all(np.diff(grid) > 0.0)
        median = math.exp(-(market.r + 0.5 * market.kappa**2) * 10.0)
        assert grid[20] == pytest.approx(median, rel=1e-12)

    def test_one_point_grid_is_median(self):
        market = MarketParams()
        for t in (0.0, 10.0):
            median = math.exp(-(market.r + 0.5 * market.kappa**2) * t)
            grid = default_zeta_grid(t, market, n=1)
            assert grid.shape == (1,)
            assert grid[0] == pytest.approx(median, rel=1e-12)

    def test_rows_sorted_and_clipped(self):
        params = make_params(eta=0.1)
        points = policy_surface(
            [0.0, 10.0],
            habit_level=1.0,
            alpha=ALPHA,
            params=params,
            config=config(1500),
            zeta_grid=default_zeta_grid(0.0, params.market, n=9, spread=3.0),
            max_wealth=15.0,
        )
        assert points, "surface came back empty"
        for t in (0.0, 10.0):
            row = [p for p in points if p.t == t]
            wealth = [p.wealth for p in row]
            assert all(a < b for a, b in zip(wealth, wealth[1:]))
            assert all(0.0 < w <= 15.0 for w in wealth)
            assert all(p.consumption > 0.0 for p in row)
            assert all(p.habit == 1.0 for p in row)

    @pytest.mark.parametrize("max_wealth", [0.0, -1.0])
    def test_non_positive_max_wealth_is_rejected(self, max_wealth):
        # every row would be clipped, leaving an empty surface
        with pytest.raises(ValueError, match="max_wealth must be positive"):
            policy_surface(
                [0.0], 1.0, ALPHA, make_params(), config(), max_wealth=max_wealth
            )

    def test_policy_curve_is_single_time_surface(self):
        params = make_params(eta=0.1)
        zg = default_zeta_grid(5.0, params.market, n=7, spread=2.0)
        curve = policy_curve(
            5.0, 1.0, ALPHA, params, config(1500), zeta_grid=zg
        )
        surface = policy_surface(
            [5.0], 1.0, ALPHA, params, config(1500), zeta_grid=zg
        )
        assert [(p.zeta, p.wealth, p.theta) for p in curve] == [
            (p.zeta, p.wealth, p.theta) for p in surface
        ]


def _rows(points):
    return [(p.t, p.zeta, p.wealth, p.wealth_se, p.theta) for p in points]


class TestSharedInnerPaths:
    """One density array per inner set and one cost functional per time.

    The oracle is the construction the sharing replaced: the density
    rebuilt from the leading increments, and fresh inner paths for every
    state.
    """

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_density_is_prefix_of_full_grid(self, antithetic):
        cfg = NestedConfig(
            n_inner=200, seed=13, grid=GRID, antithetic=antithetic
        )
        params = make_params(eta=0.1)
        inner = _InnerPaths(params.market, cfg)
        n_streams = 100 if antithetic else 200
        dw = np.empty((n_streams, GRID.n_steps))
        _fill_normals(dw, cfg.seed, (1,), range(n_streams))
        for t in (0.0, 30.0, GRID.t_max - GRID.dt):
            m = GRID.n_steps - GRID.index_of(t)
            expected = _density_paths(params.market, dw[:, :m], GRID.dt, antithetic)[1]
            used = inner.cost_from(t, params)._zeta
            assert used.shape == expected.shape
            assert np.array_equal(used, expected)

    def test_functional_reused_within_a_time(self):
        params = make_params(eta=0.1)
        inner = _InnerPaths(params.market, config(200))
        cost = inner.cost_from(10.0, params)
        assert inner.cost_from(10.0, params, "closed_form") is cost
        assert inner.cost_from(10.0, params, "euler") is not cost
        assert inner.cost_from(20.0, params) is not cost

    def test_surface_rows_match_fresh_evaluations(self):
        params = make_params(eta=0.1)
        cfg = config(400)
        zg = default_zeta_grid(0.0, params.market, n=5, spread=2.0)
        points = policy_surface(
            [0.0, 10.0], 1.0, ALPHA, params, cfg, zeta_grid=zg
        )
        assert len(points) > 5
        for p in points:
            est = allocation_at(p.t, p.zeta, 1.0, ALPHA, params, cfg)
            assert (p.wealth, p.wealth_se, p.theta) == (
                est.wealth.value,
                est.wealth.std_error,
                est.value,
            )

    def test_pension_switch_invalidates_functional(self):
        cfg = config(400)
        inner = _InnerPaths(MarketParams(), cfg)
        for pension in (0.0, 0.5, 0.0):
            params = make_params(eta=0.1, pension=pension)
            shared = allocation_at(10.0, 0.8, 1.1, ALPHA, params, cfg, _inner=inner)
            fresh = allocation_at(10.0, 0.8, 1.1, ALPHA, params, cfg)
            assert shared == fresh

    @pytest.mark.parametrize("shared", [True, False])
    def test_pension_estimates_match_path_major_loop(self, shared):
        # the Euler functional steps a step-major copy of the density;
        # wealth and theta must equal the path-major loop exactly
        params = make_params(eta=0.1, pension=0.5)
        cfg = config(400)
        zeta = _InnerPaths(params.market, cfg)._zeta
        inner = _InnerPaths(params.market, cfg) if shared else None
        state = 0.8, 1.1
        for t in (0.0, 30.0, GRID.t_max - GRID.dt):
            m = GRID.n_steps - GRID.index_of(t)
            times = t + np.arange(m + 1) * GRID.dt

            def ref(y):
                cost = reference_euler(
                    ALPHA, params, times, zeta[:, : m + 1], GRID.dt, y, state[1]
                )[0]
                half = cost.shape[0] // 2
                return 0.5 * (cost[:half] + cost[half:])

            expected = _fd_theta(
                ref(state[0]),
                ref(state[0] * (1.0 + cfg.bump)),
                ref(state[0] * (1.0 - cfg.bump)),
                cfg.bump,
                params.market.kappa / params.market.sigma,
            )
            wealth = wealth_with_pension(
                t, *state, ALPHA, params, cfg, _inner=inner
            )
            est = allocation_at(t, *state, ALPHA, params, cfg, _inner=inner)
            assert wealth == expected.wealth
            assert est == expected

    def test_step_major_copy_is_built_once_and_only_for_euler(self):
        cfg = config(200)
        inner = _InnerPaths(MarketParams(), cfg)
        plain = make_params(eta=0.1)
        inner.cost_from(10.0, plain)
        allocation_at(20.0, 0.8, 1.1, ALPHA, plain, cfg, _inner=inner)
        assert inner._zeta_t is None
        pension = make_params(eta=0.1, pension=0.5)
        allocation_at(0.0, 0.8, 1.1, ALPHA, pension, cfg, _inner=inner)
        copy = inner._zeta_t
        for t in (10.0, 30.0):
            cost = inner.cost_from(t, pension)
            assert np.shares_memory(cost._zeta_t, copy)
        assert inner._zeta_t is copy

    def test_two_dimensional_grid_matches_per_time_calls(self):
        params = make_params(eta=0.1)
        cfg = config(400)
        times = [0.0, 10.0, 20.0]
        grids = [default_zeta_grid(t, params.market, n=5) for t in times]
        surface = policy_surface(
            times, 1.0, ALPHA, params, cfg, zeta_grid=np.array(grids)
        )
        per_time = []
        for t, zg in zip(times, grids):
            per_time += policy_surface([t], 1.0, ALPHA, params, cfg, zeta_grid=zg)
        assert _rows(surface) == _rows(per_time)
        with pytest.raises(ValueError, match="one row per time"):
            policy_surface(
                times, 1.0, ALPHA, params, cfg, zeta_grid=np.array(grids[:2])
            )
