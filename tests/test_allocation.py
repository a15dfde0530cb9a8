"""Nested-simulation wealth and allocation estimators.

Wealth is a conditional expectation evaluated by inner simulation from
an outer state; the allocation is its log-density derivative, taken
pathwise in the same sweep.  The tests anchor both to the zero-habit
closed form, check the two state representations against each other and
the pathwise derivative against common-random-number central
differences, and exercise the estimator's own error reporting (standard
errors, the reliability gate, determinism).
"""

import dataclasses
import math
import tracemalloc

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
    policy_surface,
)
import greedyhabit.market
from greedyhabit.allocation import _allocations, _nested_costs, _ratio_theta
from greedyhabit.market import _density_paths, _fill_normals
from greedyhabit.solver import _CostFunctional, _estimate_from_samples
from conftest import (
    central_theta,
    control_mean,
    euler_at_zero,
    inner_density,
    make_params,
    reference_control,
    reference_euler,
    stored_density,
)

GRID = TimeGrid(60.0, 0.05)

# calibrated multiplier for eta=0.1, pi=0, v=10 (seed-23 bundle); the
# estimator tests only need a fixed sensible value, not a fresh fit
ALPHA = 2.88377211135682


def config(n_inner=6000, seed=77):
    return NestedConfig(n_inner=n_inner, seed=seed, grid=GRID, antithetic=True)


class TestWealth:
    def test_no_habit_anchor(self):
        # at eta = 0 the time-0 wealth is known in closed form on the
        # grid, alpha^(-1/gamma) E[X] (the continuous-time v up to the
        # trapezoid rule's O(dt^2), test_merton): the exact multiplier for
        # v must reproduce it within Monte Carlo noise and rounding
        market, mort = MarketParams(), GompertzParams()
        params = make_params(eta=0.0, v=10.0)
        alpha = merton_alpha(10.0, market, mort)
        est = allocation_at(0.0, 1.0, 1.0, alpha, params, config(20000, seed=41)).wealth
        exact = alpha ** (-1.0 / market.gamma) * control_mean(params, GRID.times())
        assert abs(est.value - exact) < 3.0 * est.std_error + 1e-12 * exact
        assert est.std_error < 0.1

    def test_state_representations_agree(self):
        # the reduced one-dimensional state on the closed form and the
        # explicit (zeta, habit) state on the Euler sweep price the same
        # wealth at pi = 0
        params = make_params(eta=0.1)
        cfg = config()
        inner = cfg._density(params.market)
        for t, zeta, h in [(0.0, 1.0, 1.0), (10.0, 0.8, 1.1), (25.0, 1.6, 0.9)]:
            [f] = _allocations([(t, 1.0, zeta * h)], ALPHA, params, inner)
            [g] = _allocations([(t, zeta, h)], ALPHA, euler_at_zero(params), inner)
            f, g = f.wealth, g.wealth
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
        inner = config(4000)._density(params.market)
        zs = (0.25, 0.5, 1.0, 2.0, 4.0)
        cost = [
            est.wealth.value
            for est in _allocations([(10.0, 1.0, z) for z in zs], ALPHA, params, inner)
        ]
        assert all(a < b for a, b in zip(cost, cost[1:]))
        wealth = [c / z for c, z in zip(cost, zs)]
        assert all(a > b for a, b in zip(wealth, wealth[1:]))

    def test_deterministic(self):
        params = make_params(eta=0.1)
        a = allocation_at(10.0, 1.0, 1.0, ALPHA, params, config(2000)).wealth
        b = allocation_at(10.0, 1.0, 1.0, ALPHA, params, config(2000)).wealth
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
        # reduced state z = zeta * H; a central difference in z and the
        # pathwise derivative in the density level differ at O(bump^2)
        # theta is the ratio of plain means, so the difference is of the
        # plain means of F's samples
        params = make_params(eta=0.1)
        cfg = config(4000)
        inner = cfg._density(params.market)
        b, ks = 1e-3, params.market.kappa / params.market.sigma
        for t, zeta, h in [(0.0, 1.0, 1.0), (10.0, 0.5, 1.2), (20.0, 2.0, 0.9)]:
            f0, f_up, f_dn = (
                _nested_costs(
                    [(t, 1.0, zeta * h * s)], ALPHA, params, inner
                )[0][0].mean()
                for s in (1.0, 1.0 + b, 1.0 - b)
            )
            expected = ks * (1.0 - (f_up - f_dn) / (2.0 * b * f0))
            est = allocation_at(t, zeta, h, ALPHA, params, cfg)
            assert abs(est.value - expected) < 1e-5, (t, zeta, est.value, expected)

    def test_bump_halving_stable(self):
        # central differences at a bump and at half of it both land on
        # the pathwise estimate, their limit as the bump goes to 0
        params = make_params(eta=0.1)
        cfg = config(3000)
        inner = cfg._density(params.market)
        [est] = _allocations([(10.0, 1.0, 1.0)], ALPHA, params, inner)
        ks = params.market.kappa / params.market.sigma
        for bump in (1e-3, 5e-4):
            central = central_theta(
                lambda y: _nested_costs(
                    [(10.0, y, 1.0)], ALPHA, params, inner
                )[0][0],
                1.0,
                bump,
                ks,
            )
            assert abs(est.value - central.value) < 1e-3

    def test_unreliable_state_returns_nan(self):
        # astronomically expensive consumption: the wealth estimate
        # drowns in its own noise and the gate must say so
        params = make_params(eta=0.1)
        cfg = NestedConfig(n_inner=32, seed=3, grid=GRID, antithetic=False)
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


class TestStateEvaluation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_bad_state_fails_before_inner_paths(self, monkeypatch, bad):
        drawn = []
        real = greedyhabit.market._fill_normals

        def counted(*args, **kwargs):
            drawn.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(greedyhabit.market, "_fill_normals", counted)
        params, cfg = make_params(eta=0.1), config(200)
        forced = euler_at_zero(params)
        inner = cfg._density(params.market)
        for evaluate in (
            lambda: _allocations([(10.0, 1.0, bad)], ALPHA, params, inner),
            lambda: _allocations([(10.0, bad, 1.0)], ALPHA, forced, inner),
            lambda: _allocations([(10.0, 1.0, bad)], ALPHA, forced, inner),
            lambda: allocation_at(10.0, bad, 1.0, ALPHA, params, cfg),
            lambda: allocation_at(10.0, 1.0, bad, ALPHA, params, cfg),
        ):
            with pytest.raises(ValueError, match=f"={bad} .*must be positive"):
                evaluate()
        # a bad multiplier, on either branch
        for pension in (0.0, 0.5):
            params = make_params(eta=0.1, pension=pension)
            with pytest.raises(ValueError, match="alpha must be positive"):
                allocation_at(10.0, 1.0, 1.0, bad, params, cfg)
        with pytest.raises(ValueError, match="alpha must be positive"):
            policy_surface([10.0], 1.0, bad, params, cfg)
        assert drawn == []

    @pytest.mark.parametrize("pension", [0.0, 0.5])
    def test_density_is_priced_on_its_own_grid_and_pairing(self, pension):
        # the inner density carries its step and pairing: its states price
        # as on a stored copy of its rows, one sample per antithetic pair
        params = make_params(eta=0.1, pension=pension)
        grid = TimeGrid(60.0, 0.1)
        cfg = NestedConfig(n_inner=400, seed=13, grid=grid, antithetic=True)
        starts = (0.0, 30.0)
        states = [(0.0, 0.8, 1.1), (30.0, 1.2, 0.9)]
        got = _nested_costs(states, ALPHA, params, cfg._density(params.market))
        anchors = [
            t + np.arange(grid.n_steps - grid.index_of(t) + 1) * grid.dt
            for t in starts
        ]
        stored = stored_density(inner_density(params.market, cfg), grid.dt, True)
        rows = [(starts.index(t), y, h) for t, y, h in states]
        want = _CostFunctional(params, anchors, stored).price(ALPHA, rows, True)
        for a, b in zip(got, want):
            assert a[0].shape == (200,)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_theta_wealth_is_the_plain_estimate(self):
        params = make_params(eta=0.1)
        [(f0, u, x, mean_x)] = _nested_costs(
            [(10.0, 0.8, 1.1)], ALPHA, params, config(400)._density(params.market)
        )
        est = _ratio_theta(f0, u, 0.5)
        assert est.reliable
        assert est.wealth == _estimate_from_samples(f0)
        # with the control only the wealth moves: theta is the plain ratio
        controlled = _ratio_theta(f0, u, 0.5, x, mean_x)
        assert controlled.wealth == _estimate_from_samples(f0, x, mean_x)
        assert controlled.wealth != est.wealth
        assert controlled[:3] == est[:3]


class TestPathwiseTheta:
    """Theta from the delta of the sweep that prices the wealth."""

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_exact_without_habit(self, gamma):
        # at eta = 0 every path's cost is proportional to y^(-1/gamma),
        # so the pathwise ratio is the Merton fraction to rounding
        market = MarketParams(gamma=gamma)
        params = ModelParams(market=market, habit=HabitParams(eta=0.0))
        alpha = merton_alpha(10.0, market, GompertzParams())
        cfg = config(2000)
        inner = cfg._density(market)
        for t, zeta in [(0.0, 1.0), (10.0, 0.5), (30.0, 2.0)]:
            [est] = _allocations([(t, zeta, 1.0)], alpha, params, inner)
            assert abs(est.value - merton_theta(market)) < 1e-12

    def test_agrees_with_central_difference_where_the_floor_binds(self):
        params = make_params(eta=0.1, pension=0.5)
        cfg = config(2000)
        inner = cfg._density(params.market)
        zeta = inner_density(params.market, cfg)
        ks = params.market.kappa / params.market.sigma
        for t, y in [(0.0, 1.0), (10.0, 3.0), (19.0, 0.3)]:
            m = GRID.n_steps - GRID.index_of(t)
            times = t + np.arange(m + 1) * GRID.dt
            consumption = reference_euler(
                ALPHA, params, times, zeta[:, : m + 1], GRID.dt, y, 1.0
            )[1]
            assert 0.0 < np.mean(consumption == params.pension) < 1.0
            [a] = _allocations([(t, y, 1.0)], ALPHA, params, inner)
            b = central_theta(
                lambda level: _nested_costs(
                    [(t, level, 1.0)], ALPHA, params, inner
                )[0][0],
                y,
                1e-3,
                ks,
                *_nested_costs([(t, y, 1.0)], ALPHA, params, inner)[0][2:],
            )
            assert a.wealth == b.wealth
            assert abs(a.value - b.value) < 2.0 * a.std_error, (t, y)


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

    def test_bad_grid_inputs_are_rejected(self):
        market = MarketParams()
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="t must be non-negative and finite"):
                default_zeta_grid(t, market)
        for spread in (math.nan, math.inf):
            with pytest.raises(ValueError, match="spread must be finite"):
                default_zeta_grid(0.0, market, spread=spread)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_rejected(self, t):
        params, cfg = make_params(eta=0.1), config(200)
        for evaluate in (
            lambda: allocation_at(t, 1.0, 1.0, ALPHA, params, cfg),
            lambda: policy_surface([t], 1.0, ALPHA, params, cfg),
        ):
            with pytest.raises(ValueError, match=f"t={t} does not lie on the grid"):
                evaluate()

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

    @pytest.mark.parametrize("max_wealth", [0.0, -1.0, math.nan])
    def test_non_positive_max_wealth_is_rejected(self, max_wealth):
        # every row would be clipped, leaving an empty surface
        with pytest.raises(ValueError, match="max_wealth must be positive"):
            policy_surface(
                [0.0], 1.0, ALPHA, make_params(), config(), max_wealth=max_wealth
            )


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
        n_streams = 100 if antithetic else 200
        dw = np.empty((n_streams, GRID.n_steps))
        _fill_normals(dw, cfg.seed, (1,), range(n_streams))
        starts = (0.0, 30.0, GRID.t_max - GRID.dt)
        # the closed form on kernel moments (gamma 3), on the power of the
        # kernel (gamma 2.5) and on the eta = 0 sums, and the Euler branch
        for gamma, eta in ((3.0, 0.1), (2.5, 0.1), (3.0, 0.0)):
            params = dataclasses.replace(
                make_params(eta=eta), market=MarketParams(gamma=gamma)
            )
            inner = cfg._density(params.market)
            full = inner_density(params.market, cfg)
            states = [(t, 0.8, 1.1) for t in starts]
            batch = [
                (branch, _nested_costs(states, ALPHA, branch, inner))
                for branch in (params, euler_at_zero(params))
            ]
            for i, t in enumerate(starts):
                m = GRID.n_steps - GRID.index_of(t)
                expected = _density_paths(
                    params.market, dw[:, :m], GRID.dt, antithetic
                )[1]
                assert np.array_equal(full[:, : m + 1], expected)
                # a state of a many-anchor call prices what one functional
                # on its anchor's rebuilt density does
                times = t + np.arange(m + 1) * GRID.dt
                for branch, priced in batch:
                    got = priced[i]
                    density = stored_density(expected, GRID.dt, antithetic)
                    cost = _CostFunctional(branch, [times], density)
                    [want] = cost.price(ALPHA, [(0, 0.8, 1.1)], delta=True)
                    assert all(np.array_equal(a, b) for a, b in zip(got[:2], want))
                    _, _, x, mean_x = want
                    assert np.array_equal(got[2], x) and np.array_equal(got[3], mean_x)

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
        inner = cfg._density(MarketParams())
        for pension in (0.0, 0.5, 0.0):
            params = make_params(eta=0.1, pension=pension)
            [shared] = _allocations([(10.0, 0.8, 1.1)], ALPHA, params, inner)
            fresh = allocation_at(10.0, 0.8, 1.1, ALPHA, params, cfg)
            assert shared == fresh

    @pytest.mark.parametrize("shared", [True, False])
    def test_pension_estimates_match_path_major_loop(self, shared):
        # the Euler functional steps a step-major copy of the density;
        # wealth and theta must equal the path-major loop exactly
        params = make_params(eta=0.1, pension=0.5)
        cfg = config(400)
        zeta = inner_density(params.market, cfg)
        kept = cfg._density(params.market)

        def inner():
            # unshared, each call draws its own density
            return kept if shared else cfg._density(params.market)

        state = 0.8, 1.1
        for t in (0.0, 30.0, GRID.t_max - GRID.dt):
            m = GRID.n_steps - GRID.index_of(t)
            times = t + np.arange(m + 1) * GRID.dt

            cost, _, _, delta = reference_euler(
                ALPHA, params, times, zeta[:, : m + 1], GRID.dt, *state
            )
            x, mean_x = reference_control(params, times, zeta[:, : m + 1])
            half = cost.shape[0] // 2
            expected = _ratio_theta(
                0.5 * (cost[:half] + cost[half:]),
                0.5 * (delta[:half] + delta[half:]),
                params.market.kappa / params.market.sigma,
                0.5 * (x[:half] + x[half:]),
                mean_x,
            )
            # a second call reuses a shared step-major copy
            [first] = _allocations([(t, *state)], ALPHA, params, inner())
            [est] = _allocations([(t, *state)], ALPHA, params, inner())
            assert first.wealth == expected.wealth
            assert est == expected

    def test_step_major_copy_is_built_once_and_only_for_euler(self):
        cfg = config(200)
        inner = cfg._density(MarketParams())
        plain = make_params(eta=0.1)
        _nested_costs([(10.0, 1.0, 1.0)], ALPHA, plain, inner)
        _allocations([(20.0, 0.8, 1.1)], ALPHA, plain, inner)
        assert inner._steps is None
        pension = make_params(eta=0.1, pension=0.5)
        _allocations([(0.0, 0.8, 1.1)], ALPHA, pension, inner)
        copy = inner.steps
        for t in (10.0, 30.0):
            _nested_costs([(t, 0.8, 1.1)], ALPHA, pension, inner)
            assert inner.steps is copy

    def test_euler_powers_are_prefixes_of_one_array(self):
        # every anchor's sweep takes zeta^(-1/g) per step from the leading
        # steps of the one step-major array, with the bits of the power
        # that the path-major oracle takes on the whole density
        cfg = config(200)
        params = make_params(eta=0.1, pension=0.5)
        inner = cfg._density(params.market)
        zeta = inner_density(params.market, cfg)
        half = zeta.shape[0] // 2
        base = None
        for t in (0.0, 10.0, 30.0):
            [(cost, delta, _, _)] = _nested_costs(
                [(t, 0.8, 1.1)], ALPHA, params, inner
            )
            base = base if base is not None else inner.steps
            assert inner.steps is base
            m = GRID.n_steps - GRID.index_of(t)
            times = t + np.arange(m + 1) * GRID.dt
            want, _, _, want_delta = reference_euler(
                ALPHA, params, times, zeta[:, : m + 1], GRID.dt, 0.8, 1.1
            )
            assert np.array_equal(cost, 0.5 * (want[:half] + want[half:]))
            assert np.array_equal(delta, 0.5 * (want_delta[:half] + want_delta[half:]))
        assert np.array_equal(base, zeta.T)

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


class TestBatchedStates:
    """Every nested state of a run is priced in one pass over the inner set.

    The oracle is each state priced alone on a fresh inner set on one
    thread: a batch must reproduce it bit for bit, whatever else is in
    the batch and however many chunks of paths run on threads.
    """

    LAST = GRID.t_max - GRID.dt  # one step of horizon left
    # several states per anchor, anchors out of horizon order, a state
    # the pension floor binds on part of the time and one it always binds
    STATES = [
        (10.0, 0.8, 1.1),
        (0.0, 1.0, 1.0),
        (LAST, 1.3, 0.9),
        (10.0, 3.0, 1.0),
        (30.0, 1.0, 1.2),
        (10.0, 50.0, 1.0),
        (0.0, 0.5, 0.8),
    ]

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("pension", [0.0, 0.5])
    def test_batch_equals_each_state_alone(self, monkeypatch, pension, antithetic):
        params = make_params(eta=0.1, pension=pension)
        cfg = NestedConfig(n_inner=200, seed=13, grid=GRID, antithetic=antithetic)
        # 10-row blocks: two chunks of the 200 inner paths are cut on the
        # antithetic mirror (path 100), three across it
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 10)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 1)
        alone = [
            _nested_costs([state], ALPHA, params, cfg._density(params.market))[0]
            for state in self.STATES
        ]
        for workers in (1, 2, 3):
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            inner = cfg._density(params.market)
            batch = _nested_costs(self.STATES, ALPHA, params, inner)
            assert len(batch) == len(self.STATES)
            for state, got, want in zip(self.STATES, batch, alone):
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (
                    workers,
                    state,
                )
        assert _nested_costs([], ALPHA, params, inner) == []
        estimates = _allocations(self.STATES, ALPHA, params, inner)
        ks = params.market.kappa / params.market.sigma
        for est, (f0, u, x, mean_x) in zip(estimates, alone):
            assert est == _ratio_theta(f0, u, ks, x, mean_x)
        if pension:
            t, y, h = self.STATES[3]
            m = GRID.n_steps - GRID.index_of(t)
            times = t + np.arange(m + 1) * GRID.dt
            consumption = reference_euler(
                ALPHA, params, times, inner_density(params.market, cfg)[:, : m + 1],
                GRID.dt, y, h,
            )[1]
            assert 0.0 < np.mean(consumption == pension) < 1.0
            # fully floored: no wealth, so no allocation signal
            assert not estimates[5].reliable
        else:
            assert all(est.reliable for est in estimates)

    def test_unreliable_state_in_a_batch(self):
        # the gate of test_unreliable_state_returns_nan, inside a batch
        params = make_params(eta=0.1)
        cfg = NestedConfig(n_inner=32, seed=3, grid=GRID, antithetic=False)
        states = [(0.0, 1.0, 1.0), (10.0, 1e10, 1.0), (10.0, 1.0, 1.0)]
        batch = _allocations(states, ALPHA, params, cfg._density(params.market))
        assert [est.reliable for est in batch] == [True, False, True]
        for state, est in zip(states, batch):
            alone = allocation_at(*state, ALPHA, params, cfg)
            assert est.wealth == alone.wealth
            assert est.reliable == alone.reliable

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize(
        "bad",
        [
            (10.0, 0.0, 1.0),
            (10.0, 1.0, math.nan),
            (10.01, 1.0, 1.0),  # off the grid
            (math.nan, 1.0, 1.0),
            (math.inf, 1.0, 1.0),
            (10.0, math.inf, 1.0),
            (10.0, 1.0, math.inf),
            (GRID.t_max, 1.0, 1.0),  # no horizon left
        ],
    )
    def test_bad_state_anywhere_fails_before_inner_paths(
        self, monkeypatch, position, bad
    ):
        drawn = []
        real = greedyhabit.market._fill_normals

        def counted(*args, **kwargs):
            drawn.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(greedyhabit.market, "_fill_normals", counted)
        good = [(0.0, 1.0, 1.0), (10.0, 0.8, 1.1), (20.0, 1.2, 0.9), (30.0, 1.0, 1.0)]
        states = good[:position] + [bad] + good[position:]
        for pension in (0.0, 0.5):
            params = make_params(eta=0.1, pension=pension)
            with pytest.raises(ValueError):
                _allocations(states, ALPHA, params, config(200)._density(params.market))
        assert drawn == []

    def test_closed_form_batch_holds_no_full_size_array(self, monkeypatch):
        # numpy reports its buffers to tracemalloc.  No array holds the
        # inner set: each chunk draws its row blocks and reduces them to
        # the anchors' terms before it draws the next, so the whole call,
        # the draw included, needs less than one array of the set's size
        cfg = NestedConfig(n_inner=2000, seed=5, grid=GRID, antithetic=True)
        params = make_params(eta=0.1)
        states = [
            (t, y, 1.0) for t in (0.0, 10.0, 20.0) for y in (0.5, 0.8, 1.0, 1.3, 2.0)
        ]
        for workers in (1, 2):
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            inner = cfg._density(params.market)
            tracemalloc.start()
            try:
                _nested_costs(states, ALPHA, params, inner)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cfg.n_inner * (GRID.n_steps + 1) * 8, workers

    def test_euler_batch_holds_one_step_major_array(self, monkeypatch):
        # with a pension the pass writes the inner set once, step-major,
        # and each step takes zeta^(-1/g) on its row, so the call peaks at
        # about 1.2 inner arrays on one worker and 1.3 on two (a stored
        # power beside the copy made it 2.2 and 2.3)
        cfg = NestedConfig(n_inner=2000, seed=5, grid=GRID, antithetic=True)
        params = make_params(eta=0.1, pension=0.5)
        states = [(t, 1.0, 1.0) for t in (0.0, 10.0, 20.0, 30.0)]
        for workers in (1, 2):
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            inner = cfg._density(params.market)
            tracemalloc.start()
            try:
                _nested_costs(states, ALPHA, params, inner)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * cfg.n_inner * (GRID.n_steps + 1) * 8, workers
