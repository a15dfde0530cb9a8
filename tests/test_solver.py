"""Greedy consumption rule, pathwise solver, budget estimator, calibration.

The multiplier calibration is a safeguarded Newton search on a strictly
decreasing Monte Carlo budget map; these tests nail the rule's arithmetic, the
pathwise solver's two branches, the exact pathwise alpha-scaling of the
budget at eta = 0, and the bookkeeping the calibration reports back.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyhabit import (
    BudgetEstimate,
    CalibrationConfig,
    CalibrationError,
    BudgetMonotonicityError,
    GompertzParams,
    MarketParams,
    ModelParams,
    NestedConfig,
    TimeGrid,
    budget_value,
    calibrate_alpha,
    consumption_no_pension,
    consumption_with_pension,
    generate_paths,
    solve_paths,
    survival_probability,
)
import greedyhabit
import greedyhabit.market
from greedyhabit.allocation import _nested_costs
from greedyhabit.habit import bernoulli_kernel
from greedyhabit.market import _Stream, log_survival_probability
from greedyhabit.solver import (
    _CostFunctional,
    _Density,
    _anchor_terms,
    _estimate_from_samples,
    _euler_costs,
    _moment_order,
    _pair_average,
)
from conftest import (
    anchor_pass_terms,
    bundle_cost,
    control_mean,
    density_rows,
    density_steps,
    euler_at_zero,
    inner_density,
    make_params,
    moment_means,
    per_path,
    reference_control,
    reference_euler,
    stored_density,
)


def calibration_paths(params, config):
    """The bundle of a calibration config's density, as ``generate_paths`` makes it."""
    return generate_paths(
        params.market, config.grid, config.n_paths, config.seed, config.antithetic
    )


def reference_budget(alpha, params, bundle):
    """Per-path budget samples as the sums were written before the cost functional.

    The closed-form sum (pension 0) and the path-major Euler loop
    (pension > 0), averaged over antithetic pairs when the bundle has
    them; kept as an oracle for the expression order the solver must
    preserve.  Returns the samples and the controls per sample, shape
    (k, samples): X, formed from ``wz`` on the closed form and summed step
    by step on the Euler branch, as the solver forms it, and at pension 0
    with eta > 0 and a whole gamma - 1 the kernel moments M_0 and M_1.
    """
    times, zeta, dt = bundle.grid.times(), bundle.zeta, bundle.grid.dt
    g, eta, pi = params.market.gamma, params.habit.eta, params.pension
    wgt = np.empty_like(times)
    wgt[1:-1] = 0.5 * (times[2:] - times[:-2])
    wgt[0] = 0.5 * (times[1] - times[0])
    wgt[-1] = 0.5 * (times[-1] - times[-2])
    log_p = log_survival_probability(params.mortality, times)
    beta = alpha ** (-1.0 / g)
    if pi == 0.0:
        kernel, _ = bernoulli_kernel(
            params.habit, params.market, params.mortality, times, zeta
        )
        # wz from the kernel integrand k, as zeta * k * exp(-eta tau) * wgt
        tau = times - times[0]
        drift = (eta * tau - params.market.rho * times + log_p) / g
        k = np.exp(drift - np.log(zeta) / g)
        wz = zeta * k * (np.exp(-eta * tau) * wgt)
        u0 = params.habit.initial ** (1.0 / g)
        y = beta * ((u0 + (eta / g) * beta * kernel) ** (g - 1.0) * wz).sum(axis=1)
        # wz carries decay^(g - 1); exp(eta (1 - 1/g) tau) lifts it to X
        x = [(wz * np.exp(eta * (1.0 - 1.0 / g) * tau)).sum(axis=1)]
        if eta > 0.0 and _moment_order(g) is not None:
            x += [wz.sum(axis=1), (wz * ((eta / g) * kernel)).sum(axis=1)]
    else:
        y = reference_euler(alpha, params, times, zeta, dt)[0]
        x = [reference_control(params, times, zeta)[0]]
    x = np.array(x)
    if bundle.antithetic:
        half = y.shape[0] // 2
        y = 0.5 * (y[:half] + y[half:])
        x = 0.5 * (x[:, :half] + x[:, half:])
    return y, x


TESTS = os.path.dirname(os.path.abspath(__file__))


class TestConsumptionRule:
    def setup_method(self):
        self.market = MarketParams()
        self.mortality = GompertzParams()

    def test_unit_state_is_alpha_power(self):
        # h = zeta = 1, t = 0: everything drops out except alpha^(-1/gamma)
        c = consumption_no_pension(
            1.0, 1.0, 0.0, 8.0, self.market, self.mortality
        )
        assert c == pytest.approx(0.5, rel=1e-14)

    def test_matches_scalar_formula(self):
        # independent scalar evaluation of h^(1-1/g) (alpha e^(rho t) zeta / p)^(-1/g)
        h, zeta, alpha = 1.7, 0.6, 3.2
        g = self.market.gamma
        # an array of times with scalar h and zeta broadcasts too
        for t in (12.0, np.array([0.0, 12.0, 30.0])):
            p = survival_probability(self.mortality, t)
            expected = h ** (1.0 - 1.0 / g) * (
                alpha * np.exp(self.market.rho * t) * zeta / p
            ) ** (-1.0 / g)
            got = consumption_no_pension(
                h, zeta, t, alpha, self.market, self.mortality
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_monotonicity(self):
        base = consumption_no_pension(
            1.0, 1.0, 5.0, 2.0, self.market, self.mortality
        )
        richer_habit = consumption_no_pension(
            2.0, 1.0, 5.0, 2.0, self.market, self.mortality
        )
        dearer_state = consumption_no_pension(
            1.0, 2.0, 5.0, 2.0, self.market, self.mortality
        )
        tighter_budget = consumption_no_pension(
            1.0, 1.0, 5.0, 4.0, self.market, self.mortality
        )
        assert richer_habit > base
        assert dearer_state < base
        assert tighter_budget < base

    @given(
        h=st.floats(1e-3, 1e3),
        zeta=st.floats(1e-6, 1e6),
        t=st.floats(0.0, 59.0),
        alpha=st.floats(1e-4, 1e4),
        lam=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_and_alpha_scaling(self, h, zeta, t, alpha, lam):
        c = consumption_no_pension(
            h, zeta, t, alpha, self.market, self.mortality
        )
        assert c > 0.0
        # alpha -> alpha / lam^gamma multiplies consumption by lam exactly
        scaled = consumption_no_pension(
            h, zeta, t, alpha / lam**self.market.gamma,
            self.market, self.mortality,
        )
        assert scaled == pytest.approx(lam * c, rel=1e-9)

    def test_pension_floor(self):
        zeta = np.array([1e-3, 1.0, 1e3])
        base = consumption_no_pension(
            1.0, zeta, 0.0, 2.0, self.market, self.mortality
        )
        floored = consumption_with_pension(
            1.0, zeta, 0.0, 2.0, 1.5, self.market, self.mortality
        )
        assert np.array_equal(floored, np.maximum(1.5, base))
        # zero pension changes nothing
        plain = consumption_with_pension(
            1.0, zeta, 0.0, 2.0, 0.0, self.market, self.mortality
        )
        assert np.array_equal(plain, base)
        # an array of times with scalar h and zeta
        t = np.array([0.0, 10.0, 30.0])
        base_t = consumption_no_pension(
            1.0, 0.5, t, 2.0, self.market, self.mortality
        )
        floored_t = consumption_with_pension(
            1.0, 0.5, t, 2.0, 0.8, self.market, self.mortality
        )
        assert np.array_equal(floored_t, np.maximum(0.8, base_t))

    def test_validation(self):
        with pytest.raises(ValueError):
            consumption_no_pension(
                -1.0, 1.0, 0.0, 1.0, self.market, self.mortality
            )
        with pytest.raises(ValueError):
            consumption_no_pension(
                1.0, 0.0, 0.0, 1.0, self.market, self.mortality
            )
        with pytest.raises(ValueError):
            consumption_no_pension(
                1.0, 1.0, 0.0, 0.0, self.market, self.mortality
            )
        with pytest.raises(ValueError):
            consumption_with_pension(
                1.0, 1.0, 0.0, 1.0, -0.5, self.market, self.mortality
            )
        # a NaN fails every check, by name, as a bad value does
        nan = math.nan
        for args, name in [
            ((nan, 1.0, 0.0, 1.0), "habit h"),
            ((1.0, nan, 0.0, 1.0), "zeta"),
            ((1.0, 1.0, nan, 1.0), "time t"),
            ((1.0, 1.0, -1.0, 1.0), "time t"),
            ((1.0, 1.0, 0.0, nan), "alpha"),
        ]:
            with pytest.raises(ValueError, match=name):
                consumption_no_pension(*args, self.market, self.mortality)
            with pytest.raises(ValueError, match=name):
                consumption_with_pension(*args, 0.5, self.market, self.mortality)
        with pytest.raises(ValueError, match="pension"):
            consumption_with_pension(
                1.0, 1.0, 0.0, 1.0, nan, self.market, self.mortality
            )

    def test_infinite_state_is_rejected(self):
        # an infinite zeta or alpha would price to 0, an infinite habit or
        # pension to inf, and an infinite t is not a time on any grid
        inf = math.inf
        for args, name in [
            ((inf, 1.0, 0.0, 1.0), "habit h must be positive"),
            ((1.0, np.array([1.0, inf]), 0.0, 1.0), "zeta must be positive"),
            ((1.0, 1.0, inf, 1.0), "time t must be non-negative"),
            ((1.0, 1.0, 0.0, inf), "alpha must be positive"),
        ]:
            with pytest.raises(ValueError, match=name):
                consumption_no_pension(*args, self.market, self.mortality)
            with pytest.raises(ValueError, match=name):
                consumption_with_pension(*args, 0.5, self.market, self.mortality)
        with pytest.raises(ValueError, match="pension must be non-negative"):
            consumption_with_pension(
                1.0, 1.0, 0.0, 1.0, inf, self.market, self.mortality
            )


class TestSolvePaths:
    def test_shapes_and_start(self, market):
        grid = TimeGrid(10.0, 0.05)
        bundle = generate_paths(market, grid, 64, seed=2)
        params = make_params(eta=0.1)
        c, h = solve_paths(3.0, params, bundle)
        assert c.shape == (64, grid.n_steps + 1)
        assert h.shape == c.shape
        assert np.allclose(h[:, 0], params.habit.initial)
        assert np.all(c > 0.0) and np.all(h > 0.0)

    def test_methods_agree_without_pension(self, market):
        grid = TimeGrid(10.0, 0.05)
        bundle = generate_paths(market, grid, 64, seed=2)
        params = make_params(eta=0.5)
        c_cf, h_cf = solve_paths(3.0, params, bundle)
        c_eu, h_eu = solve_paths(3.0, euler_at_zero(params), bundle)
        c_auto, h_auto = solve_paths(3.0, params, bundle)
        assert np.array_equal(c_auto, c_cf)
        assert np.array_equal(h_auto, h_cf)
        # Euler carries O(dt) error against the exact recursion
        rel = np.abs(h_eu - h_cf) / h_cf
        assert 0.0 < rel.max() < 5.0 * grid.dt

    def test_pension_floor_binds_somewhere(self, market):
        grid = TimeGrid(20.0, 0.05)
        bundle = generate_paths(market, grid, 128, seed=4)
        params = make_params(eta=0.1, pension=1.5)
        c, h = solve_paths(5.0, params, bundle)
        assert np.all(c >= 1.5 - 1e-15)
        assert np.any(c == 1.5), "floor never binds on 128 paths"

    def test_euler_matches_path_major_loop(self, market):
        # the solver steps a step-major copy of the density; the values
        # must be those of the path-major loop, in path-major shape
        grid = TimeGrid(20.0, 0.05)
        bundle = generate_paths(market, grid, 128, seed=4)
        params = make_params(eta=0.1, pension=1.5)
        c, h = solve_paths(5.0, params, bundle)
        _, c_ref, h_ref, _ = reference_euler(
            5.0, params, grid.times(), bundle.zeta, grid.dt
        )
        assert c.shape == h.shape == (128, grid.n_steps + 1)
        assert np.array_equal(c, c_ref)
        assert np.array_equal(h, h_ref)

    def test_euler_at_zero_prices_pension_zero(self, market):
        # the least positive pension lies below every consumption, so the
        # Euler branch at it prices pi = 0 bit for bit: paths, cost, delta
        grid = TimeGrid(20.0, 0.05)
        bundle = generate_paths(market, grid, 128, seed=4)
        params = make_params(eta=0.1)
        cost_ref, c_ref, h_ref, delta_ref = reference_euler(
            5.0, params, grid.times(), bundle.zeta, grid.dt
        )
        forced = euler_at_zero(params)
        c, h = solve_paths(5.0, forced, bundle)
        cost, delta = per_path(
            bundle_cost(forced, bundle), 5.0, 1.0, params.habit.initial, delta=True
        )
        assert np.array_equal(c, c_ref)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(cost, cost_ref)
        assert np.array_equal(delta, delta_ref)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_alpha_is_rejected(self, market, bad):
        bundle = generate_paths(market, TimeGrid(1.0, 0.05), 4, seed=2)
        for pension in (0.0, 0.5):
            params = make_params(pension=pension)
            with pytest.raises(ValueError, match="alpha must be positive"):
                solve_paths(bad, params, bundle)
            with pytest.raises(ValueError, match="alpha must be positive"):
                budget_value(bad, params, bundle)


class TestBudgetValue:
    def test_decreasing_in_alpha(self, small_bundle):
        params = make_params(eta=0.1)
        values = [
            budget_value(a, params, small_bundle).value
            for a in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_exact_alpha_scaling_without_habit(self, small_bundle):
        # at eta = 0 consumption is proportional to alpha^(-1/gamma)
        # path by path, so the trapezoid budget scales exactly
        params = make_params(eta=0.0)
        b1 = budget_value(1.0, params, small_bundle)
        b8 = budget_value(8.0, params, small_bundle)
        assert b8.value == pytest.approx(b1.value / 2.0, rel=1e-12)
        # so the eta = 0 control reproduces every path's cost, and only
        # rounding is left of the standard error
        assert 0.0 <= b1.std_error < 1e-12 * b1.value

    def test_matches_reference_sums(self, small_bundle, market):
        # at gamma 2.5 the closed form takes the power of the kernel, the
        # same arithmetic in the same order, so the match is exact, path by
        # path as well as in the estimate and SE, which regress the samples
        # on the control X; at gamma 3 it sums kernel moments, equal to
        # rounding, and regresses on X, M_0 and M_1 of exact means; the
        # Euler branch is exact at both
        plain = generate_paths(market, small_bundle.grid, 2001, seed=8)
        for gamma in (2.5, 3.0):
            for bundle in (small_bundle, plain):
                for pension in (0.5, 0.0):
                    params = dataclasses.replace(
                        make_params(eta=0.1, pension=pension),
                        market=MarketParams(gamma=gamma),
                    )
                    ref, ref_x = reference_budget(2.9, params, bundle)
                    cost = bundle_cost(params, bundle)
                    [(samples, _, x, _)] = cost.price(
                        2.9, [(0, 1.0, params.habit.initial)]
                    )
                    assert np.array_equal(x[0], ref_x[0])
                    est = budget_value(2.9, params, bundle)
                    mean_x = control_mean(params, bundle.grid.times())
                    if gamma == 3.0 and pension == 0.0:
                        np.testing.assert_allclose(samples, ref, rtol=1e-13, atol=0.0)
                        np.testing.assert_allclose(x, ref_x, rtol=1e-13, atol=0.0)
                        means = mean_x, *moment_means(params, bundle.grid.times())
                        ref_est = _estimate_from_samples(ref, ref_x, means)
                        assert est.value == pytest.approx(ref_est.value, rel=1e-13)
                        continue
                    assert x.shape == ref_x.shape == (1, ref.shape[0])
                    assert np.array_equal(samples, ref)
                    assert est == _estimate_from_samples(ref, ref_x, mean_x)

    @pytest.mark.parametrize("eta", [0.1, 2.0])
    def test_weights_match_the_power_form(self, small_bundle, eta):
        # one pass forms the terms from the kernel integrand.  At gamma 2.5
        # they are the kernel and wz: wz must equal zeta^(1-1/g) shadow
        # decay^(g-1) wgt to rounding, and the kernel must be
        # bernoulli_kernel's bit for bit.  At gamma 3 they are the moments
        # sum_k wz_k (eta/g K_k)^j, j = 0, 1, 2, of those two
        times, zeta = small_bundle.grid.times(), small_bundle.zeta[:300]
        for gamma in (2.5, 3.0):
            params = dataclasses.replace(
                make_params(eta=eta), market=MarketParams(gamma=gamma)
            )
            g = params.market.gamma
            kernel, wz, x = anchor_pass_terms(params, times, zeta)
            log_p = log_survival_probability(params.mortality, times)
            shadow = np.exp((-params.market.rho * times + log_p) / g)
            decay_ref = np.exp(-eta * (times - times[0]) / g)
            wgt = np.full_like(times, small_bundle.grid.dt)
            wgt[[0, -1]] *= 0.5
            expected = zeta ** (1.0 - 1.0 / g) * shadow * decay_ref ** (g - 1.0) * wgt
            expected_x = (zeta ** (1.0 - 1.0 / g) * shadow * wgt).sum(axis=1)
            np.testing.assert_allclose(x, expected_x, rtol=1e-13, atol=0.0)
            ref_kernel, _ = bernoulli_kernel(
                params.habit, params.market, params.mortality, times, zeta
            )
            if gamma == 2.5:
                np.testing.assert_allclose(wz, expected, rtol=1e-13, atol=0.0)
                assert np.array_equal(kernel, ref_kernel)
                continue
            assert kernel is None and wz.shape == (zeta.shape[0], 3)
            for j in range(3):
                moment = (expected * ((eta / g) * ref_kernel) ** j).sum(axis=1)
                np.testing.assert_allclose(wz[:, j], moment, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n_paths, antithetic", [(1, False), (2, True)])
    def test_bundle_of_one_sample_is_rejected(self, market, n_paths, antithetic):
        # one path, or one antithetic pair, is one sample and gives no
        # standard error, so a bundle of it is rejected as a config is
        bundle = generate_paths(
            market, TimeGrid(10.0, 0.5), n_paths, seed=3, antithetic=antithetic
        )
        least = 4 if antithetic else 2
        for pension in (0.0, 0.5):
            params = make_params(eta=0.1, pension=pension)
            with pytest.raises(ValueError, match=f"n_paths must be >= {least} "):
                budget_value(1.0, params, bundle)
            with pytest.raises(ValueError, match=f"n_paths must be >= {least} "):
                calibrate_alpha(params, paths=bundle)
            # a scenario path prices no budget, so it still solves
            c, h = solve_paths(1.0, params, bundle)
            assert c.shape == h.shape == bundle.zeta.shape

    def test_pension_lowers_funded_cost(self, small_bundle):
        # the pension pays for the floor, so the funded budget shrinks
        plain = budget_value(2.0, make_params(eta=0.1), small_bundle)
        floored = budget_value(
            2.0, make_params(eta=0.1, pension=0.5), small_bundle
        )
        assert floored.value < plain.value


class TestCalibration:
    def test_residual_within_tolerance(self, calibrated):
        params, config, sol = calibrated(0.1, 0.0)
        assert sol.budget_residual <= config.tolerance
        assert sol.alpha > 0.0
        assert sol.iterations >= 1

    def test_residual_matches_recomputation(self, calibrated):
        # the reported residual must be the actual budget at the
        # returned alpha on the calibration bundle
        params, config, sol = calibrated(0.1, 0.0)
        bundle = generate_paths(
            params.market,
            config.grid,
            config.n_paths,
            seed=config.seed,
            antithetic=config.antithetic,
        )
        est = budget_value(sol.alpha, params, bundle)
        assert abs(est.value - params.v) / params.v == pytest.approx(
            sol.budget_residual, rel=1e-9
        )

    def test_deterministic(self):
        params = make_params(eta=0.1)
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=2000, seed=5, tolerance=1e-2
        )
        a = calibrate_alpha(params, config)
        b = calibrate_alpha(params, config)
        assert a.alpha == b.alpha
        assert a.iterations == b.iterations

    def test_pension_solution_respects_floor(self):
        params = make_params(eta=0.1, pension=1.5)
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=2000, seed=5, tolerance=1e-2
        )
        sol = calibrate_alpha(params, config)
        assert sol.pension == 1.5
        bundle = generate_paths(
            params.market, config.grid, config.n_paths, seed=config.seed
        )
        consumption, _ = solve_paths(sol.alpha, params, bundle)
        assert np.all(consumption >= 1.5 - 1e-15)

    def test_iteration_cap_raises(self):
        params = make_params(eta=0.1)
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1),
            n_paths=1000,
            seed=5,
            tolerance=1e-12,
            max_iterations=3,
        )
        with pytest.raises(CalibrationError):
            calibrate_alpha(params, config)

    def test_monotonicity_error_is_a_calibration_error(self):
        assert issubclass(BudgetMonotonicityError, CalibrationError)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CalibrationConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            CalibrationConfig(max_iterations=0)

    @pytest.mark.parametrize("config", [CalibrationConfig, NestedConfig])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_bad_seed_is_rejected_by_name(self, config, seed):
        # numpy would take True as seed 1, and reject the others only at
        # the first draw, in a message naming neither the config nor the field
        with pytest.raises(
            ValueError, match=rf"^{config.__name__}\.seed must be a non-negative"
        ):
            config(seed=seed)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ModelParams(v=math.nan),
            lambda: ModelParams(v=math.inf),
            lambda: ModelParams(pension=math.nan),
            lambda: ModelParams(pension=math.inf),
            lambda: CalibrationConfig(tolerance=math.nan),
            lambda: CalibrationConfig(bracket=(math.nan, 1.0)),
            lambda: CalibrationConfig(bracket=(1.0, math.inf)),
        ],
    )
    def test_non_finite_settings_are_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_sample_count_validation(self):
        # a standard error needs two independent samples; an antithetic
        # pair counts as one
        with pytest.raises(ValueError, match="n_paths must be >= 2"):
            CalibrationConfig(n_paths=1)
        with pytest.raises(ValueError, match="n_paths must be >= 4"):
            CalibrationConfig(n_paths=2, antithetic=True)
        assert CalibrationConfig(n_paths=2).n_paths == 2
        assert CalibrationConfig(n_paths=4, antithetic=True).n_paths == 4

    def test_antithetic_needs_even_paths(self):
        # an odd count would leave the last density row unfilled
        with pytest.raises(
            ValueError, match="antithetic sampling requires an even n_paths"
        ):
            CalibrationConfig(n_paths=5, antithetic=True)
        assert CalibrationConfig(n_paths=5).n_paths == 5


def plain_sample_mean(price):
    """``_CostFunctional.price`` with a control that leaves the plain sample mean.

    A control without variance turns the regression off, and
    :func:`plain_start`, the mean of X formed by one matrix-vector
    product, starts the search where the plain sample-mean search starts.
    The float-resolution cases below were found on those iterates, at
    gamma 2.5, where the closed form prices from ``wz`` per step.
    """

    def priced(self, alpha, states, delta=False):
        return [
            (cost, deltas, np.zeros(cost.shape[0]), mean_x)
            for cost, deltas, _, mean_x in price(self, alpha, states, delta)
        ]

    return priced


def plain_start(self):
    """The ``_CostFunctional.mean_x`` that goes with :func:`plain_sample_mean`."""
    times = self._anchors[0]
    _, wz, _ = anchor_pass_terms(self.params, times, density_rows(self._density))
    g, tau = self.params.market.gamma, times - times[0]
    decay = np.exp(-self.params.habit.eta * tau / g)
    return (wz @ decay ** (1.0 - g)).mean()


def scripted_price(price_samples):
    """A ``_CostFunctional.price`` of one state whose samples
    ``price_samples(alpha, delta)`` gives, with a control of no variance."""

    def price(self, alpha, states, delta=False):
        [_] = states
        samples, deltas = price_samples(alpha, delta)
        return [(samples, deltas, np.zeros(samples.shape[0]), 1.0)]

    return price


#: the model of the float-resolution cases: a non-integer gamma keeps the
#: power form, whose per-step wz ``plain_start`` reads
POWER_FORM = ModelParams(market=MarketParams(gamma=2.5))


class TestNewtonSearch:
    """The log-log Newton search on the pathwise delta, and its safeguards."""

    CONFIG = CalibrationConfig(
        grid=TimeGrid(60.0, 0.1), n_paths=2000, seed=5, antithetic=True
    )

    def test_frozen_habit_solves_in_one_evaluation(self):
        # the start solves the eta = 0, pension-0 budget exactly, at any H0
        params = make_params(eta=0.0, c_bar=1.3)
        sol = calibrate_alpha(params, self.CONFIG)
        assert sol.iterations == 1
        assert sol.budget_residual <= 1e-12

    @pytest.mark.parametrize("eta", [0.1, 2.0])
    @pytest.mark.parametrize(
        "branch, pension",
        [("closed_form", 0.0), ("euler", 0.0), ("euler", 0.5)],
    )
    def test_mean_delta_is_the_log_alpha_slope(self, eta, branch, pension):
        # the rule sees alpha and y only through alpha * y, so the mean
        # delta at y = 1 is alpha dB/dalpha = dB/dlog(alpha)
        params = make_params(eta=eta, pension=pension)
        if branch == "euler" and pension == 0.0:
            params = euler_at_zero(params)
        bundle = generate_paths(
            params.market, self.CONFIG.grid, 400, seed=12, antithetic=True
        )
        cost = bundle_cost(params, bundle)
        alpha, h0, bump = 0.8 if pension else 2.9, params.habit.initial, 1e-4
        delta = per_path(cost, alpha, 1.0, h0, delta=True)[1].mean()
        up, down = (
            per_path(cost, alpha * math.exp(s * bump), 1.0, h0).mean()
            for s in (1.0, -1.0)
        )
        assert delta == pytest.approx((up - down) / (2.0 * bump), rel=1e-5)

    @pytest.mark.parametrize("eta, v", [(0.0, 1e9), (0.1, 1e-4)])
    def test_unreachable_wealth_fails_to_bracket(self, monkeypatch, eta, v):
        # the budget is about 1.8e5 at the lower limit 1e-12 without habit
        # formation, and about 9e-4 at the upper limit 1e12 with it
        calls = []
        real = _CostFunctional.price

        def counted(self, alpha, *args, **kwargs):
            calls.append(alpha)
            return real(self, alpha, *args, **kwargs)

        monkeypatch.setattr(_CostFunctional, "price", counted)
        config = dataclasses.replace(self.CONFIG, max_iterations=4)
        with pytest.raises(CalibrationError, match="could not bracket"):
            calibrate_alpha(make_params(eta=eta, v=v), config)
        assert 1 <= len(calls) <= config.max_iterations

    @pytest.mark.parametrize("gamma, v", [(60.0, 1e-6), (3.0, 1e-300)])
    def test_start_beyond_float_range_is_clamped(self, gamma, v):
        # (h0^(1 - 1/g) E[X] / v)^g overflows a float: the start clamps to
        # the upper search limit, where the budget still exceeds v
        params = dataclasses.replace(
            make_params(eta=0.1, v=v), market=MarketParams(gamma=gamma)
        )
        config = dataclasses.replace(self.CONFIG, max_iterations=4)
        with pytest.raises(CalibrationError, match=r"bracket.*budget\(1e\+12\)"):
            calibrate_alpha(params, config)

    def test_narrow_bracket_is_widened_six_decades(self):
        params = make_params(eta=0.1)
        default = calibrate_alpha(params, self.CONFIG)
        config = dataclasses.replace(self.CONFIG, bracket=(1e3, 1e4))
        sol = calibrate_alpha(params, config)
        assert sol.budget_residual <= config.tolerance
        g = params.market.gamma
        assert sol.alpha == pytest.approx(default.alpha, rel=g * config.tolerance)

    def test_non_monotone_budget_is_caught(self, monkeypatch):
        # budgets 2v, 3v, v at increasing alphas: each Newton step moves
        # up, the last meets tolerance, and the sorted iterates rise
        params = make_params(eta=0.1)
        v = params.v
        script = [2.0 * v, 3.0 * v, v]

        def scripted(alpha, delta):
            b = script.pop(0)
            samples = b + np.array([-1e-3, 1e-3, -1e-3, 1e-3])
            return samples, np.full(4, -b / 3.0)

        monkeypatch.setattr(_CostFunctional, "price", scripted_price(scripted))
        monkeypatch.setattr(_CostFunctional, "mean_x", 1.0)
        with pytest.raises(BudgetMonotonicityError):
            calibrate_alpha(params, self.CONFIG)
        assert script == []

    def test_tie_at_adjacent_floats_is_not_corruption(self, monkeypatch):
        # at seed 14 two iterates one float apart both price
        # 10.000000000000002 before a third reaches v exactly; that tie is
        # float resolution, so the search returns its solution
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.5), n_paths=200, seed=14, tolerance=1e-300
        )
        real = plain_sample_mean(_CostFunctional.price)
        budgets = {}

        def recorded(self, alpha, states, delta=False):
            out = real(self, alpha, states, delta)
            budgets[alpha] = out[0][0].mean()
            return out

        monkeypatch.setattr(_CostFunctional, "price", recorded)
        monkeypatch.setattr(_CostFunctional, "mean_x", property(plain_start))
        sol = calibrate_alpha(POWER_FORM, config)
        assert sol.budget_residual == 0.0
        ordered = sorted(budgets.items())
        ties = [
            (a0, a1)
            for (a0, b0), (a1, b1) in zip(ordered[:-1], ordered[1:])
            if b0 == b1
        ]
        assert ties and all(math.nextafter(a0, math.inf) == a1 for a0, a1 in ties)

    @staticmethod
    def script_budget(monkeypatch, budget):
        """Price every sample at ``budget(alpha)``, delta -B/3, no control."""
        seen = []

        def scripted(alpha, delta):
            b = budget(alpha)
            seen.append((alpha, b))
            return np.full(4, b), np.full(4, -b / 3.0) if delta else None

        monkeypatch.setattr(_CostFunctional, "price", scripted_price(scripted))
        monkeypatch.setattr(_CostFunctional, "mean_x", 1.0)
        return seen

    @pytest.mark.parametrize("c", [3.1, 3.15])
    def test_tie_below_float_resolution_is_not_corruption(self, monkeypatch, c):
        # B = 10 (c / alpha)^(1/3) ties at alphas two or more floats apart
        # (about 0.3 and 0.7 eps of predicted change), which is float
        # resolution as much as a tie of adjacent floats
        seen = self.script_budget(monkeypatch, lambda a: 10.0 * (c / a) ** (1.0 / 3.0))
        config = dataclasses.replace(self.CONFIG, tolerance=1e-300)
        sol = calibrate_alpha(make_params(eta=0.1), config)
        assert sol.budget_residual == 0.0
        ordered = sorted(seen)
        assert any(
            b0 == b1 and math.nextafter(a0, math.inf) != a1
            for (a0, b0), (a1, b1) in zip(ordered[:-1], ordered[1:])
        )

    def test_increase_by_one_float_is_caught(self, monkeypatch):
        # budgets 2v, then one float more at a larger alpha, then v: an
        # increase is never float resolution, however small
        v = make_params().v
        script = iter([2.0 * v, math.nextafter(2.0 * v, math.inf), v])
        self.script_budget(monkeypatch, lambda a: next(script))
        with pytest.raises(BudgetMonotonicityError):
            calibrate_alpha(make_params(eta=0.1), self.CONFIG)

    def test_constant_budget_across_a_gap_is_caught(self, monkeypatch):
        # a budget that equals v only far away is flat wherever the search
        # looks; equal means across a resolved gap are a defect
        self.script_budget(monkeypatch, lambda a: 20.0 if a < 1e9 else 10.0)
        with pytest.raises(BudgetMonotonicityError):
            calibrate_alpha(make_params(eta=0.1), self.CONFIG)

    def test_nan_budget_fails_at_once(self, monkeypatch):
        # a NaN budget is no evidence on either side of v, so the search
        # stops at the first one instead of bisecting on it
        script = iter([2.0 * make_params().v, math.nan])
        seen = self.script_budget(monkeypatch, lambda a: next(script))
        with pytest.raises(CalibrationError, match=r"^budget at alpha=\S+ is nan") as info:
            calibrate_alpha(make_params(eta=0.1), self.CONFIG)
        assert f"alpha={seen[1][0]!r} " in str(info.value)
        assert not isinstance(info.value, BudgetMonotonicityError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_density_names_the_nan_budget(self):
        # at sigma 0.01 (kappa 6) the density of a 60-year grid underflows
        # to 0, and log(0) makes the first budget NaN
        params = dataclasses.replace(
            make_params(eta=0.1), market=MarketParams(sigma=0.01)
        )
        config = CalibrationConfig(grid=TimeGrid(60.0, 0.25), n_paths=200, seed=3)
        with pytest.raises(CalibrationError, match=r"^budget at alpha=\S+ is nan"):
            calibrate_alpha(params, config)

    def test_infinite_tie_is_caught(self, monkeypatch):
        # two infinite budgets, whose delta predicts nothing, then v
        script = iter([math.inf, math.inf, make_params().v])
        self.script_budget(monkeypatch, lambda a: next(script))
        with np.errstate(invalid="ignore"), pytest.raises(BudgetMonotonicityError):
            calibrate_alpha(make_params(eta=0.1), self.CONFIG)

    def test_collapsed_bracket_fails_instead_of_spinning(self):
        # with an unreachable tolerance the search must still end: every
        # pass evaluates a new alpha or raises, so it stops within
        # max_iterations evaluations.  A fresh interpreter with a timeout
        # keeps a regression from hanging the suite.  The search runs on
        # the plain sample mean, where seed 2 never meets the tolerance.
        script = (
            "from greedyhabit import CalibrationConfig, CalibrationError, "
            "TimeGrid, calibrate_alpha\n"
            "from greedyhabit.solver import _CostFunctional\n"
            "from test_solver import POWER_FORM, plain_sample_mean, plain_start\n"
            "_CostFunctional.price = plain_sample_mean(_CostFunctional.price)\n"
            "_CostFunctional.mean_x = property(plain_start)\n"
            "config = CalibrationConfig(grid=TimeGrid(60.0, 0.5), n_paths=200, "
            "seed=2, tolerance=1e-300, max_iterations=80)\n"
            "try:\n"
            "    calibrate_alpha(POWER_FORM, config)\n"
            "except CalibrationError as exc:\n"
            "    print('raised', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(greedyhabit.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, TESTS])),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        assert out.startswith("raised")


class TestControlVariate:
    """Budgets and nested wealth regress the cost on controls of exact mean.

    X = sum_k wgt_k shadow_k zeta_k^(1 - 1/g), the eta = 0 cost, per
    sample, and at pension 0 with eta > 0 and a whole gamma - 1 also the
    kernel moments M_0 and M_1 the pass keeps.  Their means are exact on
    the grid, so the regression estimate keeps the plain mean's
    expectation and removes the part of its noise the controls explain.
    """

    GRID = TimeGrid(60.0, 0.1)

    @staticmethod
    def assert_mean(x, mean_x):
        assert abs(x.mean() - mean_x) < 4.0 * x.std(ddof=1) / math.sqrt(x.shape[0])

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_mean_of_x_is_exact_on_the_grid(self, gamma):
        # X alone at gamma 0.5, which has no moment order; X, M_0 and M_1
        # at gamma 3
        params = dataclasses.replace(
            make_params(eta=0.1), market=MarketParams(gamma=gamma)
        )
        k = 1 if gamma == 0.5 else 3
        bundle = generate_paths(
            params.market, self.GRID, 4000, seed=21, antithetic=True
        )
        [(_, _, x, mean_x)] = bundle_cost(params, bundle).price(2.9, [(0, 1.0, 1.0)])
        assert x.shape == (k, 2000) and mean_x.shape == (k,)
        assert mean_x[0] == control_mean(params, self.GRID.times())
        for row, mean in zip(x, mean_x):
            self.assert_mean(row, mean)
        # at a nested anchor the inner density restarts at 1
        nested = NestedConfig(n_inner=4000, seed=22, grid=self.GRID)
        [(_, _, x, mean_x)] = _nested_costs(
            [(20.0, 0.7, 1.2)], 2.9, params, nested._density(params.market)
        )
        times = 20.0 + np.arange(self.GRID.n_steps - 199) * self.GRID.dt
        assert np.array_equal(mean_x, _anchor_terms(params, times)[-1][:k])
        assert mean_x[0] == pytest.approx(control_mean(params, times), rel=1e-14)
        for row, mean in zip(x, mean_x):
            self.assert_mean(row, mean)

    @pytest.mark.parametrize("gamma", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("eta", [0.1, 2.0])
    @pytest.mark.parametrize("t0", [0.0, 20.0])
    def test_moment_means_are_exact_on_the_grid(self, gamma, eta, t0):
        # the closed forms against the double sum over grid pairs, and the
        # kept moments' sample means against both
        params = dataclasses.replace(
            make_params(eta=eta), market=MarketParams(gamma=gamma)
        )
        grid = TimeGrid(60.0 - t0, 0.1)
        times = t0 + grid.times()
        means = _anchor_terms(params, times)[-1]
        want = moment_means(params, times)
        np.testing.assert_allclose(means[1:], want, rtol=1e-13, atol=0.0)
        bundle = generate_paths(params.market, grid, 4000, seed=31, antithetic=True)
        kept = _pair_average(anchor_pass_terms(params, times, bundle.zeta)[1].T, True)
        for row, mean in zip(kept[:2], want):
            self.assert_mean(row, mean)

    def test_one_control_is_the_single_regression_bit_for_bit(self, small_bundle):
        # the regression on X alone, written as it was before the
        # estimator took several controls: the Euler branch, the power
        # form and eta = 0 keep these bits
        def single(y, x, mean_x):
            dx = x - x.mean()
            resid = y - y.mean()
            b = (dx * resid).sum() / (dx * dx).sum()
            resid -= b * dx
            se = math.sqrt((resid * resid).sum() / (y.shape[0] - 2) / y.shape[0])
            return BudgetEstimate(float(y.mean() - b * (x.mean() - mean_x)), se)

        rng = np.random.default_rng(4)
        for n in (3, 4, 127, 2000, 10001):
            x = rng.lognormal(size=n)
            y = 3.0 * x + rng.normal(size=n)
            assert _estimate_from_samples(y, x, 1.5) == single(y, x, 1.5)
            assert _estimate_from_samples(y, x[None], np.array([1.5])) == single(
                y, x, 1.5
            )
        for gamma, eta, pension in ((3.0, 0.1, 0.5), (2.5, 0.1, 0.0), (3.0, 0.0, 0.0)):
            params = dataclasses.replace(
                make_params(eta=eta, pension=pension), market=MarketParams(gamma=gamma)
            )
            [(y, _, x, mean_x)] = bundle_cost(params, small_bundle).price(
                2.9, [(0, 1.0, 1.0)]
            )
            assert x.shape[0] == 1
            assert budget_value(2.9, params, small_bundle) == single(y, x[0], mean_x[0])

    @staticmethod
    def fitted_line(y, x, mean_x):
        """mean(y) - b . (mean(x) - E[x]) as the least-squares line with an
        intercept at the controls' means, and its residual SE over n - 1 - k."""
        design = np.vstack((np.ones_like(y), x)).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        n, k = design.shape
        return coef[0] + coef[1:] @ mean_x, math.sqrt((resid @ resid) / (n - k) / n)

    def test_agrees_with_a_least_squares_fit_with_intercept(self, small_bundle):
        params = make_params(eta=0.1)
        [(y, _, x, mean_x)] = bundle_cost(params, small_bundle).price(
            2.9, [(0, 1.0, 1.0)]
        )
        value, se = self.fitted_line(y, x, mean_x)
        est = _estimate_from_samples(y, x, mean_x)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-8)

    def test_habit_budget_is_exact_at_gamma_2_on_any_bundle(self):
        # at gamma 2 (n = 1) every path costs beta (h0^(1/2) M_0 + beta M_1)
        params = dataclasses.replace(
            make_params(eta=0.1, c_bar=1.3), market=MarketParams(gamma=2.0)
        )
        means = _anchor_terms(params, self.GRID.times())[-1]
        for n, seed, antithetic in ((7, 1, False), (400, 2, True), (3001, 3, False)):
            bundle = generate_paths(
                params.market, self.GRID, n, seed=seed, antithetic=antithetic
            )
            for alpha in (0.3, 2.9):
                est = budget_value(alpha, params, bundle)
                beta = alpha**-0.5
                exact = beta * (1.3**0.5 * means[1] + beta * means[2])
                assert est.value == pytest.approx(exact, rel=1e-12)
                assert est.std_error < 1e-12 * exact

    @pytest.mark.parametrize("eta", [1e-9, 1e-300])
    def test_collinear_controls(self, small_bundle, eta):
        # M_0 -> X as eta -> 0: at 1e-9 the three are still of rank 3 and
        # the cost nearly M_0's multiple, so the SE is rounding, as at eta =
        # 0; at 1e-300 X and M_0 are equal bit for bit and M_1's squares
        # underflow, so one direction is fitted: the one-control estimate
        params = make_params(eta=eta)
        [(y, _, x, mean_x)] = bundle_cost(params, small_bundle).price(
            2.9, [(0, 1.0, 1.0)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = budget_value(2.9, params, small_bundle)
        one = _estimate_from_samples(y, x[0], mean_x[0])
        assert math.isfinite(est.std_error) and est.std_error < 1e-12 * est.value
        if eta == 1e-300:
            assert np.array_equal(x[0], x[1])
            assert est.value == pytest.approx(one.value, rel=1e-14)
        else:
            assert abs(est.value - one.value) < 3.0 * one.std_error

    def test_frozen_habit_budget_is_exact_on_any_bundle(self):
        # at eta = 0 and pension 0 every path costs beta h0^(1-1/g) X
        params = make_params(eta=0.0, c_bar=1.3)
        g = params.market.gamma
        mean_x = control_mean(params, self.GRID.times())
        for n, seed, antithetic in ((7, 1, False), (400, 2, True), (3001, 3, False)):
            bundle = generate_paths(
                params.market, self.GRID, n, seed=seed, antithetic=antithetic
            )
            for alpha in (0.3, 2.9):
                est = budget_value(alpha, params, bundle)
                exact = alpha ** (-1.0 / g) * 1.3 ** (1.0 - 1.0 / g) * mean_x
                assert est.value == pytest.approx(exact, rel=1e-12)
                assert est.std_error < 1e-12 * exact

    @pytest.mark.parametrize("eta", [0.1, 2.0])
    @pytest.mark.parametrize("pension", [0.0, 0.5])
    def test_agrees_with_the_plain_mean(self, small_bundle, eta, pension):
        params = make_params(eta=eta, pension=pension)
        samples = per_path(bundle_cost(params, small_bundle), 1.0, 1.0, 1.0)
        plain = _estimate_from_samples(samples)
        est = budget_value(1.0, params, small_bundle)
        assert abs(est.value - plain.value) < 3.0 * plain.std_error
        assert 0.0 < est.std_error < plain.std_error

    @pytest.mark.parametrize("eta, pension", [(0.0, 0.0), (0.1, 0.0), (0.1, 0.5)])
    def test_solution_carries_the_plain_estimate(self, eta, pension):
        # the calibration's last sweep, not a second pricing of the density
        params = make_params(eta=eta, pension=pension)
        config = CalibrationConfig(
            grid=self.GRID, n_paths=2000, seed=8, antithetic=True
        )
        sol = calibrate_alpha(params, config)
        bundle = generate_paths(
            params.market, self.GRID, 2000, seed=8, antithetic=True
        )
        samples = per_path(
            bundle_cost(params, bundle), sol.alpha, 1.0, params.habit.initial
        )
        assert sol.plain == _estimate_from_samples(samples)

    def test_one_antithetic_pair_each_side_is_the_plain_estimate(self):
        # 4 mirrored paths are 2 samples: no residual degree of freedom
        params = make_params(eta=0.1)
        bundle = generate_paths(params.market, self.GRID, 4, seed=3, antithetic=True)
        samples = per_path(bundle_cost(params, bundle), 2.9, 1.0, 1.0)
        config = CalibrationConfig(grid=self.GRID, n_paths=4, seed=3, antithetic=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = budget_value(2.9, params, bundle)
            sol = calibrate_alpha(params, config)
        assert est == _estimate_from_samples(samples)
        assert sol.budget_residual <= config.tolerance and sol.budget_se > 0.0

    @pytest.mark.parametrize("pairs", [3, 4])
    def test_few_samples_fit_the_leading_controls(self, pairs):
        # n samples fit at most n - 2 controls, in the order X, M_0, M_1:
        # 3 mirrored pairs are the regression on X alone, 4 on X and M_0,
        # each with one residual degree of freedom (2 are the plain
        # estimate, above)
        params = make_params(eta=0.1)
        bundle = generate_paths(
            params.market, self.GRID, 2 * pairs, seed=3, antithetic=True
        )
        [(samples, _, x, mean_x)] = bundle_cost(params, bundle).price(
            2.9, [(0, 1.0, 1.0)]
        )
        config = CalibrationConfig(
            grid=self.GRID, n_paths=2 * pairs, seed=3, antithetic=True
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = budget_value(2.9, params, bundle)
            sol = calibrate_alpha(params, config)
        value, se = self.fitted_line(samples, x[: pairs - 2], mean_x[: pairs - 2])
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-8)
        assert sol.budget_residual <= config.tolerance and sol.budget_se > 0.0


class TestCalibrationDensity:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_density_without_brownian_paths(self, monkeypatch, market, antithetic):
        # 130 paths are more than one row block of streams either way; the
        # rows rebuilt from the kept kappa W are those of generate_paths at
        # the same seed, and reading them back draws nothing
        grid = TimeGrid(10.0, 0.1)
        density = _Density(_Stream(market, grid, 130, 6, antithetic, ()))
        density.steps
        full = generate_paths(market, grid, 130, seed=6, antithetic=antithetic)
        drawn = []
        monkeypatch.setattr(
            greedyhabit.market, "_fill_normals", lambda *args: drawn.append(args)
        )
        assert density.shape == full.zeta.shape
        assert np.array_equal(density_rows(density), full.zeta)
        assert drawn == []

    def test_each_config_draws_its_own_streams(self, market):
        # the calibration density is generate_paths' at the config's seed
        # and the inner one the streams of spawn key (1,); a numpy integer
        # seed draws what the int does
        grid = TimeGrid(10.0, 0.1)
        full = generate_paths(market, grid, 130, seed=6, antithetic=True)
        inner = inner_density(market, NestedConfig(n_inner=130, seed=6, grid=grid))
        for seed in (6, np.int64(6)):
            config = CalibrationConfig(
                grid=grid, n_paths=130, seed=seed, antithetic=True
            )
            assert np.array_equal(density_rows(config._density(market)), full.zeta)
            nested = NestedConfig(n_inner=130, seed=seed, grid=grid)
            assert np.array_equal(density_rows(nested._density(market)), inner)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_streamed_calibration_equals_the_stored_one(self, eta, antithetic):
        # without a bundle the kept terms (the moments at gamma 3, the sums
        # at eta = 0) are read off each block as it is drawn; every number
        # is that of the stored calibration density
        params = make_params(eta=eta)
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=1002, seed=6, antithetic=antithetic
        )
        streamed = calibrate_alpha(params, config)
        stored = calibrate_alpha(
            params, config, paths=calibration_paths(params, config)
        )
        for name in ("alpha", "budget_residual", "budget_se", "plain", "iterations"):
            assert getattr(streamed, name) == getattr(stored, name), name


    @pytest.mark.parametrize(
        "params",
        [
            make_params(eta=0.0),
            make_params(eta=0.1),
            POWER_FORM,
            make_params(eta=0.1, pension=0.5),
        ],
        ids=["sums", "moments", "power-form", "euler"],
    )
    def test_calibration_on_a_shared_pair_equals_the_stored_one(self, params):
        # a sweep's legs calibrate on one step-major copy made from the
        # stream: the Euler branch sweeps it and the closed form reads its
        # blocks back path-major, with the stored density's numbers
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=1002, seed=6, antithetic=True
        )
        density = config._density(params.market)
        density.steps
        shared = calibrate_alpha(params, config, _density=density)
        stored = calibrate_alpha(
            params, config, paths=calibration_paths(params, config)
        )
        for name in ("alpha", "budget_residual", "budget_se", "plain", "iterations"):
            assert getattr(shared, name) == getattr(stored, name), name


    @pytest.mark.parametrize("pension", [0.0, 0.5])
    def test_density_is_priced_on_its_own_grid_and_pairing(self, pension):
        # a shared density carries its step, size and pairing, so a config
        # of other ones sets only the search
        params = make_params(eta=0.1, pension=pension)
        own = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=1002, seed=6, antithetic=True
        )
        other = CalibrationConfig(grid=TimeGrid(60.0, 0.05), n_paths=400, seed=6)
        density = own._density(params.market)
        shared = calibrate_alpha(params, other, _density=density)
        assert shared == calibrate_alpha(params, own)


class TestRowBlocks:
    """The density, the kernel, ``wz``, the kernel moments, the
    closed-form costs and the nested passes on streamed inner paths are
    built in blocks of ``ROW_BLOCK`` rows, in up to ``WORKERS`` chunks of
    blocks on threads; no block size or worker count may change a result."""

    GRID = TimeGrid(60.0, 0.1)

    def results(self, market, n_paths, antithetic):
        bundle = generate_paths(
            market, self.GRID, n_paths, seed=12, antithetic=antithetic
        )
        out = {"w": bundle.w, "zeta": bundle.zeta}
        for eta in (0.1, 0.0):
            params = make_params(eta=eta)
            cost = bundle_cost(params, bundle)
            [(out["per_path", eta], _, out["control", eta], _)] = cost.price(
                2.9, [(0, 1.3, 0.8)]
            )
            out["wz", eta] = anchor_pass_terms(
                params, self.GRID.times(), bundle.zeta
            )[1]
            out["budget", eta] = budget_value(2.9, params, bundle)
        # the closed form on kernel moments (gamma 3) and on the power of
        # the kernel (gamma 2.5), for one anchor and for nested anchors
        inner = NestedConfig(
            n_inner=n_paths, seed=7, grid=self.GRID, antithetic=antithetic
        )
        for gamma in (2.5, 3.0):
            params = dataclasses.replace(
                make_params(eta=0.1), market=MarketParams(gamma=gamma)
            )
            cost = bundle_cost(params, bundle)
            out["delta", gamma] = per_path(cost, 2.9, 1.3, 0.8, delta=True)
            out["weights", gamma] = anchor_pass_terms(
                params, self.GRID.times(), bundle.zeta
            )[1]
            priced = _nested_costs(
                [(0.0, 1.3, 0.8), (10.0, 0.4, 1.1), (0.0, 2.0, 0.5)], 2.9, params,
                inner._density(params.market),
            )
            out["nested", gamma] = np.array(
                [np.hstack([np.ravel(item) for item in row]) for row in priced]
            )
        params = make_params(eta=0.1)
        out["kernel"] = bernoulli_kernel(
            params.habit, market, params.mortality, self.GRID.times(), bundle.zeta
        )[0]
        config = CalibrationConfig(
            grid=self.GRID, n_paths=n_paths, seed=12, antithetic=antithetic
        )
        sol = calibrate_alpha(params, config)
        out["scalars"] = (
            sol.alpha, sol.budget_residual, sol.budget_se, sol.iterations
        )
        # without a bundle both kept forms stream: moments here, sums at eta 0
        frozen = calibrate_alpha(make_params(eta=0.0), config)
        out["scalars", 0.0] = (
            frozen.alpha, frozen.budget_residual, frozen.budget_se,
            *frozen.plain, frozen.iterations,
        )
        out["consumption"], out["habit"] = solve_paths(sol.alpha, params, bundle)
        return out

    @pytest.mark.parametrize("n_paths, antithetic", [(2001, False), (2002, True)])
    def test_block_size_never_changes_a_result(
        self, monkeypatch, market, n_paths, antithetic
    ):
        # blocks of 7 straddle the antithetic mirror; n_paths + 1 is one
        # block.  Over 2002 rows, two chunks of 7-row blocks are cut on
        # the mirror (row 1001) and three across it; worker counts are
        # set, not read from the host, so one CPU still runs the threads
        expected = None
        for block, workers in ((n_paths + 1, 1), (7, 1), (7, 2), (7, 3), (1, 2)):
            monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", block)
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            got = self.results(market, n_paths, antithetic)
            if expected is None:
                expected = got
                continue
            for key, value in expected.items():
                assert np.array_equal(got[key], value), (block, workers, key)

    @pytest.mark.parametrize("n_paths, antithetic", [(2001, False), (2002, True)])
    def test_stream_fed_step_major_pair(self, monkeypatch, market, n_paths, antithetic):
        # each block of streams writes kappa W transposed into the kept
        # step-major array; with antithetic paths the chunks split the
        # 1001 streams, so every chunk sweeps columns on both sides of the
        # mirror.  In every state of a density, chunks gives its rows and
        # step its steps bit for bit.  The Euler sweep takes zeta^(-1/g)
        # per step on each thread's columns, with the bits of the
        # oracle's path-major power
        bundle = generate_paths(
            market, self.GRID, n_paths, seed=12, antithetic=antithetic
        )
        params = make_params(eta=0.1, pension=0.5)
        anchors = [self.GRID.times(), self.GRID.times()[100:]]
        states = [(0, 1.3, 0.8), (1, 0.9, 1.0)]
        oracle = [
            reference_euler(
                2.9, params, anchors[j], bundle.zeta[:, : anchors[j].shape[0]],
                self.GRID.dt, y, h,
            )
            for j, y, h in states
        ]
        stream = _Stream(market, self.GRID, n_paths, 12, antithetic, ())
        for block in (1, 7, n_paths + 1):
            for workers in (1, 2, 3):
                monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", block)
                monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
                stored = _Density(bundle)
                streamed = _Density(stream)
                kept = _Density(stream)
                for state, density in (("stored", stored), ("streamed", streamed)):
                    assert np.array_equal(density_rows(density), bundle.zeta), (
                        block, workers, state,
                    )
                kept.steps
                assert np.array_equal(density_rows(kept), bundle.zeta), (
                    block, workers, "kept",
                )
                for state, density in (
                    ("stored", stored), ("streamed", streamed), ("kept", kept)
                ):
                    assert np.array_equal(density_steps(density), bundle.zeta.T), (
                        block, workers, state,
                    )
                    cost, delta = _euler_costs(
                        params, 2.9, density, anchors, states, True
                    )
                    for r, want in enumerate(oracle):
                        assert np.array_equal(cost[r], want[0]), (block, workers, r)
                        assert np.array_equal(delta[r], want[3]), (block, workers, r)
                    # and its rows read after the kept array exists
                    assert np.array_equal(density_rows(density), bundle.zeta), (
                        block, workers, state, "steps",
                    )

    @pytest.mark.parametrize("n_paths, antithetic", [(209, False), (210, True)])
    def test_streamed_nested_pass_equals_the_stored_one(
        self, monkeypatch, market, n_paths, antithetic
    ):
        # the inner paths are never stored: the closed form reads the
        # stream's blocks, each antithetic half a block of its own; the
        # Euler branch sweeps kappa W kept step-major from them, whose
        # rebuilt rows the closed form then reads back.  Each prices what
        # one functional does on the stored density of the same rows, and
        # the Euler branch what the path-major oracle does.  Over 210
        # rows, two chunks of 7-row blocks of the rebuilt rows are cut on
        # the mirror (row 105) and three across it
        config = NestedConfig(
            n_inner=n_paths, seed=7, grid=self.GRID, antithetic=antithetic
        )
        zeta = inner_density(market, config)
        starts = (0.0, 10.0, 35.0)
        states = [(0.0, 1.3, 0.8), (35.0, 0.9, 1.0), (10.0, 0.4, 1.1), (0.0, 2.0, 0.5)]
        anchors = [
            t + np.arange(self.GRID.n_steps - self.GRID.index_of(t) + 1) * self.GRID.dt
            for t in starts
        ]
        rows = [(starts.index(t), y, h) for t, y, h in states]
        # kernel moments (gamma 3), the eta = 0 sums and the power of the
        # kernel (gamma 2.5), then the Euler branch
        branches = [
            dataclasses.replace(make_params(eta=eta), market=MarketParams(gamma=gamma))
            for gamma, eta in ((3.0, 0.1), (3.0, 0.0), (2.5, 0.1))
        ]
        branches += [dataclasses.replace(p, pension=0.5) for p in branches[::2]]
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", n_paths + 1)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 1)
        expected = [
            _CostFunctional(
                p, anchors, stored_density(zeta, self.GRID.dt, antithetic)
            ).price(2.9, rows, True)
            for p in branches
        ]
        for p, priced in zip(branches[3:], expected[3:]):
            for (j, y, h), (cost, delta, _, _) in zip(rows, priced):
                times = anchors[j]
                want = reference_euler(
                    2.9, p, times, zeta[:, : times.shape[0]], self.GRID.dt, y, h
                )
                assert np.array_equal(cost, _pair_average(want[0], antithetic))
                assert np.array_equal(delta, _pair_average(want[3], antithetic))
        for block, workers in ((n_paths + 1, 1), (7, 1), (7, 2), (7, 3), (1, 2)):
            monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", block)
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            inners = {g: config._density(MarketParams(gamma=g)) for g in (2.5, 3.0)}
            # the closed forms stream, the Euler branch keeps kappa W, and
            # the closed forms read back the rows rebuilt from it
            for i in (0, 1, 2, 3, 4, 0, 1, 2):
                p = branches[i]
                got = _nested_costs(states, 2.9, p, inners[p.market.gamma])
                for r, (a, b) in enumerate(zip(got, expected[i])):
                    assert all(
                        x is y is None or np.array_equal(x, y) for x, y in zip(a, b)
                    ), (block, workers, i, r)
            for g, inner in inners.items():
                assert np.array_equal(density_steps(inner), zeta.T), (
                    block, workers, g,
                )

    @pytest.mark.parametrize("n_paths, antithetic", [(209, False), (210, True)])
    def test_stream_keeps_kappa_w_of_its_streams(
        self, monkeypatch, market, n_paths, antithetic
    ):
        # a stream keeps kappa W of its streams alone, step-major: half the
        # paths with mirrors.  Blocks of 7 on 3 workers cut 210 rows into
        # chunks of 70, so the middle one crosses the mirror (row 105).
        # Every row rebuilt by chunks, and every step rebuilt by step on
        # all paths or on each chunk's run of them, has generate_paths' bits
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 7)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 3)
        bundle = generate_paths(
            market, self.GRID, n_paths, seed=12, antithetic=antithetic
        )
        density = _Density(_Stream(market, self.GRID, n_paths, 12, antithetic, ()))
        kept = density.steps
        streams = n_paths // 2 if antithetic else n_paths
        assert kept.shape == (self.GRID.n_steps + 1, streams)
        assert kept.dtype == np.float64
        assert np.array_equal(density_rows(density), bundle.zeta)
        assert np.array_equal(density_steps(density), bundle.zeta.T)
        runs = [slice(lo, min(lo + 70, n_paths)) for lo in range(0, n_paths, 70)]
        for k in range(self.GRID.n_steps + 1):
            row = np.hstack(
                [density.step(k, r, np.empty(r.stop - r.start)) for r in runs]
            )
            assert np.array_equal(row, bundle.zeta[:, k]), k

    def test_unread_solution_holds_no_arrays(self):
        params = make_params(eta=0.1, pension=0.5)
        config = CalibrationConfig(
            grid=self.GRID, n_paths=400, seed=5, antithetic=True
        )
        sol = calibrate_alpha(params, config)
        assert not any(isinstance(x, np.ndarray) for x in vars(sol).values())


class TestWorkspaces:
    """Every thread chunk writes its blocks, anchors and steps into buffers
    it allocates once, so no price may read what another state, anchor,
    block, call or chunk left there: two alphas in turn on one functional
    equal fresh functionals that each price one state, bit for bit."""

    GRID = TimeGrid(30.0, 0.25)
    # 138 streams: row blocks of 64, 64 and a last one of 10, each mirrored
    N_PATHS = 276
    # anchors at t = 0, 10 and 20, in no order of length
    STATES = [(1, 1.3, 0.8), (0, 0.4, 1.1), (1, 2.0, 0.5), (2, 0.9, 1.2), (0, 1.0, 1.0)]

    def functional(self, params):
        times = self.GRID.times()
        anchors = [times[40:], times, times[80:]]
        stream = _Stream(params.market, self.GRID, self.N_PATHS, 3, True, (1,))
        return _CostFunctional(params, anchors, _Density(stream))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "params",
        [POWER_FORM, make_params(eta=0.1, pension=0.5)],
        ids=["power-form", "euler"],
    )
    def test_no_buffer_is_stale_or_shared(self, monkeypatch, params, workers):
        assert greedyhabit.market.ROW_BLOCK == 64
        monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
        shared = self.functional(params)
        for alpha in (2.9, 0.7):
            priced = shared.price(alpha, self.STATES, delta=True)
            for state, got in zip(self.STATES, priced):
                [want] = self.functional(params).price(alpha, [state], delta=True)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (alpha, state)


class TestCalibrationMemory:
    """Peak traced memory of a calibration, in full (paths x times) arrays.

    numpy reports its buffers to tracemalloc, so the peak is
    deterministic; a second thread adds only its blocks' temporaries.
    """

    CONFIG = CalibrationConfig(
        grid=TimeGrid(60.0, 0.05), n_paths=2000, seed=5, antithetic=True
    )

    def peaks(self, monkeypatch, params, config):
        for workers in (1, 2):
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            tracemalloc.start()
            try:
                calibrate_alpha(params, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            yield workers, peak

    def assert_peak(self, monkeypatch, params, bound, config=CONFIG):
        full = config.n_paths * (config.grid.n_steps + 1) * 8
        for workers, peak in self.peaks(monkeypatch, params, config):
            assert peak <= bound * full, workers

    @pytest.mark.parametrize("pension", [0.0, 0.5])
    def test_peak_is_a_few_full_arrays(self, monkeypatch, pension):
        # with a pension, the Euler branch's kappa W of the 1000 streams,
        # kept step-major from the stream with no path-major density or
        # stored power beside it, and the stream's blocks: 0.64 full arrays
        # on one worker and 0.77 on two (1.14 and 1.27 when it kept zeta,
        # 2.2 and 2.3 with its power); at pension 0 the streamed moments
        # take 0.31 and 0.54
        self.assert_peak(monkeypatch, make_params(eta=0.1, pension=pension), 0.85)

    def test_moments_keep_no_full_kernel_or_weights(self, monkeypatch):
        # at gamma 3 calibration keeps three moments per path, so the peak
        # is at most the density and the blocks' temporaries (the kernel
        # and wz stored in their place made it about 3.1 full arrays);
        # without a bundle the density is streamed, and it is less
        self.assert_peak(monkeypatch, make_params(eta=0.1), 1.5)

    def test_power_form_keeps_no_full_kernel_or_weights(self, monkeypatch):
        # at gamma 2.5 every call prices its blocks inside the pass, so
        # the peak is the kept kappa W of the streams and the blocks'
        # temporaries: 0.71 full arrays on one worker and 0.91 on two
        # (1.17 and 1.34 with the density stored path-major; a full kernel
        # and wz kept for every alpha made it about 3.1 arrays)
        self.assert_peak(monkeypatch, POWER_FORM, 1.0)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_streamed_calibration_holds_no_full_array(self, monkeypatch, eta):
        # without a bundle, on the kept terms, each chunk reduces its block
        # of streams to moments (or sums at eta = 0) before it draws the
        # next, so the peak is a few blocks per worker at any path count
        config = dataclasses.replace(self.CONFIG, n_paths=8000)
        self.assert_peak(monkeypatch, make_params(eta=eta), 0.35, config)

    @pytest.mark.parametrize("n_paths", [2000, 8000])
    def test_streamed_peak_per_worker_in_blocks(self, monkeypatch, n_paths):
        # a chunk holds a block of streams, its Brownian rows and its
        # density with the mirror's (4 ROW_BLOCK x n_times blocks with dw)
        # and one workspace (log_z, k, kernel and temp, 4 more) whatever
        # the path count: 8.3-8.9 blocks per worker (9.3-9.9 with the
        # mirror's Brownian rows, 10.3-11.9 when every block made its
        # temporaries afresh).  A first draw imports numpy.random, so one
        # is made before tracing
        generate_paths(MarketParams(), TimeGrid(1.0, 0.5), 2)
        config = dataclasses.replace(self.CONFIG, n_paths=n_paths)
        block = greedyhabit.market.ROW_BLOCK * (config.grid.n_steps + 1) * 8
        for workers, peak in self.peaks(monkeypatch, make_params(eta=0.1), config):
            assert peak <= 10.25 * workers * block, (workers, peak / block)


class TestKernelMoments:
    """At a whole gamma - 1 = n the closed form sums n + 1 kernel moments.

    The oracle is the power of the kernel through the same code, with
    ``_moment_order`` patched to None: the calibration functional's cost
    and delta, and the nested pricing of 3 anchors x 5 states, must agree
    to rounding.
    """

    GRID = TimeGrid(60.0, 0.1)
    STATES = [
        (t, y, h)
        for t in (0.0, 10.0, 30.0)
        for y, h in ((1.0, 1.0), (0.2, 1.0), (5.0, 0.5), (1.3, 0.8), (0.05, 2.0))
    ]

    def test_only_a_whole_gamma_selects_moments(self):
        assert [_moment_order(g) for g in (2, 2.0, 3.0, 5.0, 10.0, 54.0)] == [
            1, 1, 2, 4, 9, 53
        ]
        for gamma in (0.5, 1.5, 2.5, 3.0000000000000004, 55.0, 1e300):
            assert _moment_order(gamma) is None

    @pytest.mark.parametrize("gamma", [2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("eta", [0.1, 2.0])
    def test_equals_the_power_form(self, monkeypatch, gamma, eta):
        params = dataclasses.replace(
            make_params(eta=eta), market=MarketParams(gamma=gamma)
        )
        bundle = generate_paths(
            params.market, self.GRID, 400, seed=12, antithetic=True
        )
        nested = NestedConfig(n_inner=400, seed=7, grid=self.GRID)

        def run():
            cost = bundle_cost(params, bundle)
            kernel = anchor_pass_terms(params, self.GRID.times(), bundle.zeta)[0]
            priced = _nested_costs(
                self.STATES, 2.9, params, nested._density(params.market)
            )
            return kernel, per_path(cost, 2.9, 1.3, 0.8, delta=True), priced

        kernel, moments, nested_moments = run()
        assert kernel is None
        monkeypatch.setattr(greedyhabit.solver, "_moment_order", lambda g: None)
        kernel, power, nested_power = run()
        assert kernel is not None
        for got, want in zip(moments, power):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        for got, want in zip(nested_moments, nested_power):
            for a, b in zip(got[:2], want[:2]):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)
            # the power form regresses on X alone, the moments on X, M_0, M_1
            assert got[2].shape[0] == got[3].shape[0] == 3
            assert np.array_equal(got[2][:1], want[2]) and got[3][0] == want[3]


class TestPathwiseDelta:
    """y * d(cost)/dy per path, from the sweep that prices the cost.

    The oracle is a per-path central difference of the cost itself (the
    closed form, or the path-major Euler loop of ``conftest``): off the
    pension floor every path's cost is smooth in y, so the two agree to
    O(bump^2).  The constant is 4 at gamma = 0.5 and eta = 0, where the
    cost is proportional to y^(-2); the bound allows 5.
    """

    GRID = TimeGrid(60.0, 0.1)
    STATE = 2.9, 1.3, 0.8  # alpha, y, h

    def assert_central_difference(self, delta, cost, cost_at):
        _, y, _ = self.STATE
        for bump in (1e-2, 1e-3):
            diff = (cost_at(y * (1.0 + bump)) - cost_at(y * (1.0 - bump))) / (
                2.0 * bump
            )
            assert np.all(np.abs(delta - diff) <= 5.0 * bump**2 * np.abs(cost))

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_closed_form(self, gamma, eta):
        params = make_params(eta=eta)
        params = dataclasses.replace(params, market=MarketParams(gamma=gamma))
        bundle = generate_paths(
            params.market, self.GRID, 200, seed=12, antithetic=True
        )
        cost = bundle_cost(params, bundle)
        alpha, y, h = self.STATE
        f, delta = per_path(cost, alpha, y, h, delta=True)
        assert np.array_equal(f, per_path(cost, alpha, y, h))
        self.assert_central_difference(
            delta, f, lambda level: per_path(cost, alpha, level, h)
        )

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_euler_tangent_without_pension(self, gamma):
        params = make_params(eta=0.1)
        params = dataclasses.replace(params, market=MarketParams(gamma=gamma))
        zeta = generate_paths(params.market, self.GRID, 200, seed=12).zeta
        times, dt = self.GRID.times(), self.GRID.dt
        density = stored_density(zeta, dt)
        cost = _CostFunctional(euler_at_zero(params), [times], density)
        alpha, y, h = self.STATE

        def reference(level):
            return reference_euler(alpha, params, times, zeta, dt, level, h)[0]

        f, delta = per_path(cost, alpha, y, h, delta=True)
        assert np.array_equal(f, reference(y))
        self.assert_central_difference(delta, f, reference)

    def test_block_size_never_changes_the_delta(self, monkeypatch, market):
        bundle = generate_paths(market, self.GRID, 202, seed=12, antithetic=True)
        expected = None
        # two chunks of 1-row blocks are cut on the mirror (row 101); the
        # chunks of 7-row blocks are cut across it
        for block, workers in ((203, 1), (7, 1), (7, 2), (7, 3), (1, 2)):
            monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", block)
            monkeypatch.setattr(greedyhabit.market, "WORKERS", workers)
            cost = bundle_cost(make_params(eta=0.1), bundle)
            got = per_path(cost, *self.STATE, delta=True)
            if expected is None:
                expected = got
            assert all(np.array_equal(a, b) for a, b in zip(got, expected)), (
                block,
                workers,
            )
