"""Greedy consumption rule, pathwise solver, budget estimator, calibration.

The multiplier calibration is a bisection on a strictly decreasing
Monte Carlo budget map; these tests nail the rule's arithmetic, the
pathwise solver's two branches, the exact pathwise alpha-scaling of the
budget at eta = 0, and the bookkeeping the calibration reports back.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyhabit import (
    CalibrationConfig,
    CalibrationError,
    BudgetMonotonicityError,
    GompertzParams,
    MarketParams,
    TimeGrid,
    budget_value,
    calibrate_alpha,
    consumption_no_pension,
    consumption_with_pension,
    generate_paths,
    solve_paths,
    survival_probability,
)
import greedyhabit.market
from greedyhabit.habit import bernoulli_kernel
from greedyhabit.market import log_survival_probability
from greedyhabit.solver import _bundle_cost, _calibration_paths
from conftest import make_params, reference_euler


def reference_budget(alpha, params, bundle):
    """Per-path budget samples as the sums were written before the cost functional.

    The closed-form sum (pension 0) and the path-major Euler loop
    (pension > 0), averaged over antithetic pairs when the bundle has
    them; kept as an oracle for the expression order the solver must
    preserve.
    """
    times, zeta, dt = bundle.grid.times(), bundle.zeta, bundle.grid.dt
    g, eta, pi = params.market.gamma, params.habit.eta, params.pension
    wgt = np.empty_like(times)
    wgt[1:-1] = 0.5 * (times[2:] - times[:-2])
    wgt[0] = 0.5 * (times[1] - times[0])
    wgt[-1] = 0.5 * (times[-1] - times[-2])
    log_p = log_survival_probability(params.mortality, times)
    shadow = np.exp((-params.market.rho * times + log_p) / g)
    beta = alpha ** (-1.0 / g)
    if pi == 0.0:
        kernel, decay = bernoulli_kernel(
            params.habit, params.market, params.mortality, times, zeta
        )
        wz = zeta ** (1.0 - 1.0 / g) * (shadow * decay ** (g - 1.0)) * wgt
        u0 = params.habit.initial ** (1.0 / g)
        y = beta * ((u0 + (eta / g) * beta * kernel) ** (g - 1.0) * wz).sum(axis=1)
    else:
        y = reference_euler(alpha, params, times, zeta, dt)[0]
    if bundle.antithetic:
        half = y.shape[0] // 2
        y = 0.5 * (y[:half] + y[half:])
    return y


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
        c_cf, h_cf = solve_paths(3.0, params, bundle, method="closed_form")
        c_eu, h_eu = solve_paths(3.0, params, bundle, method="euler")
        c_auto, h_auto = solve_paths(3.0, params, bundle, method="auto")
        assert np.array_equal(c_auto, c_cf)
        assert np.array_equal(h_auto, h_cf)
        # Euler carries O(dt) error against the exact recursion
        rel = np.abs(h_eu - h_cf) / h_cf
        assert 0.0 < rel.max() < 5.0 * grid.dt

    def test_closed_form_rejects_pension(self, market):
        grid = TimeGrid(5.0, 0.05)
        bundle = generate_paths(market, grid, 8, seed=2)
        params = make_params(eta=0.1, pension=1.0)
        with pytest.raises(ValueError, match="pension"):
            solve_paths(3.0, params, bundle, method="closed_form")

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
        _, c_ref, h_ref = reference_euler(
            5.0, params, grid.times(), bundle.zeta, grid.dt
        )
        assert c.shape == h.shape == (128, grid.n_steps + 1)
        assert np.array_equal(c, c_ref)
        assert np.array_equal(h, h_ref)

    def test_unknown_method(self, market):
        grid = TimeGrid(1.0, 0.05)
        bundle = generate_paths(market, grid, 4, seed=2)
        with pytest.raises(ValueError, match="method"):
            solve_paths(1.0, make_params(), bundle, method="rk4")


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
        assert b1.std_error > 0.0

    def test_matches_reference_sums(self, small_bundle, market):
        # same arithmetic in the same order, so the match is exact,
        # path by path as well as in the mean and SE
        plain = generate_paths(market, small_bundle.grid, 2001, seed=8)
        for bundle in (small_bundle, plain):
            for pension in (0.5, 0.0):
                params = make_params(eta=0.1, pension=pension)
                ref = reference_budget(2.9, params, bundle)
                samples = _bundle_cost(params, bundle).per_path(
                    2.9, 1.0, params.habit.initial
                )
                assert np.array_equal(samples, ref)
                est = budget_value(2.9, params, bundle)
                assert est.value == ref.mean()
                assert est.std_error == ref.std(ddof=1) / math.sqrt(ref.shape[0])

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
        assert np.all(sol.consumption >= 1.5 - 1e-15)

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


class TestCalibrationDensity:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_density_without_brownian_paths(self, market, antithetic):
        # 130 paths are more than one row block of streams either way
        config = CalibrationConfig(
            grid=TimeGrid(10.0, 0.1), n_paths=130, seed=6, antithetic=antithetic
        )
        bundle = _calibration_paths(market, config)
        full = generate_paths(
            market, config.grid, 130, seed=6, antithetic=antithetic
        )
        assert bundle.w is None
        assert np.array_equal(bundle.zeta, full.zeta)
        assert (bundle.grid, bundle.n_paths, bundle.seed, bundle.antithetic) == (
            full.grid,
            full.n_paths,
            full.seed,
            full.antithetic,
        )


class TestRowBlocks:
    """The density, the kernel, ``wz`` and the closed-form costs are built
    in blocks of ``ROW_BLOCK`` rows; no block size may change a result."""

    GRID = TimeGrid(60.0, 0.1)

    def results(self, market, n_paths, antithetic):
        bundle = generate_paths(
            market, self.GRID, n_paths, seed=12, antithetic=antithetic
        )
        out = {"w": bundle.w, "zeta": bundle.zeta}
        for eta in (0.1, 0.0):
            params = make_params(eta=eta)
            cost = _bundle_cost(params, bundle)
            out["per_path", eta] = cost.per_path(2.9, 1.3, 0.8)
            out["wz", eta] = cost._wz
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
        # the arrays are solved on first read, on the density rebuilt
        # from the seed, which is the bundle's
        consumption, habit = solve_paths(sol.alpha, params, bundle)
        assert np.array_equal(sol.consumption, consumption)
        assert np.array_equal(sol.habit, habit)
        out["consumption"], out["habit"] = consumption, habit
        return out

    @pytest.mark.parametrize("n_paths, antithetic", [(2001, False), (2002, True)])
    def test_block_size_never_changes_a_result(
        self, monkeypatch, market, n_paths, antithetic
    ):
        # blocks of 7 straddle the antithetic mirror; n_paths + 1 is one block
        expected = None
        for block in (n_paths + 1, 7, 1):
            monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", block)
            got = self.results(market, n_paths, antithetic)
            if expected is None:
                expected = got
                continue
            for key, value in expected.items():
                assert np.array_equal(got[key], value), (block, key)

    def test_unread_solution_holds_no_arrays(self):
        params = make_params(eta=0.1, pension=0.5)
        config = CalibrationConfig(
            grid=self.GRID, n_paths=400, seed=5, antithetic=True
        )
        sol = calibrate_alpha(params, config)
        assert not any(isinstance(x, np.ndarray) for x in vars(sol).values())
        c = sol.consumption
        assert sol.consumption is c and sol.habit.shape == c.shape


class TestCalibrationMemory:
    @pytest.mark.parametrize("pension", [0.0, 0.5])
    def test_peak_is_a_few_full_arrays(self, pension):
        # numpy reports its buffers to tracemalloc, so the peak is
        # deterministic: the density, kernel and wz, or the Euler
        # branch's step-major density and its power, are three full arrays
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.05), n_paths=2000, seed=5, antithetic=True
        )
        params = make_params(eta=0.1, pension=pension)
        tracemalloc.start()
        try:
            calibrate_alpha(params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full = config.n_paths * (config.grid.n_steps + 1) * 8
        assert peak <= 3.5 * full
