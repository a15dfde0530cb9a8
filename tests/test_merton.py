"""Zero-habit baseline: constant allocation, annuity factor, exact budget.

With no habit channel the greedy rule collapses to the classical
constant-allocation solution with mortality-weighted horizon, which
gives this package its only closed-form anchor.  The annuity factor is
cross-checked against an independent dense trapezoid quadrature, and the
exact budget map is cross-checked against the Monte Carlo budget used
everywhere else.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import greedyhabit
from greedyhabit import (
    CalibrationConfig,
    GompertzParams,
    HabitParams,
    MarketParams,
    ModelParams,
    budget_value,
    merton_alpha,
    merton_annuity,
    merton_budget,
    merton_propensity,
    merton_theta,
    TimeGrid,
    calibrate_alpha,
    survival_probability,
)
from conftest import control_mean, make_params


def annuity_by_trapezoid(market, mortality, t, t_max=60.0, n=240000):
    """Independent quadrature of the annuity integrand on a dense grid."""
    g = market.gamma
    a = 1.0 - 1.0 / g
    rate = market.rho / g + a * (market.r + market.kappa**2 / (2.0 * g))
    s = np.linspace(0.0, t_max - t, n + 1)
    aged = GompertzParams(
        age=mortality.age + t,
        modal_age=mortality.modal_age,
        dispersion=mortality.dispersion,
    )
    integrand = survival_probability(aged, s) ** (1.0 / g) * np.exp(-rate * s)
    return np.trapezoid(integrand, s)


class TestTheta:
    def test_paper_defaults(self):
        assert merton_theta(MarketParams()) == pytest.approx(0.78125, abs=1e-15)

    def test_higher_risk_aversion(self):
        assert merton_theta(MarketParams(gamma=5.0)) == pytest.approx(
            0.46875, abs=1e-15
        )

    def test_no_premium_no_stock(self):
        assert merton_theta(MarketParams(mu=0.02, r=0.02)) == 0.0

    def test_vanishes_as_gamma_grows(self):
        assert merton_theta(MarketParams(gamma=1e6)) < 1e-5


class TestAnnuity:
    def setup_method(self):
        self.market = MarketParams()
        self.mortality = GompertzParams()

    def test_against_dense_trapezoid(self):
        for t in (0.0, 10.0, 20.0):
            quad = merton_annuity(self.market, self.mortality, t)
            dense = annuity_by_trapezoid(self.market, self.mortality, t)
            assert quad == pytest.approx(dense, rel=1e-7)

    def test_regression_values(self):
        assert merton_annuity(self.market, self.mortality, 0.0) == pytest.approx(
            17.801704423755076, rel=1e-9
        )
        assert merton_annuity(self.market, self.mortality, 10.0) == pytest.approx(
            14.295766133936004, rel=1e-9
        )
        assert merton_annuity(self.market, self.mortality, 20.0) == pytest.approx(
            10.339816093871415, rel=1e-9
        )

    def test_decreasing_in_t(self):
        values = [
            merton_annuity(self.market, self.mortality, t)
            for t in (0.0, 15.0, 30.0, 45.0, 59.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            merton_annuity(self.market, self.mortality, 60.0)
        with pytest.raises(ValueError):
            merton_annuity(self.market, self.mortality, -1.0)

    def test_package_import_leaves_scipy_to_the_oracle(self):
        # a fresh interpreter, since this one has scipy loaded already
        script = (
            "import json, sys\n"
            "import greedyhabit, greedyhabit.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "value = greedyhabit.merton_annuity(\n"
            "    greedyhabit.MarketParams(), greedyhabit.GompertzParams()\n"
            ")\n"
            "print(json.dumps([loaded, value]))\n"
        )
        src = os.path.dirname(os.path.dirname(greedyhabit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        loaded, value = json.loads(out)
        assert loaded == []
        assert value == merton_annuity(self.market, self.mortality)


class TestBudget:
    def setup_method(self):
        self.market = MarketParams()
        self.mortality = GompertzParams()

    def test_alpha_scaling(self):
        # alpha enters only as alpha^(-1/gamma): 8x alpha halves the budget
        b1 = merton_budget(1.0, self.market, self.mortality)
        b8 = merton_budget(8.0, self.market, self.mortality)
        assert b8 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_c_bar_scaling(self):
        b1 = merton_budget(1.0, self.market, self.mortality, c_bar=1.0)
        b2 = merton_budget(1.0, self.market, self.mortality, c_bar=2.0)
        assert b2 == pytest.approx(b1 * 2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_alpha_inversion_round_trip(self):
        for v in (5.0, 10.0, 30.0):
            alpha = merton_alpha(v, self.market, self.mortality)
            assert merton_budget(
                alpha, self.market, self.mortality
            ) == pytest.approx(v, rel=1e-10)

    def test_alpha_regression_values(self):
        ref = {
            5.0: 45.13097795202278,
            10.0: 5.641372244002848,
            30.0: 0.2089397127408462,
        }
        for v, alpha in ref.items():
            assert merton_alpha(v, self.market, self.mortality) == pytest.approx(
                alpha, rel=1e-9
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            merton_budget(0.0, self.market, self.mortality)
        with pytest.raises(ValueError):
            merton_alpha(-5.0, self.market, self.mortality)
        # a NaN, or a negative c_bar's complex power, may not pass silently
        m, mort = self.market, self.mortality
        for bad in (0.0, -1.0, float("nan")):
            for call in (
                lambda: merton_budget(bad, m, mort),
                lambda: merton_budget(1.0, m, mort, c_bar=bad),
                lambda: merton_alpha(bad, m, mort),
                lambda: merton_alpha(10.0, m, mort, c_bar=bad),
            ):
                with pytest.raises(ValueError, match="must be positive"):
                    call()

    def test_monte_carlo_budget_agrees(self, small_bundle):
        # the exact map on the grid, alpha^(-1/gamma) E[X], and the
        # trapezoid/path estimator must meet within Monte Carlo noise and
        # rounding at several multipliers; the grid's gap to
        # merton_budget is test_grid_budget_gap_is_second_order's
        params = make_params(eta=0.0)
        mean_x = control_mean(params, small_bundle.grid.times())
        for alpha in (0.1, 1.0, 10.0):
            est = budget_value(alpha, params, small_bundle)
            exact = alpha ** (-1.0 / self.market.gamma) * mean_x
            assert abs(est.value - exact) < 3.0 * est.std_error + 1e-12 * exact, (
                f"alpha={alpha}: {est.value} vs {exact} (se {est.std_error})"
            )

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_grid_budget_gap_is_second_order(self, gamma):
        # the grid's exact eta = 0 budget is the trapezoid rule on the
        # annuity integrand: its gap to the quadrature shrinks 4x per
        # halving of dt (4.5e-7 relative at dt 0.05 and gamma 3)
        market = MarketParams(gamma=gamma)
        params = ModelParams(market=market, habit=HabitParams(eta=0.0))
        exact = merton_budget(1.0, market, self.mortality)
        gaps = [
            control_mean(params, TimeGrid(60.0, dt).times()) - exact
            for dt in (0.2, 0.1, 0.05)
        ]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=1e-3)
        assert abs(gaps[-1]) < 1e-6 * exact

    def test_calibration_hits_the_exact_multiplier_on_every_seed(self):
        # merton-check's settings (40000 antithetic paths, tolerance 1e-4)
        # on a coarse grid: the plain sample mean put alpha up to 1.8%
        # off, the control leaves the trapezoid rule's gap, about 3e-5
        params = make_params(eta=0.0)
        exact = merton_alpha(params.v, self.market, self.mortality)
        for seed in range(1, 9):
            config = CalibrationConfig(
                grid=TimeGrid(60.0, 0.25),
                n_paths=40000,
                seed=seed,
                tolerance=1e-4,
                antithetic=True,
            )
            alpha = calibrate_alpha(params, config).alpha
            assert abs(alpha - exact) / exact < 1e-3, seed


class TestPropensity:
    def setup_method(self):
        self.market = MarketParams()
        self.mortality = GompertzParams()

    def test_reciprocal_of_annuity(self):
        a = merton_annuity(self.market, self.mortality, 10.0)
        assert merton_propensity(self.market, self.mortality, 10.0) == (
            pytest.approx(1.0 / a, rel=1e-12)
        )

    def test_rises_toward_horizon(self):
        p0 = merton_propensity(self.market, self.mortality, 0.0)
        p50 = merton_propensity(self.market, self.mortality, 50.0)
        assert p50 > p0 > 0.0

    def test_impatience_raises_consumption(self):
        eager = MarketParams(rho=0.2)
        assert merton_propensity(eager, self.mortality, 0.0) > (
            merton_propensity(self.market, self.mortality, 0.0)
        )

