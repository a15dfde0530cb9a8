"""Valid but extreme parameters: finite numbers or a clear error.

Each regime is calibrated on a small antithetic bundle and then priced
by one nested allocation estimate.  The result must be a finite
multiplier, wealth and risky fraction, or a risky fraction flagged
unreliable; a NaN or overflow may not pass silently, so numpy warnings
fail these tests.
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
    NestedConfig,
    TimeGrid,
    allocation_at,
    calibrate_alpha,
)
import greedyhabit.solver
from greedyhabit.allocation import _allocations, _nested_costs
from greedyhabit.solver import _CostFunctional
from conftest import spy_sweeps

GRID = TimeGrid(60.0, 0.1)
CALIBRATION = CalibrationConfig(grid=GRID, n_paths=400, seed=3, antithetic=True)
NESTED = NestedConfig(n_inner=200, seed=4, grid=GRID)


def params(gamma=3.0, eta=0.1, pension=0.0, v=10.0, age=65.0):
    return ModelParams(
        market=MarketParams(gamma=gamma),
        mortality=GompertzParams(age=age),
        habit=HabitParams(eta=eta),
        pension=pension,
        v=v,
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model, zeta",
    [
        pytest.param(params(gamma=0.5), 1.0, id="gamma-0.5"),
        pytest.param(params(gamma=0.5, pension=0.5), 1.0, id="gamma-0.5-pension"),
        pytest.param(params(eta=9.9, pension=0.5), 1.0, id="eta-dt-0.99-pension"),
        pytest.param(params(age=95.0), 1.0, id="age-95"),
        pytest.param(params(age=110.0), 1.0, id="age-110"),
        pytest.param(params(v=0.01), 1.0, id="v-0.01"),
        pytest.param(params(v=1e4), 1.0, id="v-1e4"),
        pytest.param(params(), math.exp(6.0), id="zeta-e6"),
        pytest.param(params(), math.exp(-6.0), id="zeta-e-6"),
        pytest.param(params(pension=0.5), math.exp(6.0), id="zeta-e6-pension"),
        pytest.param(params(pension=0.5), math.exp(-6.0), id="zeta-e-6-pension"),
    ],
)
def test_finite_or_flagged(model, zeta):
    solution = calibrate_alpha(model, CALIBRATION)
    assert math.isfinite(solution.alpha) and solution.alpha > 0.0
    est = allocation_at(0.0, zeta, model.habit.initial, solution.alpha, model, NESTED)
    assert math.isfinite(est.wealth.value) and est.wealth.value > 0.0
    assert math.isfinite(est.wealth.std_error)
    if est.reliable:
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
    else:
        assert np.isnan(est.value)


def test_euler_step_of_one_is_rejected():
    # eta * dt = 1 would set the habit to the last consumption each step
    with pytest.raises(ValueError, match="grid too coarse"):
        calibrate_alpha(params(eta=10.0, pension=0.5), CALIBRATION)


def test_coarse_grid_error_names_eta_dt_and_the_stable_step():
    # the Euler sweep needs dt < 1 / eta: 0.1 at eta 10 on steps of 0.1
    with pytest.raises(ValueError, match="grid too coarse") as info:
        calibrate_alpha(params(eta=10.0, pension=0.5), CALIBRATION)
    message = str(info.value)
    assert f"eta = 10.0, dt = {CALIBRATION.grid.dt}" in message
    assert "dt < 1/eta = 0.1" in message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deep_paths_price_in_float64(monkeypatch):
    # at sigma 0.03 (kappa 2) consumption on deep paths passes float32's
    # range, so each float32 sweep of the calibration gives a non-finite
    # cost and runs again in float64, quietly: the alpha is the one float64
    # sweeps give (recorded, numpy 2.4 on x86-64, before the pricer's
    # sweep stepped in float32)
    model = dataclasses.replace(
        params(pension=0.5), market=MarketParams(sigma=0.03)
    )
    log = spy_sweeps(monkeypatch)
    solution = calibrate_alpha(model, CALIBRATION)
    assert log.count(np.float64) == log.count(np.float32) > 0
    assert solution.alpha == pytest.approx(0.03261743500149655, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pension", [0.0, 0.5])
@pytest.mark.parametrize(
    "market",
    [MarketParams(sigma=0.05), MarketParams(gamma=10.0)],
    ids=["sigma-0.05", "gamma-10"],
)
def test_late_anchors_on_deep_tails(monkeypatch, market, pension):
    # anchors at t = 40 and t_max - dt read the inner density after them,
    # restarted at 1, where sigma 0.05 (kappa 1.2) takes zeta to 1e-30 and
    # below; the closed form's kernel moments reach them through the shift
    # from later anchors, whose binomial sums gamma 10 (n = 9) stresses.
    # Every result is finite, and the moments price what the power of the
    # kernel does, to rounding
    model = dataclasses.replace(params(pension=pension), market=market)
    alpha = calibrate_alpha(model, CALIBRATION).alpha
    states = [(t, 1.0, 1.0) for t in (0.0, 40.0, GRID.t_max - GRID.dt)]
    priced = _nested_costs(states, alpha, model, NESTED._density(market))
    for row in priced:
        assert all(np.isfinite(item).all() for item in row)
        assert (row[0] > 0.0).all() if pension == 0.0 else (row[0] >= 0.0).all()
    for est in _allocations(states, alpha, model, NESTED._density(market)):
        assert math.isfinite(est.wealth.value) and math.isfinite(est.wealth.std_error)
        assert math.isfinite(est.value) or not est.reliable
    if pension == 0.0:
        monkeypatch.setattr(greedyhabit.solver, "_moment_order", lambda g: None)
        power = _nested_costs(states, alpha, model, NESTED._density(market))
        for moments, powered in zip(priced, power):
            for a, b in zip(moments[:2], powered[:2]):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
            assert np.array_equal(moments[2][:1], powered[2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_late_row_on_subnormal_zeta_prices_in_float64(monkeypatch):
    # at sigma 0.04 (kappa 1.5) some inner paths take zeta below float32's
    # normal range before t = 60, where float32 keeps only a few of its
    # digits; a row anchored at t = 20 prices zeta_k / zeta_20, near 1, from
    # them, so its float32 sweep runs again in float64, quietly
    market = MarketParams(sigma=0.04)
    model = dataclasses.replace(params(pension=0.5), market=market)
    anchors = [20.0 + np.arange(GRID.n_steps - GRID.index_of(20.0) + 1) * GRID.dt]
    log = spy_sweeps(monkeypatch)
    single, double = (
        _CostFunctional(model, anchors, NESTED._density(market), dtype).price(
            0.0326, [(0, 1.0, 1.0)], delta=True
        )
        for dtype in (np.float32, np.float64)
    )
    assert log == [np.float64, np.float32, np.float64]
    assert all(np.array_equal(a, b) for a, b in zip(single[0][:2], double[0][:2]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", [0.04, 0.03])
def test_rows_at_40_on_deep_tails_price_in_float64(monkeypatch, sigma):
    # at sigma 0.04 (kappa 1.5) and 0.03 (kappa 2) the inner paths after
    # t = 40 take zeta_k dt below float32's normal range, where the term
    # T_k keeps only a few of its digits while zeta_k / zeta_40 is near 1:
    # the float32 sweep of a row anchored there hands over to float64,
    # quietly, and prices what a float64 sweep does
    market = MarketParams(sigma=sigma)
    model = dataclasses.replace(params(pension=0.5), market=market)
    anchors = [40.0 + np.arange(GRID.n_steps - GRID.index_of(40.0) + 1) * GRID.dt]
    log = spy_sweeps(monkeypatch)
    single, double = (
        _CostFunctional(model, anchors, NESTED._density(market), dtype).price(
            0.0326, [(0, 1.0, 1.0)], delta=True
        )
        for dtype in (np.float32, np.float64)
    )
    assert log == [np.float64, np.float32, np.float64]
    assert all(np.array_equal(a, b) for a, b in zip(single[0][:2], double[0][:2]))
