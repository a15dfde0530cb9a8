"""Valid but extreme parameters: finite numbers or a clear error.

Each regime is calibrated on a small antithetic bundle and then priced
by one nested allocation estimate.  The result must be a finite
multiplier, wealth and risky fraction, or a risky fraction flagged
unreliable; a NaN or overflow may not pass silently, so numpy warnings
fail these tests.
"""

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
