"""Fixed-seed fingerprint of the pipeline at toy size.

Pins the calibrated multiplier, the policy-surface rows and a lifetime
record's nested track at pensions 0 (closed form) and 0.5 (Euler) to
values recorded with numpy 2.4 on x86-64, so a change that claims to
keep results bit-identical, or to move them only by rounding, is checked
by the suite.  The tolerance, rtol 1e-12, admits reassociated
floating-point arithmetic; a change to the model, the sampler or the
seeding moves these numbers by far more.
"""

import numpy as np
import pytest

from greedyhabit import (
    CalibrationConfig,
    HabitParams,
    ModelParams,
    NestedConfig,
    TimeGrid,
    calibrate_alpha,
    default_zeta_grid,
    policy_surface,
    simulate_lifetime,
)

GRID = TimeGrid(60.0, 0.25)
CALIBRATION = CalibrationConfig(grid=GRID, n_paths=400, seed=5, antithetic=True)
NESTED = NestedConfig(n_inner=400, seed=7, grid=GRID, antithetic=True)
RTOL = 1e-12

# pension -> (alpha, surface rows (wealth, wealth_se, theta), lifetime
# nested wealth and theta at each refresh)
EXPECTED = {
    0.0: (
        2.8430722717733845,
        [
            (6.235916719699963, 0.08590020997168953, 1.0409719033639753),
            (9.910733607220344, 0.13518987129002955, 1.1347033920608232),
            (16.478981145819528, 0.22204913283679972, 1.2527593332470932),
            (4.549342518462584, 0.05361040906392137, 0.9614426269703257),
            (6.950331650640374, 0.08065017323313269, 1.0283256297697612),
            (10.97304961439173, 0.1248156868482661, 1.1159382348669065),
        ],
        [9.910733607220344, 11.575809126791501, 13.9291528103317,
         20.583011319173455, 21.00168028537173],
        [1.1347033920608232, 1.1711327053059932, 1.2119917905306472,
         1.3005264872297846, 1.2957223638980278],
    ),
    0.5: (
        0.7048871729241165,
        [
            (3.2862572382232997, 0.0441136803590917, 3.03866413314836),
            (10.080991278561093, 0.10056746587818943, 2.340684949755767),
            (1.4175207563002312, 0.011774427142111611, 3.554097395735827),
            (4.9765331868879885, 0.05184541824937778, 2.4843793866887274),
            (12.902979452244717, 0.06511869467548961, 2.044706331799547),
        ],
        [10.080991278561093, 14.234993401289966, 20.43919439805454,
         38.393686411981236, 40.50113876671981],
        [2.340684949755767, 2.180623831265449, 2.0242785143248154,
         1.876628492107484, 1.834797092229833],
    ),
}


@pytest.mark.parametrize("pension", [0.0, 0.5])
def test_fixed_seed_fingerprint(pension):
    alpha, surface, nested_wealth, theta = EXPECTED[pension]
    params = ModelParams(habit=HabitParams(eta=0.1), pension=pension)
    solution = calibrate_alpha(params, CALIBRATION)
    assert solution.alpha == pytest.approx(alpha, rel=RTOL, abs=0.0)

    rows = policy_surface(
        [0.0, 10.0],
        1.0,
        alpha,
        params,
        NESTED,
        zeta_grid=default_zeta_grid(0.0, params.market, n=3, spread=1.0),
    )
    got = [(row.wealth, row.wealth_se, row.theta) for row in rows]
    np.testing.assert_allclose(got, surface, rtol=RTOL, atol=0.0)

    record = simulate_lifetime(
        params,
        alpha,
        scenario_seed=3,
        horizon=4.0,
        dt=0.25,
        theta_refresh=1.0,
        nested=NESTED,
    )
    refresh = np.searchsorted(record.times, record.refresh_times)
    np.testing.assert_allclose(record.nested_wealth, nested_wealth, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(record.allocation[refresh], theta, rtol=RTOL, atol=0.0)
