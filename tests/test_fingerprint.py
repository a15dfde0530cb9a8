"""Fixed-seed fingerprint of the pipeline at toy size.

Pins the calibrated multiplier, the policy-surface rows and a lifetime
record's nested track at pensions 0 (closed form) and 0.5 (Euler), and
at pension 0 for gamma 2.5 (the closed form's power of the kernel) and
gamma 5 (its polynomial in per-path kernel moments), to values recorded
with numpy 2.4 on x86-64, so a change that claims to keep results
bit-identical, or to move them only by rounding, is checked by the
suite.  The pension-0 rows at gamma 3 and 5 were re-recorded when the
closed form's estimates came to regress on the kernel moments M_0 and
M_1 as well as on X.  The tolerance, rtol 1e-12, admits reassociated
floating-point arithmetic; a change to the model, the sampler or the
seeding moves these numbers by far more.
"""

import numpy as np
import pytest

from greedyhabit import (
    CalibrationConfig,
    HabitParams,
    MarketParams,
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
        2.874773854798518,
        [
            (6.298393240994643, 0.0015682134920912965, 1.0400644173702964),
            (10.00502919335166, 0.004262846238696075, 1.1335311070224448),
            (16.62400485880406, 0.011587617468162541, 1.2513203192102427),
            (4.588749663961772, 0.0004112837409802034, 0.9608041110059797),
            (7.009801181517968, 0.0011179851194471429, 1.0274762487312645),
            (11.064808198826569, 0.003038998634680789, 1.114843020230197),
        ],
        [10.00502919335166, 11.681646686241404, 14.050830077050641,
         20.749217277253248, 21.16750941949296],
        [1.1335311070224448, 1.1699038102981223, 1.2107148971172133,
         1.299143979579975, 1.2944041494357839],
    ),
    0.5: (
        0.6992333480839856,
        [
            (3.2859750992404106, 0.027389018405721957, 3.0303156615344444),
            (10.079224522529106, 0.05509970890567752, 2.337046312621417),
            (1.423669007836636, 0.008095123632716342, 3.542569294431221),
            (4.959522767262953, 0.021964373123801333, 2.4806342233295653),
            (12.923895415927827, 0.03386852886922704, 2.042405932379264),
        ],
        [10.079224522529106, 14.262582968044272, 20.528452080119088,
         38.715569582978205, 40.8700712624948],
        [2.337046312621417, 2.1786733111765475, 2.021590129420366,
         1.8755418411273714, 1.8336635627777598],
    ),
}


# gamma -> the same four items at pension 0
EXPECTED_GAMMA = {
    2.5: (
        2.420462281597251,
        [
            (5.853122461781812, 0.014027532496959432, 1.204677842084109),
            (9.999758564033902, 0.020961897645699612, 1.311771968263062),
            (17.981257678249094, 0.0370004353787983, 1.444513698130176),
            (4.096080376274203, 0.006866807703082343, 1.1156622992294634),
            (6.694489783957431, 0.009706165112065856, 1.192413994496336),
            (11.363503988802558, 0.01512741548057295, 1.2941047042388703),
        ],
        [9.999758564033902, 12.022650348381283, 14.94531917320376,
         23.51263329193671, 24.12595601678726],
        [1.311771968263062, 1.353362707925875, 1.3992807814978252,
         1.4968210325486788, 1.4904769232600397],
    ),
    5.0: (
        6.338766800299527,
        [
            (7.390352519093972, 0.004159721440063311, 0.6802825549636251),
            (9.992507277235996, 0.008217339263496302, 0.7326975358829383),
            (13.852457612916314, 0.01646837187278738, 0.7976656032625206),
            (5.888284797348047, 0.0014659395443839848, 0.6288041391854495),
            (7.767365824614524, 0.0028324749003827017, 0.6670628758169628),
            (10.435431750782545, 0.005534280286294465, 0.714438936339645),
        ],
        [9.992507277235996, 10.907332980114887, 12.138115172814546,
         15.39320313668996, 15.42686429359547],
        [0.7326975358829383, 0.7522751170010761, 0.774544658879291,
         0.8236334569806054, 0.8216403073008797],
    ),
}


@pytest.mark.parametrize("pension", [0.0, 0.5])
def test_fixed_seed_fingerprint(pension):
    check(ModelParams(habit=HabitParams(eta=0.1), pension=pension), EXPECTED[pension])


@pytest.mark.parametrize("gamma", [2.5, 5.0])
def test_fixed_seed_fingerprint_across_gamma(gamma):
    market = MarketParams(gamma=gamma)
    check(ModelParams(market=market, habit=HabitParams(eta=0.1)), EXPECTED_GAMMA[gamma])


def check(params, expected):
    alpha, surface, nested_wealth, theta = expected
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
