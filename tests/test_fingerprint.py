"""Fixed-seed fingerprint of the pipeline at toy size.

Pins the calibrated multiplier, the policy-surface rows and a lifetime
record's nested track at pensions 0 (closed form) and 0.5 (Euler), and
at pension 0 for gamma 2.5 (the closed form's power of the kernel) and
gamma 5 (its polynomial in per-path kernel moments), to values recorded
with numpy 2.4 on x86-64, so a change that claims to keep results
bit-identical, or to move them only by rounding, is checked by the
suite.  The tolerance, rtol 1e-12, admits reassociated
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
        2.9095968004461397,
        [
            (6.253313015900236, 0.021050711550967906, 1.0390821823682745),
            (9.928935548372937, 0.02897752853667482, 1.1322616415907243),
            (16.488235670042204, 0.04393314960046787, 1.2497609352131076),
            (4.57193176583063, 0.010945443810350003, 0.9601131689974786),
            (6.979222659616047, 0.014454028357219815, 1.026556863262533),
            (11.006637069630301, 0.019890281796409753, 1.113657021861222),
        ],
        [9.928935548372937, 11.590900574910192, 13.93854145203277,
         20.572370487479464, 20.98642376746151],
        [1.1322616415907243, 1.1685725503876425, 1.2093310651001716,
         1.297644647749595, 1.292974291011242],
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
        6.54295495695088,
        [
            (7.275740004946331, 0.04723484876738135, 0.6788029560818686),
            (9.832921961483642, 0.057952713563076345, 0.7308539304573509),
            (13.623911592287167, 0.07191281205170211, 0.7953930582051021),
            (5.825907271486114, 0.03130438026202885, 0.6277215420036955),
            (7.6790540845073805, 0.038059807424011514, 0.665719084407408),
            (10.307083508532829, 0.046365191498627834, 0.7127792560528823),
        ],
        [9.832921961483642, 10.72953902500815, 11.935772093398793,
         15.126923268888428, 15.157432290070808],
        [0.7308539304573509, 0.7503342894407043, 0.7725001378537595,
         0.8213394519898001, 0.8194099030744583],
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
