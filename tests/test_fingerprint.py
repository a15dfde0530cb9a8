"""Fixed-seed fingerprint of the pipeline at toy size.

Pins the calibrated multiplier, the policy-surface rows and a lifetime
record's nested track at pensions 0 (closed form) and 0.5 (Euler), and
at pension 0 for gamma 2.5 (the closed form's power of the kernel) and
gamma 5 (its polynomial in per-path kernel moments), to values recorded
with numpy 2.4 on x86-64, so a change that claims to keep results
bit-identical, or to move them only by rounding, is checked by the
suite.  The pension-0 rows at gamma 3 and 5 were re-recorded when the
closed form's estimates came to regress on the kernel moments M_0 and
M_1 as well as on X, and the pension-0.5 rows when the pricer's Euler
sweep came to step in float32 (each output moved by at most 2.3e-5 of
its standard error).  Every row and refresh was re-recorded when each
nested anchor came to read the inner increments after its own time: the
t > 0 ones moved by at most 3.0 of their standard errors (wealth) and 2.3
(theta), the t = 0 ones and every alpha by rounding only, at most
2.7e-15 relative.  The pension-0.5 rows were re-recorded when the Euler
sweep came to read log zeta in blocks of steps with float32 partial sums:
alpha moved by 1.7e-7 relative, each wealth by at most 4.5e-5 of its
standard error, each surface theta by at most 1.2e-5 of its own and each
refresh theta by at most 4.6e-8 relative.  The tolerance, rtol 1e-12,
admits reassociated floating-point arithmetic; a change to the model,
the sampler or the seeding moves these numbers by far more.
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
            (6.298393240994643, 0.0015682134920912995, 1.0400644173702964),
            (10.00502919335166, 0.004262846238696076, 1.1335311070224448),
            (16.624004858804057, 0.01158761746816252, 1.251320319210243),
            (4.588102318801574, 0.0004068100156878027, 0.9633982638169368),
            (7.008041514932261, 0.0011058242732792996, 1.0307915034074198),
            (11.060024929122493, 0.0030059420275240487, 1.1189168065007231),
        ],
        [10.005029193351659, 11.6774425250736, 14.042824960062452,
         20.74562348228331, 21.17061644667639],
        [1.1335311070224448, 1.171475525679613, 1.2119355931372664,
         1.300052737339807, 1.2943815986394185],
    ),
    0.5: (
        0.6992332053307223,
        [
            (3.285975691228597, 0.027389023918504583, 3.0303154784884656),
            (10.079225203937812, 0.05509971606136144, 2.3370463933920185),
            (1.4482391941560995, 0.008991378438282465, 3.529107128889519),
            (5.0125255798002435, 0.025501349474116232, 2.4782570990146255),
            (12.958642102957722, 0.03245765990616588, 2.026991578661001),
        ],
        [10.079225203937812, 14.240862586301256, 20.50437268395329,
         38.81961535755678, 40.96679087099615],
        [2.3370463933920185, 2.164370450520554, 2.0304248810093934,
         1.8776247123872007, 1.8370250238158536],
    ),
}


# gamma -> the same four items at pension 0
EXPECTED_GAMMA = {
    2.5: (
        2.420462281597251,
        [
            (5.853122461781812, 0.014027532496959446, 1.2046778420841093),
            (9.999758564033902, 0.020961897645699622, 1.311771968263062),
            (17.981257678249094, 0.0370004353787983, 1.444513698130176),
            (4.083330371016405, 0.006195274485190809, 1.1178207649187748),
            (6.682556590609806, 0.008484837930838783, 1.1952479884953346),
            (11.362517873955639, 0.013109236016649515, 1.2976175016556113),
        ],
        [9.999758564033902, 12.025113872378398, 14.972983667910778,
         23.576195738315896, 24.185182254423825],
        [1.311771968263062, 1.3547918430392296, 1.4003726620970485,
         1.4977143685826577, 1.49041949396656],
    ),
    5.0: (
        6.338766800299527,
        [
            (7.390352519093971, 0.0041597214400633225, 0.6802825549636251),
            (9.992507277235996, 0.008217339263496305, 0.7326975358829383),
            (13.852457612916316, 0.016468371872787404, 0.7976656032625205),
            (5.887129051095261, 0.0016406641162321595, 0.6317851539473606),
            (7.765247102149219, 0.0031749508726212307, 0.6706180566203809),
            (10.43155063243621, 0.00621408105698719, 0.7186273131207527),
        ],
        [9.992507277235996, 10.902269384579832, 12.137079514569537,
         15.409848048517565, 15.45298632948902],
        [0.7326975358829383, 0.7533254527239145, 0.774927348425942,
         0.8233028695239207, 0.8207721919920262],
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
