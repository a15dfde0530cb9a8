"""Single-scenario lifetime records: self-financing, absorption, sweeps.

The Euler-mode record must satisfy its own discrete budget equation
exactly (the Brownian increments are recoverable from the recorded
density path), absorb permanently at zero wealth, and respect the
pension floor.  The martingale mode is anchored to the zero-habit
propensity oracle on the deterministic median scenario.
"""

import dataclasses
import math

import numpy as np
import pytest

import greedyhabit.lifetime
from greedyhabit import (
    CalibrationConfig,
    CalibrationError,
    GompertzParams,
    MarketParams,
    NestedConfig,
    TimeGrid,
    calibrate_alpha,
    generate_paths,
    merton_alpha,
    merton_propensity,
    pension_sweep,
    simulate_lifetime,
)
from conftest import make_params

GRID = TimeGrid(60.0, 0.05)

# calibrated multipliers for eta=0.1, v=10, c_bar=1 on the shared
# 20k-path bundle (seed 23, tolerance 5e-3), per pension level
ALPHA_BY_PENSION = {
    0.0: 2.8643840714933804,
    0.5: 0.7136998820779037,
    1.5: 0.2594552721404015,
}


def nested(n_inner=1500, seed=11):
    return NestedConfig(
        n_inner=n_inner, bump=1e-3, seed=seed, grid=GRID, antithetic=True
    )


def brownian_increments(record, market):
    """Recover dW from the recorded density path."""
    kappa = market.kappa
    dt = float(record.times[1] - record.times[0])
    dlog = np.diff(np.log(record.zeta))
    return -(dlog + (market.r + 0.5 * kappa**2) * dt) / kappa


class TestEulerMode:
    def test_self_financing_identity(self):
        params = make_params(eta=0.1)
        rec = simulate_lifetime(
            params,
            ALPHA_BY_PENSION[0.0],
            scenario_seed=8,
            mode="euler_wealth",
            horizon=5.0,
            dt=0.05,
            theta_refresh=1.25,
            nested=nested(),
        )
        m = params.market
        dt = 0.05
        dw = brownian_increments(rec, m)
        x, c, th = rec.wealth, rec.consumption, rec.allocation
        for k in range(len(rec.times) - 1):
            drift = (m.r + th[k] * (m.mu - m.r)) * x[k] - c[k] + params.pension
            predicted = x[k] + drift * dt + th[k] * m.sigma * x[k] * dw[k]
            assert x[k + 1] == pytest.approx(predicted, abs=1e-10)

    def test_allocation_held_between_refreshes(self):
        params = make_params(eta=0.1)
        rec = simulate_lifetime(
            params,
            ALPHA_BY_PENSION[0.0],
            scenario_seed=8,
            mode="euler_wealth",
            horizon=5.0,
            dt=0.05,
            theta_refresh=1.25,
            nested=nested(),
        )
        # piecewise constant: only a handful of distinct values, each
        # held over a full refresh window
        changes = np.nonzero(np.diff(rec.allocation))[0]
        assert len(changes) <= 4
        for k in changes:
            assert (rec.times[k + 1] / 1.25) % 1.0 == pytest.approx(0.0, abs=1e-9)

    def test_absorption_is_permanent(self):
        # scenario 6 runs the pension-1.5 retiree out of wealth in year ~31
        params = make_params(eta=0.1, pension=1.5)
        rec = simulate_lifetime(
            params,
            ALPHA_BY_PENSION[1.5],
            scenario_seed=6,
            mode="euler_wealth",
            horizon=40.0,
            dt=0.05,
            theta_refresh=0.5,
            nested=nested(),
        )
        assert rec.exhausted_at is not None
        k = np.searchsorted(rec.times, rec.exhausted_at)
        assert np.all(rec.wealth[k:] == 0.0)
        assert np.all(rec.consumption[k:] == 1.5)
        assert np.all(rec.allocation[k:] == 0.0)
        assert np.all(rec.wealth >= 0.0)
        assert np.all(rec.consumption >= 1.5 - 1e-15)

    def test_deterministic(self):
        params = make_params(eta=0.1)
        kwargs = dict(
            scenario_seed=8,
            mode="euler_wealth",
            horizon=3.0,
            dt=0.05,
            theta_refresh=1.0,
            nested=nested(800),
        )
        a = simulate_lifetime(params, ALPHA_BY_PENSION[0.0], **kwargs)
        b = simulate_lifetime(params, ALPHA_BY_PENSION[0.0], **kwargs)
        assert np.array_equal(a.wealth, b.wealth)
        assert np.array_equal(a.allocation, b.allocation)
        assert np.array_equal(a.consumption, b.consumption)

    def test_scenario_injection_matches_seed(self, market):
        params = make_params(eta=0.1)
        grid = TimeGrid(3.0, 0.05)
        bundle = generate_paths(market, grid, 1, seed=8)
        kwargs = dict(
            mode="euler_wealth",
            horizon=3.0,
            dt=0.05,
            theta_refresh=1.0,
            nested=nested(800),
        )
        via_seed = simulate_lifetime(
            params, ALPHA_BY_PENSION[0.0], scenario_seed=8, **kwargs
        )
        via_bundle = simulate_lifetime(
            params, ALPHA_BY_PENSION[0.0], scenario=bundle, **kwargs
        )
        assert np.array_equal(via_seed.zeta, via_bundle.zeta)
        assert np.array_equal(via_seed.wealth, via_bundle.wealth)


class TestMartingaleMode:
    def test_propensity_matches_annuity_oracle(self):
        # no habit, median scenario: consumption over wealth must track
        # the closed-form annuity inversion through time
        market, mort = MarketParams(), GompertzParams()
        params = make_params(eta=0.0, v=10.0)
        alpha = merton_alpha(10.0, market, mort)
        rec = simulate_lifetime(
            params,
            alpha,
            scenario_seed=None,
            mode="martingale_wealth",
            horizon=20.0,
            dt=0.05,
            theta_refresh=5.0,
            nested=nested(16000, seed=42),
        )
        for t in (0.0, 10.0, 20.0):
            k = int(round(t / 0.05))
            ratio = rec.consumption[k] / rec.wealth[k]
            oracle = merton_propensity(market, mort, t)
            assert ratio == pytest.approx(oracle, rel=0.01), f"t={t}"

    def test_zero_noise_scenario_is_median_path(self):
        params = make_params(eta=0.1)
        rec = simulate_lifetime(
            params,
            ALPHA_BY_PENSION[0.0],
            scenario_seed=None,
            mode="martingale_wealth",
            horizon=2.0,
            dt=0.05,
            theta_refresh=1.0,
            nested=nested(800),
        )
        m = params.market
        expected = np.exp(-(m.r + 0.5 * m.kappa**2) * rec.times)
        assert np.allclose(rec.zeta, expected, rtol=1e-12)


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            simulate_lifetime(
                make_params(), 1.0, mode="exact", nested=nested(100)
            )

    def test_refresh_must_sit_on_grid(self):
        with pytest.raises(ValueError, match="theta_refresh"):
            simulate_lifetime(
                make_params(),
                1.0,
                horizon=2.0,
                dt=0.05,
                theta_refresh=0.07,
                nested=nested(100),
            )

    def test_horizon_must_fit_nested_grid(self):
        with pytest.raises(ValueError, match="horizon"):
            simulate_lifetime(
                make_params(), 1.0, horizon=60.0, nested=nested(100)
            )

    def test_scenario_grid_must_match(self, market):
        bundle = generate_paths(market, TimeGrid(2.0, 0.1), 1, seed=1)
        with pytest.raises(ValueError, match="grid"):
            simulate_lifetime(
                make_params(),
                1.0,
                scenario=bundle,
                horizon=2.0,
                dt=0.05,
                theta_refresh=0.5,
                nested=nested(100),
            )


class TestPensionSweep:
    def test_common_scenario_and_ordering(self):
        params = make_params(eta=0.1)
        pensions = [0.0, 0.5, 1.5]
        records = pension_sweep(
            params,
            pensions,
            scenario_seed=8,
            alphas=[ALPHA_BY_PENSION[p] for p in pensions],
            mode="euler_wealth",
            horizon=3.0,
            dt=0.05,
            theta_refresh=1.0,
            nested=nested(800),
        )
        assert len(records) == 3
        for rec, pension in zip(records, pensions):
            assert rec.pension == pension
            assert np.all(rec.consumption >= pension - 1e-15)
            assert np.array_equal(rec.zeta, records[0].zeta)

    def test_single_element_sweep_matches_direct_call(self):
        params = make_params(eta=0.1)
        kwargs = dict(
            mode="euler_wealth",
            horizon=2.0,
            dt=0.05,
            theta_refresh=0.5,
            nested=nested(800),
        )
        sweep = pension_sweep(
            params,
            [0.0],
            scenario_seed=8,
            alphas=[ALPHA_BY_PENSION[0.0]],
            **kwargs,
        )
        direct = simulate_lifetime(
            params, ALPHA_BY_PENSION[0.0], scenario_seed=8, **kwargs
        )
        assert np.array_equal(sweep[0].wealth, direct.wealth)
        assert np.array_equal(sweep[0].consumption, direct.consumption)

    def test_calibrates_on_the_generated_density(self, monkeypatch):
        params = make_params(eta=0.1)
        pensions = [0.0, 0.5]
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=400, seed=5, antithetic=True
        )
        bundle = generate_paths(
            params.market, config.grid, 400, seed=5, antithetic=True
        )
        expected = [
            calibrate_alpha(
                dataclasses.replace(params, pension=p), config, paths=bundle
            ).alpha
            for p in pensions
        ]
        seen = []
        monkeypatch.setattr(
            greedyhabit.lifetime,
            "simulate_lifetime",
            lambda p, alpha, **kwargs: seen.append(alpha),
        )
        pension_sweep(params, pensions, calibration=config)
        assert seen == expected

    def test_alphas_must_align(self):
        with pytest.raises(ValueError, match="align"):
            pension_sweep(
                make_params(), [0.0, 0.5], alphas=[1.0], nested=nested(100)
            )
