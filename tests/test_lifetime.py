"""Single-scenario lifetime records: self-financing, absorption, sweeps.

The Euler wealth track must satisfy its own discrete budget equation
exactly (the Brownian increments are recoverable from the recorded
density path), absorb permanently at zero wealth, and respect the
pension floor.  The nested (martingale) wealth track is the nested
estimator at each refresh, and is anchored to the zero-habit
propensity oracle on the deterministic median scenario.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import greedyhabit.allocation
import greedyhabit.lifetime
import greedyhabit.market
import greedyhabit.solver
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
    solve_paths,
)
from greedyhabit.allocation import _allocations
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
    return NestedConfig(n_inner=n_inner, seed=seed, grid=GRID, antithetic=True)


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
            horizon=20.0,
            dt=0.05,
            theta_refresh=5.0,
            nested=nested(16000, seed=42),
        )
        for t in (0.0, 10.0, 20.0):
            k = int(round(t / 0.05))
            j = np.searchsorted(rec.refresh_times, rec.times[k])
            ratio = rec.consumption[k] / rec.nested_wealth[j]
            oracle = merton_propensity(market, mort, t)
            assert ratio == pytest.approx(oracle, rel=0.01), f"t={t}"

    def test_zero_noise_scenario_is_median_path(self):
        params = make_params(eta=0.1)
        rec = simulate_lifetime(
            params,
            ALPHA_BY_PENSION[0.0],
            scenario_seed=None,
            horizon=2.0,
            dt=0.05,
            theta_refresh=1.0,
            nested=nested(800),
        )
        m = params.market
        expected = np.exp(-(m.r + 0.5 * m.kappa**2) * rec.times)
        assert np.allclose(rec.zeta, expected, rtol=1e-12)


class TestNestedTrack:
    @pytest.mark.parametrize(
        "pension, scenario_seed, horizon, refresh, exhausts",
        [
            (0.0, 8, 3.0, 1.0, False),
            (0.5, 8, 3.0, 1.0, False),
            (1.5, 6, 40.0, 2.0, True),
        ],
        ids=["closed-form", "euler", "exhausted"],
    )
    def test_matches_the_estimator(
        self, pension, scenario_seed, horizon, refresh, exhausts
    ):
        params = make_params(eta=0.1, pension=pension)
        alpha = ALPHA_BY_PENSION[pension]
        config = nested(1500)
        inner = config._density(params.market)
        rec = simulate_lifetime(
            params,
            alpha,
            scenario_seed=scenario_seed,
            horizon=horizon,
            dt=0.05,
            theta_refresh=refresh,
            nested=config,
            _inner=inner,
        )
        assert (rec.exhausted_at is not None) == exhausts
        # the nested track prices the greedy path as it was before absorption
        bundle = generate_paths(
            params.market, TimeGrid(horizon, 0.05), 1, seed=scenario_seed
        )
        habit = solve_paths(alpha, params, bundle)[1][0]
        for j, t in enumerate(rec.refresh_times):
            k = np.searchsorted(rec.times, t)
            [est] = _allocations(
                [(float(t), float(rec.zeta[k]), float(habit[k]))],
                alpha,
                params,
                inner,
            )
            # alone, the refresh's anchor takes no sums from later ones,
            # which moves its controls by rounding
            assert rec.nested_wealth[j] == pytest.approx(est.wealth.value, rel=1e-12), t
            se = est.wealth.std_error
            assert rec.nested_wealth_se[j] == pytest.approx(se, rel=1e-12), t
            assert rec.theta_reliable[j] == est.reliable, t
        # only the exhausted record reaches refreshes flagged unreliable
        assert rec.theta_reliable.all() == (not exhausts)

    def test_unreliable_refresh_holds_the_last_reliable_theta(self):
        # four times the calibrated multiplier under-spends: the greedy
        # path's nested wealth nears zero by year 34 while the Euler
        # wealth is still positive
        params = make_params(eta=0.1, pension=1.5)
        rec = simulate_lifetime(
            params,
            4.0 * ALPHA_BY_PENSION[1.5],
            scenario_seed=6,
            horizon=40.0,
            dt=0.05,
            theta_refresh=2.0,
            nested=nested(1500),
        )
        assert rec.exhausted_at is None
        flagged = np.flatnonzero(~rec.theta_reliable)
        assert flagged.size
        j = flagged[0]
        assert rec.theta_reliable[j - 1]
        previous, k = np.searchsorted(rec.times, rec.refresh_times[j - 1 : j + 1])
        assert rec.allocation[k] == rec.allocation[previous]


class TestValidation:
    def test_refresh_must_sit_on_grid(self):
        for refresh in (0.07, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"theta_refresh={refresh} is not"):
                simulate_lifetime(
                    make_params(),
                    1.0,
                    horizon=2.0,
                    dt=0.05,
                    theta_refresh=refresh,
                    nested=nested(100),
                )

    def test_horizon_must_fit_nested_grid(self):
        with pytest.raises(ValueError, match="horizon"):
            simulate_lifetime(
                make_params(), 1.0, horizon=60.0, nested=nested(100)
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

    def test_one_inner_set_serves_every_record(self, monkeypatch):
        params = make_params(eta=0.1)
        pensions = [0.0, 0.5]
        alphas = [ALPHA_BY_PENSION[p] for p in pensions]
        kwargs = dict(
            scenario_seed=8,
            horizon=2.0,
            dt=0.05,
            theta_refresh=0.5,
            nested=nested(800),
        )
        built, drawn = [], []
        real = NestedConfig._density
        real_fill = greedyhabit.market._fill_normals

        def counted(*args):
            built.append(args)
            return real(*args)

        def fill(out, seed, key, rows):
            drawn.extend(rows if key == (1,) else [])
            return real_fill(out, seed, key, rows)

        monkeypatch.setattr(NestedConfig, "_density", counted)
        monkeypatch.setattr(greedyhabit.market, "_fill_normals", fill)
        sweep = pension_sweep(params, pensions, alphas=alphas, **kwargs)
        assert len(built) == 1
        # the pension-0 record reads the step-major copy the pension leg
        # sweeps, so the sweep draws each inner stream once
        assert sorted(drawn) == list(range(400))
        monkeypatch.undo()
        for rec, pension, alpha in zip(sweep, pensions, alphas):
            p = dataclasses.replace(params, pension=pension)
            direct = simulate_lifetime(p, alpha, **kwargs)
            for field in dataclasses.fields(direct):
                got, want = getattr(rec, field.name), getattr(direct, field.name)
                assert np.array_equal(got, want), (pension, field.name)

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

    def test_euler_legs_share_one_pair_freed_before_the_records(self, monkeypatch):
        # the legs with a pension calibrate on kappa W of the stream kept
        # step-major once, whose common X one eta = 0 pass computes; the nested
        # pass's kept array, also made from the stream, does the same for
        # every record, and the calibration's is gone before the first
        # record is priced
        params = make_params(eta=0.1)
        config = CalibrationConfig(
            grid=TimeGrid(60.0, 0.1), n_paths=2000, seed=5, antithetic=True
        )
        full = config.n_paths * (config.grid.n_steps + 1) * 8
        made, controls, held = [], [], []
        real_steps = greedyhabit.solver._Density.steps
        real_pass = greedyhabit.solver._anchor_pass
        real_record = greedyhabit.lifetime.simulate_lifetime

        def steps(density):
            if density._steps is None:
                made.append((type(density._source).__name__, density.shape))
            return real_steps.fget(density)

        def counted(params, density, anchors, in_block):
            if params.habit.eta == 0.0:  # the eta = 0 pass of the Euler legs' X
                controls.append(len(anchors))
            return real_pass(params, density, anchors, in_block)

        def record(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_record(*args, **kwargs)

        monkeypatch.setattr(greedyhabit.solver._Density, "steps", property(steps))
        monkeypatch.setattr(greedyhabit.solver, "_anchor_pass", counted)
        monkeypatch.setattr(greedyhabit.lifetime, "simulate_lifetime", record)
        tracemalloc.start()
        try:
            pension_sweep(
                params,
                [0.0, 0.5, 1.5],
                scenario_seed=8,
                calibration=config,
                horizon=2.0,
                theta_refresh=0.5,
                nested=nested(400),
            )
        finally:
            tracemalloc.stop()
        # besides the one-path copy of each Euler record's own scenario
        calibration, inner = (2000, 601), (400, 1201)
        assert [m for m in made if m[1][0] > 1] == [
            ("_Stream", calibration), ("_Stream", inner)
        ]
        # one anchor for the calibrations, one per refresh for the records
        assert controls == [1, 5]
        # the first record finds the one inner array, written before it so
        # that every leg reads one draw, and not the calibration's.  It
        # keeps kappa W of the 200 streams alone, half an inner array
        # (held[0] was 0.69 inner arrays + 0.25 full ones when it was zeta)
        assert held[0] < 0.5 * inner[0] * inner[1] * 8 + 0.25 * full

    @pytest.mark.parametrize("alphas", [None, [1.0, 1.0]])
    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_bad_pension_fails_before_any_pricing(self, monkeypatch, alphas, bad):
        def priced(*args, **kwargs):
            raise AssertionError("priced before the pensions were checked")

        for name in ("calibrate_alpha", "simulate_lifetime"):
            monkeypatch.setattr(greedyhabit.lifetime, name, priced)
        monkeypatch.setattr(NestedConfig, "_density", priced)
        with pytest.raises(ValueError, match="pension"):
            pension_sweep(
                make_params(), [0.0, bad], alphas=alphas, nested=nested(100)
            )

    def test_alphas_must_align(self):
        with pytest.raises(ValueError, match="align"):
            pension_sweep(
                make_params(), [0.0, 0.5], alphas=[1.0], nested=nested(100)
            )
