"""End-to-end acceptance checks for the greedy habit-consumption pipeline.

Each test covers one acceptance property and prints a single PASS/FAIL
line (shown under ``pytest -s``, or in the captured output of a failing
test), so the module doubles as a verification report:

1.  Merton limit -- with negligible habit smoothing the estimated risky
    fraction collapses to kappa / (sigma * gamma) at arbitrary states.
2.  Calibration oracle -- calibration at eta = 0 reproduces the analytic
    inversion of the no-habit budget.
3.  Budget identity -- every calibrated configuration prices back to
    the initial wealth, and the martingale wealth at t = 0 matches it.
4.  Scale invariance -- scaling (v, c_bar) by lambda divides the
    multiplier by lambda, rescales paths by lambda, and leaves the
    risky fraction unchanged.
5.  Habit integrators -- the Euler habit recursion converges to the
    closed form at first order in dt.
6.  Wealth cross-validation -- on each common scenario, the Euler
    wealth track of a lifetime record follows the nested (martingale)
    wealth that the same record holds at its refreshes.
7.  Policy behaviour -- consumption nearly linear in wealth at weak
    smoothing; orderings in the smoothing rate at the initial state:
    initial consumption moves from its frozen-habit limit v / A(0)
    (A the Merton annuity factor) toward the habit H0 as eta rises, so
    away from the crossover near v = H0 * A(0) it rises when
    v < H0 * A(0) and falls when v > H0 * A(0), checked at v = 10 and
    v = 30, while the risky fraction rises; pension floor
    with a flat segment; depletion time decreasing in the pension;
    habit drifting down when wealth is scarce relative to it.
8.  Sensitivity robustness -- the pathwise risky fraction is the limit
    of central differences (those at a bump and at half of it agree
    with it) and is stable under doubling the inner sample size.

Seeds and inner sample sizes are frozen so every line is reproducible.
"""

import math
import time

import numpy as np

from greedyhabit import (
    CalibrationConfig,
    NestedConfig,
    PathBundle,
    TimeGrid,
    allocation_at,
    calibrate_alpha,
    consumption_with_pension,
    default_zeta_grid,
    generate_paths,
    merton_alpha,
    merton_annuity,
    merton_theta,
    pension_sweep,
    policy_surface,
    simulate_lifetime,
    solve_paths,
)

from greedyhabit.allocation import _allocations, _nested_costs
from conftest import CAL_GRID, CAL_SEED, central_theta, euler_at_zero, make_params

ETAS = (0.01, 0.1, 1.0)
PENSIONS = (0.0, 0.5, 1.5)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_merton_limit_allocation():
    """Estimated risky fraction at eta = 1e-6 sits on the no-habit constant."""
    start = time.monotonic()
    params = make_params(eta=1e-6)
    sol = calibrate_alpha(
        params,
        CalibrationConfig(
            grid=CAL_GRID, n_paths=8000, seed=5, tolerance=5e-3, antithetic=True
        ),
    )
    nested = NestedConfig(
        n_inner=4000, seed=101, grid=CAL_GRID, antithetic=True
    )
    target = merton_theta(params.market)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        t = round(float(rng.uniform(0.0, 40.0)) / CAL_GRID.dt) * CAL_GRID.dt
        zeta = float(np.exp(rng.uniform(-1.5, 1.5)))
        h = float(np.exp(rng.uniform(-0.3, 0.3)))
        est = allocation_at(t, zeta, h, sol.alpha, params, nested)
        worst = max(worst, abs(est.value - target))
    elapsed = time.monotonic() - start
    ok = worst <= 0.02 and elapsed < 120.0
    assert _report(
        "merton limit",
        ok,
        f"max |theta - {target:.5f}| = {worst:.1e} over 10 random states "
        f"(tol 0.02) in {elapsed:.0f}s",
    )


def test_calibration_matches_analytic_inversion():
    """Calibration at eta = 0 agrees with the closed-form multiplier."""
    config = CalibrationConfig(
        grid=CAL_GRID, n_paths=40000, seed=CAL_SEED, tolerance=1e-4, antithetic=True
    )
    worst = 0.0
    for v in (5.0, 10.0, 30.0):
        params = make_params(eta=0.0, v=v)
        sol = calibrate_alpha(params, config)
        exact = merton_alpha(v, params.market, params.mortality, t_max=CAL_GRID.t_max)
        worst = max(worst, abs(sol.alpha - exact) / exact)
    assert _report(
        "calibration oracle",
        worst <= 0.01,
        f"multiplier rel err <= {worst:.2%} vs analytic inversion "
        f"at v in (5, 10, 30) (tol 1%)",
    )


def test_budget_identity_all_configurations(calibrated):
    """Calibrated budgets hit v, and the t = 0 wealth reproduces it."""
    nested = NestedConfig(
        n_inner=8000, seed=202, grid=CAL_GRID, antithetic=True
    )
    ok = True
    worst = 0.0
    for eta in ETAS:
        for pension in PENSIONS:
            params, config, sol = calibrated(eta, pension)
            ok = ok and sol.budget_residual <= config.tolerance
            # the closed form at pension 0, the Euler sweep with a pension
            est = allocation_at(0.0, 1.0, 1.0, sol.alpha, params, nested).wealth
            # The calibration is allowed to stop within tolerance * v of the
            # target, so the t = 0 wealth inherits that offset on top of
            # the two Monte Carlo errors.
            gap = abs(est.value - params.v)
            allowed = (
                3.0 * math.hypot(est.std_error, sol.budget_se)
                + config.tolerance * params.v
            )
            ok = ok and gap <= allowed
            worst = max(worst, gap / allowed)
    assert _report(
        "budget identity",
        ok,
        f"9 configurations: residuals <= 5e-3 and |wealth(0) - v| within "
        f"3 SE + tolerance (worst at {worst:.0%} of the allowance)",
    )


def test_scale_invariance():
    """(v, c_bar) -> (lam v, lam c_bar) rescales the solution by lam."""
    config = CalibrationConfig(
        grid=CAL_GRID, n_paths=20000, seed=31, tolerance=5e-4, antithetic=True
    )
    nested = NestedConfig(
        n_inner=4000, seed=77, grid=CAL_GRID, antithetic=True
    )
    base_params = make_params()
    base = calibrate_alpha(base_params, config)
    bundle = generate_paths(base_params.market, TimeGrid(40.0, 0.05), 256, seed=52)
    c0, h0 = solve_paths(base.alpha, base_params, bundle)
    theta0 = allocation_at(10.0, 0.9, 1.0, base.alpha, base_params, nested)
    cost0 = allocation_at(10.0, 1.0, 0.9, base.alpha, base_params, nested).wealth
    worst_alpha = worst_path = worst_theta = worst_wealth = 0.0
    for lam in (0.5, 2.0, 10.0):
        scaled_params = make_params(v=lam * 10.0, c_bar=lam)
        scaled = calibrate_alpha(scaled_params, config)
        worst_alpha = max(worst_alpha, abs(scaled.alpha * lam / base.alpha - 1.0))
        c1, h1 = solve_paths(scaled.alpha, scaled_params, bundle)
        worst_path = max(
            worst_path,
            float(np.max(np.abs(c1 / c0 - lam))) / lam,
            float(np.max(np.abs(h1 / h0 - lam))) / lam,
        )
        theta1 = allocation_at(
            10.0, 0.9, lam, scaled.alpha, scaled_params, nested
        )
        worst_theta = max(worst_theta, abs(theta1.value - theta0.value))
        cost1 = allocation_at(
            10.0, 1.0, 0.9 * lam, scaled.alpha, scaled_params, nested
        ).wealth
        worst_wealth = max(worst_wealth, abs(cost1.value / cost0.value - lam) / lam)
    ok = (
        worst_alpha <= 0.01
        and worst_path <= 0.01
        and worst_wealth <= 0.01
        and worst_theta <= 0.01
    )
    assert _report(
        "scale invariance",
        ok,
        f"lam in (0.5, 2, 10): alpha ratio err {worst_alpha:.1e} (tol 1e-2), "
        f"path rescale err {worst_path:.1e}, wealth rescale err "
        f"{worst_wealth:.1e}, theta drift {worst_theta:.1e} (tol 1e-2)",
    )


def _subsample(bundle, factor):
    """Coarser view of the same Brownian paths (every factor-th node)."""
    grid = TimeGrid(bundle.grid.t_max, bundle.grid.dt * factor)
    return PathBundle(
        grid=grid,
        n_paths=bundle.n_paths,
        seed=bundle.seed,
        w=np.ascontiguousarray(bundle.w[:, ::factor]),
        zeta=np.ascontiguousarray(bundle.zeta[:, ::factor]),
        antithetic=bundle.antithetic,
    )


def test_habit_euler_first_order(calibrated):
    """Euler habit matches the closed form to O(dt), halving with dt."""
    params, _, sol = calibrated(0.1)
    fine = generate_paths(params.market, TimeGrid(40.0, 0.05), 256, seed=904)
    errors = {}
    for factor in (1, 2):
        bundle = _subsample(fine, factor) if factor > 1 else fine
        dt = bundle.grid.dt
        c_ref, h_ref = solve_paths(sol.alpha, params, bundle)
        c_eu, h_eu = solve_paths(sol.alpha, euler_at_zero(params), bundle)
        err = max(
            float(np.max(np.abs(h_eu - h_ref) / h_ref)),
            float(np.max(np.abs(c_eu - c_ref) / c_ref)),
        )
        errors[dt] = err
    ratio = errors[0.1] / errors[0.05]
    ok = errors[0.05] <= 0.25 and errors[0.1] <= 0.5 and 1.6 <= ratio <= 2.4
    assert _report(
        "habit integrator",
        ok,
        f"rel err {errors[0.1]:.4f} at dt=0.1 (tol 0.5), {errors[0.05]:.4f} "
        f"at dt=0.05 (tol 0.25), halving ratio {ratio:.2f} (first order)",
    )


def test_wealth_cross_validation(calibrated):
    """Euler wealth with held allocations tracks the record's nested wealth."""
    params, _, sol = calibrated(0.1, n_paths=40000, tolerance=1e-3)
    nested = NestedConfig(
        n_inner=5000, seed=202, grid=CAL_GRID, antithetic=True
    )
    worst = 0.0
    for scenario_seed in (901, 902, 905, 906, 908):
        record = simulate_lifetime(
            params,
            sol.alpha,
            scenario_seed=scenario_seed,
            horizon=10.0,
            dt=0.05,
            theta_refresh=0.25,
            nested=nested,
        )
        for t in (5.0, 10.0):
            k = int(round(t / 0.05))
            j = np.searchsorted(record.refresh_times, record.times[k])
            martingale = record.nested_wealth[j]
            gap = abs(record.wealth[k] - martingale) / martingale
            worst = max(worst, gap)
    assert _report(
        "wealth cross-check",
        worst <= 0.02,
        f"5 scenarios, t in (5, 10): max rel gap {worst:.2%} (tol 2%)",
    )


def test_policy_behaviour(calibrated):
    """Qualitative shape of the policies across eta and pension levels."""
    ok = True
    notes = []

    # (a) consumption nearly linear in wealth when habit barely adapts
    params, _, sol = calibrated(0.01)
    nested = NestedConfig(
        n_inner=3000, seed=77, grid=CAL_GRID, antithetic=True
    )
    r2_min = 1.0
    for t in (0.0, 10.0, 20.0):
        points = policy_surface(
            [t],
            1.0,
            sol.alpha,
            params,
            nested,
            zeta_grid=default_zeta_grid(t, params.market, n=21, spread=3.0),
        )
        x = np.array([q.wealth for q in points])
        y = np.array([q.consumption for q in points])
        design = np.vstack([x, np.ones_like(x)]).T
        _, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
        ss_res = float(residual[0]) if residual.size else 0.0
        r2_min = min(r2_min, 1.0 - ss_res / float(np.sum((y - y.mean()) ** 2)))
    part = r2_min > 0.999
    ok = ok and part
    notes.append(f"linearity R2 >= {r2_min:.5f} {'ok' if part else 'BAD'}")

    # (b) orderings in eta at the initial state (t = 0, zeta = 1, habit
    # H0 = c_bar = 1).  As eta rises, C0 moves from the frozen-habit limit
    # v / A(0) toward the habit, so the sign of H0 - v / A(0) fixes its
    # direction: rising when wealth is scarce relative to the annuitized
    # habit (v = 10), falling when it is abundant (v = 30).  Both states
    # lie well outside the band 16.7 < v < 18.4 around the crossover,
    # where the eta -> 0 and eta -> infinity limits nearly meet.
    nested_b = NestedConfig(
        n_inner=8000, seed=91, grid=CAL_GRID, antithetic=True
    )
    h0 = 1.0
    annuity = merton_annuity(
        params.market, params.mortality, 0.0, t_max=CAL_GRID.t_max
    )
    for v in (10.0, 30.0):
        cons0 = []
        for eta in ETAS:
            params, _, sol = calibrated(eta, v=v)
            cons0.append(
                float(
                    consumption_with_pension(
                        h0, 1.0, 0.0, sol.alpha, 0.0, params.market, params.mortality
                    )
                )
            )
        rising = h0 > v / annuity
        if rising:
            ordered = cons0[0] < cons0[1] < cons0[2]
            same_side = max(cons0) < h0
        else:
            ordered = cons0[0] > cons0[1] > cons0[2]
            same_side = min(cons0) > h0
        part = ordered and same_side
        ok = ok and part
        notes.append(
            f"C0 at v={v:g} {'rising' if rising else 'falling'} in eta, "
            f"{'below' if rising else 'above'} H0 like the eta->0 limit "
            f"{v / annuity:.3f} ("
            + ", ".join(f"{c:.3f}" for c in cons0)
            + (") ok" if part else ") BAD")
        )
    theta0 = []
    for eta in ETAS:
        params, _, sol = calibrated(eta)
        theta0.append(allocation_at(0.0, 1.0, 1.0, sol.alpha, params, nested_b).value)
    theta_increasing = theta0[0] < theta0[1] < theta0[2]
    ok = ok and theta_increasing
    notes.append(
        "theta increasing in eta "
        + ("ok" if theta_increasing else f"BAD ({theta0[0]:.3f}, {theta0[1]:.3f}, {theta0[2]:.3f})")
    )

    # (c) consumption floored at the pension on a flat positive-measure set
    params, _, sol = calibrated(0.1, 1.5)
    zeta_grid = default_zeta_grid(10.0, params.market, n=41, spread=4.0)
    cons = consumption_with_pension(
        1.0, zeta_grid, 10.0, sol.alpha, 1.5, params.market, params.mortality
    )
    at_floor = np.flatnonzero(cons == 1.5)
    part = (
        float(np.min(cons)) == 1.5
        and at_floor.size >= 2
        and bool(np.any(np.diff(at_floor) == 1))
    )
    ok = ok and part
    notes.append(
        f"floor min = {np.min(cons):.2f} on {at_floor.size}/41 grid points "
        f"{'ok' if part else 'BAD'}"
    )

    # (d) a larger pension depletes wealth sooner on a common scenario
    alphas = [calibrated(0.1, pension)[2].alpha for pension in PENSIONS]
    records = pension_sweep(
        make_params(),
        PENSIONS,
        scenario_seed=6,
        alphas=alphas,
        horizon=40.0,
        dt=0.05,
        theta_refresh=0.5,
        nested=NestedConfig(
            n_inner=1500, seed=11, grid=CAL_GRID, antithetic=True
        ),
    )
    depletion = [record.exhausted_at for record in records]
    part = all(t is not None for t in depletion) and (
        depletion[0] > depletion[1] > depletion[2]
    )
    ok = ok and part
    notes.append(
        "depletion times "
        + ", ".join("never" if t is None else f"{t:.1f}" for t in depletion)
        + (" ok" if part else " BAD")
    )

    # (e) habit drifts down when wealth is scarce relative to the habit
    params, _, sol = calibrated(0.1, v=30.0, c_bar=5.0)
    record = simulate_lifetime(
        params,
        sol.alpha,
        scenario_seed=None,
        horizon=2.0,
        dt=0.05,
        theta_refresh=1.0,
        nested=NestedConfig(
            n_inner=800, seed=11, grid=CAL_GRID, antithetic=True
        ),
    )
    first_year = record.habit[:21]
    part = bool(np.all(np.diff(first_year) < 0.0))
    ok = ok and part
    notes.append(
        f"habit {first_year[0]:.2f} -> {first_year[-1]:.2f} over year one "
        f"{'ok' if part else 'BAD'}"
    )

    assert _report("policy behaviour", ok, "; ".join(notes))


def test_sensitivity_robustness(calibrated):
    """Theta is the bump -> 0 limit of central differences and is stable
    under a doubled inner sample."""
    params, _, sol = calibrated(0.1)
    state = (10.0, 1.0, 1.0)
    nested = NestedConfig(n_inner=5000, seed=77, grid=CAL_GRID, antithetic=True)
    inner = nested._density(params.market)
    [base] = _allocations([state], sol.alpha, params, inner)
    kappa_sig = params.market.kappa / params.market.sigma
    central = [
        central_theta(
            lambda y: _nested_costs(
                [(state[0], y, state[2])], sol.alpha, params, inner
            )[0][0],
            state[1],
            bump,
            kappa_sig,
        )
        for bump in (1e-3, 5e-4)
    ]
    doubled = allocation_at(
        *state,
        sol.alpha,
        params,
        NestedConfig(n_inner=10000, seed=177, grid=CAL_GRID, antithetic=True),
    )
    bump_gap = max(abs(base.value - est.value) for est in central)
    sample_gap = abs(base.value - doubled.value)
    limit = 2.0 * math.hypot(base.std_error, doubled.std_error)
    ok = bump_gap <= 1e-3 and sample_gap < limit
    assert _report(
        "sensitivity",
        ok,
        f"central differences at bumps 1e-3 and 5e-4 sit within {bump_gap:.1e} "
        f"of the pathwise theta (tol 1e-3); doubling the inner sample moves it "
        f"{sample_gap:.1e} < 2 pooled SE = {limit:.1e}",
    )
