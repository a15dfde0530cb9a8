"""Correctness gate, fixed-seed fingerprint and the eta = 0 anchor check.

Everything here runs in the benchmark's own process after the timed CLI
runs, so none of it counts towards ``wall_s`` or ``peak_rss_mb``.  Each
gate reads the file the CLI wrote and the resolved config, checks the
output against properties the model guarantees, and returns the
standard error that ``se_rel`` reports.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from greedyhabit import budget_value, calibrate_alpha, generate_paths, merton_alpha
from greedyhabit.cli import RunConfig

N_SE = 4.0  # standard errors allowed between two estimates of one quantity
MERTON_REL = 0.01  # the threshold the merton-check command uses
MERTON_PATHS = 20000
MERTON_TOLERANCE = 1e-4


@dataclass
class GateResult:
    checks: List[str] = field(default_factory=list)
    ok: bool = True
    fingerprint: Dict = field(default_factory=dict)
    se_rel: float = math.nan
    rows: int = 0
    unreliable: int = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.ok = self.ok and bool(ok)
        self.checks.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _alpha_from_initial_consumption(c0: float, h0: float, gamma: float) -> float:
    # at t = 0, zeta = 1 the unfloored rule is C = H^(1 - 1/g) alpha^(-1/g)
    return (c0 / h0 ** (1.0 - 1.0 / gamma)) ** (-gamma)


def _calibration_bundle(cfg: RunConfig, seed: int):
    cal = cfg.calibration
    return generate_paths(
        cfg.model.market, cal.grid, cal.n_paths, seed=seed, antithetic=cal.antithetic
    )


def _read_csv(path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gate_calibrate(cfg: RunConfig, path, other_seed: int) -> GateResult:
    res = GateResult()
    with open(path) as fh:
        report = json.load(fh)
    v, tol = cfg.model.v, cfg.calibration.tolerance
    alpha, se = report["alpha"], report["budget_std_error"]
    res.check(
        "budget residual",
        report["budget_residual"] <= tol,
        f"{report['budget_residual']:.3g} <= tolerance {tol:g}",
    )
    if other_seed == cfg.calibration.seed:
        raise ValueError("the re-pricing bundle needs its own seed")
    est = budget_value(alpha, cfg.model, _calibration_bundle(cfg, other_seed))
    limit = N_SE * math.hypot(se, est.std_error) + tol * v
    res.check(
        "independent re-pricing",
        abs(est.value - v) <= limit,
        f"budget {est.value:.6g} on seed {other_seed}, |diff from v| <= {limit:.4g}",
    )
    res.fingerprint = {"alpha": alpha, "budget_std_error": se}
    res.se_rel = se / report["wealth"]
    return res


def gate_policy_surface(cfg: RunConfig, path) -> GateResult:
    res = GateResult()
    rows = [
        {
            **{k: float(r[k]) for k in ("t", "H", "zeta", "wealth", "consumption", "theta", "wealth_se")},
            "theta_reliable": r["theta_reliable"] == "True",
        }
        for r in _read_csv(path)
    ]
    res.rows = len(rows)
    res.unreliable = sum(not r["theta_reliable"] for r in rows)
    v, tol = cfg.model.v, cfg.calibration.tolerance
    res.check(
        "rows in range",
        bool(rows)
        and all(0.0 < r["wealth"] <= cfg.max_wealth and r["consumption"] > 0.0 for r in rows),
        f"{len(rows)} rows with wealth in (0, {cfg.max_wealth:g}] and positive consumption",
    )
    res.check(
        "reliable theta finite",
        all(math.isfinite(r["theta"]) for r in rows if r["theta_reliable"]),
        f"{len(rows) - res.unreliable} reliable rows",
    )
    centre = [r for r in rows if r["t"] == 0.0 and abs(r["zeta"] - 1.0) < 1e-12]
    if len(centre) != 1:
        res.check("row (t=0, zeta=1)", False, f"found {len(centre)} such rows")
        return res
    row = centre[0]
    alpha = _alpha_from_initial_consumption(
        row["consumption"], row["H"], cfg.model.market.gamma
    )
    cal = budget_value(alpha, cfg.model, _calibration_bundle(cfg, cfg.calibration.seed))
    res.check(
        "calibrated budget",
        abs(cal.value - v) <= tol * v * (1.0 + 1e-9),
        f"budget {cal.value:.6g} at alpha {alpha:.6g} re-priced on the calibration bundle",
    )
    limit = N_SE * math.hypot(row["wealth_se"], cal.std_error) + tol * v
    res.check(
        "F(0, H0) = v",
        abs(row["wealth"] - v) <= limit,
        f"wealth {row['wealth']:.6g}, |diff from v| <= {limit:.4g}",
    )
    res.fingerprint = {
        "wealth": row["wealth"],
        "wealth_se": row["wealth_se"],
        "theta": row["theta"],
    }
    res.se_rel = statistics.median(r["wealth_se"] / r["wealth"] for r in rows)
    return res


def gate_lifetime(cfg: RunConfig, path) -> GateResult:
    res = GateResult()
    rows = [{k: float(x) for k, x in r.items()} for r in _read_csv(path)]
    res.rows = len(rows)
    v, tol = cfg.model.v, cfg.calibration.tolerance
    per_leg = round(cfg.horizon / cfg.lifetime_dt) + 1
    expected = len(cfg.pensions) * per_leg
    res.check("row count", len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    legs = [rows[i : i + per_leg] for i in range(0, len(rows), per_leg)]
    res.check(
        "initial wealth",
        all(leg[0]["t"] == 0.0 and leg[0]["wealth"] == v for leg in legs),
        f"wealth at t = 0 equals {v:g} on every leg",
    )
    res.check(
        "consumption and habit",
        all(r["consumption"] >= r["pension"] and r["habit"] > 0.0 for r in rows),
        "consumption >= pension and habit > 0 in every row",
    )
    res.check(
        "theta finite",
        all(math.isfinite(r["theta"]) for r in rows),
        "every theta is finite",
    )
    # The CSV carries no standard error: re-price each leg's budget at the
    # alpha implied by its initial consumption on the calibration bundle.
    bundle = _calibration_bundle(cfg, cfg.calibration.seed)
    g, h0 = cfg.model.market.gamma, cfg.model.habit.initial
    se_rel = []
    for leg in legs:
        pension, c0 = leg[0]["pension"], leg[0]["consumption"]
        res.fingerprint[f"pension={pension:g}"] = {
            "terminal_wealth": leg[-1]["wealth"],
            "initial_theta": leg[0]["theta"],
        }
        if c0 <= pension:
            continue  # floored at t = 0: alpha is not identified by C0
        alpha = _alpha_from_initial_consumption(c0, h0, g)
        params = dataclasses.replace(cfg.model, pension=pension)
        est = budget_value(alpha, params, bundle)
        res.check(
            f"calibrated budget, pension {pension:g}",
            abs(est.value - v) <= tol * v * (1.0 + 1e-9),
            f"budget {est.value:.6g} at alpha {alpha:.6g} re-priced on the calibration bundle",
        )
        se_rel.append(est.std_error / v)
    res.check("standard error", bool(se_rel), f"{len(se_rel)} legs re-priced")
    if se_rel:
        res.se_rel = statistics.median(se_rel)
    return res


def merton_check(cfg: RunConfig, seed: int, n_paths: int = MERTON_PATHS) -> GateResult:
    """Calibrate the frozen-habit (eta = 0) model and compare with the closed form.

    merton-check accepts a 1% gap.  With 20000 antithetic paths the
    standard error of alpha alone is about 1.4% (budget ~ alpha^(-1/g),
    so alpha's relative error is g times the budget's), and a 1% limit
    would fail on about half of all seeds.  The limit is therefore the
    larger of 1% and N_SE standard errors plus the bisection tolerance.
    """
    res = GateResult()
    model = cfg.model
    frozen = dataclasses.replace(
        model, pension=0.0, habit=dataclasses.replace(model.habit, eta=0.0)
    )
    cal = dataclasses.replace(
        cfg.calibration,
        n_paths=n_paths,
        seed=seed,
        antithetic=True,
        tolerance=min(cfg.calibration.tolerance, MERTON_TOLERANCE),
    )
    solution = calibrate_alpha(frozen, cal)
    exact = merton_alpha(
        frozen.v,
        frozen.market,
        frozen.mortality,
        c_bar=frozen.habit.initial,
        t_max=cal.grid.t_max,
    )
    rel = abs(solution.alpha - exact) / exact
    g = frozen.market.gamma
    limit = max(MERTON_REL, g * (N_SE * solution.budget_se / frozen.v + cal.tolerance))
    res.check(
        "eta = 0 calibration",
        rel <= limit,
        f"alpha {solution.alpha:.6g} vs merton_alpha {exact:.6g}: rel diff {rel:.3%} "
        f"<= {limit:.3%} ({n_paths} paths, seed {seed})",
    )
    return res


def check_output(command: str, cfg: RunConfig, path, other_seed: int) -> GateResult:
    """Gate the output file of one CLI command; ``other_seed`` seeds re-pricing."""
    if command == "calibrate":
        return gate_calibrate(cfg, path, other_seed)
    if command == "policy-surface":
        return gate_policy_surface(cfg, path)
    return gate_lifetime(cfg, path)
