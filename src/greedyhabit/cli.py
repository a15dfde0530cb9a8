"""Command-line interface: calibrate, policy-surface, lifetime, merton-check.

Configuration is a JSON file of nested key-value groups; anything not
given falls back to the model defaults.  The master seed resolves in
order: ``--seed`` flag, config file, the GREEDYHABIT_SEED environment
variable, then the built-in default — so batch environments can pin
reproducibility without touching config files.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical
failure (calibration bracket/convergence, or a policy surface whose
allocation estimates are mostly unreliable).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .allocation import (
    NestedConfig,
    _InnerPaths,
    allocation_at,
    default_zeta_grid,
    policy_surface,
)
from .habit import HabitParams
from .lifetime import pension_sweep
from .market import DEFAULT_SEED, GompertzParams, MarketParams, TimeGrid
from .merton import merton_alpha, merton_propensity, merton_theta
from .solver import (
    CalibrationConfig,
    CalibrationError,
    ModelParams,
    calibrate_alpha,
    consumption_no_pension,
)

__all__ = ["RunConfig", "ConfigError", "main"]

ENV_SEED = "GREEDYHABIT_SEED"

POLICY_COLUMNS = (
    "t",
    "H",
    "zeta",
    "wealth",
    "consumption",
    "theta",
    "wealth_se",
    "theta_reliable",
)
LIFETIME_COLUMNS = ("t", "pension", "consumption", "habit", "wealth", "theta")

# fraction of unreliable allocation rows above which a surface run is
# treated as a numerical failure (exit code 2)
UNRELIABLE_FRACTION_LIMIT = 0.5


class ConfigError(ValueError):
    """Invalid or unknown configuration input (exit code 1)."""


# the model groups, whose keys and defaults are their dataclass fields
_MODEL_GROUPS = {
    "market": MarketParams,
    "mortality": GompertzParams,
    "habit": HabitParams,
}

_DEFAULTS = {
    **{name: dataclasses.asdict(cls()) for name, cls in _MODEL_GROUPS.items()},
    "pension": 0.0,
    "wealth": 10.0,
    "calibration": {
        "t_max": 60.0,
        "dt": 0.05,
        "n_paths": 20000,
        "seed": None,
        "tolerance": 5e-3,
        "max_iterations": 80,
        "bracket": [1e-6, 1e6],
        "antithetic": False,
    },
    "allocation": {"n_inner": 5000, "bump": 1e-3, "antithetic": True},
    "policy": {
        "times": [0.0, 10.0, 20.0, 30.0],
        "habit_level": 1.0,
        "n_zeta": 41,
        "spread": 4.0,
        "max_wealth": 20.0,
    },
    "lifetime": {
        "pensions": [0.0, 0.5, 1.0, 1.5, 2.0],
        "horizon": 40.0,
        "dt": 0.05,
        "theta_refresh": 0.25,
        "scenario_seed": None,
        "mode": "euler_wealth",
    },
}


def _merge(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(
                        f"config key {prefix}{key}: expected an object"
                    )
                out[key] = _merge(default, value, f"{prefix}{key}.")
            else:
                out[key] = value
        else:
            out[key] = default
    unknown = set(overrides) - set(defaults)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown config key: {prefix}{name}")
    return out


def _num(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key}: expected a number")
    return float(value)


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key}: expected an integer")
    return value


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key}: expected true/false")
    return value


def _num_group(cls, group: dict, name: str):
    """``cls`` built from config group ``name``, whose values are all numbers."""
    return cls(**{key: _num(value, f"{name}.{key}") for key, value in group.items()})


def _num_list(value, key: str) -> List[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {key}: expected a non-empty list")
    return [_num(x, f"{key}[{i}]") for i, x in enumerate(value)]


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings for every subcommand."""

    model: ModelParams
    calibration: CalibrationConfig
    nested: NestedConfig
    policy_times: Tuple[float, ...]
    habit_level: float
    n_zeta: int
    zeta_spread: float
    max_wealth: float
    pensions: Tuple[float, ...]
    horizon: float
    lifetime_dt: float
    theta_refresh: float
    scenario_seed: Optional[int]
    lifetime_mode: str

    @classmethod
    def from_dict(
        cls,
        data: Optional[dict] = None,
        seed: Optional[int] = None,
        n_paths: Optional[int] = None,
    ) -> "RunConfig":
        """Build a config from a (possibly partial) JSON-shaped dict.

        ``seed``/``n_paths`` are command-line overrides and win over
        the file; the seed otherwise falls back to GREEDYHABIT_SEED
        and finally the package default.
        """
        cfg = _merge(_DEFAULTS, data or {})
        model = ModelParams(
            **{
                name: _num_group(cls, cfg[name], name)
                for name, cls in _MODEL_GROUPS.items()
            },
            pension=_num(cfg["pension"], "pension"),
            v=_num(cfg["wealth"], "wealth"),
        )

        cal = cfg["calibration"]
        if seed is not None:
            effective_seed = seed
        elif cal["seed"] is not None:
            effective_seed = _int(cal["seed"], "calibration.seed")
        elif os.environ.get(ENV_SEED):
            try:
                effective_seed = int(os.environ[ENV_SEED])
            except ValueError:
                raise ConfigError(
                    f"environment variable {ENV_SEED} must be an integer"
                ) from None
        else:
            effective_seed = DEFAULT_SEED
        grid = TimeGrid(
            t_max=_num(cal["t_max"], "calibration.t_max"),
            dt=_num(cal["dt"], "calibration.dt"),
        )
        bracket = _num_list(cal["bracket"], "calibration.bracket")
        if len(bracket) != 2:
            raise ConfigError("config key calibration.bracket: expected 2 values")
        calibration = CalibrationConfig(
            grid=grid,
            n_paths=n_paths
            if n_paths is not None
            else _int(cal["n_paths"], "calibration.n_paths"),
            seed=effective_seed,
            tolerance=_num(cal["tolerance"], "calibration.tolerance"),
            max_iterations=_int(
                cal["max_iterations"], "calibration.max_iterations"
            ),
            bracket=(bracket[0], bracket[1]),
            antithetic=_bool(cal["antithetic"], "calibration.antithetic"),
        )

        al = cfg["allocation"]
        nested = NestedConfig(
            n_inner=_int(al["n_inner"], "allocation.n_inner"),
            bump=_num(al["bump"], "allocation.bump"),
            seed=effective_seed,
            grid=grid,
            antithetic=_bool(al["antithetic"], "allocation.antithetic"),
        )

        po = cfg["policy"]
        lf = cfg["lifetime"]
        scenario_seed = lf["scenario_seed"]
        if scenario_seed is not None:
            scenario_seed = _int(scenario_seed, "lifetime.scenario_seed")
        mode = lf["mode"]
        if mode not in ("euler_wealth", "martingale_wealth"):
            raise ConfigError(
                "config key lifetime.mode: expected 'euler_wealth' or "
                "'martingale_wealth'"
            )
        return cls(
            model=model,
            calibration=calibration,
            nested=nested,
            policy_times=tuple(_num_list(po["times"], "policy.times")),
            habit_level=_num(po["habit_level"], "policy.habit_level"),
            n_zeta=_int(po["n_zeta"], "policy.n_zeta"),
            zeta_spread=_num(po["spread"], "policy.spread"),
            max_wealth=_num(po["max_wealth"], "policy.max_wealth"),
            pensions=tuple(_num_list(lf["pensions"], "lifetime.pensions")),
            horizon=_num(lf["horizon"], "lifetime.horizon"),
            lifetime_dt=_num(lf["dt"], "lifetime.dt"),
            theta_refresh=_num(lf["theta_refresh"], "lifetime.theta_refresh"),
            scenario_seed=scenario_seed,
            lifetime_mode=mode,
        )

    def to_dict(self) -> dict:
        """Canonical JSON-shaped form; from_dict(to_dict()) round-trips."""
        m = self.model
        return {
            **{name: dataclasses.asdict(getattr(m, name)) for name in _MODEL_GROUPS},
            "pension": m.pension,
            "wealth": m.v,
            "calibration": {
                "t_max": self.calibration.grid.t_max,
                "dt": self.calibration.grid.dt,
                "n_paths": self.calibration.n_paths,
                "seed": self.calibration.seed,
                "tolerance": self.calibration.tolerance,
                "max_iterations": self.calibration.max_iterations,
                "bracket": list(self.calibration.bracket),
                "antithetic": self.calibration.antithetic,
            },
            "allocation": {
                "n_inner": self.nested.n_inner,
                "bump": self.nested.bump,
                "antithetic": self.nested.antithetic,
            },
            "policy": {
                "times": list(self.policy_times),
                "habit_level": self.habit_level,
                "n_zeta": self.n_zeta,
                "spread": self.zeta_spread,
                "max_wealth": self.max_wealth,
            },
            "lifetime": {
                "pensions": list(self.pensions),
                "horizon": self.horizon,
                "dt": self.lifetime_dt,
                "theta_refresh": self.theta_refresh,
                "scenario_seed": self.scenario_seed,
                "mode": self.lifetime_mode,
            },
        }


def _load_config(args: argparse.Namespace) -> RunConfig:
    data = None
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    return RunConfig.from_dict(data, seed=args.seed, n_paths=args.paths)


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    solution = calibrate_alpha(cfg.model, cfg.calibration)
    report = {
        "alpha": solution.alpha,
        "budget_residual": solution.budget_residual,
        "budget_std_error": solution.budget_se,
        "iterations": solution.iterations,
        "pension": solution.pension,
        "wealth": solution.v,
        "seed": cfg.calibration.seed,
    }
    for key, value in report.items():
        print(f"{key}: {value}")
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_policy_surface(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    solution = calibrate_alpha(cfg.model, cfg.calibration)
    points = policy_surface(
        cfg.policy_times,
        cfg.habit_level,
        solution.alpha,
        cfg.model,
        cfg.nested,
        zeta_grid=[
            default_zeta_grid(
                t, cfg.model.market, n=cfg.n_zeta, spread=cfg.zeta_spread
            )
            for t in cfg.policy_times
        ],
        max_wealth=cfg.max_wealth,
    )
    # PolicyPoint's fields are in POLICY_COLUMNS order
    rows = [dataclasses.astuple(p) for p in points]
    unreliable = sum(not p.theta_reliable for p in points)
    _write_csv(args.out, POLICY_COLUMNS, rows)
    if rows and unreliable / len(rows) > UNRELIABLE_FRACTION_LIMIT:
        print(
            f"policy surface: {unreliable}/{len(rows)} allocation estimates "
            "unreliable; increase allocation.n_inner",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    records = pension_sweep(
        cfg.model,
        cfg.pensions,
        scenario_seed=cfg.scenario_seed,
        calibration=cfg.calibration,
        mode=cfg.lifetime_mode,
        horizon=cfg.horizon,
        dt=cfg.lifetime_dt,
        theta_refresh=cfg.theta_refresh,
        nested=cfg.nested,
    )
    rows = []
    for record in records:
        for k, t in enumerate(record.times):
            rows.append(
                (
                    float(t),
                    record.pension,
                    float(record.consumption[k]),
                    float(record.habit[k]),
                    float(record.wealth[k]),
                    float(record.allocation[k]),
                )
            )
    _write_csv(args.out, LIFETIME_COLUMNS, rows)
    return 0


def _cmd_merton_check(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    base = cfg.model
    if base.pension != 0.0:
        raise ConfigError("merton-check requires pension = 0")
    checks: List[Tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    # 1. frozen-habit model: nested FD allocation vs kappa/(sigma*gamma)
    frozen = dataclasses.replace(
        base, habit=dataclasses.replace(base.habit, eta=0.0)
    )
    alpha0 = merton_alpha(
        base.v,
        base.market,
        base.mortality,
        c_bar=base.habit.initial,
        t_max=cfg.calibration.grid.t_max,
    )
    target = merton_theta(base.market)
    inner = _InnerPaths(base.market, cfg.nested)
    worst = 0.0
    for t in (0.0, 10.0, 20.0):
        for zeta in (0.5, 1.0, 2.0):
            est = allocation_at(
                t,
                zeta,
                base.habit.initial,
                alpha0,
                frozen,
                cfg.nested,
                _inner=inner,
            )
            if est.reliable:
                worst = max(worst, abs(est.value - target))
            else:
                worst = math.inf
    record(
        "allocation limit",
        worst <= 0.02,
        f"max |theta - {target:.5f}| = {worst:.5f} over 9 states",
    )

    # 2. Monte Carlo calibration vs exact multiplier inversion
    check_cal = dataclasses.replace(
        cfg.calibration,
        antithetic=True,
        n_paths=max(cfg.calibration.n_paths, 40000),
        tolerance=min(cfg.calibration.tolerance, 1e-4),
    )
    solution = calibrate_alpha(frozen, check_cal)
    rel = abs(solution.alpha - alpha0) / alpha0
    # at eta = 0 the budget is exactly proportional to alpha^(-1/gamma),
    # so alpha's relative error is gamma times the budget's
    rel_se = base.market.gamma * solution.budget_se / base.v
    record(
        "multiplier calibration",
        rel <= 0.01,
        f"monte carlo alpha {solution.alpha:.6g} vs exact {alpha0:.6g} "
        f"(rel diff {rel:.3%}, alpha rel SE {rel_se:.3%})",
    )

    # 3. initial consumption propensity vs annuity inversion
    c0 = consumption_no_pension(
        base.habit.initial,
        1.0,
        0.0,
        solution.alpha,
        base.market,
        base.mortality,
    )
    prop = merton_propensity(
        base.market, base.mortality, 0.0, cfg.calibration.grid.t_max
    )
    rel = abs(c0 / base.v - prop) / prop
    record(
        "consumption propensity",
        rel <= 0.01,
        f"C0/X0 = {c0 / base.v:.6g} vs 1/A(0) = {prop:.6g} (rel diff {rel:.3%})",
    )

    # 4. risk aversion sensitivity: gamma = 5 shifts the constant fraction
    market5 = dataclasses.replace(base.market, gamma=5.0)
    frozen5 = dataclasses.replace(frozen, market=market5)
    alpha5 = merton_alpha(
        base.v,
        market5,
        base.mortality,
        c_bar=base.habit.initial,
        t_max=cfg.calibration.grid.t_max,
    )
    # the density depends on r and kappa only, so the inner paths carry over
    est5 = allocation_at(
        0.0,
        1.0,
        base.habit.initial,
        alpha5,
        frozen5,
        cfg.nested,
        _inner=inner,
    )
    target5 = merton_theta(market5)
    diff5 = abs(est5.value - target5) if est5.reliable else math.inf
    record(
        "risk aversion variant",
        diff5 <= 0.02,
        f"gamma=5 allocation {est5.value:.5f} vs {target5:.5f}",
    )

    return 0 if all(ok for _, ok, _ in checks) else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route usage errors to exit code 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="greedyhabit",
        description=(
            "Greedy lifetime consumption and investment under "
            "habit-scaled utility"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("calibrate", _cmd_calibrate, "solve the budget identity for alpha"),
        (
            "policy-surface",
            _cmd_policy_surface,
            "wealth/consumption/allocation over a (t, zeta) grid (CSV)",
        ),
        (
            "lifetime",
            _cmd_lifetime,
            "lifetime paths across pension levels on a common scenario (CSV)",
        ),
        (
            "merton-check",
            _cmd_merton_check,
            "verify the frozen-habit limit against closed forms",
        ),
    ):
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument(
            "--paths", type=int, help="calibration path count override"
        )
        p.add_argument("--out", help="output file (default: stdout)")
        p.set_defaults(func=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CalibrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
