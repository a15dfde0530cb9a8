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
import contextlib
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
    _allocations,
    _check_surface,
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


def _fields(obj, skip: Sequence[str] = ()) -> dict:
    """The dataclass fields of ``obj`` by name, less ``skip``."""
    return {
        f.name: getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if f.name not in skip
    }


def _library_groups(
    model: ModelParams, calibration: CalibrationConfig, nested: NestedConfig
) -> dict:
    """The config groups that mirror the library's dataclasses.

    ``calibration`` inlines its grid; ``allocation`` takes its seed and
    grid from calibration.
    """
    return {
        **{name: _fields(getattr(model, name)) for name in _MODEL_GROUPS},
        "pension": model.pension,
        "wealth": model.v,
        "calibration": {
            **_fields(calibration.grid),
            **_fields(calibration, skip=("grid",)),
        },
        "allocation": _fields(nested, skip=("seed", "grid")),
    }


# RunConfig's own fields: the (group, key) of the config that holds each,
# and its default
_RUN_KEYS = {
    "policy_times": ("policy", "times", [0.0, 10.0, 20.0, 30.0]),
    "habit_level": ("policy", "habit_level", 1.0),
    "n_zeta": ("policy", "n_zeta", 41),
    "zeta_spread": ("policy", "spread", 4.0),
    "max_wealth": ("policy", "max_wealth", 20.0),
    "pensions": ("lifetime", "pensions", [0.0, 0.5, 1.0, 1.5, 2.0]),
    "horizon": ("lifetime", "horizon", 40.0),
    "lifetime_dt": ("lifetime", "dt", 0.05),
    "theta_refresh": ("lifetime", "theta_refresh", 0.25),
    "scenario_seed": ("lifetime", "scenario_seed", None),
}

_DEFAULTS = _library_groups(ModelParams(), CalibrationConfig(), NestedConfig())
for _group, _key, _default in _RUN_KEYS.values():
    _DEFAULTS.setdefault(_group, {})[_key] = _default
# no seed in the file lets GREEDYHABIT_SEED apply
_DEFAULTS["calibration"]["seed"] = None


def _typed(value, default, key: str):
    """``value`` checked against the type of its ``default``.

    A list or tuple default is a non-empty list of numbers (a tuple also
    fixes the length), and a None default an optional non-negative
    integer seed.
    """
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key}: expected true/false")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key}: expected a number")
        # exact for ints too, so one past float range cannot overflow float()
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"config key {key}: expected a finite number")
        return float(value)
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"config key {key}: expected a non-empty list")
        items = tuple(_typed(x, 0.0, f"{key}[{i}]") for i, x in enumerate(value))
        if isinstance(default, tuple) and len(items) != len(default):
            raise ConfigError(f"config key {key}: expected {len(default)} values")
        return items
    if default is None and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key}: expected an integer")
    if default is None and value < 0:
        raise ConfigError(f"config key {key}: expected a non-negative integer")
    return value


def _resolve(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    """``defaults`` with ``overrides`` merged in, every value checked."""
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key: {prefix}{sorted(unknown)[0]}")
    out = {}
    for key, default in defaults.items():
        value = overrides.get(key, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix}{key}: expected an object")
            out[key] = _resolve(default, value, f"{prefix}{key}.")
        else:
            out[key] = _typed(value, default, prefix + key)
    return out


def _master_seed(flag: Optional[int], configured: Optional[int]) -> int:
    """The ``--seed`` flag, else the config file, else GREEDYHABIT_SEED."""
    if flag is not None:
        if flag < 0:
            raise ConfigError(f"--seed must be non-negative, got {flag}")
        return flag
    if configured is not None:
        return configured
    if not os.environ.get(ENV_SEED):
        return DEFAULT_SEED
    try:
        seed = int(os.environ[ENV_SEED])
    except ValueError:
        raise ConfigError(
            f"environment variable {ENV_SEED} must be an integer"
        ) from None
    if seed < 0:
        raise ConfigError(f"environment variable {ENV_SEED} must be non-negative")
    return seed


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
        cfg = _resolve(_DEFAULTS, data or {})
        model = ModelParams(
            **{name: group(**cfg[name]) for name, group in _MODEL_GROUPS.items()},
            pension=cfg["pension"],
            v=cfg["wealth"],
        )
        cal = cfg["calibration"]
        grid = TimeGrid(**{key: cal.pop(key) for key in _fields(TimeGrid())})
        cal["seed"] = _master_seed(seed, cal["seed"])
        if n_paths is not None:
            cal["n_paths"] = n_paths
        return cls(
            model=model,
            calibration=CalibrationConfig(grid=grid, **cal),
            nested=NestedConfig(seed=cal["seed"], grid=grid, **cfg["allocation"]),
            **{field: cfg[group][key] for field, (group, key, _) in _RUN_KEYS.items()},
        )

    def to_dict(self) -> dict:
        """Canonical JSON-shaped form; from_dict(to_dict()) round-trips."""
        out = _library_groups(self.model, self.calibration, self.nested)
        for field, (group, key, _) in _RUN_KEYS.items():
            out.setdefault(group, {})[key] = getattr(self, field)
        return out


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


@contextlib.contextmanager
def _output(path: Optional[str]):
    """A command's ``--out``: stdout for None or "-", else the file at ``path``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    # the summary lines go to stdout unless the JSON report does
    if args.out != "-":
        for key, value in report.items():
            print(f"{key}: {value}")
    if args.out is not None:
        with _output(args.out) as fh:
            print(json.dumps(report, indent=2), file=fh)
    return 0


def _cmd_policy_surface(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    # every check that needs no pricing runs before the calibration
    if cfg.n_zeta < 1:
        raise ConfigError(f"config key policy.n_zeta: expected >= 1, got {cfg.n_zeta}")
    _check_surface(
        cfg.policy_times, cfg.habit_level, cfg.max_wealth, cfg.nested.grid
    )
    zeta_grid = [
        default_zeta_grid(t, cfg.model.market, n=cfg.n_zeta, spread=cfg.zeta_spread)
        for t in cfg.policy_times
    ]
    solution = calibrate_alpha(cfg.model, cfg.calibration)
    points = policy_surface(
        cfg.policy_times,
        cfg.habit_level,
        solution.alpha,
        cfg.model,
        cfg.nested,
        zeta_grid=zeta_grid,
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
    base, h0, t_max = cfg.model, cfg.model.habit.initial, cfg.calibration.grid.t_max
    if base.pension != 0.0:
        raise ConfigError("merton-check requires pension = 0")
    # one PASS or FAIL line per check, written as each check ends
    with _output(args.out) as out:
        checks: List[Tuple[str, bool, str]] = []

        def record(name: str, ok: bool, detail: str) -> None:
            checks.append((name, ok, detail))
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)

        frozen = dataclasses.replace(
            base, habit=dataclasses.replace(base.habit, eta=0.0)
        )

        def limit(market: MarketParams, states):
            """Exact alpha and nested allocations of the frozen habit at ``market``.

            Returns the alpha, the target kappa/(sigma*gamma), the estimate
            at each state (t, zeta, H) and the largest miss of the target
            (inf if an estimate is unreliable).
            """
            alpha = merton_alpha(base.v, market, base.mortality, c_bar=h0, t_max=t_max)
            target = merton_theta(market)
            model = dataclasses.replace(frozen, market=market)
            found = _allocations(states, alpha, model, cfg.nested._density(market))
            miss = [abs(e.value - target) if e.reliable else math.inf for e in found]
            return alpha, target, found, max(miss)

        # 1. frozen-habit model: nested pathwise allocation vs
        # kappa/(sigma*gamma), which it reproduces to rounding
        states = [(t, zeta, h0) for t in (0.0, 10.0, 20.0) for zeta in (0.5, 1.0, 2.0)]
        alpha0, target, _, worst = limit(base.market, states)
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
        # at eta = 0 the budget is exactly proportional to alpha^(-1/gamma),
        # so alpha's relative error is gamma times the budget's, and the
        # alpha of the plain sample mean is one rescaling away
        g, alpha, plain = base.market.gamma, solution.alpha, solution.plain
        plain_alpha = alpha * (plain.value / base.v) ** g
        rel = abs(alpha - alpha0) / alpha0
        record(
            "multiplier calibration",
            rel <= 0.01,
            f"monte carlo alpha {alpha:.6g} vs exact {alpha0:.6g} (rel diff "
            f"{rel:.3%}, alpha rel SE {g * solution.budget_se / base.v:.3%}); "
            f"plain mean alpha {plain_alpha:.6g} (rel diff "
            f"{abs(plain_alpha - alpha0) / alpha0:.3%}, alpha rel SE "
            f"{g * plain.std_error / plain.value:.3%}, bound 1%)",
        )

        # 3. initial consumption propensity vs annuity inversion
        c0 = consumption_no_pension(
            h0, 1.0, 0.0, solution.alpha, base.market, base.mortality
        )
        prop = merton_propensity(base.market, base.mortality, 0.0, t_max)
        rel = abs(c0 / base.v - prop) / prop
        record(
            "consumption propensity",
            rel <= 0.01,
            f"C0/X0 = {c0 / base.v:.6g} vs 1/A(0) = {prop:.6g} (rel diff {rel:.3%})",
        )

        # 4. risk aversion sensitivity: gamma = 5 shifts the constant fraction
        market5 = dataclasses.replace(base.market, gamma=5.0)
        _, target5, [est5], diff5 = limit(market5, [(0.0, 1.0, h0)])
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
        p.add_argument("--out", help="output file, or - for stdout (default)")
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
