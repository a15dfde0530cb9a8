"""Command-line interface: config resolution, CSV contracts, exit codes.

Everything here drives ``main(argv)`` in-process.  Exit code semantics:
0 success, 1 usage/config error (including domain validation), 2
numerical failure (calibration that cannot converge, surfaces dominated
by unreliable allocation estimates).
"""

import csv
import inspect
import json
import math
import threading

import pytest

import greedyhabit.cli
import greedyhabit.lifetime
import greedyhabit.market
from greedyhabit import (
    DEFAULT_SEED,
    CalibrationConfig,
    CalibrationError,
    ModelParams,
    NestedConfig,
    default_zeta_grid,
    generate_paths,
    pension_sweep,
    policy_surface,
    simulate_lifetime,
)
from greedyhabit.cli import (
    ConfigError,
    ENV_SEED,
    LIFETIME_COLUMNS,
    POLICY_COLUMNS,
    RunConfig,
    main,
)

# small-but-honest settings so command round trips stay around a second
FAST_CAL = {
    "n_paths": 2000,
    "dt": 0.1,
    "tolerance": 0.02,
    "antithetic": True,
    "seed": 12,
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def calibrations(monkeypatch):
    """The ``calibrate_alpha`` calls the commands make, in a list."""
    calls = []
    for module in (greedyhabit.cli, greedyhabit.lifetime):

        def counted(*args, _real=module.calibrate_alpha, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "calibrate_alpha", counted)
    return calls


class TestRunConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = RunConfig.from_dict()
        assert cfg.model.v == 10.0
        assert cfg.model.habit.eta == 0.1
        assert cfg.model.pension == 0.0
        assert cfg.calibration.grid.t_max == 60.0
        assert cfg.calibration.n_paths == 20000
        assert cfg.calibration.seed == DEFAULT_SEED
        assert cfg.nested.seed == DEFAULT_SEED

    def test_defaults_are_the_library_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = RunConfig.from_dict()
        assert cfg.calibration == CalibrationConfig(seed=DEFAULT_SEED)
        assert cfg.nested == NestedConfig(
            seed=DEFAULT_SEED, grid=CalibrationConfig().grid
        )
        assert cfg.model == ModelParams()

    def test_thread_count_is_not_a_setting(self, capsys):
        # the threads follow the CPUs the process may use; no config key,
        # flag or argument sets them
        assert "worker" not in json.dumps(RunConfig.from_dict().to_dict())
        assert "workers" not in inspect.signature(generate_paths).parameters
        assert not hasattr(CalibrationConfig(), "workers")
        assert main(["calibrate", "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_run_settings_default_to_the_library_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        lifetime = greedyhabit.cli._DEFAULTS["lifetime"]
        for fn in (simulate_lifetime, pension_sweep):
            for key in ("horizon", "dt", "theta_refresh", "scenario_seed"):
                assert lifetime[key] == default(fn, key), (fn.__name__, key)
        policy = greedyhabit.cli._DEFAULTS["policy"]
        assert policy["max_wealth"] == default(policy_surface, "max_wealth")
        assert policy["n_zeta"] == default(default_zeta_grid, "n")
        assert policy["spread"] == default(default_zeta_grid, "spread")

    def test_round_trip(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = RunConfig.from_dict(
            {
                "pension": 1.5,
                "habit": {"eta": 0.3},
                "calibration": {"n_paths": 5000, "seed": 99},
                "lifetime": {"scenario_seed": 7},
            }
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_override_keeps_other_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = RunConfig.from_dict({"market": {"mu": 0.05}})
        assert cfg.model.market.mu == 0.05
        assert cfg.model.market.sigma == 0.16

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: pensions"):
            RunConfig.from_dict({"pensions": [0.0]})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="market.nu"):
            RunConfig.from_dict({"market": {"nu": 0.08}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="market.sigma"):
            RunConfig.from_dict({"market": {"sigma": "high"}})
        with pytest.raises(ConfigError, match="wealth"):
            RunConfig.from_dict({"wealth": True})
        with pytest.raises(ConfigError, match="calibration.n_paths"):
            RunConfig.from_dict({"calibration": {"n_paths": 2000.5}})
        with pytest.raises(ConfigError, match="bracket"):
            RunConfig.from_dict({"calibration": {"bracket": [1.0]}})
        with pytest.raises(ConfigError, match="lifetime.mode"):
            RunConfig.from_dict({"lifetime": {"mode": "exact"}})
        with pytest.raises(ConfigError, match="lifetime.pensions"):
            RunConfig.from_dict({"lifetime": {"pensions": []}})
        with pytest.raises(
            ConfigError, match="allocation.antithetic: expected true/false"
        ):
            RunConfig.from_dict({"allocation": {"antithetic": 1}})
        with pytest.raises(
            ConfigError, match="lifetime.scenario_seed: expected an integer"
        ):
            RunConfig.from_dict({"lifetime": {"scenario_seed": "a"}})
        with pytest.raises(ConfigError, match="market: expected an object"):
            RunConfig.from_dict({"market": 3})
        with pytest.raises(ConfigError, match=r"calibration\.bracket\[1\]"):
            RunConfig.from_dict({"calibration": {"bracket": [1.0, "x"]}})

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"wealth": math.nan}, "wealth"),
            ({"wealth": 10**400}, "wealth"),
            ({"pension": math.inf}, "pension"),
            ({"policy": {"habit_level": math.nan}}, "policy.habit_level"),
            ({"calibration": {"tolerance": math.nan}}, "calibration.tolerance"),
            (
                {"calibration": {"bracket": [1e-6, -math.inf]}},
                r"calibration\.bracket\[1\]",
            ),
        ],
    )
    def test_non_finite_numbers(self, overrides, key):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            RunConfig.from_dict(overrides)

    @pytest.mark.parametrize(
        "group, key", [("calibration", "seed"), ("lifetime", "scenario_seed")]
    )
    def test_negative_config_seed(self, group, key):
        with pytest.raises(
            ConfigError, match=f"{group}.{key}: expected a non-negative integer"
        ):
            RunConfig.from_dict({group: {key: -1}})

    def test_negative_seed_flag(self, capsys):
        assert main(["calibrate", "--seed", "-1"]) == 1
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_negative_environment_seed(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "-5")
        with pytest.raises(ConfigError, match=f"{ENV_SEED} must be non-negative"):
            RunConfig.from_dict()

    def test_seed_precedence(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "333")
        # flag beats file beats environment
        assert RunConfig.from_dict({"calibration": {"seed": 22}}, seed=11).calibration.seed == 11
        assert RunConfig.from_dict({"calibration": {"seed": 22}}).calibration.seed == 22
        assert RunConfig.from_dict().calibration.seed == 333
        monkeypatch.delenv(ENV_SEED)
        assert RunConfig.from_dict().calibration.seed == DEFAULT_SEED

    def test_bad_environment_seed(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "not-a-seed")
        with pytest.raises(ConfigError, match=ENV_SEED):
            RunConfig.from_dict()

    def test_paths_override(self):
        cfg = RunConfig.from_dict({"calibration": {"n_paths": 5000}}, n_paths=777)
        assert cfg.calibration.n_paths == 777


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["calibrate", "--config", "/nonexistent.json"]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["calibrate", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["calibrate", "--config", str(path)]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_nan_wealth_is_usage_error(self, tmp_path, capsys, calibrations):
        # json reads NaN; it must stop at the config, before any calibration
        cfg = write_config(tmp_path, {"wealth": math.nan})
        assert main(["calibrate", "--config", cfg]) == 1
        assert "wealth" in capsys.readouterr().err
        assert calibrations == []

    def test_domain_validation_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"market": {"sigma": 0.0}})
        assert main(["calibrate", "--config", cfg]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_odd_antithetic_paths_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"calibration": FAST_CAL})
        assert main(["calibrate", "--config", cfg, "--paths", "5"]) == 1
        err = capsys.readouterr().err
        assert "antithetic sampling requires an even n_paths" in err

    @pytest.mark.parametrize(
        "error, code", [(ValueError, 1), (CalibrationError, 2)]
    )
    def test_error_in_a_worker_thread_keeps_its_exit_code(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        real = greedyhabit.market._fill_normals

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error("chunk failed")
            real(*args)

        monkeypatch.setattr(greedyhabit.market, "WORKERS", 2)
        monkeypatch.setattr(greedyhabit.market, "_fill_normals", failing)
        cfg = write_config(tmp_path, {"calibration": FAST_CAL})
        assert main(["calibrate", "--config", cfg]) == code
        assert "chunk failed" in capsys.readouterr().err

    def test_calibration_failure_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "calibration": {
                    "n_paths": 400,
                    "dt": 0.2,
                    "tolerance": 1e-14,
                    "max_iterations": 2,
                    "seed": 5,
                }
            },
        )
        assert main(["calibrate", "--config", cfg]) == 2
        assert "numerical failure" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "data", [{"wealth": 1e-6, "market": {"gamma": 60}}, {"wealth": 1e-300}]
    )
    def test_start_beyond_float_range_is_exit_2(self, tmp_path, capsys, data):
        cfg = write_config(tmp_path, dict(data, calibration=FAST_CAL))
        assert main(["calibrate", "--config", cfg]) == 2
        assert "could not bracket" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_report_and_json_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"calibration": FAST_CAL})
        out = tmp_path / "report.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "alpha:" in stdout
        report = json.loads(out.read_text())
        assert report["alpha"] > 0.0
        assert report["budget_residual"] <= 0.02
        assert report["seed"] == 12

    def test_dash_out_prints_only_the_json_report(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(tmp_path, {"calibration": FAST_CAL})
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate", "--config", cfg, "--out", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] > 0.0
        assert report["seed"] == 12
        assert not (tmp_path / "-").exists()

    def test_seed_flag_changes_result(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"calibration": FAST_CAL})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(
            ["calibrate", "--config", cfg, "--seed", "13", "--out", str(out2)]
        ) == 0
        capsys.readouterr()
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert b["seed"] == 13
        # a loose tolerance can stop both searches at the same iterate,
        # but the Monte Carlo budget on a different bundle cannot coincide
        assert a["budget_residual"] != b["budget_residual"]


class TestPolicySurfaceCommand:
    CONFIG = {
        "calibration": FAST_CAL,
        "allocation": {"n_inner": 400},
        "policy": {"times": [0.0, 10.0], "n_zeta": 5, "spread": 2.0},
    }

    def test_csv_contract_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["policy-surface", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["policy-surface", "--config", cfg, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == POLICY_COLUMNS
        assert len(rows) > 1
        for row in rows[1:]:
            assert float(row[0]) in (0.0, 10.0)
            assert float(row[3]) > 0.0  # wealth
            assert float(row[4]) > 0.0  # consumption
            assert row[7] in ("True", "False")

    @pytest.mark.parametrize(
        "policy, message",
        [
            ({"times": [0.03]}, "t=0.03 does not lie on the grid"),
            ({"times": [0.0, 60.0]}, "t=60.0 leaves no horizon"),
            ({"n_zeta": 0}, "config key policy.n_zeta: expected >= 1, got 0"),
        ],
        ids=["off-grid-time", "last-grid-time", "n_zeta-0"],
    )
    def test_bad_policy_fails_before_calibration(
        self, tmp_path, capsys, calibrations, policy, message
    ):
        cfg = write_config(tmp_path, {**self.CONFIG, "policy": policy})
        out = tmp_path / "s.csv"
        assert main(["policy-surface", "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert calibrations == []

    def test_non_positive_max_wealth_is_usage_error(self, tmp_path, capsys):
        data = {**self.CONFIG, "policy": {"times": [0.0], "max_wealth": -1.0}}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "s.csv"
        assert main(["policy-surface", "--config", cfg, "--out", str(out)]) == 1
        assert "max_wealth must be positive" in capsys.readouterr().err


class TestLifetimeCommand:
    CONFIG = {
        "calibration": FAST_CAL,
        "allocation": {"n_inner": 300},
        "lifetime": {
            "pensions": [0.0, 1.5],
            "horizon": 2.0,
            "dt": 0.1,
            "theta_refresh": 0.5,
            "scenario_seed": 4,
        },
    }

    def test_csv_contract(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "life.csv"
        assert main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == LIFETIME_COLUMNS
        body = rows[1:]
        assert len(body) == 2 * 21  # two pensions, horizon/dt + 1 times each
        pensions = {float(r[1]) for r in body}
        assert pensions == {0.0, 1.5}
        for row in body:
            assert float(row[2]) >= float(row[1]) - 1e-12  # consumption >= pension


    @pytest.mark.parametrize(
        "lifetime, message",
        [
            ({"horizon": 70.0}, "horizon 70.0 must be < nested grid t_max 60.0"),
            ({"dt": 0.3}, "t_max=2.0 is not an integer multiple of dt=0.3"),
            ({"theta_refresh": 0.33}, "theta_refresh=0.33 is not a multiple of dt=0.1"),
            ({"dt": 0.04, "theta_refresh": 0.52}, "t=0.52 does not lie on the grid"),
        ],
        ids=["horizon", "dt", "theta_refresh", "refresh-off-nested-grid"],
    )
    def test_bad_record_fails_before_calibration(
        self, tmp_path, capsys, calibrations, lifetime, message
    ):
        data = {**self.CONFIG, "lifetime": {**self.CONFIG["lifetime"], **lifetime}}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "life.csv"
        assert main(["lifetime", "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert calibrations == []

    def test_coarse_record_grid_fails_before_calibration(
        self, tmp_path, capsys, calibrations
    ):
        # eta * dt = 1.25 on the record grid; the calibration grid is fine
        data = {
            **self.CONFIG,
            "habit": {"eta": 2.5},
            "lifetime": {**self.CONFIG["lifetime"], "dt": 0.5},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "life.csv"
        assert main(["lifetime", "--config", cfg, "--out", str(out)]) == 1
        assert "eta * dt = 1.25 >= 1" in capsys.readouterr().err
        run = RunConfig.from_dict(data)
        with pytest.raises(ValueError, match="record grid too coarse"):
            pension_sweep(
                run.model,
                [0.0, 0.5],
                calibration=run.calibration,
                horizon=2.0,
                dt=0.5,
                theta_refresh=0.5,
                nested=run.nested,
            )
        assert calibrations == []


class TestMertonCheckCommand:
    def test_all_four_pass(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "calibration": {"dt": 0.1, "antithetic": True, "seed": 12},
                "allocation": {"n_inner": 1500},
            },
        )
        assert main(["merton-check", "--config", cfg]) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("PASS", "FAIL"))
        ]
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_out_file_holds_the_four_lines(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "calibration": {"dt": 0.25, "antithetic": True, "seed": 12},
                "allocation": {"n_inner": 200},
            },
        )
        out = tmp_path / "checks.txt"
        code = main(["merton-check", "--config", cfg, "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)
        assert code == (0 if all(line.startswith("PASS") for line in lines) else 2)
        assert capsys.readouterr().out == ""

    def test_rejects_pension(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pension": 1.0})
        assert main(["merton-check", "--config", cfg]) == 1
