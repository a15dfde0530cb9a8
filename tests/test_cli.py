"""Command-line interface: config resolution, CSV contracts, exit codes.

Everything here drives ``main(argv)`` in-process.  Exit code semantics:
0 success, 1 usage/config error (including domain validation), 2
numerical failure (calibration that cannot converge, surfaces dominated
by unreliable allocation estimates).
"""

import csv
import json

import pytest

from greedyhabit import (
    DEFAULT_SEED,
    CalibrationConfig,
    ModelParams,
    NestedConfig,
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
        assert cfg.lifetime_mode == "euler_wealth"

    def test_defaults_are_the_library_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = RunConfig.from_dict()
        assert cfg.calibration == CalibrationConfig(seed=DEFAULT_SEED)
        assert cfg.nested == NestedConfig(
            seed=DEFAULT_SEED, grid=CalibrationConfig().grid
        )
        assert cfg.model == ModelParams()

    def test_round_trip(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = RunConfig.from_dict(
            {
                "pension": 1.5,
                "habit": {"eta": 0.3},
                "calibration": {"n_paths": 5000, "seed": 99},
                "lifetime": {"scenario_seed": 7, "mode": "martingale_wealth"},
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

    def test_domain_validation_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"market": {"sigma": 0.0}})
        assert main(["calibrate", "--config", cfg]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_odd_antithetic_paths_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"calibration": FAST_CAL})
        assert main(["calibrate", "--config", cfg, "--paths", "5"]) == 1
        err = capsys.readouterr().err
        assert "antithetic sampling requires an even n_paths" in err

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
        # a loose tolerance can stop both bisections at the same iterate,
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

    def test_rejects_pension(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pension": 1.0})
        assert main(["merton-check", "--config", cfg]) == 1
