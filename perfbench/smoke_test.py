"""Toy-size smoke test of the benchmark harness (not part of the Tier-1 suite).

Run from the root of the repository:

    python3 -m pytest -q perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert "gate: FAIL" not in proc.stdout
    if trace == "1":
        assert result["attempted"] == 2  # one untraced and one traced run
        assert "spans: " in proc.stdout


def test_empty_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "calibrate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_rejects_a_wrong_calibration(tmp_path):
    proc = bench("--workload", "calibrate", "--seed", "2", "--seconds", "0", "--trace", "0", "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = ROOT / ".bench_build" / "perfbench" / "calibrate"
    report = json.loads((out / "run0.json").read_text())
    report["alpha"] *= 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    command, config, paths = workloads.workload("calibrate", 2, toy=True)
    cfg = gate.RunConfig.from_dict(config, seed=2, n_paths=paths)
    assert gate.check_output(command, cfg, out / "run0.json", 99).ok
    assert not gate.check_output(command, cfg, bad, 99).ok


def test_tracer_skips_missing_names_and_patches_aliases(monkeypatch):
    calls = []

    def generate_paths(n):
        calls.append(n)
        return types.SimpleNamespace(n=n)

    market = types.ModuleType("fakepkg.market")
    market.generate_paths = generate_paths
    solver = types.ModuleType("fakepkg.solver")
    solver.generate_paths = generate_paths  # an internal alias, as in solver.py
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.market", market), ("fakepkg.solver", solver)):
        monkeypatch.setitem(sys.modules, name, module)

    t = tracer.Tracer(package="fakepkg")
    t.install()
    with t.span(tracer.ROOT):
        solver.generate_paths(3)
        market.generate_paths(4)
    t.uninstall()

    assert calls == [3, 4]
    assert solver.generate_paths is generate_paths
    assert "solver.calibrate_alpha" in t.missing
    assert "market.generate_paths" not in t.missing
    records = t.records()
    assert [r["name"] for r in records] == [tracer.ROOT] + ["market.generate_paths"] * 2
    assert all(r["parent"] == 0 for r in records[1:])
    root = records[0]
    assert root["self_s"] == pytest.approx(
        (root["end"] - root["start"]) - sum(r["end"] - r["start"] for r in records[1:])
    )
    metrics = tracer.layer_metrics(records)
    assert metrics["market.generate_paths.calls"] == 2.0
    assert set(metrics) | {"cli.cpu_s", "trace.overhead_s"} == {m["name"] for m in SPEC["per_layer"]}
