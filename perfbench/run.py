"""Benchmark of the greedyhabit command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 10 --trace 0

Every CLI run happens in a fresh process (``child.py``) that imports the
package from ``src/`` and calls ``greedyhabit.cli.main`` with
``--config``, ``--seed`` and ``--out``; the runs follow one another, and
repeat until ``--seconds`` have passed (at least one run).

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` (the
``main`` call), ``setup_s`` (process start until the package is
imported and the config resolved, also sampled by set-up-only
processes), ``peak_rss_mb`` (``ru_maxrss``) and ``se_rel`` (the Monte
Carlo standard error relative to its estimate).  ``--trace 1`` repeats
the untraced runs, then makes one traced run and reports the per-layer
metrics from its spans; the traced output must be byte-identical to the
untraced one.

After the timed runs the output is checked (``gate.py``) and the
eta = 0 calibration is compared with its closed form.  Files go to
``.bench_build/perfbench/<workload>/``, spans to ``spans.json`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # set-up-only processes per untraced run, besides the CLI runs
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "se_rel": "ratio"}
PER_LAYER = {
    "market.generate_paths.calls": "count",
    "market.generate_paths.s": "s",
    "market.bundle_mb": "MB",
    "habit.bernoulli_kernel.calls": "count",
    "habit.bernoulli_kernel.s": "s",
    "habit.habit_closed_form.s": "s",
    "solver.calibrate_alpha.calls": "count",
    "solver.calibrate_alpha.s": "s",
    "solver.calibrate_alpha.self_s": "s",
    "solver.budget_evals": "count",
    "solver.solve_paths.s": "s",
    "allocation.allocation_at.calls": "count",
    "allocation.allocation_at.s": "s",
    "allocation.allocation_at.self_s": "s",
    "allocation.allocation_at.p50_ms": "ms",
    "allocation.unreliable": "count",
    "allocation.policy_surface.self_s": "s",
    "lifetime.simulate_lifetime.calls": "count",
    "lifetime.simulate_lifetime.self_s": "s",
    "lifetime.refreshes": "count",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs, for the smoke test"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_child(spec: dict, path: Path) -> dict:
    """Run one CLI command (or set-up only) in a fresh process."""
    spec = {"src": str(SRC), "result": str(path.with_suffix(".result.json")), **spec}
    spec_path = path.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t0)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"rc": "timeout"}
    if proc.returncode != 0:
        return {"rc": proc.returncode, "error": proc.stderr[-2000:]}
    result = json.loads(Path(spec["result"]).read_text())
    if result.get("rc") not in (0, None):
        result["error"] = proc.stderr[-2000:]
    return result


def high_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def provenance() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def describe(name: str, unit: str, samples) -> str:
    line = f"  {name:<34} {statistics.median(samples):>12.6g} {unit:<6} median of {len(samples)}"
    high = high_percentile(samples)
    if high is None:
        return line + "; no percentile has 10 samples beyond it"
    return line + f"; p{high[0]:.0f} {high[1]:.6g}"


class Workload:
    """One workload at one seed: its config, its files and its CLI runs."""

    def __init__(self, args: argparse.Namespace):
        self.seed = args.seed
        self.command, self.config, self.paths = workloads.workload(
            args.workload, args.seed, args.toy
        )
        self.dir = OUT / args.workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.suffix = ".json" if self.command == "calibrate" else ".csv"

    def _spec(self, argv, spans=None) -> dict:
        return {
            "config": str(self.config_path),
            "seed": self.seed,
            "paths": self.paths,
            "argv": argv,
            "spans": spans,
        }

    def setup_probe(self, name: str):
        """Set-up time of a process that imports and resolves, then exits."""
        return run_child(self._spec(None), self.dir / name).get("setup_s")

    def cli_run(self, name: str, traced: bool = False) -> dict:
        out = self.dir / f"{name}{self.suffix}"
        argv = [self.command, "--config", str(self.config_path), "--seed", str(self.seed)]
        if self.paths is not None:
            argv += ["--paths", str(self.paths)]
        spans = str(self.dir / "spans.json") if traced else None
        result = run_child(self._spec(argv + ["--out", str(out)], spans), self.dir / name)
        result.update(out=out, spans=spans)
        return result


def measure(work: Workload, seconds: float, trace: bool):
    """Untraced CLI runs for ``seconds`` (at least one), then the traced run.

    Untraced runs are framed by set-up-only probes, so set-up time is
    sampled at both ends of the run.
    """
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [work.setup_probe(f"setup{i}") for i in range(probes)]
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(work.cli_run(f"run{len(runs)}"))
        if runs[-1]["rc"] != 0:
            break
    setups += [work.setup_probe(f"setup{i}") for i in range(probes, 2 * probes)]
    traced = work.cli_run("traced", traced=True) if trace and runs[-1]["rc"] == 0 else None
    return [s for s in setups if s is not None], runs, traced


def verify(work: Workload, runs, traced, toy: bool):
    """Gate the outputs; returns (gate result, eta = 0 check, problems, failed)."""
    import gate
    from greedyhabit.cli import RunConfig

    cfg = RunConfig.from_dict(work.config, seed=work.seed, n_paths=work.paths)
    all_runs = runs + ([traced] if traced else [])
    ok_runs = [r for r in runs if r["rc"] == 0]
    problems = [
        f"run {r['out'].stem}: exit {r['rc']} {r.get('error', '')}"
        for r in all_runs
        if r["rc"] != 0
    ]
    problems += [
        f"run {r['out'].stem}: package imported from {r['package']}"
        for r in all_runs
        if "package" in r and not Path(r["package"]).resolve().is_relative_to(SRC)
    ]
    checked = gate.GateResult(ok=False)
    differs = []
    if ok_runs:
        # one seed, one output: across repeats, and with tracing on
        reference = ok_runs[0]["out"]
        expected = reference.read_bytes()
        differs = [r for r in all_runs if r["rc"] == 0 and r["out"].read_bytes() != expected]
        problems += [f"run {r['out'].stem}: output differs from {reference.name}" for r in differs]
        try:
            checked = gate.check_output(
                work.command, cfg, reference, workloads.derive_seed(work.seed, "repricing")
            )
        except Exception:  # a malformed output fails the gate, not the harness
            problems.append("gate raised:\n" + traceback.format_exc())
    merton = gate.merton_check(
        cfg,
        workloads.derive_seed(work.seed, "merton"),
        n_paths=4000 if toy else gate.MERTON_PATHS,
    )
    if checked.ok:
        failed = sum(r["rc"] != 0 for r in all_runs) + len(differs)
    else:
        failed = len(all_runs)
    return checked, merton, problems, failed


def per_layer(traced: dict, untraced: list) -> dict:
    """Per-layer metrics of the traced run, printed with the layer shares."""
    import tracer

    spans = json.loads(Path(traced["spans"]).read_text())
    records = spans["spans"]
    values = tracer.layer_metrics(records)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["cli.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    print("per-layer metrics (traced run; .s inclusive, .self_s exclusive):")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<34} {values[name]:>12.6g} {unit}")
    layers = tracer.layer_self_times(records)
    print("self time by layer, as a share of the untraced wall_s:")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<34} {self_s:>12.6g} s      {self_s / untraced_wall:7.1%}")
    accounted = sum(layers.values())
    print(
        f"  self times sum to {accounted:.6g} s, {accounted - untraced_wall:+.4g} s from the "
        f"untraced wall_s {untraced_wall:.6g} s; trace.overhead_s {values['trace.overhead_s']:+.4g} s"
    )
    if spans["missing"]:
        print(f"  not traced, missing from the package: {', '.join(spans['missing'])}")
    print(f"  spans: {traced['spans']}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "greedyhabit" / "cli.py").is_file():
        print(f"error: no greedyhabit sources in {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GREEDYHABIT_SEED", None)  # --seed is always passed
    sys.path.insert(0, str(SRC))

    work = Workload(args)
    setups, runs, traced = measure(work, args.seconds, bool(args.trace))
    checked, merton, problems, failed = verify(work, runs, traced, args.toy)
    attempted = len(runs) + (traced is not None)
    correct = failed == 0 and not problems and merton.ok

    ok_runs = [r for r in runs if r["rc"] == 0]
    print(
        f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
        f"{len(runs)} untraced run(s)" + (", 1 traced run" if traced else "")
    )
    samples = {
        "wall_s": [r["wall_s"] for r in ok_runs],
        "setup_s": setups + [r["setup_s"] for r in ok_runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_runs],
        "se_rel": [checked.se_rel] if checked.ok else [],
    }
    for name, unit in END_TO_END.items():
        if samples[name]:
            print(describe(name, unit, samples[name]))
    # a failed run counts whole; a good one by its share of unreliable rows
    run_share = failed / attempted
    row_share = checked.unreliable / checked.rows if checked.rows else 0.0
    failed_frac = run_share + (1.0 - run_share) * row_share
    detail = f"{failed}/{attempted} runs failed"
    if work.command == "policy-surface":
        detail += f"; {checked.unreliable}/{checked.rows} rows with theta_reliable = False"
    print(f"  {'failed_frac':<34} {failed_frac:>12.6g} ratio  {detail}")

    if not args.trace:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
            if samples[name]
        }
    elif traced is not None and traced["rc"] == 0:
        values = per_layer(traced, ok_runs)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {}

    for line in checked.checks + merton.checks + [f"FAIL {p}" for p in problems]:
        print(f"gate: {line}")
    fingerprint = {
        "seed": args.seed,
        **checked.fingerprint,
        "config": ok_runs[0]["config"] if ok_runs else None,
    }
    print("fingerprint: " + json.dumps(fingerprint))
    prov = provenance()
    print("provenance: " + json.dumps(prov))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "provenance": prov,
        "samples": samples,
        "failed_frac": failed_frac,
        "checks": checked.checks + merton.checks,
        "problems": problems,
        "metrics": metrics,
    }
    (work.dir / "report.json").write_text(json.dumps(report, indent=2))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
