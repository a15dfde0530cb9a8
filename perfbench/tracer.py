"""Spans around calls into the public functions of each greedyhabit module.

The tracer replaces each traced function at every ``greedyhabit`` module
attribute that holds the same function object, so internal calls such
as ``solver.generate_paths`` or ``lifetime.allocation_at`` are caught as
well.  Nothing under ``src/`` is changed.  Spans are kept in memory and
written out when the run ends; a layer's self time is its span duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, public function); a name missing from the package is skipped
# and reported rather than failing the run
TRACED = (
    ("market", "generate_paths"),
    ("habit", "bernoulli_kernel"),
    ("habit", "habit_closed_form"),
    ("solver", "calibrate_alpha"),
    ("solver", "solve_paths"),
    ("allocation", "allocation_at"),
    ("allocation", "policy_surface"),
    ("lifetime", "pension_sweep"),
    ("lifetime", "simulate_lifetime"),
)

ROOT = "cli.main"


def _bundle_mb(bundle) -> float:
    # computed from the returned arrays' sizes, not measured
    return sum(
        value.nbytes
        for value in getattr(bundle, "__dict__", {}).values()
        if isinstance(value, np.ndarray)
    ) / 2**20


# what to keep from each return value: bundle size, budget evaluations,
# and whether an allocation estimate was reliable
_OBSERVE: Dict[str, Callable] = {
    "market.generate_paths": _bundle_mb,
    "solver.calibrate_alpha": lambda sol: getattr(sol, "iterations", None),
    "allocation.allocation_at": lambda est: getattr(est, "reliable", None),
}


class Tracer:
    """In-memory span recorder with function patching."""

    def __init__(self, package: str = "greedyhabit"):
        self.package = package
        # each span: [name, parent index or None, start, end, observed]
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[Optional[int]] = [None]
        self._patched: list = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1], time.perf_counter(), None, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                self.spans[index][4] = observe(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function wherever the package refers to it."""
        prefix = self.package + "."
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == self.package or name.startswith(prefix)
        ]
        for module_name, fn_name in TRACED:
            name = f"{module_name}.{fn_name}"
            fn = getattr(sys.modules.get(prefix + module_name), fn_name, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def records(self) -> List[dict]:
        """Spans as JSON-ready records with inclusive and self time."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {
                "id": i,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "self_s": (end - start) - child_time[i],
                "observed": observed,
            }
            for i, (name, parent, start, end, observed) in enumerate(self.spans)
        ]


def layer_self_times(records: List[dict]) -> Dict[str, float]:
    """Self time summed per layer (the module part of each span name)."""
    out: Dict[str, float] = {}
    for rec in records:
        layer = rec["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + rec["self_s"]
    return out


def layer_metrics(records: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from one traced run (``.s`` inclusive, ``.self_s`` exclusive).

    ``cli.cpu_s`` and ``trace.overhead_s`` need the untraced runs and are
    added by the caller.
    """
    by_name: Dict[str, List[dict]] = {}
    for rec in records:
        by_name.setdefault(rec["name"], []).append(rec)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(spans(name)))

    def total(name):
        return sum(r["end"] - r["start"] for r in spans(name))

    def self_total(name):
        return sum(r["self_s"] for r in spans(name))

    observed = {
        name: [r["observed"] for r in spans(name) if r["observed"] is not None]
        for name in _OBSERVE
    }
    alloc_ms = [1e3 * (r["end"] - r["start"]) for r in spans("allocation.allocation_at")]
    sim_ids = {r["id"] for r in spans("lifetime.simulate_lifetime")}
    metrics = {
        "market.generate_paths.calls": calls("market.generate_paths"),
        "market.generate_paths.s": total("market.generate_paths"),
        "market.bundle_mb": max(observed["market.generate_paths"], default=0.0),
        "habit.bernoulli_kernel.calls": calls("habit.bernoulli_kernel"),
        "habit.bernoulli_kernel.s": total("habit.bernoulli_kernel"),
        "habit.habit_closed_form.s": total("habit.habit_closed_form"),
        "solver.calibrate_alpha.calls": calls("solver.calibrate_alpha"),
        "solver.calibrate_alpha.s": total("solver.calibrate_alpha"),
        "solver.calibrate_alpha.self_s": self_total("solver.calibrate_alpha"),
        "solver.budget_evals": float(sum(observed["solver.calibrate_alpha"])),
        "solver.solve_paths.s": total("solver.solve_paths"),
        "allocation.allocation_at.calls": calls("allocation.allocation_at"),
        "allocation.allocation_at.s": total("allocation.allocation_at"),
        "allocation.allocation_at.self_s": self_total("allocation.allocation_at"),
        "allocation.allocation_at.p50_ms": statistics.median(alloc_ms) if alloc_ms else 0.0,
        "allocation.unreliable": float(
            sum(not ok for ok in observed["allocation.allocation_at"])
        ),
        "allocation.policy_surface.self_s": self_total("allocation.policy_surface"),
        "lifetime.simulate_lifetime.calls": calls("lifetime.simulate_lifetime"),
        "lifetime.simulate_lifetime.self_s": self_total("lifetime.simulate_lifetime"),
        "lifetime.refreshes": float(
            sum(r["parent"] in sim_ids for r in spans("allocation.allocation_at"))
        ),
        "cli.self_s": self_total(ROOT),
    }
    return {name: float(value) for name, value in metrics.items()}
