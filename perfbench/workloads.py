"""Benchmark workloads: one partial CLI config and argument list each.

Every workload uses the default model (gamma 3, eta 0.1, age 65, wealth
10) on the default 60 y / dt 0.05 grid with antithetic sampling, and
stresses the layers differently:

* ``calibrate``: one large path bundle, the Bernoulli kernel and the
  budget bisection; ``allocation`` does no work.
* ``policy-surface``: a small calibration, then 45 nested
  ``allocation_at`` calls with 15 states sharing each anchor time.
* ``lifetime``: two calibrations sharing a seed (pension 0 and 0.5), the
  Python Euler branches of ``solver`` and ``allocation`` on the pension
  leg, and one state per anchor time.

``toy`` shrinks every workload to a coarse grid and few paths so the
smoke test can drive the whole harness in seconds.
"""

from __future__ import annotations

import hashlib

NAMES = ("calibrate", "policy-surface", "lifetime")


def derive_seed(seed: int, purpose: str) -> int:
    """A seed for one purpose, derived from the benchmark seed."""
    digest = hashlib.blake2b(f"{seed}:{purpose}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little") >> 1


def workload(name: str, seed: int, toy: bool = False):
    """Return ``(command, config, paths)`` for one workload.

    ``config`` is the partial JSON config handed to ``--config``;
    ``paths`` is the ``--paths`` override, or None.  The master seed goes
    through ``--seed`` and is not part of the config.
    """
    grid = {"t_max": 60.0, "dt": 0.25 if toy else 0.05}
    if name == "calibrate":
        config = {
            "pension": 0.0,
            "calibration": {
                **grid,
                "n_paths": 2000 if toy else 20000,
                "antithetic": True,
            },
        }
        return "calibrate", config, None
    if name == "policy-surface":
        config = {
            "pension": 0.0,
            "calibration": {**grid, "antithetic": True},
            "allocation": {"n_inner": 600 if toy else 5000, "antithetic": True},
            "policy": {
                "times": [0.0, 10.0] if toy else [0.0, 10.0, 20.0],
                "n_zeta": 5 if toy else 15,
            },
        }
        return "policy-surface", config, 400 if toy else 2000
    if name == "lifetime":
        config = {
            "calibration": {
                **grid,
                "n_paths": 1000 if toy else 10000,
                "antithetic": True,
            },
            "allocation": {"n_inner": 600 if toy else 5000, "antithetic": True},
            "lifetime": {
                "pensions": [0.0, 0.5],
                "horizon": 4.0 if toy else 20.0,
                "dt": grid["dt"],
                "theta_refresh": 1.0,
                "scenario_seed": derive_seed(seed, "scenario"),
            },
        }
        return "lifetime", config, None
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
