"""Run one greedyhabit CLI command in this fresh process and record its cost.

Started by ``run.py`` as ``python3 child.py SPEC.json T0``.  SPEC names
the sources, the config file, the seed and path override, the CLI
arguments (or none, to measure set-up only), the result file and, for a
traced run, the span file.  T0 is the parent's ``time.perf_counter()``
just before it started this process; on Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so ``setup_s`` runs from
process start until ``greedyhabit`` is imported and the config resolved.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    spec_path, t0 = sys.argv[1], float(sys.argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import greedyhabit
    from greedyhabit import cli

    with open(spec["config"]) as fh:
        config = cli.RunConfig.from_dict(
            json.load(fh), seed=spec["seed"], n_paths=spec["paths"]
        )
    result = {
        "setup_s": time.perf_counter() - t0,
        "package": greedyhabit.__file__,
        "config": config.to_dict(),
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["spans"] is not None:
            from tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        if tracer is None:
            rc = cli.main(spec["argv"])
        else:
            with tracer.span(ROOT):
                rc = cli.main(spec["argv"])
        wall_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall_s,
            cpu_s=(after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime),
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            with open(spec["spans"], "w") as fh:
                json.dump({"missing": tracer.missing, "spans": tracer.records()}, fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
