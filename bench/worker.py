"""One workload run in a fresh process: set up, then one timed CLI call.

Usage: python3 bench/worker.py SPEC_JSON

The spec names the workload, seed, run directory, the parent's monotonic
clock reading just before it started this process (`t_spawn`), whether to
trace and whether to stop after set-up. Set-up is everything before the
timed call: imports, writing and validating the config and, for the
evaluate workloads, generating the input DB with `vlcloc simulate`. The
worker writes its timings to `report.json` in the run directory; the CLI's
own output goes to the caller's stdout / stderr.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    run_dir = spec["run_dir"]

    import vlcloc.cli
    from vlcloc import config

    import tracing
    import workloads

    cfg_path = workloads.write_config(spec["workload"], spec["seed"], run_dir)
    config.plan_from_config(config.load_config(cfg_path))
    db_path = os.path.join(run_dir, workloads.DB_FILE)
    setup_rc = 0
    if workloads.WORKLOADS[spec["workload"]][0] == "evaluate":
        setup_rc = vlcloc.cli.main(["simulate", "--config", cfg_path, "--out", db_path])
    t_ready = time.monotonic()
    report = {"setup_s": t_ready - spec["t_spawn"], "setup_rc": setup_rc}

    if not spec.get("setup_only") and setup_rc == 0:
        argv = workloads.timed_argv(spec["workload"], run_dir)
        tracer = tracing.Tracer() if spec.get("trace") else None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            rc = vlcloc.cli.main(argv)
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(os.path.join(run_dir, "trace.json"))
        report.update(rc=rc, wall_s=wall)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
