"""The benchmark's workloads: which CLI call each one times, on what config.

All three run the `benchmark_config()` geometry (4 LEDs, G = 225 grid
points, N = 2000, Q = 200 blocks, all seven methods) with the workload seed
written into `run.seed`. They differ only in the command and the split:

- survey:   `vlcloc simulate`; all work is in `channel` and `spectral`.
- evaluate: `vlcloc evaluate --db` with the paper split 0.6/0.2/0.2, so
            training (above all RF) dominates.
- localize: the same call with split 0.1/0.1/0.8: a small survey and many
            position requests, so per-query work (above all RSSR) dominates.
"""

from __future__ import annotations

import json
import os

# workload -> (CLI command, (train, offline, online) split or None for the default)
WORKLOADS = {
    "survey": ("simulate", None),
    "evaluate": ("evaluate", (0.6, 0.2, 0.2)),
    "localize": ("evaluate", (0.1, 0.1, 0.8)),
}

# OpenBLAS / OpenMP threads in every process the benchmark starts. ELM output
# weights differ bit for bit between one and two OpenBLAS threads, so the
# accuracy metrics only repeat, and timings only compare, at one fixed count.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Files a run writes, relative to its run directory.
CONFIG_FILE = "config.json"
DB_FILE = "fingerprints.txt"
OUT_DIR = "out"
RESULTS_FILE = os.path.join(OUT_DIR, "results.csv")


def pinned_env(env: dict, src_dir: str) -> dict:
    """A copy of env that pins the thread pools and imports vlcloc from src_dir."""
    env = dict(env)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONPATH"] = src_dir
    return env


def workload_config(name: str, seed: int) -> dict:
    """The workload's config dict; needs vlcloc importable."""
    from vlcloc.config import benchmark_config

    cfg = benchmark_config()
    split = WORKLOADS[name][1]
    if split is not None:
        cfg["split"] = {"train": split[0], "offline": split[1], "online": split[2],
                        "shuffle": False}
    cfg["run"]["seed"] = seed
    return cfg


def write_config(name: str, seed: int, run_dir: str) -> str:
    path = os.path.join(run_dir, CONFIG_FILE)
    with open(path, "w") as fh:
        json.dump(workload_config(name, seed), fh, indent=1)
    return path


def timed_argv(name: str, run_dir: str) -> list[str]:
    """argv of the timed `vlcloc.cli.main` call: survey writes the DB that
    the evaluate workloads read."""
    cfg = os.path.join(run_dir, CONFIG_FILE)
    db = os.path.join(run_dir, DB_FILE)
    if WORKLOADS[name][0] == "simulate":
        return ["simulate", "--config", cfg, "--out", db]
    return ["evaluate", "--config", cfg, "--db", db, "--out", os.path.join(run_dir, OUT_DIR)]
