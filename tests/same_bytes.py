"""Refactor check: two source trees write the same files, byte for byte.

Usage: python tests/same_bytes.py OLD_SRC NEW_SRC --seeds 1729 4242 ...

OLD_SRC and NEW_SRC are the `src` directories of the two trees, the parent
and the change. For every seed and tree one subprocess imports vlcloc from
that tree with the BLAS threads pinned as the benchmark pins them
(bench/workloads.py), runs `vlcloc simulate` on the benchmark config at that
`run.seed`, then `vlcloc evaluate --db` on that DB with the evaluate
(0.6/0.2/0.2) and the localize (0.1/0.1/0.8) configs, and prints the SHA-256
of the DB and of each split's results.csv, cdf.csv and weights.csv.

The parent prints `identical` or `differs` for every seed and file, and
exits 0 only when every file is identical, 1 otherwise. One seed takes about
15 s per tree on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))
import workloads  # noqa: E402

WORKLOADS = ("evaluate", "localize")
DB_FILE = "db.txt"
OUT_FILES = ("results.csv", "cdf.csv", "weights.csv")


def run(configs: dict[str, dict], run_dir: str) -> None:
    """Write each config to run_dir, simulate the first one's survey to
    run_dir/db.txt and evaluate every config on it into run_dir/<name>/."""
    from vlcloc import cli

    db = os.path.join(run_dir, DB_FILE)
    paths = {}
    for name, cfg in configs.items():
        paths[name] = os.path.join(run_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the digests
        if cli.main(["simulate", "--config", next(iter(paths.values())), "--out", db]) != 0:
            raise RuntimeError("vlcloc simulate failed")
        for name, path in paths.items():
            out = os.path.join(run_dir, name)
            if cli.main(["evaluate", "--config", path, "--db", db, "--out", out]) != 0:
                raise RuntimeError(f"vlcloc evaluate failed on {name}")


def file_digests(run_dir: str, names) -> dict[str, str]:
    """{relative path: SHA-256 hex} of the DB and each name's output files."""
    rel = [DB_FILE] + [f"{name}/{f}" for name in names for f in OUT_FILES]
    return {r: hashlib.sha256(pathlib.Path(run_dir, r).read_bytes()).hexdigest() for r in rel}


def child(seed: int) -> None:
    """Print the digests of one seed's run, on the vlcloc found on the path."""
    configs = {w: workloads.workload_config(w, seed) for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        run(configs, tmp)
        print(json.dumps(file_digests(tmp, configs)))


def run_tree(src: str, seed: int) -> dict[str, str]:
    env = workloads.pinned_env(os.environ, os.path.abspath(src))
    done = subprocess.run([sys.executable, __file__, "--child", str(seed)], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(old: dict[str, str], new: dict[str, str], label: str = "") -> bool:
    """Print `identical` or `differs` per file; True when every file is identical."""
    ok = True
    for rel in dict.fromkeys([*old, *new]):
        same = rel in old and rel in new and old[rel] == new[rel]
        ok &= same
        print(f"{label}{rel}: {'identical' if same else 'differs'}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src", nargs="?")
    p.add_argument("new_src", nargs="?")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    if not (args.old_src and args.new_src and args.seeds):
        p.error("OLD_SRC, NEW_SRC and --seeds are required")
    ok = True
    for seed in args.seeds:
        old, new = run_tree(args.old_src, seed), run_tree(args.new_src, seed)
        ok &= compare(old, new, f"seed {seed} ")
    print("\nidentical" if ok else "\ndiffers")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
