"""Acceptance test for a change to an RNG stream: paired accuracy over seeds.

Usage: python tests/stream_change.py OLD_SRC NEW_SRC --seeds 7001 7002 ...

OLD_SRC and NEW_SRC are the `src` directories of the two trees, the parent
and the change. For every seed and tree one subprocess imports vlcloc from
that tree with the BLAS threads pinned as the benchmark pins them
(bench/workloads.py), surveys the benchmark config at that `run.seed`,
passes the DB through a save / load cycle (as `vlcloc simulate` then
`evaluate --db` do) and runs `run_experiment` on the evaluate (0.6/0.2/0.2)
and the localize (0.1/0.1/0.8) splits. Each run gives the benchmark's nine
accuracy metrics: the MSPE of the seven methods and P(err <= 5 cm) of GI-LS
and GD-LS. The runs are paired by seed.

A stream change keeps a metric's distribution, not its value on a seed, so
per workload and metric the script prints the median over seeds of the
paired relative difference (new - old) / old with its sign-test confidence
interval, and the sign-test counts: the seeds where the new tree reads
higher, lower, or the same. The interval is [d_(k), d_(n+1-k)] of the n
sorted differences, with the largest k whose coverage 1 - 2 P(X <= k - 1),
X ~ Bin(n, 1/2), is at least 1 - 0.05; at n = 10 it is [d_(2), d_(9)],
coverage 1 - 22/1024 = 97.9 %. It is printed only; the pass rule below
does not read it.

Pass rule, fixed before the first use: for every workload and metric
- the median paired relative difference lies within +- half that metric's
  relative bound in BENCHMARK.json, and
- the two-sided sign test does not reject at 0.05: with n+ seeds higher and
  n- lower (ties dropped), 2 * P(X <= min(n+, n-)) for X ~ Bin(n+ + n-, 1/2)
  is at least 0.05. With 10 untied seeds a split of 1 : 9 or worse rejects.
Use seeds the change was not built on. The script exits 0 on a pass, 1 on a
failure.

Joint false rejection. Under no change, each sign test at 10 untied seeds
rejects with probability 22/1024 = 2.1 % (a 0 : 10, 1 : 9, 9 : 1 or 10 : 0
split). Over the 18 metric-workload pairs the chance that any rejects is at
most 18 * 22/1024 = 38.7 % by the union bound, and 32.4 % if the pairs were
independent; they are not, since both workloads share each seed's survey.
The rule above is not corrected for that. A Holm step-down at 0.05 would
compare the smallest p with 0.05/18, so it would reject only a 0 : 10 or
10 : 0 split (p = 2/1024).

One seed takes about 15 s per tree on one core with the benchmark config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))
import checks  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("evaluate", "localize")
ALPHA = 0.05


def child(seed: int) -> None:
    """Print {workload: {metric: value}} for one seed, on the vlcloc found on the path."""
    from vlcloc import config, experiment, spectral

    plans = {w: config.plan_from_config(workloads.workload_config(w, seed)) for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.txt")
        spectral.save_fingerprints(experiment.synthesize_fingerprint_db(plans["evaluate"]), path)
        db = spectral.load_fingerprints(path)
    out = {}
    for w, plan in plans.items():
        table = experiment.run_experiment(plan, db)
        out[w] = {f"mspe_{short}_m": table.mspe(m) for short, m in checks.METRIC_METHODS.items()}
        out[w].update({f"p5cm_{short}": table.fraction_within(m, checks.P5CM_THRESHOLD_M)
                       for short, m in checks.P5CM_METHODS.items()})
    print(json.dumps(out))


def run_tree(src: str, seed: int) -> dict:
    env = workloads.pinned_env(os.environ, os.path.abspath(src))
    done = subprocess.run([sys.executable, __file__, "--child", str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def sign_test_p(higher: int, lower: int) -> float:
    """Two-sided exact sign-test p-value of higher vs lower counts."""
    n = higher + lower
    tail = sum(math.comb(n, i) for i in range(min(higher, lower) + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def sign_test_interval(diffs: list[float]) -> tuple[float, float, float]:
    """(low, high, coverage) of the median's sign-test confidence interval
    (see the module docstring); (-inf, inf, 1.0) when too few diffs allow one."""
    d, n = sorted(diffs), len(diffs)
    k, tail = 0, 0.0  # tail = P(X <= k - 1)
    while 2.0 * (tail + math.comb(n, k) / 2.0**n) <= ALPHA:
        tail += math.comb(n, k) / 2.0**n
        k += 1
    if k == 0:
        return -math.inf, math.inf, 1.0
    return d[k - 1], d[n - k], 1.0 - 2.0 * tail


def compare(old: list[dict], new: list[dict], bounds: dict[str, float]) -> bool:
    """Print the paired table per workload; True when every metric passes."""
    ok = True
    for w in WORKLOADS:
        coverage = sign_test_interval([0.0] * len(old))[2]
        print(f"\n{w}: {len(old)} seeds; median interval coverage {coverage:.1%}")
        print(f"{'metric':14s} {'bound/2':>8s} {'median rel diff':>16s} {'interval':>20s} "
              f"{'new>old':>8s} {'new<old':>8s} {'ties':>5s} {'sign p':>7s}  pass")
        for metric in old[0][w]:
            pairs = [(o[w][metric], n[w][metric]) for o, n in zip(old, new)]
            rels = [(b - a) / a for a, b in pairs]
            rel = statistics.median(rels)
            low, high = sign_test_interval(rels)[:2]
            higher = sum(b > a for a, b in pairs)
            lower = sum(b < a for a, b in pairs)
            p = sign_test_p(higher, lower)
            passed = abs(rel) <= bounds[metric] / 2.0 and p >= ALPHA
            ok &= passed
            print(f"{metric:14s} {bounds[metric] / 2.0:8.3f} {rel:+16.4f} "
                  f"{f'[{low:+.4f}, {high:+.4f}]':>20s} {higher:8d} "
                  f"{lower:8d} {len(pairs) - higher - lower:5d} {p:7.3f}  "
                  f"{'yes' if passed else 'NO'}")
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
    with open(REPO / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    old, new = [], []
    for seed in args.seeds:
        old.append(run_tree(args.old_src, seed))
        new.append(run_tree(args.new_src, seed))
        print(f"seed {seed}: " + json.dumps({"old": old[-1], "new": new[-1]}), flush=True)
    ok = compare(old, new, bounds)
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
