"""The vlcloc benchmark.

Usage, from the root of a vlcloc checkout:

    python3 bench/run.py --workload {survey,evaluate,localize} --seed N \
        --seconds S --trace {0,1}

Each repetition is one fresh worker process (bench/worker.py) that sets up
and then makes one timed `vlcloc.cli.main` call; repetitions run one at a
time, as many as make the timed calls add up nearest to S seconds (at least
one). The outputs are checked, and the last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
as medians over the repetitions. With --trace 1 one more repetition runs
with spans around vlcloc's entry points (bench/tracing.py), its output must
equal the untraced one byte for byte, and the metrics are the per-layer
metrics. See bench/README.md for what each workload and metric is for.
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

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_ROOT = ".bench_run"
# Every invocation must end within 180 s: no repetition starts if the run
# would then likely pass MAX_RUN_S, and a worker is killed at WORKER_DEADLINE_S
# after the run started.
MAX_RUN_S = 150.0
WORKER_DEADLINE_S = 170.0
# set-up is sampled at least SETUP_SAMPLES times, adding set-up-only workers
# while the samples so far total less than SETUP_BUDGET_S
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 2.0
# survey runs no classifier, so it measures no accuracy; its accuracy
# metrics report this constant so that every workload has every metric
NOT_MEASURED = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


class Run:
    """One benchmark run: starts the workers one at a time, checks outputs."""

    def __init__(self, root: str, workload: str, seed: int, trace: int):
        from vlcloc import config

        self.root, self.workload, self.seed, self.trace = root, workload, seed, trace
        self.src = os.path.join(root, "src")
        self.env = workloads.pinned_env(os.environ, self.src)
        self.dir = os.path.join(root, RUN_ROOT, f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.plan = config.plan_from_config(workloads.workload_config(workload, seed))
        self.survey = workloads.WORKLOADS[workload][0] == "simulate"
        g = self.plan.grid_coords.shape[0]
        self.n_online = g * self.plan.split.counts(self.plan.blocks_per_grid)[2]
        self.ops_per_rep = g if self.survey else len(self.plan.methods) * self.n_online
        self.outcome = checks.Outcome()
        self.workers: list[dict] = []
        self.first_failed = 0
        self.t_start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def spawn(self, **spec) -> dict:
        """Run one worker to completion; return its report."""
        wdir = os.path.join(self.dir, f"w{len(self.workers)}")
        os.makedirs(wdir)
        spec.update(workload=self.workload, seed=self.seed, run_dir=wdir)
        spec_path = os.path.join(wdir, "spec.json")
        report = {"dir": wdir, "exit": None}
        with open(os.path.join(wdir, "worker.log"), "w") as log:
            spec["t_spawn"] = time.monotonic()
            with open(spec_path, "w") as fh:
                json.dump(spec, fh)
            try:
                report["exit"] = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, WORKER_DEADLINE_S - self.elapsed())).returncode
            except subprocess.TimeoutExpired:
                pass
        if report["exit"] == 0:
            with open(os.path.join(wdir, "report.json")) as fh:
                report.update(json.load(fh))
        report["ok"] = report["exit"] == 0 and report.get("setup_rc") == 0 and (
            bool(spec.get("setup_only")) or report.get("rc") == 0)
        self.workers.append(report)
        return report

    def output_of(self, rep) -> str:
        name = workloads.DB_FILE if self.survey else workloads.RESULTS_FILE
        return os.path.join(rep["dir"], name)

    def check(self, rep, reference=None):
        """Check the first repetition's output in full; later ones, traced or
        not, must equal it byte for byte. Returns the first one's results."""
        out = self.outcome
        if not rep["ok"]:
            out.attempted += self.ops_per_rep
            out.fail_all(f"worker in {rep['dir']} failed (exit {rep['exit']}, "
                         f"cli {rep.get('setup_rc')}/{rep.get('rc')})")
            return None
        if reference is not None:
            out.attempted += self.ops_per_rep
            out.failed += self.first_failed
            if not same_bytes(self.output_of(reference), self.output_of(rep)):
                out.fail_all(f"{self.output_of(rep)} differs from {self.output_of(reference)}")
            return None
        results = None
        if self.survey:
            checks.check_survey_db(self.output_of(rep), self.plan, out)
        else:
            results = checks.check_results(os.path.join(rep["dir"], workloads.OUT_DIR),
                                           self.plan.methods, self.n_online, out)
        self.first_failed = out.failed
        return results

    def repeat(self, seconds: float):
        """Untraced repetitions while the timed calls so far, plus half of one
        more, stay under `seconds`. Returns (reports, first results)."""
        reps = [self.spawn()]
        results = self.check(reps[0])
        while reps[-1]["ok"]:
            walls = [r["wall_s"] for r in reps]
            per_rep = self.elapsed() / len(reps)
            if (sum(walls) + statistics.mean(walls) / 2 >= seconds
                    or self.elapsed() + per_rep * (1 + self.trace) > MAX_RUN_S):
                break
            reps.append(self.spawn())
            self.check(reps[-1], reps[0])
        return reps, results

    def end_to_end(self, reps, results, names) -> dict[str, float]:
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
            probe = self.spawn(setup_only=True)
            if not probe["ok"]:
                self.outcome.fail_all(f"set-up worker in {probe['dir']} failed")
                return {}
            setups.append(probe["setup_s"])
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in reps),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
        if self.survey:
            metrics.update({n: NOT_MEASURED for n in names if n not in metrics})
        elif self.outcome.correct:
            metrics.update(checks.accuracy(os.path.join(reps[0]["dir"], workloads.OUT_DIR),
                                           results, self.outcome))
        return metrics

    def per_layer(self, reps, results) -> tuple[dict[str, float], list[str]]:
        traced = self.spawn(trace=True)
        self.check(traced, reps[0])
        if not traced["ok"]:
            return {}, []
        trace = tracing.load_trace(os.path.join(traced["dir"], "trace.json"))
        metrics = tracing.layer_metrics(trace)
        metrics["trace.overhead_s"] = (traced["wall_s"]
                                       - statistics.median(r["wall_s"] for r in reps))
        metrics["cli.results_csv.bytes"] = 0 if self.survey else os.path.getsize(
            self.output_of(traced))
        for clf in ("knn", "elm", "rf"):  # the traced output equals the first one's
            rows = results[clf] if results else np.empty((0, 5))
            hits = (rows[:, 0] == rows[:, 2]) & (rows[:, 1] == rows[:, 3])
            metrics[f"classifiers.{clf}.hit_rate"] = float(hits.mean()) if hits.size else 0.0
        return metrics, trace["not_found"]

    def drop_outputs(self) -> None:
        """Keep logs, reports and spans; delete the bulky DBs and CSVs."""
        for rep in self.workers:
            shutil.rmtree(os.path.join(rep["dir"], workloads.OUT_DIR), ignore_errors=True)
            db = os.path.join(rep["dir"], workloads.DB_FILE)
            if os.path.exists(db):
                os.remove(db)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vlcloc", "cli.py")):
        print(f"bench: no vlcloc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["end_to_end" if args.trace == 0 else "per_layer"]
    sys.path.insert(0, src)

    run = Run(root, args.workload, args.seed, args.trace)
    reps, results = run.repeat(args.seconds)
    metrics, not_found = {}, []
    if all(r["ok"] for r in reps):
        if args.trace == 0:
            metrics = run.end_to_end(reps, results, [m["name"] for m in wanted])
        else:
            metrics, not_found = run.per_layer(reps, results)
    outcome = run.outcome
    if outcome.correct:
        run.drop_outputs()
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            outcome.problems.append(f"metrics not produced: {missing}")

    print("info " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "blas_threads": workloads.THREADS,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "layers_not_found": not_found,
        "problems": outcome.problems}))
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
