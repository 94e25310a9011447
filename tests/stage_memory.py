"""Which call sets a benchmark run's memory peak: one bench worker replayed in-process.

Usage: PYTHONPATH=src python tests/stage_memory.py WORKLOAD SEED

WORKLOAD is one of bench/workloads.py's (survey, evaluate, localize). The
script builds that workload's config with `workloads.workload_config`, pins
the BLAS threads as the benchmark does, and in a temporary directory runs
`vlcloc simulate` and, for the evaluate workloads, `vlcloc evaluate --db`.
Around every call of the entry points that can set the peak (the survey,
`load_fingerprints`, each classifier's fit and `predict_labels`, the GI-LS
and GD-LS fits, `experiment._estimate`, `_write_results_csv`) it prints
VmHWM and VmRSS from /proc/self/status before and after, in MB, and the
minor page faults the call took: the `ru_minflt` delta of
`resource.getrusage(RUSAGE_SELF)`, which counts this process only (no
child). VmHWM only grows, so the call that raises it last sets the process
peak. Unlike a bench worker's `ru_maxrss`, which on Linux carries over the
high-water mark of the process image that exec replaced, VmHWM belongs to
this process alone.

Next to VmHWM it prints tracemalloc's traced bytes live as each call
starts and its traced peak during the call: the most bytes Python and numpy
held live at once, whatever the allocator did with the heap. The two
disagree wherever heap placement matters (at seed 1729 the survey's traced
peak is 8.2 MB while its VmHWM rises 14.7 MB), so a traced peak that drops
with VmHWM shows fewer live arrays, and a VmHWM that moves alone shows heap
placement. Tracing costs time and memory of its own, so the script replays
the run twice in one process: first untraced, for the VmHWM, VmRSS and
fault columns, then under tracemalloc, for the traced columns.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pathlib
import resource
import sys
import tempfile
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

if __name__ == "__main__":  # pin the threads before numpy loads its BLAS
    for _var in workloads.THREAD_VARS:
        os.environ.setdefault(_var, str(workloads.THREADS))

from vlcloc import classifiers, cli, experiment, fusion, spectral  # noqa: E402


def memory_mb() -> tuple[float, float]:
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            name, _, value = line.partition(":")
            fields[name] = value
    return tuple(int(fields[name].split()[0]) / 1024.0 for name in ("VmHWM", "VmRSS"))


def minor_faults() -> int:
    """Minor page faults of this process so far, its children not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _label(name: str, clf) -> str:
    """`Class.fit` or `Class.method`, with k for a KNN: the classifier and the
    k = 1 matcher are both KnnClassifiers."""
    k = f"(k={getattr(clf, 'k', '?')})" if isinstance(clf, classifiers.KnnClassifier) else ""
    return f"{type(clf).__name__}{k}.{'fit' if name == '__init__' else name}"


def traced_mb(inner, *args, **kwargs):
    """(result, (live, peak)) of inner(*args, **kwargs) under a running
    tracemalloc: the traced MB live as the call starts and at its peak. No
    probed call runs inside another, so the peak reset here loses none."""
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = inner(*args, **kwargs)
    return result, (live / 2**20, tracemalloc.get_traced_memory()[1] / 2**20)


@contextlib.contextmanager
def probes(records: list):
    """Wrap the peak-setting entry points: each call appends (label, hwm
    before, hwm after, rss before, rss after, minor faults, traced (live,
    peak)) to records; the traced pair is None unless tracemalloc is
    tracing. Plain setattr, not unittest.mock: importing mock alone adds
    ~8 MB of RSS."""
    def probed(inner, name, per_instance):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            hwm0, rss0 = memory_mb()
            faults0 = minor_faults()
            traced = None
            try:
                if not tracemalloc.is_tracing():
                    return inner(*args, **kwargs)
                result, traced = traced_mb(inner, *args, **kwargs)
                return result
            finally:
                faults = minor_faults() - faults0
                hwm1, rss1 = memory_mb()
                records.append((_label(name, args[0]) if per_instance else name,
                                hwm0, hwm1, rss0, rss1, faults, traced))
        return wrapper

    targets = [(experiment, "synthesize_fingerprint_db", False),
               (spectral, "load_fingerprints", False),
               (fusion, "gi_ls_fit", False),
               (fusion, "gd_ls_fit", False),
               (experiment, "_estimate", False),
               (cli, "_write_results_csv", False)]
    for cls in (classifiers.KnnClassifier, classifiers.ElmClassifier, classifiers.RandomForest):
        targets.append((cls, "__init__", True))
    targets += [(classifiers.KnnClassifier, "predict_labels", True),
                (classifiers._GridClassifier, "predict_labels", True)]
    originals = [getattr(owner, name) for owner, name, _ in targets]
    for (owner, name, per_instance), inner in zip(targets, originals):
        setattr(owner, name, probed(inner, name, per_instance))
    try:
        yield records
    finally:
        for (owner, name, _), inner in zip(targets, originals):
            setattr(owner, name, inner)


def replay(cfg_path: str, command: str, run_dir: str) -> list:
    """Run `simulate` and, for command "evaluate", `evaluate --db` on the
    config file, under probes(); the records in call order."""
    db = os.path.join(run_dir, workloads.DB_FILE)
    records = []
    with probes(records), contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(["simulate", "--config", cfg_path, "--out", db])
        if rc == 0 and command == "evaluate":
            rc = cli.main(["evaluate", "--config", cfg_path, "--db", db,
                           "--out", os.path.join(run_dir, workloads.OUT_DIR)])
    if rc != 0:
        raise RuntimeError(f"vlcloc exited {rc}")
    return records


def print_report(start: tuple[float, float], records: list, traced: list) -> None:
    """One line per call of the untraced replay's records, with the traced
    (live, peak) MB of the same call from the traced replay's."""
    print(f"{'call':<38} {'VmHWM before -> after':>22} {'VmRSS before -> after':>22}"
          f" {'minflt':>9} {'traced live -> peak':>20}  (MB, faults, MB)")
    print(f"{'(start)':<38} {start[0]:>22.1f} {start[1]:>22.1f}")
    for (label, hwm0, hwm1, rss0, rss1, faults, _), again in zip(records, traced):
        live, peak = again[-1]
        mark = "  <- raises the peak" if hwm1 > hwm0 else ""
        print(f"{label:<38} {hwm0:>10.1f} -> {hwm1:>8.1f} {rss0:>10.1f} -> {rss1:>8.1f}"
              f" {faults:>9} {live:>8.1f} -> {peak:>7.1f}{mark}")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS or not argv[1].isdecimal():
        print(f"usage: python tests/stage_memory.py {{{','.join(workloads.WORKLOADS)}}} SEED",
              file=sys.stderr)
        return 2
    workload, seed = argv[0], int(argv[1])
    with tempfile.TemporaryDirectory() as run_dir:
        cfg_path = workloads.write_config(workload, seed, run_dir)
        command = workloads.WORKLOADS[workload][0]
        start = memory_mb()
        records = replay(cfg_path, command, run_dir)
        tracemalloc.start()
        try:
            traced = replay(cfg_path, command, run_dir)
        finally:
            tracemalloc.stop()
    if [r[0] for r in traced] != [r[0] for r in records]:
        raise RuntimeError("the traced replay made other calls than the untraced one")
    print_report(start, records, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
