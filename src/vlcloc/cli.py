"""Command-line front end: simulate | evaluate | table1.

Exit codes: 0 success, 2 configuration error, 3 runtime / stage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as config_mod
from . import experiment, spectral

_CSV_CHUNK_ROWS = 4096  # results.csv rows formatted per write, so memory is fixed
# the config key behind each stage ExperimentPlan.check_trainable names
_TRAINABLE_KEYS = {"split": "spectral.blocks_per_grid", "train": "classifiers.knn.k"}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="JSON experiment config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcloc",
        description="Visible-light indoor localization pipeline on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize and save a fingerprint database")
    _add_common(sim)
    sim.add_argument("--out", required=True, help="output fingerprint DB file")

    ev = sub.add_parser("evaluate", help="run the experiment plan and write result CSVs")
    _add_common(ev)
    ev.add_argument("--db", default=None, help="reuse a fingerprint DB file (else synthesize)")
    ev.add_argument("--out", required=True, help="output directory for results.csv / cdf.csv")

    t1 = sub.add_parser("table1", help="print mean RSS (dB) per tone vs FFT length")
    _add_common(t1)
    return parser


def cmd_simulate(plan: experiment.ExperimentPlan, out_path: str) -> None:
    db = experiment.synthesize_fingerprint_db(plan)
    spectral.save_fingerprints(db, out_path)
    g, q, m = db.rss.shape
    print(f"wrote {out_path}: G={g} Q={q} M={m} N={db.fft_len} "
          f"sample_rate={db.sample_rate:g}")
    for f, nominal, on_bin in db.tone_alignment():
        status = "on-bin" if on_bin else "OFF-BIN"
        print(f"  tone {f:g} Hz -> DFT bin {nominal} ({status})")


def _write_results_csv(table: experiment.ResultTable, path: str) -> None:
    """The csv.writer text (excel dialect: "\\r\\n" line ends; method names and
    numbers need no quoting), built in bulk: the shared query columns are
    formatted once for all methods, each method's rows in chunks."""
    shared = [f"{g},{x:.9g},{y:.9g},"
              for g, x, y in zip(table.grid_index.tolist(), table.truth[:, 0].tolist(),
                                 table.truth[:, 1].tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("method,grid_index,true_x,true_y,est_x,est_y,error_m\r\n")
        for method in experiment.ALL_METHODS:
            est, errors = table.est[method], table.errors(method)
            for at in range(0, len(shared), _CSV_CHUNK_ROWS):
                chunk = slice(at, at + _CSV_CHUNK_ROWS)
                fh.write("".join(
                    f"{method},{row}{ex:.9g},{ey:.9g},{err:.9g}\r\n"
                    for row, ex, ey, err in zip(shared[chunk], est[chunk, 0].tolist(),
                                                est[chunk, 1].tolist(), errors[chunk].tolist())))


def _write_cdf_csv(table: experiment.ResultTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("method,threshold_m,fraction\r\n")
        for method in experiment.ALL_METHODS:
            fh.write("".join(f"{method},{thr:.9g},{frac:.9g}\r\n" for thr, frac
                             in zip(experiment.CDF_THRESHOLDS, table.cdf(method).tolist())))


def _write_weights_csv(table: experiment.ResultTable, path: str) -> None:
    order = experiment.SINGLE_CLASSIFIERS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["method", "grid_index", *(f"wx_{c}" for c in order),
                           *(f"wy_{c}" for c in order)]) + "\r\n")
        for method, fit in (("gi-ls", table.gi), ("gd-ls", table.gd)):
            rows = np.hstack([np.atleast_2d(fit.wx.weights), np.atleast_2d(fit.wy.weights)])
            grids = [-1] if fit.wx.weights.ndim == 1 else range(len(rows))
            fh.write("".join(f"{method},{g}," + ",".join(f"{w:.9g}" for w in row) + "\r\n"
                             for g, row in zip(grids, rows.tolist())))


def cmd_evaluate(plan: experiment.ExperimentPlan, db_path: str | None,
                 out_dir: str) -> None:
    db = spectral.load_fingerprints(db_path) if db_path else None
    table = experiment.run_experiment(plan, db)
    os.makedirs(out_dir, exist_ok=True)
    _write_results_csv(table, os.path.join(out_dir, "results.csv"))
    _write_cdf_csv(table, os.path.join(out_dir, "cdf.csv"))
    _write_weights_csv(table, os.path.join(out_dir, "weights.csv"))
    print(f"{'method':<10} {'MSPE_m':>10} {'P(err<=5cm)':>12}")
    for method in experiment.ALL_METHODS:
        print(f"{method:<10} {table.mspe(method):>10.4f} "
              f"{table.fraction_within(method, 0.05):>12.4f}")
    print(f"results written to {out_dir}")


def cmd_table1(plan: experiment.ExperimentPlan) -> None:
    """Print rss_vs_fft_len(plan) with its inter-column deltas."""
    tones, lens, table = plan.tones, experiment.TABLE1_FFT_LENS, experiment.rss_vs_fft_len(plan)
    header = "tone_hz".ljust(12) + "".join(f"N{n}".rjust(12) for n in lens)
    print("# mean RSS (dB) per tone vs FFT length")
    print(header)
    for i, f in enumerate(tones):
        print(f"{f:<12g}" + "".join(f"{table[i, j]:>12.4f}" for j in range(len(lens))))
    print("# inter-column deltas (dB)")
    print("tone_hz".ljust(12)
          + "".join(f"N{lens[j + 1]}-N{lens[j]}".rjust(14) for j in range(len(lens) - 1)))
    for i, f in enumerate(tones):
        deltas = [table[i, j + 1] - table[i, j] for j in range(len(lens) - 1)]
        print(f"{f:<12g}" + "".join(f"{d:>14.4f}" for d in deltas))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        plan = config_mod.plan_from_config(cfg)
        if args.command == "evaluate":  # before the DB is read or a survey made
            plan.check_trainable()
    except (ValueError, TypeError) as e:  # ConfigError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except experiment.ExperimentError as e:
        print(f"config error: {_TRAINABLE_KEYS[e.stage]}: {e.reason}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            cmd_simulate(plan, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(plan, args.db, args.out)
        elif args.command == "table1":
            cmd_table1(plan)
    except Exception as e:  # noqa: BLE001 - CLI boundary maps failures to exit 3
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
