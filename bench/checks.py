"""Output checks, operation counts and accuracy metrics of a benchmark run.

Every check here is one that any correct implementation passes: none of
them depends on how synthesis, training or search is done, or on the RNG
stream, only on the CLI's output formats and the channel model.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

# Survey oracle: every (grid, tone) pair whose predicted on-bin SNR is at
# least SNR_MIN_DB must have a mean RSS within LEVEL_TOL_SIGMAS standard
# deviations of the closed-form on-bin level 10*log10(N a^2 / 4). At SNR s
# one block's dB value has a standard deviation of 8.69 * sqrt(1 / (2 s)),
# 0.61 dB at 20 dB, so for the mean of Q = 200 blocks the tolerance is
# 7 * 0.043 = 0.30 dB.
SNR_MIN_DB = 20.0
LEVEL_TOL_SIGMAS = 7.0

P5CM_THRESHOLD_M = 0.05
METRIC_METHODS = {"knn": "knn", "elm": "elm", "rf": "rf", "gi": "gi-ls",
                  "gd": "gd-ls", "match": "rss-match", "rssr": "rssr"}
P5CM_METHODS = {"gi": "gi-ls", "gd": "gd-ls"}


@dataclass
class Outcome:
    """Checks passed or failed, and the operations attempted / failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def fail_all(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = self.attempted


def read_results(path) -> dict[str, np.ndarray]:
    """results.csv as method -> (n, 5) array of true_x, true_y, est_x, est_y, error_m.

    A value that does not parse becomes NaN, so it counts as a failed query.
    """
    rows: dict[str, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(c) for c in ("true_x", "true_y", "est_x", "est_y", "error_m")]
        m_col = header.index("method")
        for rec in reader:
            vals = []
            for c in cols:
                try:
                    vals.append(float(rec[c]))
                except (IndexError, ValueError):
                    vals.append(math.nan)
            rows.setdefault(rec[m_col], []).append(vals)
    return {m: np.array(v, dtype=float).reshape(-1, 5) for m, v in rows.items()}


def read_cdf_at(path, threshold: float) -> dict[str, float]:
    """method -> fraction from cdf.csv at the given threshold (absent if missing)."""
    out = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            if abs(float(rec["threshold_m"]) - threshold) < 1e-12:
                out[rec["method"]] = float(rec["fraction"])
    return out


def check_results(out_dir, methods, n_online: int, outcome: Outcome) -> dict[str, np.ndarray]:
    """Check results.csv of one evaluate call; one operation per (method, query).

    A query fails when its estimate is missing or non-finite. Returns the
    parsed results for the accuracy metrics.
    """
    outcome.attempted += len(methods) * n_online
    results = read_results(os.path.join(out_dir, "results.csv"))
    extra = set(results) - set(methods)
    if extra:
        outcome.problems.append(f"results.csv has unexpected methods {sorted(extra)}")
    for m in methods:
        rows = results.get(m, np.empty((0, 5)))
        if rows.shape[0] > n_online:
            outcome.problems.append(f"{m}: {rows.shape[0]} rows, expected {n_online}")
        finite = int(np.isfinite(rows[:, 2:4]).all(axis=1).sum())
        outcome.failed += n_online - min(finite, n_online)
    return results


def accuracy(out_dir, results: dict[str, np.ndarray], outcome: Outcome) -> dict[str, float]:
    """MSPE per method (from results.csv) and P(err <= 5 cm) for GI / GD.

    P(err <= 5 cm) is read from the program's own cdf.csv, because one-step
    grid misses sit exactly 5 cm away and whether they count depends on the
    last bit of the error, which results.csv rounds to 9 digits. The count
    must lie between those of the rounded errors within 5 cm -/+ 1e-9 m.
    """
    metrics = {}
    for short, m in METRIC_METHODS.items():
        err = results[m][:, 4]
        metrics[f"mspe_{short}_m"] = float(np.sqrt(np.mean(err**2)))
    cdf = read_cdf_at(os.path.join(out_dir, "cdf.csv"), P5CM_THRESHOLD_M)
    for short, m in P5CM_METHODS.items():
        err = results[m][:, 4]
        if m not in cdf:
            outcome.problems.append(f"cdf.csv has no {m} row at {P5CM_THRESHOLD_M} m")
            continue
        k = round(cdf[m] * err.size)
        lo = int((err <= P5CM_THRESHOLD_M - 1e-9).sum())
        hi = int((err <= P5CM_THRESHOLD_M + 1e-9).sum())
        if not lo <= k <= hi:
            outcome.problems.append(f"{m}: cdf.csv count {k} at 5 cm outside [{lo}, {hi}]")
        metrics[f"p5cm_{short}"] = k / err.size
    return metrics


def on_bin_levels(plan) -> tuple[np.ndarray, np.ndarray]:
    """(G, M) closed-form on-bin level and predicted SNR, both in dB.

    A tone of amplitude a on an exact DFT bin has periodogram value N a^2 / 4;
    white noise of variance s^2 has mean periodogram s^2 in every bin.
    """
    from vlcloc.channel import PdPose, attenuation

    coords = plan.grid_coords
    level = np.empty((coords.shape[0], len(plan.leds)))
    for g, (x, y) in enumerate(coords):
        pd = PdPose.at(x, y)
        for j, led in enumerate(plan.leds):
            a = attenuation(led, pd, plan.channel) * led.gain * led.amplitude
            level[g, j] = 10.0 * np.log10(plan.fft_len * a * a / 4.0)
    noise = plan.channel.noise_std
    snr = level - 10.0 * np.log10(noise * noise) if noise > 0.0 else np.full_like(level, np.inf)
    return level, snr


def level_tolerance_db(blocks: int) -> float:
    """Allowed |mean dB - on-bin level| for a pair at exactly SNR_MIN_DB."""
    snr = 10.0 ** (SNR_MIN_DB / 10.0)
    return LEVEL_TOL_SIGMAS * (20.0 / math.log(10.0)) * math.sqrt(1.0 / (2.0 * snr * blocks))


def check_survey_db(db_path, plan, outcome: Outcome) -> None:
    """Check one surveyed DB; one operation per grid point."""
    from vlcloc import spectral

    g = plan.grid_coords.shape[0]
    outcome.attempted += g
    db = spectral.load_fingerprints(db_path)
    shape = (g, plan.blocks_per_grid, len(plan.leds))
    if db.rss.shape != shape:
        outcome.fail_all(f"DB shape {db.rss.shape}, expected {shape}")
        return
    outcome.failed += int((~np.isfinite(db.rss).all(axis=(1, 2))).sum())

    with tempfile.TemporaryDirectory(dir=os.path.dirname(db_path)) as tmp:
        again = os.path.join(tmp, "resaved.txt")
        spectral.save_fingerprints(db, again)
        with open(db_path, "rb") as a, open(again, "rb") as b:
            if a.read() != b.read():
                outcome.problems.append("saving the loaded DB does not reproduce the file")

    level, snr = on_bin_levels(plan)
    strong = snr >= SNR_MIN_DB
    dev = np.abs(db.rss.mean(axis=1) - level)[strong]
    tol = level_tolerance_db(plan.blocks_per_grid)
    if not strong.any():
        outcome.problems.append("no (grid, tone) pair reaches the oracle's SNR")
    elif not np.all(dev <= tol):
        outcome.problems.append(
            f"{int((~(dev <= tol)).sum())} of {int(strong.sum())} strong pairs deviate "
            f"from the on-bin level by more than {tol:.3f} dB (max {float(np.nanmax(dev)):.3f} dB)")
    if outcome.problems:
        outcome.failed = outcome.attempted
