"""Experiment orchestration: synthesize, fingerprint, train, fuse, score.

run_experiment drives the full pipeline on a square survey grid: per-grid
signal synthesis, fingerprint construction, a train / offline / online
split of the Q blocks, classifier training, one prediction pass over the
offline and online rows, GI / GD fusion fitting on the offline split and
evaluation of every method on the online split. RSS matching and GD-LS's
grid choice are one search: a k = 1 KnnClassifier over the train blocks'
per-grid mean fingerprints. Everything is a pure function of the plan (all
randomness flows from the plan seed through named SeedSequence children).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import baselines, fusion, spectral
from .channel import ChannelParams, LedConfig, PdPose, synthesize_received
from .classifiers import ElmClassifier, KnnClassifier, RandomForest, TrainSet

METHOD_KNN = "knn"
METHOD_ELM = "elm"
METHOD_RF = "rf"
METHOD_GI = "gi-ls"
METHOD_GD = "gd-ls"
METHOD_MATCH = "rss-match"
METHOD_RSSR = "rssr"
ALL_METHODS = (METHOD_KNN, METHOD_ELM, METHOD_RF, METHOD_GI, METHOD_GD,
               METHOD_MATCH, METHOD_RSSR)
SINGLE_CLASSIFIERS = (METHOD_KNN, METHOD_ELM, METHOD_RF)
ELM_HIDDEN, RF_TREES, RF_DEPTH = 600, 40, 5  # ELM's hidden units, RF's trees and depth

# SeedSequence namespaces, so every random consumer has its own stream
_SEED_SYNTH = 0
_SEED_SHUFFLE = 1
_SEED_ELM = 2
_SEED_RF = 3
_SEED_TABLE = 4

# Error-CDF thresholds 0, 2.5 mm, ..., 0.25 m (rounded to 9 digits), the
# rows of cdf.csv
CDF_THRESHOLDS = tuple(np.round(np.arange(0.0, 0.25 + 0.5 * 0.0025, 0.0025), 9))
_WITHIN_TOL = 1e-12  # meters an error may exceed a threshold and still count within it
TABLE1_FFT_LENS = (2000, 4000, 6000, 8000)  # the columns of `vlcloc table1`


class ExperimentError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage, self.reason = stage, message


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as ExperimentError(name, ...);
    an ExperimentError raised deeper keeps its own stage."""
    try:
        yield
    except ExperimentError:
        raise
    except Exception as e:
        raise ExperimentError(name, str(e)) from e


@dataclass(frozen=True)
class SplitRatios:
    train: float = 0.6
    offline: float = 0.2
    online: float = 0.2
    shuffle: bool = False

    def __post_init__(self):
        if not isinstance(self.shuffle, bool):
            raise ValueError(f"shuffle must be a bool, got {self.shuffle!r}")
        fracs = (self.train, self.offline, self.online)
        if any(not f > 0.0 for f in fracs):
            raise ValueError("every split fraction must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")

    def counts(self, q: int) -> tuple[int, int, int]:
        # floor, except that q * frac within 1e-9 below a whole number is that
        # number: 100 * 0.29 is 28.999999999999996; a part may be empty
        # (ExperimentPlan.check_trainable rejects such a Q)
        n_train = int(q * self.train + 1e-9)
        n_offline = int(q * self.offline + 1e-9)
        return n_train, n_offline, q - n_train - n_offline


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything run_experiment needs; immutable and fully seeding."""

    leds: tuple[LedConfig, ...]
    channel: ChannelParams
    grid_q: int
    grid_spacing: float
    fft_len: int
    blocks_per_grid: int
    split: SplitRatios = SplitRatios()
    knn_k: int = 120
    seed: int = 0
    methods: ClassVar[tuple[str, ...]] = ALL_METHODS  # every run scores all seven

    def __post_init__(self):
        for name in ("grid_q", "fft_len", "blocks_per_grid", "knn_k", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        extent = float(self.grid_q - 1) * float(self.grid_spacing)
        if self.grid_q < 2 or not 0.0 < extent < math.inf:
            raise ValueError("grid needs q >= 2 and a positive spacing whose extent "
                             "(q - 1) * spacing is finite")
        if self.fft_len < 2 or self.blocks_per_grid < 1:
            raise ValueError("fft_len >= 2 and blocks_per_grid >= 1 required")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be at least 1, got {self.knn_k}")
        if len(self.leds) < 3:
            raise ValueError(f"rssr needs at least 3 LEDs, got {len(self.leds)}")
        if len({tuple(led.position) for led in self.leds}) != len(self.leds):
            raise ValueError("LED positions must be distinct")
        freqs = [led.frequency for led in self.leds]
        if len(set(freqs)) != len(freqs):
            raise ValueError("LED tone frequencies must be distinct")
        if not self.channel.sample_rate > 2.0 * max(freqs):
            raise ValueError(f"sample_rate {self.channel.sample_rate} Hz must exceed twice "
                             f"the highest tone ({max(freqs)} Hz)")
        # classifiers and RSS columns follow ascending tone order
        object.__setattr__(
            self, "leds", tuple(sorted(self.leds, key=lambda led: led.frequency))
        )

    def check_trainable(self) -> None:
        """The ExperimentError a run would meet after its survey: Q cannot be
        split ([split]) or knn_k exceeds the training rows ([train])."""
        counts = self.split.counts(self.blocks_per_grid)
        if min(counts) < 1:
            raise ExperimentError("split", f"Q = {self.blocks_per_grid} is too small for split "
                                  f"{self.split}")
        rows = self.grid_q ** 2 * counts[0]
        if self.knn_k > rows:
            raise ExperimentError("train", f"k = {self.knn_k} exceeds the {rows} training rows")

    @property
    def grid_coords(self) -> np.ndarray:
        """(q*q, 2) grid coordinates; index g = iy * q + ix, origin at (0, 0)."""
        q, s = self.grid_q, self.grid_spacing
        ix, iy = np.meshgrid(np.arange(q), np.arange(q), indexing="xy")
        return np.column_stack([ix.ravel() * s, iy.ravel() * s]).astype(float)

    @property
    def tones(self) -> np.ndarray:
        return np.array([led.frequency for led in self.leds])


@dataclass(frozen=True)
class ResultTable:
    """Per-query records of the online split: the query columns every method
    shares, each method's (n, 2) estimates, and the run's GI-LS and GD-LS fits.

    An error counts as within t (cdf, fraction_within, and so cdf.csv and
    the CLI summary) when err <= t + 1e-12 m. Grid coordinates are ix *
    spacing, so a miss by one grid step computes up to a few 1e-17 m off
    the spacing, above or below by where on the grid it falls; the
    tolerance, far above that rounding and far below any distance the CDF
    resolves, counts every such miss within t = spacing.
    """

    grid_index: np.ndarray  # (n,) true grid of each query
    truth: np.ndarray       # (n, 2) plan.grid_coords[grid_index]
    est: dict[str, np.ndarray]
    gi: fusion.FusionWeights
    gd: fusion.FusionWeights

    def errors(self, method: str) -> np.ndarray:
        return np.sqrt(((self.est[method] - self.truth) ** 2).sum(axis=1))

    def mspe(self, method: str) -> float:
        err = self.errors(method)
        return float(np.sqrt(np.mean(err**2)))

    def cdf(self, method: str) -> np.ndarray:
        """Fraction of errors within each of CDF_THRESHOLDS."""
        within = np.add(CDF_THRESHOLDS, _WITHIN_TOL)
        return (self.errors(method)[:, np.newaxis] <= within).mean(axis=0)

    def fraction_within(self, method: str, threshold: float) -> float:
        return float((self.errors(method) <= threshold + _WITHIN_TOL).mean())

    def equals(self, other: "ResultTable") -> bool:
        """Bit-exact comparison of every record (determinism audits)."""
        shared = ("grid_index", "truth")
        if not all(np.array_equal(getattr(self, f), getattr(other, f)) for f in shared):
            return False
        return all(np.array_equal(self.est[m], other.est[m]) for m in ALL_METHODS)


def _seed(plan: ExperimentPlan, *path: int) -> np.random.SeedSequence:
    # The 0 stands where a run once put its trial index; keeping it keeps
    # every random stream, and so every output, as it was.
    return np.random.SeedSequence([plan.seed, 0, *path])


def _survey(plan: ExperimentPlan, coords, fft_len: int, seeds) -> spectral.FingerprintDB:
    """One noisy recording of blocks_per_grid fft_len-blocks per point of
    coords, fingerprinted: a noise-free waveform per point, to whose tone
    bins build_fingerprints adds the noise from the g-th of the seeds."""
    samples = plan.blocks_per_grid * fft_len
    streams = (synthesize_received(plan.leds, PdPose.at(x, y), plan.channel, samples)
               for x, y in coords)
    return spectral.build_fingerprints(streams, coords, fft_len, plan.tones,
                                       plan.channel.sample_rate, plan.channel.noise_std, seeds)


def synthesize_fingerprint_db(plan: ExperimentPlan) -> spectral.FingerprintDB:
    """Run the site survey: one noisy recording per grid point, fingerprinted."""
    coords = plan.grid_coords
    seeds = (_seed(plan, _SEED_SYNTH, g) for g in range(coords.shape[0]))
    return _survey(plan, coords, plan.fft_len, seeds)


def _split_indices(plan: ExperimentPlan, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_tr, n_off, n_on = plan.split.counts(q)
    idx = np.arange(q)
    if plan.split.shuffle:
        rng = np.random.default_rng(_seed(plan, _SEED_SHUFFLE))
        idx = rng.permutation(q)
    return idx[:n_tr], idx[n_tr : n_tr + n_off], idx[n_tr + n_off :]


def _flatten_split(db: spectral.FingerprintDB, block_idx: np.ndarray):
    """(queries, grid labels) for the given block indices, grid-major."""
    g, _, m = db.rss.shape
    queries = db.rss[:, block_idx, :].reshape(g * block_idx.size, m)
    return queries, np.repeat(np.arange(g), block_idx.size)


def _build_classifiers(plan: ExperimentPlan, train_set: TrainSet):
    """The trained classifiers, in SINGLE_CLASSIFIERS order."""
    return [KnnClassifier(train_set, plan.knn_k),
            ElmClassifier(train_set, ELM_HIDDEN, _seed(plan, _SEED_ELM)),
            RandomForest(train_set, RF_TREES, RF_DEPTH, _seed(plan, _SEED_RF))]


def run_experiment(plan: ExperimentPlan,
                   db: spectral.FingerprintDB | None = None) -> ResultTable:
    """Execute the full protocol once and score every method.

    When db is given it replaces the synthesized site survey (it must match
    the plan geometry); otherwise the run synthesizes its own. Truths and
    estimates alike take their coordinates from plan.grid_coords. Both
    checks, check_trainable and the DB's, come before any survey or training.
    """
    coords = plan.grid_coords

    plan.check_trainable()
    if db is not None:
        _check_db_matches(plan, db)
    with _stage("synthesize"):
        if db is None:
            db = synthesize_fingerprint_db(plan)

    with _stage("split"):
        tr_idx, off_idx, on_idx = _split_indices(plan, db.blocks_per_grid)
        train_q, train_labels = _flatten_split(db, tr_idx)
        train_set = TrainSet(train_q, train_labels, coords)
        mean_fps = db.rss[:, tr_idx, :].mean(axis=1)

    with _stage("train"):
        clfs = _build_classifiers(plan, train_set)
        matcher = KnnClassifier(TrainSet(mean_fps, np.arange(coords.shape[0]), coords), 1)

    with _stage("predict"):  # one pass over the offline and online rows, sliced apart
        off_q, off_labels = _flatten_split(db, off_idx)
        on_q, on_labels = _flatten_split(db, on_idx)
        pred = fusion.build_prediction_matrix(clfs, np.concatenate([off_q, on_q]))
        off_pred, on_pred = np.split(pred, [off_q.shape[0]], axis=1)

    with _stage("fusion-fit"):
        gi = fusion.gi_ls_fit(off_pred, coords[off_labels])
        gd = fusion.gd_ls_fit(off_pred, off_labels, coords)

    with _stage("evaluate"):
        nearest = matcher.predict_labels(on_q)
        est = _estimate(plan, on_q, on_pred, nearest, coords, gi, gd)

    return ResultTable(grid_index=on_labels, truth=coords[on_labels], est=est, gi=gi, gd=gd)


def _estimate(plan, on_q, on_pred, nearest, coords, gi, gd) -> dict[str, np.ndarray]:
    """{method: (n, 2) estimates} in ALL_METHODS order."""
    est = {m: on_pred[:, :, c].T for c, m in enumerate(SINGLE_CLASSIFIERS)}
    est[METHOD_GI] = fusion.gi_ls_predict_all(gi, on_pred)
    est[METHOD_GD] = fusion.gd_ls_predict_all(gd, nearest, on_pred)
    est[METHOD_MATCH] = coords[nearest]
    solver = baselines.RssrSolver(plan.leds, plan.channel, coords)
    est[METHOD_RSSR] = np.fromiter((solver.locate(row) for row in on_q), (float, 2),
                                   on_q.shape[0])
    return est


def _check_db_matches(plan: ExperimentPlan, db: spectral.FingerprintDB):
    coords = plan.grid_coords
    if db.num_grid_points != coords.shape[0]:
        raise ExperimentError("synthesize", "fingerprint DB grid size does not match plan")
    if not np.allclose(db.grid_coords, coords, atol=1e-9):
        raise ExperimentError("synthesize", "fingerprint DB grid coordinates do not match plan")
    if db.tones.size != plan.tones.size or not np.allclose(db.tones, plan.tones, rtol=1e-12):
        raise ExperimentError("synthesize", "fingerprint DB tones do not match plan LEDs")
    if db.blocks_per_grid != plan.blocks_per_grid:
        raise ExperimentError("synthesize", "fingerprint DB blocks per grid do not match plan")
    if db.fft_len != plan.fft_len:
        raise ExperimentError("synthesize", "fingerprint DB FFT length does not match plan")
    if abs(db.sample_rate - plan.channel.sample_rate) > 1e-6:
        raise ExperimentError("synthesize", "fingerprint DB sample rate does not match plan")
    # every run scores RSSR, whose 10^(dB/20) needs |dB| < DB_LIMIT, as a survey's are
    outside = np.argwhere(np.abs(db.rss) >= baselines.DB_LIMIT)
    if outside.size:
        g, q, m = outside[0]
        raise ExperimentError("synthesize", f"fingerprint DB RSS of grid {g}, block {q}, tone "
                              f"{m} is {db.rss[g, q, m]:g} dB, outside RSSR's "
                              f"+-{baselines.DB_LIMIT:g} dB")


def rss_vs_fft_len(plan: ExperimentPlan):
    """(M, len(TABLE1_FFT_LENS)) table: entry [i, j] is the mean RSS (dB) of
    tone i at grid point 0 with FFT length TABLE1_FFT_LENS[j], over the
    plan's blocks_per_grid periodogram blocks. The inter-column growth on a
    noise-free tone is 10*log10(N2/N1).
    """
    coords = plan.grid_coords[:1]
    means = [_survey(plan, coords, n, [_seed(plan, _SEED_TABLE, j)]).rss[0].mean(axis=0)
             for j, n in enumerate(TABLE1_FFT_LENS)]
    return np.stack(means, axis=1)
