"""Experiment orchestration: synthesize, fingerprint, train, fuse, score.

run_experiment drives the full pipeline on a square survey grid: per-grid
signal synthesis, fingerprint construction, a train / offline / online
split of the Q blocks, classifier training, GI / GD fusion fitting on the
offline split, and evaluation of every requested method on the online
split. Everything is a pure function of the plan (all randomness flows
from the plan seed through named SeedSequence children).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

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

# SeedSequence namespaces, so every random consumer has its own stream
_SEED_SYNTH = 0
_SEED_SHUFFLE = 1
_SEED_ELM = 2
_SEED_RF = 3
_SEED_TABLE = 4


class ExperimentError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


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


def cdf_grid(max_m: float = 0.25, step_m: float = 0.0025) -> tuple[float, ...]:
    """Error-CDF thresholds 0, step, ..., max (rounded to 9 digits)."""
    return tuple(np.round(np.arange(0.0, max_m + 0.5 * step_m, step_m), 9))


def error_cdf(errors, thresholds) -> np.ndarray:
    """Fraction of errors <= each threshold; thresholds must ascend."""
    err = np.asarray(errors, dtype=float)
    thr = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thr) < 0.0):
        raise ValueError("thresholds must be sorted ascending")
    return (err[:, np.newaxis] <= thr).mean(axis=0)


@dataclass(frozen=True)
class SplitRatios:
    train: float = 0.6
    offline: float = 0.2
    online: float = 0.2
    shuffle: bool = False

    def __post_init__(self):
        fracs = (self.train, self.offline, self.online)
        if any(not f > 0.0 for f in fracs):
            raise ValueError("every split fraction must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")

    def counts(self, q: int) -> tuple[int, int, int]:
        # floor, except that q * frac within 1e-9 below a whole number is that
        # number: 100 * 0.29 is 28.999999999999996
        n_train = int(q * self.train + 1e-9)
        n_offline = int(q * self.offline + 1e-9)
        n_online = q - n_train - n_offline
        if min(n_train, n_offline, n_online) < 1:
            raise ValueError(f"Q = {q} is too small for split {self}")
        return n_train, n_offline, n_online


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
    elm_hidden: int = 600
    rf_trees: int = 40
    rf_depth: int = 5
    classifier_order: tuple[str, ...] = SINGLE_CLASSIFIERS
    methods: tuple[str, ...] = ALL_METHODS
    trials: int = 1
    seed: int = 0
    rank_tol: float | None = None
    rssr_scan_resolution: float = 0.01
    rssr_margin: float = 0.05
    cdf_thresholds: tuple[float, ...] = cdf_grid()

    def __post_init__(self):
        if self.grid_q < 2 or not self.grid_spacing > 0.0:
            raise ValueError("grid needs q >= 2 and positive spacing")
        if self.fft_len < 2 or self.blocks_per_grid < 1:
            raise ValueError("fft_len >= 2 and blocks_per_grid >= 1 required")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # written so that NaN fails every check
        for name in ("knn_k", "elm_hidden", "rf_trees", "rf_depth"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.rank_tol is not None and not 0.0 <= self.rank_tol < math.inf:
            raise ValueError(f"rank_tol must be None or finite and >= 0, got {self.rank_tol}")
        if not 0.0 < self.rssr_scan_resolution < math.inf:
            raise ValueError(f"rssr_scan_resolution must be positive, got {self.rssr_scan_resolution}")
        if not 0.0 <= self.rssr_margin < math.inf:
            raise ValueError(f"rssr_margin must be finite and >= 0, got {self.rssr_margin}")
        thr = np.asarray(self.cdf_thresholds, dtype=float)
        if thr.ndim != 1 or not np.isfinite(thr).all() or np.any(np.diff(thr) < 0.0):
            raise ValueError(f"cdf_thresholds must be finite and ascending, got {self.cdf_thresholds}")
        freqs = [led.frequency for led in self.leds]
        if len(set(freqs)) != len(freqs):
            raise ValueError("LED tone frequencies must be distinct")
        # classifiers and RSS columns follow ascending tone order
        object.__setattr__(
            self, "leds", tuple(sorted(self.leds, key=lambda led: led.frequency))
        )
        for kind, names, known in (("method", self.methods, ALL_METHODS),
                                   ("classifier", self.classifier_order, SINGLE_CLASSIFIERS)):
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}")
                if name in names[:i]:
                    raise ValueError(f"{kind} {name!r} is listed twice")
        for m in self.methods:
            if m in SINGLE_CLASSIFIERS and m not in self.classifier_order:
                raise ValueError(f"method {m!r} requires classifier {m!r} in classifier_order")
        if (METHOD_GI in self.methods or METHOD_GD in self.methods) and not self.classifier_order:
            raise ValueError("fusion methods need at least one classifier")
        if METHOD_RSSR in self.methods and len(self.leds) < 3:
            raise ValueError("rssr needs at least 3 LEDs")

    @property
    def grid_coords(self) -> np.ndarray:
        """(q*q, 2) grid coordinates; index g = iy * q + ix, origin at (0, 0)."""
        q, s = self.grid_q, self.grid_spacing
        ix, iy = np.meshgrid(np.arange(q), np.arange(q), indexing="xy")
        return np.column_stack([ix.ravel() * s, iy.ravel() * s]).astype(float)

    @property
    def tones(self) -> np.ndarray:
        return np.array([led.frequency for led in self.leds])

    def rssr_config(self) -> baselines.RssrConfig:
        coords = self.grid_coords
        m = self.rssr_margin
        bounds = (
            (coords[:, 0].min() - m, coords[:, 0].max() + m),
            (coords[:, 1].min() - m, coords[:, 1].max() + m),
        )
        return baselines.RssrConfig(
            lambertian_order=self.channel.lambertian_order,
            led_positions=np.stack([led.position for led in self.leds]),
            bounds=bounds,
            scan_resolution=self.rssr_scan_resolution,
        )


@dataclass(frozen=True)
class ResultTable:
    """Per-query records, concatenated over trials: the query columns every
    method shares, and each method's (n, 2) estimates."""

    methods: tuple[str, ...]
    trial: np.ndarray       # (n,)
    grid_index: np.ndarray  # (n,) true grid of each query
    truth: np.ndarray       # (n, 2)
    est: dict[str, np.ndarray]
    cdf_thresholds: np.ndarray
    fusion_weights: tuple = ()  # per trial: dict with optional gi / gd fits

    def errors(self, method: str) -> np.ndarray:
        return np.sqrt(((self.est[method] - self.truth) ** 2).sum(axis=1))

    def mspe(self, method: str) -> float:
        err = self.errors(method)
        return float(np.sqrt(np.mean(err**2)))

    def cdf(self, method: str) -> np.ndarray:
        return error_cdf(self.errors(method), self.cdf_thresholds)

    def fraction_within(self, method: str, threshold: float) -> float:
        return float((self.errors(method) <= threshold).mean())

    def equals(self, other: "ResultTable") -> bool:
        """Bit-exact comparison of every record (determinism audits)."""
        if self.methods != other.methods:
            return False
        shared = ("cdf_thresholds", "trial", "grid_index", "truth")
        if not all(np.array_equal(getattr(self, f), getattr(other, f)) for f in shared):
            return False
        return all(np.array_equal(self.est[m], other.est[m]) for m in self.methods)


def _seed(plan: ExperimentPlan, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([plan.seed, *path])


def synthesize_fingerprint_db(plan: ExperimentPlan, trial: int = 0) -> spectral.FingerprintDB:
    """Run the site survey: one noisy recording per grid point, fingerprinted."""
    coords = plan.grid_coords
    samples = plan.blocks_per_grid * plan.fft_len

    def streams():
        for g in range(coords.shape[0]):
            pd = PdPose.at(coords[g, 0], coords[g, 1])
            yield synthesize_received(
                list(plan.leds), pd, plan.channel, samples,
                _seed(plan, trial, _SEED_SYNTH, g),
            )

    return spectral.build_fingerprints(
        streams(), coords, plan.fft_len, plan.tones, plan.channel.sample_rate
    )


def _split_indices(plan: ExperimentPlan, q: int, trial: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_tr, n_off, n_on = plan.split.counts(q)
    idx = np.arange(q)
    if plan.split.shuffle:
        rng = np.random.default_rng(_seed(plan, trial, _SEED_SHUFFLE))
        idx = rng.permutation(q)
    return idx[:n_tr], idx[n_tr : n_tr + n_off], idx[n_tr + n_off :]


def _flatten_split(db: spectral.FingerprintDB, block_idx: np.ndarray):
    """(queries, labels, truths) for the given block indices, grid-major."""
    g, _, m = db.rss.shape
    picked = db.rss[:, block_idx, :]
    queries = picked.reshape(g * block_idx.size, m)
    labels = np.repeat(np.arange(g), block_idx.size)
    truths = db.grid_coords[labels]
    return queries, labels, truths


def _build_classifiers(plan: ExperimentPlan, train_set: TrainSet, trial: int):
    built = []
    for kind in plan.classifier_order:
        if kind == METHOD_KNN:
            built.append(KnnClassifier(train_set, plan.knn_k))
        elif kind == METHOD_ELM:
            built.append(ElmClassifier(train_set, plan.elm_hidden, _seed(plan, trial, _SEED_ELM)))
        elif kind == METHOD_RF:
            built.append(RandomForest(train_set, plan.rf_trees, plan.rf_depth,
                                      _seed(plan, trial, _SEED_RF)))
    return built


def run_experiment(plan: ExperimentPlan,
                   db: spectral.FingerprintDB | None = None) -> ResultTable:
    """Execute the full protocol and score every requested method.

    When db is given it replaces the synthesized site survey (it must match
    the plan geometry); otherwise each trial synthesizes its own.
    """
    coords = plan.grid_coords
    needs_clf = bool(set(plan.methods) & {*SINGLE_CLASSIFIERS, METHOD_GI, METHOD_GD})
    acc: dict[str, list] = {m: [] for m in plan.methods}
    trials, grids, truths = [], [], []
    fusion_details = []

    if db is not None:
        _check_db_matches(plan, db)

    for trial in range(plan.trials):
        with _stage("synthesize"):
            trial_db = db if db is not None else synthesize_fingerprint_db(plan, trial)

        with _stage("split"):
            tr_idx, off_idx, on_idx = _split_indices(plan, trial_db.blocks_per_grid, trial)
            train_q, train_labels, _ = _flatten_split(trial_db, tr_idx)
            train_set = TrainSet(train_q, train_labels, coords)
            mean_fps = trial_db.rss[:, tr_idx, :].mean(axis=1)

        with _stage("train"):
            clfs = _build_classifiers(plan, train_set, trial) if needs_clf else []

        gi = gd = None
        with _stage("fusion-fit"):
            if METHOD_GI in plan.methods or METHOD_GD in plan.methods:
                off_q, off_labels, off_truth = _flatten_split(trial_db, off_idx)
                off_pred = fusion.build_prediction_matrix(clfs, off_q)
                if METHOD_GI in plan.methods:
                    gi = fusion.gi_ls_fit(off_pred, off_truth, plan.rank_tol)
                if METHOD_GD in plan.methods:
                    gd = fusion.gd_ls_fit(off_pred, off_labels, coords, plan.rank_tol)
        fusion_details.append({"trial": trial, "gi": gi, "gd": gd})

        with _stage("evaluate"):
            on_q, on_labels, on_truth = _flatten_split(trial_db, on_idx)
            on_pred = fusion.build_prediction_matrix(clfs, on_q) if needs_clf else None
            nearest = (fusion.nearest_mean_labels(on_q, mean_fps)
                       if {METHOD_GD, METHOD_MATCH} & set(plan.methods) else None)
            for method in plan.methods:
                est = _estimate(plan, method, on_q, on_pred, nearest, coords, gi, gd)
                acc[method].append(est)
            trials.append(np.full(on_labels.size, trial))
            grids.append(on_labels)
            truths.append(on_truth)

    return ResultTable(
        methods=tuple(plan.methods),
        trial=np.concatenate(trials),
        grid_index=np.concatenate(grids),
        truth=np.concatenate(truths),
        est={m: np.concatenate(acc[m]) for m in plan.methods},
        cdf_thresholds=np.asarray(plan.cdf_thresholds, dtype=float),
        fusion_weights=tuple(fusion_details),
    )


def _estimate(plan, method, on_q, on_pred, nearest, coords, gi, gd) -> np.ndarray:
    if method in SINGLE_CLASSIFIERS:
        return on_pred[:, :, plan.classifier_order.index(method)].T
    if method == METHOD_GI:
        return fusion.gi_ls_predict_all(gi, on_pred)
    if method == METHOD_GD:
        return fusion.gd_ls_predict_all(gd, nearest, on_pred)
    if method == METHOD_MATCH:
        return coords[nearest]
    if method == METHOD_RSSR:
        solver = baselines.RssrSolver(plan.rssr_config())
        # PSD peaks are squared electrical amplitudes; the optical power the
        # ratio model expects is their square root, i.e. 10^(dB/20)
        linear = 10.0 ** (on_q / 20.0)
        est = np.empty((on_q.shape[0], 2))
        for r in range(on_q.shape[0]):
            est[r] = solver.locate(linear[r])
        return est
    raise ValueError(f"unknown method {method!r}")


def _check_db_matches(plan: ExperimentPlan, db: spectral.FingerprintDB):
    coords = plan.grid_coords
    if db.num_grid_points != coords.shape[0]:
        raise ExperimentError("synthesize", "fingerprint DB grid size does not match plan")
    if not np.allclose(db.grid_coords, coords, atol=1e-9):
        raise ExperimentError("synthesize", "fingerprint DB grid coordinates do not match plan")
    if db.num_tones != plan.tones.size or not np.allclose(db.tones, plan.tones, rtol=1e-12):
        raise ExperimentError("synthesize", "fingerprint DB tones do not match plan LEDs")
    if db.fft_len != plan.fft_len:
        raise ExperimentError("synthesize", "fingerprint DB FFT length does not match plan")
    if abs(db.sample_rate - plan.channel.sample_rate) > 1e-6:
        raise ExperimentError("synthesize", "fingerprint DB sample rate does not match plan")


def rss_vs_fft_len(plan: ExperimentPlan, fft_lens=(2000, 4000, 6000, 8000),
                   grid_index: int = 0, blocks: int | None = None):
    """Mean RSS (dB) per tone at one grid point for each FFT length.

    Returns (tones, lens, table) with table[i, j] the mean dB of tone i at
    fft_lens[j], averaged over `blocks` periodogram blocks (defaults to the
    plan's blocks_per_grid). The inter-column growth on a noise-free tone
    is 10*log10(N2/N1).
    """
    lens = [int(n) for n in fft_lens]
    if not lens or any(n < 2 for n in lens):
        raise ValueError("fft_lens must be a non-empty list of lengths >= 2")
    coords = plan.grid_coords
    if not 0 <= grid_index < coords.shape[0]:
        raise ValueError(f"grid_index {grid_index} outside [0, {coords.shape[0]})")
    q = blocks if blocks is not None else plan.blocks_per_grid
    pd = PdPose.at(coords[grid_index, 0], coords[grid_index, 1])
    table = np.empty((plan.tones.size, len(lens)))
    for j, n in enumerate(lens):
        stream = synthesize_received(
            list(plan.leds), pd, plan.channel, q * n,
            _seed(plan, 0, _SEED_TABLE, j),
        )
        db = spectral.build_fingerprints([stream], coords[grid_index : grid_index + 1], n,
                                         plan.tones, plan.channel.sample_rate)
        table[:, j] = db.rss[0].mean(axis=0)
    return plan.tones, lens, table
