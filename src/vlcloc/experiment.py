"""Experiment orchestration: synthesize, fingerprint, train, fuse, score.

run_experiment drives the full pipeline on a square survey grid: per-grid
signal synthesis, fingerprint construction, a train / offline / online
split of the Q blocks, classifier training, GI / GD fusion fitting on the
offline split, and evaluation of every requested method on the online
split. Everything is a pure function of the plan (all randomness flows
from the plan seed through named SeedSequence children).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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


def mspe(estimates, truths) -> float:
    """Root mean square 2-d positioning error over paired samples."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    tru = np.atleast_2d(np.asarray(truths, dtype=float))
    if est.shape != tru.shape or est.shape[1] != 2 or est.shape[0] == 0:
        raise ValueError("estimates and truths must be non-empty (n, 2) arrays")
    return float(np.sqrt(np.mean(((est - tru) ** 2).sum(axis=1))))


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
        if any(f <= 0.0 for f in fracs):
            raise ValueError("every split fraction must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")

    def counts(self, q: int) -> tuple[int, int, int]:
        n_train = int(q * self.train)
        n_offline = int(q * self.offline)
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
    rssr_solver: str = baselines.GRID_SCAN
    rssr_scan_resolution: float = 0.01
    rssr_margin: float = 0.05
    cdf_thresholds: tuple[float, ...] = tuple(np.round(np.arange(0.0, 0.2501, 0.0025), 6))

    def __post_init__(self):
        if self.grid_q < 2 or self.grid_spacing <= 0.0:
            raise ValueError("grid needs q >= 2 and positive spacing")
        if self.fft_len < 2 or self.blocks_per_grid < 1:
            raise ValueError("fft_len >= 2 and blocks_per_grid >= 1 required")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        freqs = [led.frequency for led in self.leds]
        if len(set(freqs)) != len(freqs):
            raise ValueError("LED tone frequencies must be distinct")
        # classifiers and RSS columns follow ascending tone order
        object.__setattr__(
            self, "leds", tuple(sorted(self.leds, key=lambda led: led.frequency))
        )
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")
        for c in self.classifier_order:
            if c not in SINGLE_CLASSIFIERS:
                raise ValueError(f"unknown classifier {c!r}")
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
            solver=self.rssr_solver,
            scan_resolution=self.rssr_scan_resolution,
        )


@dataclass(frozen=True)
class MethodResult:
    """Per-query records for one method, concatenated over trials."""

    trial: np.ndarray       # (n,)
    grid_index: np.ndarray  # (n,) true grid of each query
    truth: np.ndarray       # (n, 2)
    est: np.ndarray         # (n, 2)

    @property
    def errors(self) -> np.ndarray:
        return np.sqrt(((self.est - self.truth) ** 2).sum(axis=1))


@dataclass(frozen=True)
class ResultTable:
    methods: tuple[str, ...]
    results: dict[str, MethodResult]
    cdf_thresholds: np.ndarray
    fusion_weights: tuple = ()  # per trial: dict with optional gi / gd fits

    def errors(self, method: str) -> np.ndarray:
        return self.results[method].errors

    def mspe(self, method: str) -> float:
        err = self.errors(method)
        return float(np.sqrt(np.mean(err**2)))

    def cdf(self, method: str) -> np.ndarray:
        return error_cdf(self.errors(method), self.cdf_thresholds)

    def fraction_within(self, method: str, threshold: float) -> float:
        return float((self.errors(method) <= threshold).mean())

    def percentile_error(self, method: str, pct: float) -> float:
        return float(np.percentile(self.errors(method), pct))

    def equals(self, other: "ResultTable") -> bool:
        """Bit-exact comparison of every record (determinism audits)."""
        if self.methods != other.methods:
            return False
        if not np.array_equal(self.cdf_thresholds, other.cdf_thresholds):
            return False
        for m in self.methods:
            a, b = self.results[m], other.results[m]
            if not (
                np.array_equal(a.trial, b.trial)
                and np.array_equal(a.grid_index, b.grid_index)
                and np.array_equal(a.truth, b.truth)
                and np.array_equal(a.est, b.est)
            ):
                return False
        return True


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


def _nearest_mean_labels(queries: np.ndarray, mean_fps: np.ndarray) -> np.ndarray:
    """Vectorized nearest-mean-fingerprint label per query (lowest index on ties).

    Queries go in row chunks of about 2**20 (query, grid, tone) differences,
    so memory stays bounded however many queries there are.
    """
    out = np.empty(queries.shape[0], dtype=int)
    chunk = max(1, 2**20 // mean_fps.size)
    for start in range(0, queries.shape[0], chunk):
        q = queries[start : start + chunk]
        d2 = ((q[:, np.newaxis, :] - mean_fps[np.newaxis, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.argmin(d2, axis=1)
    return out


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
    acc_meta: dict[str, list] = {m: [] for m in plan.methods}
    fusion_details = []

    if db is not None:
        _check_db_matches(plan, db)

    for trial in range(plan.trials):
        try:
            trial_db = db if db is not None else synthesize_fingerprint_db(plan, trial)
        except ExperimentError:
            raise
        except Exception as e:
            raise ExperimentError("synthesize", str(e)) from e

        try:
            tr_idx, off_idx, on_idx = _split_indices(plan, trial_db.blocks_per_grid, trial)
            train_q, train_labels, _ = _flatten_split(trial_db, tr_idx)
            train_set = TrainSet(train_q, train_labels, coords)
            mean_fps = trial_db.rss[:, tr_idx, :].mean(axis=1)
        except Exception as e:
            raise ExperimentError("split", str(e)) from e

        try:
            clfs = _build_classifiers(plan, train_set, trial) if needs_clf else []
        except Exception as e:
            raise ExperimentError("train", str(e)) from e

        gi = gd = None
        try:
            if METHOD_GI in plan.methods or METHOD_GD in plan.methods:
                off_q, off_labels, off_truth = _flatten_split(trial_db, off_idx)
                off_pred = fusion.build_prediction_matrix(clfs, off_q)
                if METHOD_GI in plan.methods:
                    gi = fusion.gi_ls_fit(off_pred, off_truth, plan.rank_tol)
                if METHOD_GD in plan.methods:
                    n_off = off_idx.size
                    per_grid = [
                        fusion.PredictionMatrix(
                            off_pred.x_hat[g * n_off : (g + 1) * n_off],
                            off_pred.y_hat[g * n_off : (g + 1) * n_off],
                            off_pred.classifier_order,
                        )
                        for g in range(coords.shape[0])
                    ]
                    gd = fusion.gd_ls_fit(per_grid, coords, mean_fps, plan.rank_tol)
        except Exception as e:
            raise ExperimentError("fusion-fit", str(e)) from e
        fusion_details.append({"trial": trial, "gi": gi, "gd": gd})

        try:
            on_q, on_labels, on_truth = _flatten_split(trial_db, on_idx)
            on_pred = fusion.build_prediction_matrix(clfs, on_q) if needs_clf else None
            for method in plan.methods:
                est = _estimate(plan, method, on_q, on_pred, mean_fps, coords, gi, gd)
                acc[method].append(est)
                acc_meta[method].append((np.full(on_labels.size, trial), on_labels, on_truth))
        except ExperimentError:
            raise
        except Exception as e:
            raise ExperimentError("evaluate", str(e)) from e

    results = {}
    for m in plan.methods:
        trials_col = np.concatenate([t for t, _, _ in acc_meta[m]])
        grid_col = np.concatenate([g for _, g, _ in acc_meta[m]])
        truth_col = np.concatenate([t for _, _, t in acc_meta[m]])
        results[m] = MethodResult(trials_col, grid_col, truth_col, np.concatenate(acc[m]))
    return ResultTable(
        methods=tuple(plan.methods),
        results=results,
        cdf_thresholds=np.asarray(plan.cdf_thresholds, dtype=float),
        fusion_weights=tuple(fusion_details),
    )


def _estimate(plan, method, on_q, on_pred, mean_fps, coords, gi, gd) -> np.ndarray:
    if method in SINGLE_CLASSIFIERS:
        col = on_pred.classifier_order.index(method)
        return np.column_stack([on_pred.x_hat[:, col], on_pred.y_hat[:, col]])
    if method == METHOD_GI:
        return fusion.gi_ls_predict_all(gi, on_pred)
    if method == METHOD_GD:
        sel = _nearest_mean_labels(on_q, gd.mean_fps)
        return np.column_stack([
            (on_pred.x_hat * gd.wx[:, sel].T).sum(axis=1),
            (on_pred.y_hat * gd.wy[:, sel].T).sum(axis=1),
        ])
    if method == METHOD_MATCH:
        return coords[_nearest_mean_labels(on_q, mean_fps)]
    if method == METHOD_RSSR:
        solver = baselines.RssrSolver(plan.rssr_config())
        # PSD peaks are squared electrical amplitudes; the optical power the
        # ratio model expects is their square root, i.e. 10^(dB/20)
        linear = 10.0 ** (on_q / 20.0)
        est = np.empty((on_q.shape[0], 2))
        warned = []
        for r in range(on_q.shape[0]):
            loc = solver.locate(linear[r])
            est[r] = (loc.x, loc.y)
            if loc.warning is not None:
                warned.append(loc.warning)
        if warned:
            warnings.warn(f"rssr: {len(warned)} of {len(est)} queries warned, first: {warned[0]}",
                          RuntimeWarning, stacklevel=2)
        return est
    raise ValueError(f"unknown method {method!r}")


def _check_db_matches(plan: ExperimentPlan, db: spectral.FingerprintDB):
    coords = plan.grid_coords
    if db.num_grid_points != coords.shape[0]:
        raise ExperimentError("synthesize", "fingerprint DB grid size does not match plan")
    if not np.allclose(db.grid_coords, coords, atol=1e-9):
        raise ExperimentError("synthesize", "fingerprint DB grid coordinates do not match plan")
    if not np.allclose(db.tones, plan.tones, rtol=1e-12):
        raise ExperimentError("synthesize", "fingerprint DB tones do not match plan LEDs")
    if db.fft_len != plan.fft_len:
        raise ExperimentError("synthesize", "fingerprint DB FFT length does not match plan")
    if abs(db.sample_rate - plan.channel.sample_rate) > 1e-6:
        raise ExperimentError("synthesize", "fingerprint DB sample rate does not match plan")


def rss_vs_fft_len(plan: ExperimentPlan, fft_lens, grid_index: int = 0,
                   blocks: int | None = None):
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
    tones = plan.tones
    table = np.empty((tones.size, len(lens)))
    for j, n in enumerate(lens):
        stream = synthesize_received(
            list(plan.leds), pd, plan.channel, q * n,
            _seed(plan, 0, _SEED_TABLE, j),
        )
        blocks_mat = stream[: q * n].reshape(q, n)
        psd_rows = spectral._periodogram_blocks(blocks_mat)
        peaks = spectral._peak_bins(psd_rows, n, plan.channel.sample_rate, tones)
        table[:, j] = spectral.to_db(peaks).mean(axis=0)
    return tones, lens, table
