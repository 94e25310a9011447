"""Least-squares fusion of per-classifier position estimates.

The H classifiers' coordinate predictions for L queries form an L x H
prediction matrix per axis. Fusion weights solve min ||truth - X w||_2;
the SVD route truncates small singular values and returns the minimum-norm
solution, which stays stable when classifiers agree and X is rank
deficient. GI fits one global weight pair; GD fits one pair per grid point
and selects at query time by nearest mean fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LsFit:
    """Solved weight vector for one coordinate axis."""

    weights: np.ndarray  # (H,)
    rank_used: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite vector")
        if self.rank_used > w.size:
            raise ValueError("rank_used cannot exceed the number of classifiers")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class FusionWeights:
    """Grid-independent weight pair (one LsFit per coordinate axis)."""

    wx: LsFit
    wy: LsFit


@dataclass(frozen=True)
class GdWeightBank:
    """Grid-dependent weights: column g fuses queries matched to grid g."""

    wx: np.ndarray        # (H, G)
    wy: np.ndarray        # (H, G)
    mean_fps: np.ndarray  # (G, M) dB, used for grid selection


@dataclass(frozen=True)
class PredictionMatrix:
    """Per-axis L x H prediction matrices; column eta belongs to classifier eta."""

    x_hat: np.ndarray
    y_hat: np.ndarray
    classifier_order: tuple[str, ...]

    def __post_init__(self):
        xh = np.atleast_2d(np.asarray(self.x_hat, dtype=float))
        yh = np.atleast_2d(np.asarray(self.y_hat, dtype=float))
        if xh.shape != yh.shape:
            raise ValueError("x_hat and y_hat must have identical shapes")
        if xh.shape[1] != len(self.classifier_order):
            raise ValueError("one column per classifier required")
        object.__setattr__(self, "x_hat", xh)
        object.__setattr__(self, "y_hat", yh)
        object.__setattr__(self, "classifier_order", tuple(self.classifier_order))


def build_prediction_matrix(classifiers, queries) -> PredictionMatrix:
    """Run every classifier over the queries and stack the coordinates."""
    if not classifiers:
        raise ValueError("at least one classifier is required")
    cols_x, cols_y = [], []
    for clf in classifiers:
        coords = clf.predict_coords(queries)
        cols_x.append(coords[:, 0])
        cols_y.append(coords[:, 1])
    return PredictionMatrix(
        x_hat=np.column_stack(cols_x),
        y_hat=np.column_stack(cols_y),
        classifier_order=tuple(clf.name for clf in classifiers),
    )


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff: sigma < tol * sigma_max counts as zero."""
    return 1e-10 * max(shape)


def ls_svd_weights(pred: np.ndarray, truth: np.ndarray,
                   rank_tol: float | None = None) -> LsFit:
    """Minimum-norm least-squares weights through truncated SVD.

    With X = U diag(sigma) V', the solution keeps the K singular values
    above rank_tol * sigma_max and returns
    w = sum_k (u_k' truth / sigma_k) v_k. An all-zero matrix yields zero
    weights with rank 0 rather than an error.
    """
    x = np.atleast_2d(np.asarray(pred, dtype=float))
    t = np.asarray(truth, dtype=float)
    l, h = x.shape
    if t.shape != (l,):
        raise ValueError(f"truth must have length {l}")
    tol = default_rank_tol(x.shape) if rank_tol is None else rank_tol
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return LsFit(np.zeros(h), 0)
    k = int(np.count_nonzero(sv >= tol * sv[0]))
    coeff = (u[:, :k].T @ t) / sv[:k]
    return LsFit(vt[:k].T @ coeff, k)


def gi_ls_fit(pred: PredictionMatrix, truth_xy,
              rank_tol: float | None = None) -> FusionWeights:
    """Grid-independent fit: one weight vector per axis over all offline samples."""
    truth = np.asarray(truth_xy, dtype=float)
    if truth.ndim != 2 or truth.shape != (pred.x_hat.shape[0], 2):
        raise ValueError("truth_xy must have shape (L, 2)")
    return FusionWeights(
        wx=ls_svd_weights(pred.x_hat, truth[:, 0], rank_tol),
        wy=ls_svd_weights(pred.y_hat, truth[:, 1], rank_tol),
    )


def gi_ls_predict_all(weights: FusionWeights, online_pred: PredictionMatrix) -> np.ndarray:
    """(L, 2) fused coordinates for every online row."""
    return np.column_stack([
        online_pred.x_hat @ weights.wx.weights,
        online_pred.y_hat @ weights.wy.weights,
    ])


def gd_ls_fit(pred: PredictionMatrix, labels, grid_coords, mean_fps,
              rank_tol: float | None = None) -> GdWeightBank:
    """Grid-dependent fit: per grid point g, regress the offline predictions
    of the rows labelled g, in their original order, onto the constant truth
    (x_g, y_g)."""
    labels = np.asarray(labels)
    coords = np.asarray(grid_coords, dtype=float)
    fps = np.asarray(mean_fps, dtype=float)
    g = coords.shape[0]
    if labels.shape != (pred.x_hat.shape[0],) or fps.shape[0] != g:
        raise ValueError("labels must align with prediction rows, mean_fps with grid_coords")
    h = pred.x_hat.shape[1]
    wx = np.empty((h, g))
    wy = np.empty((h, g))
    for gi in range(g):
        rows = np.flatnonzero(labels == gi)
        x, y = coords[gi]
        wx[:, gi] = ls_svd_weights(pred.x_hat[rows], np.full(rows.size, x), rank_tol).weights
        wy[:, gi] = ls_svd_weights(pred.y_hat[rows], np.full(rows.size, y), rank_tol).weights
    return GdWeightBank(wx=wx, wy=wy, mean_fps=fps)


def nearest_mean_labels(queries, mean_fps) -> np.ndarray:
    """Index of the nearest mean fingerprint (Euclidean) for every query row;
    ties go to the lower index.

    Queries go in row chunks of about 2**20 (query, grid, tone) differences,
    so memory stays bounded however many queries there are.
    """
    queries = np.asarray(queries, dtype=float)
    mean_fps = np.asarray(mean_fps, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != mean_fps.shape[1]:
        raise ValueError("queries must be an (n, M) matrix matching the mean fingerprint columns")
    out = np.empty(queries.shape[0], dtype=int)
    chunk = max(1, 2**20 // mean_fps.size)
    for start in range(0, queries.shape[0], chunk):
        q = queries[start : start + chunk]
        d2 = ((q[:, np.newaxis, :] - mean_fps[np.newaxis, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.argmin(d2, axis=1)
    return out


def gd_ls_predict_all(bank: GdWeightBank, queries, online_pred: PredictionMatrix) -> np.ndarray:
    """(L, 2) fused coordinates: each online row uses the weight column of
    the grid whose mean fingerprint is nearest its query."""
    sel = nearest_mean_labels(queries, bank.mean_fps)
    return np.column_stack([
        (online_pred.x_hat * bank.wx[:, sel].T).sum(axis=1),
        (online_pred.y_hat * bank.wy[:, sel].T).sum(axis=1),
    ])
