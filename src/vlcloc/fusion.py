"""Least-squares fusion of per-classifier position estimates.

The H classifiers' coordinate predictions for L queries form one
(2, L, H) array: an L x H prediction matrix per axis. Fusion weights solve
min ||truth - X w||_2 through a truncated SVD, which returns the
minimum-norm solution and stays stable when classifiers agree and X is rank
deficient. GI-LS and GD-LS are the same solve on different stacks: GI fits
one weight vector per axis over all offline rows, GD one per axis and grid
point over the rows labelled with it, and selects at query time by nearest
mean fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LsFit:
    """Solved weights for one coordinate axis: (H,) with an int rank for one
    fit, (G, H) with (G,) ranks for a stack of G fits."""

    weights: np.ndarray
    rank_used: int | np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.rank_used)
        if w.ndim < 1 or r.shape != w.shape[:-1] or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite, with one rank per weight vector")
        if np.any(r > w.shape[-1]):
            raise ValueError("rank_used cannot exceed the number of classifiers")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rank_used", int(r) if r.ndim == 0 else r)


@dataclass(frozen=True)
class FusionWeights:
    """GI or GD weights: one LsFit per coordinate axis."""

    wx: LsFit
    wy: LsFit


def build_prediction_matrix(classifiers, queries) -> np.ndarray:
    """(2, L, H) C-contiguous: [axis, query, classifier] coordinate predictions."""
    if not classifiers:
        raise ValueError("at least one classifier is required")
    coords = np.stack([clf.predict_coords(queries) for clf in classifiers])  # (H, L, 2)
    return np.ascontiguousarray(coords.transpose(2, 1, 0))


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff: sigma < tol * sigma_max counts as zero."""
    return 1e-10 * max(shape)


def ls_svd_weights(pred: np.ndarray, truth: np.ndarray,
                   rank_tol: float | None = None) -> LsFit:
    """Minimum-norm least-squares weights through truncated SVD, for one
    (L, H) matrix or a stack (..., L, H) against truths (..., L).

    With X = U diag(sigma) V', each solution keeps the K nonzero singular
    values at or above rank_tol * sigma_max and returns
    w = sum_k (u_k' truth / sigma_k) v_k; an all-zero matrix yields zero
    weights with rank 0. One SVD covers the stack; each distinct rank takes
    one u' t product over the whole stack and one V product over its fits.
    """
    x = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if x.ndim < 2 or t.shape != x.shape[:-1]:
        raise ValueError(f"truth must have shape {x.shape[:-1]}")
    if rank_tol is not None and not 0.0 <= rank_tol < np.inf:
        raise ValueError(f"rank_tol must be finite and non-negative, got {rank_tol}")
    tol = default_rank_tol(x.shape[-2:]) if rank_tol is None else rank_tol
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    ranks = np.count_nonzero((sv > 0.0) & (sv >= tol * sv[..., :1]), axis=-1)
    w = np.zeros(x.shape[:-2] + x.shape[-1:])
    for k in np.unique(ranks[ranks > 0]):
        at_k = ranks == k
        # u' t over the whole stack: indexing t would copy a strided truth
        # column, and BLAS sums a contiguous copy in another order
        ut = (np.swapaxes(u[..., :k], -1, -2) @ t[..., np.newaxis])[at_k][..., 0]
        coeff = ut / sv[at_k][..., :k]
        w[at_k] = (np.swapaxes(vt[at_k][..., :k, :], -1, -2) @ coeff[..., np.newaxis])[..., 0]
    return LsFit(w, ranks)


def _per_axis(fit: LsFit) -> FusionWeights:
    return FusionWeights(*(LsFit(w, r) for w, r in zip(fit.weights, fit.rank_used)))


def gi_ls_fit(pred: np.ndarray, truth_xy, rank_tol: float | None = None) -> FusionWeights:
    """Grid-independent fit: one weight vector per axis over all offline rows."""
    truth = np.asarray(truth_xy, dtype=float)
    if truth.shape != (pred.shape[1], 2):
        raise ValueError("truth_xy must have shape (L, 2)")
    return _per_axis(ls_svd_weights(pred, truth.T, rank_tol))


def gi_ls_predict_all(weights: FusionWeights, online_pred: np.ndarray) -> np.ndarray:
    """(L, 2) fused coordinates for every online row."""
    w = np.stack([weights.wx.weights, weights.wy.weights])
    return (online_pred @ w[..., np.newaxis])[..., 0].T


def gd_ls_fit(pred: np.ndarray, labels, grid_coords,
              rank_tol: float | None = None) -> FusionWeights:
    """Grid-dependent fit: per grid point g, regress the offline predictions
    of the rows labelled g, in their original order, onto the constant truth
    (x_g, y_g). Every grid point needs the same number of rows."""
    labels = np.asarray(labels)
    coords = np.asarray(grid_coords, dtype=float)
    g = coords.shape[0]
    if labels.shape != (pred.shape[1],) or np.any((labels < 0) | (labels >= g)):
        raise ValueError(f"labels must be one grid index in [0, {g}) per prediction row")
    counts = np.bincount(labels, minlength=g)
    if np.any(counts != counts[0]):
        raise ValueError("every grid point needs the same number of rows")
    rows = np.argsort(labels, kind="stable").reshape(g, counts[0])
    truth = np.repeat(coords.T[..., np.newaxis], counts[0], axis=2)
    return _per_axis(ls_svd_weights(pred[:, rows], truth, rank_tol))


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


def gd_ls_predict_all(weights: FusionWeights, nearest, online_pred: np.ndarray) -> np.ndarray:
    """(L, 2) fused coordinates: online row r uses the weights of grid
    nearest[r], the grid whose mean fingerprint is nearest its query
    (nearest_mean_labels)."""
    w = np.stack([weights.wx.weights[nearest], weights.wy.weights[nearest]])
    return (online_pred * w).sum(axis=2).T
