"""Least-squares fusion of per-classifier position estimates.

The H classifiers' coordinate predictions for L queries form one
(2, L, H) array: an L x H prediction matrix per axis. Fusion weights solve
min ||truth - X w||_2 through a truncated SVD, which returns the
minimum-norm solution and stays stable when classifiers agree and X is rank
deficient. GI-LS and GD-LS are the same solve on different stacks: GI fits
one weight vector per axis over all offline rows, GD one per axis and grid
point over the rows labelled with it. GD uses the weights of the grid whose
mean fingerprint is nearest the query, a choice run_experiment makes with a
k = 1 KnnClassifier over the G mean fingerprints.
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
        if np.ndim(self.rank_used) == 0:  # one fit's rank as a plain int
            object.__setattr__(self, "rank_used", int(self.rank_used))


@dataclass(frozen=True)
class FusionWeights:
    """GI or GD weights: one LsFit per coordinate axis."""

    wx: LsFit
    wy: LsFit


def build_prediction_matrix(classifiers, queries) -> np.ndarray:
    """(2, L, H) C-contiguous: [axis, query, classifier] coordinate predictions."""
    coords = np.stack([clf.predict_coords(queries) for clf in classifiers])  # (H, L, 2)
    return np.ascontiguousarray(coords.transpose(2, 1, 0))


def ls_svd_weights(pred: np.ndarray, truth: np.ndarray) -> LsFit:
    """Minimum-norm least-squares weights through truncated SVD, for one
    (L, H) matrix or a stack (..., L, H) against truths (..., L).

    With X = U diag(sigma) V', each solution keeps the K nonzero singular
    values at or above 1e-10 * max(L, H) * sigma_max and returns
    w = sum_k (u_k' truth / sigma_k) v_k; an all-zero matrix yields zero
    weights with rank 0. One SVD covers the stack; each distinct rank takes
    one u' t product over the whole stack and one V product over its fits.

    BLAS sets the last bits: between OpenBLAS's SkylakeX, Haswell and
    Sandybridge kernels, GI-LS / GD-LS estimates moved by <= 7.7e-15 m on the
    bench splits at seed 1729; tests/test_subprocess.py bounds them at 1e-12 m.
    """
    x = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    tol = 1e-10 * max(x.shape[-2:])
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


def gi_ls_fit(pred: np.ndarray, truth_xy) -> FusionWeights:
    """Grid-independent fit: one weight vector per axis over all offline rows."""
    return _per_axis(ls_svd_weights(pred, np.asarray(truth_xy, dtype=float).T))


def gi_ls_predict_all(weights: FusionWeights, online_pred: np.ndarray) -> np.ndarray:
    """(L, 2) fused coordinates for every online row."""
    w = np.stack([weights.wx.weights, weights.wy.weights])
    return (online_pred @ w[..., np.newaxis])[..., 0].T


def gd_ls_fit(pred: np.ndarray, labels, grid_coords) -> FusionWeights:
    """Grid-dependent fit: per grid point g, regress the offline predictions
    of the rows labelled g, in their original order, onto the constant truth
    (x_g, y_g). Every grid point needs the same number of rows."""
    coords = np.asarray(grid_coords, dtype=float)
    g = coords.shape[0]
    per_grid = pred.shape[1] // g
    rows = np.argsort(labels, kind="stable").reshape(g, per_grid)
    truth = np.repeat(coords.T[..., np.newaxis], per_grid, axis=2)
    return _per_axis(ls_svd_weights(pred[:, rows], truth))


def gd_ls_predict_all(weights: FusionWeights, nearest, online_pred: np.ndarray) -> np.ndarray:
    """(L, 2) fused coordinates: online row r uses the weights of grid
    nearest[r], the grid whose mean fingerprint is nearest its query (the
    k = 1 KnnClassifier over the mean fingerprints in run_experiment)."""
    w = np.stack([weights.wx.weights[nearest], weights.wy.weights[nearest]])
    return (online_pred * w).sum(axis=2).T
