"""Whole-matrix ELM oracle: lstsq on every training row at once.

This is the fit ElmClassifier replaced with its blocked Cholesky solve, kept
as the reference its labels must equal: the (n, hidden) hidden-layer matrix
and the (n, G) one-hot targets built whole, and the minimum-norm
least-squares output weights from np.linalg.lstsq. Where ElmClassifier falls
back to lstsq, its weights equal these bit for bit.
"""

import numpy as np


def hidden_layer(train, hidden: int, seed, x) -> np.ndarray:
    """(n, hidden) sigmoid outputs of rows x for ElmClassifier(train, hidden,
    seed): the same z-scoring, RNG draws and clipped sigmoid."""
    feats = train.features
    mu = feats.mean(axis=0)
    sigma = feats.std(axis=0)
    sigma = np.where(sigma > 0.0, sigma, 1.0)
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, (feats.shape[1], hidden))
    b = rng.uniform(-1.0, 1.0, hidden)
    z = (np.asarray(x, dtype=float) - mu) / sigma @ w + b
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def output_weights(train, hidden: int, seed) -> np.ndarray:
    """(hidden, G) minimum-norm least-squares output weights."""
    h = hidden_layer(train, hidden, seed, train.features)
    n = train.features.shape[0]
    targets = np.zeros((n, train.num_grid_points))
    targets[np.arange(n), train.labels] = 1.0
    return np.linalg.lstsq(h, targets, rcond=None)[0]


def scores(clf, queries) -> np.ndarray:
    """(n, G) output-layer activations of a fitted ElmClassifier, all rows in
    one product."""
    return clf._hidden_out(np.asarray(queries, dtype=float)) @ clf.output_weights

