"""Reference random forest for the tests: one-hot split scan, recursive trees.

best_stump_split scores every cut from an n x C one-hot cumulative-count
matrix, and reference_forest grows each tree recursively with it, drawing
from the RNG in the same order as vlcloc's RandomForest. The fast
implementation in vlcloc.classifiers must reproduce both bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (bits) of a label array."""
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    p = counts / labels.size
    return float(-(p * np.log2(p)).sum())


def best_stump_split(values: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(information gain, threshold) of the best single-feature threshold.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; gain is the entropy reduction of the induced two-way split.
    Returns (-inf, nan) when the feature is constant over the node.
    """
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ys = labels[order]
    cuts = np.nonzero(vs[1:] > vs[:-1])[0]
    if cuts.size == 0:
        return -math.inf, math.nan

    classes, yc = np.unique(ys, return_inverse=True)
    n = ys.size
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), yc] = 1.0
    cum = onehot.cumsum(axis=0)
    left = cum[cuts]
    total = cum[-1]

    def plogp_sum(counts):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = counts * np.log2(counts)
        return np.where(counts > 0.0, term, 0.0).sum(axis=-1)

    sizes_l = (cuts + 1).astype(float)
    sizes_r = n - sizes_l
    h_left = np.log2(sizes_l) - plogp_sum(left) / sizes_l
    h_right = np.log2(sizes_r) - plogp_sum(total - left) / sizes_r
    h_parent = math.log2(n) - plogp_sum(total) / n
    gains = h_parent - (sizes_l * h_left + sizes_r * h_right) / n
    j = int(np.argmax(gains))  # first max: smallest threshold on gain ties
    thr = 0.5 * (vs[cuts[j]] + vs[cuts[j] + 1])
    return float(gains[j]), float(thr)


@dataclass
class Node:
    feature: int = -1
    threshold: float = math.nan
    left: "Node | None" = None
    right: "Node | None" = None
    label: int = -1


def _grow(x, y, depth_left, rng, n_candidates) -> Node:
    if depth_left == 0 or y.size < 2 or np.all(y == y[0]):
        return Node(label=int(np.argmax(np.bincount(y))))
    feats = rng.choice(x.shape[1], n_candidates, replace=False)
    best_gain, best_feat, best_thr = 0.0, -1, math.nan
    for f in feats:  # drawn order breaks equal-gain ties
        gain, thr = best_stump_split(x[:, f], y)
        if gain > best_gain:
            best_gain, best_feat, best_thr = gain, int(f), thr
    if best_feat < 0:
        return Node(label=int(np.argmax(np.bincount(y))))
    mask = x[:, best_feat] <= best_thr
    return Node(
        feature=best_feat,
        threshold=best_thr,
        left=_grow(x[mask], y[mask], depth_left - 1, rng, n_candidates),
        right=_grow(x[~mask], y[~mask], depth_left - 1, rng, n_candidates),
    )


def reference_forest(train, trees: int, depth: int, seed) -> list[Node]:
    """Root of each tree, grown as RandomForest(train, trees, depth, seed) grows it."""
    rng = np.random.default_rng(seed)
    x, y = train.features, train.labels
    n, m = x.shape
    n_candidates = max(1, math.ceil(math.sqrt(m)))
    roots = []
    for _ in range(trees):
        boot = rng.integers(0, n, n)
        roots.append(_grow(x[boot], y[boot], depth, rng, n_candidates))
    return roots


def preorder(root: Node) -> tuple[np.ndarray, ...]:
    """(feature, threshold, left, right, label) of every node, root first and
    left before right; a leaf's children are its own index."""
    rows = []

    def visit(node: Node) -> int:
        i = len(rows)
        rows.append([node.feature, node.threshold, i, i, node.label])
        if node.label < 0:
            rows[i][2] = visit(node.left)
            rows[i][3] = visit(node.right)
        return i

    visit(root)
    return tuple(np.array(col) for col in zip(*rows))


def route(root: Node, query: np.ndarray) -> int:
    node = root
    while node.label < 0:
        node = node.left if query[node.feature] <= node.threshold else node.right
    return node.label


def forest_labels(roots: list[Node], queries: np.ndarray, num_labels: int) -> np.ndarray:
    """Majority vote per query row; the lower label wins ties."""
    out = []
    for q in queries:
        votes = np.zeros(num_labels, dtype=int)
        for root in roots:
            votes[route(root, q)] += 1
        out.append(int(np.argmax(votes)))
    return np.array(out)
