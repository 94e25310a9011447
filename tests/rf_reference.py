"""Reference random forest for the tests: one-hot split scan, recursive trees.

best_stump_split scores every cut from an n x C one-hot cumulative-count
matrix, and reference_forest grows each tree recursively with it, drawing
from the RNG in the same order as vlcloc's RandomForest. The fast
implementation in vlcloc.classifiers must reproduce both bit for bit;
presorted_stump_split and tree_labels are the tests' entry points into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vlcloc import classifiers


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (bits) of a label array."""
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    p = counts / labels.size
    return float(-(p * np.log2(p)).sum())


def best_stump_split(values: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(information gain, threshold) of the best single-feature threshold.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values (the lower value where the midpoint does not fall below the
    upper one); gain is the entropy reduction of the induced two-way split.
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
    lo, hi = float(vs[cuts[j]]), float(vs[cuts[j] + 1])
    thr = 0.5 * (lo + hi)
    if not lo <= thr < hi:  # a midpoint that rounds to hi or overflows separates nothing
        thr = lo
    return float(gains[j]), thr


def presorted_stump_split(values, labels) -> tuple[float, float]:
    """best_stump_split by vlcloc's O(n) presorted scan (classifiers._split_sorted)."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(values, kind="stable")
    lookup, totals = classifiers._class_ids(np.bincount(labels))
    xlog2x = classifiers._xlog2x(np.arange(values.size + 1.0))
    return classifiers._split_sorted(values[order], lookup[labels[order]], totals,
                                     xlog2x, np.diff(xlog2x))


def tree_labels(forest, queries) -> np.ndarray:
    """(trees, n) per-tree labels of a vlcloc RandomForest, all rows at once."""
    return forest._tree_labels(np.asarray(queries, dtype=float))


@dataclass
class Node:
    feature: int = -1
    threshold: float = math.inf
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


def forest_arrays(roots: list[Node]) -> tuple[np.ndarray, ...]:
    """(feature, threshold, child, label, roots) of the trees laid out as
    RandomForest lays its nodes out: tree after tree, each depth first and
    left before right, a split's children in two adjacent slots from child;
    a leaf is its own child."""
    rows, starts = [], []

    def visit(node: Node, i: int):
        pair = i if node.label >= 0 else len(rows)
        rows[i] = [node.feature, node.threshold, pair, node.label]
        if node.label < 0:
            rows.extend([None, None])
            visit(node.left, pair)
            visit(node.right, pair + 1)

    for root in roots:
        starts.append(len(rows))
        rows.append(None)
        visit(root, starts[-1])
    return (*(np.array(col) for col in zip(*rows)), np.array(starts))


def assert_same_forest(forest, roots: list[Node]):
    """forest's node arrays equal forest_arrays(roots), array for array."""
    got = (forest.feature, forest.threshold, forest.child, forest.label, forest.roots)
    for name, g, w in zip(("feature", "threshold", "child", "label", "roots"), got,
                          forest_arrays(roots)):
        np.testing.assert_array_equal(g, w, err_msg=name)


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
