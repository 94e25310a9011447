"""Grid-label classifiers: KNN voting, extreme learning machine, random forest.

Every classifier maps an M-dim RSS vector (dB) to one of G grid labels and
the grid point's coordinates. All three are deterministic functions of the
training data, the hyperparameters and (for ELM / RF) an explicit seed.
Tie rules are fixed so repeated runs agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class TrainSet:
    """Training view of the fingerprints: one row per RSS vector."""

    features: np.ndarray     # (n, M) dB
    labels: np.ndarray       # (n,) grid indices in [0, G)
    grid_coords: np.ndarray  # (G, 2) meters

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        coords = np.asarray(self.grid_coords, dtype=float)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty (n, M) matrix")
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if bad.size:
            raise ValueError(f"features row {bad[0]} is not finite: {feats[bad[0]]}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must align with feature rows")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("grid_coords must have shape (G, 2)")
        if labels.min() < 0 or labels.max() >= coords.shape[0]:
            raise ValueError("labels must index into grid_coords")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "grid_coords", coords)

    @property
    def num_grid_points(self) -> int:
        return self.grid_coords.shape[0]


@dataclass(frozen=True)
class GridPrediction:
    grid_index: int
    coords: np.ndarray  # (2,) meters


def _as_query_matrix(queries) -> np.ndarray:
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q[np.newaxis, :]
    if q.ndim != 2:
        raise ValueError("queries must be a vector or an (n, M) matrix")
    return q


class _GridClassifier:
    """Shared prediction plumbing; subclasses implement predict_labels."""

    name: str
    train_set: TrainSet

    def predict_labels(self, queries) -> np.ndarray:
        raise NotImplementedError

    def predict(self, query) -> GridPrediction:
        label = int(self.predict_labels(query)[0])
        return GridPrediction(label, self.train_set.grid_coords[label].copy())

    def predict_coords(self, queries) -> np.ndarray:
        """(n, 2) coordinates of the predicted grid labels."""
        return self.train_set.grid_coords[self.predict_labels(queries)]


class KnnClassifier(_GridClassifier):
    """k-nearest-neighbour voting on Euclidean distance.

    Neighbour order breaks distance ties by lower training-row index; equal
    vote counts go to the label with the smaller mean neighbour distance,
    then to the lower label.
    """

    name = "knn"

    def __init__(self, train: TrainSet, k: int):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if k > train.features.shape[0]:
            raise ValueError(f"k = {k} exceeds the {train.features.shape[0]} training rows")
        self.train_set = train
        self.k = k
        self._sq_norms = np.einsum("ij,ij->i", train.features, train.features)

    def predict_labels(self, queries) -> np.ndarray:
        q = _as_query_matrix(queries)
        x = self.train_set.features
        labels = self.train_set.labels
        g = self.train_set.num_grid_points
        k = self.k
        out = np.empty(q.shape[0], dtype=int)
        chunk = max(1, int(4e6) // max(1, x.shape[0]))
        for start in range(0, q.shape[0], chunk):
            qc = q[start : start + chunk]
            d2 = np.maximum(
                self._sq_norms[np.newaxis, :]
                + np.einsum("ij,ij->i", qc, qc)[:, np.newaxis]
                - 2.0 * qc @ x.T,
                0.0,
            )
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            for r in range(qc.shape[0]):
                cand = np.nonzero(d2[r] <= kth[r])[0]  # ascending index order
                order = np.argsort(d2[r, cand], kind="stable")
                nn = cand[order][:k]
                votes = np.bincount(labels[nn], minlength=g)
                top = votes.max()
                tied = np.nonzero(votes == top)[0]
                if tied.size == 1:
                    out[start + r] = tied[0]
                    continue
                dists = np.sqrt(d2[r, nn])
                means = np.array(
                    [dists[labels[nn] == lab].mean() for lab in tied]
                )
                out[start + r] = tied[np.argmin(means)]  # argmin keeps lower label on ties
        return out


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-clip(x, -500, 500))), overwriting x: the (n, hidden)
    activations are the largest arrays ELM makes, so no temporaries."""
    np.clip(x, -500.0, 500.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


class ElmClassifier(_GridClassifier):
    """Single-hidden-layer network trained in closed form.

    Input weights and biases are drawn uniformly from [-1, 1]; the output
    weights are the minimum-norm least-squares solution of
    sigmoid(X W + b) B = T for one-hot targets T, solved through SVD.
    Features are z-scored with training statistics before the hidden layer.
    """

    name = "elm"

    def __init__(self, train: TrainSet, hidden: int, seed):
        if hidden < 1:
            raise ValueError(f"hidden must be at least 1, got {hidden}")
        self.train_set = train
        self.hidden = hidden
        x = train.features
        self._mu = x.mean(axis=0)
        sigma = x.std(axis=0)
        self._sigma = np.where(sigma > 0.0, sigma, 1.0)
        rng = np.random.default_rng(seed)
        m = x.shape[1]
        self._w = rng.uniform(-1.0, 1.0, (m, hidden))
        self._b = rng.uniform(-1.0, 1.0, hidden)
        h = self._hidden_out(x)
        targets = np.zeros((x.shape[0], train.num_grid_points))
        targets[np.arange(x.shape[0]), train.labels] = 1.0
        self.output_weights = np.linalg.lstsq(h, targets, rcond=None)[0]

    def _hidden_out(self, x: np.ndarray) -> np.ndarray:
        h = (x - self._mu) / self._sigma @ self._w
        h += self._b
        return _sigmoid_inplace(h)

    def scores(self, queries) -> np.ndarray:
        """(n, G) output-layer activations."""
        return self._hidden_out(_as_query_matrix(queries)) @ self.output_weights

    def predict_labels(self, queries) -> np.ndarray:
        return np.argmax(self.scores(queries), axis=1)  # argmax: lower label wins ties


class FlatTree(NamedTuple):
    """One tree as preorder node arrays; node 0 is the root.

    An internal node sends a query to `left` when its value of `feature` is
    <= `threshold`, else to `right`, and has label -1. A leaf has feature -1,
    threshold nan and its own index as both children, so `depth` routing
    steps bring every query to its leaf.
    """

    feature: np.ndarray    # (nodes,) int
    threshold: np.ndarray  # (nodes,) float
    left: np.ndarray       # (nodes,) int
    right: np.ndarray      # (nodes,) int
    label: np.ndarray      # (nodes,) int


_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# Margin on the screening tolerance, on top of a bound that is already worst case.
_SCREEN_SAFETY = 4.0


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): relative error bound of k roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _xlog2x(counts: np.ndarray) -> np.ndarray:
    """Elementwise c * log2(c), with 0 for c = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        term = counts * np.log2(counts)
    return np.where(counts > 0.0, term, 0.0)


def _class_ids(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lookup, totals) from label counts: lookup maps each present label to a
    dense class id in ascending label order; totals are the class counts."""
    present = np.flatnonzero(counts)
    lookup = np.zeros(counts.size, dtype=np.min_scalar_type(present.size))
    lookup[present] = np.arange(present.size)
    return lookup, counts[present]


def _split_sorted(vs: np.ndarray, ys: np.ndarray, totals: np.ndarray,
                  xlog2x: np.ndarray) -> tuple[float, float]:
    """best_stump_split on presorted input.

    vs holds the node's values in ascending order, ys their dense class ids
    (see _class_ids) in the same order, totals the class counts, and xlog2x
    the table c * log2(c) for c = 0 .. at least vs.size.

    Every cut is screened in O(n): sample i, the k-th of its class in sorted
    order, moves that class's left count from k to k + 1 and its right count
    from r - k to r - k - 1, so two cumsums of table steps give the left and
    right sums of c log2 c at every cut. Cuts whose screened score lies within
    a rounding-error bound of the best are then re-scored with the one-hot
    formula on their exact class counts, so gain and threshold are the ones
    the full one-hot scan over all cuts returns, bit for bit.
    """
    n = vs.size
    cuts = np.flatnonzero(vs[1:] > vs[:-1])
    if cuts.size == 0:
        return -math.inf, math.nan

    by_class = np.argsort(ys, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by_class] = np.arange(n) - (np.cumsum(totals) - totals)[ys[by_class]]
    step = xlog2x[1 : n + 1] - xlog2x[:n]
    d_left = step[rank]
    d_right = -step[totals[ys] - rank - 1]
    sizes = cuts + 1
    # gain * n up to a constant: sum over both sides of c log2 c minus n_side log2 n_side
    screen = (np.cumsum(d_left)[cuts] + np.cumsum(d_right)[cuts]
              - xlog2x[sizes] - xlog2x[n - sizes])
    # Rounding-error bound on screen and exact formula alike, in units of
    # gain * n (Higham 2002, eqs. 3.4 and 4.4): gamma_n sum |d| for the two
    # cumsums, and, as n log2 n bounds every sum of c log2 c over a partition
    # of the node, gamma_C for the exact formula's sums over C classes plus
    # gamma_64 for the table entries, the screen's additions and the exact
    # formula's log2 / divide / multiply chain. A cut can beat the screened
    # best only if its screen trails by less than twice that.
    bound = (_gamma(n) * (np.abs(d_left).sum() + np.abs(d_right).sum())
             + (_gamma(totals.size) + _gamma(64)) * xlog2x[n])
    keep = cuts[screen >= screen.max() - _SCREEN_SAFETY * 2.0 * bound]

    # exact left class counts at the kept cuts, built between consecutive cuts
    k, c = keep.size, totals.size
    segment = np.searchsorted(keep, np.arange(keep[-1] + 1))
    left = (np.bincount(segment * c + ys[: keep[-1] + 1], minlength=k * c)
            .reshape(k, c).cumsum(axis=0).astype(float))
    total = totals.astype(float)

    def plogp_sum(counts):
        return _xlog2x(counts).sum(axis=-1)

    sizes_l = (keep + 1).astype(float)
    sizes_r = n - sizes_l
    h_left = np.log2(sizes_l) - plogp_sum(left) / sizes_l
    h_right = np.log2(sizes_r) - plogp_sum(total - left) / sizes_r
    h_parent = math.log2(n) - plogp_sum(total) / n
    gains = h_parent - (sizes_l * h_left + sizes_r * h_right) / n
    j = int(np.argmax(gains))  # first max: smallest threshold on gain ties
    lo, hi = float(vs[keep[j]]), float(vs[keep[j] + 1])
    thr = 0.5 * (lo + hi)
    if not lo <= thr < hi:  # a midpoint that rounds to hi or overflows separates nothing
        thr = lo
    return float(gains[j]), thr


def best_stump_split(values, labels) -> tuple[float, float]:
    """(information gain, threshold) of the best single-feature threshold.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values (the lower value where the midpoint does not fall below the
    upper one); gain is the entropy reduction (bits) of the induced two-way
    split, and the smallest threshold wins gain ties. labels must be
    non-negative integers. Returns (-inf, nan) when the feature is constant
    over the node.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(values, kind="stable")
    lookup, totals = _class_ids(np.bincount(labels))
    return _split_sorted(values[order], lookup[labels[order]], totals,
                         _xlog2x(np.arange(values.size + 1.0)))


class RandomForest(_GridClassifier):
    """Bootstrap forest of depth-limited trees with stump-style node tests.

    Each node test is one feature against one threshold; candidate features
    are a random subset of ceil(sqrt(M)) per node; the split maximizing
    information gain wins. Queries route left when value <= threshold.

    A tree has at most 2**depth leaves, so it predicts at most 2**depth
    distinct grid labels: depth 5 allows 32 of the benchmark's G = 225, a
    cap on RF's exact-hit rate that no amount of training data lifts.

    Each tree sorts every feature of its bootstrap sample once; a split
    partitions those orders stably, so the rows of a node stay sorted by
    (value, bootstrap row) and no node sorts again.
    """

    name = "rf"

    def __init__(self, train: TrainSet, trees: int, depth: int, seed):
        if trees < 1 or depth < 1:
            raise ValueError("trees and depth must be at least 1")
        self.train_set = train
        self.trees = trees
        self.depth = depth
        rng = np.random.default_rng(seed)
        x = train.features
        y = train.labels
        n, m = x.shape
        self._n_candidates = max(1, math.ceil(math.sqrt(m)))
        xlog2x = _xlog2x(np.arange(n + 1.0))
        # Dense per-feature value ranks: a stable integer sort of them orders
        # rows exactly as a stable sort of the values would, and faster.
        ranks = np.empty((m, n), dtype=np.min_scalar_type(n))
        for f in range(m):
            ranks[f] = np.unique(x[:, f], return_inverse=True)[1]
        self.tree_arrays: list[FlatTree] = []
        for _ in range(trees):
            boot = rng.integers(0, n, n)
            order = np.argsort(ranks[:, boot], axis=1, kind="stable")
            self.tree_arrays.append(
                self._build_tree(x[boot].T.copy(), y[boot], order, rng, xlog2x))

    def _build_tree(self, cols: np.ndarray, y: np.ndarray, order: np.ndarray,
                    rng: np.random.Generator, xlog2x: np.ndarray) -> FlatTree:
        """Grow one tree from (M, n) feature columns and their per-feature
        stable sort orders, depth first and left before right: the order in
        which nodes draw their candidate features."""
        m = cols.shape[0]
        feature, threshold, left, right, label = [], [], [], [], []
        # (row orders (M, rows) sorted per feature, depth left, parent, child list to link)
        stack = [(order, self.depth, -1, left)]
        while stack:
            order, depth_left, parent, link = stack.pop()
            node = len(label)
            if parent >= 0:
                link[parent] = node
            counts = np.bincount(y[order[0]])
            best_gain, best_feat, best_thr = 0.0, -1, math.nan
            if depth_left > 0 and order.shape[1] >= 2 and np.count_nonzero(counts) > 1:
                lookup, totals = _class_ids(counts)
                for f in rng.choice(m, self._n_candidates, replace=False):
                    rows = order[f]  # drawn order breaks equal-gain ties
                    gain, thr = _split_sorted(cols[f][rows], lookup[y[rows]], totals, xlog2x)
                    if gain > best_gain:
                        best_gain, best_feat, best_thr = gain, int(f), thr
            if best_feat < 0:
                feature.append(-1)
                threshold.append(math.nan)
                left.append(node)
                right.append(node)
                label.append(int(np.argmax(counts)))
                continue
            feature.append(best_feat)
            threshold.append(best_thr)
            left.append(-1)
            right.append(-1)
            label.append(-1)
            go_left = (cols[best_feat] <= best_thr)[order]
            stack.append((order[~go_left].reshape(m, -1), depth_left - 1, node, right))
            stack.append((order[go_left].reshape(m, -1), depth_left - 1, node, left))
        return FlatTree(np.array(feature), np.array(threshold), np.array(left),
                        np.array(right), np.array(label))

    def tree_labels(self, queries) -> np.ndarray:
        """(trees, n) per-tree predicted labels."""
        q = _as_query_matrix(queries)
        n = q.shape[0]
        by_feature = q.T.ravel()  # value of (query i, feature f) at f * n + i
        rows = np.arange(n)
        all_labels = np.empty((len(self.tree_arrays), n), dtype=int)
        for t, tree in enumerate(self.tree_arrays):
            children = np.column_stack([tree.right, tree.left]).ravel()  # 2 * node + went_left
            offset = tree.feature * n  # a leaf's -n reads a valid value its nan threshold ignores
            node = np.zeros(n, dtype=int)
            for _ in range(self.depth):
                went_left = by_feature[offset[node] + rows] <= tree.threshold[node]
                node = children[2 * node + went_left]
            all_labels[t] = tree.label[node]
        return all_labels

    def predict_labels(self, queries) -> np.ndarray:
        per_tree = self.tree_labels(queries)
        g = self.train_set.num_grid_points
        n = per_tree.shape[1]
        votes = np.bincount((per_tree + g * np.arange(n)).ravel(), minlength=n * g)
        return np.argmax(votes.reshape(n, g), axis=1)  # lower label wins vote ties
