"""Grid-label classifiers: KNN voting, extreme learning machine, random forest.

Every classifier maps an M-dim RSS vector (dB) to one of G grid labels and
the grid point's coordinates. All three are deterministic functions of the
training data, the hyperparameters and (for ELM / RF) an explicit seed.
Tie rules are fixed so repeated runs agree bit for bit. Queries are finite
(n, M) FingerprintDB rows and KNN's k fits (ExperimentPlan.check_trainable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class TrainSet:
    """Training view: one row per RSS vector of a checked FingerprintDB; no checks."""

    features: np.ndarray     # (n, M) dB
    labels: np.ndarray       # (n,) grid indices in [0, G)
    grid_coords: np.ndarray  # (G, 2) meters

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels).astype(int, copy=False))
        object.__setattr__(self, "grid_coords", np.asarray(self.grid_coords, dtype=float))

    @property
    def num_grid_points(self) -> int:
        return self.grid_coords.shape[0]


class _GridClassifier:
    """Shared prediction plumbing; subclasses label one block (_block_labels)."""

    train_set: TrainSet

    def predict_labels(self, queries) -> np.ndarray:
        """(n,) labels, found block by block (_row_blocks)."""
        q = np.asarray(queries, dtype=float)
        return np.concatenate([self._block_labels(b) for b in _row_blocks(q)])

    def predict_coords(self, queries) -> np.ndarray:
        """(n, 2) coordinates of the predicted grid labels."""
        return self.train_set.grid_coords[self.predict_labels(queries)]


_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# rows per block of ELM fit and ELM / RF queries, so memory is fixed; the size
# sets the ELM fit's peak, the evaluate run's high-water mark
_BLOCK_ROWS = 512


def _row_blocks(a: np.ndarray, rows: int | None = None) -> list[np.ndarray]:
    """a split into ceil(n / rows) row blocks of near-equal size (at least
    one; rows defaults to _BLOCK_ROWS), so past one block each has >= rows / 2."""
    return np.array_split(a, max(1, math.ceil(a.shape[0] / (rows or _BLOCK_ROWS))))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): relative error bound of k roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


# KNN search layout: leaves of at most 8 training rows, queries batched by
# the cell of 4 sibling leaves they route to, and each batch's first bound
# taken over the leaves nearest the batch that hold at least 4 k training rows.
_LEAF_ROWS = 8
_CELL_LEAVES = 4
_BOUND_ROWS_PER_K = 4
# rows x columns of one KNN distance block: its d2, _sq_dists' diff buffer and
# the vote's partition copy (3 x 512 KB) fit in a 2 MB per-core L2 cache
_BATCH_ENTRIES = 1 << 16


class KdTree(NamedTuple):
    """Static median-split k-d tree over training rows, as flat arrays.

    Internal nodes are numbered in heap order from 1 (node i has children
    2i and 2i + 1), all leaves sit at the same depth, and leaf j is node
    2**depth + j. A query goes right at node i when its value of
    `split_dim[i]` is >= `split_at[i]`. The boxes are the per-feature ranges
    of each leaf's rows, stored feature-major.
    """

    split_dim: np.ndarray  # (2**depth,) int; entry 0 unused
    split_at: np.ndarray   # (2**depth,) float
    lo: np.ndarray         # (M, leaves) per-feature minimum of each leaf's rows
    hi: np.ndarray         # (M, leaves) per-feature maximum
    row_leaf: np.ndarray   # (n,) leaf of each training row

    @property
    def depth(self) -> int:
        return self.split_dim.size.bit_length() - 1


def _kd_tree(x: np.ndarray) -> KdTree:
    """Split every node at the median of its widest feature until no leaf
    holds more than _LEAF_ROWS rows."""
    n = x.shape[0]
    depth = ((n - 1) // _LEAF_ROWS).bit_length()
    split_dim = np.zeros(1 << depth, dtype=np.intp)
    split_at = np.zeros(1 << depth)
    order = np.arange(n)  # rows grouped by node, nodes in order
    starts = np.zeros(1, dtype=np.intp)
    for level in range(depth):
        sizes = np.diff(starts, append=n)
        node_of = np.repeat(np.arange(starts.size), sizes)
        xs = x[order]
        dim = np.argmax(np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts), axis=1)
        order = order[np.lexsort((xs[np.arange(n), dim[node_of]], node_of))]
        mids = starts + sizes // 2
        nodes = (1 << level) + np.arange(starts.size)
        split_dim[nodes] = dim
        split_at[nodes] = x[order[mids], dim]
        starts = np.column_stack([starts, mids]).ravel()
    xs = x[order]
    row_leaf = np.empty(n, dtype=np.intp)
    row_leaf[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
    return KdTree(split_dim, split_at, np.minimum.reduceat(xs, starts).T.copy(),
                  np.maximum.reduceat(xs, starts).T.copy(), row_leaf)


def _route(tree: KdTree, q: np.ndarray) -> np.ndarray:
    """(n,) leaf each query row reaches by the split tests."""
    rows = np.arange(q.shape[0])
    node = np.ones(q.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        node = 2 * node + (q[rows, tree.split_dim[node]] >= tree.split_at[node])
    return node - tree.split_dim.size


def _sq_dists(xt: np.ndarray, qg: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(rows, cols) squared distances from the query rows qg to the training
    rows cols, sum_j (x_j - q_j)^2 added in feature order j = 0, 1, ...: an
    entry's bits depend on its query and training row only. xt is the (M, n)
    feature-major training matrix."""
    xc = xt[:, cols]
    d2 = np.empty((qg.shape[0], cols.size))
    diff = np.empty_like(d2)
    for j in range(xt.shape[0]):
        term = diff if j else d2
        term[...] = xc[j]  # copy, then subtract in place: faster than one broadcast subtract
        term -= qg[:, j : j + 1]
        term *= term
        if j:
            d2 += diff
    return d2


class KnnClassifier(_GridClassifier):
    """k-nearest-neighbour voting on Euclidean distance.

    Neighbour order breaks distance ties by lower training-row index; equal
    vote counts go to the label with the smaller mean neighbour distance,
    then, within a rounding band (see Votes), to the lower label.

    k = 1 over the G per-grid mean fingerprints, labelled 0..G-1, is RSS
    matching and GD-LS's grid choice (run_experiment): by construction the
    first argmin of the direct differences sum((mean - q)^2).

    Squared distances are direct differences (_sq_dists), computed only for
    rows that can be among the k nearest; the labels are those of computing
    every training row (tests/knn_reference.py). A k-d tree (KdTree) splits
    the training rows into leaves with bounding boxes. Queries are routed to
    leaves and batched by cell; per batch:

    1. The squared gaps from the batch's bounding box to the leaf boxes rank
       the leaves. Each leaf holds >= n >> depth rows, so the fewest nearest
       leaves sure to hold min(4 k, n) rows give U_i, query i's k-th smallest
       squared distance to their rows: a bound on its k-th over all rows.
    2. The candidates are the rows of every leaf whose gap is <= max_i U_i.
    3. The batch's squared distances to the candidates, in ascending
       training-row order, decide the votes.

    Exactness. _sq_dists gives a (query, row) pair the same bits in every
    block, so U_i bounds the k-th d2 of the full computation itself. The box
    gap is summed as d2 is: per feature, g_j = max(lo_j - max q_j, min q_j -
    hi_j, 0) is at most |x_j - q_j| for every query of the batch and row of
    the leaf; rounding is monotone, so fl(g_j) <= |fl(x_j - q_j)|, and the
    squares and each addition, taken in the same order, keep that order. A
    leaf whose computed gap exceeds max_i U_i therefore holds only rows whose
    computed d2 exceeds U_i: none is among query i's k nearest or ties with
    them, so every row the full computation ranks within the k nearest is a
    candidate and the tie rules see the same candidate order. No rounding
    margin enters, and underflow cannot break the argument. A sum of M
    non-negative terms has no cancellation: each d2 is within gamma_{M+2}
    of the exact squared distance, relatively (Higham 2002, sec. 3.1: the
    difference's rounding enters squared, the product's once, then M - 1
    additions; barring underflow). No BLAS product is involved, so the
    labels do not depend on the BLAS kernel or thread count.

    Votes. At k = 1 a row takes the label of its first minimum d2: the lowest
    training row among equals. Otherwise its k nearest rows are those with d2
    <= its k-th d2; only in a row that has more of them (a tie at the k-th
    distance) does a cumsum mask keep the lowest training rows at that
    distance. One flatnonzero lists them row by row in training-row order,
    and offset bincounts count their votes and sum their distances per label
    in that order. Of the most-voted labels (equal counts) the smallest sum
    is the smallest mean; sums within 4 gamma_k of it count as equal (each is
    within gamma_k of exact), so an exact tie goes to the lower label in any
    summation order.

    Memory. Each batch is taken in row chunks of at most _BATCH_ENTRIES / width
    rows (one at least), width being the bound rows, or the candidate
    columns and, for the votes at k > 1, G: no block grows with the queries
    of a cell, and as no entry depends on its block, no label changes.
    """

    def __init__(self, train: TrainSet, k: int):
        self.train_set = train
        self.k = k
        self._xt = train.features.T.copy()
        self.tree = _kd_tree(train.features)

    def predict_labels(self, queries) -> np.ndarray:
        xt = self._xt
        q = np.asarray(queries, dtype=float)
        if q.shape[0] == 0:
            return np.empty(0, dtype=int)
        tree, k, n = self.tree, self.k, xt.shape[1]
        leaf = _route(tree, q)
        order = np.argsort(leaf, kind="stable")
        cell = leaf[order] // _CELL_LEAVES
        # the fewest leaves sure to hold min(4 k, n) rows: each holds n >> depth or more
        bound_leaves = min(-(-min(_BOUND_ROWS_PER_K * k, n) // (n >> tree.depth)), 1 << tree.depth)
        out = np.empty(q.shape[0], dtype=int)
        for idx in np.split(order, np.flatnonzero(np.diff(cell)) + 1):
            qg = q[idx]
            gap = np.maximum(tree.lo - qg.max(axis=0)[:, np.newaxis],
                             qg.min(axis=0)[:, np.newaxis] - tree.hi)
            np.maximum(gap, 0.0, out=gap)
            gap2 = sum(g * g for g in gap)  # summed in _sq_dists' order
            mark = np.zeros(gap2.size, dtype=bool)
            mark[np.argpartition(gap2, bound_leaves - 1)[:bound_leaves]] = True
            rows = np.flatnonzero(mark[tree.row_leaf])
            reach = -math.inf
            for part in _row_blocks(idx, max(1, _BATCH_ENTRIES // rows.size)):
                d2 = _sq_dists(xt, q[part], rows)
                d2.partition(k - 1, axis=1)
                reach = max(reach, d2[:, k - 1].max())
            cols = np.flatnonzero((gap2 <= reach)[tree.row_leaf])
            # a chunk's (rows, cols) distances and, for k > 1, its (rows, G) votes
            width = max(cols.size, self.train_set.num_grid_points if k > 1 else 0)
            for part in _row_blocks(idx, max(1, _BATCH_ENTRIES // width)):
                out[part] = self._vote(_sq_dists(xt, q[part], cols), cols)
        return out

    def _vote(self, d2: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Labels of a batch from its (rows, cols) squared distances."""
        labels = self.train_set.labels[cols]
        if self.k == 1:  # the first minimum: the lowest training row among equals
            return labels[np.argmin(d2, axis=1)]
        g, k, (r, c) = self.train_set.num_grid_points, self.k, d2.shape
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1, np.newaxis]
        near = d2 <= kth
        tie = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
        if tie.size:  # a tie at the k-th distance: the lowest training rows first
            dt, kt = d2[tie], kth[tie]
            below, at = dt < kt, dt == kt
            near[tie] = below | at & (np.cumsum(at, axis=1) <= k - below.sum(axis=1, keepdims=True))
        flat = np.flatnonzero(near)  # row-major: training-row order within a row
        row = flat // c
        lab = labels[flat - row * c] + g * row
        votes = np.bincount(lab, minlength=r * g).reshape(r, g)
        sums = np.bincount(lab, np.sqrt(d2.ravel()[flat]), r * g).reshape(r, g)
        top = votes == votes.max(axis=1, keepdims=True)
        sums[~top] = math.inf
        band = sums.min(axis=1, keepdims=True) * (1.0 + 4.0 * _gamma(k))
        return np.argmax(top & (sums <= band), axis=1)  # the lowest top label in the band


def _distinct_rows(x: np.ndarray) -> int:
    """Number of distinct rows of a non-empty matrix."""
    ordered = x[np.lexsort(x.T)]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


# Corrected semi-normal equation passes after ELM's Cholesky solve, and the
# largest last correction, relative to the weights, that counts as converged.
_REFINE_STEPS = 2
_REFINE_TOL = 1e-2


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-clip(x, -500, 500))), overwriting x: the (n, hidden)
    activations are the largest arrays ELM makes, so no temporaries."""
    np.clip(x, -500.0, 500.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


# Rows of the Cholesky factor per step of _cholesky_solve's substitution.
_SUBST_ROWS = 64


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b for the lower Cholesky factor L = chol, by blocked
    forward and back substitution (Golub & Van Loan, Matrix Computations,
    sections 3.1 and 4.2): each _SUBST_ROWS block of x takes off its product
    with the solved blocks, one panel of L, then solves its small diagonal
    block (np.linalg.solve, an LU of that block alone). L is only read, so
    no (n, n) array is copied or factored again."""
    x = b.copy()
    starts = range(0, chol.shape[0], _SUBST_ROWS)
    for s in starts:  # L y = b
        e = s + _SUBST_ROWS
        x[s:e] -= chol[s:e, :s] @ x[:s]
        x[s:e] = np.linalg.solve(chol[s:e, s:e], x[s:e])
    for s in reversed(starts):  # L^T x = y
        e = s + _SUBST_ROWS
        x[s:e] -= chol[e:, s:e].T @ x[e:]
        x[s:e] = np.linalg.solve(chol[s:e, s:e].T, x[s:e])
    return x


class ElmClassifier(_GridClassifier):
    """Single-hidden-layer network trained in closed form.

    Input weights and biases are drawn uniformly from [-1, 1]; the output
    weights B solve H B = T in the least-squares sense, where H =
    sigmoid(X W + b) is the hidden-layer output of the training rows and T
    their one-hot targets. Features are z-scored with training statistics
    before the hidden layer.

    B comes from the normal equations H^T H B = H^T T, summed over row
    blocks (_row_blocks) so that neither H nor T exists whole, and solved
    through one Cholesky factorisation of H^T H by blocked triangular
    substitution (_cholesky_solve), with no LU of a (hidden, hidden)
    matrix. As cond(H^T H) = cond(H)^2 is near 1 / eps on the benchmark,
    _REFINE_STEPS passes of the corrected semi-normal equations (Bjorck
    1996, section 2.9) follow: each adds the solution of H^T H D =
    H^T (T - H B) through the same factor, with H recomputed block by
    block. On the benchmark this gives lstsq's labels. B is instead
    lstsq's minimum-norm solution on the whole H, as before, when there
    are fewer distinct training rows than hidden units (H is rank
    deficient, as in a noise-free survey), when Cholesky fails, or when the
    last correction exceeds _REFINE_TOL of |B|.
    An H with enough distinct rows but a numerically deficient rank can
    still pass these checks with a least-squares solution other than the
    minimum-norm one.

    Past one block of training rows or queries each has >= _BLOCK_ROWS / 2 =
    256 rows: 256 x 600 x 225 is far above OpenBLAS's gemv and small-product
    paths; a block's last rows still sum the G mod 8 tail columns unlike one product.
    At benchmark size labels, not only B, can follow the BLAS thread count: 3
    of seed 1729's 36 000 localize queries had a top-two score margin below
    ~1e-5 relative, and one of them flipped at 2 OpenBLAS threads.
    """

    def __init__(self, train: TrainSet, hidden: int, seed):
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
        self.output_weights = self._fit_output_weights(x, train.labels, train.num_grid_points)

    def _hidden_out(self, x: np.ndarray) -> np.ndarray:
        h = (x - self._mu) / self._sigma @ self._w
        h += self._b
        return _sigmoid_inplace(h)

    def _fit_output_weights(self, x: np.ndarray, labels: np.ndarray, g: int) -> np.ndarray:
        """(hidden, G) output weights (see the class docstring)."""
        if _distinct_rows(x) >= self.hidden:
            weights = self._refined_cholesky_weights(
                list(zip(_row_blocks(x), _row_blocks(labels))), g)
            if weights is not None:
                return weights
        return np.linalg.lstsq(self._hidden_out(x), np.eye(g)[labels], rcond=None)[0]

    def _refined_cholesky_weights(self, blocks: list, g: int) -> np.ndarray | None:
        """Output weights from the normal equations summed over (features,
        labels) row blocks, refined; None where the Cholesky factorisation
        fails or the last correction is not small. The Gram matrix is freed
        once factored: of the (hidden, hidden) matrices the refinement keeps
        only the Cholesky factor, and every solve is a blocked triangular
        substitution through it (_cholesky_solve), so LAPACK copies and
        factors no (hidden, hidden) array but the Gram matrix's one Cholesky."""
        gram = np.zeros((self.hidden, self.hidden))
        rhs = np.zeros((self.hidden, g))
        for xb, yb in blocks:
            h = self._hidden_out(xb)
            gram += h.T @ h
            rhs += h.T @ np.eye(g)[yb]
            del h  # one block's H at a time: free it before the next is built
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        del gram
        weights = _cholesky_solve(chol, rhs)
        for _ in range(_REFINE_STEPS):
            rhs.fill(0.0)
            for xb, yb in blocks:
                h = self._hidden_out(xb)
                residual = h @ weights
                np.negative(residual, out=residual)
                residual[np.arange(yb.size), yb] += 1.0  # T - H B, as if T were built
                rhs += h.T @ residual
                del h, residual
            step = _cholesky_solve(chol, rhs)
            weights += step
        return weights if np.linalg.norm(step) <= _REFINE_TOL * np.linalg.norm(weights) else None

    def _block_labels(self, q: np.ndarray) -> np.ndarray:
        scores = self._hidden_out(q) @ self.output_weights
        return np.argmax(scores, axis=1)  # argmax: lower label wins ties


# Margin on the screening tolerance, on top of a bound that is already worst case.
_SCREEN_SAFETY = 4.0


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
                  xlog2x: np.ndarray, step: np.ndarray) -> tuple[float, float]:
    """(information gain, threshold) of the best cut of one node's feature.

    Candidate thresholds are midpoints between consecutive distinct values
    (the lower value where the midpoint does not fall below the upper one);
    gain is the entropy reduction (bits) of the induced two-way split, and
    the smallest threshold wins gain ties. Returns (-inf, nan) when the
    feature is constant over the node.

    vs holds the node's values in ascending order, ys their dense class ids
    (see _class_ids) in the same order, totals the class counts, xlog2x the
    table c * log2(c) for c = 0 .. at least vs.size, and step its
    differences xlog2x[c + 1] - xlog2x[c] (np.diff, built once per forest).

    Every cut is screened in O(n): sample i, the k-th of its class in sorted
    order, moves that class's left count from k to k + 1 and its right count
    from r - k to r - k - 1, so one cumsum of the two table steps gives the
    left plus right sum of c log2 c at every cut. Cuts whose screened score
    lies within a rounding-error bound of the best are then re-scored with
    the one-hot formula on their exact class counts, so gain and threshold
    are the ones the full one-hot scan over all cuts returns, bit for bit.
    """
    n = vs.size
    cuts = np.flatnonzero(vs[1:] > vs[:-1])
    if cuts.size == 0:
        return -math.inf, math.nan

    by_class = np.argsort(ys, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by_class] = np.arange(n) - (np.cumsum(totals) - totals)[ys[by_class]]
    sizes = cuts + 1
    # gain * n up to a constant: sum over both sides of c log2 c minus n_side log2 n_side
    screen = (np.cumsum(step[rank] - step[totals[ys] - rank - 1])[cuts]
              - xlog2x[sizes] - xlog2x[n - sizes])
    # Rounding-error bound on screen and exact formula alike, in units of
    # gain * n (Higham 2002, eqs. 3.4 and 4.4): gamma_n sum |d| for the one
    # cumsum, where every step d is >= 0 and each class's steps telescope to
    # xlog2x[t_c] per side, so sum |d| <= 2 sum_c xlog2x[t_c] (1 + gamma_{C+1}
    # for the steps' and the sum's own roundings); and, as n log2 n bounds
    # every sum of c log2 c over a partition of the node, gamma_C for the
    # exact formula's sums over C classes plus gamma_64 for the table entries,
    # the screen's additions and the exact formula's log2 / divide / multiply
    # chain. A cut can beat the screened best only if its screen trails by
    # less than twice that.
    c = totals.size
    bound = (_gamma(n) * 2.0 * (1.0 + _gamma(c + 1)) * xlog2x[totals].sum()
             + (_gamma(c) + _gamma(64)) * xlog2x[n])
    keep = cuts[screen >= screen.max() - _SCREEN_SAFETY * 2.0 * bound]

    # exact left class counts at the kept cuts, built between consecutive cuts
    k = keep.size
    segment = np.repeat(np.arange(k), np.diff(keep, prepend=-1))
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


class RandomForest(_GridClassifier):
    """Bootstrap forest of depth-limited trees with stump-style node tests.

    Each node test is one feature against one threshold; candidate features
    are a random subset of ceil(sqrt(M)) per node; the split maximizing
    information gain wins. Queries route left when value <= threshold.

    A tree has at most 2**depth leaves, so it predicts at most 2**depth
    distinct grid labels: depth 5 allows 32 of the benchmark's G = 225, a
    cap on RF's exact-hit rate that no amount of training data lifts.

    The forest sorts each feature once; a tree's orders repeat each training
    row as often as its bootstrap drew it and split stably, so no node sorts
    again (the order among equal values reaches only the screen's float sums,
    whose bound holds in any order). Query row blocks (predict_labels) bound
    the vote arrays and cannot change a label.

    Layout. All trees share four node arrays, `feature`, `threshold`,
    `child` and `label`; `roots` holds each tree's first node. Trees are
    grown one after another, each depth first and left before right, and a
    split appends its two children as adjacent slots: a query at node i goes
    to child[i] when its value of feature[i] is <= threshold[i], else to
    child[i] + 1. An internal node has label -1. A leaf has feature -1,
    threshold +inf and itself as its child, so every finite query stays
    there, and `depth` routing steps bring all queries of all trees to
    their leaves at once.
    """

    def __init__(self, train: TrainSet, trees: int, depth: int, seed):
        self.train_set = train
        self.trees = trees
        self.depth = depth
        rng = np.random.default_rng(seed)
        x = train.features
        y = train.labels
        n, m = x.shape
        self._n_candidates = max(1, math.ceil(math.sqrt(m)))
        xlog2x = _xlog2x(np.arange(n + 1.0))
        step = np.diff(xlog2x)
        cols = x.T.copy()
        presorted = np.argsort(cols, axis=1, kind="stable")
        slots = []  # one (feature, threshold, child, label) per node
        roots = []
        for _ in range(trees):
            copies = np.bincount(rng.integers(0, n, n), minlength=n)
            order = np.repeat(presorted, copies[presorted].ravel()).reshape(m, n)
            roots.append(self._grow_tree(cols, y, order, rng, xlog2x, step, slots))
        self.feature, self.threshold, self.child, self.label = map(np.array, zip(*slots))
        self.roots = np.array(roots)

    def _grow_tree(self, cols: np.ndarray, y: np.ndarray, order: np.ndarray,
                   rng: np.random.Generator, xlog2x: np.ndarray, step: np.ndarray,
                   slots: list) -> int:
        """Grow one tree into slots from the training columns, labels and the
        tree's (M, n) per-feature orders of bootstrap rows, with _split_sorted's
        tables; returns its root.
        Depth first and left before right: the order nodes draw candidates in."""
        m = cols.shape[0]
        root = len(slots)
        slots.append(None)
        # (row orders (M, rows) sorted per feature, depth left, slot)
        stack = [(order, self.depth, root)]
        while stack:
            order, depth_left, node = stack.pop()
            counts = np.bincount(y[order[0]])
            best_gain, best_feat, best_thr = 0.0, -1, math.nan
            if depth_left > 0 and order.shape[1] >= 2 and np.count_nonzero(counts) > 1:
                lookup, totals = _class_ids(counts)
                for f in rng.choice(m, self._n_candidates, replace=False):
                    rows = order[f]  # drawn order breaks equal-gain ties
                    gain, thr = _split_sorted(cols[f][rows], lookup[y[rows]], totals, xlog2x, step)
                    if gain > best_gain:
                        best_gain, best_feat, best_thr = gain, int(f), thr
            if best_feat < 0:
                slots[node] = (-1, math.inf, node, int(np.argmax(counts)))
                continue
            pair = len(slots)
            slots[node] = (best_feat, best_thr, pair, -1)
            slots += [None, None]
            go_left = (cols[best_feat] <= best_thr)[order]
            stack.append((order[~go_left].reshape(m, -1), depth_left - 1, pair + 1))
            stack.append((order[go_left].reshape(m, -1), depth_left - 1, pair))
        return root

    def _tree_labels(self, q: np.ndarray) -> np.ndarray:
        """(trees, n) per-tree labels of a finite (n, M) query matrix: one
        (trees, n) node matrix takes `depth` routing steps."""
        rows = np.arange(q.shape[0])
        node = self.roots[:, np.newaxis]  # broadcast to (trees, n) by the first step
        for _ in range(self.depth):  # a leaf's feature -1 reads a finite value, never > +inf
            node = self.child[node] + (q[rows, self.feature[node]] > self.threshold[node])
        return self.label[node]

    def _block_labels(self, q: np.ndarray) -> np.ndarray:
        per_tree = self._tree_labels(q)
        g = self.train_set.num_grid_points
        n = per_tree.shape[1]
        votes = np.bincount((per_tree + g * np.arange(n)).ravel(), minlength=n * g)
        return np.argmax(votes.reshape(n, g), axis=1)  # lower label wins vote ties
