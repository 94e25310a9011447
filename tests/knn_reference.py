"""Dense KNN oracle: the squared distance to every training row.

This is the implementation KnnClassifier replaced with its k-d-tree search,
kept as the reference its labels must equal: direct differences
sum_j (q_j - x_j)^2, added in feature order, over the full (rows, n) matrix
in row chunks, the k-th distance by np.partition, and the tie rules row by
row. A vote tie goes to the smallest sum of neighbour distances, summed in
training-row order; sums within 4 gamma_k (Higham 2002) of the smallest
count as equal, and the lower label wins. An entry's bits depend on its
query and training row only, so the labels do not depend on how the
queries are chunked, nor on the BLAS.
"""

import numpy as np

EPS = np.finfo(float).eps


def knn_labels(train, k: int, queries) -> np.ndarray:
    """(n,) KNN labels of the query rows for a vlcloc TrainSet."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    x = train.features
    labels = train.labels
    g = train.num_grid_points
    n = x.shape[0]
    out = np.empty(q.shape[0], dtype=int)
    chunk = max(1, int(4e6) // max(1, n))
    for start in range(0, q.shape[0], chunk):
        qc = q[start : start + chunk]
        d2 = np.zeros((qc.shape[0], n))
        for j in range(x.shape[1]):
            diff = qc[:, j, np.newaxis] - x[:, j]
            d2 += diff * diff
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
            # equal counts: the smallest distance sum, summed in training-row
            # order, is the smallest mean; sums within 4 gamma_k of it tie
            nn = np.sort(nn)
            sums = np.array([sum(np.sqrt(d2[r, nn[labels[nn] == lab]]).tolist())
                             for lab in tied])
            gamma = k * EPS / 2 / (1 - k * EPS / 2)
            out[start + r] = tied[np.argmax(sums <= sums.min() * (1 + 4 * gamma))]
    return out
