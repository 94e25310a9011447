"""Dense KNN oracle: the squared distance to every training row.

This is the implementation KnnClassifier replaced with its k-d-tree search,
kept verbatim as the reference its labels must equal: the norm expansion
|x|^2 + |q|^2 - 2 q.x over the full (rows, n) matrix in row chunks, the k-th
distance by np.partition, and the tie rules row by row.
"""

import numpy as np


def knn_labels(train, k: int, queries) -> np.ndarray:
    """(n,) KNN labels of the query rows for a vlcloc TrainSet."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    x = train.features
    labels = train.labels
    g = train.num_grid_points
    sq_norms = np.einsum("ij,ij->i", x, x)
    out = np.empty(q.shape[0], dtype=int)
    chunk = max(1, int(4e6) // max(1, x.shape[0]))
    for start in range(0, q.shape[0], chunk):
        qc = q[start : start + chunk]
        d2 = np.maximum(
            sq_norms[np.newaxis, :]
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
