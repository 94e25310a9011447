"""Reference least-squares solvers for the fusion tests.

`ls_svd_weights` is the one-matrix truncated-SVD solve that
`vlcloc.fusion.ls_svd_weights` must reproduce bit for bit, on a single
matrix and on every matrix of a stack: keep the singular values at or above
rank_tol * sigma_max, then w = V_k (U_k' t / sigma_k). `ls_weights` is plain
least squares through the normal equations, the oracle for full-rank
problems.
"""

import numpy as np

from vlcloc.fusion import default_rank_tol


class RankDeficientError(ValueError):
    """Raised by ls_weights when X'X is not safely invertible."""


def ls_svd_weights(pred, truth, rank_tol=None) -> tuple[np.ndarray, int]:
    """(weights, rank) for one (L, H) matrix; an all-zero matrix gives zero
    weights with rank 0."""
    x = np.atleast_2d(np.asarray(pred, dtype=float))
    t = np.asarray(truth, dtype=float)
    tol = default_rank_tol(x.shape) if rank_tol is None else rank_tol
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros(x.shape[1]), 0
    k = int(np.count_nonzero(sv >= tol * sv[0]))
    coeff = (u[:, :k].T @ t) / sv[:k]
    return vt[:k].T @ coeff, k


def ls_weights(pred, truth, rank_tol=None) -> np.ndarray:
    """Plain least-squares weights (X'X)^-1 X' truth.

    Requires more rows than columns and numerically full column rank;
    otherwise raises RankDeficientError pointing at ls_svd_weights.
    """
    x = np.atleast_2d(np.asarray(pred, dtype=float))
    t = np.asarray(truth, dtype=float)
    l, h = x.shape
    if t.shape != (l,):
        raise ValueError(f"truth must have length {l}")
    if l <= h:
        raise RankDeficientError(
            f"plain LS needs more samples than classifiers (L={l}, H={h}); "
            "use ls_svd_weights"
        )
    tol = default_rank_tol(x.shape) if rank_tol is None else rank_tol
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < tol * sv[0]:
        raise RankDeficientError(
            "prediction matrix is rank deficient; use ls_svd_weights"
        )
    return np.linalg.solve(x.T @ x, x.T @ t)
