import numpy as np
import pytest

from vlcloc.fusion import (FusionWeights, GdWeightBank, LsFit, PredictionMatrix,
                           build_prediction_matrix, default_rank_tol,
                           gd_ls_fit, gd_ls_predict_all, gi_ls_fit,
                           gi_ls_predict_all, nearest_mean_labels,
                           ls_svd_weights)


class RankDeficientError(ValueError):
    """Raised by ls_weights when X'X is not safely invertible."""


def ls_weights(pred, truth, rank_tol=None) -> np.ndarray:
    """Plain least-squares weights (X'X)^-1 X' truth: the oracle for
    ls_svd_weights on full-rank problems.

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


def normal_equations_oracle(x, t):
    return np.linalg.solve(x.T @ x, x.T @ t)


def grid_major(per_grid):
    """One PredictionMatrix plus grid labels from per-grid blocks of rows."""
    return (PredictionMatrix(np.concatenate([p.x_hat for p in per_grid]),
                             np.concatenate([p.y_hat for p in per_grid]),
                             per_grid[0].classifier_order),
            np.repeat(np.arange(len(per_grid)), [p.x_hat.shape[0] for p in per_grid]))


class TestLsWeights:
    def test_single_perfect_column(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        w = ls_weights(t[:, None], t)
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_columns_collapse_normal_equations(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 3)))
        t = np.random.default_rng(1).normal(size=8)
        np.testing.assert_allclose(ls_weights(q, t), q.T @ t, rtol=1e-10, atol=1e-12)

    def test_random_full_rank_matches_explicit_inversion(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 3))
        t = rng.normal(size=10)
        np.testing.assert_allclose(ls_weights(x, t), normal_equations_oracle(x, t),
                                   rtol=1e-9)

    def test_rank_deficient_raises(self):
        x = np.ones((6, 2))  # duplicated columns
        with pytest.raises(RankDeficientError, match="ls_svd_weights"):
            ls_weights(x, np.arange(6.0))

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficientError):
            ls_weights(np.ones((2, 3)), np.ones(2))


class TestLsSvdWeights:
    def test_matches_plain_ls_on_full_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            l = int(rng.integers(4, 30))
            h = int(rng.integers(1, 4))
            x = rng.normal(size=(l, h))
            t = rng.normal(size=l)
            fit = ls_svd_weights(x, t)
            np.testing.assert_allclose(fit.weights, normal_equations_oracle(x, t),
                                       rtol=1e-8, atol=1e-10)
            assert fit.rank_used == h

    def test_identical_columns_give_uniform_weights(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=12)
        for h in (2, 3, 5):
            x = np.tile(t[:, None], (1, h))
            fit = ls_svd_weights(x, t)
            np.testing.assert_allclose(fit.weights, np.full(h, 1.0 / h), atol=1e-10)
            assert fit.rank_used == 1

    def test_scalar_half_weight(self):
        t = np.array([0.1, 0.4, -0.3])
        fit = ls_svd_weights(2.0 * t[:, None], t)
        assert fit.weights[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_matrix_degenerates_cleanly(self):
        fit = ls_svd_weights(np.zeros((4, 3)), np.ones(4))
        np.testing.assert_array_equal(fit.weights, np.zeros(3))
        assert fit.rank_used == 0

    def test_minimum_norm_under_null_space_perturbation(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(10, 2))
        x = np.column_stack([base[:, 0], base[:, 1], base[:, 1]])  # rank 2
        t = rng.normal(size=10)
        fit = ls_svd_weights(x, t)
        null = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)  # X @ null = 0
        np.testing.assert_allclose(x @ null, 0.0, atol=1e-12)
        res = np.linalg.norm(t - x @ fit.weights)
        for eps in (1e-3, -1e-2, 0.1):
            w2 = fit.weights + eps * null
            assert np.linalg.norm(t - x @ w2) == pytest.approx(res, rel=1e-9)
            assert np.linalg.norm(w2) > np.linalg.norm(fit.weights)

    def test_right_singular_vector_expansion_identity(self):
        # the computed solution equals sum_k (v_k' theta / sigma_k^2) v_k
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 3))
        t = rng.normal(size=9)
        fit = ls_svd_weights(x, t)
        _, sv, vt = np.linalg.svd(x, full_matrices=False)
        theta = x.T @ t
        alt = sum((vt[k] @ theta / sv[k] ** 2) * vt[k] for k in range(3))
        np.testing.assert_allclose(fit.weights, alt, rtol=1e-9)

    def test_residual_optimality_against_random_probes(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 3))
        t = rng.normal(size=15)
        fit = ls_svd_weights(x, t)
        best = np.linalg.norm(t - x @ fit.weights)
        for _ in range(100):
            probe = fit.weights + rng.normal(size=3) * 0.1
            assert np.linalg.norm(t - x @ probe) >= best - 1e-12

    def test_rank_tolerance_controls_truncation(self):
        x = np.diag([1.0, 1e-14]) @ np.ones((2, 2))
        x = np.array([[1.0, 1.0], [1e-14, -1e-14]])
        fit_loose = ls_svd_weights(x, np.array([1.0, 0.0]), rank_tol=1e-6)
        assert fit_loose.rank_used == 1


class TestPermutationEquivariance:
    def test_weights_and_estimates_follow_column_permutation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 3))
        t = rng.normal(size=12)
        perm = np.array([2, 0, 1])
        w = ls_svd_weights(x, t).weights
        w_perm = ls_svd_weights(x[:, perm], t).weights
        np.testing.assert_allclose(w_perm, w[perm], rtol=1e-9)
        np.testing.assert_allclose(x[:, perm] @ w_perm, x @ w, rtol=1e-9)


class FakeClassifier:
    def __init__(self, name, coords_fn):
        self.name = name
        self.coords_fn = coords_fn

    def predict_coords(self, queries):
        return np.array([self.coords_fn(q) for q in np.atleast_2d(queries)])


class TestPredictionMatrix:
    def test_single_classifier_single_column(self):
        clf = FakeClassifier("a", lambda q: (q[0], q[0] + 1.0))
        queries = np.arange(4.0)[:, None]
        pred = build_prediction_matrix([clf], queries)
        np.testing.assert_array_equal(pred.x_hat[:, 0], queries[:, 0])
        np.testing.assert_array_equal(pred.y_hat[:, 0], queries[:, 0] + 1.0)
        assert pred.classifier_order == ("a",)

    def test_columns_match_per_classifier_calls(self):
        fns = [lambda q: (q[0], -q[0]),
               lambda q: (2.0 * q[0], q[0] ** 2),
               lambda q: (1.0, 0.5)]
        clfs = [FakeClassifier(f"c{i}", fn) for i, fn in enumerate(fns)]
        queries = np.array([[0.1], [0.2], [0.3], [0.4]])
        pred = build_prediction_matrix(clfs, queries)
        for eta, fn in enumerate(fns):
            want = np.array([fn(q) for q in queries])
            np.testing.assert_array_equal(pred.x_hat[:, eta], want[:, 0])
            np.testing.assert_array_equal(pred.y_hat[:, eta], want[:, 1])

    def test_empty_classifier_list_rejected(self):
        with pytest.raises(ValueError):
            build_prediction_matrix([], np.ones((2, 1)))


class TestGiLs:
    def test_perfect_agreeing_classifiers_get_uniform_weights(self):
        rng = np.random.default_rng(9)
        truth = rng.normal(size=(10, 2))
        pred = PredictionMatrix(np.tile(truth[:, :1], (1, 3)),
                                np.tile(truth[:, 1:], (1, 3)), ("a", "b", "c"))
        fw = gi_ls_fit(pred, truth)
        np.testing.assert_allclose(fw.wx.weights, np.full(3, 1 / 3), atol=1e-10)
        np.testing.assert_allclose(fw.wy.weights, np.full(3, 1 / 3), atol=1e-10)

    def test_perfect_plus_constant_zero_classifier(self):
        rng = np.random.default_rng(10)
        truth = rng.normal(size=(8, 2))
        pred = PredictionMatrix(
            np.column_stack([truth[:, 0], np.zeros(8)]),
            np.column_stack([truth[:, 1], np.zeros(8)]), ("good", "zero"))
        fw = gi_ls_fit(pred, truth)
        np.testing.assert_allclose(fw.wx.weights, [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(fw.wy.weights, [1.0, 0.0], atol=1e-10)

    def test_single_classifier_matches_direct_solver(self):
        rng = np.random.default_rng(11)
        truth = rng.normal(size=(6, 2))
        xh = truth[:, :1] * 1.5
        yh = truth[:, 1:] * 0.5
        fw = gi_ls_fit(PredictionMatrix(xh, yh, ("solo",)), truth)
        np.testing.assert_allclose(
            fw.wx.weights, ls_svd_weights(xh, truth[:, 0]).weights, rtol=1e-12)
        np.testing.assert_allclose(
            fw.wy.weights, ls_svd_weights(yh, truth[:, 1]).weights, rtol=1e-12)

    def test_predict_is_dot_product(self):
        fw = FusionWeights(wx=LsFit(np.array([1 / 3, 1 / 3, 1 / 3]), 3),
                           wy=LsFit(np.array([1.0, 0.0, 0.0]), 3))
        online = PredictionMatrix(np.array([[0.10, 0.20, 0.30]]),
                                  np.array([[0.35, 9.0, -9.0]]), ("a", "b", "c"))
        np.testing.assert_allclose(gi_ls_predict_all(fw, online), [[0.20, 0.35]],
                                   atol=1e-15)

    def test_three_classifier_row_matches_hand_dot_product(self):
        rng = np.random.default_rng(12)
        wx = rng.normal(size=3)
        wy = rng.normal(size=3)
        rows_x = rng.normal(size=(4, 3))
        rows_y = rng.normal(size=(4, 3))
        fw = FusionWeights(wx=LsFit(wx, 3), wy=LsFit(wy, 3))
        est = gi_ls_predict_all(fw, PredictionMatrix(rows_x, rows_y, ("a", "b", "c")))
        for r in range(4):
            assert est[r, 0] == pytest.approx(sum(a * b for a, b in zip(rows_x[r], wx)), rel=1e-12)
            assert est[r, 1] == pytest.approx(sum(a * b for a, b in zip(rows_y[r], wy)), rel=1e-12)


class TestGdLs:
    def test_agreeing_classifiers_uniform_per_grid(self):
        coords = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        per_grid = []
        for g in range(3):
            xh = np.full((4, 2), coords[g, 0])
            yh = np.full((4, 2), coords[g, 1])
            per_grid.append(PredictionMatrix(xh, yh, ("a", "b")))
        bank = gd_ls_fit(*grid_major(per_grid), coords, np.zeros((3, 4)))
        np.testing.assert_allclose(bank.wx[:, 1], [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(bank.wy[:, 2], [0.5, 0.5], atol=1e-10)

    def test_single_grid_matches_gi_fit(self):
        rng = np.random.default_rng(13)
        xh = rng.normal(size=(5, 2))
        yh = rng.normal(size=(5, 2))
        coords = np.array([[0.3, 0.7]])
        pred = PredictionMatrix(xh, yh, ("a", "b"))
        bank = gd_ls_fit(pred, np.zeros(5, dtype=int), coords, np.zeros((1, 4)))
        fw = gi_ls_fit(pred, np.tile(coords, (5, 1)))
        np.testing.assert_allclose(bank.wx[:, 0], fw.wx.weights, rtol=1e-12)
        np.testing.assert_allclose(bank.wy[:, 0], fw.wy.weights, rtol=1e-12)

    def test_columns_match_direct_solver_calls(self):
        rng = np.random.default_rng(14)
        coords = rng.normal(size=(4, 2))
        per_grid = [PredictionMatrix(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)),
                                     ("a", "b", "c")) for _ in range(4)]
        bank = gd_ls_fit(*grid_major(per_grid), coords, np.zeros((4, 5)))
        for g in range(4):
            wx = ls_svd_weights(per_grid[g].x_hat, np.full(6, coords[g, 0])).weights
            np.testing.assert_array_equal(bank.wx[:, g], wx)

    def test_interleaved_rows_grouped_by_label_in_order(self):
        rng = np.random.default_rng(17)
        coords = rng.normal(size=(3, 2))
        labels = rng.permutation(np.repeat(np.arange(3), 5))
        pred = PredictionMatrix(rng.normal(size=(15, 2)), rng.normal(size=(15, 2)), ("a", "b"))
        bank = gd_ls_fit(pred, labels, coords, np.zeros((3, 1)))
        for g in range(3):
            rows = [r for r in range(15) if labels[r] == g]  # ascending row order
            wx = ls_svd_weights(pred.x_hat[rows], np.full(5, coords[g, 0])).weights
            wy = ls_svd_weights(pred.y_hat[rows], np.full(5, coords[g, 1])).weights
            np.testing.assert_array_equal(bank.wx[:, g], wx)
            np.testing.assert_array_equal(bank.wy[:, g], wy)

    def test_select_grid_exact_and_ties(self):
        fps = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        queries = np.array([[1.0, 1.0], [0.5, 0.5]])  # exact hit; tie 0 vs 1
        np.testing.assert_array_equal(nearest_mean_labels(queries, fps), [1, 0])

    def test_select_grid_matches_scan_oracle(self):
        rng = np.random.default_rng(15)
        fps = rng.normal(size=(10, 4))
        queries = rng.normal(size=(20, 4))
        want = [min(range(10), key=lambda g: (np.linalg.norm(q - fps[g]), g)) for q in queries]
        np.testing.assert_array_equal(nearest_mean_labels(queries, fps), want)

    def test_predict_uses_selected_column(self):
        fps = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]])
        bank_wx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bank = GdWeightBank(wx=bank_wx, wy=bank_wx, mean_fps=fps)
        online = PredictionMatrix(np.array([[0.11, 0.22, 0.33], [0.11, 0.22, 0.33]]),
                                  np.array([[0.44, 0.55, 0.66], [0.44, 0.55, 0.66]]),
                                  ("a", "b", "c"))
        queries = np.array([[10.1, 9.9], [19.0, 21.0]])  # select grids 1 and 2
        np.testing.assert_allclose(gd_ls_predict_all(bank, queries, online),
                                   [[0.22, 0.55], [0.33, 0.66]], atol=1e-15)

    def test_identical_columns_reduce_to_gi(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=3)
        bank = GdWeightBank(wx=np.tile(w[:, None], (1, 4)),
                            wy=np.tile(w[:, None], (1, 4)),
                            mean_fps=rng.normal(size=(4, 2)))
        fw = FusionWeights(wx=LsFit(w, 3), wy=LsFit(w, 3))
        online = PredictionMatrix(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)),
                                  ("a", "b", "c"))
        gd_est = gd_ls_predict_all(bank, rng.normal(size=(5, 2)), online)
        np.testing.assert_allclose(gd_est, gi_ls_predict_all(fw, online), rtol=1e-12)

    def test_predict_rows_match_hand_dot_products(self):
        rng = np.random.default_rng(18)
        bank = GdWeightBank(wx=rng.normal(size=(3, 4)), wy=rng.normal(size=(3, 4)),
                            mean_fps=rng.normal(size=(4, 2)))
        online = PredictionMatrix(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)),
                                  ("a", "b", "c"))
        queries = rng.normal(size=(6, 2))
        est = gd_ls_predict_all(bank, queries, online)
        for r, g in enumerate(nearest_mean_labels(queries, bank.mean_fps)):
            assert est[r, 0] == pytest.approx(
                sum(a * b for a, b in zip(online.x_hat[r], bank.wx[:, g])), rel=1e-12)
            assert est[r, 1] == pytest.approx(
                sum(a * b for a, b in zip(online.y_hat[r], bank.wy[:, g])), rel=1e-12)


class TestValidation:
    def test_truth_shape_checked(self):
        with pytest.raises(ValueError):
            ls_weights(np.ones((4, 2)), np.ones(3))
        with pytest.raises(ValueError):
            ls_svd_weights(np.ones((4, 2)), np.ones(3))

    def test_prediction_matrix_shapes(self):
        with pytest.raises(ValueError):
            PredictionMatrix(np.ones((3, 2)), np.ones((3, 3)), ("a", "b"))
        with pytest.raises(ValueError):
            PredictionMatrix(np.ones((3, 2)), np.ones((3, 2)), ("a",))
