import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusion_reference
from fusion_reference import RankDeficientError, ls_weights
from vlcloc.fusion import (FusionWeights, LsFit, build_prediction_matrix,
                           gd_ls_fit, gd_ls_predict_all, gi_ls_fit,
                           gi_ls_predict_all, nearest_mean_labels,
                           ls_svd_weights)


def normal_equations_oracle(x, t):
    return np.linalg.solve(x.T @ x, x.T @ t)


def grid_major(per_grid):
    """One (2, L, H) prediction array plus grid labels from per-grid
    (x_hat, y_hat) blocks of rows."""
    return (np.stack([np.concatenate([xh for xh, _ in per_grid]),
                      np.concatenate([yh for _, yh in per_grid])]),
            np.repeat(np.arange(len(per_grid)), [xh.shape[0] for xh, _ in per_grid]))


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

    def test_zero_tolerance_drops_exact_zero_singular_values(self):
        x = np.column_stack([np.ones(4), np.zeros(4)])  # singular values 2 and exactly 0
        fit = ls_svd_weights(x, np.ones(4), rank_tol=0.0)
        np.testing.assert_array_equal(fit.weights, [1.0, 0.0])
        assert fit.rank_used == 1

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
        assert pred.shape == (2, 4, 1) and pred.flags.c_contiguous
        np.testing.assert_array_equal(pred[0, :, 0], queries[:, 0])
        np.testing.assert_array_equal(pred[1, :, 0], queries[:, 0] + 1.0)

    def test_columns_match_per_classifier_calls(self):
        fns = [lambda q: (q[0], -q[0]),
               lambda q: (2.0 * q[0], q[0] ** 2),
               lambda q: (1.0, 0.5)]
        clfs = [FakeClassifier(f"c{i}", fn) for i, fn in enumerate(fns)]
        queries = np.array([[0.1], [0.2], [0.3], [0.4]])
        pred = build_prediction_matrix(clfs, queries)
        for eta, fn in enumerate(fns):
            want = np.array([fn(q) for q in queries])
            np.testing.assert_array_equal(pred[:, :, eta], want.T)

    def test_empty_classifier_list_rejected(self):
        with pytest.raises(ValueError):
            build_prediction_matrix([], np.ones((2, 1)))


class TestGiLs:
    def test_perfect_agreeing_classifiers_get_uniform_weights(self):
        rng = np.random.default_rng(9)
        truth = rng.normal(size=(10, 2))
        pred = np.stack([np.tile(truth[:, :1], (1, 3)), np.tile(truth[:, 1:], (1, 3))])
        fw = gi_ls_fit(pred, truth)
        np.testing.assert_allclose(fw.wx.weights, np.full(3, 1 / 3), atol=1e-10)
        np.testing.assert_allclose(fw.wy.weights, np.full(3, 1 / 3), atol=1e-10)

    def test_perfect_plus_constant_zero_classifier(self):
        rng = np.random.default_rng(10)
        truth = rng.normal(size=(8, 2))
        pred = np.stack([np.column_stack([truth[:, 0], np.zeros(8)]),
                         np.column_stack([truth[:, 1], np.zeros(8)])])
        fw = gi_ls_fit(pred, truth)
        np.testing.assert_allclose(fw.wx.weights, [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(fw.wy.weights, [1.0, 0.0], atol=1e-10)

    def test_single_classifier_matches_direct_solver(self):
        rng = np.random.default_rng(11)
        truth = rng.normal(size=(6, 2))
        xh = truth[:, :1] * 1.5
        yh = truth[:, 1:] * 0.5
        fw = gi_ls_fit(np.stack([xh, yh]), truth)
        np.testing.assert_allclose(
            fw.wx.weights, ls_svd_weights(xh, truth[:, 0]).weights, rtol=1e-12)
        np.testing.assert_allclose(
            fw.wy.weights, ls_svd_weights(yh, truth[:, 1]).weights, rtol=1e-12)

    def test_predict_is_dot_product(self):
        fw = FusionWeights(wx=LsFit(np.array([1 / 3, 1 / 3, 1 / 3]), 3),
                           wy=LsFit(np.array([1.0, 0.0, 0.0]), 3))
        online = np.array([[[0.10, 0.20, 0.30]], [[0.35, 9.0, -9.0]]])
        np.testing.assert_allclose(gi_ls_predict_all(fw, online), [[0.20, 0.35]],
                                   atol=1e-15)

    def test_three_classifier_row_matches_hand_dot_product(self):
        rng = np.random.default_rng(12)
        wx = rng.normal(size=3)
        wy = rng.normal(size=3)
        rows_x = rng.normal(size=(4, 3))
        rows_y = rng.normal(size=(4, 3))
        fw = FusionWeights(wx=LsFit(wx, 3), wy=LsFit(wy, 3))
        est = gi_ls_predict_all(fw, np.stack([rows_x, rows_y]))
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
            per_grid.append((xh, yh))
        gd = gd_ls_fit(*grid_major(per_grid), coords)
        np.testing.assert_allclose(gd.wx.weights[1], [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(gd.wy.weights[2], [0.5, 0.5], atol=1e-10)

    def test_single_grid_matches_gi_fit(self):
        rng = np.random.default_rng(13)
        xh = rng.normal(size=(5, 2))
        yh = rng.normal(size=(5, 2))
        coords = np.array([[0.3, 0.7]])
        pred = np.stack([xh, yh])
        gd = gd_ls_fit(pred, np.zeros(5, dtype=int), coords)
        fw = gi_ls_fit(pred, np.tile(coords, (5, 1)))
        np.testing.assert_allclose(gd.wx.weights[0], fw.wx.weights, rtol=1e-12)
        np.testing.assert_allclose(gd.wy.weights[0], fw.wy.weights, rtol=1e-12)

    def test_columns_match_direct_solver_calls(self):
        rng = np.random.default_rng(14)
        coords = rng.normal(size=(4, 2))
        per_grid = [(rng.normal(size=(6, 3)), rng.normal(size=(6, 3))) for _ in range(4)]
        gd = gd_ls_fit(*grid_major(per_grid), coords)
        for g in range(4):
            wx, rank = fusion_reference.ls_svd_weights(per_grid[g][0], np.full(6, coords[g, 0]))
            np.testing.assert_array_equal(gd.wx.weights[g], wx)
            assert gd.wx.rank_used[g] == rank

    def test_interleaved_rows_grouped_by_label_in_order(self):
        rng = np.random.default_rng(17)
        coords = rng.normal(size=(3, 2))
        labels = rng.permutation(np.repeat(np.arange(3), 5))
        pred = rng.normal(size=(2, 15, 2))
        gd = gd_ls_fit(pred, labels, coords)
        for g in range(3):
            rows = [r for r in range(15) if labels[r] == g]  # ascending row order
            wx, _ = fusion_reference.ls_svd_weights(pred[0, rows], np.full(5, coords[g, 0]))
            wy, _ = fusion_reference.ls_svd_weights(pred[1, rows], np.full(5, coords[g, 1]))
            np.testing.assert_array_equal(gd.wx.weights[g], wx)
            np.testing.assert_array_equal(gd.wy.weights[g], wy)

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
        per_grid = LsFit(np.eye(3), np.full(3, 3))  # row g picks classifier g
        gd = FusionWeights(per_grid, per_grid)
        online = np.array([[[0.11, 0.22, 0.33], [0.11, 0.22, 0.33]],
                           [[0.44, 0.55, 0.66], [0.44, 0.55, 0.66]]])
        queries = np.array([[10.1, 9.9], [19.0, 21.0]])  # select grids 1 and 2
        nearest = nearest_mean_labels(queries, fps)
        np.testing.assert_allclose(gd_ls_predict_all(gd, nearest, online),
                                   [[0.22, 0.55], [0.33, 0.66]], atol=1e-15)

    def test_identical_columns_reduce_to_gi(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=3)
        tiled = LsFit(np.tile(w, (4, 1)), np.full(4, 3))
        gd = FusionWeights(tiled, tiled)
        fw = FusionWeights(wx=LsFit(w, 3), wy=LsFit(w, 3))
        online = rng.normal(size=(2, 5, 3))
        gd_est = gd_ls_predict_all(gd, rng.integers(0, 4, size=5), online)
        np.testing.assert_allclose(gd_est, gi_ls_predict_all(fw, online), rtol=1e-12)

    def test_predict_rows_match_hand_dot_products(self):
        rng = np.random.default_rng(18)
        gd = FusionWeights(LsFit(rng.normal(size=(4, 3)), np.full(4, 3)),
                           LsFit(rng.normal(size=(4, 3)), np.full(4, 3)))
        online = rng.normal(size=(2, 6, 3))
        nearest = nearest_mean_labels(rng.normal(size=(6, 2)), rng.normal(size=(4, 2)))
        est = gd_ls_predict_all(gd, nearest, online)
        for r, g in enumerate(nearest):
            assert est[r, 0] == pytest.approx(
                sum(a * b for a, b in zip(online[0, r], gd.wx.weights[g])), rel=1e-12)
            assert est[r, 1] == pytest.approx(
                sum(a * b for a, b in zip(online[1, r], gd.wy.weights[g])), rel=1e-12)


class TestValidation:
    def test_truth_shape_checked(self):
        with pytest.raises(ValueError):
            ls_weights(np.ones((4, 2)), np.ones(3))
        with pytest.raises(ValueError):
            ls_svd_weights(np.ones((4, 2)), np.ones(3))



@st.composite
def mixed_rank_stack(draw):
    """(G, L, H) stack mixing full-rank, all-zero, duplicated-column and
    low-rank matrices, with (G, L) truths."""
    g = draw(st.integers(1, 6))
    l = draw(st.integers(1, 300))
    h = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(size=(g, l, h))
    for i in range(g):
        kind = draw(st.sampled_from(["full", "zero", "duplicate", "low-rank"]))
        if kind == "zero":
            stack[i] = 0.0
        elif kind == "duplicate":
            stack[i] = stack[i][:, rng.integers(0, h, size=h)]
        elif kind == "low-rank":
            stack[i] = rng.normal(size=(l, 1)) @ rng.normal(size=(1, h))
    return stack, rng.normal(size=(g, l))


class TestStackedSolve:
    @settings(max_examples=80, deadline=None)
    @given(mixed_rank_stack())
    def test_stack_equals_the_per_matrix_oracle_bit_for_bit(self, case):
        stack, truth = case
        fit = ls_svd_weights(stack, truth)
        assert fit.weights.shape == (stack.shape[0], stack.shape[2])
        for i in range(stack.shape[0]):
            want, rank = fusion_reference.ls_svd_weights(stack[i], truth[i])
            np.testing.assert_array_equal(fit.weights[i], want)
            assert fit.rank_used[i] == rank

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gi_fit_on_9000_rows_matches_the_oracle_on_strided_columns(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(0.0, 0.7, size=(9000, 2))
        pred = truth.T[:, :, np.newaxis] + rng.normal(scale=0.05, size=(2, 9000, 3))
        pred[1, :, 2] = pred[1, :, 0]  # y has rank 2, x rank 3
        fw = gi_ls_fit(pred, truth)
        for axis, fit in enumerate((fw.wx, fw.wy)):
            want, rank = fusion_reference.ls_svd_weights(pred[axis], truth[:, axis])
            np.testing.assert_array_equal(fit.weights, want)
            assert type(fit.rank_used) is int and fit.rank_used == rank
        assert (fw.wx.rank_used, fw.wy.rank_used) == (3, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.permutations(range(4)))
    def test_permuting_classifier_columns_permutes_gi_weights(self, seed, perm):
        rng = np.random.default_rng(seed)
        truth = rng.normal(size=(30, 2))
        pred = truth.T[:, :, np.newaxis] + rng.normal(size=(2, 30, 4))
        fw, fw_perm = gi_ls_fit(pred, truth), gi_ls_fit(pred[:, :, perm], truth)
        for fit, fit_perm in ((fw.wx, fw_perm.wx), (fw.wy, fw_perm.wy)):
            np.testing.assert_allclose(fit_perm.weights, fit.weights[list(perm)],
                                       rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(mixed_rank_stack(), st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-3))
    def test_scaling_the_truth_scales_the_weights(self, case, c):
        stack, truth = case
        fit, scaled = ls_svd_weights(stack, truth), ls_svd_weights(stack, c * truth)
        np.testing.assert_array_equal(scaled.rank_used, fit.rank_used)
        np.testing.assert_allclose(scaled.weights, c * fit.weights, rtol=1e-9,
                                   atol=1e-9 * abs(c) * np.abs(fit.weights).max(initial=1.0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 40))
    def test_full_rank_equals_plain_least_squares(self, seed, h, extra_rows):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(h + 1 + extra_rows, h))
        t = rng.normal(size=x.shape[0])
        fit = ls_svd_weights(x, t)
        assert fit.rank_used == h
        np.testing.assert_allclose(fit.weights, ls_weights(x, t), rtol=1e-7, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=6).filter(
        lambda counts: len(set(counts)) > 1))
    def test_gd_fit_rejects_unequal_per_grid_counts(self, counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        with pytest.raises(ValueError, match="same number of rows"):
            gd_ls_fit(np.ones((2, labels.size, 2)), labels, np.zeros((len(counts), 2)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([-1, 0, 3]), st.integers(0, 9))
    def test_gd_fit_rejects_out_of_range_labels(self, g, offset, row):
        labels = np.repeat(np.arange(g), 2)
        labels[row % labels.size] = -1 if offset == -1 else g + offset
        with pytest.raises(ValueError, match="grid index in"):
            gd_ls_fit(np.ones((2, labels.size, 2)), labels, np.zeros((g, 2)))
