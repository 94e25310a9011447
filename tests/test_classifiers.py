import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elm_reference
import knn_reference
import rf_reference
from rf_reference import entropy, presorted_stump_split, tree_labels
from vlcloc import classifiers, config, experiment
from vlcloc.classifiers import ElmClassifier, KnnClassifier, RandomForest, TrainSet
from vlcloc.spectral import FingerprintDB

# the O(n) presorted search and the one-hot reference it must reproduce
SPLITS = (presorted_stump_split, rf_reference.best_stump_split)

each_classifier = pytest.mark.parametrize("build", [
    lambda train: KnnClassifier(train, 3),
    lambda train: ElmClassifier(train, 10, seed=1),
    lambda train: RandomForest(train, 3, 2, seed=1),
], ids=["knn", "elm", "rf"])


def random_train_set(rng, n=20, m=3, g=4):
    feats = rng.normal(size=(n, m))
    labels = rng.integers(0, g, n)
    coords = rng.normal(size=(g, 2))
    return TrainSet(feats, labels, coords)


class TestKnn:
    def test_k1_on_training_row_returns_its_grid(self):
        rng = np.random.default_rng(0)
        train = random_train_set(rng)
        clf = KnnClassifier(train, k=1)
        rows = train.features[[0, 7, 19]]
        np.testing.assert_array_equal(clf.predict_labels(rows), train.labels[[0, 7, 19]])
        np.testing.assert_array_equal(clf.predict_coords(rows),
                                      train.grid_coords[train.labels[[0, 7, 19]]])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            train = random_train_set(rng, n=20, m=4, g=5)
            clf = KnnClassifier(train, k=5)
            queries = rng.normal(size=(6, 4))
            np.testing.assert_array_equal(clf.predict_labels(queries),
                                          knn_reference.knn_labels(train, 5, queries))

    def test_k_equals_rows_returns_global_mode(self):
        feats = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        labels = np.array([1, 1, 1, 0, 0])
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        train = TrainSet(feats, labels, coords)
        clf = KnnClassifier(train, k=5)
        assert clf.predict_labels([[100.0]])[0] == 1

    def test_vote_tie_broken_by_mean_distance(self):
        # labels 0 and 1 get 2 votes each; label 1's neighbours are closer
        feats = np.array([[0.9], [1.1], [3.0], [4.0]])
        labels = np.array([1, 1, 0, 0])
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        train = TrainSet(feats, labels, coords)
        clf = KnnClassifier(train, k=4)
        assert clf.predict_labels([[1.0]])[0] == 1

    def test_vote_and_distance_tie_broken_by_lower_label(self):
        feats = np.array([[-1.0], [1.0]])
        labels = np.array([1, 0])
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        train = TrainSet(feats, labels, coords)
        clf = KnnClassifier(train, k=2)
        assert clf.predict_labels([[0.0]])[0] == 0

    def test_distance_tie_keeps_lower_row_index(self):
        # rows 0 and 1 are equidistant from the query; k=1 must take row 0
        feats = np.array([[1.0], [-1.0], [5.0]])
        labels = np.array([2, 1, 0])
        coords = np.zeros((3, 2))
        train = TrainSet(feats, labels, coords)
        assert KnnClassifier(train, k=1).predict_labels([[0.0]])[0] == 2

    def test_k_validation(self):
        # the plan checks k >= 1, and check_trainable k above the training rows
        plan = config.plan_from_config(config.benchmark_config())
        with pytest.raises(ValueError, match="knn_k must be at least 1, got 0"):
            dataclasses.replace(plan, knn_k=0)
        small = dataclasses.replace(plan, grid_q=3, blocks_per_grid=20, knn_k=109)
        with pytest.raises(experiment.ExperimentError,
                           match=r"\[train\] k = 109 exceeds the 108 training rows"):
            small.check_trainable()
        dataclasses.replace(small, knn_k=108).check_trainable()

    def test_noiseless_identifiability(self):
        # distinct per-grid vectors repeated Q times: training queries are exact
        rng = np.random.default_rng(3)
        g, q_blocks, m = 9, 4, 3
        base = rng.normal(size=(g, m)) * 10.0
        feats = np.repeat(base, q_blocks, axis=0)
        labels = np.repeat(np.arange(g), q_blocks)
        train = TrainSet(feats, labels, rng.normal(size=(g, 2)))
        clf = KnnClassifier(train, k=q_blocks)
        np.testing.assert_array_equal(clf.predict_labels(feats), labels)


@st.composite
def integer_knn_case(draw):
    """(train, k, queries) with small integer features, so that every squared
    distance is exact and distance, vote and mean ties are real: duplicated
    rows, k from 1 to n, M from 1 to 4, n below and above one tree leaf and
    queries that repeat training rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 5, 8, 9, 17, 40, 130]))
    span = draw(st.sampled_from([1, 2, 4, 30]))
    feats = rng.integers(-span, span + 1, (n, m)).astype(float)
    if draw(st.booleans()):  # more duplicated rows
        feats = feats[rng.integers(0, max(1, n // 3), n)]
    g = draw(st.integers(1, 6))
    labels = rng.integers(0, g, n)
    k = draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))
    n_q = draw(st.sampled_from([1, 2, 3, 70, 150]))
    queries = rng.integers(-span - 1, span + 2, (n_q, m)).astype(float)
    repeat = rng.random(n_q) < 0.3
    queries[repeat] = feats[rng.integers(0, n, repeat.sum())]
    return TrainSet(feats, labels, rng.normal(size=(g, 2))), k, queries


@st.composite
def offset_knn_case(draw):
    """(train, k, queries) with features at per-feature offsets of up to 1e4
    plus spreads of 1e-4 to 1e-2, where |x|^2 + |q|^2 - 2 q.x loses the
    digits that separate rows: M from 1 to 4, k from 1 to n, duplicated rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 9, 40, 130]))
    offset = rng.uniform(-1.0, 1.0, m) * draw(st.sampled_from([1.0, 1e2, 1e4]))
    spread = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
    feats = offset + spread * rng.normal(size=(n, m))
    if draw(st.booleans()):  # duplicated rows
        feats = feats[rng.integers(0, max(1, n // 3), n)]
    g = draw(st.integers(1, 6))
    labels = rng.integers(0, g, n)
    k = draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))
    queries = offset + spread * rng.normal(size=(draw(st.sampled_from([1, 3, 70])), m))
    return TrainSet(feats, labels, rng.normal(size=(g, 2))), k, queries


class TestKnnAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(integer_knn_case())
    def test_integer_features_match_the_dense_oracle(self, case):
        train, k, queries = case
        np.testing.assert_array_equal(KnnClassifier(train, k).predict_labels(queries),
                                      knn_reference.knn_labels(train, k, queries))

    @settings(max_examples=100, deadline=None)
    @given(integer_knn_case(), st.integers(0, 2**32 - 1))
    def test_labels_do_not_depend_on_query_batching(self, case, seed):
        train, k, queries = case
        clf = KnnClassifier(train, k)
        whole = clf.predict_labels(queries)
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, queries.shape[0] + 1),
                                  rng.integers(0, 4), replace=True))
        pieces = [clf.predict_labels(p) for p in np.split(queries, cuts) if p.size]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        np.testing.assert_array_equal(
            [clf.predict_labels(row[np.newaxis])[0] for row in queries], whole)

    def test_real_valued_features_match_the_dense_oracle(self):
        # a many-leaf tree, many query batches, and squared distances that
        # must equal the dense product's bit for bit
        rng = np.random.default_rng(11)
        centres = rng.normal(-40.0, 6.0, (30, 4))
        labels = np.repeat(np.arange(30), 100)
        feats = centres[labels] + rng.normal(0.0, 1.5, (3000, 4))
        train = TrainSet(feats, labels, rng.normal(size=(30, 2)))
        queries = centres[rng.integers(0, 30, 2000)] + rng.normal(0.0, 1.5, (2000, 4))
        for k in (1, 7, 50):
            np.testing.assert_array_equal(KnnClassifier(train, k).predict_labels(queries),
                                          knn_reference.knn_labels(train, k, queries))

    @settings(max_examples=200, deadline=None)
    @given(offset_knn_case())
    def test_offset_features_match_the_dense_oracle(self, case):
        train, k, queries = case
        np.testing.assert_array_equal(KnnClassifier(train, k).predict_labels(queries),
                                      knn_reference.knn_labels(train, k, queries))

    def test_candidate_blocks_equal_the_feature_order_sum_bit_for_bit(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(-40.0, 8.0, (512, 4))
        clf = KnnClassifier(TrainSet(feats, np.zeros(512, dtype=int), np.zeros((1, 2))), k=1)
        q = rng.normal(-40.0, 8.0, (64, 4))
        for rows in (1, 2, 3, 64):
            for width in (1, 7, 17, 100):
                cols = np.sort(rng.choice(512, width, replace=False))
                plain = [[sum((a - b) * (a - b) for a, b in zip(qi, feats[c].tolist()))
                          for c in cols] for qi in q[:rows].tolist()]
                np.testing.assert_array_equal(classifiers._sq_dists(clf._xt, q[:rows], cols),
                                              plain)

    def test_vote_tie_with_equal_means_takes_the_lower_label(self):
        # labels 3 and 1 tie on votes and on mean distance; label 2 is farther
        feats = np.array([[0.0, 2.0], [0.0, -2.0], [2.0, 0.0], [-2.0, 0.0], [5.0, 5.0]])
        train = TrainSet(feats, np.array([3, 3, 1, 1, 2]), np.zeros((4, 2)))
        assert KnnClassifier(train, k=4).predict_labels([[0.0, 0.0]])[0] == 1

    @pytest.mark.parametrize("near_label", [0, 1])
    def test_exactly_equal_sums_that_round_apart_take_the_lower_label(self, near_label):
        # from (0, 0), rows (1, 1) and (2, 2) sum to sqrt(2) + sqrt(8) and rows
        # (0, 0) and (3, 3) to 0 + sqrt(18): both exactly 3 sqrt(2), yet they
        # round to 4.242640687119286 and 4.242640687119285; label 0 wins either way
        feats = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, 3.0]])
        labels = np.array([near_label] * 2 + [1 - near_label] * 2)
        train = TrainSet(feats, labels, np.zeros((2, 2)))
        queries = np.array([[0.0, 0.0]])
        assert KnnClassifier(train, k=4).predict_labels(queries)[0] == 0
        assert knn_reference.knn_labels(train, 4, queries)[0] == 0

    def test_equal_means_whose_sums_round_apart_by_row_order(self):
        # both labels have neighbours at 1, sqrt(2) and sqrt(10), so their mean
        # distances tie; summed in training-row order, (1 + sqrt(10)) + sqrt(2)
        # exceeds (1 + sqrt(2)) + sqrt(10), and the rounding band ties them for label 0
        feats = np.array([[1.0, 0.0], [1.0, 3.0], [1.0, 1.0],
                          [0.0, 1.0], [-1.0, -1.0], [3.0, 1.0]])
        train = TrainSet(feats, np.array([0, 0, 0, 1, 1, 1]), np.zeros((2, 2)))
        assert KnnClassifier(train, k=6).predict_labels([[0.0, 0.0]])[0] == 0

    def test_nearest_row_wins_where_a_norm_expansion_would_tie(self):
        # Near 1e4, |x|^2 is ~1e8 with an ulp of 1.5e-8: |x|^2 + |q|^2 - 2 q.x
        # rounds the d2 of row 5 (3e-5 away, label 0, in the query's leaf) and
        # of row 0 (2.2e-4 away, label 1, in the other leaf) to the same value.
        # Direct differences keep them 9e-10 and 4.8e-8, and label 0 wins.
        b = 1.0e4
        feats = np.array([b + 2.2e-4, b + 2e-3, b + 3e-3, b + 4e-3, b + 5e-3,
                          b - 3e-5, b - 2e-3, b - 3e-3, b - 4e-3])[:, np.newaxis]
        train = TrainSet(feats, np.array([1, 1, 1, 1, 1, 0, 0, 0, 0]), np.zeros((2, 2)))
        queries = np.array([[b]])
        assert knn_reference.knn_labels(train, 1, queries)[0] == 0
        assert KnnClassifier(train, k=1).predict_labels(queries)[0] == 0

    def test_a_leaf_nearer_than_the_kth_distance_is_a_candidate(self):
        # From 0.5, rows 0 and 1 (labels 0, 1) are 0.5 away and the 3rd
        # nearest, row -3 (label 2), 3.5 away in the other leaf: three labels
        # with one vote each, and 0 and 1 tie on distance. A reach at the 2nd
        # distance would drop that leaf and take row 10 (label 1) instead.
        feats = np.array([-30.0, -29, -28, -27, -26, -25, -24, -3,
                          0, 1, 10, 11, 12, 13, 14, 15])[:, np.newaxis]
        labels = np.array([2] * 8 + [0, 1, 1] + [2] * 5)
        train = TrainSet(feats, labels, np.zeros((3, 2)))
        queries = np.array([[0.5]])
        assert knn_reference.knn_labels(train, 3, queries)[0] == 0
        assert KnnClassifier(train, k=3).predict_labels(queries)[0] == 0

    def test_the_most_voted_label_wins_where_distances_overflow(self):
        # every squared distance overflows to inf, so every sum of distances is
        # inf: label 1 must still win on its 2 votes against label 0's one
        train = TrainSet(np.array([[1e200], [2e200], [3e200]]), np.array([0, 1, 1]),
                         np.zeros((2, 2)))
        queries = np.array([[-1e200]])
        with np.errstate(over="ignore"):
            assert knn_reference.knn_labels(train, 3, queries)[0] == 1
            assert KnnClassifier(train, k=3).predict_labels(queries)[0] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_or_misshaped_queries(self, bad):
        # queries are FingerprintDB rows: the DB rejects both
        with pytest.raises(ValueError, match=f"RSS of grid 0, block 0, tone 1 is {bad}"):
            FingerprintDB([[0.0, 0.0]], [[[0.0, bad, 0.0]]], [1e5, 2e5, 3e5], 2000, 4e6)
        with pytest.raises(ValueError, match="rss must have shape"):
            FingerprintDB([[0.0, 0.0]], [[[0.0, 0.0]]], [1e5, 2e5, 3e5], 2000, 4e6)


@st.composite
def kd_tree_rows(draw):
    """(n, M) training rows, n from 1 to 5 000, of small integers with
    duplicated rows and constant columns, and a k from 1 to n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 300), st.integers(1, 5000)))
    feats = rng.integers(0, draw(st.sampled_from([1, 3, 50])), (n, draw(st.integers(1, 4))))
    if draw(st.booleans()):  # more duplicated rows
        feats = feats[rng.integers(0, max(1, n // 4), n)]
    if draw(st.booleans()):  # a constant column
        feats[:, 0] = 7
    return feats.astype(float), draw(st.integers(1, n))


class TestKdTreeLeaves:
    @settings(max_examples=60, deadline=None)
    @given(kd_tree_rows())
    def test_leaves_halve_evenly_and_the_bound_leaves_hold_enough_rows(self, case):
        feats, k_any = case
        n = feats.shape[0]
        tree = classifiers._kd_tree(feats)
        sizes = np.bincount(tree.row_leaf, minlength=1 << tree.depth)
        assert sizes.size == tree.lo.shape[1] == 1 << tree.depth
        assert sizes.max() - sizes.min() <= 1
        assert sizes.min() == n >> tree.depth
        # one query is one batch: its first distance block is the bound pass
        widths = []
        sq_dists = classifiers._sq_dists

        def spy(xt, qg, cols):
            widths.append(cols.size)
            return sq_dists(xt, qg, cols)
        train = TrainSet(feats, np.zeros(n, dtype=int), np.zeros((1, 2)))
        for k in (1, k_any, n):
            widths.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(classifiers, "_sq_dists", spy)
                KnnClassifier(train, k).predict_labels(feats[:1] + 0.5)
            assert widths[0] >= min(4 * k, n), (k, widths)


class TestKnnChunkedBatches:
    def test_k1_takes_the_lowest_of_equally_near_rows(self):
        # duplicated training rows with other labels, and queries at integer
        # midpoints of two rows: every tie goes to the lower training row
        rng = np.random.default_rng(31)
        base = 2 * rng.integers(-6, 7, (60, 3)).astype(float)
        feats = base[rng.integers(0, 60, 400)]  # each row about 7 times
        labels = rng.integers(0, 50, 400)
        train = TrainSet(feats, labels, np.zeros((50, 2)))
        pairs = rng.integers(0, 400, (300, 2))
        queries = np.vstack([(feats[pairs[:, 0]] + feats[pairs[:, 1]]) / 2.0, feats[:100]])
        got = KnnClassifier(train, 1).predict_labels(queries)
        np.testing.assert_array_equal(got, knn_reference.knn_labels(train, 1, queries))
        first = [int(np.flatnonzero((feats == row).all(axis=1))[0]) for row in feats[:100]]
        np.testing.assert_array_equal(got[300:], labels[first])

    @pytest.mark.parametrize("budget", [16, 300, 1000])
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_labels_under_a_tiny_entry_budget_equal_the_dense_oracle(self, monkeypatch,
                                                                     budget, k):
        # candidate blocks here are 70-500 columns wide: budget 16 leaves one
        # query row per chunk, 300 and 1000 one to ten, single rows included
        monkeypatch.setattr(classifiers, "_BATCH_ENTRIES", budget)
        rng = np.random.default_rng(budget + k)
        centres = rng.normal(-40.0, 6.0, (6, 4))
        labels = rng.integers(0, 6, 500)
        feats = centres[labels] + rng.normal(0.0, 1.5, (500, 4))
        feats[250:300] = np.round(feats[:50])  # exact duplicates and distance ties
        feats[:50] = feats[250:300]
        train = TrainSet(feats, labels, np.zeros((6, 2)))
        queries = np.vstack([centres[rng.integers(0, 6, 300)] + rng.normal(0.0, 1.5, (300, 4)),
                             feats[240:260] + 0.5])
        chunks = []
        sq_dists = classifiers._sq_dists

        def spy(xt, qg, cols):
            chunks.append((qg.shape[0], cols.size))
            return sq_dists(xt, qg, cols)
        monkeypatch.setattr(classifiers, "_sq_dists", spy)
        got = KnnClassifier(train, k).predict_labels(queries)
        np.testing.assert_array_equal(got, knn_reference.knn_labels(train, k, queries))
        # every query row is in one bound chunk and one candidate chunk
        assert sum(r for r, _ in chunks) == 2 * queries.shape[0]
        assert all(r <= max(1, budget // c) for r, c in chunks)
        assert (max(r for r, c in chunks if c > 16) >= 2) == (budget > 16)

    def test_peak_memory_is_set_by_the_budget_not_the_query_count(self, monkeypatch):
        # queries inside the middle half of leaf 0's box all route to it: one
        # batch of n rows, whose unchunked (n, candidates) distances and (n, 256)
        # votes grow with n
        budget = 1 << 12
        monkeypatch.setattr(classifiers, "_BATCH_ENTRIES", budget, raising=False)
        rng = np.random.default_rng(32)
        g = 256
        train = TrainSet(rng.normal(size=(2048, 4)), rng.integers(0, g, 2048), np.zeros((g, 2)))
        for k in (1, 5):
            clf = KnnClassifier(train, k)
            lo, hi = clf.tree.lo[:, 0], clf.tree.hi[:, 0]  # leaf 0's box
            peaks = []
            for n in (3000, 6000):
                q = lo + (hi - lo) * rng.uniform(0.25, 0.75, (n, 4))
                tracemalloc.start()
                try:
                    clf.predict_labels(q)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # a few (n,) vectors for routing, ordering and the labels grow with n;
            # the chunks' matrices stay within a few budgets of 8-byte entries
            assert peaks[0] < 8 * 8 * budget + 160 * 3000, (k, peaks)
            assert peaks[1] - peaks[0] < 160 * 3000, (k, peaks)


class TestElm:
    def test_separable_clusters_reach_full_training_accuracy(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 4)) + 8.0
        b = rng.normal(size=(30, 4)) - 8.0
        feats = np.vstack([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        train = TrainSet(feats, labels, np.array([[0.0, 0.0], [1.0, 1.0]]))
        clf = ElmClassifier(train, hidden=50, seed=0)
        np.testing.assert_array_equal(clf.predict_labels(feats), labels)

    def test_fixed_seed_identical_weights(self):
        rng = np.random.default_rng(5)
        train = random_train_set(rng, n=30, m=4, g=3)
        c1 = ElmClassifier(train, hidden=20, seed=99)
        c2 = ElmClassifier(train, hidden=20, seed=99)
        np.testing.assert_array_equal(c1.output_weights, c2.output_weights)

    def test_interpolating_model_reproduces_training_labels(self):
        rng = np.random.default_rng(6)
        train = random_train_set(rng, n=12, m=3, g=4)
        clf = ElmClassifier(train, hidden=80, seed=1)  # heavily over-parameterized
        np.testing.assert_array_equal(clf.predict_labels(train.features), train.labels)

    def test_training_weights_match_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        train = random_train_set(rng, n=40, m=4, g=3)
        clf = ElmClassifier(train, hidden=10, seed=3)
        h = clf._hidden_out(train.features)
        targets = np.zeros((40, 3))
        targets[np.arange(40), train.labels] = 1.0
        oracle = np.linalg.solve(h.T @ h, h.T @ targets)
        np.testing.assert_allclose(clf.output_weights, oracle, rtol=1e-6)
        res_got = np.linalg.norm(h @ clf.output_weights - targets)
        res_want = np.linalg.norm(h @ oracle - targets)
        assert res_got == pytest.approx(res_want, rel=1e-6)

    def test_hidden_layer_is_the_clipped_sigmoid_bit_for_bit(self):
        rng = np.random.default_rng(20)
        clf = ElmClassifier(random_train_set(rng, n=30, m=3, g=3), hidden=40, seed=4)
        x = rng.normal(size=(50, 3)) * 300.0
        z = (x - clf._mu) / clf._sigma @ clf._w + clf._b
        assert np.abs(z).max() > 500.0  # the clip is exercised
        np.testing.assert_array_equal(clf._hidden_out(x),
                                      1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0))))

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        train = random_train_set(rng, n=30, m=3, g=4)
        clf = ElmClassifier(train, hidden=25, seed=2)
        perm = np.array([2, 0, 3, 1])
        permuted = TrainSet(train.features, perm[train.labels], train.grid_coords[np.argsort(perm)])
        clf_p = ElmClassifier(permuted, hidden=25, seed=2)
        queries = rng.normal(size=(10, 3))
        np.testing.assert_allclose(elm_reference.scores(clf_p, queries),
                                   elm_reference.scores(clf, queries)[:, np.argsort(perm)],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(clf_p.predict_labels(queries),
                                      perm[clf.predict_labels(queries)])

    def test_zero_output_weights_predict_label_zero(self):
        rng = np.random.default_rng(9)
        train = random_train_set(rng, n=20, m=3, g=4)
        clf = ElmClassifier(train, hidden=10, seed=0)
        clf.output_weights = np.zeros_like(clf.output_weights)
        assert clf.predict_labels([[0.0, 0.0, 0.0]])[0] == 0


def no_lstsq(*args, **kwargs):
    raise AssertionError("the fit fell back to np.linalg.lstsq")


def survey_split(q, blocks):
    """(train set, offline + online query rows) of a benchmark-geometry
    survey with a q x q grid and the given blocks per grid point."""
    cfg = config.benchmark_config()
    cfg["geometry"]["grid"]["q"] = q
    cfg["spectral"]["blocks_per_grid"] = blocks
    plan = config.plan_from_config(cfg)
    db = experiment.synthesize_fingerprint_db(plan)
    train_idx, off_idx, on_idx = experiment._split_indices(plan, blocks)
    train_q, train_labels = experiment._flatten_split(db, train_idx)
    queries = np.vstack([experiment._flatten_split(db, idx)[0] for idx in (off_idx, on_idx)])
    return TrainSet(train_q, train_labels, plan.grid_coords), queries


def with_weights(clf, weights):
    other = copy.copy(clf)
    other.output_weights = weights
    return other


class TestElmSolve:
    """The blocked Cholesky fit against the whole-matrix lstsq oracle."""

    def test_refined_cholesky_matches_the_lstsq_oracle_on_a_survey(self, monkeypatch):
        # 1200 training rows against 300 hidden units, cond(H) ~ 1e7: in
        # relative norm the unrefined Cholesky solution is ~2e-4 off, one
        # refinement step leaves ~7e-8 and two ~4e-10, about the oracle's own
        # accuracy. (At q = 5 with 600 hidden units cond(H) is ~5e8 and the
        # fit falls back to lstsq.)
        train, queries = survey_split(q=5, blocks=80)
        hidden, seed = 300, 7
        want = elm_reference.output_weights(train, hidden, seed)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        clf = ElmClassifier(train, hidden, seed)
        assert np.linalg.norm(clf.output_weights - want) <= 5e-9 * np.linalg.norm(want)
        np.testing.assert_array_equal(clf.predict_labels(queries),
                                      with_weights(clf, want).predict_labels(queries))

    def test_slow_refinement_falls_back_to_lstsq_on_a_survey(self):
        # 1800 rows against 600 hidden units, cond(H) ~ 4e8: Cholesky succeeds,
        # but the last correction is ~30 % of the weights
        train, _ = survey_split(q=10, blocks=30)
        clf = ElmClassifier(train, 600, seed=5)
        np.testing.assert_array_equal(clf.output_weights,
                                      elm_reference.output_weights(train, 600, 5))

    def test_a_correction_of_a_few_percent_falls_back_to_lstsq(self, monkeypatch):
        # with one correction pass, this fit's last correction is ~2.7e-2 of
        # |B|, between _REFINE_TOL = 1e-2 and 1e-1 (as on the localize split,
        # 1.1-2.9e-2): lstsq must take over, where a tolerance of 1e-1 would
        # keep the Cholesky weights
        train = random_train_set(np.random.default_rng(0), n=700, m=4, g=9)
        monkeypatch.setattr(classifiers, "_REFINE_STEPS", 1)
        calls, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        ElmClassifier(train, 600, seed=2)
        assert calls == [1]
        monkeypatch.setattr(classifiers, "_REFINE_TOL", 1e-1)
        ElmClassifier(train, 600, seed=2)
        assert calls == [1]

    @pytest.mark.parametrize("case", ["fewer-rows", "duplicated-rows", "near-duplicates"])
    def test_rank_deficient_fits_give_the_oracle_weights_bit_for_bit(self, case):
        rng = np.random.default_rng(24)
        hidden, g = 50, 10
        if case == "fewer-rows":
            feats = rng.normal(size=(hidden - 1, 4))
        else:  # 200 rows but only g distinct ones, or g clusters of width 1e-9 (Cholesky fails)
            feats = np.repeat(rng.normal(size=(g, 4)), 200 // g, axis=0)
            if case == "near-duplicates":
                feats += rng.normal(size=feats.shape) * 1e-9
        train = TrainSet(feats, np.arange(feats.shape[0]) % g, rng.normal(size=(g, 2)))
        for seed in range(5):
            np.testing.assert_array_equal(ElmClassifier(train, hidden, seed).output_weights,
                                          elm_reference.output_weights(train, hidden, seed))

    def test_fit_peak_memory_stays_below_a_quarter_of_the_hidden_matrix(self, monkeypatch):
        # 32 blocks of 256 rows; one whole (n, hidden) float matrix is 6.6 MB
        monkeypatch.setattr(classifiers, "_BLOCK_ROWS", 256)
        n, hidden = 32 * 256, 100
        train = random_train_set(np.random.default_rng(25), n=n, m=4, g=20)
        whole = n * hidden * train.features.itemsize
        tracemalloc.start()
        try:
            clf = ElmClassifier(train, hidden, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 4, (peak, whole)
        want = elm_reference.output_weights(train, hidden, 3)
        assert np.linalg.norm(clf.output_weights - want) <= 1e-8 * np.linalg.norm(want)

    def test_fit_holds_one_hidden_by_hidden_matrix_at_a_time(self, monkeypatch):
        # the benchmark's 600 hidden units and 225 labels over 4 blocks, on the
        # Cholesky path: with the Gram matrix freed once factored and 512-row
        # blocks the peak is 3.68 (600, 600) matrices; keeping the Gram matrix
        # or taking 1024-row blocks reads >= 4.68, and both 5.86
        hidden, g = 600, 225
        train = random_train_set(np.random.default_rng(29), n=4 * classifiers._BLOCK_ROWS,
                                 m=4, g=g)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        square = hidden * hidden * train.features.itemsize
        tracemalloc.start()
        try:
            ElmClassifier(train, hidden, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * square, peak / square

    def test_fit_hands_lapack_no_hidden_by_hidden_operand_but_the_cholesky(self, monkeypatch):
        # LAPACK's work copies are malloc'd, so tracemalloc cannot see an LU
        # of the factor; spy on the calls instead
        hidden, g = 600, 225
        train = random_train_set(np.random.default_rng(29), n=4 * classifiers._BLOCK_ROWS,
                                 m=4, g=g)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        square = []
        for name in ("solve", "inv", "cholesky"):
            def spy(a, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(a) == (hidden, hidden):
                    square.append(_name)
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        ElmClassifier(train, hidden, seed=3)
        assert square == ["cholesky"]

    @pytest.mark.parametrize("hidden", [1, classifiers._SUBST_ROWS - 1, classifiers._SUBST_ROWS,
                                        classifiers._SUBST_ROWS + 1, 600])
    def test_substitution_solves_the_normal_equations(self, hidden):
        # a (2 hidden + 1, hidden) Gaussian A gives cond(A^T A) <~ 40, so both
        # solutions lie within a few hundred eps of the exact one
        rng = np.random.default_rng(hidden)
        a = rng.normal(size=(2 * hidden + 1, hidden))
        gram = a.T @ a
        b = rng.normal(size=(hidden, 7))
        got = classifiers._cholesky_solve(np.linalg.cholesky(gram), b)
        want = np.linalg.solve(gram, b)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def stump_oracle(values, labels):
    """All midpoints between consecutive distinct values, gains by hand."""
    n = len(labels)
    h_parent = entropy(labels)
    best = (-math.inf, math.nan)
    for thr in sorted(set((a + b) / 2.0 for a, b in
                          zip(sorted(set(values)), sorted(set(values))[1:]))):
        left = labels[values <= thr]
        right = labels[values > thr]
        gain = h_parent - (len(left) * entropy(left) + len(right) * entropy(right)) / n
        if gain > best[0]:
            best = (gain, thr)
    return best


class TestRandomForest:
    def test_single_stump_split_matches_exhaustive_scan(self):
        for split in SPLITS:
            rng = np.random.default_rng(11)
            for _ in range(25):
                values = rng.normal(size=24)
                labels = rng.integers(0, 3, 24)
                gain, thr = split(values, labels)
                want_gain, want_thr = stump_oracle(values, labels)
                assert gain == pytest.approx(want_gain, abs=1e-12)
                assert thr == pytest.approx(want_thr, abs=1e-12)

    def test_two_pure_clusters_split_found(self):
        values = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 5.2])
        labels = np.array([0, 0, 0, 1, 1, 1])
        for split in SPLITS:
            gain, thr = split(values, labels)
            assert gain == pytest.approx(1.0, abs=1e-12)  # one full bit
            assert thr == pytest.approx(2.6, abs=1e-12)

    def test_constant_feature_has_no_split(self):
        for split in SPLITS:
            gain, thr = split(np.ones(5), np.array([0, 1, 0, 1, 0]))
            assert gain == -math.inf

    def test_gain_never_negative_when_split_exists(self):
        for split in SPLITS:
            rng = np.random.default_rng(12)
            for _ in range(50):
                values = rng.normal(size=16)
                labels = rng.integers(0, 4, 16)
                gain, _ = split(values, labels)
                assert gain == -math.inf or gain >= -1e-12

    def test_pure_labels_always_predicted(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(20, 3))
        train = TrainSet(feats, np.full(20, 2), np.zeros((4, 2)))
        forest = RandomForest(train, trees=4, depth=5, seed=0)
        queries = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(forest.predict_labels(queries), np.full(10, 2))

    def test_fixed_seed_identical_forest(self):
        rng = np.random.default_rng(14)
        train = random_train_set(rng, n=40, m=4, g=4)
        f1 = RandomForest(train, trees=6, depth=3, seed=7)
        f2 = RandomForest(train, trees=6, depth=3, seed=7)
        queries = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(tree_labels(f1, queries), tree_labels(f2, queries))

    def test_single_tree_equals_forest(self):
        rng = np.random.default_rng(15)
        train = random_train_set(rng, n=30, m=3, g=3)
        forest = RandomForest(train, trees=1, depth=4, seed=5)
        queries = rng.normal(size=(12, 3))
        np.testing.assert_array_equal(forest.predict_labels(queries),
                                      tree_labels(forest, queries)[0])

    def test_majority_vote_matches_per_tree_oracle(self):
        rng = np.random.default_rng(16)
        train = random_train_set(rng, n=40, m=4, g=4)
        forest = RandomForest(train, trees=5, depth=3, seed=9)
        queries = rng.normal(size=(15, 4))
        per_tree = tree_labels(forest, queries)
        want = []
        for col in per_tree.T:
            counts = {}
            for lab in col:
                counts[int(lab)] = counts.get(int(lab), 0) + 1
            top = max(counts.values())
            want.append(min(lab for lab, c in counts.items() if c == top))
        np.testing.assert_array_equal(forest.predict_labels(queries), want)

    def test_depth_one_separable_dataset(self):
        feats = np.column_stack([np.array([0.0, 0.2, 3.0, 3.3]), np.zeros(4)])
        train = TrainSet(feats, np.array([0, 0, 1, 1]), np.array([[0, 0], [1, 1]], dtype=float))
        forest = RandomForest(train, trees=1, depth=1, seed=0)
        np.testing.assert_array_equal(forest.predict_labels(feats), [0, 0, 1, 1])


class TestCommonInvariants:
    def test_predictions_stay_on_grid(self):
        rng = np.random.default_rng(18)
        train = random_train_set(rng, n=60, m=4, g=6)
        queries = rng.normal(size=(25, 4)) * 3.0
        for clf in (KnnClassifier(train, 7),
                    ElmClassifier(train, 30, seed=1),
                    RandomForest(train, 5, 3, seed=1)):
            labels = clf.predict_labels(queries)
            assert labels.min() >= 0 and labels.max() < 6
            np.testing.assert_array_equal(clf.predict_coords(queries), train.grid_coords[labels])

    # (the plan's (G, Q, M) zero RSS and M tones -> the DB's, message)
    @pytest.mark.parametrize("alter, message", [
        (lambda rss, tones: (np.concatenate([rss, rss[..., :1]], axis=2), [*tones, 1e6]),
         "tones do not match plan LEDs"),
        (lambda rss, tones: (rss[..., :2], tones[:2]), "tones do not match plan LEDs"),
        (lambda rss, tones: (np.where(np.arange(20)[:, None] == 3, np.nan, rss), tones),
         "RSS of grid 0, block 3, tone 0 is nan"),
        (lambda rss, tones: (np.where(np.arange(4) == 1, np.inf, rss), tones),
         "RSS of grid 0, block 0, tone 1 is inf"),
        (lambda rss, tones: (rss[:, 0], tones), "rss must have shape"),
        (lambda rss, tones: (rss[np.newaxis], tones), "rss must have shape"),
    ], ids=["wider", "narrower", "nan-row", "inf-row", "1d", "3d"])
    @pytest.mark.parametrize("cls", [KnnClassifier, ElmClassifier, RandomForest],
                             ids=["knn", "elm", "rf"])
    def test_malformed_queries_are_rejected(self, monkeypatch, cls, alter, message):
        """Queries are rows of a FingerprintDB that run_experiment matched to
        its plan: a malformed one fails there, before any classifier is built."""
        def trained(*args):
            raise AssertionError(f"{cls.__name__} was trained")
        monkeypatch.setattr(cls, "__init__", trained)
        plan = dataclasses.replace(config.plan_from_config(config.benchmark_config()),
                                   grid_q=3, blocks_per_grid=20, knn_k=5)
        rss, tones = alter(np.zeros((9, 20, 4)), list(plan.tones))
        with pytest.raises((ValueError, experiment.ExperimentError), match=message):
            experiment.run_experiment(plan, FingerprintDB(
                plan.grid_coords, rss, tones, plan.fft_len, plan.channel.sample_rate))

    @each_classifier
    def test_an_empty_query_matrix_has_no_labels(self, build):
        clf = build(random_train_set(np.random.default_rng(12), m=3))
        labels = clf.predict_labels(np.empty((0, 3)))
        assert labels.shape == (0,) and labels.dtype.kind == "i"
        assert clf.predict_coords(np.empty((0, 3))).shape == (0, 2)

    def test_integral_float_labels_become_ints(self):
        train = TrainSet(np.zeros((3, 2)), [0.0, 1.0, 1.0], np.zeros((2, 2)))
        assert train.labels.dtype.kind == "i"
        np.testing.assert_array_equal(train.labels, [0, 1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected_naming_the_row(self, bad):
        # training rows are FingerprintDB rows, and the DB rejects a
        # non-finite one, naming its first (grid, block) row and tone
        feats = np.zeros((5, 2))
        feats[3, 1] = bad
        feats[4, 0] = bad
        with pytest.raises(ValueError, match=f"RSS of grid 0, block 3, tone 1 is {bad}"):
            FingerprintDB(np.zeros((1, 2)), feats[np.newaxis], [1e5, 2e5], 2000, 4e6)


BLOCK = 5  # a patched block size: near-equal blocks past one then hold >= 3 rows


def blocked_pair(monkeypatch, hidden=40, g=12, block=BLOCK):
    """An ELM and a forest on one training set, with _BLOCK_ROWS patched to
    block; the row count of each block they label is appended to sizes."""
    monkeypatch.setattr(classifiers, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(21)
    train = random_train_set(rng, n=200, m=4, g=g)
    sizes = []
    for cls in (ElmClassifier, RandomForest):
        def spy(self, q, inner=cls._block_labels):
            sizes.append(q.shape[0])
            return inner(self, q)
        monkeypatch.setattr(cls, "_block_labels", spy)
    return ElmClassifier(train, hidden, seed=3), RandomForest(train, 7, 4, seed=3), sizes


class TestBlockedPrediction:
    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    def test_labels_equal_the_unblocked_reference(self, monkeypatch, n):
        elm, forest, sizes = blocked_pair(monkeypatch)
        q = np.random.default_rng(n).normal(size=(n, 4)) * 2.0
        g = forest.train_set.num_grid_points
        want_elm = np.argmax(elm_reference.scores(elm, q), axis=1)
        per_tree = tree_labels(forest, q)
        votes = np.bincount((per_tree + g * np.arange(n)).ravel(), minlength=n * g)
        want_rf = np.argmax(votes.reshape(n, g), axis=1)
        for clf, want in ((elm, want_elm), (forest, want_rf)):
            sizes.clear()
            np.testing.assert_array_equal(clf.predict_labels(q), want)
            assert len(sizes) == math.ceil(n / BLOCK) and max(sizes) - min(sizes) <= 1
            assert n <= BLOCK or min(sizes) >= BLOCK / 2
            np.testing.assert_array_equal(clf.predict_coords(q),
                                          clf.train_set.grid_coords[want])

    def test_peak_memory_does_not_grow_with_the_query_count(self, monkeypatch):
        # 16 blocks of 256 rows; one whole (n, hidden) float matrix is 6.6 MB,
        # and unblocked RF's (n, G) vote counts alone would be 3.3 MB
        hidden = 200
        elm, forest, _ = blocked_pair(monkeypatch, hidden=hidden, g=100, block=256)
        q = np.random.default_rng(22).normal(size=(16 * 256, 4))
        whole = q.shape[0] * hidden * q.itemsize
        for clf in (elm, forest):
            tracemalloc.start()
            try:
                clf.predict_labels(q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < whole / 4, (type(clf).__name__, peak, whole)


def same_split(got, want) -> bool:
    """Bit-identical (gain, threshold); the threshold is nan when no cut exists."""
    return got[0] == want[0] and (got[1] == want[1] or (math.isnan(got[1]) and math.isnan(want[1])))


@st.composite
def adversarial_node(draw):
    """Node values and labels built to stress the screen: few distinct values,
    one class or very many, skewed or value-sorted labels, n up to 3000."""
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.sampled_from([1, 2, 3, 10, None]))
    if distinct is None:
        values = rng.normal(size=n)
    else:
        values = rng.choice(rng.normal(size=distinct) * 10.0 ** rng.integers(-3, 4), n)
    classes = draw(st.sampled_from([1, 2, 3, 50, 300, n]))
    layout = draw(st.sampled_from(["uniform", "skewed", "by_value", "sparse_ids"]))
    if layout == "skewed":
        labels = rng.choice(classes, n, p=rng.dirichlet(np.full(classes, 0.3)))
    elif layout == "by_value":
        labels = np.argsort(np.argsort(values, kind="stable")) * classes // n
    else:
        labels = rng.integers(0, classes, n)
    if layout == "sparse_ids":
        labels = labels * 97 + 5
    return values, labels


class TestSplitBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(adversarial_node())
    def test_matches_one_hot_reference_exactly(self, node):
        values, labels = node
        assert same_split(presorted_stump_split(values, labels),
                          rf_reference.best_stump_split(values, labels))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([-1.0, -0.0, 0.0, 1.0, 5e-324, 1.0 + 2.0**-52])),
        st.integers(0, 5)), min_size=1, max_size=60))
    def test_matches_one_hot_reference_on_arbitrary_floats(self, pairs):
        values = np.array([v for v, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        assert same_split(presorted_stump_split(values, labels),
                          rf_reference.best_stump_split(values, labels))


@pytest.mark.parametrize("lo, hi", [
    (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # adjacent doubles: the midpoint rounds up to hi
    (1.6e308, 1.7e308),                # lo + hi overflows to inf
    (-1.7e308, -1.6e308),              # ... and to -inf
])
def test_cut_between_inseparable_neighbours_keeps_both_children(lo, hi):
    values = np.array([lo, hi] * 4)
    labels = np.array([0, 1] * 4)
    for split in SPLITS:
        gain, thr = split(values, labels)
        assert gain == pytest.approx(1.0, abs=1e-12) and thr == lo
    train = TrainSet(values[:, np.newaxis], labels, np.array([[0.0, 0.0], [1.0, 0.0]]))
    forest = RandomForest(train, trees=5, depth=2, seed=0)
    roots = rf_reference.reference_forest(train, trees=5, depth=2, seed=0)
    rf_reference.assert_same_forest(forest, roots)
    np.testing.assert_array_equal(forest.predict_labels(values[:, np.newaxis]), labels)


class TestForestMatchesReference:
    @pytest.mark.parametrize("decimals", [None, 1])  # continuous, heavily duplicated
    def test_same_trees_node_for_node(self, decimals):
        rng = np.random.default_rng(19)
        n, m, g = 3000, 6, 50
        centers = rng.normal(size=(g, m)) * 3.0
        labels = rng.integers(0, g, n)
        feats = centers[labels] + rng.normal(size=(n, m))
        if decimals is not None:
            feats = np.round(feats, decimals)
        train = TrainSet(feats, labels, rng.normal(size=(g, 2)))
        forest = RandomForest(train, trees=5, depth=6, seed=23)
        roots = rf_reference.reference_forest(train, trees=5, depth=6, seed=23)
        rf_reference.assert_same_forest(forest, roots)
        queries = centers[rng.integers(0, g, 400)] + rng.normal(size=(400, m))
        thresholds = forest.threshold[forest.feature >= 0]
        queries[:100] = rng.choice(thresholds, size=(100, m))  # values on a threshold go left
        want = np.array([[rf_reference.route(root, q) for q in queries] for root in roots])
        np.testing.assert_array_equal(tree_labels(forest, queries), want)
        np.testing.assert_array_equal(forest.predict_labels(queries),
                                      rf_reference.forest_labels(roots, queries, g))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 80), m=st.integers(1, 5), levels=st.integers(1, 5),
           g=st.integers(2, 6), depth=st.integers(1, 6), trees=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_tie_heavy_integer_features_node_for_node(self, n, m, levels, g, depth, trees,
                                                      seed):
        # few levels and rows: value ties and bootstrap copies in every node
        rng = np.random.default_rng(seed)
        train = TrainSet(rng.integers(0, levels, (n, m)).astype(float),
                         rng.integers(0, g, n), np.zeros((g, 2)))
        forest = RandomForest(train, trees, depth, seed)
        rf_reference.assert_same_forest(
            forest, rf_reference.reference_forest(train, trees, depth, seed))

    def test_root_leaves_of_a_tiny_training_set(self):
        # 3 rows, 2 classes: a third of the bootstrap samples hold one class,
        # so their trees are one root leaf, its own child
        train = TrainSet([[0.0], [1.0], [2.0]], [0, 1, 1], np.zeros((2, 2)))
        forest = RandomForest(train, trees=12, depth=3, seed=5)
        roots = rf_reference.reference_forest(train, trees=12, depth=3, seed=5)
        rf_reference.assert_same_forest(forest, roots)
        root_leaf = forest.child[forest.roots] == forest.roots
        assert 0 < np.count_nonzero(root_leaf) < forest.trees
        queries = np.array([[-1.0], [0.0], [0.5], [1.0], [2.0], [3.0]])
        want = np.array([[rf_reference.route(root, q) for q in queries] for root in roots])
        np.testing.assert_array_equal(tree_labels(forest, queries), want)
        np.testing.assert_array_equal(forest.predict_labels(queries),
                                      rf_reference.forest_labels(roots, queries, 2))
