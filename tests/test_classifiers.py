import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rf_reference
from rf_reference import entropy
from vlcloc.classifiers import (ElmClassifier, KnnClassifier, RandomForest,
                                TrainSet, best_stump_split)

# the O(n) presorted search and the one-hot reference it must reproduce
SPLITS = (best_stump_split, rf_reference.best_stump_split)


def random_train_set(rng, n=20, m=3, g=4):
    feats = rng.normal(size=(n, m))
    labels = rng.integers(0, g, n)
    coords = rng.normal(size=(g, 2))
    return TrainSet(feats, labels, coords)


def knn_oracle(train, query, k):
    """Exhaustive neighbour sort and vote count, mirroring the tie rules."""
    d = np.sqrt(((train.features - query) ** 2).sum(axis=1))
    order = sorted(range(len(d)), key=lambda i: (d[i], i))[:k]
    votes = {}
    for i in order:
        votes.setdefault(int(train.labels[i]), []).append(d[i])
    top = max(len(v) for v in votes.values())
    tied = sorted(lab for lab, v in votes.items() if len(v) == top)
    if len(tied) == 1:
        return tied[0]
    means = [(float(np.mean(votes[lab])), lab) for lab in tied]
    return min(means)[1]


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
            got = clf.predict_labels(queries)
            want = [knn_oracle(train, q, 5) for q in queries]
            np.testing.assert_array_equal(got, want)

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
        rng = np.random.default_rng(2)
        train = random_train_set(rng, n=10)
        with pytest.raises(ValueError):
            KnnClassifier(train, k=0)
        with pytest.raises(ValueError):
            KnnClassifier(train, k=11)

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
        np.testing.assert_allclose(clf_p.scores(queries), clf.scores(queries)[:, np.argsort(perm)],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(clf_p.predict_labels(queries),
                                      perm[clf.predict_labels(queries)])

    def test_zero_output_weights_predict_label_zero(self):
        rng = np.random.default_rng(9)
        train = random_train_set(rng, n=20, m=3, g=4)
        clf = ElmClassifier(train, hidden=10, seed=0)
        clf.output_weights = np.zeros_like(clf.output_weights)
        assert clf.predict_labels([[0.0, 0.0, 0.0]])[0] == 0

    def test_hidden_count_validation(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            ElmClassifier(random_train_set(rng), hidden=0, seed=0)


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
        np.testing.assert_array_equal(f1.tree_labels(queries), f2.tree_labels(queries))

    def test_single_tree_equals_forest(self):
        rng = np.random.default_rng(15)
        train = random_train_set(rng, n=30, m=3, g=3)
        forest = RandomForest(train, trees=1, depth=4, seed=5)
        queries = rng.normal(size=(12, 3))
        np.testing.assert_array_equal(forest.predict_labels(queries),
                                      forest.tree_labels(queries)[0])

    def test_majority_vote_matches_per_tree_oracle(self):
        rng = np.random.default_rng(16)
        train = random_train_set(rng, n=40, m=4, g=4)
        forest = RandomForest(train, trees=5, depth=3, seed=9)
        queries = rng.normal(size=(15, 4))
        per_tree = forest.tree_labels(queries)
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

    def test_hyperparameter_validation(self):
        rng = np.random.default_rng(17)
        train = random_train_set(rng)
        with pytest.raises(ValueError):
            RandomForest(train, trees=0, depth=5, seed=0)
        with pytest.raises(ValueError):
            RandomForest(train, trees=5, depth=0, seed=0)


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

    def test_train_set_validation(self):
        with pytest.raises(ValueError):
            TrainSet(np.zeros((3, 2)), np.array([0, 1]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            TrainSet(np.zeros((3, 2)), np.array([0, 1, 5]), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected_naming_the_row(self, bad):
        feats = np.zeros((5, 2))
        feats[3, 1] = bad
        feats[4, 0] = bad
        with pytest.raises(ValueError, match="features row 3 is not finite"):
            TrainSet(feats, np.zeros(5, dtype=int), np.zeros((1, 2)))


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
        assert same_split(best_stump_split(values, labels),
                          rf_reference.best_stump_split(values, labels))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([-1.0, -0.0, 0.0, 1.0, 5e-324, 1.0 + 2.0**-52])),
        st.integers(0, 5)), min_size=1, max_size=60))
    def test_matches_one_hot_reference_on_arbitrary_floats(self, pairs):
        values = np.array([v for v, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        assert same_split(best_stump_split(values, labels),
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
    for tree, root in zip(forest.tree_arrays, roots):
        for got, want in zip(tree, rf_reference.preorder(root)):
            np.testing.assert_array_equal(got, want)
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
        assert len(forest.tree_arrays) == len(roots)
        for tree, root in zip(forest.tree_arrays, roots):
            for got, want in zip(tree, rf_reference.preorder(root)):
                np.testing.assert_array_equal(got, want)  # nan thresholds compare equal
        queries = centers[rng.integers(0, g, 400)] + rng.normal(size=(400, m))
        thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in forest.tree_arrays])
        queries[:100] = rng.choice(thresholds, size=(100, m))  # values on a threshold go left
        want = np.array([[rf_reference.route(root, q) for q in queries] for root in roots])
        np.testing.assert_array_equal(forest.tree_labels(queries), want)
        np.testing.assert_array_equal(forest.predict_labels(queries),
                                      rf_reference.forest_labels(roots, queries, g))
