"""The pass rule of tests/stream_change.py, on synthetic paired metrics."""

import math

import pytest

import stream_change

BOUNDS = {"mspe_knn_m": 0.1}


def runs(values):
    """One {workload: {metric: value}} dict per seed, equal on both workloads."""
    return [{w: {"mspe_knn_m": v} for w in stream_change.WORKLOADS} for v in values]


@pytest.mark.parametrize("higher, lower, p, rejects", [
    (9, 1, 22 / 1024, True),
    (8, 2, 112 / 1024, False),
    (0, 0, 1.0, False),
])
def test_sign_test_p(higher, lower, p, rejects):
    assert stream_change.sign_test_p(higher, lower) == p
    assert stream_change.sign_test_p(lower, higher) == p
    assert (p < stream_change.ALPHA) == rejects


def test_equal_values_pass():
    old = runs([1.0 + 0.01 * i for i in range(10)])
    assert stream_change.compare(old, runs([1.0 + 0.01 * i for i in range(10)]), BOUNDS)


def test_median_past_half_the_bound_fails():
    # a 6 : 4 split, which the sign test passes, with median +8 % against +-5 %
    old = runs([1.0] * 10)
    assert not stream_change.compare(old, runs([1.08] * 6 + [0.99] * 4), BOUNDS)
    assert stream_change.compare(old, runs([1.04] * 6 + [0.99] * 4), BOUNDS)


@pytest.mark.parametrize("higher, passes", [(10, False), (9, False), (8, True)])
def test_lopsided_split_fails_the_sign_test(higher, passes):
    # differences far inside the bound, so only the split decides
    old = runs([1.0] * 10)
    new = runs([1.0 + 1e-6] * higher + [1.0 - 1e-6] * (10 - higher))
    assert stream_change.compare(old, new, BOUNDS) == passes


def test_ten_seeds_give_the_second_to_ninth_order_statistics():
    diffs = [0.03, -0.02, 0.09, 0.0, 0.05, -0.01, 0.07, 0.02, 0.04, 0.08]
    assert stream_change.sign_test_interval(diffs) == (-0.01, 0.08, 1.0 - 22 / 1024)


@pytest.mark.parametrize("n, k", [(5, 0), (6, 1), (9, 2), (11, 2), (12, 3), (20, 6)])
def test_interval_takes_the_largest_k_covering_95_percent(n, k):
    low, high, coverage = stream_change.sign_test_interval(list(range(n))[::-1])
    if k == 0:
        assert (low, high, coverage) == (float("-inf"), float("inf"), 1.0)
    else:
        tail = sum(math.comb(n, i) for i in range(k)) / 2.0**n
        assert (low, high, coverage) == (k - 1, n - k, 1.0 - 2.0 * tail)
        assert coverage >= 0.95 and 1.0 - 2.0 * (tail + math.comb(n, k) / 2.0**n) < 0.95


def test_compare_prints_each_interval(capsys):
    old = runs([1.0] * 10)
    stream_change.compare(old, runs([1.0 + 0.01 * i for i in range(10)]), BOUNDS)
    out = capsys.readouterr().out
    assert out.count("10 seeds; median interval coverage 97.9%") == 2
    assert out.count("[+0.0100, +0.0800]") == 2
