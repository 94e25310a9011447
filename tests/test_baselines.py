import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rssr_reference
from vlcloc import config
from vlcloc.baselines import RssrConfig, RssrSolver

BENCH_PLAN = config.plan_from_config(config.benchmark_config())
BENCH_CFG = BENCH_PLAN.rssr_config()
BENCH_SOLVER = RssrSolver(BENCH_CFG)
LEDS = BENCH_CFG.led_positions


def lambertian_powers(cfg: RssrConfig, xy) -> np.ndarray:
    """Noise-free linear powers h^(m+1) / d^(m+3) at xy, one per LED."""
    led = cfg.led_positions
    h = led[:, 2]
    d = np.sqrt(((np.asarray(xy) - led[:, :2]) ** 2).sum(axis=1) + h**2)
    m = cfg.lambertian_order
    return h ** (m + 1.0) / d ** (m + 3.0)


def scan_cell(solver: RssrSolver, query) -> np.ndarray:
    r = np.asarray(query, dtype=float)
    return solver._scan(np.log(r[solver._i] / r[solver._j]))


def assert_matches_reference(query, tol_m):
    want_cell, want = rssr_reference.reference_locate(BENCH_CFG, query)
    got = BENCH_SOLVER.locate(query)
    np.testing.assert_array_equal(scan_cell(BENCH_SOLVER, query), want_cell)
    assert got.shape == (2,)
    assert math.hypot(*(got - want)) <= tol_m


def test_benchmark_queries_match_the_lstsq_reference():
    """Survey-like queries: the benchmark's unequal LED gains times +-5 %
    noise, at grid points and between them."""
    rng = np.random.default_rng(3)
    gains = np.array([led.gain for led in BENCH_PLAN.leds])
    points = np.concatenate([BENCH_PLAN.grid_coords[::7],
                             rng.uniform(-0.05, 0.75, size=(30, 2))])
    for xy in points:
        query = gains * lambertian_powers(BENCH_CFG, xy) * rng.uniform(0.95, 1.05, 4)
        assert_matches_reference(query, 1e-8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4))
def test_arbitrary_positive_queries_match_the_lstsq_reference(powers):
    """Any positive powers land on the reference's scan cell. The nine
    stencil values carry rounding errors in proportion to the objective, so
    the positions agree within 1e-8 m times max(1, objective at the optimum)."""
    query = np.array(powers)
    _, want = rssr_reference.reference_locate(BENCH_CFG, query)
    i, j = rssr_reference._pair_indices(4)
    f_opt = rssr_reference._objective(BENCH_CFG, np.log(query[i] / query[j]), want)
    assert_matches_reference(query, 1e-8 * max(1.0, f_opt))


def test_noise_free_equal_gain_queries_are_located_exactly():
    rng = np.random.default_rng(5)
    points = np.concatenate([BENCH_PLAN.grid_coords, rng.uniform(0.0, 0.7, size=(25, 2))])
    for xy in points:
        got = BENCH_SOLVER.locate(lambertian_powers(BENCH_CFG, xy))
        assert math.hypot(*(got - xy)) <= 1e-7


@pytest.mark.parametrize("query", [
    [1.0, 1.0, 1.0],
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [[1.0, 1.0], [1.0, 1.0]],
    [1.0, 0.0, 1.0, 1.0],
    [1.0, -2.0, 1.0, 1.0],
    [1.0, math.nan, 1.0, 1.0],
    [1.0, math.inf, 1.0, 1.0],
    [-math.inf, 1.0, 1.0, 1.0],
])
def test_locate_rejects_bad_queries(query):
    with pytest.raises(ValueError):
        BENCH_SOLVER.locate(query)


@pytest.mark.parametrize("kwargs, message", [
    ({"led_positions": LEDS[:2]}, "at least 3 LED positions"),
    ({"led_positions": LEDS[:, :2]}, "at least 3 LED positions"),
    ({"led_positions": np.vstack([LEDS, LEDS[:1]])}, "distinct"),
    ({"lambertian_order": 0.0}, "lambertian_order"),
    ({"lambertian_order": math.nan}, "lambertian_order"),
    ({"bounds": ((math.nan, 1.0), (0.0, 1.0))}, "non-empty rectangle"),
    ({"bounds": ((0.5, 0.5), (0.0, 1.0))}, "non-empty rectangle"),
    ({"bounds": ((0.0, 1.0), (1.0, 0.0))}, "non-empty rectangle"),
    ({"bounds": ((0.0, 1.0), (0.0, math.nan))}, "non-empty rectangle"),
    ({"led_positions": np.vstack([[math.nan, 0.0, 1.5], LEDS[1:]])}, "finite"),
    ({"lambertian_order": math.inf}, "lambertian_order"),
    ({"bounds": ((0.0, math.inf), (0.0, 1.0))}, "finite, non-empty rectangle"),
    ({"bounds": ((0.0, 1.0), (-math.inf, 1.0))}, "finite, non-empty rectangle"),
])
def test_rssr_config_rejects_each_bad_field(kwargs, message):
    fields = {"lambertian_order": 1.0, "led_positions": LEDS, "bounds": BENCH_CFG.bounds}
    with pytest.raises(ValueError, match=message):
        RssrConfig(**{**fields, **kwargs})
