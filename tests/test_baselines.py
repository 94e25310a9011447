import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rssr_reference
from vlcloc import config
from vlcloc.baselines import SCAN_MARGIN, RssrSolver
from vlcloc.channel import LedConfig

BENCH_PLAN = config.plan_from_config(config.benchmark_config())
BENCH_SOLVER = RssrSolver(BENCH_PLAN.leds, BENCH_PLAN.channel, BENCH_PLAN.grid_coords)
LEDS = np.stack([led.position for led in BENCH_PLAN.leds])
ORDER = BENCH_PLAN.channel.lambertian_order
GRID = BENCH_PLAN.grid_coords
# the scan rectangle: the grid's extent plus the margin on every side
BOUNDS = tuple((GRID[:, k].min() - SCAN_MARGIN, GRID[:, k].max() + SCAN_MARGIN) for k in (0, 1))


def lambertian_powers(xy) -> np.ndarray:
    """Noise-free linear powers h^(m+1) / d^(m+3) at xy, one per LED."""
    h = LEDS[:, 2]
    d = np.sqrt(((np.asarray(xy) - LEDS[:, :2]) ** 2).sum(axis=1) + h**2)
    return h ** (ORDER + 1.0) / d ** (ORDER + 3.0)


def to_db(powers) -> np.ndarray:
    """The fingerprint row of linear powers: the RSS of their squares in dB."""
    return 20.0 * np.log10(powers)


def as_linear(fingerprint) -> np.ndarray:
    """The linear powers locate works on: 10^(dB/20)."""
    return 10.0 ** (np.asarray(fingerprint, dtype=float) / 20.0)


def scan_cell(solver: RssrSolver, query) -> np.ndarray:
    r = np.asarray(query, dtype=float)
    return solver._scan(np.log(r[solver._i] / r[solver._j]))


def assert_matches_reference(fingerprint, tol_m):
    query = as_linear(fingerprint)
    want_cell, want = rssr_reference.reference_locate(LEDS, ORDER, BOUNDS, query)
    got = BENCH_SOLVER.locate(fingerprint)
    np.testing.assert_array_equal(scan_cell(BENCH_SOLVER, query), want_cell)
    assert got.shape == (2,)
    assert math.hypot(*(got - want)) <= tol_m


def test_scan_covers_the_grid_extent_plus_the_margin():
    np.testing.assert_array_equal(BENCH_SOLVER._cells, rssr_reference.scan_cells(BOUNDS))
    np.testing.assert_allclose(BOUNDS, [(-0.05, 0.75), (-0.05, 0.75)], rtol=0, atol=1e-12)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# 3-5 distinct LED positions within 3 m of the origin, 0.5-3 m high, and a
# Lambertian order; None stands for the benchmark's LEDs and order
LED_LAYOUTS = st.one_of(st.none(), st.tuples(
    st.integers(3, 5).flatmap(lambda m: st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 3.0)),
        min_size=m, max_size=m, unique=True)),
    st.floats(0.5, 20.0)))


@settings(max_examples=60, deadline=None)
@example(None, [(0.0, 0.0)])
@given(LED_LAYOUTS, st.lists(st.tuples(st.floats(-1.0, 1.7), st.floats(-1.0, 1.7)),
                             min_size=1, max_size=20))
def test_pair_model_equals_the_reference_bit_for_bit(layout, points):
    """On the scan cells and on points within 1 m of the grid, the model's
    pair differences and the reference's indexed ones agree in every bit,
    the sign of a zero included."""
    if layout is None:
        solver, led, order = BENCH_SOLVER, LEDS, ORDER
    else:
        led, order = np.array(layout[0]), layout[1]
        channel = dataclasses.replace(BENCH_PLAN.channel, lambertian_order=order)
        solver = RssrSolver([LedConfig(pos, 8e5) for pos in led], channel, GRID)
    for xy in (solver._cells, np.array(points)):
        assert_same_bits(solver._model_at(xy), rssr_reference._model(led, order, xy))


def test_benchmark_queries_match_the_lstsq_reference():
    """Survey-like queries: the benchmark's unequal LED gains times +-5 %
    noise, at grid points and between them."""
    rng = np.random.default_rng(3)
    gains = np.array([led.gain for led in BENCH_PLAN.leds])
    points = np.concatenate([GRID[::7], rng.uniform(-0.05, 0.75, size=(30, 2))])
    for xy in points:
        query = gains * lambertian_powers(xy) * rng.uniform(0.95, 1.05, 4)
        assert_matches_reference(to_db(query), 1e-8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-60.0, 60.0), min_size=4, max_size=4))
def test_arbitrary_positive_queries_match_the_lstsq_reference(levels):
    """Any RSS levels from -60 to 60 dB (powers 1e-3 to 1e3) land on the
    reference's scan cell. The nine stencil values carry rounding errors in
    proportion to the objective, so the positions agree within 1e-8 m times
    max(1, objective at the optimum)."""
    fingerprint = np.array(levels)
    query = as_linear(fingerprint)
    _, want = rssr_reference.reference_locate(LEDS, ORDER, BOUNDS, query)
    i, j = rssr_reference._pair_indices(4)
    f_opt = rssr_reference._objective(LEDS, ORDER, np.log(query[i] / query[j]), want)
    assert_matches_reference(fingerprint, 1e-8 * max(1.0, f_opt))


def test_noise_free_equal_gain_queries_are_located_exactly():
    """Also pins the dB conversion: with 10^(dB/10) instead of 10^(dB/20)
    every ratio would be squared and the position wrong."""
    rng = np.random.default_rng(5)
    points = np.concatenate([GRID, rng.uniform(0.0, 0.7, size=(25, 2))])
    for xy in points:
        got = BENCH_SOLVER.locate(to_db(lambertian_powers(xy)))
        assert math.hypot(*(got - xy)) <= 1e-7


@pytest.mark.parametrize("query", [
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [[0.0, 0.0], [0.0, 0.0]],
    [0.0, -math.inf, 0.0, 0.0],  # zero power
    [0.0, -1e4, 0.0, 0.0],       # a power that underflows to zero
    [0.0, math.nan, 0.0, 0.0],
    [0.0, math.inf, 0.0, 0.0],
    [-math.inf, 0.0, 0.0, 0.0],
    [7000.0, 0.0, 0.0, 0.0],     # a power that overflows
])
def test_locate_rejects_bad_queries(query):
    with pytest.raises(ValueError):
        BENCH_SOLVER.locate(query)


@pytest.mark.parametrize("kwargs, message", [
    ({"led_positions": LEDS[:2]}, "at least 3 LED positions"),
    ({"led_positions": LEDS[:0]}, "at least 3 LED positions"),
    ({"led_positions": np.vstack([LEDS, LEDS[:1]])}, "distinct"),
    ({"lambertian_order": 0.0}, "lambertian_order"),
    ({"lambertian_order": math.nan}, "lambertian_order"),
    ({"grid_coords": np.vstack([GRID, [math.nan, 0.0]])}, "non-empty rectangle"),
    ({"grid_coords": GRID[:0]}, "non-empty rectangle"),
    ({"grid_coords": GRID.T}, "non-empty rectangle"),
    ({"grid_coords": np.vstack([GRID, [0.0, math.nan]])}, "non-empty rectangle"),
    ({"led_positions": np.vstack([[math.nan, 0.0, 1.5], LEDS[1:]])}, "finite"),
    ({"lambertian_order": math.inf}, "lambertian_order"),
    ({"grid_coords": np.vstack([GRID, [math.inf, 0.0]])}, "finite, non-empty rectangle"),
    ({"grid_coords": np.vstack([GRID, [0.0, -math.inf]])}, "finite, non-empty rectangle"),
    ({"led_positions": LEDS[:, :2]}, "3-vector"),
    ({"grid_coords": GRID[:, 0]}, "non-empty rectangle"),
])
def test_rssr_config_rejects_each_bad_field(kwargs, message):
    """The RSSR configuration is the plan's LEDs, channel and grid that
    RssrSolver is built from. A non-finite or wrongly shaped LED position
    and a Lambertian order of 0, NaN or inf are rejected by LedConfig and
    ChannelParams before a solver sees them; the solver rejects too few LEDs
    and a bad grid, and the plan that holds the LEDs two at one position."""
    fields = {"led_positions": LEDS, "lambertian_order": ORDER, "grid_coords": GRID,
              **kwargs}
    with pytest.raises(ValueError, match=message):
        leds = [LedConfig(pos, 8e5 + 1e4 * k) for k, pos in enumerate(fields["led_positions"])]
        channel = dataclasses.replace(BENCH_PLAN.channel,
                                      lambertian_order=fields["lambertian_order"])
        RssrSolver(leds, channel, fields["grid_coords"])
        dataclasses.replace(BENCH_PLAN, leds=tuple(leds), channel=channel)
