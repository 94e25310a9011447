import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rssr_reference
from vlcloc import config, experiment
from vlcloc.baselines import SCAN_MARGIN, RssrSolver
from vlcloc.channel import LedConfig
from vlcloc.spectral import FingerprintDB

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
    """A fingerprint row reaches locate only as a row of a FingerprintDB that
    run_experiment has matched to its plan: the DB rejects a row of another
    shape and a non-finite level, and the match a level outside RSSR's
    +-DB_LIMIT dB, before any training."""
    plan = dataclasses.replace(BENCH_PLAN, grid_q=3, blocks_per_grid=20, knn_k=5)
    row = np.asarray(query, dtype=float)
    if row.shape != (4,):
        message = "rss must have shape"
    elif not np.isfinite(row).all():
        message = "RSS of grid 0, block 0, tone"
    else:
        tone = np.flatnonzero(np.abs(row) >= 6000.0)[0]
        message = (f"fingerprint DB RSS of grid 0, block 0, tone {tone} is {row[tone]:g} dB, "
                   "outside RSSR's \\+-6000 dB")
    with pytest.raises((ValueError, experiment.ExperimentError), match=message):
        db = FingerprintDB(plan.grid_coords, np.broadcast_to(row, (9, 20, *row.shape)),
                           plan.tones, plan.fft_len, plan.channel.sample_rate)
        experiment.run_experiment(plan, db)


# the RssrSolver check that rejected each case's input -> the message of the
# entry that rejects it now: the LEDs, channel and grid are the plan's
NOW_REJECTED_BY = {
    "at least 3 LED positions": "rssr needs at least 3 LEDs",
    "distinct": "LED positions must be distinct",
    "lambertian_order": "lambertian_order must be positive and finite",
    "non-empty rectangle": "grid needs q >= 2 and a positive spacing",
    "finite, non-empty rectangle": "grid needs q >= 2 and a positive spacing",
    "finite": "LED position must be finite",
    "3-vector": "LED position must be a 3-vector",
}


@pytest.mark.parametrize("kwargs, message", [
    ({"led_positions": LEDS[:2]}, "at least 3 LED positions"),
    ({"led_positions": LEDS[:0]}, "at least 3 LED positions"),
    ({"led_positions": np.vstack([LEDS, LEDS[:1]])}, "distinct"),
    ({"lambertian_order": 0.0}, "lambertian_order"),
    ({"lambertian_order": math.nan}, "lambertian_order"),
    ({"grid_spacing": math.nan}, "non-empty rectangle"),
    ({"grid_q": 0}, "non-empty rectangle"),
    ({"grid_q": 1}, "non-empty rectangle"),
    ({"grid_spacing": 1e308}, "non-empty rectangle"),  # its extent overflows
    ({"led_positions": np.vstack([[math.nan, 0.0, 1.5], LEDS[1:]])}, "finite"),
    ({"lambertian_order": math.inf}, "lambertian_order"),
    ({"grid_spacing": math.inf}, "finite, non-empty rectangle"),
    ({"grid_spacing": -math.inf}, "finite, non-empty rectangle"),
    ({"led_positions": LEDS[:, :2]}, "3-vector"),
    ({"grid_spacing": 0.0}, "non-empty rectangle"),
])
def test_rssr_config_rejects_each_bad_field(kwargs, message):
    """The RSSR configuration is the plan's LEDs, channel and grid that
    RssrSolver is built from: LedConfig rejects a non-finite or wrongly
    shaped LED position, ChannelParams a Lambertian order of 0, NaN or inf,
    and ExperimentPlan too few LEDs, two at one position and a grid without
    a positive, finite extent (message names the solver check each case once
    met; NOW_REJECTED_BY maps it to the entry's)."""
    fields = {"led_positions": LEDS, "lambertian_order": ORDER, **kwargs}
    with pytest.raises(ValueError, match=NOW_REJECTED_BY[message]):
        leds = tuple(LedConfig(pos, 8e5 + 1e4 * k)
                     for k, pos in enumerate(fields.pop("led_positions")))
        channel = dataclasses.replace(BENCH_PLAN.channel,
                                      lambertian_order=fields.pop("lambertian_order"))
        dataclasses.replace(BENCH_PLAN, leds=leds, channel=channel, **fields)
