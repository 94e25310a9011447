import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import synth_reference
from vlcloc import channel, config
from vlcloc.channel import (ChannelParams, LedConfig, PdPose, attenuation,
                            distance, lambertian_order_from_semiangle,
                            propagation_delay, synthesize_received)
from vlcloc.spectral import build_fingerprints

BENCH_PLAN = config.plan_from_config(config.benchmark_config())
# -ln 2 / ln cos(22 deg), evaluated with mpmath at 40 digits
LAMBERTIAN_ORDER_22DEG = 9.168201146812517


def make_params(order=1.0, noise=0.0, rate=4e6, area=1e-4):
    return ChannelParams(lambertian_order=order, pd_area=area, noise_std=noise,
                         sample_rate=rate)


class TestLambertianOrder:
    def test_sixty_degrees_gives_one(self):
        assert lambertian_order_from_semiangle(60.0) == pytest.approx(1.0, rel=1e-12)

    def test_forty_five_degrees_gives_two(self):
        assert lambertian_order_from_semiangle(45.0) == pytest.approx(2.0, rel=1e-12)

    def test_twenty_two_degrees_matches_high_precision_value(self):
        assert lambertian_order_from_semiangle(22.0) == pytest.approx(
            LAMBERTIAN_ORDER_22DEG, rel=1e-14)

    @pytest.mark.parametrize("angle", [0.0, -5.0, 90.0, 120.0])
    def test_out_of_range_angle_rejected(self, angle):
        # the semi-angle enters only as channel.semi_angle_deg
        cfg = config.benchmark_config()
        cfg["channel"]["semi_angle_deg"] = angle
        with pytest.raises(config.ConfigError,
                           match=f"channel.semi_angle_deg: must be in \\(0, 90\\), got {angle}"):
            config.plan_from_config(cfg)


class TestDistance:
    def test_directly_beneath(self):
        led = LedConfig(position=[0.0, 0.0, 2.0], frequency=1e3)
        assert distance(led, PdPose.at(0.0, 0.0)) == pytest.approx(2.0, abs=0)

    def test_three_four_five(self):
        led = LedConfig(position=[3.0, 0.0, 4.0], frequency=1e3)
        assert distance(led, PdPose.at(0.0, 0.0)) == pytest.approx(5.0, rel=1e-15)

    def test_testbed_corner_geometry(self):
        led = LedConfig(position=[1.56, 0.70, 1.48], frequency=800e3)
        expected = math.sqrt(1.56**2 + 0.70**2 + 1.48**2)
        assert distance(led, PdPose.at(0.0, 0.0)) == pytest.approx(expected, rel=1e-15)


class TestAttenuation:
    def test_beneath_led_matches_scalar_formula(self):
        led = LedConfig(position=[0.0, 0.0, 2.0], frequency=1e3)
        params = make_params(order=1.0, area=1e-4)
        # cos = 1 directly beneath: (m+1) S / (2 pi d^2)
        expected = 2.0 * 1e-4 / (2.0 * math.pi * 4.0)
        assert attenuation(led, PdPose.at(0.0, 0.0), params) == pytest.approx(
            expected, rel=1e-14)

    def test_off_axis_matches_scalar_formula(self):
        led = LedConfig(position=[0.4, -0.3, 1.48], frequency=1e3)
        m = LAMBERTIAN_ORDER_22DEG
        params = make_params(order=m, area=2e-4)
        d = math.sqrt(0.4**2 + 0.3**2 + 1.48**2)
        cos = 1.48 / d
        expected = (m + 1.0) * 2e-4 / (2.0 * math.pi * d * d) * cos**m * cos
        assert attenuation(led, PdPose.at(0.0, 0.0), params) == pytest.approx(
            expected, rel=1e-13)

    def test_mirror_symmetric_positions_equal(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=1e3)
        params = make_params(order=3.0)
        a1 = attenuation(led, PdPose.at(0.25, 0.1), params)
        a2 = attenuation(led, PdPose.at(-0.25, -0.1), params)
        assert a1 == pytest.approx(a2, rel=1e-14)

    def test_strictly_decreasing_with_horizontal_offset(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=1e3)
        params = make_params(order=LAMBERTIAN_ORDER_22DEG)
        offsets = np.linspace(0.0, 2.0, 41)
        values = [attenuation(led, PdPose.at(x, 0.0), params) for x in offsets]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def assert_near_longdouble(leds, pd, params, n):
    """Noise-free synthesis within 4 ulps of the signal peak 2 * sum(a) of the
    longdouble reference, and no further from it than the per-sample formula."""
    y = synthesize_received(leds, pd, params, n)
    ref = synth_reference.longdouble_received(leds, pd, params, n)
    peak = 2.0 * sum(a for a, _ in synth_reference.tone_terms(leds, pd, params))
    err = float(np.abs(y - ref).max())
    assert y.shape == (n,)
    assert err <= 4.0 * np.spacing(peak)
    old = synth_reference.reference_received(leds, pd, params, n, rng_seed=0)
    assert err <= float(np.abs(old - ref).max())


class TestSynthesize:
    @staticmethod
    def survey(streams, params, seeds):
        """The streams' fingerprints as the survey makes them (N = 1000 blocks
        read at 800 kHz, bin 200), with params' receiver noise drawn from the
        seeds at the tone bins: the waveform itself carries no noise."""
        grid = [[0.0, float(g)] for g in range(len(streams))]
        return build_fingerprints(streams, grid, 1000, [800e3], params.sample_rate,
                                  params.noise_std, seeds).rss

    def test_single_led_closed_form(self):
        led = LedConfig(position=[0.3, -0.2, 1.48], frequency=850e3, amplitude=1.3, gain=7.0)
        assert_near_longdouble([led], PdPose.at(0.1, 0.1), make_params(order=2.0), 400_000)

    @pytest.mark.parametrize("xy", [(0.0, 0.0), (0.35, 0.2), (0.7, 0.7)])
    def test_benchmark_leds_match_longdouble_over_a_full_survey(self, xy):
        plan = config.plan_from_config(config.benchmark_config())
        params = dataclasses.replace(plan.channel, noise_std=0.0)
        n = plan.blocks_per_grid * plan.fft_len
        assert_near_longdouble(list(plan.leds), PdPose.at(*xy), params, n)

    @pytest.mark.parametrize("n", [1, channel._ROW_LEN - 1, channel._ROW_LEN,
                                   channel._ROW_LEN + 1, 2 * channel._ROW_LEN + 7, 400_000])
    def test_lengths_and_non_integer_tones(self, n):
        # a tone on a 2**-23 Hz grid, 44 significant bits: f * n rounds in
        # double from n = 2**9 on (so the reduction must split f), but stays
        # exact in the longdouble reference up to n = 2**20
        odd_tone = round(1.23456789e6 * 2**23) / 2**23
        leds = [LedConfig(position=[0.5, 0.2, 1.5], frequency=801.5e3, gain=3.0),
                LedConfig(position=[-0.4, 0.1, 1.5], frequency=odd_tone, gain=2.0)]
        assert_near_longdouble(leds, PdPose.at(0.1, -0.2), make_params(order=1.5), n)

    def test_noise_is_the_seeded_normal_draw(self):
        # the noise of a 10-block recording is one standard normal draw from
        # the seed, (blocks, cos and sin sums of bins 199..201), each value
        # scaled to white noise's std at an inner bin, noise_std * sqrt(N / 2)
        led = LedConfig(position=[0.3, -0.2, 1.48], frequency=800e3, gain=20.0)
        params = make_params(noise=0.01)
        y = synthesize_received([led], PdPose.at(0.1, 0.1), params, 10_000)
        spec = np.fft.fft(y.reshape(10, 1000), axis=1)[:, 199:202]
        z = np.random.default_rng(5).standard_normal((10, 6)) * 0.01 * math.sqrt(500)
        power = ((spec.real + z[:, :3]) ** 2 + (-spec.imag + z[:, 3:]) ** 2) / 1000
        got = self.survey([y], params, [5])[0, :, 0]
        np.testing.assert_allclose(10.0 ** (got / 10.0), power.max(axis=1), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("noise", [0.01, 0.0])
    @pytest.mark.parametrize("n", [1, channel._ROW_LEN + 1, 65535, 65536, 65537,
                                   3 * 65536 + 7, 400_000])
    def test_chunked_noise_equals_one_whole_draw(self, n, noise):
        # lengths around the 64 K-sample edges where the DC sum and the noise
        # once went in by chunks. The noise is now one whole draw per stream
        # at the tone bins (test_noise_is_the_seeded_normal_draw), so the
        # waveform must equal the noise-free basis product whatever noise_std.
        # Two tone sets called in turn, so a basis cached under the wrong key
        # would hand one set's tones to the other
        pd = PdPose.at(0.1, -0.2)
        params = make_params(order=1.5, noise=noise)
        tone_sets = [[LedConfig(position=[0.5, 0.2, 1.5], frequency=801.5e3, gain=3.0),
                      LedConfig(position=[-0.4, 0.1, 1.5], frequency=955e3, gain=2.0)],
                     [LedConfig(position=[0.5, 0.2, 1.5], frequency=1.1e6, gain=3.0),
                      LedConfig(position=[-0.4, 0.1, 1.5], frequency=955e3, gain=2.0)]]
        for leds in tone_sets + tone_sets:
            y = synthesize_received(leds, pd, params, n)
            assert np.array_equal(y, synth_reference.basis_product_received(leds, pd, params, n))

    def test_no_full_length_temporary(self):
        # y's own buffer, the tone basis built inside the call, and as much
        # again for the per-row coefficients; a full-length temporary (3.2 MB)
        # would be twelve times that allowance. The warm-up call on another tone
        # set imports what the call needs, but leaves this tone set's basis
        # to be built inside the traced call.
        plan = config.plan_from_config(config.benchmark_config())
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=777e3)
        synthesize_received([led], PdPose.at(0, 0), plan.channel, 1)
        channel._tone_basis.cache_clear()
        tracemalloc.start()
        try:
            y = synthesize_received(list(plan.leds), PdPose.at(0.35, 0.2), plan.channel,
                                    400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        basis = channel._tone_basis(tuple(plan.tones.tolist()), plan.channel.sample_rate)
        assert peak <= y.base.nbytes + 2 * basis.nbytes

    def test_superposition_of_two_leds(self):
        led1 = LedConfig(position=[1.0, 0.5, 1.5], frequency=800e3, gain=3.0)
        led2 = LedConfig(position=[-0.5, 1.0, 1.5], frequency=950e3, gain=5.0)
        pd = PdPose.at(0.2, 0.3)
        params = make_params(order=1.5, noise=0.0)
        both = synthesize_received([led1, led2], pd, params, 2000)
        solo = (synthesize_received([led1], pd, params, 2000)
                + synthesize_received([led2], pd, params, 2000))
        np.testing.assert_allclose(both, solo, rtol=0, atol=1e-15)

    def test_fixed_seed_bit_identical(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=800e3)
        params = make_params(noise=0.01)
        y = synthesize_received([led], PdPose.at(0, 0), params, 4000)
        first = self.survey([y, y], params, [42, 43])
        np.testing.assert_array_equal(first, self.survey([y, y], params, iter([42, 43])))
        assert not np.array_equal(first[0], first[1])

    def test_different_seeds_differ(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=800e3)
        params = make_params(noise=0.01)
        y = synthesize_received([led], PdPose.at(0, 0), params, 4000)
        assert not np.array_equal(self.survey([y], params, [1]), self.survey([y], params, [2]))

    # synthesize_received trusts the plan every survey is made from: the
    # plan rejects the LEDs, sample rates and durations (blocks_per_grid *
    # fft_len samples) that the survey cannot take.
    def test_empty_led_list_rejected(self):
        with pytest.raises(ValueError, match="rssr needs at least 3 LEDs, got 0"):
            dataclasses.replace(BENCH_PLAN, leds=())

    def test_sample_rate_below_nyquist_rejected(self):
        slow = dataclasses.replace(BENCH_PLAN.channel, sample_rate=1.9e6)  # tones to 950 kHz
        with pytest.raises(ValueError, match="sample_rate 1900000.0 Hz must exceed twice"):
            dataclasses.replace(BENCH_PLAN, channel=slow)

    def test_nonpositive_duration_rejected(self):
        for n in (0, -5, np.int64(0)):
            with pytest.raises(ValueError, match="blocks_per_grid >= 1 required"):
                dataclasses.replace(BENCH_PLAN, blocks_per_grid=n)

    @pytest.mark.parametrize("n", [4000.0, 4000.5, np.float64(4000), True, np.bool_(True),
                                   "4000", None], ids=repr)
    def test_non_integer_duration_rejected(self, n):
        for field in ("fft_len", "blocks_per_grid"):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
                dataclasses.replace(BENCH_PLAN, **{field: n})

    @pytest.mark.parametrize("n", [np.int64(4000), np.uint16(4000), np.int32(4000)])
    def test_numpy_integer_duration_accepted(self, n):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=800e3)
        params = make_params(noise=0.01)
        y = synthesize_received([led], PdPose.at(0, 0), params, n)
        assert np.array_equal(y, synthesize_received([led], PdPose.at(0, 0), params, 4000))


class TestDelay:
    def test_delay_is_distance_over_speed_of_light(self):
        led = LedConfig(position=[1.56, 0.70, 1.48], frequency=800e3)
        pd = PdPose.at(0.0, 0.0)
        assert channel.SPEED_OF_LIGHT == 299792458.0
        assert propagation_delay(led, pd) == distance(led, pd) / 299792458.0

    def test_room_scale_phase_under_tenth_radian_at_1mhz(self):
        # worst-case room-scale path ~ 4 m
        led = LedConfig(position=[2.5, 2.5, 2.0], frequency=1e6)
        pd = PdPose.at(0.0, 0.0)
        tau = propagation_delay(led, pd)
        assert 2.0 * math.pi * 1e6 * tau < 0.1


class TestValidation:
    def test_led_height_must_be_positive(self):
        with pytest.raises(ValueError):
            LedConfig(position=[0.0, 0.0, 0.0], frequency=1e3)

    def test_led_frequency_must_be_positive(self):
        with pytest.raises(ValueError):
            LedConfig(position=[0.0, 0.0, 1.0], frequency=0.0)

    def test_led_gain_nonnegative(self):
        with pytest.raises(ValueError):
            LedConfig(position=[0.0, 0.0, 1.0], frequency=1e3, gain=-1.0)

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            make_params(order=0.0)
        with pytest.raises(ValueError):
            make_params(noise=-1.0)
