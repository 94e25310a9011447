import math

import numpy as np
import pytest

from vlcloc.channel import (ChannelParams, LedConfig, PdPose, attenuation,
                            distance, lambertian_order_from_semiangle,
                            propagation_delay, synthesize_received)

# -ln 2 / ln cos(22 deg), evaluated with mpmath at 40 digits
LAMBERTIAN_ORDER_22DEG = 9.168201146812517


def make_params(order=1.0, noise=0.0, rate=4e6, area=1e-4, c=299792458.0):
    return ChannelParams(lambertian_order=order, pd_area=area, noise_std=noise,
                         sample_rate=rate, speed_of_light=c)


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
        with pytest.raises(ValueError):
            lambertian_order_from_semiangle(angle)


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


class TestSynthesize:
    def test_single_led_closed_form(self):
        led = LedConfig(position=[0.3, -0.2, 1.48], frequency=850e3, amplitude=1.3, gain=7.0)
        pd = PdPose.at(0.1, 0.1)
        params = make_params(order=2.0, noise=0.0)
        n = 4000
        y = synthesize_received([led], pd, params, n, rng_seed=0)
        a = attenuation(led, pd, params) * led.gain * led.amplitude
        t = np.arange(n) / params.sample_rate
        phase = 2.0 * math.pi * led.frequency * propagation_delay(led, pd, params)
        expected = a * (1.0 + np.cos(2.0 * math.pi * led.frequency * t - phase))
        np.testing.assert_array_equal(y, expected)

    def test_superposition_of_two_leds(self):
        led1 = LedConfig(position=[1.0, 0.5, 1.5], frequency=800e3, gain=3.0)
        led2 = LedConfig(position=[-0.5, 1.0, 1.5], frequency=950e3, gain=5.0)
        pd = PdPose.at(0.2, 0.3)
        params = make_params(order=1.5, noise=0.0)
        both = synthesize_received([led1, led2], pd, params, 2000, rng_seed=1)
        solo = (synthesize_received([led1], pd, params, 2000, rng_seed=1)
                + synthesize_received([led2], pd, params, 2000, rng_seed=1))
        np.testing.assert_allclose(both, solo, rtol=0, atol=1e-15)

    def test_fixed_seed_bit_identical(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=800e3)
        params = make_params(noise=0.01)
        y1 = synthesize_received([led], PdPose.at(0, 0), params, 1024, rng_seed=42)
        y2 = synthesize_received([led], PdPose.at(0, 0), params, 1024, rng_seed=42)
        np.testing.assert_array_equal(y1, y2)

    def test_different_seeds_differ(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=800e3)
        params = make_params(noise=0.01)
        y1 = synthesize_received([led], PdPose.at(0, 0), params, 1024, rng_seed=1)
        y2 = synthesize_received([led], PdPose.at(0, 0), params, 1024, rng_seed=2)
        assert not np.array_equal(y1, y2)

    def test_empty_led_list_rejected(self):
        with pytest.raises(ValueError):
            synthesize_received([], PdPose.at(0, 0), make_params(), 100, rng_seed=0)

    def test_sample_rate_below_nyquist_rejected(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=2.5e6)
        with pytest.raises(ValueError, match="sample_rate"):
            synthesize_received([led], PdPose.at(0, 0), make_params(rate=4e6), 100, rng_seed=0)

    def test_nonpositive_duration_rejected(self):
        led = LedConfig(position=[0.0, 0.0, 1.5], frequency=800e3)
        with pytest.raises(ValueError):
            synthesize_received([led], PdPose.at(0, 0), make_params(), 0, rng_seed=0)


class TestDelay:
    def test_doubling_c_halves_delay(self):
        led = LedConfig(position=[1.56, 0.70, 1.48], frequency=800e3)
        pd = PdPose.at(0.0, 0.0)
        tau = propagation_delay(led, pd, make_params(c=299792458.0))
        tau2 = propagation_delay(led, pd, make_params(c=2 * 299792458.0))
        assert tau2 == pytest.approx(tau / 2.0, rel=1e-15)

    def test_room_scale_phase_under_tenth_radian_at_1mhz(self):
        # worst-case room-scale path ~ 4 m
        led = LedConfig(position=[2.5, 2.5, 2.0], frequency=1e6)
        pd = PdPose.at(0.0, 0.0)
        tau = propagation_delay(led, pd, make_params())
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

    def test_pd_off_plane_rejected(self):
        with pytest.raises(ValueError):
            PdPose(np.array([0.0, 0.0, 0.1]))

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            make_params(order=0.0)
        with pytest.raises(ValueError):
            make_params(noise=-1.0)
