"""Time-domain synthesis oracles for channel.synthesize_received.

reference_received is the per-sample cosine formula the tone-basis product
replaced, with its arithmetic unchanged: one np.cos of 2*pi*f*t - phase per
sample and tone, then the noise draw.
basis_product_received is the tone-basis product as it stood before the
basis was cached: the basis rebuilt on each call, then the DC sum added in
one pass over y. The synthesis must equal it bit for bit.
longdouble_received evaluates the same noise-free signal from the same
double-precision gains and phases in np.longdouble, as the accuracy yardstick
for all of them.
"""

import math

import numpy as np

from vlcloc.channel import _ROW_LEN, _tone_angles, attenuation, propagation_delay

# pi to 36 digits, so the longdouble angle does not inherit double's pi
PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def tone_terms(leds, pd, params):
    """Per LED: (amplitude alpha * gain * amp, phase 2*pi*f*tau), in double."""
    return [(attenuation(led, pd, params) * led.gain * led.amplitude,
             2.0 * math.pi * led.frequency * propagation_delay(led, pd))
            for led in leds]


def reference_received(leds, pd, params, duration_samples: int, rng_seed) -> np.ndarray:
    """y(t) sampled with one cosine per sample and tone, plus the same noise draw."""
    t = np.arange(duration_samples, dtype=float) / params.sample_rate
    y = np.zeros(duration_samples)
    for led, (a, phase) in zip(leds, tone_terms(leds, pd, params)):
        y += a * (1.0 + np.cos(2.0 * math.pi * led.frequency * t - phase))
    if params.noise_std > 0.0:
        rng = np.random.default_rng(rng_seed)
        y += rng.normal(0.0, params.noise_std, duration_samples)
    return y


def basis_product_received(leds, pd, params, duration_samples: int) -> np.ndarray:
    """The noise-free tone-basis product, then y += DC sum."""
    freq = np.array([led.frequency for led in leds])
    fs = params.sample_rate
    amp = np.array([a for a, _ in tone_terms(leds, pd, params)])
    phase = 2.0 * math.pi * freq * [propagation_delay(led, pd) for led in leds]
    rows = -(-duration_samples // _ROW_LEN)
    theta = _tone_angles(np.arange(rows) * float(_ROW_LEN), freq, fs) - phase
    wj = _tone_angles(np.arange(_ROW_LEN, dtype=float), freq, fs).T
    coeff = np.hstack([amp * np.cos(theta), -amp * np.sin(theta)])
    y = (coeff @ np.vstack([np.cos(wj), np.sin(wj)])).ravel()[:duration_samples]
    y += amp.sum()
    return y


def longdouble_received(leds, pd, params, duration_samples: int) -> np.ndarray:
    """The noise-free y(t) in np.longdouble.

    The angle 2*pi*f*n/fs is taken as 2*pi*(f*n mod fs)/fs: fmod is exact, so
    the only rounding left is that of an angle below one cycle, where a
    longdouble ulp is ~1e-18 rad. (At n = 4e5 the plain product would carry
    ~5e-14 rad of rounding, more than the double-precision paths under test.)
    """
    fs = np.longdouble(params.sample_rate)
    n = np.arange(duration_samples, dtype=np.longdouble)
    y = np.zeros(duration_samples, dtype=np.longdouble)
    for led, (a, phase) in zip(leds, tone_terms(leds, pd, params)):
        arg = 2 * PI_LONG * np.fmod(np.longdouble(led.frequency) * n, fs) / fs - np.longdouble(phase)
        y += np.longdouble(a) * (1 + np.cos(arg))
    return y
