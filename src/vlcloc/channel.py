"""LOS visible-light IM/DD channel simulation.

Each LED i transmits a DC-biased tone s_i(t) = 1 + cos(2*pi*f_i*t). The
photodiode sees

    y(t) = sum_i alpha_i * gain_i * amp_i * s_i(t - tau_i) + n(t)

with Lambertian attenuation alpha_i, propagation delay tau_i = d_i / c and
additive white Gaussian noise n(t). Geometry is fixed vertical: LEDs point
straight down from height h, the PD points straight up from the z = 0 plane,
so the radiation and incidence angles share cos = h / d.

Synthesis works on a tone basis: cut into rows of B samples, the noise-free
signal is one (rows, 2M) @ (2M, B) product of per-row cos / sin coefficients
and per-column cos / sin tones (angle addition), plus the DC sum. The
(2M, B) basis depends only on the tone frequencies and the sample rate, so it
is built once per tone set. The waveform stays noise-free: the fingerprint
reads only a few DFT bins per block, and spectral.build_fingerprints draws
n(t)'s contribution to those bins there.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
_ROW_LEN = 2048  # samples per tone-basis row; 512-2048 cost the same within 20 %


def lambertian_order_from_semiangle(semi_angle_deg: float) -> float:
    """Lambertian order m = -ln(2) / ln(cos(semi_angle)) from the half-power
    semi-angle, which the config holds in (0, 90) degrees."""
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


@dataclass(frozen=True)
class LedConfig:
    """One ceiling transmitter: position, tone frequency, drive amplitude and
    the optical-to-electrical conversion gain folded into one scalar."""

    position: np.ndarray  # [x, y, h] meters
    frequency: float      # Hz
    amplitude: float = 1.0
    gain: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError(f"LED position must be a 3-vector, got shape {pos.shape}")
        if not (np.isfinite(pos).all() and pos[2] > 0.0):
            raise ValueError(f"LED position must be finite with a positive height, got {pos}")
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"LED tone frequency must be positive, got {self.frequency}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"LED amplitude must be finite, got {self.amplitude}")
        if not 0.0 <= self.gain < math.inf:
            raise ValueError(f"LED gain must be non-negative, got {self.gain}")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class ChannelParams:
    """Shared channel constants: Lambertian order, PD area, noise level, sampling."""

    lambertian_order: float
    pd_area: float               # m^2
    noise_std: float             # per-sample std of n(t), signal units
    sample_rate: float           # Hz

    def __post_init__(self):
        if not 0.0 < self.lambertian_order < math.inf:
            raise ValueError("lambertian_order must be positive and finite")
        if not 0.0 < self.pd_area < math.inf:
            raise ValueError("pd_area must be positive and finite")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be non-negative and finite")
        if not 0.0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")


@dataclass(frozen=True)
class PdPose:
    """Receiver pose: position on the z = 0 plane, normal pointing straight up.
    Built by `at` from a plan's grid coordinates, which the plan keeps finite."""

    position: np.ndarray

    @classmethod
    def at(cls, x: float, y: float) -> "PdPose":
        return cls(np.array([x, y, 0.0]))


def distance(led: LedConfig, pd: PdPose) -> float:
    """Euclidean LED-to-PD distance d = sqrt(h^2 + (x_i - x)^2 + (y_i - y)^2)."""
    return float(np.linalg.norm(led.position - pd.position))


def attenuation(led: LedConfig, pd: PdPose, params: ChannelParams) -> float:
    """Lambertian channel attenuation for the vertical geometry.

    alpha = (m + 1) * S / (2*pi*d^2) * (h/d)^m * (h/d), i.e. the generalized
    Lambertian loss with cos(radiation) = cos(incidence) = h / d.
    """
    d = distance(led, pd)
    m = params.lambertian_order
    h = led.position[2]
    cos = h / d
    return (m + 1.0) * params.pd_area / (2.0 * math.pi * d * d) * cos ** m * cos


def propagation_delay(led: LedConfig, pd: PdPose) -> float:
    """Time-of-flight tau = d / c in seconds."""
    return distance(led, pd) / SPEED_OF_LIGHT


def _tone_angles(n: np.ndarray, freq: np.ndarray, fs: float) -> np.ndarray:
    """(len(n), M) angles 2*pi*(f*n mod fs)/fs of sample indices n. f splits
    into its float32 rounding, whose product with n < 2**29 fmod reduces
    exactly, and a small tail: the rounding stays ~1 ulp however large n."""
    head = freq.astype(np.float32).astype(float)
    n = n[:, np.newaxis]
    return (2.0 * math.pi / fs) * (np.fmod(n * head, fs) + n * (freq - head))


@functools.lru_cache(maxsize=8)
def _tone_basis(freq: tuple[float, ...], fs: float) -> np.ndarray:
    """The read-only (2M, _ROW_LEN) basis [cos(w j); sin(w j)] of the tones
    freq over one row's sample offsets j. Every grid point of a survey shares
    it, and the cache hands the same array to each caller."""
    wj = _tone_angles(np.arange(_ROW_LEN, dtype=float), np.array(freq), fs).T
    basis = np.vstack([np.cos(wj), np.sin(wj)])
    basis.flags.writeable = False
    return basis


def synthesize_received(
    leds: Sequence[LedConfig],
    pd: PdPose,
    params: ChannelParams,
    duration_samples: int,
) -> np.ndarray:
    """Sample the noise-free received waveform y(t) at the PD.

    Each tone arrives as amp * (1 + cos(2*pi*f*t - 2*pi*f*tau)) scaled by
    alpha * gain; the delay acts as a pure phase offset, which is exact for
    continuous tones cut into plain (unweighted) blocks. params.noise_std is
    not used here: build_fingerprints adds the noise at the tone bins.
    The cos / sin tone basis is built once per (tone frequencies, sample rate).
    The plan guarantees LEDs, a positive duration and a rate above 2 f_max.
    """
    n = int(duration_samples)  # a numpy unsigned would wrap in -(-n // B)
    freq = np.array([led.frequency for led in leds])
    fs = params.sample_rate
    amp = np.array([attenuation(led, pd, params) * led.gain * led.amplitude for led in leds])
    phase = 2.0 * math.pi * freq * [propagation_delay(led, pd) for led in leds]

    # sample r * B + j: cos(theta_r + w j) = cos(theta_r) cos(w j) - sin(theta_r) sin(w j)
    rows = -(-n // _ROW_LEN)
    theta = _tone_angles(np.arange(rows) * float(_ROW_LEN), freq, fs) - phase
    coeff = np.hstack([amp * np.cos(theta), -amp * np.sin(theta)])
    y = (coeff @ _tone_basis(tuple(freq.tolist()), fs)).ravel()[:n]
    y += amp.sum()
    return y
