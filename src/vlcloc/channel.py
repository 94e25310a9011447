"""LOS visible-light IM/DD channel simulation.

Each LED i transmits a DC-biased tone s_i(t) = 1 + cos(2*pi*f_i*t). The
photodiode sees

    y(t) = sum_i alpha_i * gain_i * amp_i * s_i(t - tau_i) + n(t)

with Lambertian attenuation alpha_i, propagation delay tau_i = d_i / c and
additive white Gaussian noise n(t). Geometry is fixed vertical: LEDs point
straight down from height h, the PD points straight up from the z = 0 plane,
so the radiation and incidence angles share cos = h / d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


def lambertian_order_from_semiangle(semi_angle_deg: float) -> float:
    """Lambertian order m = -ln(2) / ln(cos(semi_angle)) from the half-power semi-angle."""
    if not 0.0 < semi_angle_deg < 90.0:
        raise ValueError(f"semi-angle must be in (0, 90) degrees, got {semi_angle_deg}")
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
        if pos[2] <= 0.0:
            raise ValueError(f"LED height must be positive, got {pos[2]}")
        if self.frequency <= 0.0:
            raise ValueError(f"LED tone frequency must be positive, got {self.frequency}")
        if self.gain < 0.0:
            raise ValueError(f"LED gain must be non-negative, got {self.gain}")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class ChannelParams:
    """Shared channel constants: Lambertian order, PD area, noise level, sampling."""

    lambertian_order: float
    pd_area: float               # m^2
    noise_std: float             # per-sample std of n(t), signal units
    sample_rate: float           # Hz
    speed_of_light: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.lambertian_order <= 0.0:
            raise ValueError("lambertian_order must be positive")
        if self.pd_area <= 0.0:
            raise ValueError("pd_area must be positive")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class PdPose:
    """Receiver pose: position on the z = 0 plane, normal pointing straight up."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError(f"PD position must be a 3-vector, got shape {pos.shape}")
        if pos[2] != 0.0:
            raise ValueError(f"PD must sit on the z = 0 plane, got z = {pos[2]}")
        object.__setattr__(self, "position", pos)

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


def propagation_delay(led: LedConfig, pd: PdPose, params: ChannelParams) -> float:
    """Time-of-flight tau = d / c in seconds."""
    return distance(led, pd) / params.speed_of_light


def synthesize_received(
    leds: list[LedConfig],
    pd: PdPose,
    params: ChannelParams,
    duration_samples: int,
    rng_seed,
) -> np.ndarray:
    """Sample the received waveform y(t) at the PD.

    Each tone arrives as amp * (1 + cos(2*pi*f*t - 2*pi*f*tau)) scaled by
    alpha * gain; the delay acts as a pure phase offset, which is exact for
    continuous tones cut into plain (unweighted) blocks. Noise is zero-mean
    Gaussian with std params.noise_std, drawn from rng_seed.
    """
    if not leds:
        raise ValueError("at least one LED is required")
    if duration_samples <= 0:
        raise ValueError(f"duration_samples must be positive, got {duration_samples}")
    f_max = max(led.frequency for led in leds)
    if params.sample_rate <= 2.0 * f_max:
        raise ValueError(
            f"sample_rate {params.sample_rate} Hz must exceed twice the highest "
            f"tone ({f_max} Hz)"
        )

    t = np.arange(duration_samples, dtype=float) / params.sample_rate
    y = np.zeros(duration_samples)
    for led in leds:
        a = attenuation(led, pd, params) * led.gain * led.amplitude
        phase = 2.0 * math.pi * led.frequency * propagation_delay(led, pd, params)
        y += a * (1.0 + np.cos(2.0 * math.pi * led.frequency * t - phase))
    if params.noise_std > 0.0:
        rng = np.random.default_rng(rng_seed)
        y += rng.normal(0.0, params.noise_std, duration_samples)
    return y
