"""JSON experiment configuration: schema validation and plan construction.

Config layout (every key shown; `?` marks an optional key)::

    {
      "geometry": {
        "grid": {"q": int, "spacing_m": m},
        "leds": [
          {"position_m": [x, y, h], "frequency_hz": f,
           "amplitude"?: a, "gain"?: g},
          ...
        ]
      },
      "channel": {
        "semi_angle_deg": deg,
        "pd_area_m2": m2,
        "noise_std": std,
        "sample_rate_hz": hz
      },
      "spectral": {"fft_len": int, "blocks_per_grid": int},
      "split"?: {"train"?: frac, "offline"?: frac, "online"?: frac, "shuffle"?: bool},
      "classifiers"?: {"knn"?: {"k"?: int}},
      "run": {"seed": int}
    }

An omitted optional key takes the default of the field it sets: those of
`LedConfig`, `SplitRatios` and `ExperimentPlan`. Those defaults are the only
copy; `benchmark_config()` is the calibrated testbed, not a list of defaults.
`vlcloc table1` reads grid point 0 at the FFT lengths
`experiment.TABLE1_FFT_LENS`, over `spectral.blocks_per_grid` blocks, so no
other config key sets it. Every run trains KNN, ELM and RF, in that order,
and scores all seven methods (`experiment.ALL_METHODS`), so no key selects
them; `geometry.leds` needs at least 3 LEDs at distinct positions, as RSSR
does. Fixed parts of the method are module constants, not keys: the speed
of light (`channel.SPEED_OF_LIGHT`), ELM's hidden units and RF's trees and
depth (`experiment.ELM_HIDDEN`, `RF_TREES`, `RF_DEPTH`), the RSSR scan
resolution and margin (`baselines.SCAN_RESOLUTION`, `baselines.SCAN_MARGIN`),
the LS-SVD rank cutoff (1e-10 * max(L, H) of sigma_max,
`fusion.ls_svd_weights`) and the error-CDF thresholds
(`experiment.CDF_THRESHOLDS`).

plan_from_config checks each key as it reads it and rejects unknown keys
anywhere, before any computation, so a bad config fails fast.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from .channel import ChannelParams, LedConfig, lambertian_order_from_semiangle
from .experiment import ExperimentPlan, SplitRatios


class ConfigError(ValueError):
    """Configuration file failed schema validation."""


def _check_keys(section: dict, path: str, required: set[str] = frozenset(),
                optional: set[str] = frozenset()) -> dict:
    """The section itself, once it is an object with the required keys and no others."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    return section


def _number(section: dict, key: str, path: str, minimum=None):
    if key not in section:
        return None
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return float(v)


def _integer(section: dict, key: str, path: str, minimum=None):
    if key not in section:
        return None
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return v


def _set(**kwargs) -> dict:
    """The keyword arguments the config sets, so that a key it leaves out
    (read as None) keeps the field's own default."""
    return {name: v for name, v in kwargs.items() if v is not None}


def load_config(path) -> dict:
    """The parsed JSON; plan_from_config checks it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e


def _led(led: dict, path: str) -> LedConfig:
    _check_keys(led, path, required={"position_m", "frequency_hz"},
                optional={"amplitude", "gain"})
    pos = led["position_m"]
    if (not isinstance(pos, list) or len(pos) != 3
            or any(isinstance(p, bool) or not isinstance(p, (int, float))
                   or not math.isfinite(p) for p in pos)):
        raise ConfigError(f"{path}.position_m: expected [x, y, h] finite numbers, got {pos!r}")
    return LedConfig(
        position=np.array(pos, dtype=float),
        frequency=_number(led, "frequency_hz", path, minimum=1e-9),
        **_set(amplitude=_number(led, "amplitude", path),
               gain=_number(led, "gain", path, minimum=0.0)),
    )


def _channel(chan: dict) -> ChannelParams:
    _check_keys(chan, "channel",
                required={"semi_angle_deg", "pd_area_m2", "noise_std", "sample_rate_hz"})
    angle = _number(chan, "semi_angle_deg", "channel")
    if not 0.0 < angle < 90.0:
        raise ConfigError(f"channel.semi_angle_deg: must be in (0, 90), got {angle}")
    return ChannelParams(
        lambertian_order=lambertian_order_from_semiangle(angle),
        pd_area=_number(chan, "pd_area_m2", "channel", minimum=1e-12),
        noise_std=_number(chan, "noise_std", "channel", minimum=0.0),
        sample_rate=_number(chan, "sample_rate_hz", "channel", minimum=1e-9),
    )


def plan_from_config(cfg: dict) -> ExperimentPlan:
    """Check cfg against the schema and build its ExperimentPlan, reading
    each key once; a bad key raises ConfigError naming its JSON path."""
    _check_keys(cfg, "config", required={"geometry", "channel", "spectral", "run"},
                optional={"split", "classifiers"})
    geo = _check_keys(cfg["geometry"], "geometry", required={"grid", "leds"})
    grid = _check_keys(geo["grid"], "geometry.grid", required={"q", "spacing_m"})
    if not isinstance(geo["leds"], list) or not geo["leds"]:
        raise ConfigError("geometry.leds: expected a non-empty list")
    leds = tuple(_led(led, f"geometry.leds[{i}]") for i, led in enumerate(geo["leds"]))
    channel = _channel(cfg["channel"])
    spec = _check_keys(cfg["spectral"], "spectral", required={"fft_len", "blocks_per_grid"})

    split = _check_keys(cfg.get("split", {}), "split",
                        optional={"train", "offline", "online", "shuffle"})
    if "shuffle" in split and not isinstance(split["shuffle"], bool):
        raise ConfigError("split.shuffle: expected a boolean")
    split_ratios = SplitRatios(**_set(
        train=_number(split, "train", "split", minimum=1e-9),
        offline=_number(split, "offline", "split", minimum=1e-9),
        online=_number(split, "online", "split", minimum=1e-9),
        shuffle=split.get("shuffle")))

    clf = _check_keys(cfg.get("classifiers", {}), "classifiers", optional={"knn"})
    knn = _check_keys(clf.get("knn", {}), "classifiers.knn", optional={"k"})

    run = _check_keys(cfg["run"], "run", required={"seed"})

    return ExperimentPlan(
        leds=leds,
        channel=channel,
        grid_q=_integer(grid, "q", "geometry.grid", minimum=2),
        grid_spacing=_number(grid, "spacing_m", "geometry.grid", minimum=1e-6),
        fft_len=_integer(spec, "fft_len", "spectral", minimum=2),
        blocks_per_grid=_integer(spec, "blocks_per_grid", "spectral", minimum=1),
        split=split_ratios,
        seed=_integer(run, "seed", "run", minimum=0),
        **_set(knn_k=_integer(knn, "k", "classifiers.knn", minimum=1)),
    )


# Default desk-scale benchmark mirroring the reference testbed: four ceiling
# LEDs over a 0.7 m x 0.7 m survey grid at 5 cm pitch, 22 deg half-power
# semi-angle, 4 MHz sampling, 2000-point FFTs. The per-LED gains reproduce
# the observed per-tone RSS levels at the origin grid point; the noise level
# is calibrated so single-classifier hit rates land in the 75-90 % band.
BENCHMARK_NOISE_STD = 0.0045
_BENCHMARK_LEDS = [
    {"position_m": [1.56, 0.70, 1.48], "frequency_hz": 800e3, "gain": 4525.5},
    {"position_m": [-1.13, 0.67, 1.48], "frequency_hz": 850e3, "gain": 475.007},
    {"position_m": [1.56, -0.47, 1.48], "frequency_hz": 900e3, "gain": 4708.06},
    {"position_m": [-1.13, -0.50, 1.48], "frequency_hz": 950e3, "gain": 417.073},
]


def benchmark_config() -> dict:
    """The calibrated default benchmark as a fresh config dict."""
    return copy.deepcopy({
        "geometry": {
            "grid": {"q": 15, "spacing_m": 0.05},
            "leds": _BENCHMARK_LEDS,
        },
        "channel": {
            "semi_angle_deg": 22.0,
            "pd_area_m2": 1e-4,
            "noise_std": BENCHMARK_NOISE_STD,
            "sample_rate_hz": 4e6,
        },
        "spectral": {"fft_len": 2000, "blocks_per_grid": 200},
        "split": {"train": 0.6, "offline": 0.2, "online": 0.2, "shuffle": False},
        "classifiers": {"knn": {"k": 120}},
        "run": {"seed": 1729},
    })
