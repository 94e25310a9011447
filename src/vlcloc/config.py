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
        "semi_angle_deg": deg,           # or "lambertian_order" (exactly one)
        "pd_area_m2": m2,
        "noise_std": std,
        "sample_rate_hz": hz,
        "speed_of_light_mps"?: mps
      },
      "spectral": {"fft_len": int, "blocks_per_grid": int},
      "split"?: {"train"?: frac, "offline"?: frac, "online"?: frac, "shuffle"?: bool},
      "classifiers"?: {"order"?: ["knn", "elm", "rf"], "knn"?: {"k"?: int},
                       "elm"?: {"hidden"?: int}, "rf"?: {"trees"?: int, "depth"?: int}},
      "fusion"?: {"rank_tol"?: tol or null},
      "rssr"?: {"solver"?: "grid-scan" | "gauss-newton", "scan_resolution_m"?: m,
                "margin_m"?: m},
      "run": {"methods": [...], "trials"?: int, "seed": int,
              "cdf_max_m"?: m, "cdf_step_m"?: m},
      "table1"?: {"fft_lens"?: [int, ...], "grid_index"?: int, "blocks"?: int}
    }

An omitted optional key takes the default of the field it sets: those of
`LedConfig`, `ChannelParams`, `SplitRatios` and `ExperimentPlan`,
`experiment.cdf_grid` for the CDF thresholds, and `rss_vs_fft_len` for
`table1`. Those defaults are the only copy; `benchmark_config()` is the
calibrated testbed, not a list of defaults.

Unknown keys anywhere are rejected. Validation happens before any
computation so a bad config fails fast.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from .baselines import GAUSS_NEWTON, GRID_SCAN
from .channel import ChannelParams, LedConfig, lambertian_order_from_semiangle
from .experiment import ALL_METHODS, ExperimentPlan, SplitRatios, cdf_grid


class ConfigError(ValueError):
    """Configuration file failed schema validation."""


def _check_keys(section: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")


def _number(section: dict, key: str, path: str, minimum=None, allow_none=False):
    if key not in section:
        return None
    v = section[key]
    if v is None and allow_none:
        return None
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


def validate_config(cfg: dict) -> None:
    """Raise ConfigError unless cfg matches the documented schema."""
    _check_keys(cfg, "config",
                required={"geometry", "channel", "spectral", "run"},
                optional={"split", "classifiers", "fusion", "rssr", "table1"})

    geo = cfg["geometry"]
    _check_keys(geo, "geometry", required={"grid", "leds"})
    _check_keys(geo["grid"], "geometry.grid", required={"q", "spacing_m"})
    _integer(geo["grid"], "q", "geometry.grid", minimum=2)
    _number(geo["grid"], "spacing_m", "geometry.grid", minimum=1e-6)
    if not isinstance(geo["leds"], list) or not geo["leds"]:
        raise ConfigError("geometry.leds: expected a non-empty list")
    for i, led in enumerate(geo["leds"]):
        path = f"geometry.leds[{i}]"
        _check_keys(led, path, required={"position_m", "frequency_hz"},
                    optional={"amplitude", "gain"})
        pos = led["position_m"]
        if (not isinstance(pos, list) or len(pos) != 3
                or any(isinstance(p, bool) or not isinstance(p, (int, float))
                       or not math.isfinite(p) for p in pos)):
            raise ConfigError(f"{path}.position_m: expected [x, y, h] finite numbers, got {pos!r}")
        _number(led, "frequency_hz", path, minimum=1e-9)
        _number(led, "amplitude", path)
        _number(led, "gain", path, minimum=0.0)

    chan = cfg["channel"]
    _check_keys(chan, "channel",
                required={"pd_area_m2", "noise_std", "sample_rate_hz"},
                optional={"semi_angle_deg", "lambertian_order", "speed_of_light_mps"})
    has_angle = chan.get("semi_angle_deg") is not None
    has_order = chan.get("lambertian_order") is not None
    if has_angle == has_order:
        raise ConfigError("channel: give exactly one of semi_angle_deg / lambertian_order")
    if has_angle:
        v = _number(chan, "semi_angle_deg", "channel")
        if not 0.0 < v < 90.0:
            raise ConfigError(f"channel.semi_angle_deg: must be in (0, 90), got {v}")
    else:
        _number(chan, "lambertian_order", "channel", minimum=1e-9)
    _number(chan, "pd_area_m2", "channel", minimum=1e-12)
    _number(chan, "noise_std", "channel", minimum=0.0)
    _number(chan, "sample_rate_hz", "channel", minimum=1e-9)
    _number(chan, "speed_of_light_mps", "channel", minimum=1.0)

    spec = cfg["spectral"]
    _check_keys(spec, "spectral", required={"fft_len", "blocks_per_grid"})
    _integer(spec, "fft_len", "spectral", minimum=2)
    _integer(spec, "blocks_per_grid", "spectral", minimum=1)

    split = cfg.get("split", {})
    _check_keys(split, "split", required=set(),
                optional={"train", "offline", "online", "shuffle"})
    for key in ("train", "offline", "online"):
        _number(split, key, "split", minimum=1e-9)
    if "shuffle" in split and not isinstance(split["shuffle"], bool):
        raise ConfigError("split.shuffle: expected a boolean")

    clf = cfg.get("classifiers", {})
    _check_keys(clf, "classifiers", required=set(),
                optional={"order", "knn", "elm", "rf"})
    if "order" in clf:
        if (not isinstance(clf["order"], list)
                or any(c not in ("knn", "elm", "rf") for c in clf["order"])):
            raise ConfigError("classifiers.order: expected a list drawn from knn/elm/rf")
    _check_keys(clf.get("knn", {}), "classifiers.knn", required=set(), optional={"k"})
    _integer(clf.get("knn", {}), "k", "classifiers.knn", minimum=1)
    _check_keys(clf.get("elm", {}), "classifiers.elm", required=set(), optional={"hidden"})
    _integer(clf.get("elm", {}), "hidden", "classifiers.elm", minimum=1)
    _check_keys(clf.get("rf", {}), "classifiers.rf", required=set(), optional={"trees", "depth"})
    _integer(clf.get("rf", {}), "trees", "classifiers.rf", minimum=1)
    _integer(clf.get("rf", {}), "depth", "classifiers.rf", minimum=1)

    fus = cfg.get("fusion", {})
    _check_keys(fus, "fusion", required=set(), optional={"rank_tol"})
    _number(fus, "rank_tol", "fusion", minimum=0.0, allow_none=True)

    rssr = cfg.get("rssr", {})
    _check_keys(rssr, "rssr", required=set(),
                optional={"solver", "scan_resolution_m", "margin_m"})
    if "solver" in rssr and rssr["solver"] not in (GRID_SCAN, GAUSS_NEWTON):
        raise ConfigError(f"rssr.solver: expected {GRID_SCAN!r} or {GAUSS_NEWTON!r}")
    _number(rssr, "scan_resolution_m", "rssr", minimum=1e-6)
    _number(rssr, "margin_m", "rssr", minimum=0.0)

    run = cfg["run"]
    _check_keys(run, "run", required={"methods", "seed"},
                optional={"trials", "cdf_max_m", "cdf_step_m"})
    if (not isinstance(run["methods"], list) or not run["methods"]
            or any(m not in ALL_METHODS for m in run["methods"])):
        raise ConfigError(f"run.methods: expected a non-empty list drawn from {ALL_METHODS}")
    _integer(run, "seed", "run", minimum=0)
    _integer(run, "trials", "run", minimum=1)
    _number(run, "cdf_max_m", "run", minimum=1e-6)
    _number(run, "cdf_step_m", "run", minimum=1e-9)

    t1 = cfg.get("table1", {})
    _check_keys(t1, "table1", required=set(),
                optional={"fft_lens", "grid_index", "blocks"})
    if "fft_lens" in t1:
        lens = t1["fft_lens"]
        if (not isinstance(lens, list) or not lens
                or any(isinstance(n, bool) or not isinstance(n, int) or n < 2 for n in lens)):
            raise ConfigError("table1.fft_lens: expected a list of integers >= 2")
    _integer(t1, "grid_index", "table1", minimum=0)
    _integer(t1, "blocks", "table1", minimum=1)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    validate_config(cfg)
    return cfg


def _given(section: dict, fields: dict[str, str], cast=float) -> dict:
    """{field: cast(value)} for each {config key: field} the section sets, so
    that a key it leaves out keeps the field's own default."""
    return {name: cast(section[key]) for key, name in fields.items() if key in section}


def plan_from_config(cfg: dict) -> ExperimentPlan:
    """Build an ExperimentPlan from a validated config dict."""
    validate_config(cfg)
    geo, chan, spec, run = cfg["geometry"], cfg["channel"], cfg["spectral"], cfg["run"]
    leds = tuple(
        LedConfig(
            position=np.array(led["position_m"], dtype=float),
            frequency=float(led["frequency_hz"]),
            **_given(led, {"amplitude": "amplitude", "gain": "gain"}),
        )
        for led in geo["leds"]
    )
    if chan.get("semi_angle_deg") is not None:
        order = lambertian_order_from_semiangle(float(chan["semi_angle_deg"]))
    else:
        order = float(chan["lambertian_order"])
    channel = ChannelParams(
        lambertian_order=order,
        pd_area=float(chan["pd_area_m2"]),
        noise_std=float(chan["noise_std"]),
        sample_rate=float(chan["sample_rate_hz"]),
        **_given(chan, {"speed_of_light_mps": "speed_of_light"}),
    )
    split_cfg = cfg.get("split", {})
    split = SplitRatios(**_given(split_cfg, {"train": "train", "offline": "offline",
                                             "online": "online"}),
                        **_given(split_cfg, {"shuffle": "shuffle"}, bool))
    clf = cfg.get("classifiers", {})
    rssr = cfg.get("rssr", {})
    cdf = _given(run, {"cdf_max_m": "max_m", "cdf_step_m": "step_m"})
    return ExperimentPlan(
        leds=leds,
        channel=channel,
        grid_q=int(geo["grid"]["q"]),
        grid_spacing=float(geo["grid"]["spacing_m"]),
        fft_len=int(spec["fft_len"]),
        blocks_per_grid=int(spec["blocks_per_grid"]),
        split=split,
        methods=tuple(run["methods"]),
        seed=int(run["seed"]),
        **_given(clf.get("knn", {}), {"k": "knn_k"}, int),
        **_given(clf.get("elm", {}), {"hidden": "elm_hidden"}, int),
        **_given(clf.get("rf", {}), {"trees": "rf_trees", "depth": "rf_depth"}, int),
        **_given(clf, {"order": "classifier_order"}, tuple),
        **_given(run, {"trials": "trials"}, int),
        **_given(cfg.get("fusion", {}), {"rank_tol": "rank_tol"}, lambda v: v),
        **_given(rssr, {"solver": "rssr_solver"}, str),
        **_given(rssr, {"scan_resolution_m": "rssr_scan_resolution", "margin_m": "rssr_margin"}),
        **({"cdf_thresholds": cdf_grid(**cdf)} if cdf else {}),
    )


def table1_settings(cfg: dict) -> dict:
    """rss_vs_fft_len keyword arguments for the table1 keys the config sets."""
    return _given(cfg.get("table1", {}), {"fft_lens": "fft_lens", "grid_index": "grid_index",
                                          "blocks": "blocks"}, lambda v: v)


# Default desk-scale benchmark mirroring the reference testbed: four ceiling
# LEDs over a 0.7 m x 0.7 m survey grid at 5 cm pitch, 22 deg half-power
# semi-angle, 4 MHz sampling, 2000-point FFTs. The per-LED gains reproduce
# the observed per-tone RSS levels at the origin grid point; the noise level
# is calibrated so single-classifier hit rates land in the 75-90 % band.
BENCHMARK_NOISE_STD = 0.0045
_BENCHMARK_LEDS = [
    {"position_m": [1.56, 0.70, 1.48], "frequency_hz": 800e3, "amplitude": 1.0, "gain": 4525.5},
    {"position_m": [-1.13, 0.67, 1.48], "frequency_hz": 850e3, "amplitude": 1.0, "gain": 475.007},
    {"position_m": [1.56, -0.47, 1.48], "frequency_hz": 900e3, "amplitude": 1.0, "gain": 4708.06},
    {"position_m": [-1.13, -0.50, 1.48], "frequency_hz": 950e3, "amplitude": 1.0, "gain": 417.073},
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
        "classifiers": {
            "order": ["knn", "elm", "rf"],
            "knn": {"k": 120},
            "elm": {"hidden": 600},
            "rf": {"trees": 40, "depth": 5},
        },
        "fusion": {"rank_tol": None},
        "rssr": {"solver": "grid-scan", "scan_resolution_m": 0.01, "margin_m": 0.05},
        "run": {
            "methods": list(ALL_METHODS),
            "trials": 1,
            "seed": 1729,
        },
        "table1": {"fft_lens": [2000, 4000, 6000, 8000], "grid_index": 0, "blocks": 200},
    })
