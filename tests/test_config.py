import dataclasses
import json

import numpy as np
import pytest

from vlcloc import cli, config
from vlcloc.channel import ChannelParams, LedConfig
from vlcloc.experiment import ExperimentPlan, SplitRatios


def minimal_config() -> dict:
    """Only the required keys."""
    return {
        "geometry": {"grid": {"q": 3, "spacing_m": 0.05},
                     "leds": [{"position_m": [1.0, 0.5, 1.5], "frequency_hz": 8e5}]},
        "channel": {"semi_angle_deg": 22.0, "pd_area_m2": 1e-4, "noise_std": 0.0,
                    "sample_rate_hz": 4e6},
        "spectral": {"fft_len": 2000, "blocks_per_grid": 20},
        "run": {"methods": ["knn"], "seed": 1},
    }


def test_omitted_keys_take_the_dataclass_defaults():
    plan = config.plan_from_config(minimal_config())
    set_by_config = {"leds", "channel", "grid_q", "grid_spacing", "fft_len",
                     "blocks_per_grid", "methods", "seed"}
    for f in dataclasses.fields(ExperimentPlan):
        if f.name not in set_by_config:
            assert getattr(plan, f.name) == f.default, f.name
    assert plan.split == SplitRatios()
    channel_defaults = {f.name: f.default for f in dataclasses.fields(ChannelParams)
                        if f.default is not dataclasses.MISSING}
    assert {k: getattr(plan.channel, k) for k in channel_defaults} == channel_defaults
    led = plan.leds[0]
    assert (led.amplitude, led.gain) == (LedConfig.amplitude, LedConfig.gain)


def test_cdf_keys_fill_in_from_the_one_helper():
    cfg = minimal_config()
    cfg["run"]["cdf_max_m"] = 0.1
    thresholds = config.plan_from_config(cfg).cdf_thresholds
    assert len(thresholds) == 41 and thresholds[1] == 0.0025 and thresholds[-1] == 0.1
    assert config.plan_from_config(minimal_config()).cdf_thresholds == tuple(
        np.round(np.arange(0.0, 0.2501, 0.0025), 6))


def _led_position(cfg):
    return cfg["geometry"]["leds"][0]["position_m"]


# (section getter, key) of a number that must be finite
NUMBER_SITES = {
    "channel.noise_std": (lambda cfg: cfg["channel"], "noise_std"),
    "geometry.grid.spacing_m": (lambda cfg: cfg["geometry"]["grid"], "spacing_m"),
    "rssr.margin_m": (lambda cfg: cfg.setdefault("rssr", {}), "margin_m"),
    "geometry.leds[0].position_m": (_led_position, 1),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_non_finite_number_is_a_config_error(tmp_path, capsys, site, value):
    cfg = minimal_config()
    section, key = NUMBER_SITES[site]
    section(cfg)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))  # NaN / Infinity, which json.load accepts
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "db.txt")])
    assert code == 2
    assert f"config error: {site}" in capsys.readouterr().err
    assert not (tmp_path / "db.txt").exists()
