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


def _set_in(*path_and_value):
    """A mutation that sets cfg[path...] = value, creating missing sections."""
    *path, key, value = path_and_value

    def mutate(cfg):
        for name in path:
            cfg = cfg.setdefault(name, {})
        cfg[key] = value
    return mutate


def _delete(*path):
    def mutate(cfg):
        for name in path[:-1]:
            cfg = cfg[name]
        del cfg[path[-1]]
    return mutate


# case -> (mutation of minimal_config(), extra CLI arguments, stderr prefix);
# together they reach every `raise ConfigError` in config.py
CONFIG_ERRORS = {
    "not-an-object": (_set_in("split", []), [], "split: expected an object"),
    "unknown-key": (_set_in("extra", 1), [], "config: unknown keys ['extra']"),
    "missing-key": (_delete("spectral", "fft_len"), [],
                    "spectral: missing required keys ['fft_len']"),
    "not-a-number": (_set_in("channel", "pd_area_m2", "big"), [],
                     "channel.pd_area_m2: expected a finite number"),
    "number-below-minimum": (_set_in("channel", "noise_std", -1.0), [],
                             "channel.noise_std: must be >= 0.0"),
    "not-an-integer": (_set_in("spectral", "fft_len", 2.5), [],
                       "spectral.fft_len: expected an integer"),
    "integer-below-minimum": (_set_in("geometry", "grid", "q", 1), [],
                              "geometry.grid.q: must be >= 2"),
    "no-leds": (_set_in("geometry", "leds", []), [], "geometry.leds: expected a non-empty list"),
    "led-position": (lambda cfg: _led_position(cfg).pop(), [],
                     "geometry.leds[0].position_m: expected [x, y, h]"),
    "order-and-angle": (_set_in("channel", "lambertian_order", 1.0), [],
                        "channel: give exactly one of semi_angle_deg / lambertian_order"),
    "semi-angle-range": (_set_in("channel", "semi_angle_deg", 95.0), [],
                         "channel.semi_angle_deg: must be in (0, 90)"),
    "shuffle": (_set_in("split", "shuffle", "yes"), [], "split.shuffle: expected a boolean"),
    "classifier-order": (_set_in("classifiers", "order", ["svm"]), [],
                         "classifiers.order: expected a list drawn from knn/elm/rf"),
    "rf-depth": (_set_in("classifiers", "rf", "depth", 0), [], "classifiers.rf.depth: must be >= 1"),
    "rank-tol": (_set_in("fusion", "rank_tol", -1.0), [], "fusion.rank_tol: must be >= 0.0"),
    "methods": (_set_in("run", "methods", ["magic"]), [], "run.methods: expected a non-empty list"),
    "seed": (_set_in("run", "seed", -1), [], "run.seed: must be >= 0"),
    "table1-fft-lens": (_set_in("table1", "fft_lens", [1]), [],
                        "table1.fft_lens: expected a list of integers >= 2"),
    "table1-unknown-key": (_set_in("table1", "bogus", 1), [], "table1: unknown keys ['bogus']"),
    "no-run-with-seed": (_delete("run"), ["--seed", "3"],
                         "config: missing required keys ['run']"),
    "rssr-solver": (_set_in("rssr", "solver", "grid-scan"), [], "rssr: unknown keys ['solver']"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_each_config_error_exits_2_naming_its_json_path(tmp_path, capsys, case):
    mutate, extra, prefix = CONFIG_ERRORS[case]
    cfg = minimal_config()
    mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "db.txt"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")
    assert not out.exists()


@pytest.mark.parametrize("section, key, names, prefix", [
    ("run", "methods", ["knn", "knn", "gi-ls"], "method 'knn' is listed twice"),
    ("classifiers", "order", ["knn", "knn", "elm", "rf"], "classifier 'knn' is listed twice"),
])
def test_repeated_method_or_classifier_exits_2_before_any_work(tmp_path, capsys, section,
                                                               key, names, prefix):
    cfg = minimal_config()
    cfg["run"]["methods"] = ["knn", "gi-ls"]
    cfg.setdefault(section, {})[key] = names
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")
    assert not out.exists()


@pytest.mark.parametrize("contents, prefix", [
    (None, "cannot read "),
    ("{", "{path} is not valid JSON"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, contents, prefix):
    path = tmp_path / "config.json"
    if contents is not None:
        path.write_text(contents)
    out = tmp_path / "db.txt"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {prefix.format(path=path)}")
    assert not out.exists()


def test_seed_option_equals_the_seed_in_the_config(tmp_path):
    cfg = minimal_config()
    cfg["channel"]["noise_std"] = 0.01
    plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
    plain.write_text(json.dumps(cfg))
    cfg["run"]["seed"] = 5
    seeded.write_text(json.dumps(cfg))
    outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
    assert cli.main(["simulate", "--config", str(plain), "--out", str(outs[0]),
                     "--seed", "5"]) == 0
    assert cli.main(["simulate", "--config", str(seeded), "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
