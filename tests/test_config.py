import dataclasses
import json

import pytest

from vlcloc import cli, config
from vlcloc.channel import LedConfig
from vlcloc.experiment import ALL_METHODS, ExperimentPlan, SplitRatios


def minimal_config() -> dict:
    """Only the required keys, with the 3 LEDs every run needs."""
    return {
        "geometry": {"grid": {"q": 3, "spacing_m": 0.05},
                     "leds": [{"position_m": [1.0, 0.5, 1.5], "frequency_hz": 8e5},
                              {"position_m": [-1.0, 0.5, 1.5], "frequency_hz": 7e5},
                              {"position_m": [1.0, -0.5, 1.5], "frequency_hz": 7.5e5}]},
        "channel": {"semi_angle_deg": 22.0, "pd_area_m2": 1e-4, "noise_std": 0.0,
                    "sample_rate_hz": 4e6},
        "spectral": {"fft_len": 2000, "blocks_per_grid": 20},
        "run": {"seed": 1},
    }


def test_omitted_keys_take_the_dataclass_defaults():
    plan = config.plan_from_config(minimal_config())
    set_by_config = {"leds", "channel", "grid_q", "grid_spacing", "fft_len",
                     "blocks_per_grid", "seed"}
    for f in dataclasses.fields(ExperimentPlan):
        if f.name not in set_by_config:
            assert getattr(plan, f.name) == f.default, f.name
    assert plan.split == SplitRatios()
    led = plan.leds[0]
    assert (led.amplitude, led.gain) == (LedConfig.amplitude, LedConfig.gain)


def _led_position(cfg):
    return cfg["geometry"]["leds"][0]["position_m"]


# site -> (section getter, key, stderr prefix) of a number that must be finite
NUMBER_SITES = {
    "channel.noise_std": (lambda cfg: cfg["channel"], "noise_std", "channel.noise_std"),
    "geometry.grid.spacing_m": (lambda cfg: cfg["geometry"]["grid"], "spacing_m",
                                "geometry.grid.spacing_m"),
    # a retired key is unknown whatever its value
    "rssr.margin_m": (lambda cfg: cfg.setdefault("rssr", {}), "margin_m",
                      "config: unknown keys ['rssr']"),
    "geometry.leds[0].position_m": (_led_position, 1, "geometry.leds[0].position_m"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_non_finite_number_is_a_config_error(tmp_path, capsys, site, value):
    cfg = minimal_config()
    section, key, prefix = NUMBER_SITES[site]
    section(cfg)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))  # NaN / Infinity, which json.load accepts
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "db.txt")])
    assert code == 2
    assert f"config error: {prefix}" in capsys.readouterr().err
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


# case -> (mutation of minimal_config(), stderr prefix);
# together they reach every `raise ConfigError` in config.py
CONFIG_ERRORS = {
    "not-an-object": (_set_in("split", []), "split: expected an object"),
    "unknown-key": (_set_in("extra", 1), "config: unknown keys ['extra']"),
    "missing-key": (_delete("spectral", "fft_len"), "spectral: missing required keys ['fft_len']"),
    "not-a-number": (_set_in("channel", "pd_area_m2", "big"),
                     "channel.pd_area_m2: expected a finite number"),
    "number-below-minimum": (_set_in("channel", "noise_std", -1.0),
                             "channel.noise_std: must be >= 0.0"),
    "not-an-integer": (_set_in("spectral", "fft_len", 2.5),
                       "spectral.fft_len: expected an integer"),
    "integer-below-minimum": (_set_in("geometry", "grid", "q", 1),
                              "geometry.grid.q: must be >= 2"),
    "no-leds": (_set_in("geometry", "leds", []), "geometry.leds: expected a non-empty list"),
    "led-position": (lambda cfg: _led_position(cfg).pop(),
                     "geometry.leds[0].position_m: expected [x, y, h]"),
    "semi-angle-range": (_set_in("channel", "semi_angle_deg", 95.0),
                         "channel.semi_angle_deg: must be in (0, 90)"),
    "shuffle": (_set_in("split", "shuffle", "yes"), "split.shuffle: expected a boolean"),
    # classifiers.order and run.methods are retired: any value is an unknown key
    "classifier-order": (_set_in("classifiers", "order", ["svm"]),
                         "classifiers: unknown keys ['order']"),
    "methods": (_set_in("run", "methods", ["magic"]), "run: unknown keys ['methods']"),
    "seed": (_set_in("run", "seed", -1), "run.seed: must be >= 0"),
    # the table1 section is retired: any table1 content is now an unknown top-level key
    "table1-fft-lens": (_set_in("table1", "fft_lens", [1]), "config: unknown keys ['table1']"),
    "table1-unknown-key": (_set_in("table1", "bogus", 1), "config: unknown keys ['table1']"),
    # the fusion and rssr sections are retired: any content is an unknown top-level key,
    # and with --seed retired too, a config without run is missing its run section
    "rank-tol": (_set_in("fusion", "rank_tol", -1.0), "config: unknown keys ['fusion']"),
    "rssr-solver": (_set_in("rssr", "solver", "grid-scan"), "config: unknown keys ['rssr']"),
    "no-run-with-seed": (_delete("run"), "config: missing required keys ['run']"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_each_config_error_exits_2_naming_its_json_path(tmp_path, capsys, case):
    mutate, prefix = CONFIG_ERRORS[case]
    cfg = minimal_config()
    mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "db.txt"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")
    assert not out.exists()


def _angle_as_order(cfg):
    del cfg["channel"]["semi_angle_deg"]
    cfg["channel"]["lambertian_order"] = 1.0


# retired key -> (mutation of minimal_config(), stderr prefix)
RETIRED_KEYS = {
    "run.trials": (_set_in("run", "trials", 1), "run: unknown keys ['trials']"),
    "table1": (_set_in("table1", {"fft_lens": [2000, 4000], "grid_index": 0, "blocks": 20}),
               "config: unknown keys ['table1']"),
    "channel.lambertian_order": (_angle_as_order, "channel: unknown keys ['lambertian_order']"),
    "channel.speed_of_light_mps": (_set_in("channel", "speed_of_light_mps", 299792458.0),
                                   "channel: unknown keys ['speed_of_light_mps']"),
    "fusion.rank_tol": (_set_in("fusion", "rank_tol", None), "config: unknown keys ['fusion']"),
    "rssr.scan_resolution_m": (_set_in("rssr", "scan_resolution_m", 0.01),
                               "config: unknown keys ['rssr']"),
    "rssr.margin_m": (_set_in("rssr", "margin_m", 0.05), "config: unknown keys ['rssr']"),
    "run.cdf_max_m": (_set_in("run", "cdf_max_m", 0.25), "run: unknown keys ['cdf_max_m']"),
    "run.cdf_step_m": (_set_in("run", "cdf_step_m", 0.0025), "run: unknown keys ['cdf_step_m']"),
    "run.methods": (_set_in("run", "methods", list(ALL_METHODS)), "run: unknown keys ['methods']"),
    "classifiers.order": (_set_in("classifiers", "order", ["knn", "elm", "rf"]),
                          "classifiers: unknown keys ['order']"),
    "classifiers.elm.hidden": (_set_in("classifiers", "elm", "hidden", 600),
                               "classifiers: unknown keys ['elm']"),
    "classifiers.rf.trees": (_set_in("classifiers", "rf", "trees", 40),
                             "classifiers: unknown keys ['rf']"),
    "classifiers.rf.depth": (_set_in("classifiers", "rf", "depth", 5),
                             "classifiers: unknown keys ['rf']"),
}


@pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
def test_retired_key_exits_2_before_any_work(tmp_path, capsys, key):
    mutate, prefix = RETIRED_KEYS[key]
    cfg = minimal_config()
    mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["simulate", "--out", str(out)], ["evaluate", "--out", str(out)], ["table1"]):
        capsys.readouterr()
        assert cli.main([*argv, "--config", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(f"config error: {prefix}")
        assert not out.exists()


@pytest.mark.parametrize("count", [1, 2])
def test_fewer_than_3_leds_exits_2_for_each_command(tmp_path, capsys, count):
    cfg = minimal_config()
    del cfg["geometry"]["leds"][count:]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["simulate", "--out", str(out)], ["evaluate", "--out", str(out)], ["table1"]):
        capsys.readouterr()
        assert cli.main([*argv, "--config", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(
            f"config error: rssr needs at least 3 LEDs, got {count}")
        assert not out.exists()


def test_two_leds_at_one_position_exit_2_for_each_command(tmp_path, capsys):
    # RSSR cannot tell the two apart; the plan rejects them before the survey,
    # so evaluate --db fails on the config, not after reading and training
    cfg = minimal_config()
    cfg["geometry"]["leds"][1]["position_m"] = list(cfg["geometry"]["leds"][0]["position_m"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["simulate", "--out", str(out)], ["evaluate", "--out", str(out)],
                 ["evaluate", "--db", str(tmp_path / "db.txt"), "--out", str(out)], ["table1"]):
        capsys.readouterr()
        assert cli.main([*argv, "--config", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == "config error: LED positions must be distinct\n"
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


def test_seed_option_is_an_argparse_error_for_each_command(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config()))
    out = tmp_path / "out"
    for argv in (["simulate", "--out", str(out)], ["evaluate", "--out", str(out)], ["table1"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, "--config", str(path), "--seed", "5"])
        assert exit_.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == "" and "unrecognized arguments: --seed 5" in printed.err
        assert not out.exists()


@pytest.mark.parametrize("rate", [1.6e6, 1e6])
def test_tone_at_or_above_nyquist_exits_2_for_each_command(tmp_path, capsys, rate):
    cfg = minimal_config()  # tones up to 800 kHz
    cfg["channel"]["sample_rate_hz"] = rate
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["simulate", "--out", str(out)], ["evaluate", "--out", str(out)], ["table1"]):
        capsys.readouterr()
        assert cli.main([*argv, "--config", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(
            f"config error: sample_rate {rate} Hz must exceed twice the highest tone (800000.0 Hz)")
        assert not out.exists()
