import csv
import dataclasses
import functools
import json
import math

import numpy as np
import pytest

import rf_reference
import spectral_reference
import synth_reference
from vlcloc import cli, config, experiment, fusion, spectral
from vlcloc.channel import ChannelParams, LedConfig, PdPose
from vlcloc.classifiers import TrainSet
from vlcloc.experiment import SplitRatios


def tiny_config() -> dict:
    """3 x 3 grid, Q = 20 blocks, k = 5, RF depth 3: the whole pipeline in about a second."""
    cfg = config.benchmark_config()
    cfg["geometry"]["grid"]["q"] = 3
    cfg["spectral"]["blocks_per_grid"] = 20
    cfg["classifiers"]["knn"]["k"] = 5
    cfg["classifiers"]["rf"]["depth"] = 3
    return cfg


def test_run_is_deterministic_and_rf_matches_reference_forest():
    plan = config.plan_from_config(tiny_config())
    assert plan.methods == experiment.ALL_METHODS
    first = experiment.run_experiment(plan)
    assert first.equals(experiment.run_experiment(plan))

    db = experiment.synthesize_fingerprint_db(plan, trial=0)
    train_idx, _, online_idx = experiment._split_indices(plan, db.blocks_per_grid, 0)
    train_q, train_labels, _ = experiment._flatten_split(db, train_idx)
    roots = rf_reference.reference_forest(
        TrainSet(train_q, train_labels, plan.grid_coords), plan.rf_trees, plan.rf_depth,
        experiment._seed(plan, 0, experiment._SEED_RF))
    online_q, _, _ = experiment._flatten_split(db, online_idx)
    labels = rf_reference.forest_labels(roots, online_q, plan.grid_coords.shape[0])
    np.testing.assert_array_equal(first.est["rf"], plan.grid_coords[labels])


def test_survey_matches_the_time_domain_full_fft_oracle():
    plan = config.plan_from_config(tiny_config())
    db = experiment.synthesize_fingerprint_db(plan, trial=0)
    samples = plan.blocks_per_grid * plan.fft_len
    oracle_rss = np.stack([
        spectral_reference.stream_rss_db(
            synth_reference.reference_received(
                list(plan.leds), PdPose.at(x, y), plan.channel, samples,
                experiment._seed(plan, 0, experiment._SEED_SYNTH, g)),
            plan.fft_len, plan.channel.sample_rate, plan.tones)
        for g, (x, y) in enumerate(plan.grid_coords)])
    np.testing.assert_allclose(db.rss, oracle_rss, rtol=0, atol=1e-7)

    oracle = spectral.FingerprintDB(db.grid_coords, oracle_rss, db.tones, db.fft_len,
                                    db.sample_rate)
    got, want = experiment.run_experiment(plan, db), experiment.run_experiment(plan, oracle)
    for method in experiment.SINGLE_CLASSIFIERS:
        np.testing.assert_array_equal(got.est[method], want.est[method])


def test_nearest_mean_labels_match_the_one_piece_formula():
    rng = np.random.default_rng(0)
    means = rng.normal(size=(225, 4))
    means[7] = means[3]  # a tie the lower index must win
    queries = rng.normal(size=(3000, 4))  # several row chunks
    queries[10] = means[3]
    d2 = ((queries[:, np.newaxis, :] - means[np.newaxis, :, :]) ** 2).sum(axis=2)
    got = fusion.nearest_mean_labels(queries, means)
    np.testing.assert_array_equal(got, np.argmin(d2, axis=1))
    assert got[10] == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_evaluate_rejects_a_non_finite_db_value_with_exit_3(tmp_path, capsys, bad):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    db_path = tmp_path / "db.txt"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(db_path)]) == 0
    lines = db_path.read_text().splitlines()
    lines[4] = " ".join([bad] + lines[4].split()[1:])  # second RSS row of grid point 0
    db_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["evaluate", "--config", str(cfg_path), "--db", str(db_path),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{db_path}: line 5 has a non-finite value" in capsys.readouterr().err


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate(tmp_path, cfg) -> tuple[str, str]:
    """Write cfg and survey it; return (config path, DB path)."""
    cfg_path = write_config(tmp_path, cfg)
    db_path = str(tmp_path / "db.txt")
    assert cli.main(["simulate", "--config", cfg_path, "--out", db_path]) == 0
    return cfg_path, db_path


def test_noise_free_rss_match_is_exact():
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    cfg["run"]["methods"] = ["rss-match"]
    table = experiment.run_experiment(config.plan_from_config(cfg))
    assert table.errors("rss-match").size == 9 * 4
    assert np.all(table.errors("rss-match") == 0.0)


def test_simulated_db_round_trips_byte_for_byte(tmp_path):
    _, db_path = simulate(tmp_path, tiny_config())
    again = tmp_path / "again.txt"
    spectral.save_fingerprints(spectral.load_fingerprints(db_path), again)
    with open(db_path, "rb") as fh:
        assert fh.read() == again.read_bytes()


def test_evaluate_rejects_a_truncated_db_with_exit_3(tmp_path, capsys):
    cfg_path, db_path = simulate(tmp_path, tiny_config())
    with open(db_path) as fh:
        lines = fh.read().splitlines()
    with open(db_path, "w") as fh:
        fh.write("\n".join(lines[:-3]) + "\n")
    capsys.readouterr()
    code = cli.main(["evaluate", "--config", cfg_path, "--db", db_path,
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{db_path}: expected {len(lines)} lines, found {len(lines) - 3}" in capsys.readouterr().err


@pytest.mark.parametrize("m", [2, 5])
def test_db_with_another_tone_count_is_a_synthesize_error(tmp_path, capsys, m):
    cfg_path, db_path = simulate(tmp_path, tiny_config())
    db = spectral.load_fingerprints(db_path)
    # the plan's 4 tones, cut to m or extended by a 1 MHz tone
    tones = np.append(db.tones, 1e6)[:m]
    rss = np.concatenate([db.rss, db.rss[:, :, :1]], axis=2)[:, :, :m]
    other = spectral.FingerprintDB(db.grid_coords, rss, tones, db.fft_len, db.sample_rate)
    with pytest.raises(experiment.ExperimentError, match="tones do not match") as err:
        experiment.run_experiment(config.plan_from_config(tiny_config()), other)
    assert err.value.stage == "synthesize"

    spectral.save_fingerprints(other, db_path)
    capsys.readouterr()
    code = cli.main(["evaluate", "--config", cfg_path, "--db", db_path,
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "[synthesize] fingerprint DB tones do not match plan LEDs" in capsys.readouterr().err


def _raise(*args, **kwargs):
    raise RuntimeError("injected failure")


def _raise_tagged(*args, **kwargs):
    raise experiment.ExperimentError("inner", "already tagged")


# stage -> (module, callee it runs, replacement)
STAGE_CALLEES = {
    "synthesize": (experiment, "synthesize_fingerprint_db", _raise),
    "split": (experiment, "_split_indices", _raise),
    "train": (experiment, "_build_classifiers", _raise),
    "fusion-fit": (fusion, "gi_ls_fit", _raise),
    "evaluate": (experiment, "_estimate", _raise),
    "inner": (experiment, "_estimate", _raise_tagged),  # passed through unchanged
}


@pytest.mark.parametrize("stage", sorted(STAGE_CALLEES))
def test_each_stage_tags_its_failure(tmp_path, capsys, monkeypatch, stage):
    module, name, replacement = STAGE_CALLEES[stage]
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(experiment.ExperimentError) as err:
        experiment.run_experiment(config.plan_from_config(tiny_config()))
    assert err.value.stage == stage

    cfg_path = write_config(tmp_path, tiny_config())
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    assert f"[{stage}]" in capsys.readouterr().err


def test_noise_free_equal_gain_rssr_is_exact_end_to_end():
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    cfg["run"]["methods"] = ["rssr"]
    for led in cfg["geometry"]["leds"]:
        led["gain"] = 1000.0
    table = experiment.run_experiment(config.plan_from_config(cfg))
    assert table.errors("rssr").size == 9 * 4
    assert table.errors("rssr").max() <= 1e-7


def test_table1_follows_the_fft_length_law_on_noise_free_tones():
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    plan = config.plan_from_config(cfg)
    tones, lens, table = experiment.rss_vs_fft_len(plan, (2000, 4000, 6000), grid_index=4,
                                                   blocks=3)
    np.testing.assert_array_equal(tones, plan.tones)
    # an on-bin tone's periodogram peak is N a^2 / 4
    np.testing.assert_allclose(np.diff(table, axis=1),
                               10.0 * np.log10([[4000 / 2000, 6000 / 4000]] * 4), atol=1e-9)


def test_split_counts_are_exact_for_whole_percent_fractions():
    assert SplitRatios(0.29, 0.21, 0.5).counts(100) == (29, 21, 50)
    assert SplitRatios(0.6, 0.2, 0.2).counts(200) == (120, 40, 40)
    assert SplitRatios(0.1, 0.1, 0.8).counts(200) == (20, 20, 160)
    for t in range(1, 99):
        split = SplitRatios(t / 100, (99 - t) / 100, 0.01)
        for q in range(100, 401):
            n_train, n_offline, _ = split.counts(q)
            assert (n_train, n_offline) == (q * t // 100, q * (99 - t) // 100), (q, t)


NAN = math.nan
H = [0.0, 0.0, 1.0]

# field -> a call that passes NaN (or an out-of-range value) to that field
BAD_FIELDS = {
    "LedConfig.position": lambda: LedConfig([0.0, 0.0, NAN], 8e5),
    "LedConfig.frequency": lambda: LedConfig(H, NAN),
    "LedConfig.amplitude": lambda: LedConfig(H, 8e5, amplitude=NAN),
    "LedConfig.gain": lambda: LedConfig(H, 8e5, gain=NAN),
    "ChannelParams.lambertian_order": lambda: ChannelParams(NAN, 1e-4, 0.0, 4e6),
    "ChannelParams.pd_area": lambda: ChannelParams(1.0, NAN, 0.0, 4e6),
    "ChannelParams.noise_std": lambda: ChannelParams(1.0, 1e-4, NAN, 4e6),
    "ChannelParams.sample_rate": lambda: ChannelParams(1.0, 1e-4, 0.0, NAN),
    "ChannelParams.speed_of_light": lambda: ChannelParams(1.0, 1e-4, 0.0, 4e6, NAN),
    "SplitRatios.train": lambda: SplitRatios(NAN, 0.5, 0.5),
    "SplitRatios.offline": lambda: SplitRatios(0.5, NAN, 0.5),
    "SplitRatios.online": lambda: SplitRatios(0.5, 0.5, NAN),
    "ExperimentPlan.grid_spacing": lambda: dataclasses.replace(
        config.plan_from_config(tiny_config()), grid_spacing=NAN),
    **{f"ExperimentPlan.{name}={value}": functools.partial(
        lambda name, value: dataclasses.replace(
            config.plan_from_config(tiny_config()), **{name: value}), name, value)
       for name, value in [("knn_k", 0), ("elm_hidden", 0), ("rf_trees", 0), ("rf_depth", 0),
                           ("rank_tol", NAN), ("rssr_margin", NAN),
                           ("rssr_scan_resolution", 0.0), ("cdf_thresholds", (NAN,))]},
    "PdPose.x": lambda: PdPose.at(NAN, 0.0),
    "PdPose.y": lambda: PdPose.at(0.0, math.inf),
    "ls_svd_weights.rank_tol=nan": lambda: fusion.ls_svd_weights(np.eye(3), np.ones(3), NAN),
    "ls_svd_weights.rank_tol=inf": lambda: fusion.ls_svd_weights(np.eye(3), np.ones(3), math.inf),
    "ls_svd_weights.rank_tol<0": lambda: fusion.ls_svd_weights(np.eye(3), np.ones(3), -1.0),
}


@pytest.mark.parametrize("field, names", [("methods", ("knn", "knn", "gi-ls")),
                                          ("classifier_order", ("knn", "knn", "elm", "rf"))])
def test_plan_rejects_a_repeated_method_or_classifier(field, names):
    plan = config.plan_from_config(tiny_config())
    with pytest.raises(ValueError, match="'knn' is listed twice"):
        dataclasses.replace(plan, **{field: names})


@pytest.mark.parametrize("field", sorted(BAD_FIELDS))
def test_python_api_rejects_nan_in_each_field(field):
    with pytest.raises(ValueError):
        BAD_FIELDS[field]()


def _csv_writer_results(table, path):
    """The row-at-a-time csv.writer form of cli._write_results_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "trial", "grid_index", "true_x", "true_y",
                         "est_x", "est_y", "error_m"])
        for method in table.methods:
            est, errs = table.est[method], table.errors(method)
            for i in range(table.trial.size):
                writer.writerow([method, table.trial[i], table.grid_index[i],
                                 *(format(v, ".9g") for v in (*table.truth[i], *est[i], errs[i]))])


def test_results_csv_equals_the_csv_writer_text(tmp_path):
    rng = np.random.default_rng(14)
    edge = np.array([-0.0, 1e-10, 1e21, 3.0, -2.0, 0.1, 123456789.0, 1.0 / 3.0])
    truth = np.column_stack([edge, edge[::-1]])
    table = experiment.ResultTable(
        methods=("knn", "gi-ls", "rss-match"),
        trial=np.repeat([0, 1], 4), grid_index=np.array([0, 5, 12, 224, 3, 3, 7, 0]),
        truth=truth,
        est={"knn": truth.copy(), "gi-ls": truth + rng.normal(size=truth.shape),
             "rss-match": -truth},
        cdf_thresholds=np.array(experiment.cdf_grid()))
    cli._write_results_csv(table, tmp_path / "bulk.csv")
    _csv_writer_results(table, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
