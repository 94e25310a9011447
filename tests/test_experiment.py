import csv
import dataclasses
import functools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import rf_reference
import spectral_reference
import stage_memory
import synth_reference
from vlcloc import classifiers, cli, config, experiment, fusion, spectral
from vlcloc.channel import ChannelParams, LedConfig, PdPose
from vlcloc.classifiers import KnnClassifier, TrainSet
from vlcloc.experiment import SplitRatios


def tiny_config() -> dict:
    """3 x 3 grid, Q = 20 blocks, k = 5: the whole pipeline in about a second."""
    cfg = config.benchmark_config()
    cfg["geometry"]["grid"]["q"] = 3
    cfg["spectral"]["blocks_per_grid"] = 20
    cfg["classifiers"]["knn"]["k"] = 5
    return cfg


def test_run_is_deterministic_and_rf_matches_reference_forest():
    plan = config.plan_from_config(tiny_config())
    assert plan.methods == experiment.ALL_METHODS
    first = experiment.run_experiment(plan)
    assert first.equals(experiment.run_experiment(plan))

    db = experiment.synthesize_fingerprint_db(plan)
    train_idx, _, online_idx = experiment._split_indices(plan, db.blocks_per_grid)
    train_q, train_labels = experiment._flatten_split(db, train_idx)
    roots = rf_reference.reference_forest(
        TrainSet(train_q, train_labels, plan.grid_coords), experiment.RF_TREES, experiment.RF_DEPTH,
        experiment._seed(plan, experiment._SEED_RF))
    online_q, _ = experiment._flatten_split(db, online_idx)
    labels = rf_reference.forest_labels(roots, online_q, plan.grid_coords.shape[0])
    np.testing.assert_array_equal(first.est["rf"], plan.grid_coords[labels])


def oracle_rss(plan, coords, seeds) -> np.ndarray:
    """(G, Q, M) RSS of the time-domain synthesis oracle (its noise drawn per
    sample from the g-th seed) through the full-FFT periodogram oracle."""
    samples = plan.blocks_per_grid * plan.fft_len
    return np.stack([
        spectral_reference.stream_rss_db(
            synth_reference.reference_received(list(plan.leds), PdPose.at(x, y), plan.channel,
                                               samples, seed),
            plan.fft_len, plan.channel.sample_rate, plan.tones)
        for (x, y), seed in zip(coords, seeds)])


def test_survey_matches_the_time_domain_full_fft_oracle():
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    plan = config.plan_from_config(cfg)
    db = experiment.synthesize_fingerprint_db(plan)
    want = oracle_rss(plan, plan.grid_coords, range(plan.grid_coords.shape[0]))
    np.testing.assert_allclose(db.rss, want, rtol=0, atol=1e-7)

    oracle = spectral.FingerprintDB(db.grid_coords, want, db.tones, db.fft_len, db.sample_rate)
    got, want = experiment.run_experiment(plan, db), experiment.run_experiment(plan, oracle)
    for method in experiment.SINGLE_CLASSIFIERS:
        np.testing.assert_array_equal(got.est[method], want.est[method])


def ks_rejects(a, b, alpha: float) -> bool:
    """Two-sample Kolmogorov-Smirnov test of a and b at level alpha, with the
    asymptotic critical value sqrt(-ln(alpha / 2) / 2) * sqrt((n + m) / (n m))."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = np.abs(np.searchsorted(a, both, side="right") / a.size
               - np.searchsorted(b, both, side="right") / b.size).max()
    return d > math.sqrt(-math.log(alpha / 2.0) / 2.0 * (a.size + b.size) / (a.size * b.size))


@pytest.mark.parametrize("case", ["benchmark", "nyquist"])
def test_noisy_survey_matches_the_oracle_in_distribution(case):
    """Per grid point and tone, the survey's dB values (noise drawn at the tone
    bins) against the time-domain oracle's (noise drawn per sample): three
    recordings of 400 000 samples a side, a KS test at level 1e-3 each.

    The benchmark points span -17 to 49 dB of on-bin SNR. In the Nyquist
    case the weakest LED is retuned to 1.9995 MHz and N = 200, Q = 2000: its
    window, bins 99..100, is clipped at Nyquist, whose cos column carries
    twice the noise variance of any other bin's and its sin column none.
    """
    cfg = config.benchmark_config()
    if case == "nyquist":
        cfg["geometry"]["leds"][3]["frequency_hz"] = 1.9995e6
        cfg["spectral"] = {"fft_len": 200, "blocks_per_grid": 2000}
    plan = config.plan_from_config(cfg)
    for g in (0, 112, 224):
        coords = np.repeat(plan.grid_coords[g : g + 1], 3, axis=0)
        got = experiment._survey(plan, coords, plan.fft_len, [10 + g, 20 + g, 30 + g]).rss
        want = oracle_rss(plan, coords, [40 + g, 50 + g, 60 + g])
        for m in range(len(plan.leds)):
            assert not ks_rejects(got[:, :, m].ravel(), want[:, :, m].ravel(), 1e-3), (g, m)


def test_nearest_mean_labels_match_the_one_piece_formula():
    """The k = 1 matcher run_experiment builds over the mean fingerprints."""
    rng = np.random.default_rng(0)
    means = rng.normal(size=(225, 4))
    means[7] = means[3]  # a tie the lower index must win
    queries = rng.normal(size=(3000, 4))  # several query batches
    queries[10] = means[3]
    d2 = ((queries[:, np.newaxis, :] - means[np.newaxis, :, :]) ** 2).sum(axis=2)
    matcher = KnnClassifier(TrainSet(means, np.arange(225), np.zeros((225, 2))), 1)
    got = matcher.predict_labels(queries)
    np.testing.assert_array_equal(got, np.argmin(d2, axis=1))
    assert got[10] == 3


def test_rss_match_and_gd_ls_take_the_direct_difference_nearest_mean(monkeypatch):
    plan = config.plan_from_config(tiny_config())
    db = experiment.synthesize_fingerprint_db(plan)
    train_idx, _, online_idx = experiment._split_indices(plan, db.blocks_per_grid)
    means = db.rss[:, train_idx, :].mean(axis=1)
    online_q, _ = experiment._flatten_split(db, online_idx)
    d2 = ((online_q[:, np.newaxis, :] - means[np.newaxis, :, :]) ** 2).sum(axis=2)
    want = np.argmin(d2, axis=1)
    seen = []
    predict = fusion.gd_ls_predict_all

    def spy(weights, nearest, online_pred):
        seen.append(nearest)
        return predict(weights, nearest, online_pred)

    monkeypatch.setattr(fusion, "gd_ls_predict_all", spy)
    table = experiment.run_experiment(plan, db)
    np.testing.assert_array_equal(table.est["rss-match"], plan.grid_coords[want])
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], want)


# case -> (line, column, the token that replaces the value there, message after "line n")
BAD_DB_VALUES = {
    "nan": (5, 0, "nan", "has a non-finite value"),  # second RSS row of grid point 0
    "inf": (5, 0, "inf", "has a non-finite value"),
    "non-numeric": (5, 0, "x", "has a non-numeric value"),
    "fractional-count": (1, 0, "9.5", "has a count that is not an integer >= 0"),
    "negative-count": (1, 0, "-2", "has a count that is not an integer >= 0"),
    "non-numeric-count": (1, 0, "G", "has a non-numeric value"),
    "non-numeric-coordinate": (3, 0, "x", "has a non-numeric value"),
    "unordered-tones": (2, 0, "1e9", "is invalid: tones must be strictly increasing"),
    "fft-len-1": (1, 3, "1", "is invalid: fft_len must be at least 2, got 1"),
    "zero-sample-rate": (1, 4, "0",
                         "is invalid: sample_rate must be finite and positive, got 0.0"),
}


@pytest.mark.parametrize("bad", list(BAD_DB_VALUES))
def test_evaluate_rejects_a_non_finite_db_value_with_exit_3(tmp_path, capsys, bad):
    line, column, token, message = BAD_DB_VALUES[bad]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    db_path = tmp_path / "db.txt"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(db_path)]) == 0
    lines = db_path.read_text().splitlines()
    values = lines[line - 1].split()
    values[column] = token
    lines[line - 1] = " ".join(values)
    db_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["evaluate", "--config", str(cfg_path), "--db", str(db_path),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{db_path}: line {line} {message}" in capsys.readouterr().err


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
    table = experiment.run_experiment(config.plan_from_config(cfg))
    assert table.errors("rss-match").size == 9 * 4
    assert np.all(table.errors("rss-match") == 0.0)


def test_noise_free_db_round_trip_is_exact(tmp_path):
    """Truths come from plan.grid_coords, as every estimate does, not from
    the DB text: 3 * 0.05 reads back from its 9 digits as 0.15, an ulp off
    the plan's 0.15000000000000002, so at q = 4 a correct grid label would
    otherwise score a few 1e-17 m."""
    cfg = tiny_config()
    cfg["geometry"]["grid"]["q"] = 4
    cfg["channel"]["noise_std"] = 0.0
    _, db_path = simulate(tmp_path, cfg)
    plan = config.plan_from_config(cfg)
    table = experiment.run_experiment(plan, spectral.load_fingerprints(db_path))
    for method in ("knn", "rss-match"):
        assert np.all(table.errors(method) == 0.0), method
    np.testing.assert_array_equal(table.truth, plan.grid_coords[table.grid_index])


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


@pytest.mark.parametrize("key, value, message", [
    ("blocks_per_grid", 2, "spectral.blocks_per_grid: Q = 2 is too small for split"),
    ("k", 500, "classifiers.knn.k: k = 500 exceeds the 108 training rows"),
])
def test_evaluate_rejects_a_plan_it_cannot_split_or_train_before_any_work(
        tmp_path, capsys, monkeypatch, key, value, message):
    cfg = tiny_config()
    if key == "k":
        cfg["classifiers"]["knn"]["k"] = value
    else:
        cfg["spectral"]["blocks_per_grid"] = value
    cfg_path, db_path = simulate(tmp_path, cfg)  # simulate still accepts the plan

    def no_work(*args):
        raise AssertionError("evaluate read a DB or synthesized a survey")
    monkeypatch.setattr(spectral, "load_fingerprints", no_work)
    monkeypatch.setattr(experiment, "synthesize_fingerprint_db", no_work)
    out = tmp_path / "out"
    for db_args in ([], ["--db", db_path]):
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", cfg_path, *db_args, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(f"config error: {message}")
        assert not os.path.exists(out / "results.csv")


@pytest.mark.parametrize("change", [{"knn_k": 500}, {"blocks_per_grid": 2}],
                         ids=["knn_k", "blocks_per_grid"])
def test_run_experiment_rejects_a_plan_it_cannot_split_or_train_before_the_survey(
        monkeypatch, change):
    def no_survey(*args):
        raise AssertionError("run_experiment synthesized a survey")
    monkeypatch.setattr(experiment, "synthesize_fingerprint_db", no_survey)
    plan = dataclasses.replace(config.plan_from_config(tiny_config()), **change)
    stage, message = (("train", "k = 500 exceeds the 108 training rows") if "knn_k" in change
                      else ("split", "Q = 2 is too small for split"))
    with pytest.raises(experiment.ExperimentError, match=rf"\[{stage}\] {message}") as err:
        experiment.run_experiment(plan)
    assert err.value.stage == stage


@pytest.mark.parametrize("level", [7000.0, -10000.0])
def test_evaluate_rejects_a_db_level_outside_rssr_s_domain_before_training(
        tmp_path, capsys, monkeypatch, level):
    cfg_path, db_path = simulate(tmp_path, tiny_config())
    db = spectral.load_fingerprints(db_path)
    rss = db.rss.copy()
    rss[4, 7, 2] = level
    spectral.save_fingerprints(dataclasses.replace(db, rss=rss), db_path)

    def no_training(*args):
        raise AssertionError("evaluate trained a classifier")
    monkeypatch.setattr(experiment, "_build_classifiers", no_training)
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", cfg_path, "--db", db_path, "--out", str(out)]) == 3
    assert (f"error: [synthesize] fingerprint DB RSS of grid 4, block 7, tone 2 is {level:g} dB, "
            "outside RSSR's +-6000 dB") in capsys.readouterr().err
    assert not os.path.exists(out / "results.csv")


def test_db_with_another_block_count_is_a_synthesize_error(tmp_path, capsys):
    cfg = tiny_config()
    cfg["spectral"]["blocks_per_grid"] = 10
    _, db_path = simulate(tmp_path, cfg)
    cfg["spectral"]["blocks_per_grid"] = 40
    cfg_path = write_config(tmp_path, cfg)
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", cfg_path, "--db", db_path, "--out", str(out)]) == 3
    assert "[synthesize] fingerprint DB blocks per grid do not match plan" in capsys.readouterr().err
    assert not os.path.exists(out / "results.csv")


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


# the plan check each DB change fails -> (the change to the plan's DB, message)
DB_MISMATCHES = {
    "grid size": (lambda db: dataclasses.replace(db, grid_coords=db.grid_coords[:-1],
                                                 rss=db.rss[:-1]),
                  "grid size does not match plan"),
    "grid coordinates": (lambda db: dataclasses.replace(db, grid_coords=db.grid_coords + 0.01),
                         "grid coordinates do not match plan"),
    "fft length": (lambda db: dataclasses.replace(db, fft_len=2 * db.fft_len),
                   "FFT length does not match plan"),
    "sample rate": (lambda db: dataclasses.replace(db, sample_rate=db.sample_rate + 1.0),
                    "sample rate does not match plan"),
}


@pytest.mark.parametrize("change", list(DB_MISMATCHES))
def test_db_that_does_not_match_the_plan_is_a_synthesize_error(tmp_path, capsys, change):
    alter, message = DB_MISMATCHES[change]
    cfg_path, db_path = simulate(tmp_path, tiny_config())
    spectral.save_fingerprints(alter(spectral.load_fingerprints(db_path)), db_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", cfg_path, "--db", db_path, "--out", str(out)]) == 3
    assert f"[synthesize] fingerprint DB {message}" in capsys.readouterr().err
    assert not os.path.exists(out / "results.csv")


def test_result_tables_differing_in_one_ulp_are_not_equal():
    table = experiment.run_experiment(config.plan_from_config(tiny_config()))
    est = {method: e.copy() for method, e in table.est.items()}
    assert table.equals(dataclasses.replace(table, est=est))
    for method in experiment.ALL_METHODS:
        est[method][-1, 1] = np.nextafter(est[method][-1, 1], math.inf)
        assert not table.equals(dataclasses.replace(table, est=est)), method
        est[method][-1, 1] = table.est[method][-1, 1]
    assert not table.equals(dataclasses.replace(table, grid_index=table.grid_index + 1))
    assert not table.equals(dataclasses.replace(table, truth=-table.truth))


def _raise(*args, **kwargs):
    raise RuntimeError("injected failure")


def _raise_tagged(*args, **kwargs):
    raise experiment.ExperimentError("inner", "already tagged")


# stage -> (module, callee it runs, replacement)
STAGE_CALLEES = {
    "synthesize": (experiment, "synthesize_fingerprint_db", _raise),
    "split": (experiment, "_split_indices", _raise),
    "train": (experiment, "_build_classifiers", _raise),
    "predict": (fusion, "build_prediction_matrix", _raise),
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


def test_each_classifier_predicts_once_per_run(monkeypatch):
    # one prediction pass: KNN, ELM and RF each label the offline and online
    # rows in one call; the k = 1 matcher labels the online rows only
    calls = []
    for owner in (KnnClassifier, classifiers._GridClassifier):
        def spy(self, queries, inner=owner.predict_labels):
            calls.append((type(self).__name__, getattr(self, "k", None), len(queries)))
            return inner(self, queries)
        monkeypatch.setattr(owner, "predict_labels", spy)
    plan = config.plan_from_config(tiny_config())
    table = experiment.run_experiment(plan)
    _, n_off, n_on = plan.split.counts(plan.blocks_per_grid)
    rows, online = 9 * (n_off + n_on), 9 * n_on
    assert calls == [("KnnClassifier", 5, rows), ("ElmClassifier", None, rows),
                     ("RandomForest", None, rows), ("KnnClassifier", 1, online)]
    assert table.grid_index.size == online


def test_noise_free_equal_gain_rssr_is_exact_end_to_end():
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    for led in cfg["geometry"]["leds"]:
        led["gain"] = 1000.0
    table = experiment.run_experiment(config.plan_from_config(cfg))
    assert table.errors("rssr").size == 9 * 4
    assert table.errors("rssr").max() <= 1e-7


def test_table1_follows_the_fft_length_law_on_noise_free_tones():
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    cfg["spectral"]["blocks_per_grid"] = 3
    table = experiment.rss_vs_fft_len(config.plan_from_config(cfg))
    assert experiment.TABLE1_FFT_LENS == (2000, 4000, 6000, 8000)
    # an on-bin tone's periodogram peak is N a^2 / 4
    np.testing.assert_allclose(np.diff(table, axis=1),
                               10.0 * np.log10([[4000 / 2000, 6000 / 4000, 8000 / 6000]] * 4),
                               atol=1e-9)


def test_table1_command_prints_the_fft_length_law(tmp_path, capsys):
    cfg = tiny_config()
    cfg["channel"]["noise_std"] = 0.0
    cfg["spectral"]["blocks_per_grid"] = 2
    cfg_path = write_config(tmp_path, cfg)
    capsys.readouterr()
    assert cli.main(["table1", "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["tone_hz", "N2000", "N4000", "N6000", "N8000"]
    at = lines.index("# inter-column deltas (dB)")
    assert [len(line.split()) for line in lines[2:at]] == [5] * 4
    assert lines[at + 1].split() == ["tone_hz", "N4000-N2000", "N6000-N4000", "N8000-N6000"]
    want = [f"{10.0 * math.log10(n2 / n1):.4f}" for n1, n2 in ((2000, 4000), (4000, 6000),
                                                               (6000, 8000))]
    assert want == ["3.0103", "1.7609", "1.2494"]
    rows = [line.split() for line in lines[at + 2:]]
    assert [row[0] for row in rows] == [f"{f:g}" for f in config.plan_from_config(cfg).tones]
    assert all(row[1:] == want for row in rows)


def test_shuffled_split_is_a_seeded_partition_and_the_run_repeats():
    cfg = tiny_config()
    cfg["split"]["shuffle"] = True
    plan = config.plan_from_config(cfg)
    q = plan.blocks_per_grid
    parts = experiment._split_indices(plan, q)
    assert tuple(p.size for p in parts) == plan.split.counts(q)
    np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(q))
    # the contiguous split concatenates to 0 .. q - 1 in order
    assert not np.array_equal(np.concatenate(parts), np.arange(q))
    again = experiment._split_indices(plan, q)
    assert all(np.array_equal(a, b) for a, b in zip(parts, again))
    other = experiment._split_indices(dataclasses.replace(plan, seed=plan.seed + 1), q)
    assert not all(np.array_equal(a, b) for a, b in zip(parts, other))
    assert experiment.run_experiment(plan).equals(experiment.run_experiment(plan))


def test_weights_csv_holds_the_run_gi_and_gd_fits(tmp_path):
    cfg = tiny_config()
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["evaluate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    table = experiment.run_experiment(config.plan_from_config(cfg))
    with open(tmp_path / "out" / "weights.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "grid_index", "wx_knn", "wx_elm", "wx_rf",
                       "wy_knn", "wy_elm", "wy_rf"]

    def row(method, g, wx, wy):
        return [method, str(g), *(format(w, ".9g") for w in (*wx, *wy))]
    want = [row("gi-ls", -1, table.gi.wx.weights, table.gi.wy.weights)]
    want += [row("gd-ls", g, table.gd.wx.weights[g], table.gd.wy.weights[g]) for g in range(9)]
    assert rows[1:] == want


def test_cdf_csv_thresholds_are_0_to_25_cm_in_steps_of_2_5_mm(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    assert cli.main(["evaluate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "cdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "threshold_m", "fraction"]
    want = [format(i / 400, ".9g") for i in range(101)]
    assert want[:3] == ["0", "0.0025", "0.005"] and want[-1] == "0.25"
    assert len(experiment.ALL_METHODS) == 7
    for k, method in enumerate(experiment.ALL_METHODS):
        block = rows[1 + 101 * k : 1 + 101 * (k + 1)]
        assert [r[0] for r in block] == [method] * 101
        assert [r[1] for r in block] == want
    assert len(rows) == 1 + 7 * 101
    # results.csv: 9 grids x 4 online blocks per method, in the same order
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        methods = [r[0] for r in csv.reader(fh)]
    assert methods == ["method", *(m for m in experiment.ALL_METHODS for _ in range(9 * 4))]
    assert (tmp_path / "out" / "weights.csv").is_file()


def test_an_error_a_tenth_of_a_nanometre_past_a_threshold_counts_outside_it():
    # the within-t rule's 1e-12 m absorbs coordinate rounding, nothing more
    at = 20
    t = experiment.CDF_THRESHOLDS[at]
    est = np.array([[t + 1e-10, 0.0], [0.0, t + 1e-13]])
    table = experiment.ResultTable(grid_index=np.zeros(2, dtype=int), truth=np.zeros((2, 2)),
                                   est={m: est for m in experiment.ALL_METHODS}, gi=None, gd=None)
    assert table.errors("knn")[0] > t + 9e-11
    for method in experiment.ALL_METHODS:
        assert table.fraction_within(method, t) == 0.5
        assert table.cdf(method)[at] == 0.5


def test_every_one_step_miss_on_the_benchmark_grid_counts_within_one_step():
    plan = config.plan_from_config(config.benchmark_config())
    coords, q, step = plan.grid_coords, plan.grid_q, plan.grid_spacing
    g = np.arange(q * q)
    ix, iy = g % q, g // q
    # every ordered pair of grid neighbours, along x and along y
    pairs = [(g[ix < q - 1], g[ix < q - 1] + 1), (g[iy < q - 1], g[iy < q - 1] + q)]
    truth_g = np.concatenate([a for a, b in pairs] + [b for a, b in pairs])
    est_g = np.concatenate([b for a, b in pairs] + [a for a, b in pairs])
    assert truth_g.size == 4 * q * (q - 1)
    table = experiment.ResultTable(grid_index=truth_g, truth=coords[truth_g],
                                   est={m: coords[est_g] for m in experiment.ALL_METHODS},
                                   gi=None, gd=None)
    err = table.errors("knn")
    assert np.count_nonzero(err > step) > 0  # the rounding the rule absorbs
    assert np.all(np.abs(err - step) < 1e-15)
    at_step = experiment.CDF_THRESHOLDS.index(step)
    for method in experiment.ALL_METHODS:
        assert table.fraction_within(method, step) == 1.0
        assert table.cdf(method)[at_step] == 1.0
        assert table.cdf(method)[at_step - 1] == 0.0


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
INF = math.inf
H = [0.0, 0.0, 1.0]

# field -> a call that passes NaN (or an infinite, out-of-range or non-integer value) to that field
BAD_FIELDS = {
    "LedConfig.position": lambda: LedConfig([0.0, 0.0, NAN], 8e5),
    "LedConfig.frequency": lambda: LedConfig(H, NAN),
    "LedConfig.amplitude": lambda: LedConfig(H, 8e5, amplitude=NAN),
    "LedConfig.gain": lambda: LedConfig(H, 8e5, gain=NAN),
    "ChannelParams.lambertian_order": lambda: ChannelParams(NAN, 1e-4, 0.0, 4e6),
    "ChannelParams.pd_area": lambda: ChannelParams(1.0, NAN, 0.0, 4e6),
    "ChannelParams.noise_std": lambda: ChannelParams(1.0, 1e-4, NAN, 4e6),
    "ChannelParams.sample_rate": lambda: ChannelParams(1.0, 1e-4, 0.0, NAN),
    "ChannelParams.lambertian_order=inf": lambda: ChannelParams(INF, 1e-4, 0.0, 4e6),
    "ChannelParams.pd_area=inf": lambda: ChannelParams(1.0, INF, 0.0, 4e6),
    "ChannelParams.noise_std=inf": lambda: ChannelParams(1.0, 1e-4, INF, 4e6),
    "ChannelParams.sample_rate=inf": lambda: ChannelParams(1.0, 1e-4, 0.0, INF),
    "SplitRatios.train": lambda: SplitRatios(NAN, 0.5, 0.5),
    "SplitRatios.offline": lambda: SplitRatios(0.5, NAN, 0.5),
    "SplitRatios.online": lambda: SplitRatios(0.5, 0.5, NAN),
    "SplitRatios.shuffle": lambda: SplitRatios(shuffle="yes"),
    "SplitRatios.sum": lambda: SplitRatios(0.5, 0.5, 0.5),
    # two LEDs on one tone, then two at one position
    "ExperimentPlan.leds": lambda: dataclasses.replace(
        config.plan_from_config(tiny_config()),
        leds=(LedConfig(H, 8e5), LedConfig([1.0, 0.0, 1.0], 9e5),
              LedConfig([0.0, 1.0, 1.0], 8e5))),
    "ExperimentPlan.leds.position": lambda: dataclasses.replace(
        config.plan_from_config(tiny_config()),
        leds=(LedConfig(H, 8e5), LedConfig(H, 9e5), LedConfig([1.0, 0.0, 1.0], 1e6))),
    "ExperimentPlan.grid_spacing": lambda: dataclasses.replace(
        config.plan_from_config(tiny_config()), grid_spacing=NAN),
    **{f"ExperimentPlan.{name}={value!r}": functools.partial(
        lambda name, value: dataclasses.replace(
            config.plan_from_config(tiny_config()), **{name: value}), name, value)
       for name, value in [("knn_k", 0),
                           # counts that are not integers, bools included
                           ("grid_q", 2.5), ("fft_len", 2000.5), ("blocks_per_grid", 3.5),
                           ("knn_k", True), ("seed", 1.5), ("seed", False),
                           # an infinite spacing, and one whose grid extent overflows at q = 3
                           ("grid_spacing", INF), ("grid_spacing", 1e308),
                           # an integer below its least value
                           ("fft_len", 1), ("seed", -1)]},
    # a PD's x and y are plan.grid_coords, which the plan keeps finite
    "PdPose.x": lambda: dataclasses.replace(
        config.plan_from_config(tiny_config()), grid_spacing=NAN),
    "PdPose.y": lambda: dataclasses.replace(
        config.plan_from_config(tiny_config()), grid_spacing=INF),
}


@pytest.mark.parametrize("field", sorted(BAD_FIELDS))
def test_python_api_rejects_nan_in_each_field(field):
    with pytest.raises(ValueError):
        BAD_FIELDS[field]()


def _csv_writer_results(table, path):
    """The row-at-a-time csv.writer form of cli._write_results_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "grid_index", "true_x", "true_y", "est_x", "est_y",
                         "error_m"])
        for method in experiment.ALL_METHODS:
            est, errs = table.est[method], table.errors(method)
            for i in range(table.grid_index.size):
                writer.writerow([method, table.grid_index[i],
                                 *(format(v, ".9g") for v in (*table.truth[i], *est[i], errs[i]))])


def test_results_csv_equals_the_csv_writer_text(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    edge = np.array([-0.0, 1e-10, 1e21, 3.0, -2.0, 0.1, 123456789.0, 1.0 / 3.0])
    truth = np.column_stack([edge, edge[::-1]])
    table = experiment.ResultTable(
        grid_index=np.array([0, 5, 12, 224, 3, 3, 7, 0]),
        truth=truth,
        est={m: (truth.copy(), truth + rng.normal(size=truth.shape), -truth)[k % 3]
             for k, m in enumerate(experiment.ALL_METHODS)},
        gi=None, gd=None)
    _csv_writer_results(table, tmp_path / "rows.csv")
    for chunk in (cli._CSV_CHUNK_ROWS, 3):  # 3: 8 rows per method in chunks of 3, 3 and 2
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk)
        cli._write_results_csv(table, tmp_path / "bulk.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _csv_writer_cdf_and_weights(table, cdf_path, weights_path):
    """The row-at-a-time csv.writer forms of cli._write_cdf_csv and cli._write_weights_csv."""
    with open(cdf_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "threshold_m", "fraction"])
        for method in experiment.ALL_METHODS:
            for thr, frac in zip(experiment.CDF_THRESHOLDS, table.cdf(method)):
                writer.writerow([method, format(thr, ".9g"), format(frac, ".9g")])
    order = experiment.SINGLE_CLASSIFIERS
    with open(weights_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "grid_index"] + [f"wx_{c}" for c in order]
                        + [f"wy_{c}" for c in order])
        for method, fit in (("gi-ls", table.gi), ("gd-ls", table.gd)):
            rows = np.hstack([np.atleast_2d(fit.wx.weights), np.atleast_2d(fit.wy.weights)])
            grids = [-1] if fit.wx.weights.ndim == 1 else range(len(rows))
            for g, row in zip(grids, rows.tolist()):
                writer.writerow([method, g] + [format(w, ".9g") for w in row])


def test_cdf_and_weights_csv_equal_the_csv_writer_text(tmp_path):
    rng = np.random.default_rng(15)
    truth = np.zeros((9, 2))
    edge = np.array([[-0.0, 1e21, 1.0 / 3.0], [1e-10, -2.0, 123456789.0]])
    ranks = np.full(2, 3)
    table = experiment.ResultTable(
        grid_index=np.arange(9), truth=truth,
        est={m: rng.uniform(0.0, 0.2, truth.shape) for m in experiment.ALL_METHODS},
        gi=fusion.FusionWeights(fusion.LsFit(edge[0], 3), fusion.LsFit(edge[1], 3)),
        gd=fusion.FusionWeights(fusion.LsFit(edge, ranks), fusion.LsFit(edge[::-1], ranks)))
    _csv_writer_cdf_and_weights(table, tmp_path / "cdf_rows.csv", tmp_path / "weights_rows.csv")
    cli._write_cdf_csv(table, tmp_path / "cdf.csv")
    cli._write_weights_csv(table, tmp_path / "weights.csv")
    assert (tmp_path / "cdf.csv").read_bytes() == (tmp_path / "cdf_rows.csv").read_bytes()
    assert (tmp_path / "weights.csv").read_bytes() == (tmp_path / "weights_rows.csv").read_bytes()
    assert b"gi-ls,-1,-0,1e+21,0.333333333,1e-10,-2,123456789\r\n" in (
        tmp_path / "weights.csv").read_bytes()


def test_stage_memory_probe_reports_each_peak_setting_call(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    records = stage_memory.replay(cfg_path, "evaluate", str(tmp_path))
    assert (tmp_path / "out" / "results.csv").exists()
    calls = ["KnnClassifier(k=5).fit", "ElmClassifier.fit", "RandomForest.fit",
             "KnnClassifier(k=1).fit"]
    predicts = ["KnnClassifier(k=5).predict_labels", "ElmClassifier.predict_labels",
                "RandomForest.predict_labels"]
    calls += predicts + ["gi_ls_fit", "gd_ls_fit"]  # offline and online rows, then the fits
    calls += ["KnnClassifier(k=1).predict_labels", "_estimate"]  # the online rows
    calls += ["_write_results_csv"]
    assert [r[0] for r in records] == ["synthesize_fingerprint_db", "load_fingerprints", *calls]
    assert all(0 < hwm0 <= hwm1 and 0 < rss0 <= hwm0 and 0 < rss1 <= hwm1 and faults >= 0
               and traced is None for _, hwm0, hwm1, rss0, rss1, faults, traced in records)
    tracemalloc.start()
    try:
        traced = stage_memory.replay(cfg_path, "evaluate", str(tmp_path))
    finally:
        tracemalloc.stop()
    assert [r[0] for r in traced] == [r[0] for r in records]
    assert all(0 <= live <= peak for *_, (live, peak) in traced)
    capsys.readouterr()
    stage_memory.print_report(stage_memory.memory_mb(), records, traced)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(records) and lines[2].startswith("synthesize_fingerprint_db")
    assert stage_memory.main(["evaluate"]) == 2
