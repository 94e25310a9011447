import json

import numpy as np
import pytest

import rf_reference
from vlcloc import cli, config, experiment, fusion, spectral
from vlcloc.classifiers import TrainSet


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
    np.testing.assert_array_equal(first.results["rf"].est, plan.grid_coords[labels])


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
    lines = open(db_path).read().splitlines()
    with open(db_path, "w") as fh:
        fh.write("\n".join(lines[:-3]) + "\n")
    capsys.readouterr()
    code = cli.main(["evaluate", "--config", cfg_path, "--db", db_path,
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{db_path}: expected {len(lines)} lines, found {len(lines) - 3}" in capsys.readouterr().err


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
