"""Tests of the benchmark's own checks, metrics and tracer on a tiny config.

Run with: PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import json
import os

import pytest

import checks
import tracing
import workloads
from vlcloc import cli, classifiers, config, experiment, spectral


def tiny_config(seed: int = 7) -> dict:
    """3 x 3 grid, Q = 20 blocks, k = 5: the full pipeline in about a second."""
    cfg = config.benchmark_config()
    cfg["geometry"]["grid"]["q"] = 3
    cfg["spectral"]["blocks_per_grid"] = 20
    cfg["classifiers"]["knn"]["k"] = 5
    cfg["run"]["seed"] = seed
    return cfg


def run_cli(tmp, cfg) -> tuple[str, str]:
    """simulate then evaluate --db in tmp; return (db path, output dir)."""
    os.makedirs(tmp, exist_ok=True)
    cfg_path = os.path.join(tmp, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    db_path = os.path.join(tmp, "db.txt")
    out_dir = os.path.join(tmp, "out")
    assert cli.main(["simulate", "--config", cfg_path, "--out", db_path]) == 0
    assert cli.main(["evaluate", "--config", cfg_path, "--db", db_path, "--out", out_dir]) == 0
    return db_path, out_dir


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cfg = tiny_config()
    plan = config.plan_from_config(cfg)
    db_path, out_dir = run_cli(str(tmp_path_factory.mktemp("untraced")), cfg)
    n_online = plan.grid_coords.shape[0] * plan.split.counts(plan.blocks_per_grid)[2]
    return cfg, plan, db_path, out_dir, n_online


def test_accuracy_from_csv_equals_result_table(tiny):
    _, plan, db_path, out_dir, n_online = tiny
    table = experiment.run_experiment(plan, spectral.load_fingerprints(db_path))
    outcome = checks.Outcome()
    results = checks.check_results(out_dir, plan.methods, n_online, outcome)
    metrics = checks.accuracy(out_dir, results, outcome)
    assert outcome.correct, outcome.problems
    assert outcome.attempted == len(plan.methods) * n_online
    for short, method in checks.METRIC_METHODS.items():
        # results.csv keeps 9 significant digits
        assert metrics[f"mspe_{short}_m"] == pytest.approx(table.mspe(method), rel=1e-8)
    for short, method in checks.P5CM_METHODS.items():
        assert metrics[f"p5cm_{short}"] == table.fraction_within(method, 0.05)


def test_op_counter_counts_non_finite_and_missing_rows(tiny, tmp_path):
    _, plan, _, out_dir, n_online = tiny
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    est_x, est_y = header.index("est_x"), header.index("est_y")
    body[0][est_x] = "nan"
    body[5][est_y] = "inf"
    body[9][est_x] = "not-a-number"
    del body[-1]
    with open(tmp_path / "results.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header] + body)
    outcome = checks.Outcome()
    checks.check_results(str(tmp_path), plan.methods, n_online, outcome)
    assert outcome.attempted == len(plan.methods) * n_online
    assert outcome.failed == 4
    assert not outcome.correct


def test_tracing_changes_no_output(tiny, tmp_path):
    cfg, _, db_path, out_dir, _ = tiny
    original_main = cli.main
    with tracing.Tracer() as tracer:
        traced_db, traced_out = run_cli(str(tmp_path), cfg)
    assert tracer.not_found == []
    assert cli.main is original_main
    assert "predict_coords" not in vars(classifiers.KnnClassifier)
    for a, b in [(db_path, traced_db)] + [
            (os.path.join(out_dir, f), os.path.join(traced_out, f))
            for f in ("results.csv", "cdf.csv", "weights.csv")]:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), b
    metrics = tracing.layer_metrics(json.loads(json.dumps(
        {"spans": tracer.spans, "counts": tracer.counts})))
    assert metrics["channel.synth.calls"] == 9
    assert metrics["spectral.fingerprint.blocks"] == 9 * 20
    assert metrics["classifiers.rf.fit_rows"] == 9 * 12
    assert metrics["baselines.rssr.calls"] == 9 * 4
    assert metrics["fusion.gi.rank_x"] >= 1
    assert 0.0 < metrics["experiment.run.self_s"]


def test_missing_entry_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("gone", "vlcloc.fusion", "gd_ls_predict_batch", None),
        ("gone.cls", "vlcloc.baselines:NoSuchSolver", "locate", None)))
    original = spectral.build_fingerprints
    with tracing.Tracer() as tracer:
        assert spectral.build_fingerprints is not original
    assert tracer.not_found == ["vlcloc.fusion.gd_ls_predict_batch",
                                "vlcloc.baselines:NoSuchSolver.locate"]
    assert spectral.build_fingerprints is original


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
             ["d", 2.0, 3.0, 1]]
    calls, busy, self_s = tracing.span_times(spans)
    assert busy["a"] == 10.0 and self_s["a"] == 6.0
    assert self_s["b"] == 2.0 and self_s["d"] == 1.0 and calls["c"] == 1


def test_survey_oracle_passes_real_db_and_catches_a_level_shift(tiny, tmp_path):
    _, plan, db_path, _, _ = tiny
    outcome = checks.Outcome()
    checks.check_survey_db(db_path, plan, outcome)
    assert outcome.correct, outcome.problems
    assert outcome.attempted == 9
    _, snr = checks.on_bin_levels(plan)
    assert (snr >= checks.SNR_MIN_DB).any()

    db = spectral.load_fingerprints(db_path)
    shifted = str(tmp_path / "shifted.txt")
    spectral.save_fingerprints(spectral.FingerprintDB(
        db.grid_coords, db.rss + 1.5, db.tones, db.fft_len, db.sample_rate), shifted)
    outcome = checks.Outcome()
    checks.check_survey_db(shifted, plan, outcome)
    assert not outcome.correct and outcome.failed == outcome.attempted == 9


def test_workload_configs_differ_only_in_split_and_seed():
    base = config.benchmark_config()
    for name, (_, split) in workloads.WORKLOADS.items():
        cfg = workloads.workload_config(name, 11)
        plan = config.plan_from_config(cfg)
        assert plan.seed == 11 and plan.grid_q == 15 and plan.blocks_per_grid == 200
        assert len(plan.methods) == 7
        expected = base["split"] if split is None else dict(
            zip(("train", "offline", "online"), split), shuffle=False)
        assert cfg["split"] == expected
        assert {k: v for k, v in cfg.items() if k not in ("split", "run")} == {
            k: v for k, v in base.items() if k not in ("split", "run")}
