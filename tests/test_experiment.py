import json
import os
import subprocess
import sys

import numpy as np
import pytest

from deuq import experiment, problems
from deuq.cli import main
from deuq.errors import ConfigError
from deuq.uq import PredictiveBand

FAST = dict(
    epochs_stage1=300, epochs_stage2=200, n_collocation=16,
    dataset_grid=33, eval_grid=31, n_mc_samples=64,
)


def _cfg(tmp_path, **kw):
    merged = {**FAST, **kw}
    return experiment.ExperimentConfig(output_dir=str(tmp_path), **merged)


def test_config_rejects_unknown_tags(tmp_path):
    with pytest.raises(ConfigError) as err:
        experiment.ExperimentConfig(preset="heat", output_dir=str(tmp_path))
    assert "linear_ode" in str(err.value)
    with pytest.raises(ConfigError) as err:
        experiment.ExperimentConfig(method="dropout", output_dir=str(tmp_path))
    assert "bbb" in str(err.value)


def test_seed_derivation_is_stable():
    a = experiment.derive_seed(0, "stage1_init")
    assert a == experiment.derive_seed(0, "stage1_init")
    assert a != experiment.derive_seed(1, "stage1_init")
    assert a != experiment.derive_seed(0, "mc_samples")
    with pytest.raises(ConfigError):
        experiment.derive_seed(0, "nonexistent")


def test_run_writes_all_artifacts(tmp_path):
    paths = experiment.run(_cfg(tmp_path, preset="linear_ode", method="nlm", seed=1))
    for p in (paths.band_csv, paths.stage1_json, paths.report_json, paths.config_json):
        assert p.exists()
        assert not p.with_name(p.name + ".tmp").exists()
    report = json.loads(paths.report_json.read_text())
    for key in ("coverage_k2", "inflation_ratio", "mean_std_train",
                "mean_std_extrap", "rmse_train"):
        assert key in report


def test_run_is_byte_reproducible(tmp_path):
    cfg = _cfg(tmp_path, preset="linear_ode", method="bbb", seed=3)
    first = experiment.run(cfg).band_csv.read_bytes()
    again = experiment.run(_cfg(tmp_path, preset="linear_ode", method="bbb", seed=3))
    assert first == again.band_csv.read_bytes()


def test_run_reuses_cached_stage1(tmp_path):
    cfg = _cfg(tmp_path, preset="linear_ode", method="nlm", seed=2)
    paths = experiment.run(cfg)
    stamp = paths.stage1_json.stat().st_mtime_ns
    experiment.run(_cfg(tmp_path, preset="linear_ode", method="der", seed=2))
    assert paths.stage1_json.stat().st_mtime_ns == stamp


TINY_LV = dict(preset="lotka_volterra", method="nlm", seed=5, epochs_stage1=3,
               epochs_stage2=2, n_collocation=8, dataset_grid=9, eval_grid=9)


@pytest.mark.parametrize("field,value", [
    ("lv_standard_form", True),
    ("n_collocation", 10),
    ("sampler", "uniform_random"),
    ("lr_stage1", 5e-3),
    ("tolerance", 1e-3),
    ("epochs_stage1", 5),  # more epochs than the cached solve ran
])
def test_stage1_cache_needs_exact_settings(tmp_path, monkeypatch, field, value):
    solves = []
    real = experiment.run_stage1

    def counting(config, problem=None):
        solves.append(config)
        return real(config, problem)

    monkeypatch.setattr(experiment, "run_stage1", counting)
    experiment.run(_cfg(tmp_path, **TINY_LV))
    experiment.run(_cfg(tmp_path, **{**TINY_LV, "method": "der"}))
    assert len(solves) == 1  # same stage-1 settings, other method: reused
    paths = experiment.run(_cfg(tmp_path, **{**TINY_LV, field: value}))
    assert len(solves) == 2
    cached = experiment.stage1.load_result(paths.stage1_json)
    assert cached.settings_digest == experiment.stage1_digest(solves[-1])


def test_config_echo_reports_every_effective_parameter(tmp_path):
    cfg = _cfg(tmp_path, preset="linear_ode", method="nlm", seed=4)
    paths = experiment.run(cfg)
    echo = json.loads(paths.config_json.read_text())
    import dataclasses

    for field in dataclasses.fields(experiment.ExperimentConfig):
        assert field.name in echo
    assert echo["hidden_sizes"] == [32]
    assert echo["eps"] == cfg.eps
    assert "sub_seeds" in echo


def test_band_csv_schema_single_point(tmp_path):
    band = PredictiveBand(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.1]]), enforced=True)
    path = tmp_path / "one.csv"
    experiment.emit_band_csv(band, np.array([[0.9]]), ((0.0, 2.0),), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "t,mean,std,reference,in_train_domain"
    assert lines[1] == "0.5,1,0.1,0.9,1"


def test_band_csv_two_coordinates(tmp_path):
    grid = np.array([[0.0, 0.0], [0.5, 1.2]])
    band = PredictiveBand(grid, np.zeros((2, 1)), np.ones((2, 1)), enforced=True)
    path = tmp_path / "two.csv"
    experiment.emit_band_csv(band, np.zeros((2, 1)), ((-1.0, 1.0), (0.0, 1.0)), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("x,t,")
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[-1] == "0"  # t=1.2 is outside the train box


def test_band_csv_multi_output_suffixes(tmp_path):
    grid = np.array([[0.0], [3.0]])
    band = PredictiveBand(grid, np.zeros((2, 2)), np.ones((2, 2)), enforced=True)
    path = tmp_path / "lv.csv"
    experiment.emit_band_csv(band, np.zeros((2, 2)), ((0.0, 2.0),), path)
    header = path.read_text().split("\n")[0]
    assert header == "t,mean_0,std_0,reference_0,mean_1,std_1,reference_1,in_train_domain"


def test_band_csv_roundtrip_and_report(tmp_path):
    grid = np.linspace(0.0, 3.0, 13).reshape(-1, 1)
    rng = np.random.default_rng(0)
    band = PredictiveBand(grid, rng.normal(size=(13, 1)),
                          np.abs(rng.normal(size=(13, 1))) + 0.05, enforced=True)
    reference = rng.normal(size=(13, 1))
    path = tmp_path / "band.csv"
    experiment.emit_band_csv(band, reference, ((0.0, 2.0),), path)
    loaded, ref_loaded, inside = experiment.read_band_csv(path)
    np.testing.assert_allclose(loaded.mean, band.mean, rtol=1e-8)
    np.testing.assert_allclose(ref_loaded, reference, rtol=1e-8)
    report = experiment.report_from_csv(path)
    assert 0.0 <= report["coverage_k2"] <= 1.0
    assert report["inflation_ratio"] > 0.0


def test_report_from_csv_matches_the_run_report(tmp_path):
    paths = experiment.run(_cfg(tmp_path, preset="duffing", method="bbb", seed=8))
    saved = json.loads(paths.report_json.read_text())
    band, reference, _ = experiment.read_band_csv(paths.band_csv)
    recomputed = experiment.report_from_csv(paths.band_csv)
    assert recomputed.keys() == saved.keys() - {"preset", "method", "seed", "final_stage1_loss"}
    assert recomputed["coverage_k2"] == saved["coverage_k2"]
    # the CSV keeps 9 significant digits of every mean, std and reference
    for key in ("mean_std_train", "mean_std_extrap", "inflation_ratio"):
        assert recomputed[key] == pytest.approx(saved[key], rel=2e-8)
    scale = max(np.abs(band.mean).max(), np.abs(reference).max())
    assert recomputed["rmse_train"] == pytest.approx(saved["rmse_train"], abs=1e-8 * scale)


def test_emitted_csv_is_identical_on_reemission(tmp_path):
    grid = np.linspace(0.0, 3.0, 5).reshape(-1, 1)
    band = PredictiveBand(grid, np.ones((5, 1)), np.ones((5, 1)), enforced=True)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    experiment.emit_band_csv(band, np.ones((5, 1)), ((0.0, 2.0),), a)
    experiment.emit_band_csv(band, np.ones((5, 1)), ((0.0, 2.0),), b)
    assert a.read_bytes() == b.read_bytes()


def test_cli_unknown_method_exit_code(tmp_path, capsys):
    code = main(["run", "--preset", "linear_ode", "--method", "dropout",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "bbb" in capsys.readouterr().err


def test_cli_full_pipeline_and_report(tmp_path, capsys):
    args = ["--preset", "linear_ode", "--method", "nlm", "--seed", "5",
            "--out", str(tmp_path), "--epochs-stage1", "300",
            "--epochs-stage2", "200", "--n-collocation", "16",
            "--dataset-grid", "33", "--eval-grid", "31"]
    assert main(["run", *args]) == 0
    band = tmp_path / "band_linear_ode_nlm_seed5.csv"
    assert band.exists()
    assert main(["report", "--band", str(band)]) == 0
    out = capsys.readouterr().out
    assert "inflation_ratio" in out


def test_cli_solve_then_uq(tmp_path, capsys):
    common = ["--preset", "linear_ode", "--seed", "6", "--out", str(tmp_path),
              "--epochs-stage1", "300", "--n-collocation", "16",
              "--dataset-grid", "33"]
    assert main(["solve", *common]) == 0
    stage1_file = tmp_path / "stage1_linear_ode_seed6.json"
    assert stage1_file.exists()
    assert main(["uq", "--stage1", str(stage1_file), *common,
                 "--method", "nlm", "--epochs-stage2", "200",
                 "--eval-grid", "31"]) == 0
    assert (tmp_path / "band_linear_ode_nlm_seed6.csv").exists()


def test_cli_solve_then_uq_writes_the_files_of_run(tmp_path):
    common = ["--preset", "linear_ode", "--seed", "6", "--epochs-stage1", "300",
              "--n-collocation", "16", "--dataset-grid", "33"]
    stage2 = ["--method", "der", "--epochs-stage2", "200", "--eval-grid", "31"]
    whole, split = tmp_path / "run", tmp_path / "split"
    assert main(["run", *common, *stage2, "--out", str(whole)]) == 0
    assert main(["solve", *common, "--out", str(split)]) == 0
    assert main(["uq", "--stage1", str(split / "stage1_linear_ode_seed6.json"),
                 *common, *stage2, "--out", str(split)]) == 0
    for name in ("stage1_linear_ode_seed6.json", "band_linear_ode_der_seed6.csv",
                 "report_linear_ode_der_seed6.json"):
        assert (split / name).read_bytes() == (whole / name).read_bytes()
    echo = {d: json.loads((d / "config_linear_ode_der_seed6.json").read_text())
            for d in (whole, split)}
    assert {**echo[split], "output_dir": None} == {**echo[whole], "output_dir": None}


def test_cli_uq_rejects_a_stage1_file_of_other_settings(tmp_path, capsys):
    common = ["--preset", "linear_ode", "--seed", "6", "--out", str(tmp_path),
              "--n-collocation", "16", "--dataset-grid", "33"]
    assert main(["solve", *common, "--epochs-stage1", "30"]) == 0
    stage1_file = tmp_path / "stage1_linear_ode_seed6.json"
    before = sorted(tmp_path.iterdir())
    for claimed in (["--epochs-stage1", "500", "--hidden-sizes", "8"],
                    ["--epochs-stage1", "500"]):
        assert main(["uq", "--stage1", str(stage1_file), *common, *claimed,
                     "--method", "nlm", "--epochs-stage2", "20",
                     "--eval-grid", "31"]) == 2
        assert "stage-1 settings" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_cli_config_file_with_flag_override(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({
        "preset": "linear_ode", "method": "nlm", "seed": 7,
        "epochs_stage1": 300, "epochs_stage2": 200, "n_collocation": 16,
        "dataset_grid": 33, "eval_grid": 31,
        "output_dir": str(tmp_path / "from_file"),
    }))
    assert main(["run", "--config", str(config_file),
                 "--out", str(tmp_path / "cli_wins")]) == 0
    assert (tmp_path / "cli_wins" / "band_linear_ode_nlm_seed7.csv").exists()
    assert not (tmp_path / "from_file").exists()


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({"preset": "linear_ode", "epochz": 3}))
    assert main(["run", "--config", str(config_file)]) == 2


def test_cli_run_rejects_nonpositive_coverage_k_before_any_compute(tmp_path, capsys):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({
        "preset": "linear_ode", "method": "nlm", **FAST, "coverage_k": 0,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_file)]) == 2
    assert "coverage width k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_report_rejects_nonpositive_coverage_k(tmp_path, capsys, k):
    grid = np.linspace(0.0, 3.0, 7).reshape(-1, 1)
    band = PredictiveBand(grid, np.ones((7, 1)), np.ones((7, 1)), enforced=True)
    path = tmp_path / "band.csv"
    experiment.emit_band_csv(band, np.ones((7, 1)), ((0.0, 2.0),), path)
    assert main(["report", "--band", str(path), "--coverage-k", k]) == 2
    assert "coverage width k" in capsys.readouterr().err


def test_output_root_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(experiment.OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = experiment.ExperimentConfig(output_dir="nested")
    assert experiment.output_root(cfg) == tmp_path / "nested"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deuq.cli", "run", "--preset", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
