import dataclasses
import json
import os
import re
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest

from deuq import experiment, metrics, problems
from deuq.cli import build_parser, main
from deuq.errors import ConfigError
from deuq.uq.predictive import PredictiveBand

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

    def counting(config):
        solves.append(config)
        return real(config)

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


def _inside(band, train_domain=((0.0, 2.0),)):
    return metrics.in_train_mask(band.grid, train_domain)


def test_config_fills_its_defaults_when_built():
    written_out = experiment.ExperimentConfig(
        preset="burgers", method="der", hidden_sizes=(32, 32), n_collocation=32,
        epochs_stage1=8000, lr_stage1=2e-3, dataset_grid=48, eval_grid=37,
        epochs_stage2=3000, stage2_hidden_sizes=(32,))
    assert experiment.ExperimentConfig(preset="burgers", method="der") == written_out


def test_config_echo_fed_back_writes_the_same_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "linear_ode", "--method", "nlm", "--seed", "3",
                 "--epochs-stage1", "30", "--epochs-stage2", "20", "--n-collocation", "8",
                 "--dataset-grid", "9", "--eval-grid", "9", "--out", "first"]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "first").iterdir()}
    echo = json.loads(first["config_linear_ode_nlm_seed3.json"])
    del echo["sub_seeds"]
    (tmp_path / "echo.json").write_text(json.dumps(echo))
    for name in first:
        (tmp_path / "first" / name).unlink()
    assert main(["run", "--config", "echo.json"]) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "first").iterdir()} == first


def test_band_csv_schema_single_point(tmp_path):
    band = PredictiveBand(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.1]]), enforced=True)
    path = tmp_path / "one.csv"
    experiment.emit_band_csv(band, np.array([[0.9]]), _inside(band), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "t,mean,std,reference,in_train_domain"
    assert lines[1] == "0.5,1,0.1,0.9,1"


def test_band_csv_two_coordinates(tmp_path):
    grid = np.array([[0.0, 0.0], [0.5, 1.2]])
    band = PredictiveBand(grid, np.zeros((2, 1)), np.ones((2, 1)), enforced=True)
    path = tmp_path / "two.csv"
    experiment.emit_band_csv(band, np.zeros((2, 1)), _inside(band, ((-1.0, 1.0), (0.0, 1.0))), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("x,t,")
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[-1] == "0"  # t=1.2 is outside the train box


def test_band_csv_multi_output_suffixes(tmp_path):
    grid = np.array([[0.0], [3.0]])
    band = PredictiveBand(grid, np.zeros((2, 2)), np.ones((2, 2)), enforced=True)
    path = tmp_path / "lv.csv"
    experiment.emit_band_csv(band, np.zeros((2, 2)), _inside(band), path)
    header = path.read_text().split("\n")[0]
    assert header == "t,mean_0,std_0,reference_0,mean_1,std_1,reference_1,in_train_domain"


def test_band_csv_roundtrip_and_report(tmp_path):
    grid = np.linspace(0.0, 3.0, 13).reshape(-1, 1)
    rng = np.random.default_rng(0)
    band = PredictiveBand(grid, rng.normal(size=(13, 1)),
                          np.abs(rng.normal(size=(13, 1))) + 0.05, enforced=True)
    reference = rng.normal(size=(13, 1))
    path = tmp_path / "band.csv"
    experiment.emit_band_csv(band, reference, _inside(band), path)
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


def test_burgers_report_coverage_equals_report_from_csv(tmp_path):
    # the enforced band has zero std at x = +-1 and t = 0, where its mean
    # and the reference differ by rounding, in memory and in the CSV alike
    paths = experiment.run(_cfg(tmp_path, preset="burgers", method="nlm", seed=0,
                                epochs_stage1=50, epochs_stage2=20, n_collocation=8,
                                dataset_grid=12, eval_grid=9, hidden_sizes=(8,)))
    saved = json.loads(paths.report_json.read_text())
    assert saved["coverage_k2"] == experiment.report_from_csv(paths.band_csv)["coverage_k2"]


def test_emitted_csv_is_identical_on_reemission(tmp_path):
    grid = np.linspace(0.0, 3.0, 5).reshape(-1, 1)
    band = PredictiveBand(grid, np.ones((5, 1)), np.ones((5, 1)), enforced=True)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    experiment.emit_band_csv(band, np.ones((5, 1)), _inside(band), a)
    experiment.emit_band_csv(band, np.ones((5, 1)), _inside(band), b)
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


@pytest.mark.parametrize("flag,value", [
    ("--eps", "-1"),
    ("--prior-std", "0"),
    ("--lr-stage2", "0"),
    ("--epochs-stage2", "-1"),
    ("--der-lambda", "-1"),
    ("--stage2-activation", "relu"),
    ("--stage2-hidden-sizes", "8,8,8,8"),
])
@pytest.mark.parametrize("command", ["run", "solve", "uq"])
def test_cli_run_rejects_bad_stage2_settings_before_stage1(tmp_path, capsys, command, flag, value):
    # `solve` fits no stage 2, but a stage-1 file is solved to be used by one;
    # `uq` gets a good stage-1 file and must not make its output directory
    out = tmp_path / "out"
    common = ["--preset", "linear_ode", "--method", "nlm", "--epochs-stage1", "300",
              "--n-collocation", "16"]
    stage1_file = []
    if command == "uq":
        assert main(["solve", *common, "--out", str(tmp_path / "solved")]) == 0
        stage1_file = ["--stage1", str(tmp_path / "solved" / "stage1_linear_ode_seed0.json")]
    assert main([command, *stage1_file, *common, "--out", str(out), flag, value]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points,values", [
    (np.zeros((0, 1)), np.zeros((0, 1))),
    (np.zeros((4, 1)), np.zeros((3, 1))),
    (np.zeros((4, 1)), np.array([[0.0], [np.nan], [0.0], [0.0]])),
])
def test_run_method_rejects_an_empty_ragged_or_nonfinite_dataset(tmp_path, points, values):
    config = _cfg(tmp_path, **{**TINY_LV, "preset": "linear_ode"})
    result = dataclasses.replace(experiment.run_stage1(config), dataset_points=points,
                                 dataset_values=values)
    with pytest.raises(ConfigError, match="dataset"):
        experiment.run_method(config, result)


@pytest.mark.parametrize("flag,value", [
    ("--eps", "nan"),
    ("--prior-std", "nan"),
    ("--lr-stage1", "nan"),
    ("--lr-stage1", "0"),
    ("--lr-stage2", "nan"),
    ("--der-lambda", "nan"),
    ("--tolerance", "nan"),
    ("--tolerance", "-1"),
    ("--epochs-stage1", "-5"),
    ("--n-collocation", "1"),
    ("--dataset-grid", "1"),
    ("--sampler", "sobol"),
    ("--seed", "-1"),
    ("--hidden-sizes", "0"),
    ("--stage2-hidden-sizes", "0"),
    ("--hidden-sizes", "8,8,8,8"),
    ("--activation", "relu"),
    ("--stage2-activation", "relu"),
])
@pytest.mark.parametrize("command", ["run", "solve", "uq"])
def test_cli_run_rejects_nan_settings_and_negative_stage1_epochs(tmp_path, capsys, command,
                                                                 flag, value):
    # NaN fails every comparison, so each rule must ask for the good case;
    # the message names the field the user set, as a whole word, so that
    # `activation` is not found in a message on `stage2_activation`
    out = tmp_path / "out"
    common = ["--preset", "linear_ode", "--method", "nlm", "--epochs-stage1", "300",
              "--epochs-stage2", "200", "--n-collocation", "16"]
    stage1_file = []
    if command == "uq":
        assert main(["solve", *common, "--out", str(tmp_path / "solved")]) == 0
        stage1_file = ["--stage1", str(tmp_path / "solved" / "stage1_linear_ode_seed0.json")]
    assert main([command, *stage1_file, *common, "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and re.search(rf"\b{flag[2:].replace('-', '_')}\b", err)
    assert not out.exists()


@pytest.mark.parametrize("command,objective", [
    (["solve", "--lr-stage1", "1e200"], "stage-1 residual loss"),
    (["run", "--method", "bbb", "--lr-stage2", "1e200"], "variational objective"),
    (["run", "--method", "flipout", "--lr-stage2", "1e200"], "variational objective"),
    (["run", "--method", "nlm", "--lr-stage2", "1e200"], "feature-network objective"),
    (["run", "--method", "der", "--lr-stage2", "1e200"], "evidential objective"),
], ids=["solve", "bbb", "flipout", "nlm", "der"])
def test_cli_exits_1_on_a_diverging_fit_and_writes_no_artifact(tmp_path, capsys, command,
                                                              objective):
    with np.errstate(all="ignore"):
        assert main([*command, "--preset", "linear_ode", "--out", str(tmp_path),
                     "--epochs-stage1", "30", "--epochs-stage2", "20", "--n-collocation", "16",
                     "--dataset-grid", "33", "--eval-grid", "31"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and objective in err
    written = {p.name.split("_")[0] for p in tmp_path.iterdir()}
    assert not written & {"band", "report", "config"}
    if command[0] == "solve":
        assert not written


@pytest.mark.parametrize("key,value", [("coverage_k", "2"), ("epochs_stage1", "30")])
def test_cli_rejects_config_values_of_the_wrong_type(tmp_path, capsys, key, value):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({
        "preset": "linear_ode", "method": "nlm", **FAST, key: value,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_file)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CONFIG_FIELDS = dataclasses.fields(experiment.ExperimentConfig)


def _field_type(field) -> type:
    """The type of an ExperimentConfig field, without the None of an optional one."""
    hint = typing.get_type_hints(experiment.ExperimentConfig)[field.name]
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


@pytest.mark.parametrize("command", ["run", "solve", "uq"])
@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
def test_every_config_field_has_its_flag(command, field):
    kind = _field_type(field)
    flag = "--out" if field.name == "output_dir" else "--" + field.name.replace("_", "-")
    given = [flag] if kind is bool else [flag, "3"]
    stage1_file = ["--stage1", "stage1.json"] if command == "uq" else []
    args = build_parser().parse_args([command, *stage1_file, *given])
    assert getattr(args, field.name) == {bool: True, int: 3, float: 3.0}.get(kind, "3")


# values of the wrong type for each field type; a width takes a list of ints only
WRONG_VALUES = {int: ["3", 3.0, True], float: ["3", True], str: [3, ["a"]],
                bool: [1, "true"], tuple: [3, [8, 8.5], [True]]}
WRONG_SETTINGS = [(f.name, v) for f in CONFIG_FIELDS for v in WRONG_VALUES[_field_type(f)]]


@pytest.mark.parametrize("key,value", WRONG_SETTINGS,
                         ids=[f"{k}={v!r}" for k, v in WRONG_SETTINGS])
def test_cli_rejects_a_config_value_of_the_wrong_type_for_every_field(
        tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({key: value}))
    assert main(["run", "--config", str(config_file)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [config_file]


@pytest.mark.parametrize("content", ["[1, 2]", '"x"', "3", '[["preset", "duffing"]]'])
def test_cli_rejects_a_config_file_that_is_not_an_object(tmp_path, capsys, monkeypatch, content):
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "run.json"
    config_file.write_text(content)
    assert main(["run", "--config", str(config_file)]) == 2
    assert f"config file {config_file} does not hold a JSON object" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [config_file]


def test_explicit_zero_settings_are_taken_as_given(tmp_path):
    config = _cfg(tmp_path, epochs_stage1=0, epochs_stage2=0)
    assert config.epochs_stage1 == 0 and config.epochs_stage2 == 0
    with pytest.raises(ConfigError):
        experiment.ExperimentConfig(eval_grid=0)
    for field, value in (("lr_stage1", 0), ("dataset_grid", 1)):
        with pytest.raises(ConfigError, match=field):
            _cfg(tmp_path, **{field: value})


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_report_rejects_nonpositive_coverage_k(tmp_path, capsys, k):
    grid = np.linspace(0.0, 3.0, 7).reshape(-1, 1)
    band = PredictiveBand(grid, np.ones((7, 1)), np.ones((7, 1)), enforced=True)
    path = tmp_path / "band.csv"
    experiment.emit_band_csv(band, np.ones((7, 1)), _inside(band), path)
    assert main(["report", "--band", str(path), "--coverage-k", k]) == 2
    assert "coverage width k" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deuq.cli", "run", "--preset", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


TINY_LV_FLAGS = ["--preset", "lotka_volterra", "--method", "nlm", "--seed", "5",
                 "--epochs-stage1", "3", "--epochs-stage2", "2", "--n-collocation", "8",
                 "--dataset-grid", "9", "--eval-grid", "9"]


def _counting_stage1(monkeypatch) -> list:
    solves = []
    real = experiment.run_stage1

    def counting(config):
        solves.append(config)
        return real(config)

    monkeypatch.setattr(experiment, "run_stage1", counting)
    return solves


@pytest.mark.parametrize("key", ["hidden_sizes", "stage2_hidden_sizes"])
@pytest.mark.parametrize("form", ["flag", "file"])
def test_cli_rejects_a_malformed_width_list(tmp_path, capsys, key, form):
    out = tmp_path / "out"
    if form == "flag":
        args = ["--" + key.replace("_", "-"), "32,x", "--out", str(out)]
    else:
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({key: "8,y", "output_dir": str(out)}))
        args = ["--config", str(config_file)]
    assert main(["run", "--preset", "linear_ode", "--method", "nlm", *args]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", ['{"trunc', '{"net_config": {}}', "[]"])
def test_run_solves_again_over_an_unreadable_stage1_file(tmp_path, monkeypatch, content):
    solves = _counting_stage1(monkeypatch)
    clean = experiment.run(_cfg(tmp_path / "clean", **TINY_LV)).stage1_json.read_bytes()
    config = _cfg(tmp_path / "bad", **TINY_LV)
    path = experiment.stage1_path(config)
    path.parent.mkdir(parents=True)
    path.write_text(content)
    experiment.run(config)
    assert len(solves) == 2
    assert path.read_bytes() == clean


def test_run_without_stage1_reuse_solves_again(tmp_path, monkeypatch, capsys):
    solves = _counting_stage1(monkeypatch)
    args = [*TINY_LV_FLAGS, "--out", str(tmp_path)]
    assert main(["run", *args]) == 0
    stage1_file = tmp_path / "stage1_lotka_volterra_seed5.json"
    first = stage1_file.read_bytes()
    assert main(["run", *args]) == 0
    assert len(solves) == 1
    assert main(["run", *args, "--no-reuse-stage1"]) == 0
    assert len(solves) == 2
    assert stage1_file.read_bytes() == first


@pytest.mark.parametrize("content", [None, '{"trunc', '{"net_config": {}}'])
def test_cli_uq_rejects_an_unreadable_stage1_file(tmp_path, capsys, content):
    stage1_file = tmp_path / "stage1.json"
    if content is not None:
        stage1_file.write_text(content)
    out = tmp_path / "out"
    assert main(["uq", "--stage1", str(stage1_file), *TINY_LV_FLAGS, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage-1 settings" in err and str(stage1_file) in err
    assert not out.exists()


def test_cli_uq_rejects_a_stage1_file_of_another_preset(tmp_path, capsys):
    common = ["--seed", "6", "--out", str(tmp_path), "--epochs-stage1", "3",
              "--n-collocation", "8", "--dataset-grid", "9"]
    assert main(["solve", "--preset", "linear_ode", *common]) == 0
    stage1_file = tmp_path / "stage1_linear_ode_seed6.json"
    assert main(["uq", "--stage1", str(stage1_file), "--preset", "duffing", *common,
                 "--method", "nlm", "--epochs-stage2", "2", "--eval-grid", "9"]) == 2
    assert "stage-1 settings" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    None,
    "",
    "t,mean,std,reference,in_train_domain\n0.5,1,0.1\n",
    "t,mean,std,reference,in_train_domain\n0.5,1,x,0.9,1\n",
    "t,mean,std,reference,in_train_domain\n",
    "t,mean,in_train_domain\n0.5,1,1\n",
    "t,mean,std,reference,in_train_domain\n0.5,1,0.1,0.9,1\n1.0,0.9,0.1,0.85,1\n",
    "t,mean,std,reference,in_train_domain\n0.5,nan,0.1,0.9,1\n1.0,0.9,0.1,0.85,1\n2.5,0.5,0.4,0.2,0\n",
    "t,mean,std,reference,in_train_domain\n0.5,1,0.1,0.9,1\n1.0,0.9,inf,0.85,1\n2.5,0.5,0.4,0.2,0\n",
])
def test_cli_report_rejects_an_unreadable_band_csv(tmp_path, capsys, content):
    path = tmp_path / "band.csv"
    if content is not None:
        path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's own complaint must not reach the user
        assert main(["report", "--band", str(path)]) == 2
    out, err = capsys.readouterr()
    assert str(path) in err and not out


def test_cli_report_writes_null_inflation_for_a_flat_train_band(tmp_path, capsys):
    band = tmp_path / "band.csv"
    band.write_text("t,mean,std,reference,in_train_domain\n"
                    "0.5,1.0,0,1.0,1\n1.0,0.9,0,0.9,1\n2.5,0.5,0.4,0.2,0\n")
    assert main(["report", "--band", str(band)]) == 0
    out = capsys.readouterr().out
    assert '"inflation_ratio": null' in out and json.loads(out)["coverage_k2"] == 1.0


def test_cli_report_out_is_written_atomically(tmp_path, capsys):
    band = tmp_path / "band.csv"
    band.write_text("t,mean,std,reference,in_train_domain\n"
                    "0.5,1.0,0.1,1.05,1\n1.0,0.9,0.1,0.85,1\n2.5,0.5,0.4,0.2,0\n")
    out = tmp_path / "report.json"
    assert main(["report", "--band", str(band), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == experiment.report_from_csv(band, 2.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.csv", "report.json"]


def test_the_pipeline_imports_no_scipy():
    # a fresh interpreter: this one holds scipy through the test oracles
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    code = ("import sys, deuq.cli, deuq.experiment; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
