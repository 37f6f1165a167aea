import json

import numpy as np
import pytest

from deuq import experiment, nets, problems, stage1
from deuq.errors import ConfigError
from oracles import emit_dataset

QUICK = dict(n_collocation=24, sampler="equispaced", seed=0, epochs=2500, lr=3e-3,
             tolerance=0.0, dataset_grid=128)


@pytest.fixture(scope="module")
def quick_linear_result():
    return stage1.train_deterministic(
        problems.linear_ode(), nets.MLPConfig(1, 1, (16,), seed=0), **QUICK
    )


def test_equispaced_sampler_includes_endpoints():
    pts = stage1.sample_collocation(((0.0, 1.0),), 3)
    np.testing.assert_array_equal(pts.ravel(), [0.0, 0.5, 1.0])


def test_random_sampler_is_deterministic_and_in_bounds():
    a = stage1.sample_collocation(((0.5, 2.5),), 40, "uniform_random", seed=7)
    b = stage1.sample_collocation(((0.5, 2.5),), 40, "uniform_random", seed=7)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0.5) & (a <= 2.5))


@pytest.mark.parametrize("sampler", ["equispaced", "uniform_random", "equispaced_jitter"])
def test_samplers_respect_domain(sampler):
    pts = stage1.sample_collocation(((-1.0, 1.0), (0.0, 1.0)), 6, sampler, seed=3)
    assert pts.shape == (36, 2)
    assert np.all((pts[:, 0] >= -1.0) & (pts[:, 0] <= 1.0))
    assert np.all((pts[:, 1] >= 0.0) & (pts[:, 1] <= 1.0))


def test_sample_collocation_rejects_an_unknown_sampler_name():
    # ExperimentConfig rejects the name; a direct call must not fall into a branch
    with pytest.raises(KeyError):
        stage1.sample_collocation(((0.0, 1.0),), 8, "sobol")


def test_zero_epochs_returns_init_params():
    cfg = nets.MLPConfig(1, 1, (8,), seed=5)
    result = stage1.train_deterministic(
        problems.linear_ode(), cfg, **{**QUICK, "epochs": 0}
    )
    np.testing.assert_array_equal(result.params.flat(), nets.init(cfg).flat())
    assert len(result.loss_history) == 1
    assert result.loss_history[0][0] == 0


def test_training_is_reproducible():
    cfg = nets.MLPConfig(1, 1, (8,), seed=1)
    settings = {**QUICK, "n_collocation": 16, "epochs": 60, "seed": 3}
    a = stage1.train_deterministic(problems.linear_ode(), cfg, **settings)
    b = stage1.train_deterministic(problems.linear_ode(), cfg, **settings)
    assert a.loss_history == b.loss_history
    np.testing.assert_array_equal(a.params.flat(), b.params.flat())


def test_loss_history_is_finite_everywhere(quick_linear_result):
    losses = [l for _, l in quick_linear_result.loss_history]
    assert all(np.isfinite(l) for l in losses)
    assert losses[-1] < 1e-3


def test_enforced_dataset_satisfies_conditions_exactly(quick_linear_result):
    result = quick_linear_result
    mask, values = problems.condition_mask(result.problem, result.dataset_points)
    assert mask.any()
    np.testing.assert_array_equal(result.dataset_values[mask, 0], values[mask, 0])


def test_emit_dataset_one_point_grid():
    result = stage1.train_deterministic(
        problems.linear_ode(), nets.MLPConfig(1, 1, (8,), seed=0),
        **{**QUICK, "epochs": 0},
    )
    # grids include the left endpoint where the condition pins the value
    rows = emit_dataset(result, 2)
    assert rows[0][0] == (0.0,)
    assert rows[0][1][0] == 1.0


def test_emit_dataset_refinement_shares_values(quick_linear_result):
    coarse = emit_dataset(quick_linear_result, 9)
    fine = emit_dataset(quick_linear_result, 17)
    fine_map = {p: v for p, v in fine}
    for point, value in coarse:
        np.testing.assert_array_equal(fine_map[point], value)


def test_linear_ode_dataset_stays_in_solution_range(quick_linear_result):
    values = quick_linear_result.dataset_values
    assert np.all(values <= 1.0 + 1e-2)
    assert np.all(values >= 0.0 - 1e-2)


@pytest.mark.parametrize("preset", problems.preset_names())
def test_stage1_roundtrip(tmp_path, preset):
    config = experiment.ExperimentConfig(preset=preset, epochs_stage1=3, output_dir=str(tmp_path))
    solved = experiment.run_stage1(config)
    path = experiment.save_stage1(config, solved)
    assert json.loads(path.read_text()).keys() == {"flat_params", "loss_history",
                                                   "settings_digest"}
    loaded = experiment.load_stage1(config, path)
    assert loaded.problem.name == preset
    assert loaded.loss_history == solved.loss_history
    for got, want in ((loaded.params.flat(), solved.params.flat()),
                      (loaded.dataset_points, solved.dataset_points),
                      (loaded.dataset_values, solved.dataset_values)):
        assert np.array_equal(got, want)


def test_config_mismatch_rejected():
    with pytest.raises(ConfigError):
        stage1.train_deterministic(
            problems.lotka_volterra(), nets.MLPConfig(1, 1, (8,)), **QUICK
        )
