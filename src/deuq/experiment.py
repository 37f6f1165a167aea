"""Run orchestration: stage 1 -> stage 2 -> metrics -> artifacts.

One run is defined by a preset, a method, and a single seed. The seed
deterministically derives every sub-seed (network init, collocation
sampling, stage-two optimization, Monte Carlo draws) through numpy's
SeedSequence with fixed spawn keys, so one number reproduces a whole run
byte for byte. Artifacts are written atomically: each file lands under a
temporary name and is renamed into place only when complete.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, nets, problems, stage1
from .errors import ConfigError, StructuralError
from .stage1 import atomic_write as _atomic_write
from .uq import (
    GaussianPrior,
    LikelihoodSpec,
    OptConfig,
    bbb_train,
    der_band,
    der_evaluate,
    der_train,
    enforce_predictive,
    flipout_train,
    nlm_band,
    nlm_fit_dataset,
    posterior_predictive_mc,
)
from .uq.predictive import PredictiveBand

METHODS = ("bbb", "flipout", "nlm", "der")

# spawn keys of the per-purpose sub-seeds derived from the run seed
_SEED_SLOTS = {
    "stage1_init": 0,
    "collocation": 1,
    "stage2_init": 2,
    "stage2_opt": 3,
    "mc_samples": 4,
}

OUTPUT_ROOT_ENV = "DEUQ_OUTPUT_ROOT"

_PRESET_DEFAULTS = {
    "linear_ode": dict(hidden_sizes=(32,), n_collocation=64, epochs_stage1=20000,
                       lr_stage1=1e-3, dataset_grid=128, eval_grid=201),
    "duffing": dict(hidden_sizes=(32,), n_collocation=64, epochs_stage1=20000,
                    lr_stage1=1e-3, dataset_grid=128, eval_grid=201),
    "lotka_volterra": dict(hidden_sizes=(32,), n_collocation=64, epochs_stage1=12000,
                           lr_stage1=1e-3, dataset_grid=128, eval_grid=201),
    "burgers": dict(hidden_sizes=(32, 32), n_collocation=32, epochs_stage1=8000,
                    lr_stage1=2e-3, dataset_grid=48, eval_grid=37,
                    epochs_stage2=3000),
}

# stage-2 budgets stop at the fit plateau; the sampling-based posteriors
# slowly lose their out-of-domain spread if driven far past it (see README)
_METHOD_STAGE2_EPOCHS = {"bbb": 4000, "flipout": 2000, "nlm": 4000, "der": 1000}

# stage-2 head shapes per method (der favors a single moderate rbf layer)
_METHOD_STAGE2_HIDDEN = {"der": (32,)}


@dataclass
class ExperimentConfig:
    preset: str = "linear_ode"
    method: str = "bbb"
    seed: int = 0
    # network (None = preset default)
    hidden_sizes: tuple | None = None
    activation: str = "tanh"
    # stage 1
    n_collocation: int | None = None
    sampler: str = "equispaced"
    epochs_stage1: int | None = None
    lr_stage1: float | None = None
    tolerance: float = 0.0
    dataset_grid: int | None = None
    # stage 2
    eps: float = 1e-2
    prior_std: float = 1.0
    der_lambda: float = 0.1
    n_mc_samples: int = 1000
    epochs_stage2: int | None = None  # None = per-method default
    lr_stage2: float = 1e-2
    stage2_hidden_sizes: tuple | None = None  # None = per-method/stage-1 default
    stage2_activation: str = "rbf"  # localized basis; see README
    # evaluation / output
    eval_grid: int | None = None
    coverage_k: float = 2.0
    lv_standard_form: bool = False
    output_dir: str = "runs"
    reuse_stage1: bool = True

    def __post_init__(self):
        if self.preset not in problems.preset_names():
            raise ConfigError(
                f"unknown preset {self.preset!r}; valid presets: "
                f"{', '.join(problems.preset_names())}"
            )
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; valid methods: {', '.join(METHODS)}"
            )
        if self.method in ("bbb", "flipout") and self.n_mc_samples < 2:
            raise ConfigError("n_mc_samples must be at least 2 for MC methods")
        if not self.coverage_k > 0.0:
            raise ConfigError("coverage width k must be positive")
        if self.hidden_sizes is not None:
            self.hidden_sizes = tuple(self.hidden_sizes)
        if self.stage2_hidden_sizes is not None:
            self.stage2_hidden_sizes = tuple(self.stage2_hidden_sizes)

    def resolved(self) -> dict:
        """Every effective parameter with preset defaults filled in."""
        d = _PRESET_DEFAULTS[self.preset]
        out = dataclasses.asdict(self)
        out["hidden_sizes"] = list(self.hidden_sizes or d["hidden_sizes"])
        out["n_collocation"] = self.n_collocation or d["n_collocation"]
        out["epochs_stage1"] = self.epochs_stage1 or d["epochs_stage1"]
        out["lr_stage1"] = self.lr_stage1 or d["lr_stage1"]
        out["dataset_grid"] = self.dataset_grid or d["dataset_grid"]
        out["eval_grid"] = self.eval_grid or d["eval_grid"]
        out["stage2_hidden_sizes"] = list(
            self.stage2_hidden_sizes
            or _METHOD_STAGE2_HIDDEN.get(self.method)
            or out["hidden_sizes"]
        )
        out["epochs_stage2"] = (
            self.epochs_stage2
            or d.get("epochs_stage2")
            or _METHOD_STAGE2_EPOCHS[self.method]
        )
        out["sub_seeds"] = {name: derive_seed(self.seed, name) for name in _SEED_SLOTS}
        return out


@dataclass
class RunArtifacts:
    band_csv: Path
    stage1_json: Path
    report_json: Path
    config_json: Path


def derive_seed(seed: int, slot: str) -> int:
    """Stable 32-bit sub-seed for one purpose slot of a run seed."""
    if slot not in _SEED_SLOTS:
        raise ConfigError(f"unknown seed slot {slot!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_SEED_SLOTS[slot],))
    return int(ss.generate_state(1)[0])


def build_problem(config: ExperimentConfig) -> problems.ProblemSpec:
    if config.preset == "lotka_volterra":
        return problems.make_preset(config.preset, lv_standard_form=config.lv_standard_form)
    return problems.make_preset(config.preset)


def _net_config(config: ExperimentConfig, problem, resolved) -> nets.MLPConfig:
    return nets.MLPConfig(
        input_dim=problem.input_dim,
        output_dim=problem.n_outputs,
        hidden_sizes=tuple(resolved["hidden_sizes"]),
        activation=config.activation,
        seed=derive_seed(config.seed, "stage1_init"),
    )


def _stage1_configs(config: ExperimentConfig, problem) -> tuple[nets.MLPConfig, stage1.TrainConfig]:
    resolved = config.resolved()
    net_config = _net_config(config, problem, resolved)
    train_config = stage1.TrainConfig(
        n_collocation=resolved["n_collocation"],
        sampler=config.sampler,
        epochs=resolved["epochs_stage1"],
        learning_rate=resolved["lr_stage1"],
        seed=derive_seed(config.seed, "collocation"),
        tolerance=config.tolerance,
        dataset_grid=resolved["dataset_grid"],
    )
    return net_config, train_config


def run_stage1(config: ExperimentConfig, problem=None) -> stage1.Stage1Result:
    problem = problem or build_problem(config)
    return stage1.train_deterministic(problem, *_stage1_configs(config, problem))


def stage1_digest(config: ExperimentConfig, problem=None) -> str:
    """sha256 over everything the stage-1 solve of `config` depends on: the
    preset and its overrides, the network config and the training config.
    A cached stage-1 file is reused only when its digest is equal."""
    problem = problem or build_problem(config)
    net_config, train_config = _stage1_configs(config, problem)
    settings = {
        "problem": {"name": problem.name, "overrides": _problem_overrides(config)},
        "net_config": dataclasses.asdict(net_config),
        "train_config": dataclasses.asdict(train_config),
    }
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()


def run_method(config: ExperimentConfig, result: stage1.Stage1Result) -> PredictiveBand:
    """Fit the configured stage-two method and return the enforced band on
    the extrapolation evaluation grid."""
    resolved = config.resolved()
    problem = result.problem
    dataset = (result.dataset_points, result.dataset_values)
    grid = problems.grid_points(problem.extrap_domain, resolved["eval_grid"])
    like = LikelihoodSpec(config.eps)
    prior = GaussianPrior(config.prior_std)
    opt = OptConfig(
        epochs=resolved["epochs_stage2"],
        learning_rate=config.lr_stage2,
        seed=derive_seed(config.seed, "stage2_opt"),
    )
    def head(out_dim):
        cfg = nets.MLPConfig(
            input_dim=problem.input_dim,
            output_dim=out_dim,
            hidden_sizes=tuple(resolved["stage2_hidden_sizes"]),
            activation=resolved["stage2_activation"],
            seed=derive_seed(config.seed, "stage2_init"),
        )
        # rbf heads tile the full domain of interest so posterior weight
        # uncertainty survives wherever the data cannot constrain it
        init_mu = (
            nets.rbf_feature_init(cfg, problem.extrap_domain).flat()
            if cfg.activation == "rbf" else None
        )
        return cfg, init_mu

    if config.method in ("bbb", "flipout"):
        train = bbb_train if config.method == "bbb" else flipout_train
        head_config, init_mu = head(problem.n_outputs)
        q = train(dataset, head_config, like, prior, opt, problem=problem, init_mu=init_mu)
        raw = posterior_predictive_mc(
            q, head_config, grid, config.n_mc_samples,
            seed=derive_seed(config.seed, "mc_samples"),
        )
    elif config.method == "nlm":
        head_config, init_mu = head(problem.n_outputs)
        posts = nlm_fit_dataset(
            dataset, head_config, config.eps, config.prior_std, opt,
            problem=problem, init_params=init_mu,
        )
        raw = nlm_band(posts, grid)
    else:  # der
        der_config, init_mu = head(4 * problem.n_outputs)
        params = der_train(
            dataset, der_config, config.der_lambda, opt,
            problem=problem, init_params=init_mu, like=like,
        )
        raw = der_band(der_evaluate(params, grid, like), grid)
    return enforce_predictive(raw, problem.transform)


def output_root(config: ExperimentConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    base = Path(root) if root else Path(".")
    return base / config.output_dir


def stage1_path(config: ExperimentConfig) -> Path:
    """Where `run` and `deuq solve` keep the stage-1 solve of `config`."""
    return output_root(config) / f"stage1_{config.preset}_seed{config.seed}.json"


def save_stage1(config: ExperimentConfig, result: stage1.Stage1Result) -> Path:
    """Write the stage-1 file of `config`, with the overrides that rebuild
    its problem and the settings digest that lets `run` reuse it."""
    path = stage1_path(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    stage1.save_result(result, path, _problem_overrides(config),
                       stage1_digest(config, result.problem))
    return path


def run(config: ExperimentConfig) -> RunArtifacts:
    """Full pipeline; reuses a cached stage-1 file when its settings digest
    equals this config's. Artifacts: band CSV, stage-1 JSON, report JSON, config echo."""
    problem = build_problem(config)
    path = stage1_path(config)
    result = None
    if config.reuse_stage1 and path.exists():
        cached = stage1.load_result(path)
        if cached.settings_digest == stage1_digest(config, problem):
            result = cached
    if result is None:
        result = run_stage1(config, problem)
        save_stage1(config, result)
    return run_uq(config, result, path)


def run_uq(config: ExperimentConfig, result: stage1.Stage1Result,
           stage1_json: Path) -> RunArtifacts:
    """Everything after stage 1: fit the method on `result` (read from
    `stage1_json`), then write the band CSV, the report and the config echo."""
    problem = result.problem
    out_dir = output_root(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    band = run_method(config, result)
    reference = problems.reference_solution(problem, band.grid)
    report = metrics.band_report(
        band, reference, problem.train_domain, problem.extrap_domain, config.coverage_k
    )

    run_tag = f"{config.preset}_{config.method}_seed{config.seed}"
    paths = RunArtifacts(
        band_csv=out_dir / f"band_{run_tag}.csv",
        stage1_json=Path(stage1_json),
        report_json=out_dir / f"report_{run_tag}.json",
        config_json=out_dir / f"config_{run_tag}.json",
    )
    emit_band_csv(band, reference, problem.train_domain, paths.band_csv)
    _atomic_write(
        paths.report_json,
        json.dumps(
            {
                "preset": config.preset,
                "method": config.method,
                "seed": config.seed,
                "final_stage1_loss": result.loss_history[-1][1],
                **dataclasses.asdict(report),
            },
            sort_keys=True,
            indent=2,
        ),
    )
    _atomic_write(paths.config_json, json.dumps(config.resolved(), sort_keys=True, indent=2))
    return paths


def _problem_overrides(config: ExperimentConfig) -> dict:
    if config.preset == "lotka_volterra":
        return {"lv_standard_form": config.lv_standard_form}
    return {}


def _coord_names(dim: int) -> list[str]:
    return ["t"] if dim == 1 else ["x", "t"]


def emit_band_csv(band: PredictiveBand, reference: np.ndarray,
                  train_domain, path) -> None:
    """CSV schema: point coords, mean, std, reference, in_train_domain; one
    row per grid point in grid order, 9 significant digits. Multi-output
    bands repeat the mean/std/reference triple with _0, _1, ... suffixes."""
    reference = np.asarray(reference, dtype=float)
    if reference.ndim == 1:
        reference = reference.reshape(-1, 1)
    if reference.shape != band.mean.shape:
        raise StructuralError("reference grid does not align with the band")
    coords = _coord_names(band.grid.shape[1])
    k = band.mean.shape[1]
    if k == 1:
        value_cols = ["mean", "std", "reference"]
    else:
        value_cols = [f"{name}_{i}" for i in range(k) for name in ("mean", "std", "reference")]
    header = ",".join(coords + value_cols + ["in_train_domain"])
    inside = metrics.in_train_mask(band.grid, train_domain)
    lines = [header]
    for row in range(band.grid.shape[0]):
        cells = [f"{v:.9g}" for v in band.grid[row]]
        for i in range(k):
            cells += [
                f"{band.mean[row, i]:.9g}",
                f"{band.std[row, i]:.9g}",
                f"{reference[row, i]:.9g}",
            ]
        cells.append("1" if inside[row] else "0")
        lines.append(",".join(cells))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def read_band_csv(path) -> tuple[PredictiveBand, np.ndarray, np.ndarray]:
    """Load a band CSV back into (band, reference, in_train mask)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    n_coords = sum(1 for c in header if c in ("t", "x"))
    value_cols = len(header) - n_coords - 1
    k = value_cols // 3
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    grid = data[:, :n_coords]
    vals = data[:, n_coords : n_coords + 3 * k]
    mean = vals[:, 0::3]
    std = vals[:, 1::3]
    reference = vals[:, 2::3]
    inside = data[:, -1] > 0.5
    band = PredictiveBand(grid, mean, std, enforced=True)
    return band, reference, inside


def report_from_csv(path, coverage_k: float = 2.0) -> dict:
    """Recompute the headline metrics from a saved band CSV alone: its
    in_train_domain column splits the grid, which spans the extrapolation
    domain."""
    band, reference, inside = read_band_csv(path)
    return dataclasses.asdict(metrics.masked_report(band, reference, inside, ~inside, coverage_k))
