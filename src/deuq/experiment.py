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
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, nets, problems, stage1
from .errors import ConfigError
from .stage1 import atomic_write as _atomic_write
from .uq.der import der_evaluate, der_train
from .uq.nlm import nlm_fit_dataset
from .uq.predictive import (PredictiveBand, der_band, enforce_predictive, nlm_band,
                            posterior_predictive_mc)
from .uq.variational import bbb_train, flipout_train

METHODS = ("bbb", "flipout", "nlm", "der")

# spawn keys of the per-purpose sub-seeds derived from the run seed
_SEED_SLOTS = {
    "stage1_init": 0,
    "collocation": 1,
    "stage2_init": 2,
    "stage2_opt": 3,
    "mc_samples": 4,
}

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
    # network; a None field takes its preset or per-method default when
    # the config is built
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
    epochs_stage2: int | None = None  # per-method default
    lr_stage2: float = 1e-2
    stage2_hidden_sizes: tuple | None = None  # per-method default, else hidden_sizes
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
        defaults = {"epochs_stage2": _METHOD_STAGE2_EPOCHS[self.method],
                    **_PRESET_DEFAULTS[self.preset]}
        for key, value in defaults.items():
            if getattr(self, key) is None:  # only unset fields; an explicit 0 stays 0
                setattr(self, key, value)
        if self.stage2_hidden_sizes is None:
            self.stage2_hidden_sizes = _METHOD_STAGE2_HIDDEN.get(self.method, self.hidden_sizes)
        self.hidden_sizes = tuple(self.hidden_sizes)
        self.stage2_hidden_sizes = tuple(self.stage2_hidden_sizes)
        if self.method in ("bbb", "flipout") and self.n_mc_samples < 2:
            raise ConfigError("n_mc_samples must be at least 2 for MC methods")
        if not self.coverage_k > 0.0:
            raise ConfigError("coverage width k must be positive")
        if self.sampler not in stage1.SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}; valid samplers: "
                              f"{', '.join(stage1.SAMPLERS)}")
        # each rule asks for the good case, so that NaN fails it
        for names, good, rule in (
            (("eps", "prior_std", "lr_stage1", "lr_stage2"), lambda v: v > 0.0, "be positive"),
            (("der_lambda", "tolerance", "epochs_stage1", "epochs_stage2", "seed"),
             lambda v: v >= 0, "be nonnegative"),
            (("n_collocation", "dataset_grid", "eval_grid"), lambda v: v >= 2,
             "be at least 2 points per dimension"),
        ):
            for name in names:
                value = getattr(self, name)
                if not good(value):
                    raise ConfigError(f"{name} must {rule}")
        for sizes, activation in (("hidden_sizes", "activation"),
                                  ("stage2_hidden_sizes", "stage2_activation")):
            widths = getattr(self, sizes)
            if not (1 <= len(widths) <= 3 and all(w >= 1 for w in widths)):
                raise ConfigError(f"{sizes} must be 1 to 3 positive widths, got {list(widths)}")
            if getattr(self, activation) not in nets.ACTIVATIONS:
                raise ConfigError(f"{activation} must be one of {', '.join(nets.ACTIVATIONS)}, "
                                  f"got {getattr(self, activation)!r}")

    def resolved(self) -> dict:
        """The config echo: every field, with the derived sub-seeds."""
        return {**dataclasses.asdict(self),
                "sub_seeds": {name: derive_seed(self.seed, name) for name in _SEED_SLOTS}}


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
    return problems.make_preset(config.preset, **_problem_overrides(config))


def _stage1_inputs(config: ExperimentConfig) -> tuple[problems.ProblemSpec, nets.MLPConfig, dict]:
    """The problem, the network and the keyword settings of the stage-1
    solve of `config`; `run_stage1` solves with them and `stage1_digest`
    hashes them."""
    problem = build_problem(config)
    net_config = nets.MLPConfig(
        input_dim=problem.input_dim,
        output_dim=problem.n_outputs,
        hidden_sizes=config.hidden_sizes,
        activation=config.activation,
        seed=derive_seed(config.seed, "stage1_init"),
    )
    settings = dict(
        n_collocation=config.n_collocation,
        sampler=config.sampler,
        seed=derive_seed(config.seed, "collocation"),
        epochs=config.epochs_stage1,
        lr=config.lr_stage1,
        tolerance=config.tolerance,
        dataset_grid=config.dataset_grid,
    )
    return problem, net_config, settings


def run_stage1(config: ExperimentConfig) -> stage1.Stage1Result:
    problem, net_config, settings = _stage1_inputs(config)
    return stage1.train_deterministic(problem, net_config, **settings)


def stage1_digest(config: ExperimentConfig) -> str:
    """sha256 over everything the stage-1 solve of `config` depends on: the
    preset and its overrides, the network config and the settings the solve
    is called with. A cached stage-1 file is reused only when its digest is
    equal."""
    problem, net_config, settings = _stage1_inputs(config)
    key = {
        "problem": {"name": problem.name, "overrides": _problem_overrides(config)},
        "net_config": dataclasses.asdict(net_config),
        "settings": settings,
    }
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def run_method(config: ExperimentConfig, result: stage1.Stage1Result) -> PredictiveBand:
    """Fit the configured stage-two method on the stage-1 dataset and return
    the enforced band on the extrapolation evaluation grid. Every method
    fits the head A + B * net on the dataset (X, Y), from one start vector."""
    problem = result.problem
    head_config = nets.MLPConfig(  # four channels per output for der
        input_dim=problem.input_dim,
        output_dim=(4 if config.method == "der" else 1) * problem.n_outputs,
        hidden_sizes=config.stage2_hidden_sizes,
        activation=config.stage2_activation,
        seed=derive_seed(config.seed, "stage2_init"),
    )
    X, Y = result.dataset_points, result.dataset_values
    if not (X.ndim == Y.ndim == 2 and 0 < len(X) == len(Y)
            and np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ConfigError("the stage-1 dataset is empty, ragged or not finite")
    A, B = problems.transform_values(problem.transform, X)
    # rbf heads tile the full domain of interest so posterior weight
    # uncertainty survives wherever the data cannot constrain it
    x0 = (nets.rbf_feature_init(head_config, problem.extrap_domain)
          if head_config.activation == "rbf" else nets.init(head_config)).flat()
    grid = problems.grid_points(problem.extrap_domain, config.eval_grid)
    data = (X, Y, A, B, head_config, x0)
    budget = dict(epochs=config.epochs_stage2, lr=config.lr_stage2)

    if config.method in ("bbb", "flipout"):
        train = bbb_train if config.method == "bbb" else flipout_train
        q = train(*data, eps=config.eps, prior_std=config.prior_std,
                  seed=derive_seed(config.seed, "stage2_opt"), **budget)
        raw = posterior_predictive_mc(
            q, head_config, grid, config.n_mc_samples,
            seed=derive_seed(config.seed, "mc_samples"),
        )
    elif config.method == "nlm":
        raw = nlm_band(nlm_fit_dataset(*data, eps=config.eps, prior_std=config.prior_std,
                                       **budget), grid)
    else:  # der
        params = der_train(*data, eps=config.eps, lam=config.der_lambda, **budget)
        raw = der_band(der_evaluate(params, grid, config.eps), grid)
    return enforce_predictive(raw, problem.transform)


def score(config: ExperimentConfig, result: stage1.Stage1Result
          ) -> tuple[PredictiveBand, np.ndarray, np.ndarray, metrics.BandReport]:
    """Fit the configured method on `result` and score its band: the band,
    the reference on its grid, the in-train mask and the report."""
    band = run_method(config, result)
    reference = problems.reference_solution(result.problem, band.grid)
    inside = metrics.in_train_mask(band.grid, result.problem.train_domain)
    return band, reference, inside, metrics.band_report(band, reference, inside,
                                                        config.coverage_k)


def stage1_path(config: ExperimentConfig) -> Path:
    """Where `run` and `deuq solve` keep the stage-1 solve of `config`."""
    return Path(config.output_dir) / f"stage1_{config.preset}_seed{config.seed}.json"


def save_stage1(config: ExperimentConfig, result: stage1.Stage1Result) -> Path:
    """Write the stage-1 file of `config`, with the overrides that rebuild
    its problem and the settings digest that lets `run` reuse it."""
    path = stage1_path(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    stage1.save_result(result, path, _problem_overrides(config), stage1_digest(config))
    return path


def load_stage1(config: ExperimentConfig, path) -> stage1.Stage1Result | None:
    """The stage-1 result in `path` if it is the solve of `config`: the file
    reads, and its settings digest equals the config's. None otherwise."""
    if not Path(path).is_file():
        return None
    try:
        result = stage1.load_result(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        return None
    # the config's own problem, so that the digest also checks the preset name
    return result if result.settings_digest == stage1_digest(config) else None


def run(config: ExperimentConfig) -> RunArtifacts:
    """Full pipeline; reuses the cached stage-1 file if `load_stage1` accepts
    it. Artifacts: band CSV, stage-1 JSON, report JSON, config echo."""
    path = stage1_path(config)
    result = load_stage1(config, path) if config.reuse_stage1 else None
    if result is None:
        result = run_stage1(config)
        save_stage1(config, result)
    return run_uq(config, result, path)


def run_uq(config: ExperimentConfig, result: stage1.Stage1Result,
           stage1_json: Path) -> RunArtifacts:
    """Everything after stage 1: fit the method on `result` (read from
    `stage1_json`), then write the band CSV, the report and the config echo."""
    band, reference, inside, report = score(config, result)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    run_tag = f"{config.preset}_{config.method}_seed{config.seed}"
    paths = RunArtifacts(
        band_csv=out_dir / f"band_{run_tag}.csv",
        stage1_json=Path(stage1_json),
        report_json=out_dir / f"report_{run_tag}.json",
        config_json=out_dir / f"config_{run_tag}.json",
    )
    emit_band_csv(band, reference, inside, paths.band_csv)
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
            allow_nan=False,
        ),
    )
    _atomic_write(paths.config_json,
                  json.dumps(config.resolved(), sort_keys=True, indent=2, allow_nan=False))
    return paths


def _problem_overrides(config: ExperimentConfig) -> dict:
    if config.preset == "lotka_volterra":
        return {"lv_standard_form": config.lv_standard_form}
    return {}


def emit_band_csv(band: PredictiveBand, reference: np.ndarray,
                  inside: np.ndarray, path) -> None:
    """CSV schema: point coords, mean, std, reference, in_train_domain (the
    mask `inside`); one row per grid point in grid order, 9 significant
    digits. Multi-output bands repeat the mean/std/reference triple with
    _0, _1, ... suffixes."""
    reference = metrics.aligned_reference(band, reference)
    n, k = band.mean.shape
    coords = ["t"] if band.grid.shape[1] == 1 else ["x", "t"]
    suffixes = [""] if k == 1 else [f"_{i}" for i in range(k)]
    value_cols = [name + s for s in suffixes for name in ("mean", "std", "reference")]
    values = np.stack([band.mean, band.std, reference], axis=2).reshape(n, 3 * k)
    text = io.StringIO()
    np.savetxt(text, np.column_stack([band.grid, values, inside]),
               fmt=["%.9g"] * (len(coords) + 3 * k) + ["%d"], delimiter=",",
               header=",".join(coords + value_cols + ["in_train_domain"]), comments="")
    _atomic_write(Path(path), text.getvalue())


def read_band_csv(path) -> tuple[PredictiveBand, np.ndarray, np.ndarray]:
    """Load a band CSV back into (band, reference, in_train mask). A file
    that is missing, does not hold the schema, holds a value that is not
    finite, or has no grid point inside or none outside the training
    domain is a ConfigError."""
    try:
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        # numpy warns on a file with no rows; such a file has no grid points
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if any(rows) else np.empty((0, 0))
    except (OSError, ValueError) as e:
        raise ConfigError(f"band CSV {path} is not readable: {e}") from None
    header = header.split(",")
    n_coords = sum(1 for c in header if c in ("t", "x"))
    n_values = len(header) - n_coords - 1  # a mean, std, reference triple per output
    if not (n_coords and n_values > 0 and n_values % 3 == 0 and data.shape[1] == len(header)
            and np.isfinite(data).all() and 0 < np.count_nonzero(data[:, -1] > 0.5) < len(data)):
        raise ConfigError(f"band CSV {path} does not hold the band schema")
    vals = data[:, n_coords:-1]
    band = PredictiveBand(data[:, :n_coords], vals[:, 0::3], vals[:, 1::3], enforced=True)
    return band, vals[:, 2::3], data[:, -1] > 0.5


def report_from_csv(path, coverage_k: float = 2.0) -> dict:
    """Recompute the headline metrics from a saved band CSV alone, through
    the `band_report` a run uses, split by the in_train_domain column."""
    return dataclasses.asdict(metrics.band_report(*read_band_csv(path), coverage_k))
