"""Stage one: deterministic solve by minimizing the mean squared residual.

Trains a dense network on collocation points so that the enforced solution
u~ = A + B * net drives the residual operator to zero, then evaluates u~ on
a dense grid. That grid of (point, value) pairs is the observed dataset the
stage-two probabilistic regressors consume.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nets, problems
from .autodiff import Jet2, Var, grad_params
from .errors import ConfigError
from .optim import fit

_SAMPLERS = ("equispaced", "uniform_random", "equispaced_jitter")


@dataclass(frozen=True)
class TrainConfig:
    n_collocation: int = 64  # per input dimension
    sampler: str = "equispaced"
    epochs: int = 6000
    learning_rate: float = 2e-3
    optimizer: str = "adam"
    seed: int = 0
    tolerance: float = 0.0
    dataset_grid: int | None = None  # per input dimension; None = preset default

    def __post_init__(self):
        if self.n_collocation < 2:
            raise ConfigError("n_collocation must be at least 2")
        if not self.epochs >= 0:
            raise ConfigError("epochs must be nonnegative")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.sampler not in _SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}; valid: {_SAMPLERS}")
        if self.optimizer != "adam":
            raise ConfigError("only the adam optimizer is supported")
        if not self.tolerance >= 0.0:
            raise ConfigError("tolerance must be nonnegative")
        if self.dataset_grid is not None and self.dataset_grid < 2:
            raise ConfigError("dataset_grid must be at least 2 points per dimension")


@dataclass
class Stage1Result:
    problem: problems.ProblemSpec
    params: nets.MLPParams
    loss_history: list  # (epoch, mean squared residual)
    dataset_points: np.ndarray  # (n, input_dim)
    dataset_values: np.ndarray  # (n, n_outputs), enforced solution values
    settings_digest: str | None = None  # of the settings that produced it


def sample_collocation(domain: Sequence[problems.Interval], n: int,
                       sampler: str = "equispaced", seed: int = 0) -> np.ndarray:
    """Collocation points inside the training domain, n per dimension
    (product grid in several dimensions). Deterministic for a fixed seed."""
    if n < 2:
        raise ConfigError("need at least 2 collocation points per dimension")
    if sampler not in _SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}; valid: {_SAMPLERS}")
    rng = np.random.default_rng(seed)
    if sampler == "equispaced":
        return problems.grid_points(domain, n)
    if sampler == "uniform_random":
        cols = [rng.uniform(lo, hi, size=n ** len(domain)) for lo, hi in domain]
        return np.stack(cols, axis=1)
    # equispaced_jitter: perturb the grid by up to half a spacing, clipped
    pts = problems.grid_points(domain, n)
    for axis, (lo, hi) in enumerate(domain):
        half = (hi - lo) / (n - 1) / 2.0
        pts[:, axis] = np.clip(pts[:, axis] + rng.uniform(-half, half, pts.shape[0]), lo, hi)
    return pts


def jet_kernel(problem: problems.ProblemSpec, config: nets.MLPConfig,
               points: np.ndarray) -> nets.JetKernel:
    """The network's jet kernel on the collocation points: direction d is
    input d, carried to the order the residual declares along it."""
    return nets.JetKernel(config, points, np.eye(problem.input_dim), problem.derivative_orders)


def residual_loss(problem: problems.ProblemSpec, kernel: nets.JetKernel, flat: Var) -> Var:
    """Mean over collocation points of the summed squared residuals of the
    enforced solution, recorded on the tape of the flat parameter leaf.

    The network is one kernel node; enforcement, the residual and the mean
    run on jets over the tape, on (n,) columns of the kernel's output.
    """
    streams = kernel.apply(flat)
    points = kernel.points
    values = [streams[0, :, k] for k in range(problem.n_outputs)]
    u_by_dir = {}
    for d, order in enumerate(problem.derivative_orders):
        if order == 0:
            continue
        second = order == 2
        raw = [Jet2(values[k], streams[kernel.stream(d, 1), :, k],
                    streams[kernel.stream(d, 2), :, k] if second else None)
               for k in range(problem.n_outputs)]
        in_jets = [Jet2(points[:, i], 1.0 if i == d else 0.0, 0.0 if second else None)
                   for i in range(problem.input_dim)]
        u_by_dir[d] = problems.enforce(raw, in_jets, problem.transform)
    point_cols = tuple(points[:, i] for i in range(problem.input_dim))
    loss = None
    for r in problems.residual(problem, u_by_dir, point_cols):
        term = (r * r).mean()
        loss = term if loss is None else loss + term
    return loss


def train_deterministic(problem: problems.ProblemSpec, net_config: nets.MLPConfig,
                        train_config: TrainConfig) -> Stage1Result:
    """Full-batch Adam on the mean squared residual; raises DivergenceError
    (carrying the last finite state) if the loss leaves the finite range."""
    if net_config.input_dim != problem.input_dim:
        raise ConfigError("net input_dim does not match the problem")
    if net_config.output_dim != problem.n_outputs:
        raise ConfigError("net output_dim does not match the problem outputs")
    points = sample_collocation(
        problem.train_domain, train_config.n_collocation,
        train_config.sampler, train_config.seed,
    )
    # the kernel's workspace lives for this fit only
    kernel = jet_kernel(problem, net_config, points)

    def loss_and_grad(flat_vec):
        leaf = Var(flat_vec)
        loss = residual_loss(problem, kernel, leaf)
        return float(loss.data), lambda: grad_params(loss, [leaf])

    flat, history = fit(
        loss_and_grad, nets.init(net_config).flat(), train_config.learning_rate,
        train_config.epochs, tolerance=train_config.tolerance,
        name="stage-1 residual loss",
        params=lambda x: nets.MLPParams.from_flat(net_config, x),
    )
    final = nets.MLPParams.from_flat(net_config, flat)
    grid_n = train_config.dataset_grid
    if grid_n is None:
        grid_n = 128 if problem.input_dim == 1 else 48
    grid = problems.grid_points(problem.train_domain, grid_n)
    values = evaluate_enforced(problem, final, grid)
    return Stage1Result(problem, final, history, grid, values)


def evaluate_enforced(problem: problems.ProblemSpec, params: nets.MLPParams,
                      points: np.ndarray) -> np.ndarray:
    """Values of the enforced solution A + B * net on (n, d) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    raw = nets.evaluate(params, points)
    A, B = problems.transform_values(problem.transform, points, problem.n_outputs)
    return A + B * raw


def atomic_write(path, text: str) -> None:
    """Write `text` under a temporary name, then rename it into place, so
    a reader never sees a partial file. Every artifact is written this way."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def save_result(result: Stage1Result, path, problem_overrides: dict | None = None,
                settings_digest: str | None = None) -> None:
    """JSON handoff file: {net_config, flat_params, loss_history, dataset}.

    The problem is recorded by preset name plus the overrides used to build
    it, which is enough to reconstruct every preset. ``settings_digest``
    identifies the settings of the solve, for cache reuse.
    """
    payload = {
        "net_config": dataclasses.asdict(result.params.config),
        "flat_params": result.params.flat().tolist(),
        "loss_history": [[int(e), float(l)] for e, l in result.loss_history],
        "dataset": {
            "points": result.dataset_points.tolist(),
            "values": result.dataset_values.tolist(),
        },
        "problem": {
            "name": result.problem.name,
            "overrides": problem_overrides or {},
        },
        "settings_digest": settings_digest,
    }
    atomic_write(path, json.dumps(payload, sort_keys=True))


def load_result(path) -> Stage1Result:
    payload = json.loads(Path(path).read_text())
    cfg = nets.MLPConfig(**payload["net_config"])
    problem = problems.make_preset(
        payload["problem"]["name"], **payload["problem"]["overrides"]
    )
    return Stage1Result(
        problem=problem,
        params=nets.MLPParams.from_flat(cfg, np.array(payload["flat_params"])),
        loss_history=[(int(e), float(l)) for e, l in payload["loss_history"]],
        dataset_points=np.array(payload["dataset"]["points"], dtype=float),
        dataset_values=np.array(payload["dataset"]["values"], dtype=float),
        settings_digest=payload.get("settings_digest"),
    )
