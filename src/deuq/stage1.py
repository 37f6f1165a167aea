"""Stage one: deterministic solve by minimizing the mean squared residual.

Trains a dense network on collocation points so that the enforced solution
u~ = A + B * net drives the residual operator to zero, then evaluates u~ on
a dense grid. That grid of (point, value) pairs is the observed dataset the
stage-two probabilistic regressors consume.

Each epoch is one pass of the network's jet kernel, the residual loss in
forward mode on its output streams (which gives the loss and the streams'
cotangent together) and the kernel's backward pass from that cotangent.
The kernel runs in float32 and everything around it in float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nets, problems
from .autodiff import Dual, Jet2
from .errors import ConfigError
from .nets import grad_params
from .optim import fit


@dataclass
class Stage1Result:
    problem: problems.ProblemSpec
    params: nets.MLPParams
    loss_history: list  # (epoch, mean squared residual)
    dataset_points: np.ndarray  # (n, input_dim)
    dataset_values: np.ndarray  # (n, n_outputs), enforced solution values


def _jitter(domain, n, rng):
    """The equispaced grid, each point moved by up to half a spacing, clipped."""
    pts = problems.grid_points(domain, n)
    for axis, (lo, hi) in enumerate(domain):
        half = (hi - lo) / (n - 1) / 2.0
        pts[:, axis] = np.clip(pts[:, axis] + rng.uniform(-half, half, pts.shape[0]), lo, hi)
    return pts


# sampler name -> points(domain, n per dimension, rng)
SAMPLERS = {
    "equispaced": lambda domain, n, rng: problems.grid_points(domain, n),
    "uniform_random": lambda domain, n, rng: np.stack(
        [rng.uniform(lo, hi, size=n ** len(domain)) for lo, hi in domain], axis=1),
    "equispaced_jitter": _jitter,
}


def sample_collocation(domain: Sequence[problems.Interval], n: int,
                       sampler: str = "equispaced", seed: int = 0) -> np.ndarray:
    """Collocation points inside the training domain, n per dimension
    (product grid in several dimensions), by the sampler of that name in
    ``SAMPLERS``. Deterministic for a fixed seed."""
    return SAMPLERS[sampler](domain, n, np.random.default_rng(seed))


def jet_kernel(problem: problems.ProblemSpec, config: nets.MLPConfig,
               points: np.ndarray, dtype=np.float32) -> nets.JetKernel:
    """The network's jet kernel on the collocation points: direction d is
    input d, carried to the order the residual declares along it.

    The solve runs it in float32 (mixed precision, Micikevicius et al.
    2018): the kernel's passes are most of an epoch, and float32 halves
    their memory traffic and doubles their SIMD width, while the weights,
    Adam's moments, the enforcement, the residual and the loss stay
    float64. A fit stops near a loss of 1e-5, far above float32 rounding.
    """
    return nets.JetKernel(config, points, np.eye(problem.input_dim), problem.derivative_orders,
                          dtype)


def enforcement_jets(problem: problems.ProblemSpec, points: np.ndarray) -> dict:
    """Per direction the residual reads: the jets of A and B on the
    collocation points, to the order declared along it. They do not
    depend on the weights, so a fit builds them once."""
    jets = {}
    for d, order in enumerate(problem.derivative_orders):
        if order == 0:
            continue
        second = order == 2
        in_jets = [Jet2(points[:, i], 1.0 if i == d else 0.0, 0.0 if second else None)
                   for i in range(problem.input_dim)]
        jets[d] = (problem.transform.A(in_jets), problem.transform.B(in_jets))
    return jets


def residual_loss(problem: problems.ProblemSpec, kernel: nets.JetKernel, flat: np.ndarray,
                  enforcement: dict) -> tuple[float, np.ndarray]:
    """Mean over collocation points of the summed squared residuals of the
    enforced solution, and its cotangent on the kernel's output streams.

    Every (stream, output) column of the kernel's output enters as a Dual
    with a tangent of its own, so each residual component r_c comes out
    with its derivative along every stream at its point; the cotangent is
    the sum over c of (2/n) r_c dr_c/dstreams. Enforcement and the
    residual run on jets of duals, with A and B from ``enforcement_jets``.
    """
    streams = kernel.forward(flat)
    S, n, K = streams.shape
    seeds = np.eye(S * K).reshape(S, K, S * K, 1)  # one-hot tangent columns
    col = [[Dual(streams[s, :, k], seeds[s, k]) for k in range(K)] for s in range(S)]
    u_by_dir = {}
    for d, (a, b) in enforcement.items():
        second = problem.derivative_orders[d] == 2
        raw = [Jet2(col[0][k], col[kernel.stream(d, 1)][k],
                    col[kernel.stream(d, 2)][k] if second else None) for k in range(K)]
        u_by_dir[d] = [a_k + b_k * u_k for a_k, b_k, u_k in zip(a, b, raw)]
    point_cols = tuple(kernel.points[:, i] for i in range(problem.input_dim))
    loss, cotangent = 0.0, 0.0
    for r in problems.residual(problem, u_by_dir, point_cols):
        loss = loss + (r.value * r.value).mean()
        cotangent = cotangent + (2.0 / n) * r.value * r.d
    return float(loss), cotangent.reshape(S, K, n).transpose(0, 2, 1)


def train_deterministic(problem: problems.ProblemSpec, net_config: nets.MLPConfig, *,
                        n_collocation: int, sampler: str, seed: int, epochs: int, lr: float,
                        tolerance: float, dataset_grid: int) -> Stage1Result:
    """Full-batch Adam on the mean squared residual at n_collocation points
    per dimension, drawn by `sampler` from `seed`; raises DivergenceError
    (carrying the last finite state) if the loss leaves the finite range.
    The dataset is the enforced solution on a grid of dataset_grid points
    per dimension. The settings are checked by ``ExperimentConfig``."""
    if net_config.input_dim != problem.input_dim:
        raise ConfigError("net input_dim does not match the problem")
    if net_config.output_dim != problem.n_outputs:
        raise ConfigError("net output_dim does not match the problem outputs")
    points = sample_collocation(problem.train_domain, n_collocation, sampler, seed)
    # the kernel's workspace and the enforcement jets live for this fit only
    kernel = jet_kernel(problem, net_config, points)
    enforcement = enforcement_jets(problem, points)

    def loss_and_grad(flat_vec):
        loss, cotangent = residual_loss(problem, kernel, flat_vec, enforcement)
        return loss, lambda: grad_params(kernel, cotangent)

    flat, history = fit(
        loss_and_grad, nets.init(net_config).flat(), lr, epochs, tolerance=tolerance,
        name="stage-1 residual loss",
        params=lambda x: nets.MLPParams.from_flat(net_config, x),
    )
    final = nets.MLPParams.from_flat(net_config, flat)
    return Stage1Result(problem, final, history, *enforced_dataset(problem, final, dataset_grid))


def enforced_dataset(problem: problems.ProblemSpec, params: nets.MLPParams,
                     dataset_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The dataset of a solve that ended at `params`: the grid of
    dataset_grid points per dimension of the training domain, and the
    enforced solution on it. A solve and a reused stage-1 file both get
    their dataset here, so the two are equal bit for bit."""
    grid = problems.grid_points(problem.train_domain, dataset_grid)
    return grid, evaluate_enforced(problem, params, grid)


def evaluate_enforced(problem: problems.ProblemSpec, params: nets.MLPParams,
                      points: np.ndarray) -> np.ndarray:
    """Values of the enforced solution A + B * net on (n, d) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    raw = nets.evaluate(params, points)
    A, B = problems.transform_values(problem.transform, points)
    return A + B * raw


def atomic_write(path, text: str) -> None:
    """Write `text` under a temporary name, then rename it into place, so
    a reader never sees a partial file. Every artifact is written this way."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def save_result(result: Stage1Result, path, settings_digest: str) -> None:
    """JSON stage-1 file: {flat_params, loss_history, settings_digest}.

    Only what the solve produced is kept. ``settings_digest`` identifies the
    settings of the solve; the problem, the network and the dataset are
    rebuilt from those settings when the file is reused.
    """
    payload = {
        "flat_params": result.params.flat().tolist(),
        "loss_history": [[int(e), float(l)] for e, l in result.loss_history],
        "settings_digest": settings_digest,
    }
    atomic_write(path, json.dumps(payload, sort_keys=True, allow_nan=False))


def load_result(path) -> tuple[np.ndarray, list, str]:
    """The weight vector, the loss history and the settings digest of a
    stage-1 file; other keys are ignored. ValueError if the weights are not
    a finite vector or the history is empty."""
    payload = json.loads(Path(path).read_text())
    flat = np.array(payload["flat_params"], dtype=float)
    history = [(int(e), float(l)) for e, l in payload["loss_history"]]
    if flat.ndim != 1 or not np.isfinite(flat).all() or not history:
        raise ValueError(f"{path} holds no finite weight vector and loss history")
    return flat, history, payload["settings_digest"]
