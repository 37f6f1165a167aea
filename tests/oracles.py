"""Reference implementations the tests compare the production code against.

The stage-1 network once ran as generic jet arithmetic over the reverse-mode
tape: every layer a Jet2 of Var nodes, every direction a full second-order
pass. That path is slow but obviously right, so it is kept here as the
oracle for the fused jet kernel in `deuq.nets.JetKernel`.

Two small samplers sit here too, because only tests call them: the
stage-1 dataset on a chosen grid, and one shared-noise posterior draw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from deuq import nets, problems, stage1
from deuq.autodiff import Jet2
from deuq.errors import StructuralError
from deuq.uq.variational import VariationalParams


def _affine_jet(h: Jet2, W, b) -> Jet2:
    # the layer is linear, so each jet component maps through it independently
    Wt = W.T
    return Jet2(h.value @ Wt + b, h.d1 @ Wt, h.d2 @ Wt)


def forward_batch(config: nets.MLPConfig, weights: Sequence, biases: Sequence, x: Jet2) -> Jet2:
    """Evaluate the network on a batch jet with components of shape (n, input_dim).

    Weights may be numpy arrays or Var nodes; returns a jet with components
    of shape (n, output_dim).
    """
    act = nets._ACTIVATIONS[config.activation]
    h = x
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = _affine_jet(h, W, b)
        if i != last:
            h = act(h)
    return h


def tape_residual_loss(problem: problems.ProblemSpec, config: nets.MLPConfig,
                       weights, biases, points: np.ndarray):
    """The stage-1 loss with the network as jets over the tape, a full
    second-order pass per direction the residual reads."""
    point_cols = tuple(points[:, i] for i in range(points.shape[1]))
    u_by_dir = {}
    for direction, order in enumerate(problem.derivative_orders):
        if order == 0:
            continue
        in_jets = []
        for axis in range(points.shape[1]):
            col = points[:, axis]
            one = np.ones_like(col) if axis == direction else np.zeros_like(col)
            in_jets.append(Jet2(col, one, np.zeros_like(col)))
        batch = Jet2(*(np.stack([getattr(j, c) for j in in_jets], axis=1)
                       for c in ("value", "d1", "d2")))
        out = forward_batch(config, weights, biases, batch)
        raw = [Jet2(out.value[:, k], out.d1[:, k], out.d2[:, k])
               for k in range(problem.n_outputs)]
        u_by_dir[direction] = problems.enforce(raw, in_jets, problem.transform)
    loss = None
    for r in problems.residual(problem, u_by_dir, point_cols):
        term = (r * r).mean()
        loss = term if loss is None else loss + term
    return loss


def emit_dataset(result: stage1.Stage1Result, grid_spec: int) -> list:
    """Re-evaluate the enforced solution on a grid of the requested density;
    returns [(point tuple, value vector), ...] in grid order."""
    grid = problems.grid_points(result.problem.train_domain, grid_spec)
    values = stage1.evaluate_enforced(result.problem, result.params, grid)
    return [(tuple(p), v.copy()) for p, v in zip(grid, values)]


def bbb_sample_weights(q: VariationalParams, noise: np.ndarray) -> nets.MLPParams:
    """One posterior draw w = mu + sigma o noise, shaped into layers."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape != q.mu.shape:
        raise StructuralError("noise length must equal the parameter count")
    if q.config is None:
        raise StructuralError("sampling into layers requires a network config")
    return nets.MLPParams.from_flat(q.config, q.mu + q.sigma * noise)
