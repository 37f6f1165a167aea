"""Evidential regression with a Normal-Inverse-Gamma head.

A four-channel network output parametrizes the NIG hyperparameters
(gamma, nu, alpha, beta); maximizing the analytic model evidence (a
Student-t marginal) plus an evidence penalty on wrong predictions trains
them directly, with no weight sampling. The same loss expression runs on
plain numbers and on tape nodes, so hand-value checks exercise the exact
code the trainer differentiates.

Like the other stage-two methods, the fit sees the stage-one solution as
data observed with a fixed Gaussian scale ``eps``. The NIG head carries
that scale as a floor on its aleatoric variance: trainer and evaluator
both shift the raw-unit scale to beta + eps^2 (alpha - 1), so the
expected variance E[sigma^2] = beta / (alpha - 1) is at least eps^2 while
the NIG form, and so the loss and predictive formulas, stay exact.
Without it the scale shrinks to the misfit of a noise-free fit and the
band under-reports the error it should cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import nets
from ..autodiff import Var, absolute, grad_params, lgamma, log, softplus
from ..errors import ConfigError, DomainError
from ..optim import fit
from .common import LikelihoodSpec, OptConfig, dataset_arrays, enforced_head_values


@dataclass(frozen=True)
class EvidentialOutput:
    """NIG hyperparameters; the output mapping guarantees nu > 0, alpha > 1,
    beta > 0 for any finite raw network output."""

    gamma: Any
    nu: Any
    alpha: Any
    beta: Any


def der_head(raw) -> EvidentialOutput:
    """Map raw 4-channel output(s) to valid NIG hyperparameters.

    ``raw`` may be a length-4 vector, an (n, 4) array, or a Var with a
    trailing axis of size 4.
    """
    return EvidentialOutput(
        gamma=raw[..., 0],
        nu=softplus(raw[..., 1]),
        alpha=1.0 + softplus(raw[..., 2]),
        beta=softplus(raw[..., 3]),
    )


def der_loss(out: EvidentialOutput, target, lam: float = 0.0):
    """Negative log marginal likelihood of the NIG evidence plus the
    evidence regularizer lam * |target - gamma| * (2 nu + alpha)."""
    if lam < 0.0:
        raise ConfigError("regularizer weight must be nonnegative")
    err = target - out.gamma
    two_beta_l = 2.0 * out.beta * (1.0 + out.nu)
    nll = (
        0.5 * log(math.pi / out.nu)
        - out.alpha * log(two_beta_l)
        + (out.alpha + 0.5) * log(out.nu * err * err + two_beta_l)
        + lgamma(out.alpha)
        - lgamma(out.alpha + 0.5)
    )
    if lam == 0.0:
        return nll
    return nll + lam * absolute(err) * (2.0 * out.nu + out.alpha)


def _scale_floor(out: EvidentialOutput, eps: float) -> EvidentialOutput:
    """Raise beta by eps^2 (alpha - 1), so that beta / (alpha - 1) >= eps^2."""
    return EvidentialOutput(
        gamma=out.gamma, nu=out.nu, alpha=out.alpha,
        beta=out.beta + eps**2 * (out.alpha - 1.0),
    )


def der_predictive(out: EvidentialOutput) -> tuple:
    """Posterior predictive mean gamma and std of the Student-t marginal,
    var = beta (1 + nu) / (nu (alpha - 1)). Requires alpha > 1."""
    alpha = np.asarray(out.alpha, dtype=float)
    if np.any(alpha <= 1.0):
        raise DomainError("predictive variance requires alpha > 1")
    var = np.asarray(out.beta) * (1.0 + np.asarray(out.nu)) / (np.asarray(out.nu) * (alpha - 1.0))
    return out.gamma, np.sqrt(var)


def der_train(dataset, net_config: nets.MLPConfig, lam: float,
              opt_config: OptConfig, problem=None,
              init_params=None, like: LikelihoodSpec = LikelihoodSpec()) -> nets.MLPParams:
    """Train a head with four channels per output on the dataset.

    The likelihood scale ``like.eps`` floors the raw-unit NIG scale:
    beta becomes softplus(raw_beta) + eps^2 (alpha - 1), so the aleatoric
    variance beta / (alpha - 1) never drops below eps^2. ``der_evaluate``
    must be given the same ``like`` to report the band that was trained.

    The floored raw output is mapped through the condition-enforcement
    affine exactly as the band will report it: (gamma, nu, alpha, beta)
    becomes (A + B*gamma, nu, alpha, B^2*beta), so the learned scale is
    calibrated in the same units as the enforced predictive std; the
    enforced std floor is |B| eps, zero on condition surfaces. Points where
    B = 0 are excluded: the enforced value is exact there by construction,
    so the observation carries no evidence (and the marginal is singular).
    """
    X, Y = dataset_arrays(dataset)
    if net_config.output_dim % 4:
        raise ConfigError("evidential head needs four output channels per output")
    n_outputs = net_config.output_dim // 4
    A, B = enforced_head_values(problem, X, n_outputs)
    keep = [np.flatnonzero(B[:, k] != 0.0) for k in range(n_outputs)]
    if any(idx.size == 0 for idx in keep):
        raise ConfigError("every dataset point sits on a condition surface")
    x0 = np.array(init_params, dtype=float) if init_params is not None else nets.init(net_config).flat()

    def loss_and_grad(flat):
        leaf = Var(flat)
        Ws, bs = nets.split_flat_var(net_config, leaf)
        raw = nets.values_batch(net_config, Ws, bs, X)
        loss = None
        for k in range(n_outputs):
            idx = keep[k]
            head = _scale_floor(der_head(raw[idx, 4 * k : 4 * k + 4]), like.eps)
            head = EvidentialOutput(
                gamma=A[idx, k] + B[idx, k] * head.gamma,
                nu=head.nu, alpha=head.alpha,
                beta=B[idx, k] ** 2 * head.beta,
            )
            term = der_loss(head, Y[idx, k], lam).mean()
            loss = term if loss is None else loss + term
        return float(loss.data), lambda: grad_params(loss, [leaf])

    flat, history = fit(
        loss_and_grad, x0, opt_config.learning_rate, opt_config.epochs,
        name="evidential objective",
        params=lambda x: nets.MLPParams.from_flat(net_config, x),
    )
    params = nets.MLPParams.from_flat(net_config, flat)
    params.loss_history = history
    return params


def der_evaluate(params: nets.MLPParams, points: np.ndarray,
                 like: LikelihoodSpec = LikelihoodSpec()) -> list[EvidentialOutput]:
    """Raw-unit NIG hyperparameters per output on (n, d) grid points, with
    the ``like.eps`` scale floor the head was trained under."""
    raw = nets.evaluate(params, points)
    n_outputs = params.config.output_dim // 4
    return [_scale_floor(der_head(raw[:, 4 * k : 4 * k + 4]), like.eps) for k in range(n_outputs)]
