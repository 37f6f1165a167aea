"""Evidential regression with a Normal-Inverse-Gamma head.

A four-channel network output parametrizes the NIG hyperparameters
(gamma, nu, alpha, beta); maximizing the analytic model evidence (a
Student-t marginal) plus an evidence penalty on wrong predictions trains
them directly, with no weight sampling. The loss has closed-form partials
in the four hyperparameters (Amini et al. 2020), computed next to its
value in one function, so hand-value checks exercise the exact code the
trainer differentiates; the trainer chains the partials through the head
to the network's output channels.

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
from ..autodiff import lgamma_gap_slope, softplus
from ..errors import ConfigError, DomainError
from ..nets import grad_params
from ..optim import fit


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

    ``raw`` may be a length-4 vector or an (n, 4) array.
    """
    return _nig(raw[..., 0], softplus(raw[..., 1:]))


def _nig(gamma, soft) -> EvidentialOutput:
    """The head on gamma and the softplus of the other three raw channels."""
    return EvidentialOutput(gamma=gamma, nu=soft[..., 0], alpha=1.0 + soft[..., 1], beta=soft[..., 2])


def der_loss_partials(out: EvidentialOutput, target, lam: float = 0.0) -> tuple:
    """Negative log marginal likelihood of the NIG evidence plus the
    evidence regularizer lam * |target - gamma| * (2 nu + alpha), and its
    partials in gamma, nu, alpha and beta. With
    e = target - gamma, Omega = 2 beta (1 + nu) and Q = nu e^2 + Omega:
    d/dgamma = -(alpha + 1/2) 2 nu e / Q - lam sign(e) (2 nu + alpha),
    d/dnu = -1/(2 nu) - 2 alpha beta / Omega + (alpha + 1/2)(e^2 + 2 beta) / Q + 2 lam |e|,
    d/dalpha = log Q - log Omega + digamma(alpha) - digamma(alpha + 1/2) + lam |e|,
    d/dbeta = -alpha / beta + 2 (alpha + 1/2)(1 + nu) / Q."""
    gamma, nu, alpha, beta = out.gamma, out.nu, out.alpha, out.beta
    err = target - gamma
    two_beta_l = 2.0 * beta * (1.0 + nu)
    q = nu * err * err + two_beta_l
    log_omega, log_q = np.log(two_beta_l), np.log(q)
    gap, slope = lgamma_gap_slope(alpha)
    a_half = alpha + 0.5
    nll = 0.5 * np.log(math.pi / nu) - alpha * log_omega + a_half * log_q + gap
    d_gamma = -a_half * 2.0 * nu * err / q
    d_nu = -0.5 / nu - 2.0 * alpha * beta / two_beta_l + a_half * (err * err + 2.0 * beta) / q
    d_alpha = log_q - log_omega + slope
    d_beta = -alpha / beta + 2.0 * a_half * (1.0 + nu) / q
    if lam != 0.0:
        abs_err = np.abs(err)
        nll = nll + lam * abs_err * (2.0 * nu + alpha)
        d_gamma = d_gamma - lam * np.sign(err) * (2.0 * nu + alpha)
        d_nu = d_nu + 2.0 * lam * abs_err
        d_alpha = d_alpha + lam * abs_err
    return nll, (d_gamma, d_nu, d_alpha, d_beta)


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


def der_train(X, Y, A, B, net_config: nets.MLPConfig, x0, *, eps: float, lam: float,
              epochs: int, lr: float) -> nets.MLPParams:
    """Train a head with four channels per output on (X, Y) from x0, with
    the evidence regularizer weight ``lam``.

    The likelihood scale ``eps`` floors the raw-unit NIG scale:
    beta becomes softplus(raw_beta) + eps^2 (alpha - 1), so the aleatoric
    variance beta / (alpha - 1) never drops below eps^2. ``der_evaluate``
    must be given the same ``eps`` to report the band that was trained.

    The floored raw output is mapped through the condition-enforcement
    affine exactly as the band will report it: (gamma, nu, alpha, beta)
    becomes (A + B*gamma, nu, alpha, B^2*beta), so the learned scale is
    calibrated in the same units as the enforced predictive std; the
    enforced std floor is |B| eps, zero on condition surfaces. Points where
    B = 0 are excluded: the enforced value is exact there by construction,
    so the observation carries no evidence (and the marginal is singular).
    """
    if net_config.output_dim % 4:
        raise ConfigError("evidential head needs four output channels per output")
    n_outputs = net_config.output_dim // 4
    keep = [np.flatnonzero(B[:, k] != 0.0) for k in range(n_outputs)]
    if any(idx.size == 0 for idx in keep):
        raise ConfigError("every dataset point sits on a condition surface")
    kernel = nets.JetKernel(net_config, X, np.zeros((0, X.shape[1])), ())  # values only

    def loss_and_grad(flat):
        raw = kernel.forward(flat)[0]
        loss, cotangent = 0.0, np.zeros((1, *raw.shape))
        for k in range(n_outputs):
            idx = keep[k]
            channels = raw[idx, 4 * k : 4 * k + 4]
            soft = softplus(channels[:, 1:])
            slopes = np.exp(channels[:, 1:] - soft)  # softplus' slope, expit, without overflow
            head = _scale_floor(_nig(channels[:, 0], soft), eps)
            b, b2 = B[idx, k], B[idx, k] ** 2
            head = EvidentialOutput(gamma=A[idx, k] + b * head.gamma, nu=head.nu,
                                    alpha=head.alpha, beta=b2 * head.beta)
            nll, (d_gamma, d_nu, d_alpha, d_beta) = der_loss_partials(head, Y[idx, k], lam)
            loss = loss + nll.mean()
            d_raw = (b * d_gamma, d_nu * slopes[:, 0],
                     (d_alpha + b2 * eps**2 * d_beta) * slopes[:, 1], b2 * d_beta * slopes[:, 2])
            cotangent[0, idx, 4 * k : 4 * k + 4] = np.stack(d_raw, axis=1) / idx.size
        return float(loss), lambda: grad_params(kernel, cotangent)

    flat, history = fit(
        loss_and_grad, x0, lr, epochs, name="evidential objective",
        params=lambda x: nets.MLPParams.from_flat(net_config, x),
    )
    params = nets.MLPParams.from_flat(net_config, flat)
    params.loss_history = history
    return params


def der_evaluate(params: nets.MLPParams, points: np.ndarray, eps: float) -> list[EvidentialOutput]:
    """Raw-unit NIG hyperparameters per output on (n, d) grid points, with
    the ``eps`` scale floor the head was trained under."""
    raw = nets.evaluate(params, points)
    n_outputs = params.config.output_dim // 4
    return [_scale_floor(der_head(raw[:, 4 * k : 4 * k + 4]), eps) for k in range(n_outputs)]
