"""Variational Gaussian posteriors over network weights.

Two estimators share one training loop: the plain shared-perturbation
scheme (every point in the batch sees the same sampled weights) and the
decorrelated scheme that flips the shared perturbation per point with
rank-one sign matrices. Both run on the value-only ``nets.JetKernel``,
whose layers take Δ = sigma o eps in the decomposed form

    y = h @ mu_W^T + ((h o S) @ Δ_W^T) o R + mu_b + Δ_b o R

so forcing all signs to +1 reproduces the shared scheme arithmetic exactly,
floating point included; sign draws come from their own RNG stream for the
same reason, and both schemes take one path through the closed-form
gradient: the likelihood's cotangent on the output is B (pred - y) / eps^2,
the KL adds mu / s^2 to mu's gradient and -1/sigma + sigma / s^2 to sigma's,
and sigma's reaches rho through expit(rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nets
from ..autodiff import expit, softplus
from ..errors import StructuralError
from ..nets import grad_params
from ..optim import fit

RHO_INIT = -5.0  # softplus(-5) ~ 6.7e-3: weights start nearly deterministic


@dataclass
class VariationalParams:
    """Per-weight (mu, rho) pairs; sigma = log(1 + exp(rho)).

    ``config`` is the network the flat vectors parametrize; it may be None
    for free-standing vectors (closed-form checks on a handful of weights).
    ``loss_history`` records the training objective when produced by a
    trainer.
    """

    config: nets.MLPConfig | None
    mu: np.ndarray
    rho: np.ndarray
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.mu.shape != self.rho.shape:
            raise StructuralError("mu and rho must have identical shapes")
        if self.config is not None and self.mu.size != self.config.n_params:
            raise StructuralError("variational vectors do not match the config")

    @property
    def sigma(self) -> np.ndarray:
        return softplus(self.rho)


def sign_dims(config: nets.MLPConfig) -> tuple[int, int]:
    """Total output-side and input-side sign entries across layers."""
    shapes = config.layer_shapes()
    return sum(o for o, _ in shapes), sum(i for _, i in shapes)


def _variational_train(X, Y, A, B, net_config, x0, signs: str | None, *, eps: float,
                       prior_std: float, epochs: int, lr: float, seed: int) -> VariationalParams:
    # signs: None (bbb), "random" (flipout) or "unit" (flipout, all +1)
    n_points = X.shape[0]
    P = net_config.n_params
    dims = sign_dims(net_config)
    unit = tuple(np.ones((n_points, k)) for k in dims) if signs == "unit" else None
    kernel = nets.JetKernel(net_config, X, np.zeros((0, X.shape[1])), ())
    ss = np.random.SeedSequence(seed)
    noise_rng, sign_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
    const_nll = 0.5 * n_points * net_config.output_dim * np.log(2.0 * np.pi * eps**2)

    def loss_and_grad(packed):
        # one fresh draw per evaluation; fit's evaluation after its last
        # step draws once more, and that draw moves no weight
        eps_hat = noise_rng.standard_normal(P)
        flips = unit
        if signs == "random":  # R, then S: one random bit per sign, drawn a byte at a time
            flips = tuple(np.unpackbits(sign_rng.integers(0, 256, (n_points, -(-k // 8)), np.uint8),
                                        axis=1, count=k) * 2.0 - 1.0 for k in dims)

        mu, rho = packed[:P], packed[P:]
        sigma = softplus(rho)
        err = A + B * kernel.forward(mu, sigma * eps_hat, flips)[0] - Y
        nll = (err**2).sum() / (2.0 * eps**2) + const_nll
        kl = (np.log(prior_std / sigma) + (sigma**2 + mu**2) / (2.0 * prior_std**2) - 0.5).sum()

        def gradient():
            g_mu, g_delta = grad_params(kernel, (err * B / eps**2)[None])
            g_sigma = g_delta * eps_hat - 1.0 / sigma + sigma / prior_std**2
            return np.concatenate([g_mu + mu / prior_std**2, g_sigma * expit(rho)])

        return float(kl + nll), gradient

    packed, history = fit(
        loss_and_grad, np.concatenate([x0, np.full(P, RHO_INIT)]), lr, epochs,
        name="variational objective",
        params=lambda x: VariationalParams(net_config, x[:P], x[P:]),
    )
    return VariationalParams(net_config, packed[:P], packed[P:], history)


def bbb_train(X, Y, A, B, net_config: nets.MLPConfig, x0, *, eps: float, prior_std: float,
              epochs: int, lr: float, seed: int) -> VariationalParams:
    """Minimize KL(q || prior) - E_q[log likelihood] for the head A + B * net
    on (X, Y), from mu = x0, with one fresh weight sample per step shared
    by the whole batch. ``eps`` is the likelihood scale, ``prior_std`` the
    prior's, and ``seed`` seeds the weight noise."""
    return _variational_train(X, Y, A, B, net_config, x0, None, eps=eps, prior_std=prior_std,
                              epochs=epochs, lr=lr, seed=seed)


def flipout_train(X, Y, A, B, net_config: nets.MLPConfig, x0, *, eps: float, prior_std: float,
                  epochs: int, lr: float, seed: int, unit_signs: bool = False) -> VariationalParams:
    """Same objective as bbb_train with per-example decorrelated
    perturbations; ``unit_signs`` forces all sign matrices to +1 (then the
    loss trace equals bbb_train's exactly under shared seeds)."""
    return _variational_train(X, Y, A, B, net_config, x0, "unit" if unit_signs else "random",
                              eps=eps, prior_std=prior_std, epochs=epochs, lr=lr, seed=seed)
