"""Variational Gaussian posteriors over network weights.

Two estimators share one training loop: the plain shared-perturbation
scheme (every point in the batch sees the same sampled weights) and the
decorrelated scheme that flips the shared perturbation per point with
rank-one sign matrices. The forward pass always uses the decomposed form

    y = h @ mu_W^T + ((h o S) @ (sigma o eps)_W^T) o R + mu_b + (sigma o eps)_b o R

so forcing all signs to +1 reproduces the shared scheme arithmetic exactly,
floating point included. Sign draws come from an RNG stream separate from
the base-perturbation stream for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nets
from ..autodiff import Var, grad_params, log, softplus
from ..errors import ConfigError, StructuralError
from ..optim import fit
from .common import GaussianPrior, LikelihoodSpec, OptConfig, dataset_arrays, enforced_head_values

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
        return softplus_sigma(self.rho)


def softplus_sigma(rho):
    """log(1 + exp(rho)), overflow-safe; positive for all finite rho."""
    return np.logaddexp(0.0, rho)


def kl_gaussian_diag(q: VariationalParams, prior: GaussianPrior) -> float:
    """Closed-form KL(q || prior) summed over all weights; zero iff equal."""
    sigma = q.sigma
    if q.config is None:
        if isinstance(prior.std, tuple):
            raise ConfigError("per-layer prior requires a network config")
        s = np.full_like(q.mu, float(prior.std))
    else:
        s = prior.per_param(q.config)
    return float(np.sum(np.log(s / sigma) + (sigma**2 + q.mu**2) / (2.0 * s**2) - 0.5))


def sign_dims(config: nets.MLPConfig) -> tuple[int, int]:
    """Total output-side and input-side sign entries across layers."""
    shapes = config.layer_shapes()
    return sum(o for o, _ in shapes), sum(i for _, i in shapes)


def flipout_perturb(q: VariationalParams, shared_noise: np.ndarray,
                    r_signs: np.ndarray, s_signs: np.ndarray) -> list[nets.MLPParams]:
    """Materialized per-example weights w_n = mu + (sigma o eps) o (r_n s_n^T).

    ``r_signs`` has one +-1 entry per layer output unit and example,
    ``s_signs`` one per layer input unit and example; biases flip with the
    output-side signs. Expectation over signs equals mu.
    """
    if q.config is None:
        raise StructuralError("flipout perturbation requires a network config")
    r_signs = np.atleast_2d(np.asarray(r_signs, dtype=float))
    s_signs = np.atleast_2d(np.asarray(s_signs, dtype=float))
    if not np.all(np.isin(r_signs, (-1.0, 1.0))) or not np.all(np.isin(s_signs, (-1.0, 1.0))):
        raise StructuralError("sign entries must be -1 or +1")
    r_total, s_total = sign_dims(q.config)
    if r_signs.shape[1] != r_total or s_signs.shape[1] != s_total:
        raise StructuralError("sign vectors do not match the layer widths")
    if r_signs.shape[0] != s_signs.shape[0]:
        raise StructuralError("r and s must cover the same number of examples")
    base = nets.MLPParams.from_flat(q.config, q.sigma * np.asarray(shared_noise, dtype=float))
    mu = nets.MLPParams.from_flat(q.config, q.mu)
    out = []
    for n in range(r_signs.shape[0]):
        weights, biases = [], []
        r_off = s_off = 0
        for (o, i), mW, mb, dW, db in zip(
            q.config.layer_shapes(), mu.weights, mu.biases, base.weights, base.biases
        ):
            r = r_signs[n, r_off : r_off + o]
            s = s_signs[n, s_off : s_off + i]
            weights.append(mW + dW * np.outer(r, s))
            biases.append(mb + db * r)
            r_off += o
            s_off += i
        out.append(nets.MLPParams(q.config, weights, biases))
    return out


def _decomposed_forward(config, mu_Ws, mu_bs, d_Ws, d_bs, X, R, S, r_offsets, s_offsets):
    """Batch forward with per-example rank-one sign flips (see module doc)."""
    act = nets._ACTIVATIONS[config.activation]
    h = X
    last = len(mu_Ws) - 1
    for i, (mW, mb, dW, db) in enumerate(zip(mu_Ws, mu_bs, d_Ws, d_bs)):
        o, inn = config.layer_shapes()[i]
        Rl = R[:, r_offsets[i] : r_offsets[i] + o]
        Sl = S[:, s_offsets[i] : s_offsets[i] + inn]
        h = (h * Sl) @ dW.T * Rl + h @ mW.T + mb + db * Rl
        if i != last:
            h = act(h)
    return h


def _variational_train(dataset, net_config, like, prior, opt_config, *,
                       decorrelate: bool, unit_signs: bool = False,
                       problem=None, init_mu=None) -> VariationalParams:
    X, Y = dataset_arrays(dataset)
    if X.shape[1] != net_config.input_dim or Y.shape[1] != net_config.output_dim:
        raise ConfigError("dataset shapes do not match the network config")
    A, B = enforced_head_values(problem, X, net_config.output_dim)
    n_points = X.shape[0]
    P = net_config.n_params
    prior_vec = prior.per_param(net_config)
    shapes = net_config.layer_shapes()
    r_offsets = np.concatenate([[0], np.cumsum([o for o, _ in shapes])])[:-1]
    s_offsets = np.concatenate([[0], np.cumsum([i for _, i in shapes])])[:-1]
    r_total, s_total = sign_dims(net_config)

    mu = np.array(init_mu, dtype=float) if init_mu is not None else nets.init(net_config).flat()
    if mu.size != P:
        raise ConfigError("init_mu length does not match the parameter count")
    ss = np.random.SeedSequence(opt_config.seed)
    noise_rng, sign_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
    const_nll = 0.5 * n_points * net_config.output_dim * np.log(2.0 * np.pi * like.eps**2)

    def loss_and_grad(packed):
        # one fresh draw per evaluation; fit's evaluation after its last
        # step draws once more, and that draw moves no weight
        eps_hat = noise_rng.standard_normal(P)
        if decorrelate and not unit_signs:
            R = sign_rng.integers(0, 2, size=(n_points, r_total)) * 2.0 - 1.0
            S = sign_rng.integers(0, 2, size=(n_points, s_total)) * 2.0 - 1.0
        else:
            R = np.ones((n_points, r_total))
            S = np.ones((n_points, s_total))

        mu_v, rho_v = Var(packed[:P]), Var(packed[P:])
        sigma_v = softplus(rho_v)
        delta = sigma_v * eps_hat
        mu_Ws, mu_bs = nets.split_flat_var(net_config, mu_v)
        d_Ws, d_bs = nets.split_flat_var(net_config, delta)
        out = _decomposed_forward(
            net_config, mu_Ws, mu_bs, d_Ws, d_bs, X, R, S, r_offsets, s_offsets
        )
        pred = A + B * out
        nll = ((pred - Y) ** 2).sum() / (2.0 * like.eps**2) + const_nll
        kl = (log(prior_vec / sigma_v) + (sigma_v**2 + mu_v**2) / (2.0 * prior_vec**2) - 0.5).sum()
        loss = kl + nll
        return float(loss.data), lambda: grad_params(loss, [mu_v, rho_v])

    packed, history = fit(
        loss_and_grad, np.concatenate([mu, np.full(P, RHO_INIT)]),
        opt_config.learning_rate, opt_config.epochs, name="variational objective",
        params=lambda x: VariationalParams(net_config, x[:P], x[P:]),
    )
    return VariationalParams(net_config, packed[:P], packed[P:], history)


def bbb_train(dataset, net_config: nets.MLPConfig, like: LikelihoodSpec,
              prior: GaussianPrior, opt_config: OptConfig,
              problem=None, init_mu=None) -> VariationalParams:
    """Minimize KL(q || prior) - E_q[log likelihood], one fresh weight
    sample per step shared by the whole batch."""
    return _variational_train(
        dataset, net_config, like, prior, opt_config,
        decorrelate=False, problem=problem, init_mu=init_mu,
    )


def flipout_train(dataset, net_config: nets.MLPConfig, like: LikelihoodSpec,
                  prior: GaussianPrior, opt_config: OptConfig,
                  problem=None, unit_signs: bool = False,
                  init_mu=None) -> VariationalParams:
    """Same objective as bbb_train with per-example decorrelated
    perturbations; ``unit_signs`` forces all sign matrices to +1 (then the
    loss trace equals bbb_train's exactly under shared seeds)."""
    return _variational_train(
        dataset, net_config, like, prior, opt_config,
        decorrelate=True, unit_signs=unit_signs, problem=problem, init_mu=init_mu,
    )
