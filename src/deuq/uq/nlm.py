"""Neural linear model: deterministic feature extractor plus conjugate
Bayesian regression on the final layer.

The feature network is trained by mean squared error through the enforced
head; its last hidden activations (plus a constant feature for the bias)
form the basis for the closed-form Gaussian posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nets
from ..autodiff import Var, grad_params
from ..errors import ConfigError, StructuralError
from ..optim import fit
from .common import OptConfig, dataset_arrays, enforced_head_values


@dataclass
class NLMPosterior:
    """Closed-form last-layer posterior N(mean, cov) over feature weights.

    ``feature_params`` holds the trained extractor network (None when the
    posterior was fit on raw feature vectors). Predictions report the
    epistemic term phi' Cov phi only.
    """

    feature_params: nets.MLPParams | None
    posterior_mean: np.ndarray
    posterior_cov: np.ndarray
    eps: float
    prior_std: float


def nlm_fit(features: np.ndarray, targets: np.ndarray, eps: float,
            prior_std: float) -> NLMPosterior:
    """Conjugate Gaussian regression: cov = (I/prior_std^2 + Phi^T Phi/eps^2)^-1,
    mean = cov Phi^T y / eps^2. With no rows the posterior equals the prior."""
    if eps <= 0.0 or prior_std <= 0.0:
        raise ConfigError("eps and prior_std must be positive")
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).ravel()
    if features.ndim != 2 or features.shape[1] < 1:
        raise StructuralError("features must be a (n, d) matrix with d >= 1")
    if features.shape[0] != targets.size:
        raise StructuralError("feature rows and targets disagree in length")
    if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
        raise StructuralError("features and targets must be finite")
    d = features.shape[1]
    precision = np.eye(d) / prior_std**2 + features.T @ features / eps**2
    cov = np.linalg.inv(precision)
    cov = (cov + cov.T) / 2.0
    mean = cov @ (features.T @ targets) / eps**2
    return NLMPosterior(None, mean, cov, eps, prior_std)


def feature_map(params: nets.MLPParams, points: np.ndarray) -> np.ndarray:
    """Last hidden activations of the extractor plus a constant-1 column."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    act = nets._ACTIVATIONS[params.config.activation]
    h = points
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        h = act(h @ W.T + b)
    return np.hstack([h, np.ones((h.shape[0], 1))])


def train_feature_net(dataset, net_config: nets.MLPConfig, opt_config: OptConfig,
                      problem=None, init_params=None) -> nets.MLPParams:
    """Fit the extractor by mean squared error through the enforced head.

    The returned params carry the ``loss_history`` of ``optim.fit``. A
    non-finite objective raises DivergenceError with the last finite params
    and the history up to it.
    """
    X, Y = dataset_arrays(dataset)
    A, B = enforced_head_values(problem, X, net_config.output_dim)
    x0 = np.array(init_params, dtype=float) if init_params is not None else nets.init(net_config).flat()

    def loss_and_grad(flat):
        leaf = Var(flat)
        Ws, bs = nets.split_flat_var(net_config, leaf)
        out = nets.values_batch(net_config, Ws, bs, X)
        loss = ((A + B * out - Y) ** 2).mean()
        return float(loss.data), lambda: grad_params(loss, [leaf])

    flat, history = fit(
        loss_and_grad, x0, opt_config.learning_rate, opt_config.epochs,
        name="feature-network objective",
        params=lambda x: nets.MLPParams.from_flat(net_config, x),
    )
    params = nets.MLPParams.from_flat(net_config, flat)
    params.loss_history = history
    return params


def nlm_fit_dataset(dataset, net_config: nets.MLPConfig, eps: float, prior_std: float,
                    opt_config: OptConfig, problem=None, init_params=None) -> list[NLMPosterior]:
    """Full pipeline: train features, then one conjugate fit per output.

    With an enforced head the regression absorbs A into the targets and B
    into the design matrix, so the posterior models the raw network output
    and the band enforcement step restores the solution scale.
    """
    X, Y = dataset_arrays(dataset)
    A, B = enforced_head_values(problem, X, net_config.output_dim)
    params = train_feature_net(dataset, net_config, opt_config, problem, init_params)
    phi = feature_map(params, X)
    posts = []
    for k in range(net_config.output_dim):
        fit = nlm_fit(B[:, k : k + 1] * phi, Y[:, k] - A[:, k], eps, prior_std)
        fit.feature_params = params
        posts.append(fit)
    return posts
