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
from ..errors import DomainError, StructuralError
from ..nets import grad_params
from ..optim import fit


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


def nlm_fit(features: np.ndarray, targets: np.ndarray, eps: float,
            prior_std: float) -> NLMPosterior:
    """Conjugate Gaussian regression: cov = (I/prior_std^2 + Phi^T Phi/eps^2)^-1,
    mean = cov Phi^T y / eps^2. With no rows the posterior equals the prior.
    The precision is inverted through its Cholesky factor L: cov = L^-T L^-1.
    A precision that is not positive definite in floating point raises
    DomainError."""
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
    try:
        factor_inv = np.linalg.inv(np.linalg.cholesky(precision))
    except np.linalg.LinAlgError:
        raise DomainError("NLM posterior precision is not positive definite") from None
    cov = factor_inv.T @ factor_inv
    cov = (cov + cov.T) / 2.0
    mean = cov @ (features.T @ targets) / eps**2
    return NLMPosterior(None, mean, cov)


def feature_map(params: nets.MLPParams, points: np.ndarray) -> np.ndarray:
    """Last hidden activations of the extractor plus a constant-1 column."""
    h = nets.hidden(params, points)
    return np.hstack([h, np.ones((h.shape[0], 1))])


def train_feature_net(X, Y, A, B, net_config: nets.MLPConfig, x0, *,
                      epochs: int, lr: float) -> nets.MLPParams:
    """Fit the extractor from x0 by mean squared error through the enforced
    head A + B * net on (X, Y); the error's cotangent on the head's output
    is (2/n) err B.

    The returned params carry the ``loss_history`` of ``optim.fit``. A
    non-finite objective raises DivergenceError with the last finite params
    and the history up to it.
    """
    kernel = nets.JetKernel(net_config, X, np.zeros((0, X.shape[1])), ())  # values only
    scale = 2.0 / Y.size

    def loss_and_grad(flat):
        err = A + B * kernel.forward(flat)[0] - Y
        return float((err**2).mean()), lambda: grad_params(kernel, (scale * err * B)[None])

    flat, history = fit(
        loss_and_grad, x0, lr, epochs, name="feature-network objective",
        params=lambda x: nets.MLPParams.from_flat(net_config, x),
    )
    params = nets.MLPParams.from_flat(net_config, flat)
    params.loss_history = history
    return params


def nlm_fit_dataset(X, Y, A, B, net_config: nets.MLPConfig, x0, *, eps: float,
                    prior_std: float, epochs: int, lr: float) -> list[NLMPosterior]:
    """Full pipeline: train features, then one conjugate fit per output.

    With an enforced head the regression absorbs A into the targets and B
    into the design matrix, so the posterior models the raw network output
    and the band enforcement step restores the solution scale.
    """
    params = train_feature_net(X, Y, A, B, net_config, x0, epochs=epochs, lr=lr)
    phi = feature_map(params, X)
    posts = []
    for k in range(net_config.output_dim):
        fit = nlm_fit(B[:, k : k + 1] * phi, Y[:, k] - A[:, k], eps, prior_std)
        fit.feature_params = params
        posts.append(fit)
    return posts
