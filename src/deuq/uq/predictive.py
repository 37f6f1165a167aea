"""Posterior predictive bands on evaluation grids, and their enforcement.

Monte Carlo bands (used by the sampling-based methods) draw whole weight
vectors from the variational posterior and reduce with a single-pass
streaming mean/variance, so collapsing the posterior collapses the band to
exactly zero spread. Enforcement pushes a raw-output band through the
condition transform: mean -> A + B * mean, std -> |B| * std, which zeroes
the uncertainty at every condition location by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nets, problems
from ..errors import ConfigError, StructuralError
from .der import EvidentialOutput, der_predictive
from .nlm import NLMPosterior, feature_map
from .variational import VariationalParams


@dataclass
class PredictiveBand:
    """Per-grid-point posterior predictive mean and standard deviation."""

    grid: np.ndarray  # (n, d)
    mean: np.ndarray  # (n, k)
    std: np.ndarray  # (n, k), nonnegative
    enforced: bool = False

    def __post_init__(self):
        self.grid = np.atleast_2d(np.asarray(self.grid, dtype=float))
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.ndim == 1:
            self.mean = self.mean.reshape(-1, 1)
        if self.std.ndim == 1:
            self.std = self.std.reshape(-1, 1)
        if self.mean.shape != self.std.shape or self.mean.shape[0] != self.grid.shape[0]:
            raise StructuralError("band arrays disagree in shape")
        if np.any(self.std < 0.0):
            raise StructuralError("band std must be nonnegative")


def posterior_predictive_mc(q: VariationalParams, net_config: nets.MLPConfig,
                            grid: np.ndarray, n_samples: int = 1000,
                            seed: int = 0) -> PredictiveBand:
    """Sample-mean/std band from n_samples posterior draws (unbiased
    variance). Deterministic for a fixed seed; samples are reduced in draw
    order with a streaming update."""
    if n_samples < 2:
        raise ConfigError("posterior predictive needs at least 2 samples")
    if q.config is not None and q.config != net_config:
        raise ConfigError("variational params were built for a different config")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    rng = np.random.default_rng(seed)
    sigma = q.sigma
    mean = np.zeros((grid.shape[0], net_config.output_dim))
    m2 = np.zeros_like(mean)
    for i in range(1, n_samples + 1):
        w = q.mu + sigma * rng.standard_normal(q.mu.size)
        params = nets.MLPParams.from_flat(net_config, w)
        values = nets.evaluate(params, grid)
        delta = values - mean
        mean += delta / i
        m2 += delta * (values - mean)
    std = np.sqrt(m2 / (n_samples - 1))
    return PredictiveBand(grid, mean, std)


def nlm_band(posts: list[NLMPosterior], grid: np.ndarray) -> PredictiveBand:
    """Analytic band phi' m +- sqrt(phi' Cov phi) per output."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    means, stds = [], []
    for post in posts:
        phi = feature_map(post.feature_params, grid) if post.feature_params is not None else grid
        mean = phi @ post.posterior_mean
        var = np.einsum("nd,de,ne->n", phi, post.posterior_cov, phi)
        means.append(mean)
        stds.append(np.sqrt(np.maximum(var, 0.0)))
    return PredictiveBand(grid, np.stack(means, axis=1), np.stack(stds, axis=1))


def der_band(heads: list[EvidentialOutput], grid: np.ndarray) -> PredictiveBand:
    """Analytic evidential band: mean gamma, std from (nu, alpha, beta)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    means, stds = [], []
    for head in heads:
        mean, std = der_predictive(head)
        means.append(np.asarray(mean, dtype=float))
        stds.append(np.asarray(std, dtype=float))
    return PredictiveBand(grid, np.stack(means, axis=1), np.stack(stds, axis=1))


def enforce_predictive(band: PredictiveBand, transform: problems.Transform) -> PredictiveBand:
    """Push a raw-output band through the condition transform."""
    if band.enforced:
        raise StructuralError("band is already enforced")
    A, B = problems.transform_values(transform, band.grid, band.mean.shape[1])
    return PredictiveBand(
        grid=band.grid,
        mean=A + B * band.mean,
        std=np.abs(B) * band.std,
        enforced=True,
    )
