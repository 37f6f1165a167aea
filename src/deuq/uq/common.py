"""Shared stage-two pieces: likelihood/prior/optimizer settings, dataset
normalization, and the enforced regression head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import problems
from ..errors import ConfigError


@dataclass(frozen=True)
class LikelihoodSpec:
    """Fixed Gaussian observation scale for the stage-two regression."""

    eps: float = 1e-2

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ConfigError("likelihood eps must be positive")


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean Gaussian prior with one std for every weight."""

    std: float = 1.0

    def __post_init__(self):
        if not self.std > 0.0:
            raise ConfigError("prior std must be positive")


@dataclass(frozen=True)
class OptConfig:
    """Optimizer settings for the stage-two fits."""

    epochs: int = 4000
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not self.epochs >= 0:
            raise ConfigError("epochs must be nonnegative")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")


def dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an (X, Y) pair to float arrays of shapes (n, d) and (n, k)."""
    X, Y = dataset
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if X.shape[0] == 0:
        raise ConfigError("dataset must not be empty")
    if X.shape[0] != Y.shape[0]:
        raise ConfigError("dataset points and values disagree in length")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ConfigError("dataset contains non-finite entries")
    return X, Y


def enforced_head_values(problem: problems.ProblemSpec | None, points: np.ndarray,
                         n_outputs: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) arrays for the regression head; identity head when no problem
    transform is supplied (A = 0, B = 1)."""
    if problem is None:
        shape = (points.shape[0], n_outputs)
        return np.zeros(shape), np.ones(shape)
    return problems.transform_values(problem.transform, points, n_outputs)
