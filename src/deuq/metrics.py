"""Band quality metrics: coverage, extrapolation inflation, and fit error.

These turn the qualitative picture (tight band over the training domain,
flaring band outside it) into numbers a test can pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, StructuralError
from .problems import Interval
from .uq.predictive import PredictiveBand


@dataclass(frozen=True)
class BandReport:
    """Summary of one enforced band against a reference solution.

    coverage_k2 and rmse_train are computed over the training-domain part
    of the grid; inflation_ratio is mean std outside the training domain
    over mean std inside (infinite when the inside band is exactly flat).
    """

    coverage_k2: float
    mean_std_train: float
    mean_std_extrap: float
    inflation_ratio: float
    rmse_train: float


def coverage(band: PredictiveBand, reference: np.ndarray, k: float) -> float:
    """Fraction of grid entries with |mean - reference| <= k * std."""
    if not k > 0.0:
        raise ConfigError("coverage width k must be positive")
    reference = _aligned_reference(band, reference)
    hit = np.abs(band.mean - reference) <= k * band.std
    return float(hit.mean())


def in_train_mask(grid: np.ndarray, train_domain: Sequence[Interval]) -> np.ndarray:
    """True where a grid point lies inside the closed training domain."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    mask = np.ones(grid.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(train_domain):
        mask &= (grid[:, axis] >= lo) & (grid[:, axis] <= hi)
    return mask


def rmse(values: np.ndarray, reference: np.ndarray) -> float:
    """Root mean squared deviation between two equal-length vectors."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.size == 0:
        raise StructuralError("rmse of empty vectors is undefined")
    if values.shape != reference.shape:
        raise StructuralError("rmse inputs disagree in shape")
    return float(np.sqrt(np.mean((values - reference) ** 2)))


def band_report(band: PredictiveBand, reference: np.ndarray,
                train_domain: Sequence[Interval],
                extrap_domain: Sequence[Interval], k: float = 2.0) -> BandReport:
    """Assemble the headline metrics for one enforced band."""
    return masked_report(band, reference, *_split(band.grid, train_domain, extrap_domain), k)


def masked_report(band: PredictiveBand, reference: np.ndarray, inside: np.ndarray,
                  outside: np.ndarray, k: float = 2.0) -> BandReport:
    """The headline metrics with the grid split given as masks: coverage
    and RMSE over ``inside``, the inflation ratio of ``outside`` to it."""
    reference = _aligned_reference(band, reference)
    std_in, std_out, ratio = _std_split(band.std, inside, outside)
    train_band = PredictiveBand(band.grid[inside], band.mean[inside],
                                band.std[inside], band.enforced)
    return BandReport(
        coverage_k2=coverage(train_band, reference[inside], k),
        mean_std_train=std_in,
        mean_std_extrap=std_out,
        inflation_ratio=ratio,
        rmse_train=rmse(band.mean[inside], reference[inside]),
    )


def _split(grid: np.ndarray, train_domain: Sequence[Interval],
           extrap_domain: Sequence[Interval]) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the grid points inside the training domain and of those in
    the extrapolation domain strictly outside it."""
    inside = in_train_mask(grid, train_domain)
    return inside, in_train_mask(grid, extrap_domain) & ~inside


def _std_split(std: np.ndarray, inside: np.ndarray,
               outside: np.ndarray) -> tuple[float, float, float]:
    """Mean std inside, mean std outside, and their ratio (infinite when
    the inside band is exactly flat)."""
    if not inside.any() or not outside.any():
        raise StructuralError("need grid points both inside and outside train_domain")
    std_in = float(std[inside].mean())
    std_out = float(std[outside].mean())
    return std_in, std_out, math.inf if std_in == 0.0 else std_out / std_in


def _aligned_reference(band: PredictiveBand, reference: np.ndarray) -> np.ndarray:
    reference = np.asarray(reference, dtype=float)
    if reference.ndim == 1:
        reference = reference.reshape(-1, 1)
    if reference.shape != band.mean.shape:
        raise StructuralError("reference grid does not align with the band")
    return reference
