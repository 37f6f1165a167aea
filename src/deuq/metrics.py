"""Band quality metrics: coverage, extrapolation inflation, and fit error.

These turn the qualitative picture (tight band over the training domain,
flaring band outside it) into numbers a test can pin down.
"""

from __future__ import annotations

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
    over mean std inside, None (JSON null) when the inside band is exactly
    flat and the ratio has no finite value.
    """

    coverage_k2: float
    mean_std_train: float
    mean_std_extrap: float
    inflation_ratio: float | None
    rmse_train: float


def coverage(band: PredictiveBand, reference: np.ndarray, k: float) -> float:
    """Fraction of grid entries with |mean - reference| <= k * std. Where std
    is exactly 0 (at condition locations) an entry also counts as covered
    when the gap is within the band CSV's 9 significant digits,
    1e-12 + 1e-8 * |reference|, so a run and its CSV count the same entries."""
    if not k > 0.0:
        raise ConfigError("coverage width k must be positive")
    reference = aligned_reference(band, reference)
    gap = np.abs(band.mean - reference)
    hit = gap <= k * band.std
    hit |= (band.std == 0.0) & (gap <= 1e-12 + 1e-8 * np.abs(reference))
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


def band_report(band: PredictiveBand, reference: np.ndarray, inside: np.ndarray,
                k: float = 2.0) -> BandReport:
    """The headline metrics of one enforced band, with the grid split by the
    mask ``inside`` (the points in the training domain; the grid spans the
    extrapolation domain): coverage and RMSE over the inside points, and the
    inflation ratio of the mean std outside them to the mean std inside."""
    reference = aligned_reference(band, reference)
    if not inside.any() or inside.all():
        raise StructuralError("need grid points both inside and outside train_domain")
    std_in = float(band.std[inside].mean())
    std_out = float(band.std[~inside].mean())
    train_band = PredictiveBand(band.grid[inside], band.mean[inside],
                                band.std[inside], band.enforced)
    return BandReport(
        coverage_k2=coverage(train_band, reference[inside], k),
        mean_std_train=std_in,
        mean_std_extrap=std_out,
        inflation_ratio=None if std_in == 0.0 else std_out / std_in,
        rmse_train=rmse(band.mean[inside], reference[inside]),
    )


def aligned_reference(band: PredictiveBand, reference: np.ndarray) -> np.ndarray:
    """The reference as an array of the band mean's shape (a 1-D reference
    becomes one column); a StructuralError if it does not align."""
    reference = np.asarray(reference, dtype=float)
    if reference.ndim == 1:
        reference = reference.reshape(-1, 1)
    if reference.shape != band.mean.shape:
        raise StructuralError("reference grid does not align with the band")
    return reference
