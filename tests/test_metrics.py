import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deuq import metrics
from deuq.errors import StructuralError
from deuq.uq.predictive import PredictiveBand

GRID = np.linspace(0.0, 3.0, 7).reshape(-1, 1)
TRAIN = ((0.0, 2.0),)


def _band(mean, std):
    return PredictiveBand(GRID, np.asarray(mean, float).reshape(-1, 1),
                          np.asarray(std, float).reshape(-1, 1), enforced=True)


def test_coverage_full_with_huge_std():
    band = _band(np.zeros(7), np.full(7, 1e6))
    assert metrics.coverage(band, np.ones((7, 1)), 2.0) == 1.0


def test_coverage_zero_with_zero_std():
    band = _band(np.zeros(7), np.zeros(7))
    assert metrics.coverage(band, np.ones((7, 1)), 2.0) == 0.0


def test_coverage_zero_std_within_csv_precision():
    # at zero std a gap of rounding size is covered, a real one is not
    band = _band(np.zeros(7), np.zeros(7))
    reference = np.array([1e-15] * 3 + [1e-3] * 4).reshape(-1, 1)
    assert metrics.coverage(band, reference, 2.0) == pytest.approx(3.0 / 7.0)


def test_coverage_hand_count():
    grid = np.arange(3.0).reshape(-1, 1)
    band = PredictiveBand(grid, np.zeros((3, 1)), np.ones((3, 1)), enforced=True)
    reference = np.array([[1.0], [2.0], [3.0]])
    assert metrics.coverage(band, reference, 2.0) == pytest.approx(2.0 / 3.0)


def test_coverage_grid_mismatch():
    band = _band(np.zeros(7), np.ones(7))
    with pytest.raises(StructuralError):
        metrics.coverage(band, np.ones((6, 1)), 2.0)


@given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=100)
def test_coverage_monotone_in_k(k, bump):
    rng = np.random.default_rng(0)
    band = _band(rng.normal(size=7), np.abs(rng.normal(size=7)) + 0.1)
    reference = rng.normal(size=(7, 1))
    assert metrics.coverage(band, reference, k + bump) >= metrics.coverage(band, reference, k)


def _inflation(band):
    inside = metrics.in_train_mask(band.grid, TRAIN)
    return metrics.band_report(band, band.mean, inside).inflation_ratio


def test_inflation_uniform_std_is_one():
    band = _band(np.zeros(7), np.full(7, 0.3))
    assert _inflation(band) == pytest.approx(1.0)


def test_inflation_hand_value():
    std = np.where(GRID[:, 0] > 2.0, 0.5, 0.1)
    band = _band(np.zeros(7), std)
    assert _inflation(band) == pytest.approx(5.0)


def test_inflation_zero_inside_is_none():
    std = np.where(GRID[:, 0] > 2.0, 1.0, 0.0)
    band = _band(np.zeros(7), std)
    assert _inflation(band) is None


def test_inflation_requires_points_on_both_sides():
    grid = np.linspace(0.0, 2.0, 5).reshape(-1, 1)
    band = PredictiveBand(grid, np.zeros((5, 1)), np.ones((5, 1)))
    with pytest.raises(StructuralError):
        _inflation(band)


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50)
def test_inflation_invariant_under_rescaling(scale):
    rng = np.random.default_rng(1)
    std = np.abs(rng.normal(size=7)) + 0.05
    a = _inflation(_band(np.zeros(7), std))
    b = _inflation(_band(np.zeros(7), std * scale))
    assert a == pytest.approx(b, rel=1e-9)


def test_rmse_examples():
    assert metrics.rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert metrics.rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(12.5)
    )
    assert metrics.rmse(np.array([5.0]), np.array([3.0])) == 2.0


def test_rmse_rejects_empty_and_mismatched():
    with pytest.raises(StructuralError):
        metrics.rmse(np.zeros(0), np.zeros(0))
    with pytest.raises(StructuralError):
        metrics.rmse(np.zeros(3), np.zeros(4))


def test_band_report_fields():
    std = np.where(GRID[:, 0] > 2.0, 0.4, 0.1)
    band = _band(GRID[:, 0] * 0.0, std)
    report = metrics.band_report(band, np.zeros((7, 1)), metrics.in_train_mask(GRID, TRAIN))
    assert report.coverage_k2 == 1.0
    assert report.rmse_train == 0.0
    assert report.mean_std_train == pytest.approx(0.1)
    assert report.mean_std_extrap == pytest.approx(0.4)
    assert report.inflation_ratio == pytest.approx(
        report.mean_std_extrap / report.mean_std_train
    )


def test_in_train_mask_closed_interval():
    mask = metrics.in_train_mask(GRID, TRAIN)
    np.testing.assert_array_equal(mask, GRID[:, 0] <= 2.0)
