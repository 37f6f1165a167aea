import math

import numpy as np
import pytest

from deuq import nets
from deuq.errors import ConfigError, StructuralError
from deuq.uq import OptConfig, nlm_fit, nlm_fit_dataset
from deuq.uq.nlm import feature_map, train_feature_net
from oracles import nlm_predict


def test_fit_with_no_data_returns_prior():
    post = nlm_fit(np.zeros((0, 3)), np.zeros(0), eps=1.0, prior_std=2.0)
    np.testing.assert_array_equal(post.posterior_mean, np.zeros(3))
    np.testing.assert_allclose(post.posterior_cov, 4.0 * np.eye(3))


def test_fit_single_observation_hand_values():
    post = nlm_fit(np.array([[1.0]]), np.array([1.0]), eps=1.0, prior_std=1.0)
    assert post.posterior_mean[0] == pytest.approx(0.5)
    assert post.posterior_cov[0, 0] == pytest.approx(0.5)


def test_fit_washes_out_with_huge_eps():
    phi = np.random.default_rng(0).normal(size=(50, 2))
    y = np.random.default_rng(1).normal(size=50)
    post = nlm_fit(phi, y, eps=1e8, prior_std=1.0)
    np.testing.assert_allclose(post.posterior_mean, 0.0, atol=1e-8)
    np.testing.assert_allclose(post.posterior_cov, np.eye(2), atol=1e-8)


def test_fit_validation():
    with pytest.raises(ConfigError):
        nlm_fit(np.ones((1, 1)), np.ones(1), eps=0.0, prior_std=1.0)
    with pytest.raises(ConfigError):
        nlm_fit(np.ones((1, 1)), np.ones(1), eps=1.0, prior_std=-1.0)
    with pytest.raises(StructuralError):
        nlm_fit(np.array([[np.inf]]), np.ones(1), eps=1.0, prior_std=1.0)
    with pytest.raises(StructuralError):
        nlm_fit(np.ones((2, 1)), np.ones(3), eps=1.0, prior_std=1.0)


def test_predict_hand_values():
    post = nlm_fit(np.array([[1.0]]), np.array([1.0]), eps=1.0, prior_std=1.0)
    mean, std = nlm_predict(post, np.array([1.0]))
    assert mean == pytest.approx(0.5)
    assert std == pytest.approx(math.sqrt(0.5))
    mean0, std0 = nlm_predict(post, np.array([0.0]))
    assert mean0 == 0.0 and std0 == 0.0
    mean_neg, std_neg = nlm_predict(post, np.array([-1.0]))
    assert mean_neg == pytest.approx(-0.5)
    assert std_neg == pytest.approx(std)


def test_posterior_cov_is_spd():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    post = nlm_fit(phi, y, eps=0.1, prior_std=2.0)
    np.testing.assert_allclose(post.posterior_cov, post.posterior_cov.T)
    assert np.all(np.linalg.eigvalsh(post.posterior_cov) > 0.0)


def _brute_force_posterior(phi, y, eps, prior_std, lo=-4.0, hi=4.0, n=401):
    """Grid quadrature of the unnormalized posterior, independent of the
    conjugate formulas."""
    d = phi.shape[1]
    axes = [np.linspace(lo, hi, n)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    log_like = -0.5 * np.sum((y[None, :] - W @ phi.T) ** 2, axis=1) / eps**2
    log_prior = -0.5 * np.sum(W**2, axis=1) / prior_std**2
    w = np.exp(log_like + log_prior - np.max(log_like + log_prior))
    w /= w.sum()
    mean = W.T @ w
    centered = W - mean
    cov = (centered * w[:, None]).T @ centered
    return mean, cov


def test_conjugate_fit_matches_brute_force_1d():
    rng = np.random.default_rng(7)
    phi = rng.normal(size=(12, 1))
    y = (phi @ np.array([0.7]) + rng.normal(scale=0.3, size=12))
    post = nlm_fit(phi, y, eps=0.3, prior_std=1.5)
    mean, cov = _brute_force_posterior(phi, y, 0.3, 1.5, n=4001)
    np.testing.assert_allclose(post.posterior_mean, mean, atol=1e-3)
    np.testing.assert_allclose(post.posterior_cov, cov, rtol=1e-2)


def test_conjugate_fit_matches_brute_force_2d():
    rng = np.random.default_rng(8)
    phi = rng.normal(size=(20, 2))
    y = phi @ np.array([0.5, -0.8]) + rng.normal(scale=0.25, size=20)
    post = nlm_fit(phi, y, eps=0.25, prior_std=1.0)
    mean, cov = _brute_force_posterior(phi, y, 0.25, 1.0, n=801)
    np.testing.assert_allclose(post.posterior_mean, mean, atol=1e-3)
    np.testing.assert_allclose(post.posterior_cov, cov, rtol=1e-2)


def test_feature_map_has_constant_column():
    cfg = nets.MLPConfig(1, 1, (5,), seed=2)
    params = nets.init(cfg)
    phi = feature_map(params, np.linspace(0, 1, 7).reshape(-1, 1))
    assert phi.shape == (7, 6)
    np.testing.assert_array_equal(phi[:, -1], np.ones(7))


def test_feature_training_and_dataset_fit():
    rng = np.random.default_rng(0)
    X = np.linspace(0.0, 1.0, 40).reshape(-1, 1)
    Y = np.sin(3.0 * X)
    cfg = nets.MLPConfig(1, 1, (12,), seed=4)
    posts = nlm_fit_dataset((X, Y), cfg, eps=1e-2, prior_std=1.0,
                            opt_config=OptConfig(epochs=2500, learning_rate=1e-2, seed=0))
    assert len(posts) == 1
    preds = np.array([nlm_predict(posts[0], x)[0] for x in X])
    assert np.max(np.abs(preds - Y[:, 0])) < 5e-2


def test_feature_net_keeps_loss_history():
    x = np.linspace(0.0, 1.0, 16).reshape(-1, 1)
    params = train_feature_net((x, np.sin(x)), nets.MLPConfig(1, 1, (8,), seed=0),
                               OptConfig(epochs=30, learning_rate=1e-2))
    assert len(params.loss_history) == 31
    assert params.loss_history[-1][1] < params.loss_history[0][1]
