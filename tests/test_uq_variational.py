import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deuq import nets
from deuq.autodiff import softplus
from deuq.errors import StructuralError
from deuq.uq.variational import (
    VariationalParams,
    bbb_train,
    flipout_train,
    sign_dims,
)
from oracles import (Var, bbb_sample_weights, flipout_perturb, grad_params, identity_head_args,
                     kernel_node, kl_gaussian_diag)

CFG = nets.MLPConfig(1, 1, (3,), seed=8)


def _q(cfg=CFG, rho=-1.0):
    return VariationalParams(cfg, nets.init(cfg).flat(), np.full(cfg.n_params, rho))


def test_softplus_values():
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert softplus(5.0) == pytest.approx(5.006715348, abs=1e-8)
    tiny = softplus(-40.0)
    assert 0.0 < tiny < 1e-17


@given(st.floats(min_value=-700.0, max_value=100.0, allow_nan=False))
def test_softplus_positive_for_finite_rho(rho):
    assert softplus(rho) >= 0.0
    if rho > -700:
        assert softplus(rho) > 0.0 or rho < -745  # underflow floor


def test_kl_zero_iff_prior():
    rho_for_sigma_one = math.log(math.e - 1.0)
    q = VariationalParams(None, np.zeros(4), np.full(4, rho_for_sigma_one))
    assert kl_gaussian_diag(q, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_values():
    rho1 = math.log(math.e - 1.0)  # sigma = 1
    q = VariationalParams(None, np.array([1.0]), np.array([rho1]))
    assert kl_gaussian_diag(q, 1.0) == pytest.approx(0.5, rel=1e-12)
    rho2 = math.log(math.exp(2.0) - 1.0)  # sigma = 2
    q = VariationalParams(None, np.array([0.0]), np.array([rho2]))
    expected = (4.0 - 1.0 - math.log(4.0)) / 2.0
    assert kl_gaussian_diag(q, 1.0) == pytest.approx(expected, rel=1e-12)


@given(
    mu=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    rho=st.floats(min_value=-8.0, max_value=4.0, allow_nan=False),
    s=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200)
def test_kl_nonnegative(mu, rho, s):
    q = VariationalParams(None, np.array([mu]), np.array([rho]))
    assert kl_gaussian_diag(q, s) >= -1e-12


def test_sample_weights_zero_noise_is_mean():
    q = _q()
    params = bbb_sample_weights(q, np.zeros(CFG.n_params))
    np.testing.assert_array_equal(params.flat(), q.mu)


def test_sample_weights_moments():
    q = _q(rho=0.5)
    rng = np.random.default_rng(0)
    draws = np.stack(
        [bbb_sample_weights(q, rng.standard_normal(CFG.n_params)).flat() for _ in range(100_000)]
    )
    sigma = q.sigma
    assert np.all(np.abs(draws.mean(axis=0) - q.mu) < 3.0 * sigma / math.sqrt(100_000.0) * 1.5)
    np.testing.assert_allclose(draws.var(axis=0, ddof=1), sigma**2, rtol=0.05)


def test_sample_weights_length_mismatch():
    with pytest.raises(StructuralError):
        bbb_sample_weights(_q(), np.zeros(CFG.n_params + 2))


def test_flipout_all_ones_matches_shared_perturbation():
    q = _q()
    noise = np.random.default_rng(3).standard_normal(CFG.n_params)
    r_total, s_total = sign_dims(CFG)
    per_example = flipout_perturb(q, noise, np.ones((2, r_total)), np.ones((2, s_total)))
    shared = bbb_sample_weights(q, noise)
    for params in per_example:
        np.testing.assert_allclose(params.flat(), shared.flat(), rtol=1e-15)


def test_flipout_sign_negation_flips_rows():
    q = _q()
    noise = np.random.default_rng(4).standard_normal(CFG.n_params)
    r_total, s_total = sign_dims(CFG)
    r = np.ones((1, r_total))
    s = np.ones((1, s_total))
    base = flipout_perturb(q, noise, r, s)[0]
    flipped = flipout_perturb(q, noise, -r, s)[0]
    for Wb, Wf, Wm in zip(base.weights, flipped.weights, nets.MLPParams.from_flat(CFG, q.mu).weights):
        np.testing.assert_allclose(Wf - Wm, -(Wb - Wm), rtol=1e-14)


def test_flipout_mean_over_signs_is_mu():
    q = _q(rho=0.0)
    noise = np.random.default_rng(5).standard_normal(CFG.n_params)
    r_total, s_total = sign_dims(CFG)
    rng = np.random.default_rng(6)
    n = 10_000
    r = rng.integers(0, 2, size=(n, r_total)) * 2.0 - 1.0
    s = rng.integers(0, 2, size=(n, s_total)) * 2.0 - 1.0
    draws = np.stack([p.flat() for p in flipout_perturb(q, noise, r, s)])
    scale = np.abs(q.sigma * noise) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - q.mu) < 4.0 * scale + 1e-12)


def test_flipout_rejects_bad_signs():
    q = _q()
    noise = np.zeros(CFG.n_params)
    r_total, s_total = sign_dims(CFG)
    with pytest.raises(StructuralError):
        flipout_perturb(q, noise, np.full((1, r_total), 0.5), np.ones((1, s_total)))
    with pytest.raises(StructuralError):
        flipout_perturb(q, noise, np.ones((1, r_total + 1)), np.ones((1, s_total)))


def _toy_dataset(n=24):
    x = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    return x, np.sin(2.0 * x)


def test_bbb_huge_eps_keeps_posterior_at_prior():
    X = np.array([[0.5]])
    Y = np.array([[0.3]])
    q = bbb_train(*identity_head_args(X, Y, nets.MLPConfig(1, 1, (4,), seed=0)),
                  eps=1e3, prior_std=1.0, epochs=2500, lr=1e-2, seed=0)
    assert kl_gaussian_diag(q, 1.0) < 1e-2


def test_bbb_fits_toy_regression():
    X, Y = _toy_dataset()
    cfg = nets.MLPConfig(1, 1, (8,), seed=1)
    q = bbb_train(*identity_head_args(X, Y, cfg), eps=1e-2, prior_std=1.0, epochs=3000,
                  lr=1e-2, seed=0)
    pred = nets.evaluate(nets.MLPParams.from_flat(cfg, q.mu), X)
    close = np.abs(pred - Y) <= 3e-2
    assert close.mean() >= 0.95


def test_flipout_unit_signs_reproduces_bbb_trace_exactly():
    X, Y = _toy_dataset()
    cfg = nets.MLPConfig(1, 1, (6,), seed=2)
    settings = dict(eps=1e-2, prior_std=1.0, epochs=120, lr=1e-2, seed=9)
    a = bbb_train(*identity_head_args(X, Y, cfg), **settings)
    b = flipout_train(*identity_head_args(X, Y, cfg), **settings, unit_signs=True)
    assert a.loss_history == b.loss_history
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.rho, b.rho)


def test_flipout_real_signs_differ_from_bbb():
    X, Y = _toy_dataset()
    cfg = nets.MLPConfig(1, 1, (6,), seed=2)
    args = identity_head_args(X, Y, cfg)
    settings = dict(eps=1e-2, prior_std=1.0, epochs=60, lr=1e-2, seed=9)
    assert bbb_train(*args, **settings).loss_history != flipout_train(*args, **settings).loss_history


def _likelihood_grad(cfg, q, X, Y, eps, signs, eps_hat):
    """Gradient of the data term w.r.t. mu for a fixed perturbation draw,
    on the kernel the trainers run (no signs: the shared perturbation)."""
    mu_v = Var(q.mu)
    delta = softplus(Var(q.rho)) * eps_hat
    out = kernel_node(nets.JetKernel(cfg, X, np.zeros((0, 1)), ()), mu_v, delta, signs)[0]
    nll = ((out - Y) ** 2).sum() / (2.0 * eps**2)
    return grad_params(nll, [mu_v])


def test_flipout_lowers_gradient_variance():
    # variance of the batch gradient across noise draws shrinks when the
    # per-example perturbations are decorrelated
    cfg = nets.MLPConfig(1, 1, (6,), seed=3)
    X, Y = _toy_dataset(32)
    q = VariationalParams(cfg, nets.init(cfg).flat(), np.full(cfg.n_params, 0.0))
    r_total, s_total = sign_dims(cfg)
    rng = np.random.default_rng(11)
    shared_grads, flip_grads = [], []
    for _ in range(100):
        eps_hat = rng.standard_normal(cfg.n_params)
        shared_grads.append(_likelihood_grad(cfg, q, X, Y, 1.0, None, eps_hat))
        R = rng.integers(0, 2, size=(X.shape[0], r_total)) * 2.0 - 1.0
        S = rng.integers(0, 2, size=(X.shape[0], s_total)) * 2.0 - 1.0
        flip_grads.append(_likelihood_grad(cfg, q, X, Y, 1.0, (R, S), eps_hat))
    var_shared = np.stack(shared_grads).var(axis=0).sum()
    var_flip = np.stack(flip_grads).var(axis=0).sum()
    assert var_flip < var_shared


def test_variational_params_shape_validation():
    with pytest.raises(StructuralError):
        VariationalParams(CFG, np.zeros(3), np.zeros(3))
    with pytest.raises(StructuralError):
        VariationalParams(None, np.zeros(3), np.zeros(4))
