import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deuq import nets, problems
from deuq.errors import ConfigError, DomainError
from deuq.uq.der import (
    EvidentialOutput,
    der_evaluate,
    der_head,
    der_predictive,
    der_train,
)
from deuq.uq.predictive import der_band, enforce_predictive
from oracles import der_loss, identity_head_args

LN2 = math.log(2.0)


def test_head_at_zero_raw():
    out = der_head(np.zeros(4))
    assert out.gamma == 0.0
    assert out.nu == pytest.approx(LN2)
    assert out.alpha == pytest.approx(1.0 + LN2)
    assert out.beta == pytest.approx(LN2)


def test_head_gamma_is_unconstrained():
    out = der_head(np.array([-5.0, 0.0, 0.0, 0.0]))
    assert out.gamma == -5.0


@given(st.lists(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False), min_size=4, max_size=4))
@settings(max_examples=200)
def test_head_always_valid(raw):
    out = der_head(np.array(raw))
    assert out.nu > 0.0
    assert out.alpha > 1.0
    assert out.beta > 0.0


def test_head_vectorized():
    out = der_head(np.zeros((5, 4)))
    assert out.gamma.shape == (5,)
    assert np.all(out.alpha > 1.0)


def test_loss_regularizer_hand_value():
    out = EvidentialOutput(gamma=0.0, nu=1.0, alpha=2.0, beta=1.0)
    lam = 0.7
    assert der_loss(out, 1.0, lam) - der_loss(out, 1.0, 0.0) == pytest.approx(lam * 4.0)
    assert der_loss(out, 1.0, 0.0) == der_loss(out, 1.0)  # lam=0 is the pure NLL


def test_loss_nll_hand_value():
    # direct evaluation of the marginal-likelihood formula at a simple point
    out = EvidentialOutput(gamma=0.0, nu=1.0, alpha=2.0, beta=1.0)
    err, two_bl = 1.0, 4.0
    expected = (
        0.5 * math.log(math.pi / 1.0)
        - 2.0 * math.log(two_bl)
        + 2.5 * math.log(1.0 + two_bl)
        + math.lgamma(2.0)
        - math.lgamma(2.5)
    )
    assert der_loss(out, 1.0) == pytest.approx(expected, rel=1e-12)


def test_nll_is_minimized_at_gamma_equal_target():
    target = 0.37
    gammas = np.linspace(target - 2.0, target + 2.0, 4001)
    losses = [
        der_loss(EvidentialOutput(g, 1.3, 1.9, 0.8), target) for g in gammas
    ]
    assert gammas[int(np.argmin(losses))] == pytest.approx(target, abs=1e-3)


def test_predictive_hand_value():
    mean, std = der_predictive(EvidentialOutput(2.0, 1.0, 2.0, 1.0))
    assert mean == 2.0
    assert std**2 == pytest.approx(2.0)


def test_predictive_pole_and_domain():
    _, std_near = der_predictive(EvidentialOutput(0.0, 1.0, 1.0 + 1e-9, 1.0))
    assert std_near > 1e4
    with pytest.raises(DomainError):
        der_predictive(EvidentialOutput(0.0, 1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        der_predictive(EvidentialOutput(0.0, 1.0, 0.5, 1.0))


def test_predictive_variance_linear_in_beta():
    base = EvidentialOutput(0.0, 1.7, 2.3, 1.1)
    _, s1 = der_predictive(base)
    _, s2 = der_predictive(EvidentialOutput(0.0, 1.7, 2.3, 3.3))
    assert s2**2 == pytest.approx(3.0 * s1**2, rel=1e-12)


@given(
    nu=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    alpha=st.floats(min_value=1.05, max_value=20.0, allow_nan=False),
    beta=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    bump=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
)
@settings(max_examples=100)
def test_predictive_variance_decreasing_in_alpha_and_nu(nu, alpha, beta, bump):
    _, s = der_predictive(EvidentialOutput(0.0, nu, alpha, beta))
    _, s_alpha = der_predictive(EvidentialOutput(0.0, nu, alpha + bump, beta))
    _, s_nu = der_predictive(EvidentialOutput(0.0, nu + bump, alpha, beta))
    assert s_alpha < s
    assert s_nu < s


def test_train_fits_location_channel():
    X = np.linspace(0.0, 1.0, 32).reshape(-1, 1)
    Y = np.cos(2.0 * X)
    cfg = nets.MLPConfig(1, 4, (12,), seed=0)
    params = der_train(*identity_head_args(X, Y, cfg), eps=1e-2, lam=0.01, epochs=2500, lr=1e-2)
    heads = der_evaluate(params, X, 1e-2)
    assert np.max(np.abs(heads[0].gamma - Y[:, 0])) < 5e-2
    assert np.all(heads[0].alpha > 1.0)


def test_train_requires_four_channels_per_output():
    X = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    Y = np.zeros((8, 1))
    with pytest.raises(ConfigError):
        der_train(*identity_head_args(X, Y, nets.MLPConfig(1, 3, (6,), seed=0)),
                  eps=1e-2, lam=0.01, epochs=1, lr=1e-2)


def test_likelihood_scale_floors_variance_and_enforced_band():
    # noise-free data: without the eps floor the NIG scale shrinks to the
    # fit's misfit, far below the likelihood scale
    problem = problems.make_preset("linear_ode")
    X = problems.grid_points(problem.train_domain, 33)
    Y = problems.reference_solution(problem, X)
    eps = 0.03
    cfg = nets.MLPConfig(1, 4, (12,), seed=0)
    A, B = problems.transform_values(problem.transform, X)
    params = der_train(X, Y, A, B, cfg, nets.init(cfg).flat(), eps=eps, lam=0.1, epochs=400,
                       lr=1e-2)
    grid = problems.grid_points(problem.extrap_domain, 61)
    heads = der_evaluate(params, grid, eps)
    assert np.all(heads[0].beta / (heads[0].alpha - 1.0) >= eps**2)

    band = enforce_predictive(der_band(heads, grid), problem.transform)
    _, B = problems.transform_values(problem.transform, grid)
    on_condition, _ = problems.condition_mask(problem, grid)
    assert on_condition.any()
    np.testing.assert_array_equal(on_condition, B[:, 0] == 0.0)
    assert np.all(band.std[on_condition] == 0.0)
    assert np.all(band.std[~on_condition] >= np.abs(B[~on_condition]) * eps)
