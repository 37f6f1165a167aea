import numpy as np
import pytest

from deuq import nets, problems
from deuq.errors import DivergenceError
from deuq.optim import Adam, fit
from deuq.stage1 import train_deterministic
from deuq.uq.der import der_train
from deuq.uq.nlm import train_feature_net
from deuq.uq.variational import VariationalParams, bbb_train, flipout_train
from oracles import adam_step, identity_head_args


def _shifted_square(offset):
    def loss_and_grad(x):
        return float(x @ x) - offset, lambda: 2.0 * x
    return loss_and_grad


def test_history_is_step_loss_pairs_ending_at_the_returned_vector():
    f = _shifted_square(0.0)
    x, history = fit(f, np.array([1.0, -2.0]), 0.1, 25)
    assert [k for k, _ in history] == list(range(26))
    assert history[0][1] == 5.0
    assert history[-1][1] == f(x)[0]


def test_gradient_is_taken_once_per_step_and_never_at_the_returned_vector():
    taken = []

    def loss_and_grad(x):
        def gradient():
            taken.append(x)
            return 2.0 * x
        return float(x @ x), gradient

    x, history = fit(loss_and_grad, np.array([1.0, -2.0]), 0.1, 25)
    assert len(taken) == 25 == len(history) - 1
    assert not any(t is x for t in taken)
    taken.clear()
    _, history = fit(loss_and_grad, np.array([1.0, -2.0]), 0.1, 500, tolerance=0.5)
    assert len(taken) == len(history) - 1


def test_no_tolerance_runs_every_epoch_through_negative_losses():
    # stage-2 objectives can be negative, so no tolerance means none at all
    _, history = fit(_shifted_square(10.0), np.array([1.0, -2.0]), 0.1, 40)
    assert len(history) == 41
    assert history[-1][1] < 0.0


def test_tolerance_stops_at_the_first_loss_below_it():
    _, history = fit(_shifted_square(0.0), np.array([1.0, -2.0]), 0.1, 500, tolerance=0.5)
    assert history[-1][1] <= 0.5 < history[-2][1]
    assert len(history) < 501


def test_non_finite_initial_loss_carries_the_start():
    x0 = np.array([1.0])
    with pytest.raises(DivergenceError) as err:
        fit(lambda x: (float("nan"), lambda: x), x0, 0.1, 5, name="toy loss",
            params=lambda x: ("wrapped", x))
    assert "initial toy loss" in str(err.value)
    assert err.value.last_params[0] == "wrapped"
    np.testing.assert_array_equal(err.value.last_params[1], x0)
    assert err.value.loss_history == []


def test_in_place_step_matches_the_out_of_place_step():
    rng = np.random.default_rng(5)
    opt, ref = Adam(41, 3e-2), Adam(41, 3e-2)
    x = y = rng.normal(size=41)
    for _ in range(200):
        grad = rng.normal(size=41) * 10.0 ** rng.integers(-8, 4)
        x, y = opt.step(x, grad), adam_step(ref, y, grad)
        assert np.array_equal(x, y)
    assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)


def test_step_returns_a_fresh_vector():
    opt = Adam(3, 0.1)
    x0, grad = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.25, -1.0])
    x1 = opt.step(x0, grad)
    m, v = opt.m.copy(), opt.v.copy()
    x1[...] = 99.0
    np.testing.assert_array_equal(x0, [1.0, -2.0, 3.0])
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    x2 = opt.step(x1, grad)
    assert not any(np.shares_memory(x2, a) for a in (x1, grad, opt.m, opt.v))


def test_divergence_at_step_k_carries_the_vector_of_step_k_minus_1():
    k, seen = 7, []

    def loss_and_grad(x):
        seen.append(x.copy())  # seen[j] is the vector after j steps
        return float("nan") if len(seen) == k + 1 else float(x @ x), lambda: 2.0 * x

    with pytest.raises(DivergenceError) as err:
        fit(loss_and_grad, np.array([1.0, -2.0, 0.5]), 0.1, 20)
    assert f"at step {k}" in str(err.value)
    np.testing.assert_array_equal(err.value.last_params, seen[k - 1])
    assert [s for s, _ in err.value.loss_history] == list(range(k))


X = np.linspace(0.0, 1.0, 16).reshape(-1, 1)
ARGS = identity_head_args(X, np.sin(X), nets.MLPConfig(1, 1, (8,), seed=0))
DER_ARGS = identity_head_args(X, np.sin(X), nets.MLPConfig(1, 4, (8,), seed=0))
VARIATIONAL = dict(eps=1e-2, prior_std=1.0, seed=0)
STAGE1 = dict(n_collocation=8, sampler="equispaced", seed=0, tolerance=0.0, dataset_grid=9)

# trainer, type of the params it returns, name its divergence error carries
TRAINERS = {
    "nlm": (lambda **budget: train_feature_net(*ARGS, **budget),
            nets.MLPParams, "feature-network objective"),
    "der": (lambda **budget: der_train(*DER_ARGS, eps=1e-2, lam=0.1, **budget),
            nets.MLPParams, "evidential objective"),
    "bbb": (lambda **budget: bbb_train(*ARGS, **VARIATIONAL, **budget),
            VariationalParams, "variational objective"),
    "flipout": (lambda **budget: flipout_train(*ARGS, **VARIATIONAL, **budget),
                VariationalParams, "variational objective"),
    "stage1": (lambda **budget: train_deterministic(
                   problems.linear_ode(), nets.MLPConfig(1, 1, (8,), seed=0), **STAGE1, **budget),
               nets.MLPParams, "stage-1 residual loss"),
}


@pytest.mark.parametrize("epochs", [1, 50])
@pytest.mark.parametrize("method", list(TRAINERS))
def test_trainer_divergence_carries_last_finite_state(method, epochs):
    # a huge step throws the weights to ~1e200, so the objective overflows,
    # also when that step is the last one
    train, kind, name = TRAINERS[method]
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as err:
            train(epochs=epochs, lr=1e200)
    assert name in str(err.value)
    last = err.value.last_params
    assert isinstance(last, kind)
    flat = last.flat() if kind is nets.MLPParams else np.concatenate([last.mu, last.rho])
    assert np.all(np.isfinite(flat))
    history = err.value.loss_history
    assert history
    assert [k for k, _ in history] == list(range(len(history)))
    assert all(np.isfinite(l) for _, l in history)
