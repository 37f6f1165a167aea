"""Every training loss against its tape oracle and against finite differences.

Production runs each loss in forward mode (stage 1, on Dual numbers) or in
closed form (nlm, der, bbb, flipout) and hands the cotangent of the network
output to the kernel's backward pass. The tape in `oracles` records the same
losses as they were first written. Both must agree on the loss value and on
the gradient, for every preset and method; central differences check the
production gradient on its own.
"""

import numpy as np
import pytest

from deuq import nets, problems, stage1
from deuq.uq import der, nlm, variational
from oracles import (Var, grad_params, tape_der_loss, tape_nlm_loss, tape_stage1_loss,
                     tape_variational_loss)

PRESETS = problems.preset_names()
METHODS = ("bbb", "flipout", "nlm", "der")
EPS, PRIOR_STD, LAM, SEED = 0.05, 1.3, 0.3, 4
BUDGET = dict(epochs=1, lr=1e-2)
TRAINERS = {
    "bbb": (variational, lambda *args: variational.bbb_train(
        *args, eps=EPS, prior_std=PRIOR_STD, seed=SEED, **BUDGET)),
    "flipout": (variational, lambda *args: variational.flipout_train(
        *args, eps=EPS, prior_std=PRIOR_STD, seed=SEED, **BUDGET)),
    "nlm": (nlm, lambda *args: nlm.train_feature_net(*args, **BUDGET)),
    "der": (der, lambda *args: der.der_train(*args, eps=EPS, lam=LAM, **BUDGET)),
}


def _dataset(problem):
    X = problems.grid_points(problem.train_domain, 9 if problem.input_dim == 2 else 17)
    Y = np.random.default_rng(1).normal(0.0, 0.5, (X.shape[0], problem.n_outputs))
    return X, Y


def _config(problem, method):
    channels = 4 if method == "der" else 1
    return nets.MLPConfig(problem.input_dim, channels * problem.n_outputs, (7, 5), seed=2)


def _point(cfg, method):
    rng = np.random.default_rng(3)
    flat = nets.init(cfg).flat() + rng.normal(0.0, 0.3, cfg.n_params)
    if method in ("bbb", "flipout"):
        return np.concatenate([flat, rng.normal(-2.0, 0.5, cfg.n_params)])
    return flat


class _SignSpy(nets.JetKernel):
    """The kernel, recording the signs of every perturbed forward pass."""

    signs = []

    def forward(self, flat, delta=None, signs=None):
        if delta is not None:
            _SignSpy.signs.append(signs)
        return super().forward(flat, delta, signs)


def _production(monkeypatch, method, problem, x):
    """The trainer's own loss and gradient at x: its fit is replaced by one
    evaluation, so the first noise and sign draws of a fresh run are used."""
    module, train = TRAINERS[method]
    out = {}

    def one_evaluation(loss_and_grad, x0, *args, **kwargs):
        loss, gradient = loss_and_grad(x)
        out["loss"], out["grad"] = loss, gradient()
        return x0, [(0, loss)]

    monkeypatch.setattr(module, "fit", one_evaluation)
    monkeypatch.setattr(nets, "JetKernel", _SignSpy)
    _SignSpy.signs = []
    X, Y = _dataset(problem)
    cfg = _config(problem, method)
    train(X, Y, *problems.transform_values(problem.transform, X), cfg, nets.init(cfg).flat())
    return out["loss"], out["grad"]


def _tape(method, problem, x, signs):
    X, Y = _dataset(problem)
    cfg = _config(problem, method)
    kernel = nets.JetKernel(cfg, X, np.zeros((0, X.shape[1])), ())
    A, B = problems.transform_values(problem.transform, X)
    leaf = Var(x)
    if method == "nlm":
        loss, leaves = tape_nlm_loss(kernel, leaf, A, B, Y), [leaf]
    elif method == "der":
        keep = [np.flatnonzero(B[:, k] != 0.0) for k in range(Y.shape[1])]
        loss, leaves = tape_der_loss(kernel, leaf, A, B, Y, keep, LAM, EPS), [leaf]
    else:
        P = cfg.n_params
        noise_rng = np.random.default_rng(np.random.SeedSequence(SEED).spawn(2)[0])
        loss, leaves = tape_variational_loss(kernel, x[:P], x[P:], noise_rng.standard_normal(P),
                                             signs, A, B, Y, EPS, PRIOR_STD)
    return float(loss.data), grad_params(loss, leaves)


def _close(grad, ref, rel=1e-12):
    return np.max(np.abs(grad - ref)) <= rel * np.max(np.abs(ref))


def _finite_difference_error(loss_at, x, grad, n_coords=8, seed=0):
    """Largest deviation of the gradient from central differences on a few
    coordinates, relative to the gradient's largest entry."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.choice(x.size, size=min(n_coords, x.size), replace=False):
        h = 1e-6 * max(1.0, abs(x[i]))
        hi, lo = x.copy(), x.copy()
        hi[i] += h
        lo[i] -= h
        fd = (loss_at(hi) - loss_at(lo)) / (2.0 * h)
        worst = max(worst, abs(grad[i] - fd) / np.max(np.abs(grad)))
    return worst


def _stage1_setup(preset):
    problem = problems.make_preset(preset)
    cfg = nets.MLPConfig(problem.input_dim, problem.n_outputs, (6, 5), seed=1)
    points = stage1.sample_collocation(problem.train_domain, 5 if problem.input_dim == 2 else 17,
                                       "uniform_random", seed=1)
    flat = nets.init(cfg).flat() + np.random.default_rng(2).normal(0.0, 0.3, cfg.n_params)
    kernel = stage1.jet_kernel(problem, cfg, points, dtype=np.float64)
    enforcement = stage1.enforcement_jets(problem, points)

    def loss_and_grad(x):
        loss, cotangent = stage1.residual_loss(problem, kernel, x, enforcement)
        return loss, nets.grad_params(kernel, cotangent)

    return problem, kernel, flat, loss_and_grad


@pytest.mark.parametrize("preset", PRESETS)
def test_stage1_loss_matches_tape(preset):
    problem, kernel, flat, loss_and_grad = _stage1_setup(preset)
    loss, grad = loss_and_grad(flat)
    leaf = Var(flat)
    ref = tape_stage1_loss(problem, kernel, leaf)
    assert loss == float(ref.data)
    assert _close(grad, grad_params(ref, [leaf]))


@pytest.mark.parametrize("preset", PRESETS)
def test_stage1_gradient_matches_finite_differences(preset):
    _, _, flat, loss_and_grad = _stage1_setup(preset)
    grad = loss_and_grad(flat)[1]
    assert _finite_difference_error(lambda x: loss_and_grad(x)[0], flat, grad) < 1e-7


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("preset", PRESETS)
def test_stage2_loss_matches_tape(monkeypatch, preset, method):
    problem = problems.make_preset(preset)
    x = _point(_config(problem, method), method)
    loss, grad = _production(monkeypatch, method, problem, x)
    signs = _SignSpy.signs[0] if _SignSpy.signs else None
    assert (signs is None) == (method != "flipout")
    monkeypatch.undo()
    ref, ref_grad = _tape(method, problem, x, signs)
    assert loss == ref
    assert _close(grad, ref_grad)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("preset", PRESETS)
def test_stage2_gradient_matches_finite_differences(monkeypatch, preset, method):
    # a fresh trainer per evaluation draws the same noise and signs
    problem = problems.make_preset(preset)
    x = _point(_config(problem, method), method)
    grad = _production(monkeypatch, method, problem, x)[1]
    error = _finite_difference_error(lambda y: _production(monkeypatch, method, problem, y)[0],
                                     x, grad)
    assert error < 1e-7


def test_flipout_signs_are_fair_bits(monkeypatch):
    problem = problems.make_preset("burgers")
    cfg = _config(problem, "flipout")
    _production(monkeypatch, "flipout", problem, _point(cfg, "flipout"))
    R, S = _SignSpy.signs[0]
    n = _dataset(problem)[0].shape[0]
    assert R.shape == (n, sum(o for o, _ in cfg.layer_shapes()))
    assert S.shape == (n, sum(i for _, i in cfg.layer_shapes()))
    for signs in (R, S):
        assert set(np.unique(signs)) == {-1.0, 1.0}
        assert abs(signs.mean()) < 0.1
