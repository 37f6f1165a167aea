import dataclasses

import numpy as np
import pytest

from deuq import nets, problems, stage1
from deuq.autodiff import Jet2, Var, exp, grad_params, tanh
from deuq.errors import StructuralError
from oracles import tape_residual_loss

ACTIVATIONS = ("tanh", "sin", "softplus", "rbf")


def _setup(preset, activation="tanh", depth=2, seed=0):
    problem = problems.make_preset(preset)
    cfg = nets.MLPConfig(problem.input_dim, problem.n_outputs, (6, 5, 7)[:depth],
                         activation=activation, seed=seed)
    n = 5 if problem.input_dim == 2 else 17
    points = stage1.sample_collocation(problem.train_domain, n, "uniform_random", seed=seed)
    rng = np.random.default_rng(seed + 100)
    flat = nets.init(cfg).flat() + rng.normal(0.0, 0.3, cfg.n_params)
    return problem, cfg, points, flat


def _kernel_loss_and_grad(problem, kernel, flat):
    leaf = Var(flat)
    loss = stage1.residual_loss(problem, kernel, leaf)
    return float(loss.data), grad_params(loss, [leaf])


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("preset", problems.preset_names())
def test_kernel_matches_tape_oracle(preset, activation, depth):
    problem, cfg, points, flat = _setup(preset, activation, depth, seed=depth)
    kernel = stage1.jet_kernel(problem, cfg, points)
    loss, grad = _kernel_loss_and_grad(problem, kernel, flat)

    leaf = Var(flat)
    Ws, bs = nets.split_flat_var(cfg, leaf)
    ref = tape_residual_loss(problem, cfg, Ws, bs, points)
    ref_grad = grad_params(ref, [leaf])
    assert abs(loss - float(ref.data)) <= 1e-12 * abs(float(ref.data))
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("preset", problems.preset_names())
def test_kernel_calls_leave_no_state(preset):
    problem, cfg, points, flat = _setup(preset)
    other = flat + 0.5
    kernel = stage1.jet_kernel(problem, cfg, points)
    first = _kernel_loss_and_grad(problem, kernel, flat)
    again = _kernel_loss_and_grad(problem, kernel, flat)
    moved = _kernel_loss_and_grad(problem, kernel, other)
    back = _kernel_loss_and_grad(problem, kernel, flat)
    fresh = _kernel_loss_and_grad(problem, stage1.jet_kernel(problem, cfg, points), other)
    for a, b in ((first, again), (first, back), (moved, fresh)):
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
    assert moved[0] != first[0]


def test_backward_after_a_newer_forward_raises():
    problem, cfg, points, flat = _setup("duffing")
    kernel = stage1.jet_kernel(problem, cfg, points)
    leaf = Var(flat)
    stale = stage1.residual_loss(problem, kernel, leaf)
    stage1.residual_loss(problem, kernel, Var(flat))
    with pytest.raises(StructuralError):
        grad_params(stale, [leaf])


def test_burgers_carries_no_u_tt():
    problem, cfg, points, _ = _setup("burgers")
    assert problem.derivative_orders == (2, 1)
    kernel = stage1.jet_kernel(problem, cfg, points)
    out = kernel.forward(nets.init(cfg).flat())
    assert out.shape == (4, points.shape[0], 1)  # u, u_x, u_t, u_xx
    assert kernel.stream(0, 2) == 3
    with pytest.raises(StructuralError):
        kernel.stream(1, 2)


def test_reading_an_undeclared_second_derivative_raises():
    # burgers reads u_xx; declaring x first order must make that read fail
    problem, cfg, points, flat = _setup("burgers")
    undeclared = dataclasses.replace(problem, derivative_orders=(1, 1))
    with pytest.raises(StructuralError):
        stage1.residual_loss(undeclared, stage1.jet_kernel(undeclared, cfg, points), Var(flat))
    full = {0: [Jet2(0.3, 1.0, 2.0)], 1: [Jet2(0.3, 0.5, 0.0)]}
    with pytest.raises(StructuralError):
        problems.residual(undeclared, full, (0.1, 0.2))
    assert problems.residual(problem, full, (0.1, 0.2))[0] == pytest.approx(
        0.5 + 0.3 * 1.0 - 0.1 * 2.0)


def test_first_order_jets_stay_first_order():
    x = Jet2(0.4, 1.0, None)
    for y in (x + 1.0, 2.0 * x, x * x, x / 3.0, -x, x**3, exp(x), tanh(x)):
        assert y.d2 is None
    assert (x * x).d1 == pytest.approx(0.8)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_along_a_diagonal_direction(activation):
    # d/ds f(p + s v) for v = (1, 1) on a two-input net, by central differences
    cfg = nets.MLPConfig(2, 1, (5, 4), activation=activation, seed=3)
    params = nets.init(cfg)
    p, h = np.array([0.2, -0.1]), 1e-4

    def f(s):
        return nets.evaluate(params, (p + s)[None, :])[0, 0]

    out = nets.forward(params, [Jet2(0.2, 1.0, 0.0), Jet2(-0.1, 1.0, 0.0)])[0]
    assert out.value == pytest.approx(f(0.0), abs=1e-15)
    assert out.d1 == pytest.approx((f(h) - f(-h)) / (2 * h), rel=1e-6, abs=1e-9)
    assert out.d2 == pytest.approx((f(h) - 2 * f(0.0) + f(-h)) / h**2, rel=1e-4, abs=1e-6)
