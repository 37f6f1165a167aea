import dataclasses

import numpy as np
import pytest

from deuq import nets, problems, stage1
from deuq.autodiff import Jet2
from deuq.errors import StructuralError
from deuq.uq.variational import sign_dims
from oracles import (Var, decomposed_forward, exp, grad_params, jet_forward, kernel_node, softplus,
                     split_flat_var, tanh, tape_residual_loss, values_batch)

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
    enforcement = stage1.enforcement_jets(problem, kernel.points)
    loss, cotangent = stage1.residual_loss(problem, kernel, flat, enforcement)
    return loss, nets.grad_params(kernel, cotangent)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("preset", problems.preset_names())
def test_kernel_matches_tape_oracle(preset, activation, depth):
    problem, cfg, points, flat = _setup(preset, activation, depth, seed=depth)
    kernel = stage1.jet_kernel(problem, cfg, points, dtype=np.float64)
    loss, grad = _kernel_loss_and_grad(problem, kernel, flat)

    leaf = Var(flat)
    Ws, bs = split_flat_var(cfg, leaf)
    ref = tape_residual_loss(problem, cfg, Ws, bs, points)
    ref_grad = grad_params(ref, [leaf])
    assert abs(loss - float(ref.data)) <= 1e-12 * abs(float(ref.data))
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


# float32 rounding is 6e-8; over every preset x activation x depth 1-3 at
# these points and weights the float32 stage-1 kernel's loss and gradient
# differed from the float64 kernel's by at most 3.5e-7 and 4.8e-7 relative,
# so 1e-5 leaves 20x headroom
FLOAT32_REL = 1e-5


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("preset", problems.preset_names())
def test_float32_kernel_matches_float64_kernel(preset, activation):
    problem, cfg, points, flat = _setup(preset, activation, depth=2, seed=2)
    loss, grad = _kernel_loss_and_grad(problem, stage1.jet_kernel(problem, cfg, points), flat)
    ref, ref_grad = _kernel_loss_and_grad(
        problem, stage1.jet_kernel(problem, cfg, points, dtype=np.float64), flat)
    assert abs(loss - ref) <= FLOAT32_REL * abs(ref)
    assert np.max(np.abs(grad - ref_grad)) <= FLOAT32_REL * np.max(np.abs(ref_grad))
    assert loss != ref  # the default stage-1 kernel does round to float32


def test_float32_kernel_returns_float64():
    problem, cfg, points, flat = _setup("burgers")
    kernel = stage1.jet_kernel(problem, cfg, points)
    out = kernel.forward(flat)
    assert out.dtype == np.float64
    assert kernel.backward(np.ones_like(out)).dtype == np.float64
    values = nets.JetKernel(cfg, points, np.zeros((0, 2)), (), dtype=np.float32)
    assert values.forward(flat, 0.1 * flat).dtype == np.float64
    assert [g.dtype for g in values.backward(np.ones((1, len(points), 1)))] == [np.float64] * 2


@pytest.mark.parametrize("output_dim", [1, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_value_only_kernel_matches_tape_values(activation, depth, output_dim):
    # the kernel the nlm and der heads train on seeds no direction
    cfg = nets.MLPConfig(2, output_dim, (6, 5, 7)[:depth], activation=activation, seed=depth)
    rng = np.random.default_rng(10 * depth + output_dim)
    points = rng.uniform(-1.0, 1.0, size=(23, 2))
    target = rng.normal(size=(23, output_dim))
    flat = nets.init(cfg).flat() + rng.normal(0.0, 0.3, cfg.n_params)
    kernel = nets.JetKernel(cfg, points, np.zeros((0, 2)), ())

    leaf = Var(flat)
    loss = ((kernel_node(kernel, leaf)[0] - target) ** 2).mean()
    grad = grad_params(loss, [leaf])
    ref_leaf = Var(flat)
    Ws, bs = split_flat_var(cfg, ref_leaf)
    ref = ((values_batch(cfg, Ws, bs, points) - target) ** 2).mean()
    ref_grad = grad_params(ref, [ref_leaf])
    assert float(loss.data) == float(ref.data)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
    params = nets.MLPParams.from_flat(cfg, flat)
    np.testing.assert_array_equal(kernel.forward(flat)[0], nets.evaluate(params, points))


def _flip_loss_and_grads(cfg, mu, rho, eps_hat, target, forward):
    # the variational data term on (mu, rho) through one network pass
    mu_v, rho_v = Var(mu), Var(rho)
    out = forward(mu_v, softplus(rho_v) * eps_hat)
    loss = ((out - target) ** 2).mean()
    return float(loss.data), grad_params(loss, [mu_v, rho_v])


@pytest.mark.parametrize("signs", ["random", "unit", "none"])
@pytest.mark.parametrize("input_dim", [1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_flip_term_matches_tape_oracle(activation, depth, input_dim, signs):
    # the bbb/flipout layer of the value-only kernel against the tape
    cfg = nets.MLPConfig(input_dim, 1, (6, 5, 7)[:depth], activation=activation, seed=depth)
    rng = np.random.default_rng(10 * depth + input_dim)
    n, P = 19, cfg.n_params
    points = rng.uniform(-1.0, 1.0, size=(n, input_dim))
    target = rng.normal(size=(n, 1))
    mu = nets.init(cfg).flat() + rng.normal(0.0, 0.3, P)
    rho = rng.normal(-1.0, 0.5, P)
    eps_hat = rng.standard_normal(P)
    R, S = (np.ones((n, k)) for k in sign_dims(cfg))
    if signs == "random":
        R, S = (rng.integers(0, 2, size=a.shape) * 2.0 - 1.0 for a in (R, S))
    kernel = nets.JetKernel(cfg, points, np.zeros((0, input_dim)), ())

    def on_kernel(kernel_signs):
        return _flip_loss_and_grads(
            cfg, mu, rho, eps_hat, target,
            lambda mu_v, delta: kernel_node(kernel, mu_v, delta, kernel_signs)[0])

    def on_tape(mu_v, delta):
        return decomposed_forward(cfg, *split_flat_var(cfg, mu_v), *split_flat_var(cfg, delta),
                                  points, R, S)

    loss, grad = on_kernel(None if signs == "none" else (R, S))
    ref, ref_grad = _flip_loss_and_grads(cfg, mu, rho, eps_hat, target, on_tape)
    assert abs(loss - ref) <= 1e-12 * abs(ref)
    for part, ref_part in ((grad[:P], ref_grad[:P]), (grad[P:], ref_grad[P:])):
        assert np.max(np.abs(part - ref_part)) <= 1e-12 * np.max(np.abs(ref_part))
    if signs == "unit":  # multiplying by 1.0 is exact: the shared pass, bit for bit
        unsigned = on_kernel(None)
        assert loss == unsigned[0]
        np.testing.assert_array_equal(grad, unsigned[1])


def test_flip_term_needs_a_value_only_kernel():
    problem, cfg, points, flat = _setup("duffing", depth=1)
    with pytest.raises(StructuralError):
        stage1.jet_kernel(problem, cfg, points).forward(flat, np.zeros_like(flat))
    R, S = (np.ones((points.shape[0], k)) for k in sign_dims(cfg))
    with pytest.raises(StructuralError):
        nets.JetKernel(cfg, points, np.zeros((0, 1)), ()).forward(flat, None, (R, S))
    with pytest.raises(StructuralError):  # a single number would broadcast into Δ
        nets.JetKernel(cfg, points, np.zeros((0, 1)), ()).forward(flat, np.zeros(1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", problems.preset_names())
def test_kernel_calls_leave_no_state(preset, dtype):
    # a reused kernel reads each new flat vector through its per-layer views
    problem, cfg, points, flat = _setup(preset)
    other = flat + 0.5
    kernel = stage1.jet_kernel(problem, cfg, points, dtype)
    first = _kernel_loss_and_grad(problem, kernel, flat)
    again = _kernel_loss_and_grad(problem, kernel, flat)
    moved = _kernel_loss_and_grad(problem, kernel, other)
    back = _kernel_loss_and_grad(problem, kernel, flat)
    fresh = _kernel_loss_and_grad(problem, stage1.jet_kernel(problem, cfg, points, dtype), other)
    for a, b in ((first, again), (first, back), (moved, fresh)):
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
    assert moved[0] != first[0]


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
        stage1.residual_loss(undeclared, stage1.jet_kernel(undeclared, cfg, points), flat,
                             stage1.enforcement_jets(undeclared, points))
    full = {0: [Jet2(0.3, 1.0, 2.0)], 1: [Jet2(0.3, 0.5, 0.0)]}
    with pytest.raises(StructuralError):
        problems.residual(undeclared, full, (0.1, 0.2))
    assert problems.residual(problem, full, (0.1, 0.2))[0] == pytest.approx(
        0.5 + 0.3 * 1.0 - 0.1 * 2.0)


def test_first_order_jets_stay_first_order():
    x = Jet2(0.4, 1.0, None)
    for y in (x + 1.0, 2.0 * x, x * x, -x, x**3, exp(x), tanh(x)):
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

    out = jet_forward(params, [Jet2(0.2, 1.0, 0.0), Jet2(-0.1, 1.0, 0.0)])[0]
    assert out.value == pytest.approx(f(0.0), abs=1e-15)
    assert out.d1 == pytest.approx((f(h) - f(-h)) / (2 * h), rel=1e-6, abs=1e-9)
    assert out.d2 == pytest.approx((f(h) - 2 * f(0.0) + f(-h)) / h**2, rel=1e-4, abs=1e-6)
