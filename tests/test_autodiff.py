import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deuq.autodiff import (
    Jet2,
    Var,
    cos,
    exp,
    grad_params,
    log,
    sin,
    softplus,
    tanh,
)
from deuq.errors import ConfigError, DomainError, StructuralError
from oracles import central_diff_1, central_diff_2, finite_diff_check, seed_input

safe_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_seed_input_active_and_inactive():
    assert seed_input(3.0, True) == Jet2(3.0, 1.0, 0.0)
    assert seed_input(3.0, False) == Jet2(3.0, 0.0, 0.0)


def test_square_of_seeded_input():
    t = seed_input(3.0, True)
    assert (t * t) == Jet2(9.0, 6.0, 2.0)


def test_tanh_at_origin_jet():
    out = tanh(Jet2(0.0, 1.0, 0.0))
    assert out.value == 0.0 and out.d1 == 1.0 and out.d2 == 0.0


def test_exp_of_negative_square():
    # analytic: d1 = -2t e^{-t^2}, d2 = (4t^2 - 2) e^{-t^2} at t = 1
    t = seed_input(1.0, True)
    out = exp(-(t * t))
    assert out.value == pytest.approx(0.367879441, abs=1e-8)
    assert out.d1 == pytest.approx(-0.735758882, abs=1e-8)
    assert out.d2 == pytest.approx(0.735758882, abs=1e-8)


def test_jet_product_negation_and_integer_power():
    t = seed_input(3.0, True)
    assert t * t == Jet2(9.0, 6.0, 2.0)
    assert -t == Jet2(-3.0, -1.0, 0.0)
    assert t**2 == Jet2(9.0, 6.0, 2.0)


def test_jet_division_by_zero_value():
    with pytest.raises(DomainError):
        seed_input(1.0, True) / Jet2(0.0, 1.0, 0.0)


def test_constant_jets_have_zero_derivatives():
    c = seed_input(2.5, False)
    out = tanh(exp(c) * c - c**3)
    assert out.d1 == 0.0 and out.d2 == 0.0


_UNARY_CASES = [
    ("exp", lambda x: exp(x), lambda v: math.exp(v)),
    ("tanh", lambda x: tanh(x), lambda v: math.tanh(v)),
    ("sin", lambda x: sin(x), lambda v: math.sin(v)),
    ("cos", lambda x: cos(x), lambda v: math.cos(v)),
    ("neg", lambda x: -x, lambda v: -v),
    ("cube", lambda x: x**3, lambda v: v**3),
]


@pytest.mark.parametrize("name,jet_fn,plain_fn", _UNARY_CASES)
def test_jet_matches_finite_differences(name, jet_fn, plain_fn):
    rng = np.random.default_rng(0)
    for v in rng.uniform(-2.0, 2.0, size=100):
        out = jet_fn(seed_input(float(v), True))
        d1 = central_diff_1(plain_fn, float(v), 1e-6)
        d2 = central_diff_2(plain_fn, float(v), 1e-4)
        assert out.d1 == pytest.approx(d1, rel=1e-5, abs=1e-5)
        assert out.d2 == pytest.approx(d2, rel=1e-5, abs=2e-4)


@given(safe_floats, safe_floats)
@settings(max_examples=100)
def test_jet_chain_rule_through_composite(a, b):
    # f(t) = tanh(a t + b) * exp(-t^2) probed against central differences
    def f(t):
        return math.tanh(a * t + b) * math.exp(-t * t)

    t0 = 0.4
    t = seed_input(t0, True)
    out = tanh(a * t + b) * exp(-(t * t))
    assert out.value == pytest.approx(f(t0), rel=1e-12)
    assert out.d1 == pytest.approx(central_diff_1(f, t0, 1e-6), rel=1e-4, abs=1e-6)
    assert out.d2 == pytest.approx(central_diff_2(f, t0, 1e-4), rel=1e-4, abs=1e-4)


def test_jet_arithmetic_is_deterministic():
    t = seed_input(1.7, True)
    one = tanh(exp(t) - t**2 / (t + 3.0))
    two = tanh(exp(t) - t**2 / (t + 3.0))
    assert one == two


def test_grad_of_square():
    w = Var(3.0)
    assert grad_params(w * w, [w]).tolist() == [6.0]


def test_grad_single_neuron():
    w, b = Var(0.0), Var(0.0)
    loss = (w * 1.0 + b - 1.0) ** 2
    assert grad_params(loss, [w, b]).tolist() == [-2.0, -2.0]


def test_grad_unrecorded_parameter():
    w = Var(1.0)
    other = Var(2.0) * 3.0
    with pytest.raises(StructuralError):
        grad_params(other, [w])


def test_grad_requires_recorded_scalar():
    with pytest.raises(StructuralError):
        grad_params(3.0, [Var(1.0)])
    with pytest.raises(StructuralError):
        Var(np.array([1.0, 2.0])).backward()


def test_grad_reused_node():
    x = Var(2.0)
    y = x * x * x  # x reused across two product nodes
    assert grad_params(y, [x]).tolist() == [12.0]


def test_grad_broadcast_and_reductions():
    v = Var(np.array([1.0, 2.0, 3.0]))
    loss = ((v - 1.0) ** 2).mean()
    np.testing.assert_allclose(grad_params(loss, [v]), [0.0, 2.0 / 3.0, 4.0 / 3.0])


def test_grad_matmul_transpose_getitem():
    W = Var(np.array([[1.0, -2.0], [0.5, 3.0]]))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    loss = ((x @ W.T)[:, 0] ** 2).sum()

    def obj(flat):
        Wm = flat.reshape((2, 2)) if isinstance(flat, Var) else np.reshape(flat, (2, 2))
        return ((x @ Wm.T)[:, 0] ** 2).sum()

    assert finite_diff_check(obj, W.data.ravel(), 1e-6) < 1e-7


def test_finite_diff_check_linear_is_exact():
    err = finite_diff_check(
        lambda p: (p * np.array([3.0, -1.0, 0.25])).sum(),
        np.array([0.5, 2.0, -1.0]),
        1e-5,
    )
    assert err < 1e-10


def test_finite_diff_check_quadratic():
    err = finite_diff_check(lambda p: (p * p).sum(), np.array([0.5, 2.0]), 1e-5)
    assert err < 1e-6


def test_finite_diff_check_rejects_zero_step():
    with pytest.raises(ConfigError):
        finite_diff_check(lambda p: p.sum(), np.array([1.0]), 0.0)


def test_softplus_log_dispatch_on_var():
    x = Var(np.array([0.5, -0.5]))
    s = softplus(x).sum()
    g = grad_params(s, [x])
    np.testing.assert_allclose(g, 1.0 / (1.0 + np.exp(-x.data)), rtol=1e-12)
    y = Var(np.array([2.0]))
    np.testing.assert_allclose(grad_params(log(y).sum(), [y]), [0.5])


def test_var_pow_requires_int():
    with pytest.raises(ConfigError):
        Var(2.0) ** 0.5
