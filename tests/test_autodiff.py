import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln
from scipy.special import expit as scipy_expit

from deuq import autodiff
from deuq.autodiff import Dual, Jet2
from deuq.errors import ConfigError, StructuralError
from oracles import (
    Var,
    central_diff_1,
    central_diff_2,
    cos,
    exp,
    finite_diff_check,
    grad_params,
    lgamma_gap,
    log,
    seed_input,
    sigmoid,
    sin,
    softplus,
    tanh,
)

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
    one = tanh(exp(t) - t**2 * (t + 3.0))
    two = tanh(exp(t) - t**2 * (t + 3.0))
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


def test_grad_getitem_accumulates_repeated_indices():
    x = Var(np.arange(3.0))
    np.testing.assert_array_equal(grad_params(x[np.array([0, 0, 2])].sum(), [x]), [2.0, 0.0, 1.0])
    y = Var(np.arange(6.0).reshape(3, 2))
    loss = (y[[1, 1, 0], 1:] * np.array([[1.0], [2.0], [4.0]])).sum()
    np.testing.assert_array_equal(grad_params(loss, [y]), [0.0, 4.0, 0.0, 3.0, 0.0, 0.0])


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


_DUAL_CASES = [
    ("exp", exp, np.exp),
    ("sin", sin, np.sin),
    ("cos", cos, np.cos),
    ("log", log, np.log),
    ("softplus", softplus, lambda v: np.logaddexp(0.0, v)),
    ("sigmoid", sigmoid, lambda v: 1.0 / (1.0 + np.exp(-v))),
    ("lgamma_gap", lgamma_gap,
     lambda v: np.vectorize(lambda a: math.lgamma(a) - math.lgamma(a + 0.5))(v)),
]


@pytest.mark.parametrize("name,fn,plain", _DUAL_CASES)
def test_dual_functions_match_finite_differences(name, fn, plain):
    # value on the numpy path; tangent along two seeds with different scales
    v = np.random.default_rng(1).uniform(0.3, 2.5, size=9) * np.array([1, -1, 1] * 3)
    if name in ("log", "lgamma_gap"):
        v = np.abs(v)
    out = fn(Dual(v, np.array([[1.0], [-2.0]])))
    np.testing.assert_array_equal(out.value, fn(v))
    fd = (plain(v + 1e-6) - plain(v - 1e-6)) / 2e-6
    np.testing.assert_allclose(out.d, np.stack([fd, -2.0 * fd]), rtol=1e-7, atol=1e-9)


def test_dual_arithmetic_matches_its_values_and_derivatives():
    # f(a, b) = (a b - 3)(a + b^2) + 2 a - (-b)^3 on seeds a -> row 0, b -> row 1
    a_v, b_v = np.array([0.5, 1.5, -2.0]), np.array([1.2, -0.4, 0.7])
    a, b = Dual(a_v, np.array([[1.0], [0.0]])), Dual(b_v, np.array([[0.0], [1.0]]))

    def f(x, y):
        return (x * y - 3.0) * (x + y**2) + 2.0 * x - (-y) ** 3

    out = f(a, b)
    np.testing.assert_array_equal(out.value, f(a_v, b_v))
    h = 1e-6
    da = (f(a_v + h, b_v) - f(a_v - h, b_v)) / (2 * h)
    db = (f(a_v, b_v + h) - f(a_v, b_v - h)) / (2 * h)
    np.testing.assert_allclose(out.d, np.stack([da, db]), rtol=1e-7)
    # an array on the left defers to the dual
    assert isinstance(np.ones(3) * a, Dual)
    assert isinstance(np.ones(3) - a, Dual)


def test_dual_pow_requires_int():
    with pytest.raises(ConfigError):
        Dual(np.ones(2), np.ones((1, 1))) ** 0.5


def test_expit_matches_scipy():
    x = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                        np.random.default_rng(4).uniform(-40.0, 40.0, 20000)])
    ours, ref = autodiff.expit(x), scipy_expit(x)
    np.testing.assert_array_equal(ours == 0.0, ref == 0.0)
    nonzero = ref != 0.0
    assert np.max(np.abs(ours[nonzero] - ref[nonzero]) / ref[nonzero]) <= 1e-15
    out = np.empty_like(x)
    assert autodiff.expit(x, out=out) is out
    np.testing.assert_array_equal(out, ours)


def test_lgamma_gap_and_slope_match_scipy():
    alpha = np.concatenate([1.0 + np.logspace(-12, 0, 2000), np.linspace(1.0, 20.0, 20001)[1:],
                            np.logspace(0, 6, 20000)[1:],
                            np.random.default_rng(5).uniform(1.0, 12.0, 20000)])
    gap, slope = autodiff.lgamma_gap_slope(alpha)
    # scipy's differences cancel: judge them against the size of their terms
    ref_gap = gammaln(alpha) - gammaln(alpha + 0.5)
    assert np.max(np.abs(gap - ref_gap) / np.maximum(1.0, np.abs(gammaln(alpha)))) <= 1e-14
    ref_slope = digamma(alpha) - digamma(alpha + 0.5)
    assert np.max(np.abs(slope - ref_slope) / np.maximum(1.0, np.abs(digamma(alpha)))) <= 1e-14
    assert autodiff.lgamma_gap_slope(2.0)[0] == autodiff.lgamma_gap_slope(np.array([2.0]))[0][0]


def test_lgamma_gap_stays_finite_at_extreme_arguments():
    # scipy's difference cancels to 0 at the large arguments, where the
    # gap is -log(x)/2 to double precision
    x = np.array([1e-300, 1e-8, 1e160, 1e300])
    gap, slope = autodiff.lgamma_gap_slope(x)
    np.testing.assert_allclose(gap[:2], gammaln(x[:2]) - gammaln(x[:2] + 0.5), rtol=1e-14)
    np.testing.assert_allclose(slope[:2], digamma(x[:2]) - digamma(x[:2] + 0.5), rtol=1e-14)
    np.testing.assert_allclose(gap[2:], -0.5 * np.log(x[2:]), rtol=1e-14)
    np.testing.assert_allclose(slope[2:], -0.5 / x[2:], rtol=1e-14)
