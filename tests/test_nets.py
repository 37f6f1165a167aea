import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deuq import nets
from deuq.autodiff import Jet2
from deuq.errors import ConfigError, StructuralError
from oracles import central_diff_1, central_diff_2, jet_forward, seed_input


def test_init_is_deterministic_per_seed():
    cfg = nets.MLPConfig(1, 1, (8, 4), seed=11)
    assert np.array_equal(nets.init(cfg).flat(), nets.init(cfg).flat())
    other = nets.MLPConfig(1, 1, (8, 4), seed=12)
    assert not np.array_equal(nets.init(cfg).flat(), nets.init(other).flat())


def test_init_biases_zero_and_bounded_weights():
    cfg = nets.MLPConfig(2, 3, (16,), seed=0)
    params = nets.init(cfg)
    for b in params.biases:
        assert np.all(b == 0.0)
    for W, (o, i) in zip(params.weights, cfg.layer_shapes()):
        assert np.max(np.abs(W)) <= np.sqrt(6.0 / (o + i))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(input_dim=3, output_dim=1, hidden_sizes=(4,)),
        dict(input_dim=1, output_dim=0, hidden_sizes=(4,)),
        dict(input_dim=1, output_dim=1, hidden_sizes=()),
        dict(input_dim=1, output_dim=1, hidden_sizes=(4, 4, 4, 4)),
        dict(input_dim=1, output_dim=1, hidden_sizes=(4,), activation="relu"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        nets.MLPConfig(**kwargs)


def test_zero_network_outputs_zero():
    cfg = nets.MLPConfig(1, 1, (5,))
    params = nets.MLPParams(
        cfg,
        [np.zeros(s) for s in ((5, 1), (1, 5))],
        [np.zeros(5), np.zeros(1)],
    )
    out = jet_forward(params, [seed_input(0.7, True)])[0]
    assert out.value == 0.0 and out.d1 == 0.0 and out.d2 == 0.0


def test_identity_chain_network():
    # 1-1-1 net with unit weights: tanh'(0) = 1, tanh''(0) = 0
    cfg = nets.MLPConfig(1, 1, (1,))
    params = nets.MLPParams(cfg, [np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
    out = jet_forward(params, [seed_input(0.0, True)])[0]
    assert out == Jet2(0.0, 1.0, 0.0)


def test_inactive_seed_propagates_constants():
    cfg = nets.MLPConfig(1, 1, (6, 6), seed=4)
    out = jet_forward(nets.init(cfg), [seed_input(0.9, False)])[0]
    assert out.d1 == 0.0 and out.d2 == 0.0


def test_forward_shape_mismatch():
    cfg = nets.MLPConfig(2, 1, (4,), seed=1)
    with pytest.raises(StructuralError):
        jet_forward(nets.init(cfg), [seed_input(1.0, True)])


def _random_net(seed, layers):
    cfg = nets.MLPConfig(1, 1, layers, seed=seed)
    params = nets.init(cfg)
    rng = np.random.default_rng(seed + 1000)
    for W in params.weights:
        W += rng.normal(0.0, 0.4, W.shape)
    for b in params.biases:
        b += rng.normal(0.0, 0.2, b.shape)
    return params


@pytest.mark.parametrize("seed,layers", [(0, (8,)), (1, (8, 6)), (2, (6, 5, 4))])
def test_forward_derivatives_match_finite_differences(seed, layers):
    params = _random_net(seed, layers)

    def f(t):
        return nets.evaluate(params, np.array([[t]]))[0, 0]

    for t0 in np.linspace(-0.8, 0.8, 7):
        out = jet_forward(params, [seed_input(float(t0), True)])[0]
        assert out.d1 == pytest.approx(central_diff_1(f, float(t0), 1e-4), rel=1e-4, abs=1e-6)
        assert out.d2 == pytest.approx(central_diff_2(f, float(t0), 1e-4), rel=1e-4, abs=1e-5)


def test_forward_is_pure():
    params = _random_net(5, (8, 8))
    jets = [seed_input(0.3, True)]
    a = jet_forward(params, jets)[0]
    b = jet_forward(params, jets)[0]
    assert a == b


@given(st.floats(min_value=-50.0, max_value=50.0), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_finite_params_give_finite_outputs(scale, seed):
    cfg = nets.MLPConfig(1, 1, (4,), seed=seed % 1000)
    params = nets.init(cfg)
    for W in params.weights:
        W *= scale
    out = jet_forward(params, [seed_input(1.3, True)])[0]
    assert np.isfinite(out.value)


def test_flat_roundtrip_and_ordering():
    cfg = nets.MLPConfig(1, 2, (3,), seed=9)
    params = nets.init(cfg)
    flat = params.flat()
    assert flat.size == cfg.n_params
    # canonical order: layer-1 weights row-major, layer-1 biases, ...
    np.testing.assert_array_equal(flat[:3], params.weights[0].ravel())
    np.testing.assert_array_equal(flat[3:6], params.biases[0])
    rebuilt = nets.MLPParams.from_flat(cfg, flat)
    for a, b in zip(rebuilt.weights, params.weights):
        np.testing.assert_array_equal(a, b)


def test_from_flat_rejects_wrong_length():
    cfg = nets.MLPConfig(1, 1, (3,))
    with pytest.raises(StructuralError):
        nets.MLPParams.from_flat(cfg, np.zeros(cfg.n_params + 1))

