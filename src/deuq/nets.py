"""Dense feed-forward networks evaluated on second-order jets.

The same parameter container serves three roles: the deterministic solver
network, the probabilistic regression head, and the four-channel evidential
head. Parameters flatten to a single vector in a canonical order
(layer-major, weights before biases, row-major within each weight matrix),
which every gradient-based routine in the package relies on.

Derivatives of the network with respect to its inputs come from
``JetKernel``, a fused Taylor-mode forward pass with a hand-derived
backward pass; value-only passes (``values_batch``) run on arrays or on
the reverse-mode tape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from .autodiff import Jet2, Var, exp, sin, softplus, tanh
from .errors import ConfigError, StructuralError


def rbf(x):
    """Gaussian ridge exp(-x^2): localized response along one direction."""
    return exp(-(x * x))


_ACTIVATIONS = {"tanh": tanh, "sin": sin, "softplus": softplus, "rbf": rbf}


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    output_dim: int
    hidden_sizes: tuple[int, ...]
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if self.input_dim not in (1, 2):
            raise ConfigError("input_dim must be 1 or 2")
        if self.output_dim < 1:
            raise ConfigError("output_dim must be positive")
        if not 1 <= len(self.hidden_sizes) <= 3:
            raise ConfigError("hidden_sizes must contain 1 to 3 layers")
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden layer widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_sizes, self.output_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def n_params(self) -> int:
        return sum(o * i + o for o, i in self.layer_shapes())


@dataclass
class MLPParams:
    config: MLPConfig
    weights: list = field(default_factory=list)  # per layer, shape (out, in)
    biases: list = field(default_factory=list)  # per layer, shape (out,)

    def flat(self) -> np.ndarray:
        pieces = []
        for W, b in zip(self.weights, self.biases):
            pieces.append(np.asarray(W).ravel())
            pieces.append(np.asarray(b).ravel())
        return np.concatenate(pieces)

    @classmethod
    def from_flat(cls, config: MLPConfig, flat: np.ndarray) -> "MLPParams":
        flat = np.asarray(flat, dtype=float)
        if flat.size != config.n_params:
            raise StructuralError(
                f"expected {config.n_params} parameters, got {flat.size}"
            )
        weights, biases, off = [], [], 0
        for out, inn in config.layer_shapes():
            weights.append(flat[off : off + out * inn].reshape(out, inn))
            off += out * inn
            biases.append(flat[off : off + out])
            off += out
        return cls(config, weights, biases)


def init(config: MLPConfig) -> MLPParams:
    """Zero-mean uniform weights with half-width sqrt(6/(fan_in+fan_out)),
    zero biases. Deterministic for a fixed config seed."""
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for out, inn in config.layer_shapes():
        half = np.sqrt(6.0 / (inn + out))
        weights.append(rng.uniform(-half, half, size=(out, inn)))
        biases.append(np.zeros(out))
    return MLPParams(config, weights, biases)


def rbf_feature_init(config: MLPConfig, domain) -> MLPParams:
    """Initialization for rbf networks: first-layer units become
    coordinate-aligned Gaussian ridges tiling the given domain.

    Units are assigned round-robin to input coordinates; each unit's center
    runs over an equispaced tiling of that coordinate's interval, with the
    length scale set to 1.5 tiling steps so neighboring ridges overlap.
    Centers beyond the data keep prior-scale posterior weight uncertainty,
    which is what lets predictive bands flare outside the training region.
    Remaining layers fall back to the standard fan-based init.
    """
    if config.activation != "rbf":
        raise ConfigError("rbf_feature_init requires the rbf activation")
    params = init(config)
    domain = [tuple(map(float, iv)) for iv in domain]
    if len(domain) != config.input_dim:
        raise ConfigError("domain dimension does not match input_dim")
    width = config.hidden_sizes[0]
    coords = [axis for axis in range(config.input_dim)]
    per_coord = {axis: [] for axis in coords}
    for j in range(width):
        per_coord[coords[j % len(coords)]].append(j)
    W1 = np.zeros((width, config.input_dim))
    b1 = np.zeros(width)
    for axis, units in per_coord.items():
        lo, hi = domain[axis]
        n = len(units)
        centers = np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])
        step = (hi - lo) / max(n - 1, 1)
        scale = 1.0 / (1.5 * step) if step > 0 else 1.0
        for j, c in zip(units, centers):
            W1[j, axis] = scale
            b1[j] = -scale * c
    params.weights[0] = W1
    params.biases[0] = b1
    return params


def split_flat_var(config: MLPConfig, flat: Var) -> tuple[list, list]:
    """Slice a flat parameter Var into per-layer (out, in) weight and (out,)
    bias views, preserving the canonical ordering."""
    weights, biases, off = [], [], 0
    for out, inn in config.layer_shapes():
        weights.append(flat[off : off + out * inn].reshape((out, inn)))
        off += out * inn
        biases.append(flat[off : off + out])
        off += out
    return weights, biases


def _tanh_derivatives(z, h, d1, d2, d3):
    np.tanh(z, out=h)
    np.multiply(h, h, out=d1)
    np.subtract(1.0, d1, out=d1)  # 1 - t^2
    np.multiply(h, d1, out=d2)
    d2 *= -2.0  # -2 t (1 - t^2)
    if d3 is not None:  # 2 s (2 - 3 s) with s = 1 - t^2
        np.multiply(d1, -3.0, out=d3)
        d3 += 2.0
        d3 *= d1
        d3 *= 2.0


def _sin_derivatives(z, h, d1, d2, d3):
    np.sin(z, out=h)
    np.cos(z, out=d1)
    np.negative(h, out=d2)
    if d3 is not None:
        np.negative(d1, out=d3)


def _softplus_derivatives(z, h, d1, d2, d3):
    np.logaddexp(0.0, z, out=h)
    expit(z, out=d1)
    np.subtract(1.0, d1, out=d2)
    d2 *= d1  # s (1 - s)
    if d3 is not None:  # s (1 - s) (1 - 2 s)
        np.multiply(d1, -2.0, out=d3)
        d3 += 1.0
        d3 *= d2


def _rbf_derivatives(z, h, d1, d2, d3):
    np.multiply(z, z, out=d2)  # z^2, until d2 is formed below
    np.negative(d2, out=h)
    np.exp(h, out=h)
    if d3 is not None:  # 4 z (3 - 2 z^2) e
        np.multiply(d2, -2.0, out=d3)
        d3 += 3.0
        d3 *= z
        d3 *= 4.0
        d3 *= h
    d2 *= 4.0
    d2 -= 2.0
    d2 *= h  # (4 z^2 - 2) e
    np.multiply(z, h, out=d1)
    d1 *= -2.0  # -2 z e


# activation value and its first three derivatives, written into buffers;
# the third derivative is skipped (d3 None) when no second derivative is carried
_JET_DERIVATIVES = {
    "tanh": _tanh_derivatives,
    "sin": _sin_derivatives,
    "softplus": _softplus_derivatives,
    "rbf": _rbf_derivatives,
}


def _dense(prev: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # one product over all streams; only the value stream gets the bias
    rows = prev.shape[0] * prev.shape[1]
    np.matmul(prev.reshape(rows, -1), W.T, out=out.reshape(rows, -1))
    out[0] += b


class JetKernel:
    """Fused Taylor-mode pass of one network over a fixed batch of points.

    For every point the kernel carries the network value once, one tangent
    per seeded input direction of order 1 or 2, and a second derivative
    only along the directions of order 2; a direction of order 0 is not
    carried. The streams are stacked as (S, n, width) arrays, so each dense
    layer is one matrix product over all of them, and the backward pass is
    hand-derived for the dense and activation layers. Stream 0 is the
    value, streams 1..m the tangents and the last q streams the second
    derivatives; internally the directions of order 2 come first.
    ``stream`` maps a (direction, order) pair to its index.

    Every buffer is allocated here, once, and overwritten in place by each
    ``forward``; ``backward`` reads what the latest ``forward`` stored.
    """

    def __init__(self, config: MLPConfig, points: np.ndarray,
                 seeds: np.ndarray, orders: Sequence[int]):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        if points.shape[1] != config.input_dim or seeds.shape[1] != config.input_dim:
            raise StructuralError("points and seeds must have input_dim columns")
        if seeds.shape[0] != len(orders) or any(o not in (0, 1, 2) for o in orders):
            raise StructuralError("need one derivative order, 0 to 2, per seed")
        self.config = config
        self.points = points
        self._perm = sorted((j for j, o in enumerate(orders) if o), key=lambda j: -orders[j])
        m = self._m = len(self._perm)
        q = self._q = sum(o == 2 for o in orders)
        S, n = 1 + m + q, points.shape[0]

        self._x = np.zeros((S, n, config.input_dim))
        self._x[0] = points
        self._x[1 : 1 + m] = seeds[self._perm][:, None, :]
        self._act = _JET_DERIVATIVES[config.activation]
        widths = config.hidden_sizes
        self._z = [np.empty((S, n, w)) for w in widths]  # pre-activation streams
        self._h = [np.empty((S, n, w)) for w in widths]  # post-activation streams
        self._g = [np.empty((S, n, w)) for w in widths]  # their cotangents
        # first, second and (with q > 0) third derivative of the activation
        self._d = [np.empty((3 if q else 2, n, w)) for w in widths]
        self._sq = [np.empty((q, n, w)) for w in widths]  # squared tangents
        self._tmp = [np.empty((S - 1, n, w)) for w in widths]
        self._acc = [np.empty((n, w)) for w in widths]
        self._out = np.empty((S, n, config.output_dim))
        self._params = np.empty(config.n_params)
        self._grad = np.empty(config.n_params)
        self._generation = 0

    def stream(self, direction: int, order: int) -> int:
        """Index of the derivative of the given order along a seeded
        direction; order 0 is the value stream."""
        if order == 0:
            return 0
        if direction in self._perm:
            j = self._perm.index(direction)
            if order == 1:
                return 1 + j
            if order == 2 and j < self._q:
                return 1 + self._m + j
        raise StructuralError(f"order {order} is not carried along direction {direction}")

    def forward(self, flat: np.ndarray) -> np.ndarray:
        """Output streams for a flat parameter vector, shape (S, n, output_dim)."""
        self._generation += 1
        m, q = self._m, self._q
        self._params[...] = flat
        params = MLPParams.from_flat(self.config, self._params)
        layers = list(zip(params.weights, params.biases))
        prev = self._x
        for i, (W, b) in enumerate(layers[:-1]):
            z, h, d = self._z[i], self._h[i], self._d[i]
            _dense(prev, W, b, z)
            self._act(z[0], h[0], d[0], d[1], d[2] if q else None)
            np.multiply(z[1 : 1 + m], d[0], out=h[1 : 1 + m])
            if q:
                sq, tmp = self._sq[i], self._tmp[i][:q]
                np.multiply(z[1 : 1 + q], z[1 : 1 + q], out=sq)
                np.multiply(sq, d[1], out=h[1 + m :])
                np.multiply(z[1 + m :], d[0], out=tmp)
                h[1 + m :] += tmp
            prev = h
        _dense(prev, *layers[-1], self._out)
        return self._out.copy()

    def backward(self, g: np.ndarray) -> np.ndarray:
        """Flat parameter gradient, given the cotangent of the output
        streams of the latest ``forward``."""
        m, q = self._m, self._q
        weights = MLPParams.from_flat(self.config, self._params).weights
        grads = MLPParams.from_flat(self.config, self._grad)  # views into _grad
        g = np.ascontiguousarray(g, dtype=float)
        for i in range(len(weights) - 1, -1, -1):
            prev = self._h[i - 1] if i else self._x
            rows = prev.shape[0] * prev.shape[1]
            np.matmul(g.reshape(rows, -1).T, prev.reshape(rows, -1), out=grads.weights[i])
            np.sum(g[0], axis=0, out=grads.biases[i])
            if i == 0:
                break
            k = i - 1
            G, z, d, tmp, acc = self._g[k], self._z[k], self._d[k], self._tmp[k], self._acc[k]
            np.matmul(g.reshape(rows, -1), weights[i], out=G.reshape(rows, -1))
            # G holds the cotangent of layer k's activations; turn it into
            # that of its pre-activations in place. The value stream reads
            # every other stream's cotangent, so it goes first.
            np.multiply(z[1:], G[1:], out=tmp)
            np.sum(tmp, axis=0, out=acc)
            acc *= d[1]
            G[0] *= d[0]
            G[0] += acc
            if q:
                np.multiply(self._sq[k], G[1 + m :], out=tmp[:q])
                np.sum(tmp[:q], axis=0, out=acc)
                acc *= d[2]
                G[0] += acc
            G[1 : 1 + m] *= d[0]
            if q:
                np.multiply(z[1 : 1 + q], G[1 + m :], out=tmp[:q])
                tmp[:q] *= d[1]
                tmp[:q] *= 2.0
                G[1 : 1 + q] += tmp[:q]
                G[1 + m :] *= d[0]
            g = G
        return self._grad.copy()

    def apply(self, flat: Var) -> Var:
        """The kernel as one node of the reverse-mode record."""
        out = self.forward(flat.data)
        generation = self._generation

        def vjp(g):
            if generation != self._generation:
                raise StructuralError("the jet kernel ran forward again before this backward pass")
            return (self.backward(g),)

        return Var(out, (flat,), vjp)


def forward(params: MLPParams, inputs: Sequence[Jet2]) -> list[Jet2]:
    """Evaluate on one point given as a seeded jet per input coordinate
    (d2 = 0; the d1 components form the direction)."""
    if len(inputs) != params.config.input_dim:
        raise StructuralError(
            f"expected {params.config.input_dim} input jets, got {len(inputs)}"
        )
    if any(float(j.d2) != 0.0 for j in inputs):
        raise StructuralError("input jets must be seeded (d2 = 0)")
    kernel = JetKernel(
        params.config,
        [[float(j.value) for j in inputs]],
        [[float(j.d1) for j in inputs]],
        (2,),
    )
    out = kernel.forward(params.flat())
    return [Jet2(float(out[0, 0, k]), float(out[1, 0, k]), float(out[2, 0, k]))
            for k in range(params.config.output_dim)]


def values_batch(config: MLPConfig, weights: Sequence, biases: Sequence, x) -> np.ndarray:
    """Plain value-only forward pass on points of shape (n, input_dim)."""
    act = _ACTIVATIONS[config.activation]
    h = np.asarray(x, dtype=float) if not isinstance(x, Var) else x
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = h @ W.T + b
        if i != last:
            h = act(h)
    return h


def evaluate(params: MLPParams, points: np.ndarray) -> np.ndarray:
    """Network values on (n, input_dim) points; returns (n, output_dim)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != params.config.input_dim:
        raise StructuralError("point dimension does not match input_dim")
    return values_batch(params.config, params.weights, params.biases, points)


def save(params: MLPParams, path) -> None:
    """Write {config, flat_params} JSON for the stage-1 -> stage-2 handoff."""
    payload = {
        "config": {
            "input_dim": params.config.input_dim,
            "output_dim": params.config.output_dim,
            "hidden_sizes": list(params.config.hidden_sizes),
            "activation": params.config.activation,
            "seed": params.config.seed,
        },
        "flat_params": params.flat().tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load(path) -> MLPParams:
    payload = json.loads(Path(path).read_text())
    config = MLPConfig(
        input_dim=payload["config"]["input_dim"],
        output_dim=payload["config"]["output_dim"],
        hidden_sizes=tuple(payload["config"]["hidden_sizes"]),
        activation=payload["config"]["activation"],
        seed=payload["config"]["seed"],
    )
    return MLPParams.from_flat(config, np.array(payload["flat_params"]))
