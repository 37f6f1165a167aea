"""Dense feed-forward networks evaluated on second-order jets.

The same parameter container serves three roles: the deterministic solver
network, the probabilistic regression head, and the four-channel evidential
head. Parameters flatten to a single vector in a canonical order
(layer-major, weights before biases, row-major within each weight matrix),
which every gradient-based routine in the package relies on.

Every fit trains on ``JetKernel``, a fused Taylor-mode pass with a
hand-derived backward; the stage-two heads seed no input direction, so
theirs carries values only, and it holds flipout's rank-one sign-flip
term too. Each trainer's loss hands ``backward`` the cotangent of the
output streams, and the backward pass is the whole gradient: nothing is
recorded on a tape. ``hidden`` and ``evaluate`` are the plain value pass
on fixed weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import expit
from .errors import ConfigError, StructuralError


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
        check_layers(self.hidden_sizes, self.activation)

    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_sizes, self.output_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def n_params(self) -> int:
        return sum(o * i + o for o, i in self.layer_shapes())


def check_layers(hidden_sizes, activation, prefix: str = "") -> None:
    """A network's hidden layers: 1 to 3 positive widths and an activation in
    ``ACTIVATIONS``. The ConfigError names the field, after `prefix`."""
    if not (1 <= len(hidden_sizes) <= 3 and all(w >= 1 for w in hidden_sizes)):
        raise ConfigError(f"{prefix}hidden_sizes must be 1 to 3 positive widths, "
                          f"got {list(hidden_sizes)}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"{prefix}activation must be one of {', '.join(ACTIVATIONS)}, "
                          f"got {activation!r}")


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
        """Per-layer views of a flat vector; one of float32 stays float32, so
        a float32 kernel's views track its buffer, and any other is read as
        float64."""
        flat = np.asarray(flat)
        if flat.dtype != np.float32:
            flat = flat.astype(float, copy=False)
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


def _tanh_derivatives(z, h, d1=None, d2=None, d3=None):
    np.tanh(z, out=h)
    if d1 is None:
        return
    np.multiply(h, h, out=d1)
    np.subtract(1.0, d1, out=d1)  # 1 - t^2
    if d2 is None:
        return
    np.multiply(h, d1, out=d2)
    d2 *= -2.0  # -2 t (1 - t^2)
    if d3 is not None:  # 2 s (2 - 3 s) with s = 1 - t^2
        np.multiply(d1, -3.0, out=d3)
        d3 += 2.0
        d3 *= d1
        d3 *= 2.0


def _sin_derivatives(z, h, d1=None, d2=None, d3=None):
    np.sin(z, out=h)
    if d1 is None:
        return
    np.cos(z, out=d1)
    if d2 is not None:
        np.negative(h, out=d2)
    if d3 is not None:
        np.negative(d1, out=d3)


def _softplus_derivatives(z, h, d1=None, d2=None, d3=None):
    np.logaddexp(0.0, z, out=h)
    if d1 is None:
        return
    expit(z, out=d1)
    if d2 is None:
        return
    np.subtract(1.0, d1, out=d2)
    d2 *= d1  # s (1 - s)
    if d3 is not None:  # s (1 - s) (1 - 2 s)
        np.multiply(d1, -2.0, out=d3)
        d3 += 1.0
        d3 *= d2


def _rbf_derivatives(z, h, d1=None, d2=None, d3=None):
    sq = h if d2 is None else d2
    np.multiply(z, z, out=sq)  # z^2, until d2 is formed below
    np.negative(sq, out=h)
    np.exp(h, out=h)
    if d3 is not None:  # 4 z (3 - 2 z^2) e
        np.multiply(d2, -2.0, out=d3)
        d3 += 3.0
        d3 *= z
        d3 *= 4.0
        d3 *= h
    if d2 is not None:
        d2 *= 4.0
        d2 -= 2.0
        d2 *= h  # (4 z^2 - 2) e
    if d1 is not None:
        np.multiply(z, h, out=d1)
        d1 *= -2.0  # -2 z e


# activation value and its first three derivatives, written into buffers
# (h may be z itself when no derivative is asked for); a derivative left
# None is skipped, and so is every higher one
ACTIVATIONS = {
    "tanh": _tanh_derivatives,
    "sin": _sin_derivatives,
    "softplus": _softplus_derivatives,
    "rbf": _rbf_derivatives,
}


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # a @ b into out; over an inner dimension of 1 (an input_dim-1 first
    # layer, a one-output last layer) a broadcast multiply gives the same
    # bits in about half the time of the BLAS call
    if a.shape[-1] == 1:
        np.multiply(a, b, out=out)
    else:
        np.matmul(a, b, out=out)


def _dense(prev: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # one product over all streams; only the value stream gets the bias
    rows = prev.shape[0] * prev.shape[1]
    _product(prev.reshape(rows, -1), W.T, out.reshape(rows, -1))
    out[0] += b


def _flip_dense(h, W, b, z, dW, db, r, s, hs, t) -> None:
    # z = ((h o s) dW^T) o r + h W^T + b + db o r, summed in this order;
    # hs keeps h o s for the backward pass, and r = s = None means all ones
    _product(h if s is None else np.multiply(h, s, out=hs), dW.T, t)
    if r is not None:
        t *= r
    _product(h, W.T, z)
    z += t
    z += b
    z += db if r is None else np.multiply(db, r, out=t)


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

    A value-only kernel also takes a flat weight perturbation Δ and, for
    flipout, signs (R, S), one row of ±1 per point over every layer's output
    units (r) and input units (s): each pre-activation gains
    ((h ∘ s) ΔWᵀ + Δb) ∘ r (Wen et al. 2018), with r = s = 1 without signs.
    Every buffer is allocated once, the perturbation's on first use, and
    overwritten in place by each ``forward``, which copies the parameters
    and Δ in; their per-layer views and the sign-column ranges are worked
    out once too. ``backward`` reads what the latest ``forward`` stored,
    and the signs as they were passed. A value-only kernel (m = 0) forms
    no second derivative of the activation and skips the mixing of tangent
    streams into the value stream, as it has none to mix.

    ``dtype`` is the precision of every workspace buffer, the parameters,
    Δ and the gradients among them; ``points`` stays float64. ``forward``
    rounds the flat vector (and Δ) into it and returns float64 streams, and
    ``backward`` rounds the cotangent into it once and returns float64
    gradients, so a float32 kernel is a drop-in for a float64 one whose
    results agree to float32 precision.
    """

    def __init__(self, config: MLPConfig, points: np.ndarray,
                 seeds: np.ndarray, orders: Sequence[int], dtype=np.float64):
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

        self._x = np.zeros((S, n, config.input_dim), dtype)
        self._x[0] = points
        self._x[1 : 1 + m] = seeds[self._perm][:, None, :]
        self._act = ACTIVATIONS[config.activation]
        widths = config.hidden_sizes
        self._z = [np.empty((S, n, w), dtype) for w in widths]  # pre-activation streams
        self._h = [np.empty((S, n, w), dtype) for w in widths]  # post-activation streams
        self._g = [np.empty((S, n, w), dtype) for w in widths]  # their cotangents
        # first, (with m > 0) second and (with q > 0) third derivative of the activation
        self._d = [np.empty((1 + (m > 0) + (q > 0), n, w), dtype) for w in widths]
        self._sq = [np.empty((q, n, w), dtype) for w in widths]  # squared tangents
        self._tmp = [np.empty((S - 1, n, w), dtype) for w in widths]
        self._acc = [np.empty((n, w), dtype) for w in widths]
        self._out = np.empty((S, n, config.output_dim), dtype)
        P = config.n_params
        self._params, self._grad = np.empty(P, dtype), np.empty(P, dtype)
        self._net = MLPParams.from_flat(config, self._params)  # per-layer views
        self._grads = MLPParams.from_flat(config, self._grad)
        self._delta = self._flip = None

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

    def _perturbation(self, delta, signs) -> list | None:
        """Per layer: Δ's weight and bias views, signs r and s, two scratch buffers."""
        if delta is None or self._x.shape[0] != 1:
            if delta is None and signs is None:
                return None
            raise StructuralError("only a value-only kernel takes a perturbation and signs")
        P = self.config.n_params
        if np.size(delta) != P:
            raise StructuralError(f"expected {P} parameters, got {np.size(delta)}")
        if self._delta is None:  # per layer: Δ's views, scratch, sign columns r and s
            n, shapes, dtype = self._x.shape[1], self.config.layer_shapes(), self._x.dtype
            self._delta, self._dgrad = np.empty(P, dtype), np.empty(P, dtype)
            self._dgrads = MLPParams.from_flat(self.config, self._dgrad)
            d = MLPParams.from_flat(self.config, self._delta)
            ends = np.cumsum(shapes, axis=0).tolist()
            self._layers = [(dW, db, np.empty((n, i), dtype), np.empty((n, o), dtype),
                             slice(r1 - o, r1), slice(s1 - i, s1))
                            for dW, db, (o, i), (r1, s1) in zip(d.weights, d.biases, shapes, ends)]
        self._delta[...] = delta
        R, S = (None, None) if signs is None else signs
        return [(dW, db, None if R is None else R[:, rc], None if S is None else S[:, sc], hs, t)
                for dW, db, hs, t, rc, sc in self._layers]

    def forward(self, flat: np.ndarray, delta: np.ndarray | None = None,
                signs: tuple | None = None) -> np.ndarray:
        """Output streams for a flat parameter vector, shape (S, n, output_dim)."""
        m, q = self._m, self._q
        self._params[...] = flat
        self._flip, self._signs = self._perturbation(delta, signs), signs
        outs = self._z + [self._out]
        prev = self._x
        for i, (W, b) in enumerate(zip(self._net.weights, self._net.biases)):
            if self._flip is None:
                _dense(prev, W, b, outs[i])
            else:
                _flip_dense(prev[0], W, b, outs[i][0], *self._flip[i])
            if i == len(self._z):
                break
            z, h, d = self._z[i], self._h[i], self._d[i]
            self._act(z[0], h[0], d[0], d[1] if m else None, d[2] if q else None)
            if m:
                np.multiply(z[1 : 1 + m], d[0], out=h[1 : 1 + m])
            if q:
                sq, tmp = self._sq[i], self._tmp[i][:q]
                np.multiply(z[1 : 1 + q], z[1 : 1 + q], out=sq)
                np.multiply(sq, d[1], out=h[1 + m :])
                np.multiply(z[1 + m :], d[0], out=tmp)
                h[1 + m :] += tmp
            prev = h
        return self._out.astype(float)

    def backward(self, g: np.ndarray):
        """Flat gradient to the parameters, given the cotangent of the output
        streams of the latest ``forward``; after a perturbed pass, the pair
        of it and the flat gradient to Δ."""
        m, q = self._m, self._q
        weights, grads = self._net.weights, self._grads
        g = np.ascontiguousarray(g, dtype=self._x.dtype)
        for i in range(len(weights) - 1, -1, -1):
            prev = self._h[i - 1] if i else self._x
            rows = prev.shape[0] * prev.shape[1]
            np.matmul(g.reshape(rows, -1).T, prev.reshape(rows, -1), out=grads.weights[i])
            np.sum(g[0], axis=0, out=grads.biases[i])
            if self._flip is not None:
                dW, _, r, s, hs, gr = self._flip[i]
                gr = g[0] if r is None else np.multiply(g[0], r, out=gr)
                if r is not None:  # without signs, Δ's gradient is μ's
                    np.matmul(gr.T, hs, out=self._dgrads.weights[i])
                    np.sum(gr, axis=0, out=self._dgrads.biases[i])
            if i == 0:
                break
            k = i - 1
            G, z, d, tmp, acc = self._g[k], self._z[k], self._d[k], self._tmp[k], self._acc[k]
            _product(g.reshape(rows, -1), weights[i], G.reshape(rows, -1))
            if self._flip is not None:
                _product(gr, dW, acc)
                if s is not None:
                    acc *= s
                G[0] += acc
            # G holds the cotangent of layer k's activations; turn it into
            # that of its pre-activations in place. The value stream reads
            # every other stream's cotangent, so it goes first.
            G[0] *= d[0]
            if m:
                np.multiply(z[1:], G[1:], out=tmp)
                np.sum(tmp, axis=0, out=acc)
                acc *= d[1]
                G[0] += acc
                G[1 : 1 + m] *= d[0]
            if q:
                np.multiply(self._sq[k], G[1 + m :], out=tmp[:q])
                np.sum(tmp[:q], axis=0, out=acc)
                acc *= d[2]
                G[0] += acc
            if q:
                np.multiply(z[1 : 1 + q], G[1 + m :], out=tmp[:q])
                tmp[:q] *= d[1]
                tmp[:q] *= 2.0
                G[1 : 1 + q] += tmp[:q]
                G[1 + m :] *= d[0]
            g = G
        grad = self._grad.astype(float)
        if self._flip is None:
            return grad
        return grad, (self._grad if self._signs is None else self._dgrad).astype(float)


# the backward pass under the name every trainer calls it by
grad_params = JetKernel.backward


def hidden(params: MLPParams, points: np.ndarray) -> np.ndarray:
    """Last hidden activations on (n, input_dim) points; returns (n, width)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != params.config.input_dim:
        raise StructuralError("point dimension does not match input_dim")
    act = ACTIVATIONS[params.config.activation]
    h = points
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ W.T + b
        act(h, h)
    return h


def evaluate(params: MLPParams, points: np.ndarray) -> np.ndarray:
    """Network values on (n, input_dim) points; returns (n, output_dim)."""
    return hidden(params, points) @ params.weights[-1].T + params.biases[-1]
