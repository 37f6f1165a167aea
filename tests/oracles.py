"""Reference implementations the tests compare the production code against.

The reverse-mode tape lives here and nowhere else: `Var`, a node of a
computation record, and `grad_params`, the gradient of a recorded scalar.
Every loss in the pipeline once ran on it; production now runs each loss
in forward mode or in closed form and hands the cotangent of the network
output to `deuq.nets.JetKernel.backward`. The tape stays as the oracle:
- `kernel_node` is the jet kernel as one node of the tape, and
  `tape_stage1_loss`, `tape_nlm_loss`, `tape_der_loss` and
  `tape_variational_loss` are the four training losses as first written
  on it. Production must give the same loss value and the same gradient.
- `Var` takes numpy's ufuncs (`np.exp`, `np.tanh`, `np.logaddexp`, ...),
  so the functions of `deuq.autodiff` run on it unchanged, with the
  arithmetic of the production code. `nig_loss` is the evidential loss as
  first written, on tape nodes; `lgamma_gap` records deuq's own log-gamma
  gap series with its digamma difference as the derivative. Production
  takes that loss's partials in closed form instead
  (`deuq.uq.der.der_loss_partials`); `der_loss` is that function's value
  alone, for hand-value checks of the loss the trainer differentiates.
- `exp`, `sin`, `cos`, `tanh`, `log`, `softplus`, `sigmoid` and
  `lgamma_gap` take jets or duals too; `deuq.autodiff` keeps only the
  branches the pipeline runs.

The stage-1 network once ran as generic jet arithmetic over the tape:
every layer a Jet2 of Var nodes, every direction a full second-order
pass. That path is slow but obviously right, so it is kept here as the
oracle for the fused jet kernel in `deuq.nets.JetKernel`. Next to it:
- `split_flat_var` slices a flat parameter Var into per-layer tape views;
- `values_batch` is the value-only network on arrays or on the tape, the
  path the nlm and der heads trained on before their value-only kernel;
- `decomposed_forward` is the bbb/flipout network on the tape with
  per-point rank-one sign flips, the path both trained on before the
  kernel took the flip term;
- `jet_forward` is the kernel on one point given as seeded input jets;
- `enforce` applies A + B u with A and B built from the input jets.

Two small samplers sit here too, because only tests call them: the
stage-1 dataset on a chosen grid, and one shared-noise posterior draw.
So do two loops as first written, on fresh arrays: `mc_band_per_draw`,
the Monte Carlo band one draw and one `nets.evaluate` at a time, and
`adam_step`, the out-of-place Adam step. The chunked band and the
in-place step must match them bit for bit.

So do the reference integrators as first written, on numpy arrays. RK4 on
an array state does the arithmetic of `deuq.problems`' RK4 and must match
it bit for bit. Burgers has two independent checks of the exact Cole-Hopf
series in `deuq.problems`: the Cole-Hopf integral by Gauss-Hermite
quadrature, and Crank-Nicolson with `solve_banded` on a fresh banded
matrix per Newton step, whose discretization error shrinks as its grid
is refined.

The rest are checks the pipeline never runs:
- `seed_input`, `central_diff_1`, `central_diff_2` and `finite_diff_check`
  check jet derivatives and tape gradients against finite differences;
- `nlm_predict` is the per-point form of `deuq.uq.predictive.nlm_band`;
- `flipout_perturb` materializes the per-example weights that the
  kernel's flip term never builds;
- `kl_gaussian_diag` is the closed-form KL the variational trainer
  differentiates by hand;
- `identity_head_args` gives a stage-2 trainer the plain head (A = 0,
  B = 1) and the default start vector, for fits with no condition.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from deuq import autodiff, nets, problems, stage1
from deuq.autodiff import Dual, Jet2, expit
from deuq.errors import ConfigError, OracleError, StructuralError
from deuq.uq.der import EvidentialOutput, _scale_floor, der_head, der_loss_partials
from deuq.uq.nlm import NLMPosterior, feature_map
from deuq.uq.variational import VariationalParams, sign_dims

# ---------------------------------------------------------------------
# The reverse-mode tape
# ---------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# derivative of each recorded unary ufunc from its argument x and value y
_UNARY = {
    np.exp: lambda x, y: y,
    np.tanh: lambda x, y: 1.0 - y * y,
    np.sin: lambda x, y: np.cos(x),
    np.cos: lambda x, y: -np.sin(x),
    np.log: lambda x, y: 1.0 / x,
    np.absolute: lambda x, y: np.sign(x),
}
_BINARY = {
    np.add: ("__add__", "__radd__"),
    np.subtract: ("__sub__", "__rsub__"),
    np.multiply: ("__mul__", "__rmul__"),
    np.true_divide: ("__truediv__", "__rtruediv__"),
    np.matmul: ("__matmul__", "__rmatmul__"),
}


class Var:
    """One node of the reverse-mode computation record."""

    __slots__ = ("data", "grad", "_parents", "_vjp")
    __array_priority__ = 1000

    def __init__(self, data, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # an array operand hands its arithmetic to our operators, and the
        # elementary functions of deuq.autodiff record through here
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _BINARY:
            a, b = inputs
            forward, reflected = _BINARY[ufunc]
            return getattr(a, forward)(b) if isinstance(a, Var) else getattr(b, reflected)(a)
        if ufunc is np.logaddexp and np.array_equal(inputs[0], 0.0):  # softplus
            x = inputs[1]
            return _var_unary(x, np.logaddexp(0.0, x.data), expit(x.data))
        if ufunc in _UNARY and len(inputs) == 1:
            x = inputs[0]
            value = ufunc(x.data)
            return _var_unary(x, value, _UNARY[ufunc](x.data, value))
        return NotImplemented

    @property
    def shape(self):
        return self.data.shape

    @property
    def T(self) -> "Var":
        return transpose(self)

    def __repr__(self):
        return f"Var({self.data!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            return Var(
                self.data + other.data,
                (self, other),
                lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
            )
        c = np.asarray(other, dtype=float)
        return Var(self.data + c, (self,), lambda g: (_unbroadcast(g, self.shape),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return Var(
                self.data - other.data,
                (self, other),
                lambda g: (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)),
            )
        c = np.asarray(other, dtype=float)
        return Var(self.data - c, (self,), lambda g: (_unbroadcast(g, self.shape),))

    def __rsub__(self, other):
        c = np.asarray(other, dtype=float)
        return Var(c - self.data, (self,), lambda g: (_unbroadcast(-g, self.shape),))

    def __mul__(self, other):
        if isinstance(other, Var):
            return Var(
                self.data * other.data,
                (self, other),
                lambda g: (
                    _unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape),
                ),
            )
        c = np.asarray(other, dtype=float)
        return Var(self.data * c, (self,), lambda g: (_unbroadcast(g * c, self.shape),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            return Var(
                self.data / other.data,
                (self, other),
                lambda g: (
                    _unbroadcast(g / other.data, self.shape),
                    _unbroadcast(-g * self.data / other.data**2, other.shape),
                ),
            )
        c = np.asarray(other, dtype=float)
        return Var(self.data / c, (self,), lambda g: (_unbroadcast(g / c, self.shape),))

    def __rtruediv__(self, other):
        c = np.asarray(other, dtype=float)
        return Var(
            c / self.data,
            (self,),
            lambda g: (_unbroadcast(-g * c / self.data**2, self.shape),),
        )

    def __neg__(self):
        return Var(-self.data, (self,), lambda g: (_unbroadcast(-g, self.shape),))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ConfigError("Var.__pow__ supports integer exponents only")
        return Var(
            self.data**n,
            (self,),
            lambda g: (_unbroadcast(g * n * self.data ** (n - 1), self.shape),),
        )

    def __matmul__(self, other):
        if isinstance(other, Var):
            return Var(
                self.data @ other.data,
                (self, other),
                lambda g: (g @ other.data.T, self.data.T @ g),
            )
        c = np.asarray(other, dtype=float)
        return Var(self.data @ c, (self,), lambda g: (g @ c.T,))

    def __rmatmul__(self, other):
        c = np.asarray(other, dtype=float)
        return Var(c @ self.data, (self,), lambda g: (c.T @ g,))

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        fancy = any(isinstance(k, (np.ndarray, list)) for k in keys)

        def vjp(g):
            out = np.zeros_like(self.data)
            if fancy:  # an index array may repeat an entry; += would add it once
                np.add.at(out, key, g)
            else:
                out[key] += g
            return (out,)

        return Var(self.data[key], (self,), vjp)

    # -- reductions / shape --------------------------------------------

    def sum(self) -> "Var":
        return Var(
            self.data.sum(),
            (self,),
            lambda g: (np.full(self.shape, g),),
        )

    def mean(self) -> "Var":
        n = self.data.size
        return Var(
            self.data.mean(),
            (self,),
            lambda g: (np.full(self.shape, g / n),),
        )

    def reshape(self, shape) -> "Var":
        old = self.shape
        return Var(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    # -- reverse pass ---------------------------------------------------

    def backward(self) -> set:
        """Accumulate gradients into every reachable node; returns the set
        of visited nodes. The objective must be scalar."""
        if self.data.shape != ():
            raise StructuralError("backward() requires a scalar objective")
        order: list[Var] = []
        visited: set[Var] = set()  # by identity: Var defines no __eq__
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in visited:
                    stack.append((p, False))
        self.grad = np.ones(())
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        return visited


def _var_unary(x: Var, value: np.ndarray, dfdx: np.ndarray) -> Var:
    return Var(value, (x,), lambda g: (_unbroadcast(g * dfdx, x.shape),))


def transpose(x: Var) -> Var:
    return Var(x.data.T, (x,), lambda g: (g.T,))


def grad_params(objective: Var, params: Sequence[Var]) -> np.ndarray:
    """Flat reverse-mode gradient of a recorded scalar objective.

    The returned vector concatenates d(objective)/d(p) for each entry of
    `params` in order (row-major within each array), matching the canonical
    parameter ordering used by the network module.
    """
    if not isinstance(objective, Var):
        raise StructuralError("objective is not part of a computation record")
    visited = objective.backward()
    pieces = []
    for p in params:
        if p not in visited:
            raise StructuralError("parameter was never recorded in the objective")
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        pieces.append(np.asarray(g, dtype=float).ravel())
    return np.concatenate(pieces) if pieces else np.zeros(0)


def kernel_node(kernel: nets.JetKernel, flat: Var, delta: Var | None = None,
                signs: tuple | None = None) -> Var:
    """The jet kernel as one node of the tape, on the parameter leaf and the
    perturbation's node, if given; its backward pass is the kernel's."""
    out = kernel.forward(flat.data, None if delta is None else delta.data, signs)
    if delta is None:
        return Var(out, (flat,), lambda g: (kernel.backward(g),))
    return Var(out, (flat, delta), kernel.backward)


# ---------------------------------------------------------------------
# Elementary functions on every number type
# ---------------------------------------------------------------------
# `deuq.autodiff` gives each function a branch only for the number types
# the pipeline passes it. The jet and dual branches below complete the set
# for the network-on-jets oracle, the tape's NIG loss and the derivative
# tests; every other argument goes on to `deuq.autodiff` or to numpy.


def exp(x):
    if isinstance(x, Dual):
        e = np.exp(x.value)
        return Dual(e, x.d * e)
    return autodiff.exp(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.value), x.d * np.cos(x.value))
    return autodiff.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.value), x.d * -np.sin(x.value))
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return Jet2(c, -s * x.d1, -c * x.d1 * x.d1 - s * x.d2 if x.d2 is not None else None)
    return np.cos(x)


def tanh(x):
    if isinstance(x, Jet2):
        t = np.tanh(x.value)
        sech2 = 1.0 - t * t
        d2 = sech2 * x.d2 - 2.0 * t * sech2 * x.d1 * x.d1 if x.d2 is not None else None
        return Jet2(t, sech2 * x.d1, d2)
    return np.tanh(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.value), x.d * (1.0 / x.value))
    if isinstance(x, Jet2):
        d1 = x.d1 / x.value
        return Jet2(np.log(x.value), d1, x.d2 / x.value - d1 * d1 if x.d2 is not None else None)
    return np.log(x)


def softplus(x):
    if isinstance(x, Dual):
        value = np.logaddexp(0.0, x.value)
        return Dual(value, x.d * np.exp(x.value - value))
    if isinstance(x, Jet2):
        sig = sigmoid(x.value)
        return Jet2(
            np.logaddexp(0.0, x.value),
            sig * x.d1,
            sig * (1.0 - sig) * x.d1 * x.d1 + sig * x.d2 if x.d2 is not None else None,
        )
    return autodiff.softplus(x)


def sigmoid(x):
    if isinstance(x, Dual):
        s = expit(x.value)
        return Dual(s, x.d * (s * (1.0 - s)))
    if isinstance(x, Jet2):
        s = sigmoid(x.value)
        ds = s * (1.0 - s)
        d2s = ds * (1.0 - 2.0 * s)
        return Jet2(s, ds * x.d1, d2s * x.d1 * x.d1 + ds * x.d2 if x.d2 is not None else None)
    if isinstance(x, Var):
        s = expit(x.data)
        return _var_unary(x, s, s * (1.0 - s))
    return expit(x)


def lgamma_gap(x):
    """log Gamma(x) - log Gamma(x + 1/2) for x > 0, by deuq's series, with
    digamma(x) - digamma(x + 1/2) as the derivative on tape nodes and duals."""
    if isinstance(x, Var):
        return _var_unary(x, *autodiff.lgamma_gap_slope(x.data))
    if isinstance(x, Dual):
        gap, slope = autodiff.lgamma_gap_slope(x.value)
        return Dual(gap, x.d * slope)
    return autodiff.lgamma_gap_slope(x)[0]


# ---------------------------------------------------------------------
# Networks and losses on the tape
# ---------------------------------------------------------------------


def rbf(x):
    """Gaussian ridge exp(-x^2) on numbers, arrays, tape nodes and jets."""
    return exp(-(x * x))


# the activations by dispatch on the argument type; `deuq.nets` applies
# them in place on arrays, with their derivatives into buffers
TAPE_ACTIVATIONS = {"tanh": tanh, "sin": sin, "softplus": softplus, "rbf": rbf}


def _affine_jet(h: Jet2, W, b) -> Jet2:
    # the layer is linear, so each jet component maps through it independently
    Wt = W.T
    return Jet2(h.value @ Wt + b, h.d1 @ Wt, h.d2 @ Wt)


def forward_batch(config: nets.MLPConfig, weights: Sequence, biases: Sequence, x: Jet2) -> Jet2:
    """Evaluate the network on a batch jet with components of shape (n, input_dim).

    Weights may be numpy arrays or Var nodes; returns a jet with components
    of shape (n, output_dim).
    """
    act = TAPE_ACTIVATIONS[config.activation]
    h = x
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = _affine_jet(h, W, b)
        if i != last:
            h = act(h)
    return h


def split_flat_var(config: nets.MLPConfig, flat: Var) -> tuple[list, list]:
    """Slice a flat parameter Var into per-layer (out, in) weight and (out,)
    bias views, preserving the canonical ordering."""
    weights, biases, off = [], [], 0
    for out, inn in config.layer_shapes():
        weights.append(flat[off : off + out * inn].reshape((out, inn)))
        off += out * inn
        biases.append(flat[off : off + out])
        off += out
    return weights, biases


def decomposed_forward(config: nets.MLPConfig, mu_Ws, mu_bs, d_Ws, d_bs, X, R, S):
    """Batch forward with per-example rank-one sign flips,
    h @ mu_W^T + ((h o S) @ d_W^T) o R + mu_b + d_b o R per layer, where R
    and S hold each layer's output-side and input-side signs side by side."""
    act = TAPE_ACTIVATIONS[config.activation]
    h = X
    last = len(mu_Ws) - 1
    r_off = s_off = 0
    for i, ((o, inn), mW, mb, dW, db) in enumerate(
        zip(config.layer_shapes(), mu_Ws, mu_bs, d_Ws, d_bs)
    ):
        Rl = R[:, r_off : r_off + o]
        Sl = S[:, s_off : s_off + inn]
        h = (h * Sl) @ dW.T * Rl + h @ mW.T + mb + db * Rl
        if i != last:
            h = act(h)
        r_off += o
        s_off += inn
    return h


def values_batch(config: nets.MLPConfig, weights: Sequence, biases: Sequence, x) -> np.ndarray:
    """Plain value-only forward pass on points of shape (n, input_dim)."""
    act = TAPE_ACTIVATIONS[config.activation]
    h = np.asarray(x, dtype=float) if not isinstance(x, Var) else x
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = h @ W.T + b
        if i != last:
            h = act(h)
    return h


def jet_forward(params: nets.MLPParams, inputs: Sequence[Jet2]) -> list[Jet2]:
    """Evaluate on one point given as a seeded jet per input coordinate
    (d2 = 0; the d1 components form the direction)."""
    if len(inputs) != params.config.input_dim:
        raise StructuralError(
            f"expected {params.config.input_dim} input jets, got {len(inputs)}"
        )
    if any(float(j.d2) != 0.0 for j in inputs):
        raise StructuralError("input jets must be seeded (d2 = 0)")
    kernel = nets.JetKernel(
        params.config,
        [[float(j.value) for j in inputs]],
        [[float(j.d1) for j in inputs]],
        (2,),
    )
    out = kernel.forward(params.flat())
    return [Jet2(float(out[0, 0, k]), float(out[1, 0, k]), float(out[2, 0, k]))
            for k in range(params.config.output_dim)]


def tape_residual_loss(problem: problems.ProblemSpec, config: nets.MLPConfig,
                       weights, biases, points: np.ndarray):
    """The stage-1 loss with the network as jets over the tape, a full
    second-order pass per direction the residual reads."""
    point_cols = tuple(points[:, i] for i in range(points.shape[1]))
    u_by_dir = {}
    for direction, order in enumerate(problem.derivative_orders):
        if order == 0:
            continue
        in_jets = []
        for axis in range(points.shape[1]):
            col = points[:, axis]
            one = np.ones_like(col) if axis == direction else np.zeros_like(col)
            in_jets.append(Jet2(col, one, np.zeros_like(col)))
        batch = Jet2(*(np.stack([getattr(j, c) for j in in_jets], axis=1)
                       for c in ("value", "d1", "d2")))
        out = forward_batch(config, weights, biases, batch)
        raw = [Jet2(out.value[:, k], out.d1[:, k], out.d2[:, k])
               for k in range(problem.n_outputs)]
        u_by_dir[direction] = enforce(raw, in_jets, problem.transform)
    return _summed_mean_squares(problems.residual(problem, u_by_dir, point_cols))


def _summed_mean_squares(residuals) -> Var:
    loss = None
    for r in residuals:
        term = (r * r).mean()
        loss = term if loss is None else loss + term
    return loss


def enforce(u_raw: Sequence[Jet2], input_jets: Sequence[Jet2],
            transform: problems.Transform) -> list[Jet2]:
    """Apply u ~> A + B * u with jets propagated through A and B analytically."""
    a = transform.A(input_jets)
    b = transform.B(input_jets)
    return [a_k + b_k * u_k for a_k, b_k, u_k in zip(a, b, u_raw)]


def tape_stage1_loss(problem: problems.ProblemSpec, kernel: nets.JetKernel, flat: Var) -> Var:
    """The stage-1 loss as first written: the kernel one node of the tape,
    then enforcement (A and B rebuilt on every call), the residual and the
    mean on jets over it, on (n,) columns of the kernel's output."""
    streams = kernel_node(kernel, flat)
    points = kernel.points
    values = [streams[0, :, k] for k in range(problem.n_outputs)]
    u_by_dir = {}
    for d, order in enumerate(problem.derivative_orders):
        if order == 0:
            continue
        second = order == 2
        raw = [Jet2(values[k], streams[kernel.stream(d, 1), :, k],
                    streams[kernel.stream(d, 2), :, k] if second else None)
               for k in range(problem.n_outputs)]
        in_jets = [Jet2(points[:, i], 1.0 if i == d else 0.0, 0.0 if second else None)
                   for i in range(problem.input_dim)]
        u_by_dir[d] = enforce(raw, in_jets, problem.transform)
    point_cols = tuple(points[:, i] for i in range(problem.input_dim))
    return _summed_mean_squares(problems.residual(problem, u_by_dir, point_cols))


def tape_nlm_loss(kernel: nets.JetKernel, flat: Var, A, B, Y) -> Var:
    """The feature network's mean squared error through the enforced head."""
    return ((A + B * kernel_node(kernel, flat)[0] - Y) ** 2).mean()


def der_loss(out: EvidentialOutput, target, lam: float = 0.0):
    """The evidential loss of `deuq.uq.der.der_loss_partials`, without its partials."""
    return der_loss_partials(out, target, lam)[0]


def nig_loss(out: EvidentialOutput, target, lam: float):
    """The negative log NIG evidence plus the evidence regularizer, in the
    operation order of `deuq.uq.der.der_loss_partials`, on tape nodes or arrays."""
    err = target - out.gamma
    two_beta_l = 2.0 * out.beta * (1.0 + out.nu)
    nll = (
        0.5 * np.log(math.pi / out.nu)
        - out.alpha * np.log(two_beta_l)
        + (out.alpha + 0.5) * np.log(out.nu * err * err + two_beta_l)
        + lgamma_gap(out.alpha)
    )
    if lam == 0.0:
        return nll
    return nll + lam * np.abs(err) * (2.0 * out.nu + out.alpha)


def tape_der_loss(kernel: nets.JetKernel, flat: Var, A, B, Y, keep: Sequence[np.ndarray],
                  lam: float, eps: float) -> Var:
    """The evidential objective: per output, the mean NIG loss of the
    floored and enforced head over the points ``keep`` holds for it."""
    raw = kernel_node(kernel, flat)[0]
    loss = None
    for k, idx in enumerate(keep):
        head = _scale_floor(der_head(raw[idx, 4 * k : 4 * k + 4]), eps)
        head = EvidentialOutput(
            gamma=A[idx, k] + B[idx, k] * head.gamma,
            nu=head.nu, alpha=head.alpha,
            beta=B[idx, k] ** 2 * head.beta,
        )
        term = nig_loss(head, Y[idx, k], lam).mean()
        loss = term if loss is None else loss + term
    return loss


def tape_variational_loss(kernel: nets.JetKernel, mu: np.ndarray, rho: np.ndarray,
                          eps_hat: np.ndarray, signs, A, B, Y, eps: float,
                          prior_std: float) -> tuple[Var, list]:
    """KL(q || prior) plus the Gaussian NLL of one draw Δ = softplus(rho) o
    eps_hat, with the signs given; returns the loss and its (mu, rho) leaves."""
    mu_v, rho_v = Var(mu), Var(rho)
    sigma_v = softplus(rho_v)
    out = kernel_node(kernel, mu_v, sigma_v * eps_hat, signs)[0]
    const_nll = 0.5 * Y.shape[0] * Y.shape[1] * np.log(2.0 * np.pi * eps**2)
    nll = ((A + B * out - Y) ** 2).sum() / (2.0 * eps**2) + const_nll
    kl = (log(prior_std / sigma_v) + (sigma_v**2 + mu_v**2) / (2.0 * prior_std**2) - 0.5).sum()
    return kl + nll, [mu_v, rho_v]


def emit_dataset(result: stage1.Stage1Result, grid_spec: int) -> list:
    """Re-evaluate the enforced solution on a grid of the requested density;
    returns [(point tuple, value vector), ...] in grid order."""
    grid = problems.grid_points(result.problem.train_domain, grid_spec)
    values = stage1.evaluate_enforced(result.problem, result.params, grid)
    return [(tuple(p), v.copy()) for p, v in zip(grid, values)]


def bbb_sample_weights(q: VariationalParams, noise: np.ndarray) -> nets.MLPParams:
    """One posterior draw w = mu + sigma o noise, shaped into layers."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape != q.mu.shape:
        raise StructuralError("noise length must equal the parameter count")
    if q.config is None:
        raise StructuralError("sampling into layers requires a network config")
    return nets.MLPParams.from_flat(q.config, q.mu + q.sigma * noise)


def mc_band_per_draw(q: VariationalParams, net_config: nets.MLPConfig, grid: np.ndarray,
                     n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of the Monte Carlo band one draw at a time: a fresh
    noise vector, a full `nets.evaluate` and a streaming update per draw.
    `deuq.uq.predictive.posterior_predictive_mc` does the same in chunks of draws."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    rng = np.random.default_rng(seed)
    sigma = q.sigma
    mean = np.zeros((grid.shape[0], net_config.output_dim))
    m2 = np.zeros_like(mean)
    for i in range(1, n_samples + 1):
        w = q.mu + sigma * rng.standard_normal(q.mu.size)
        params = nets.MLPParams.from_flat(net_config, w)
        values = nets.evaluate(params, grid)
        delta = values - mean
        mean += delta / i
        m2 += delta * (values - mean)
    return mean, np.sqrt(m2 / (n_samples - 1))


def adam_step(opt, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One Adam step on fresh arrays, rebinding `opt.m` and `opt.v`; the
    step `deuq.optim.Adam.step` takes in place."""
    opt.t += 1
    opt.m = opt.beta1 * opt.m + (1.0 - opt.beta1) * grad
    opt.v = opt.beta2 * opt.v + (1.0 - opt.beta2) * grad * grad
    m_hat = opt.m / (1.0 - opt.beta1**opt.t)
    v_hat = opt.v / (1.0 - opt.beta2**opt.t)
    return params - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps)


def rk4_path(f, t0: float, y0: np.ndarray, ts: np.ndarray, max_step: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta on a numpy array state, from t0
    through every requested time in steps no longer than max_step."""
    ts = np.asarray(ts, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((ts.size, y.size))
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, target in enumerate(ts):
            gap = target - t
            n = max(1, int(math.ceil(gap / max_step))) if gap > 0 else 0
            h = gap / n if n else 0.0
            for _ in range(n):
                k1 = f(t, y)
                k2 = f(t + h / 2.0, y + h / 2.0 * k1)
                k3 = f(t + h / 2.0, y + h / 2.0 * k2)
                k4 = f(t + h, y + h * k3)
                y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
            if not np.all(np.isfinite(y)):
                raise OracleError(f"RK4 state became non-finite near t={t:.6g}")
            t = target
            out[i] = y
    return out


def ode_reference(name: str, overrides: dict, grid: np.ndarray, step: float) -> np.ndarray:
    """`problems.reference_solution` for the duffing or lotka_volterra preset
    made with `overrides`, with array-valued right-hand sides on the array
    RK4 above at the given step. The coefficients are the preset function's
    own signature defaults, with `overrides` bound over them."""
    bound = inspect.signature(getattr(problems, name)).bind(**overrides)
    bound.apply_defaults()
    c = bound.arguments
    if name == "duffing":
        def f(t, y):
            return np.array([y[1], -(c["omega"] ** 2) * y[0] - c["eps_nl"] * y[0] ** 3])
        y0, n_outputs = np.array([c["u0"], c["du0"]]), 1
    else:
        a, b, d, g = c["lv_alpha"], c["lv_beta"], c["lv_delta"], c["lv_gamma"]

        def f(t, y):
            u, v = y
            dv = d * u * v - g * v if c["lv_standard_form"] else -d * u + g * u * v
            return np.array([a * u - b * u * v, dv])
        y0, n_outputs = np.array(c["u0"], dtype=float), 2
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    order = np.argsort(grid[:, 0])
    path = rk4_path(f, c["train_domain"][0], y0, grid[order, 0], step)
    out = np.empty((grid.shape[0], n_outputs))
    out[order] = path[:, :n_outputs]
    return out


def crank_nicolson_burgers(visc: float, xl: float, xr: float, t_end: float,
                           nx: int = 513, dt: float = 5e-4):
    """Implicit Crank-Nicolson with Newton iterations, one `solve_banded`
    call on a freshly built banded Jacobian per iteration. Returns (x, t, u)
    with u of shape (nt, nx)."""
    x = np.linspace(xl, xr, nx)
    dx = x[1] - x[0]
    nt = int(round(t_end / dt)) + 1
    t = np.linspace(0.0, t_end, nt)
    u = np.empty((nt, nx))
    u[0] = -np.sin(np.pi * x)

    def rhs(v):
        # N(v) = v v_x - visc v_xx on interior points
        vx = (v[2:] - v[:-2]) / (2.0 * dx)
        vxx = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
        return v[1:-1] * vx - visc * vxx

    for n in range(1, nt):
        prev = u[n - 1]
        explicit = prev[1:-1] + 0.5 * dt * (-rhs(prev))
        v = prev.copy()
        for _ in range(20):
            F = v[1:-1] + 0.5 * dt * rhs(v) - explicit
            main = 1.0 + 0.5 * dt * ((v[2:] - v[:-2]) / (2.0 * dx) + 2.0 * visc / dx**2)
            lower = 0.5 * dt * (-v[1:-1] / (2.0 * dx) - visc / dx**2)
            upper = 0.5 * dt * (v[1:-1] / (2.0 * dx) - visc / dx**2)
            ab = np.zeros((3, nx - 2))
            ab[0, 1:] = upper[:-1]
            ab[1] = main
            ab[2, :-1] = lower[1:]
            delta = solve_banded((1, 1), ab, F)
            v[1:-1] -= delta
            if np.max(np.abs(delta)) < 1e-12:
                break
        if not np.all(np.isfinite(v)):
            raise OracleError(f"Crank-Nicolson state became non-finite at t={t[n]:.6g}")
        u[n] = v
        u[n, 0] = 0.0
        u[n, -1] = 0.0
    return x, t, u


def cole_hopf_hermite(visc: float, x: np.ndarray, t: np.ndarray, nodes: int = 200) -> np.ndarray:
    """u(x, t) of the `problems.burgers` problem from the Cole-Hopf integral,
    by Gauss-Hermite quadrature (Basdevant et al. 1986), for t > 0.

    With eta = x - c s and c = sqrt(4 visc t), u = (c / t) E[s f] / E[f]
    under the weight exp(-s^2). Here f(eta) = exp(-(cos(pi eta) + 1) /
    (2 pi visc)) is exp(-F(eta) / (2 visc)), F the integral of u(., 0) from
    0 to eta, times the constant that keeps f <= 1."""
    s, w = np.polynomial.hermite.hermgauss(nodes)
    c = np.sqrt(4.0 * visc * t)[:, None]
    f = np.exp(-(np.cos(np.pi * (x[:, None] - c * s)) + 1.0) / (2.0 * np.pi * visc))
    return c[:, 0] / t * (f * (w * s)).sum(axis=1) / (f * w).sum(axis=1)


def seed_input(value, active: bool = True) -> Jet2:
    """Wrap an input as a jet: seeded direction gets d1 = 1, constants 0."""
    one = np.ones_like(np.asarray(value, dtype=float)) if isinstance(value, np.ndarray) else 1.0
    zero = np.zeros_like(np.asarray(value, dtype=float)) if isinstance(value, np.ndarray) else 0.0
    return Jet2(value, one if active else zero, zero)


def central_diff_1(f: Callable[[float], float], x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def central_diff_2(f: Callable[[float], float], x: float, step: float) -> float:
    return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)


def finite_diff_check(objective: Callable, params: np.ndarray, step: float) -> float:
    """Max relative deviation between reverse-mode and central differences.

    `objective` must map a flat parameter vector (ndarray or Var) to a
    scalar using the dispatched operations of `deuq.autodiff`.
    """
    if step <= 0.0:
        raise ConfigError("finite difference step must be > 0")
    params = np.asarray(params, dtype=float)
    leaf = Var(params)
    out = objective(leaf)
    if not isinstance(out, Var):
        raise StructuralError("objective did not produce a recorded scalar")
    grad = grad_params(out, [leaf])

    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += step
        hi = float(objective(bumped))
        bumped[i] = params[i] - step
        lo = float(objective(bumped))
        fd = (hi - lo) / (2.0 * step)
        scale = max(abs(grad[i]), abs(fd), 1.0)
        worst = max(worst, abs(grad[i] - fd) / scale)
    return worst


def nlm_predict(post: NLMPosterior, point) -> tuple[float, float]:
    """Posterior predictive (mean, std) at one domain point, or directly at
    one feature vector when the posterior has no feature network."""
    if post.feature_params is not None:
        phi = feature_map(post.feature_params, np.atleast_2d(point))[0]
    else:
        phi = np.asarray(point, dtype=float).ravel()
    mean = float(phi @ post.posterior_mean)
    var = float(phi @ post.posterior_cov @ phi)
    return mean, float(np.sqrt(max(var, 0.0)))


def kl_gaussian_diag(q: VariationalParams, prior_std: float) -> float:
    """Closed-form KL(q || N(0, prior_std^2)) summed over all weights; zero
    iff equal."""
    sigma = q.sigma
    s = float(prior_std)
    return float(np.sum(np.log(s / sigma) + (sigma**2 + q.mu**2) / (2.0 * s**2) - 0.5))


def identity_head_args(X: np.ndarray, Y: np.ndarray, cfg: nets.MLPConfig) -> tuple:
    """The positional arguments (X, Y, A, B, cfg, x0) of a stage-2 trainer
    for the head A + B * net with A = 0 and B = 1, from `nets.init`."""
    return X, Y, np.zeros(Y.shape), np.ones(Y.shape), cfg, nets.init(cfg).flat()


def flipout_perturb(q: VariationalParams, shared_noise: np.ndarray,
                    r_signs: np.ndarray, s_signs: np.ndarray) -> list[nets.MLPParams]:
    """Materialized per-example weights w_n = mu + (sigma o eps) o (r_n s_n^T).

    ``r_signs`` has one +-1 entry per layer output unit and example,
    ``s_signs`` one per layer input unit and example; biases flip with the
    output-side signs. Expectation over signs equals mu.
    """
    if q.config is None:
        raise StructuralError("flipout perturbation requires a network config")
    r_signs = np.atleast_2d(np.asarray(r_signs, dtype=float))
    s_signs = np.atleast_2d(np.asarray(s_signs, dtype=float))
    if not np.all(np.isin(r_signs, (-1.0, 1.0))) or not np.all(np.isin(s_signs, (-1.0, 1.0))):
        raise StructuralError("sign entries must be -1 or +1")
    r_total, s_total = sign_dims(q.config)
    if r_signs.shape[1] != r_total or s_signs.shape[1] != s_total:
        raise StructuralError("sign vectors do not match the layer widths")
    if r_signs.shape[0] != s_signs.shape[0]:
        raise StructuralError("r and s must cover the same number of examples")
    base = nets.MLPParams.from_flat(q.config, q.sigma * np.asarray(shared_noise, dtype=float))
    mu = nets.MLPParams.from_flat(q.config, q.mu)
    out = []
    for n in range(r_signs.shape[0]):
        weights, biases = [], []
        r_off = s_off = 0
        for (o, i), mW, mb, dW, db in zip(
            q.config.layer_shapes(), mu.weights, mu.biases, base.weights, base.biases
        ):
            r = r_signs[n, r_off : r_off + o]
            s = s_signs[n, s_off : s_off + i]
            weights.append(mW + dW * np.outer(r, s))
            biases.append(mb + db * r)
            r_off += o
            s_off += i
        out.append(nets.MLPParams(q.config, weights, biases))
    return out
