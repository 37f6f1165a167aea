"""Reverse-mode tape over numpy arrays plus second-order forward jets.

Two differentiation tools live here:

* ``Var`` — a node in a reverse-mode computation record. Values are numpy
  arrays (scalars are 0-d arrays), elementwise ops broadcast, and
  ``backward`` accumulates exact gradients for every leaf.
* ``Jet2`` — a truncated second-order Taylor triple (value, d1, d2) along
  one seeded input direction. Components may be floats, numpy arrays, or
  ``Var`` nodes, so jets nest over the reverse-mode record
  (forward-over-reverse) without extra machinery. ``d2`` may be None: the
  jet is then first order, and every jet computed from it is too.

The module-level functions ``exp``, ``tanh``, ``sin``, ... dispatch on the
argument type, so the same formula runs on plain numbers, arrays, tapes,
and jets. Everything is deterministic and side-effect free; repeated
evaluation of the same record yields bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from scipy.special import digamma, expit, gammaln

from .errors import ConfigError, DomainError, StructuralError

Scalar = Any  # float | np.ndarray | Var


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Var:
    """One node of the reverse-mode computation record."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    # make numpy defer to our reflected operators instead of broadcasting
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

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
        def vjp(g):
            out = np.zeros_like(self.data)
            out[key] += g
            return (out,)

        return Var(self.data[key], (self,), vjp)

    # -- reductions / shape --------------------------------------------

    def sum(self) -> "Var":
        return Var(
            self.data.sum(),
            (self,),
            lambda g: (np.broadcast_to(g, self.shape).copy(),),
        )

    def mean(self) -> "Var":
        n = self.data.size
        return Var(
            self.data.mean(),
            (self,),
            lambda g: (np.broadcast_to(g / n, self.shape).copy(),),
        )

    def reshape(self, shape) -> "Var":
        old = self.shape
        return Var(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    # -- reverse pass ---------------------------------------------------

    def backward(self) -> set:
        """Accumulate gradients into every reachable node; returns the ids
        of visited nodes. The objective must be scalar."""
        if self.data.shape != ():
            raise StructuralError("backward() requires a scalar objective")
        order: list[Var] = []
        visited: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones(())
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        return {id(n) for n in order}


def _var_unary(x: Var, value: np.ndarray, dfdx: np.ndarray) -> Var:
    return Var(value, (x,), lambda g: (_unbroadcast(g * dfdx, x.shape),))


def transpose(x: Var) -> Var:
    return Var(x.data.T, (x,), lambda g: (g.T,))


# ---------------------------------------------------------------------
# Jets: truncated second-order Taylor arithmetic
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value with first and second derivatives along one seeded direction.

    ``d2`` is None when the second derivative is not carried; it then stays
    None through every operation instead of reading as zero.
    """

    value: Scalar
    d1: Scalar
    d2: Scalar

    __array_ufunc__ = None
    __array_priority__ = 1000

    def __add__(self, other):
        o = _as_jet(other)
        return Jet2(self.value + o.value, self.d1 + o.d1,
                    self.d2 + o.d2 if _carried(self, o) else None)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet(other)
        return Jet2(self.value - o.value, self.d1 - o.d1,
                    self.d2 - o.d2 if _carried(self, o) else None)

    def __rsub__(self, other):
        return _as_jet(other).__sub__(self)

    def __mul__(self, other):
        o = _as_jet(other)
        return Jet2(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2
            if _carried(self, o) else None,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other)
        _check_nonzero(o.value)
        value = self.value / o.value
        d1 = (self.d1 - value * o.d1) / o.value
        d2 = (self.d2 - 2.0 * d1 * o.d1 - value * o.d2) / o.value if _carried(self, o) else None
        return Jet2(value, d1, d2)

    def __rtruediv__(self, other):
        return _as_jet(other).__truediv__(self)

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2 if _carried(self) else None)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ConfigError("Jet2.__pow__ supports integer exponents only")
        f1 = n * self.value ** (n - 1)
        f2 = n * (n - 1) * self.value ** (n - 2)
        d2 = f2 * self.d1 * self.d1 + f1 * self.d2 if _carried(self) else None
        return Jet2(self.value**n, f1 * self.d1, d2)


def _carried(*jets: Jet2) -> bool:
    return all(j.d2 is not None for j in jets)


def _as_jet(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2(x, 0.0, 0.0)


def _check_nonzero(value):
    data = value.data if isinstance(value, Var) else value
    if np.any(np.asarray(data) == 0.0):
        raise DomainError("division by a jet with zero value")


# ---------------------------------------------------------------------
# Type-dispatched elementary functions
# ---------------------------------------------------------------------


def exp(x):
    if isinstance(x, Var):
        e = np.exp(x.data)
        return _var_unary(x, e, e)
    if isinstance(x, Jet2):
        e = exp(x.value)
        return Jet2(e, e * x.d1, e * (x.d1 * x.d1 + x.d2) if _carried(x) else None)
    return np.exp(x)


def tanh(x):
    if isinstance(x, Var):
        t = np.tanh(x.data)
        return _var_unary(x, t, 1.0 - t * t)
    if isinstance(x, Jet2):
        t = tanh(x.value)
        sech2 = 1.0 - t * t
        d2 = sech2 * x.d2 - 2.0 * t * sech2 * x.d1 * x.d1 if _carried(x) else None
        return Jet2(t, sech2 * x.d1, d2)
    return np.tanh(x)


def sin(x):
    if isinstance(x, Var):
        return _var_unary(x, np.sin(x.data), np.cos(x.data))
    if isinstance(x, Jet2):
        s, c = sin(x.value), cos(x.value)
        return Jet2(s, c * x.d1, -s * x.d1 * x.d1 + c * x.d2 if _carried(x) else None)
    return np.sin(x)


def cos(x):
    if isinstance(x, Var):
        return _var_unary(x, np.cos(x.data), -np.sin(x.data))
    if isinstance(x, Jet2):
        s, c = sin(x.value), cos(x.value)
        return Jet2(c, -s * x.d1, -c * x.d1 * x.d1 - s * x.d2 if _carried(x) else None)
    return np.cos(x)


def log(x):
    if isinstance(x, Var):
        return _var_unary(x, np.log(x.data), 1.0 / x.data)
    if isinstance(x, Jet2):
        d1 = x.d1 / x.value
        return Jet2(log(x.value), d1, x.d2 / x.value - d1 * d1 if _carried(x) else None)
    return np.log(x)


def softplus(x):
    """log(1 + exp(x)), overflow-safe for large |x|."""
    if isinstance(x, Var):
        return _var_unary(x, np.logaddexp(0.0, x.data), expit(x.data))
    if isinstance(x, Jet2):
        sig = sigmoid(x.value)
        return Jet2(
            softplus(x.value),
            sig * x.d1,
            sig * (1.0 - sig) * x.d1 * x.d1 + sig * x.d2 if _carried(x) else None,
        )
    return np.logaddexp(0.0, x)


def sigmoid(x):
    if isinstance(x, Var):
        s = expit(x.data)
        return _var_unary(x, s, s * (1.0 - s))
    if isinstance(x, Jet2):
        s = sigmoid(x.value)
        ds = s * (1.0 - s)
        d2s = ds * (1.0 - 2.0 * s)
        return Jet2(s, ds * x.d1, d2s * x.d1 * x.d1 + ds * x.d2 if _carried(x) else None)
    return expit(x)


def absolute(x):
    if isinstance(x, Var):
        return _var_unary(x, np.abs(x.data), np.sign(x.data))
    return np.abs(x)


def lgamma(x):
    if isinstance(x, Var):
        return _var_unary(x, gammaln(x.data), digamma(x.data))
    return gammaln(x)


# ---------------------------------------------------------------------
# Gradients of recorded objectives
# ---------------------------------------------------------------------


def grad_params(objective: Var, params: Sequence[Var]) -> np.ndarray:
    """Flat reverse-mode gradient of a recorded scalar objective.

    The returned vector concatenates d(objective)/d(p) for each entry of
    `params` in order (row-major within each array), matching the canonical
    parameter ordering used by the network module.
    """
    if not isinstance(objective, Var):
        raise StructuralError("objective is not part of a computation record")
    visited_ids = objective.backward()
    pieces = []
    for p in params:
        if id(p) not in visited_ids:
            raise StructuralError("parameter was never recorded in the objective")
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        pieces.append(np.asarray(g, dtype=float).ravel())
    return np.concatenate(pieces) if pieces else np.zeros(0)
