"""Forward-mode differentiation over numpy arrays: second-order jets and
first-order duals.

Two number types live here:

* ``Jet2`` — a truncated second-order Taylor triple (value, d1, d2) along
  one seeded input direction. ``d2`` may be None: the jet is then first
  order, and every jet computed from it is too. Components may be floats,
  numpy arrays or ``Dual`` numbers.
* ``Dual`` — a value with its first derivatives along a few seeded inputs
  (a leading tangent axis). A loss that sums pointwise terms runs on duals
  seeded with the network's output streams, and so yields its value and
  its cotangent on those streams in one pass; the network's own backward
  pass (``deuq.nets.JetKernel.backward``) does the rest. Stage one runs
  its residual on jets of duals.

The module-level functions dispatch on the argument type, with a branch
only for the number types the pipeline passes them: ``exp`` and ``sin``
take jets (the condition-enforcing transforms), ``log``, ``softplus``,
``absolute`` and ``lgamma`` take duals (the evidential loss), and all of
them take plain numbers and arrays. Nothing is recorded: every call is a
pure function of its arguments, and repeated evaluation yields
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import digamma, expit, gammaln

from .errors import ConfigError

Scalar = Any  # float | np.ndarray | Dual


class Dual:
    """First-order forward-mode number: a value and its tangents along T
    seeded inputs, stacked on a leading axis of ``d`` (shape (T, ...)).

    Tangent rows broadcast against the value, so a seed may be a one-hot
    column of shape (T, 1); a constant operand carries no tangent. Values
    take the same numpy operations, in the same order, as on plain arrays.
    """

    __slots__ = ("value", "d")

    # make numpy defer to our reflected operators instead of broadcasting
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, value, d):
        self.value = value
        self.d = d

    def __getitem__(self, key):  # a key led by Ellipsis indexes value and tangents alike
        return Dual(self.value[key], self.d[key])

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.d + other.d)
        return Dual(self.value + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.d - other.d)
        return Dual(self.value - other, self.d)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.d)

    def __neg__(self):
        return Dual(-self.value, -self.d)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value, self.d * other.value + other.d * self.value)
        return Dual(self.value * other, self.d * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            value = self.value / other.value
            return Dual(value, (self.d - other.d * value) / other.value)
        return Dual(self.value / other, self.d / other)

    def __rtruediv__(self, other):
        value = other / self.value
        return Dual(value, self.d * (-value / self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ConfigError("Dual.__pow__ supports integer exponents only")
        return Dual(self.value**n, self.d * (n * self.value ** (n - 1)))


def _chain(x: Dual, value, dfdx) -> Dual:
    return Dual(value, x.d * dfdx)


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


# ---------------------------------------------------------------------
# Type-dispatched elementary functions
# ---------------------------------------------------------------------


def exp(x):
    if isinstance(x, Jet2):
        e = exp(x.value)
        return Jet2(e, e * x.d1, e * (x.d1 * x.d1 + x.d2) if _carried(x) else None)
    return np.exp(x)


def sin(x):
    if isinstance(x, Jet2):
        s, c = sin(x.value), np.cos(x.value)
        return Jet2(s, c * x.d1, -s * x.d1 * x.d1 + c * x.d2 if _carried(x) else None)
    return np.sin(x)


def log(x):
    if isinstance(x, Dual):
        return _chain(x, np.log(x.value), 1.0 / x.value)
    return np.log(x)


def softplus(x):
    """log(1 + exp(x)), overflow-safe for large |x|."""
    if isinstance(x, Dual):
        return _chain(x, np.logaddexp(0.0, x.value), expit(x.value))
    return np.logaddexp(0.0, x)


def absolute(x):
    if isinstance(x, Dual):
        return _chain(x, np.abs(x.value), np.sign(x.value))
    return np.abs(x)


def lgamma(x):
    if isinstance(x, Dual):
        return _chain(x, gammaln(x.value), digamma(x.value))
    return gammaln(x)
