"""Forward-mode differentiation over numpy arrays: second-order jets and
first-order duals.

Two number types live here:

* ``Jet2`` — a truncated second-order Taylor triple (value, d1, d2) along
  one seeded input direction. ``d2`` may be None: the jet is then first
  order, and every jet computed from it is too. Components may be floats,
  numpy arrays or ``Dual`` numbers.
* ``Dual`` — a value with its first derivatives along a few seeded inputs
  (a leading tangent axis), under + - * and integer powers. Stage one runs
  its residual on jets of duals seeded with the network's output streams,
  and so gets the loss and its cotangent on those streams in one pass; the
  network's own backward pass (``deuq.nets.JetKernel.backward``) does the
  rest.

``exp`` and ``sin`` take jets (the condition-enforcing transforms) and
plain numbers and arrays. Nothing is recorded: every call is a pure
function of its arguments, and repeated evaluation yields bit-identical
results. The special functions are numpy series: the package imports no
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

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

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ConfigError("Dual.__pow__ supports integer exponents only")
        return Dual(self.value**n, self.d * (n * self.value ** (n - 1)))


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


def expit(x, out=None):
    """The logistic sigmoid 1 / (1 + exp(-x)), silently 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x, out=out), out=out)
    e += 1.0
    return np.reciprocal(e, out=out)


def softplus(x):
    """log(1 + exp(x)), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


# log Gamma(t) - log Gamma(t + 1/2) ~ -log(t)/2 + t sum_j g_j t^-2j, from the
# Stirling series of both terms (Abramowitz & Stegun 6.1.40 with Bernoulli
# polynomials): g_j = B_2j (2 - 2^(1-2j)) / (2j (2j-1)), j = 1..8. Rows: g_j,
# and the derivative's (1-2j) g_j.
_G = np.array([1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432, -691 / 180224,
               5461 / 425984, -929569 / 15728640])
_GAP_SERIES = np.stack([_G, (1.0 - 2.0 * np.arange(1, 9)) * _G])


def lgamma_gap_slope(x):
    """log Gamma(x) - log Gamma(x + 1/2) for x > 0 and its derivative
    digamma(x) - digamma(x + 1/2), to about 1e-15 absolute: the series above
    at t = x + 8, shifted back by Gamma(z + 1) = z Gamma(z). Factors k and
    7 - k pair up: with d_j = (x + k)(x + 7 - k), (x + k + 1/2)(x + 7.5 - k) is
    d_j + x + 3.75, so the pair adds log1p(q_j), q_j = (x + 3.75)/d_j, whose
    derivative is (1 - (2x + 7) q_j)/(d_j + x + 3.75). All is scaled by t^-2,
    so nothing overflows; few numpy calls and narrow temporaries keep it fast."""
    x = np.asarray(x, dtype=float)
    t = x + 8.0
    inv = 1.0 / t
    u = inv * inv
    powers = np.empty((8, x.size))  # u^1 .. u^8, then both series in one product
    powers[0] = u.reshape(-1)
    for j in range(1, 8):
        np.multiply(powers[j - 1], powers[0], out=powers[j])
    series = (_GAP_SERIES @ powers).reshape((2,) + x.shape)
    y = x * inv
    d = np.multiply.outer((0.0, 6.0, 10.0, 12.0), u) + (y - y * inv)  # d_j / t^2
    shift = (x + 3.75) * u
    q = shift / d
    gap = series[0] * t - 0.5 * np.log(t) + np.log1p(q).sum(axis=0)
    pair_slopes = (1.0 - (2.0 * x + 7.0) * q) / (d + shift)
    return gap, series[1] - 0.5 * inv + u * pair_slopes.sum(axis=0)

