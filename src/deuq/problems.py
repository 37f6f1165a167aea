"""Benchmark differential equations, condition-enforcement transforms, and
reference-solution oracles.

Four presets are provided: ``linear_ode`` (first-order linear decay),
``duffing`` (nonlinear oscillator), ``lotka_volterra`` (two-species system),
and ``burgers`` (viscous nonlinear PDE). Each preset function builds, as
closures over its own arguments, a residual operator over jet evaluations
and an independent reference solution for error reporting: exact for
``linear_ode`` and, through the Cole-Hopf transform, for ``burgers``; RK4
for the other two. Its transform ``u ~> A + B * u`` makes the conditions
hold by construction (B vanishes at condition locations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .autodiff import Jet2, exp, sin
from .errors import ConfigError, OracleError, StructuralError

Interval = tuple[float, float]


@dataclass(frozen=True)
class Condition:
    """One initial/boundary condition. ``location`` entries are coordinates,
    with None marking a free coordinate (a condition surface). ``profile``
    supplies the value as a function of the free coordinates when ``value``
    is not a single number."""

    kind: str  # initial_value | initial_derivative | dirichlet_bc
    location: tuple
    value: float | None = None
    output: int = 0
    profile: Callable | None = None


@dataclass(frozen=True)
class Transform:
    """Condition-enforcing reparametrization u ~> A + B * u.

    ``A`` and ``B`` map the list of input jets (one per coordinate) to one
    jet-like value per output; given plain coordinate arrays, they return
    plain values. B is zero at every condition location; A alone
    reproduces the conditioned values there.
    """

    A: Callable[[Sequence[Jet2]], list]
    B: Callable[[Sequence[Jet2]], list]


@dataclass(frozen=True)
class ProblemSpec:
    """One equation as its preset function built it: ``residual_fn(u, point)``
    gives one residual per output, ``reference_fn(grid)`` the (n, n_outputs)
    reference values (call them through ``residual`` and ``reference_solution``)."""

    name: str
    n_outputs: int
    train_domain: tuple[Interval, ...]
    extrap_domain: tuple[Interval, ...]
    conditions: tuple[Condition, ...]
    transform: Transform
    residual_fn: Callable = field(repr=False)
    reference_fn: Callable = field(repr=False)
    # highest derivative order the residual reads along each input
    derivative_orders: tuple[int, ...]

    def __post_init__(self):
        if (len(self.derivative_orders) != len(self.train_domain)
                or any(o not in (0, 1, 2) for o in self.derivative_orders)):
            raise ConfigError("derivative_orders needs one order in 0..2 per input")
        for (tl, th), (el, eh) in zip(self.train_domain, self.extrap_domain):
            if el > tl or eh < th:
                raise ConfigError("extrap_domain must contain train_domain")
        if all(el == tl and eh == th
               for (tl, th), (el, eh) in zip(self.train_domain, self.extrap_domain)):
            raise ConfigError("extrap_domain must strictly extend train_domain")

    @property
    def input_dim(self) -> int:
        return len(self.train_domain)


@dataclass(frozen=True)
class FirstOrder:
    """An output's value and first derivative along a direction the
    residual reads to first order only; reading ``d2`` raises."""

    value: Any
    d1: Any

    @property
    def d2(self):
        raise StructuralError(
            "residual read a second derivative along a direction declared first order"
        )


def residual(problem: ProblemSpec, u: Mapping[int, Sequence[Jet2]], point) -> list:
    """Residual of the enforced solution at one point (or batch of points).

    ``u`` maps seeded input direction -> jets of every output, carrying the
    derivative orders the operator declares in ``derivative_orders``.
    Along a direction of order 1 the operator sees only value and d1.
    Returns one scalar-like residual per output equation.
    """
    seen = {}
    for d, order in enumerate(problem.derivative_orders):
        if order == 0:
            continue
        if d not in u:
            raise StructuralError(
                f"{problem.name} residual needs derivatives along input {d}"
            )
        seen[d] = u[d] if order == 2 else [FirstOrder(j.value, j.d1) for j in u[d]]
    return problem.residual_fn(seen, point)


def transform_values(transform: Transform, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and B evaluated as plain (n, n_outputs) arrays on grid points,
    called on the coordinate columns themselves."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    columns = list(points.T)

    def stacked(values):
        return np.stack([np.broadcast_to(np.asarray(v, dtype=float), (points.shape[0],))
                         for v in values], axis=1)

    return stacked(transform.A(columns)), stacked(transform.B(columns))


def condition_mask(problem: ProblemSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean mask of grid points lying on a value-type condition location,
    with the conditioned value per output there (NaN where unconstrained)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    mask = np.zeros(points.shape[0], dtype=bool)
    values = np.full((points.shape[0], problem.n_outputs), np.nan)
    for cond in problem.conditions:
        if cond.kind == "initial_derivative":
            continue
        hit = np.ones(points.shape[0], dtype=bool)
        for axis, coord in enumerate(cond.location):
            if coord is not None:
                hit &= points[:, axis] == coord
        free = [axis for axis, coord in enumerate(cond.location) if coord is None]
        if cond.profile is not None:
            vals = cond.profile(*(points[hit, axis] for axis in free))
        else:
            vals = cond.value
        values[hit, cond.output] = vals
        mask |= hit
    return mask, values


# ---------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------


def _ramp(t: Jet2, t0: float) -> Jet2:
    # 1 - exp(-(t - t0)): zero at t0, tends to 1 far from it
    return 1.0 - exp(-(t - t0))


def linear_ode(u0: float = 1.0,
               train_domain: Interval = (0.0, 2.0),
               extrap_domain: Interval = (0.0, 3.0)) -> ProblemSpec:
    """du/dt = -2 t u with u(t0) = u0; analytic solution u0 exp(t0^2 - t^2)."""
    t0 = train_domain[0]
    transform = Transform(
        A=lambda jets: [u0],
        B=lambda jets: [_ramp(jets[0], t0)],
    )

    def residual_fn(u, point):
        j = u[0][0]
        return [j.d1 + 2.0 * point[0] * j.value]

    def reference_fn(grid):
        return (u0 * np.exp(t0**2 - grid[:, 0]**2)).reshape(-1, 1)

    return ProblemSpec(
        name="linear_ode",
        n_outputs=1,
        train_domain=(train_domain,),
        extrap_domain=(extrap_domain,),
        conditions=(Condition("initial_value", (t0,), u0),),
        transform=transform,
        residual_fn=residual_fn,
        reference_fn=reference_fn,
        derivative_orders=(1,),
    )


def duffing(omega: float = 1.0, eps_nl: float = 0.1,
            u0: float = 1.0, du0: float = 0.0,
            train_domain: Interval = (0.0, 2.0),
            extrap_domain: Interval = (0.0, 3.0)) -> ProblemSpec:
    """u'' + omega^2 u + eps_nl u^3 = 0 with u(t0) = u0, u'(t0) = du0.

    The squared ramp in B pins both the value and the first derivative at t0;
    the ramp term in A restores the conditioned slope.
    """
    t0 = train_domain[0]
    transform = Transform(
        A=lambda jets: [u0 + du0 * _ramp(jets[0], t0)],
        B=lambda jets: [_ramp(jets[0], t0) ** 2],
    )

    def residual_fn(u, point):
        j = u[0][0]
        return [j.d2 + omega ** 2 * j.value + eps_nl * j.value**3]

    def f(t, y):
        return (y[1], -(omega ** 2) * y[0] - eps_nl * y[0] ** 3)

    return ProblemSpec(
        name="duffing",
        n_outputs=1,
        train_domain=(train_domain,),
        extrap_domain=(extrap_domain,),
        conditions=(
            Condition("initial_value", (t0,), u0),
            Condition("initial_derivative", (t0,), du0),
        ),
        transform=transform,
        residual_fn=residual_fn,
        reference_fn=_rk4_reference(("duffing", omega, eps_nl, u0, du0), f, t0, (u0, du0), 1),
        derivative_orders=(2,),
    )


def lotka_volterra(lv_alpha: float = 1.0, lv_beta: float = 1.0,
                   lv_delta: float = 1.0, lv_gamma: float = 1.0,
                   u0: tuple[float, float] = (1.0, 1.5),
                   lv_standard_form: bool = False,
                   train_domain: Interval = (0.0, 2.0),
                   extrap_domain: Interval = (0.0, 3.0)) -> ProblemSpec:
    """Two-species system. Default form: u' = a u - b u v, v' = -d u + g u v.

    ``lv_standard_form`` switches the second equation to the textbook
    predator dynamics v' = d u v - g v.
    """
    t0 = train_domain[0]
    transform = Transform(
        A=lambda jets: [u0[0], u0[1]],
        B=lambda jets: [_ramp(jets[0], t0), _ramp(jets[0], t0)],
    )

    def residual_fn(u, point):
        ju, jv = u[0]
        uu, vv = ju.value, jv.value
        r1 = ju.d1 - lv_alpha * uu + lv_beta * uu * vv
        if lv_standard_form:
            r2 = jv.d1 + lv_gamma * vv - lv_delta * uu * vv
        else:
            r2 = jv.d1 + lv_delta * uu - lv_gamma * uu * vv
        return [r1, r2]

    def f(t, y):
        u, v = y
        dv = (lv_delta * u * v - lv_gamma * v if lv_standard_form
              else -lv_delta * u + lv_gamma * u * v)
        return (lv_alpha * u - lv_beta * u * v, dv)

    key = ("lotka_volterra", lv_alpha, lv_beta, lv_delta, lv_gamma, *u0, lv_standard_form)
    return ProblemSpec(
        name="lotka_volterra",
        n_outputs=2,
        train_domain=(train_domain,),
        extrap_domain=(extrap_domain,),
        conditions=(
            Condition("initial_value", (t0,), u0[0], output=0),
            Condition("initial_value", (t0,), u0[1], output=1),
        ),
        transform=transform,
        residual_fn=residual_fn,
        reference_fn=_rk4_reference(key, f, t0, u0, 2),
        derivative_orders=(1,),
    )


def burgers(visc: float = 0.1,
            x_domain: Interval = (-1.0, 1.0),
            t_train: Interval = (0.0, 1.0),
            t_extrap: Interval = (0.0, 1.5)) -> ProblemSpec:
    """u_t + u u_x = visc u_xx with u(x,0) = -sin(pi x), u(+-1, t) = 0.

    B vanishes on all three condition surfaces; A restores the initial
    profile, which itself satisfies the boundary values, as it does at any
    integer x ends. The reference is the exact Cole-Hopf solution.
    """
    if visc <= 0.0:
        raise ConfigError("viscosity must be positive")
    xl, xr = x_domain
    if not (float(xl).is_integer() and float(xr).is_integer()):
        # the boundary values hold only where -sin(pi x) vanishes
        raise ConfigError("the x_domain ends must be integers")

    def initial_profile(x):
        return -sin(math.pi * x)

    transform = Transform(
        A=lambda jets: [initial_profile(jets[0])],
        B=lambda jets: [
            (1.0 - exp(-jets[1]))
            * (1.0 - exp(-(jets[0] - xl)))
            * (1.0 - exp(-(xr - jets[0])))
        ],
    )

    def residual_fn(u, point):
        # coordinate order is (x, t): direction 0 carries u_x and u_xx,
        # direction 1 carries u_t
        jx = u[0][0]
        jt = u[1][0]
        return [jt.d1 + jx.value * jx.d1 - visc * jx.d2]

    def reference_fn(grid):
        return _cole_hopf_burgers(visc, grid[:, 0], grid[:, 1]).reshape(-1, 1)

    return ProblemSpec(
        name="burgers",
        n_outputs=1,
        train_domain=(x_domain, t_train),
        extrap_domain=(x_domain, t_extrap),
        conditions=(
            Condition("initial_value", (None, 0.0), profile=lambda x: -np.sin(math.pi * x)),
            Condition("dirichlet_bc", (xl, None), 0.0),
            Condition("dirichlet_bc", (xr, None), 0.0),
        ),
        transform=transform,
        residual_fn=residual_fn,
        reference_fn=reference_fn,
        derivative_orders=(2, 1),
    )


_PRESETS = {
    "linear_ode": linear_ode,
    "duffing": duffing,
    "lotka_volterra": lotka_volterra,
    "burgers": burgers,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def make_preset(name: str, **overrides) -> ProblemSpec:
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(preset_names())}"
        )
    return _PRESETS[name](**overrides)


# ---------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------


def rk4_path(f: Callable, t0: float, y0: Sequence[float], ts: np.ndarray, max_step: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta from t0 through every requested
    time, subdividing each gap into steps no longer than max_step.

    The state is a tuple of Python floats and ``f(t, y)`` returns one: on a
    few components that is several times faster than numpy arrays, with the
    same IEEE operations in the same order. An overflow in ``**`` (where
    numpy would give inf) and a non-finite state raise OracleError."""
    y = tuple(float(v) for v in y0)
    out = np.empty((len(ts), len(y)))
    t = t0
    for i, target in enumerate(np.asarray(ts, dtype=float).tolist()):
        gap = target - t
        n = max(1, int(math.ceil(gap / max_step))) if gap > 0 else 0
        h = gap / n if n else 0.0
        h2, h6 = h / 2.0, h / 6.0
        try:
            for _ in range(n):
                k1 = f(t, y)
                k2 = f(t + h2, tuple(a + h2 * b for a, b in zip(y, k1)))
                k3 = f(t + h2, tuple(a + h2 * b for a, b in zip(y, k2)))
                k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
                y = tuple(a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                          for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
                t += h
        except OverflowError:
            raise OracleError(f"RK4 state overflowed near t={t:.6g}") from None
        if not all(map(math.isfinite, y)):
            raise OracleError(f"RK4 state became non-finite near t={t:.6g}")
        t = target
        out[i] = y
    return out


RK4_STEP = 1e-3

# Each ODE's RK4 path, memoized per process by preset, its arguments, start
# time and sorted grid times.
_reference_memo: dict = {}


def _memoized(key: tuple, solve: Callable):
    """solve() once per key; an OracleError propagates and is not stored,
    so a failing solve raises again on every call."""
    if key not in _reference_memo:
        _reference_memo[key] = solve()
    return _reference_memo[key]


def _rk4_reference(key: tuple, f: Callable, t0: float, y0: Sequence[float],
                   n_outputs: int) -> Callable:
    """An ODE preset's reference: the memoized RK4 path of y' = f(t, y) from
    y0 at t0 through the sorted grid times, its first n_outputs components
    put back in grid order. ``key`` is the preset name and its arguments."""
    def reference_fn(grid):
        order = np.argsort(grid[:, 0])
        times = grid[order, 0]
        path = _memoized(key + (t0, times.tobytes()),
                         lambda: rk4_path(f, t0, y0, times, RK4_STEP))
        out = np.empty((grid.shape[0], n_outputs))
        out[order] = path[:, :n_outputs]
        return out
    return reference_fn


def _scaled_bessel(z: float) -> np.ndarray:
    """I_k(z) exp(-z) for k = 0, 1, ... while at least eps exp(-2z) (it falls
    in k), by the ascending series I_k(z) = (z/2)^k sum_m (z^2/4)^m / (m! (m+k)!)
    (Abramowitz & Stegun 9.6.10) of positive terms; for the z <= 4.61 the
    caller admits, 40 orders and 30 terms reach that floor and double precision."""
    k = np.arange(40)
    m = np.arange(1.0, 30.0)[:, None]
    lead = np.cumprod(np.concatenate([[math.exp(-z)], (z / 2.0) / k[1:]]))  # e^-z (z/2)^k / k!
    ratios = np.cumprod((z * z / 4.0) / (m * (m + k)), axis=0)  # term m over term 0
    coef = lead * (1.0 + ratios.sum(axis=0))
    return coef[coef >= np.finfo(float).eps * math.exp(-2.0 * z)]


def _cole_hopf_burgers(visc: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact u(x, t) of u_t + u u_x = visc u_xx with u(x, 0) = -sin(pi x),
    which vanishes at every integer x, from the Cole-Hopf transform
    (Cole 1951; the series form of Basdevant et al. 1986).

    u = -2 visc phi_x / phi, where phi(x, t) = I_0(a) + 2 sum_k I_k(a)
    exp(-visc k^2 pi^2 t) cos(k pi x) solves the heat equation and
    a = -1/(2 pi visc). The Bessel terms are taken exponentially scaled
    (``_scaled_bessel``), as exp(|a|) cancels in the ratio, and the series
    stops where they fall below double precision of phi's smallest value,
    exp(-2|a|) at x = 0, t = 0. The terms cancel down to that value, so the
    relative error grows like 1e-16 exp(1/(pi visc)); where that exceeds
    1e-12 (visc below about 0.035) OracleError is raised.
    """
    z = 1.0 / (2.0 * math.pi * visc)
    if 1e-16 * math.exp(2.0 * z) > 1e-12:
        raise OracleError(f"the Cole-Hopf series loses 1e-12 relative accuracy at "
                          f"viscosity {visc:g}; it needs a viscosity of at least about 0.035")
    coef = _scaled_bessel(z)
    k = np.arange(coef.size)
    coef = coef * (-1.0) ** k  # I_k(a) = (-1)^k I_k(|a|)
    coef[1:] *= 2.0
    decay = np.exp(np.multiply.outer(-visc * math.pi**2 * t, k * k))
    kx = np.multiply.outer(math.pi * x, k)
    phi = (decay * np.cos(kx)) @ coef
    return 2.0 * math.pi * visc * ((decay * np.sin(kx)) @ (coef * k)) / phi


def reference_solution(problem: ProblemSpec, grid: np.ndarray) -> np.ndarray:
    """Reference values on (n, input_dim) grid points inside extrap_domain,
    one column per output, as a fresh array, from the preset's ``reference_fn``."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    for axis, (lo, hi) in enumerate(problem.extrap_domain):
        if np.any(grid[:, axis] < lo) or np.any(grid[:, axis] > hi):
            raise ConfigError("grid must lie inside extrap_domain")
    return problem.reference_fn(grid)


def grid_points(domain: Sequence[Interval], n_per_dim: int) -> np.ndarray:
    """Product grid with n_per_dim equispaced points (endpoints included)
    per coordinate, rows in C order (first coordinate slowest)."""
    axes = [np.linspace(lo, hi, n_per_dim) for lo, hi in domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
