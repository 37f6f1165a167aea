"""Benchmark differential equations, condition-enforcement transforms, and
reference-solution oracles.

Four presets are provided: ``linear_ode`` (first-order linear decay),
``duffing`` (nonlinear oscillator), ``lotka_volterra`` (two-species system),
and ``burgers`` (viscous nonlinear PDE). Each preset bundles a residual
operator over jet evaluations, a transform ``u ~> A + B * u`` that makes the
initial/boundary conditions hold by construction (B vanishes at condition
locations), and an independent reference solver for error reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import get_lapack_funcs

from .autodiff import Jet2, Var, exp, sin
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
    jet-like value per output. B is zero at every condition location; A alone
    reproduces the conditioned values there.
    """

    A: Callable[[Sequence[Jet2]], list]
    B: Callable[[Sequence[Jet2]], list]


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n_outputs: int
    coefficients: dict
    train_domain: tuple[Interval, ...]
    extrap_domain: tuple[Interval, ...]
    conditions: tuple[Condition, ...]
    transform: Transform
    residual_fn: Callable = field(repr=False)
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
    return problem.residual_fn(problem.coefficients, seen, point)


def enforce(u_raw: Sequence[Jet2], input_jets: Sequence[Jet2], transform: Transform) -> list[Jet2]:
    """Apply u ~> A + B * u with jets propagated through A and B analytically."""
    a = transform.A(input_jets)
    b = transform.B(input_jets)
    return [a_k + b_k * u_k for a_k, b_k, u_k in zip(a, b, u_raw)]


def transform_values(transform: Transform, points: np.ndarray, n_outputs: int) -> tuple[np.ndarray, np.ndarray]:
    """A and B evaluated as plain (n, n_outputs) arrays on grid points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jets = [Jet2(points[:, i], 0.0, 0.0) for i in range(points.shape[1])]
    a = transform.A(jets)
    b = transform.B(jets)

    def col(x):
        v = x.value if isinstance(x, Jet2) else x
        return np.broadcast_to(np.asarray(v, dtype=float), (points.shape[0],))

    A = np.stack([col(a_k) for a_k in a], axis=1)
    B = np.stack([col(b_k) for b_k in b], axis=1)
    return A, B


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


def _linear_ode_residual(coeff, u, point):
    j = u[0][0]
    t = point[0]
    return [j.d1 + 2.0 * t * j.value]


def linear_ode(u0: float = 1.0,
               train_domain: Interval = (0.0, 2.0),
               extrap_domain: Interval = (0.0, 3.0)) -> ProblemSpec:
    """du/dt = -2 t u with u(t0) = u0; analytic solution u0 exp(t0^2 - t^2)."""
    t0 = train_domain[0]
    transform = Transform(
        A=lambda jets: [u0],
        B=lambda jets: [_ramp(jets[0], t0)],
    )
    return ProblemSpec(
        name="linear_ode",
        n_outputs=1,
        coefficients={"u0": u0},
        train_domain=(train_domain,),
        extrap_domain=(extrap_domain,),
        conditions=(Condition("initial_value", (t0,), u0),),
        transform=transform,
        residual_fn=_linear_ode_residual,
        derivative_orders=(1,),
    )


def _duffing_residual(coeff, u, point):
    j = u[0][0]
    return [j.d2 + coeff["omega"] ** 2 * j.value + coeff["eps_nl"] * j.value**3]


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
    return ProblemSpec(
        name="duffing",
        n_outputs=1,
        coefficients={"omega": omega, "eps_nl": eps_nl, "u0": u0, "du0": du0},
        train_domain=(train_domain,),
        extrap_domain=(extrap_domain,),
        conditions=(
            Condition("initial_value", (t0,), u0),
            Condition("initial_derivative", (t0,), du0),
        ),
        transform=transform,
        residual_fn=_duffing_residual,
        derivative_orders=(2,),
    )


def _lv_residual(coeff, u, point):
    ju, jv = u[0]
    uu, vv = ju.value, jv.value
    r1 = ju.d1 - coeff["lv_alpha"] * uu + coeff["lv_beta"] * uu * vv
    if coeff["lv_standard_form"]:
        r2 = jv.d1 + coeff["lv_gamma"] * vv - coeff["lv_delta"] * uu * vv
    else:
        r2 = jv.d1 + coeff["lv_delta"] * uu - coeff["lv_gamma"] * uu * vv
    return [r1, r2]


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
    return ProblemSpec(
        name="lotka_volterra",
        n_outputs=2,
        coefficients={
            "lv_alpha": lv_alpha, "lv_beta": lv_beta,
            "lv_delta": lv_delta, "lv_gamma": lv_gamma,
            "u0": u0[0], "v0": u0[1],
            "lv_standard_form": bool(lv_standard_form),
        },
        train_domain=(train_domain,),
        extrap_domain=(extrap_domain,),
        conditions=(
            Condition("initial_value", (t0,), u0[0], output=0),
            Condition("initial_value", (t0,), u0[1], output=1),
        ),
        transform=transform,
        residual_fn=_lv_residual,
        derivative_orders=(1,),
    )


def _burgers_residual(coeff, u, point):
    # coordinate order is (x, t): direction 0 carries u_x and u_xx,
    # direction 1 carries u_t
    jx = u[0][0]
    jt = u[1][0]
    return [jt.d1 + jx.value * jx.d1 - coeff["visc"] * jx.d2]


def burgers(visc: float = 0.1,
            x_domain: Interval = (-1.0, 1.0),
            t_train: Interval = (0.0, 1.0),
            t_extrap: Interval = (0.0, 1.5)) -> ProblemSpec:
    """u_t + u u_x = visc u_xx with u(x,0) = -sin(pi x), u(+-1, t) = 0.

    B vanishes on all three condition surfaces; A restores the initial
    profile, which itself satisfies the boundary values.
    """
    if visc <= 0.0:
        raise ConfigError("viscosity must be positive")
    xl, xr = x_domain

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
    return ProblemSpec(
        name="burgers",
        n_outputs=1,
        coefficients={"visc": visc},
        train_domain=(x_domain, t_train),
        extrap_domain=(x_domain, t_extrap),
        conditions=(
            Condition("initial_value", (None, 0.0), profile=lambda x: -np.sin(math.pi * x)),
            Condition("dirichlet_bc", (xl, None), 0.0),
            Condition("dirichlet_bc", (xr, None), 0.0),
        ),
        transform=transform,
        residual_fn=_burgers_residual,
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


def _crank_nicolson_burgers(visc: float, xl: float, xr: float, t_end: float,
                            nx: int = 513, dt: float = 5e-4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Implicit Crank-Nicolson with Newton iterations on a fine grid.

    Dirichlet zero ends, initial profile -sin(pi x). Returns (x, t, u) with
    u of shape (nt, nx). Each Newton step solves its tridiagonal Jacobian
    with LAPACK gtsv (the routine scipy's solve_banded runs for one band
    either side), fetched once and fed preallocated buffers in place.
    """
    x = np.linspace(xl, xr, nx)
    dx = x[1] - x[0]
    nt = int(round(t_end / dt)) + 1
    t = np.linspace(0.0, t_end, nt)
    u = np.empty((nt, nx))
    u[0] = -np.sin(np.pi * x)
    gtsv, = get_lapack_funcs(("gtsv",), (u,))
    half_dt, two_dx, dx2 = 0.5 * dt, 2.0 * dx, dx**2
    diffusion, jac_main = visc / dx2, 2.0 * visc / dx2
    vx, vxx, F, explicit, main, w = (np.empty(nx - 2) for _ in range(6))
    lower, upper = np.empty(nx - 3), np.empty(nx - 3)

    for n in range(1, nt):
        v = u[n]
        v[:] = u[n - 1]
        left, mid, right = v[:-2], v[1:-1], v[2:]
        for it in range(20):
            # Newton residual F = v + 0.5 dt N(v) - explicit, N(v) = v v_x -
            # visc v_xx on interior points; vx is reused by the Jacobian
            np.subtract(right, left, out=vx)
            vx /= two_dx
            np.multiply(mid, 2.0, out=vxx)
            np.subtract(right, vxx, out=vxx)
            vxx += left
            vxx /= dx2
            np.multiply(mid, vx, out=F)
            vxx *= visc
            F -= vxx
            F *= half_dt
            if it == 0:
                # F holds 0.5 dt N(v), and the first iterate is the previous
                # row: explicit = prev - 0.5 dt N(prev)
                np.subtract(mid, F, out=explicit)
            F += mid
            F -= explicit
            # tridiagonal Jacobian of F w.r.t. interior unknowns
            np.add(vx, jac_main, out=main)
            main *= half_dt
            main += 1.0
            np.divide(mid, two_dx, out=w)
            np.negative(w[1:], out=lower)
            lower -= diffusion
            lower *= half_dt
            np.subtract(w[:-1], diffusion, out=upper)
            upper *= half_dt
            *_, delta, info = gtsv(lower, main, upper, F, True, True, True, True)
            if info != 0:
                raise OracleError(f"Crank-Nicolson gtsv failed (info {info}) at t={t[n]:.6g}")
            mid -= delta
            if np.abs(delta, out=w).max() < 1e-12:
                break
        if not np.isfinite(v).all():
            raise OracleError(f"Crank-Nicolson state became non-finite at t={t[n]:.6g}")
        v[0] = v[-1] = 0.0
    return x, t, u


# Reference solves memoized per process: an ODE's RK4 path per preset,
# coefficients, start time, step and sorted grid times; the Burgers
# Crank-Nicolson field, which no grid changes, per coefficients and domain.
_reference_memo: dict = {}


def _memoized(key: tuple, solve: Callable):
    """solve() once per key; an OracleError propagates and is not stored,
    so a failing solve raises again on every call."""
    if key not in _reference_memo:
        _reference_memo[key] = solve()
    return _reference_memo[key]


def reference_solution(problem: ProblemSpec, grid: np.ndarray,
                       rk4_step: float = 1e-3) -> np.ndarray:
    """Reference values on (n, input_dim) grid points, one column per output,
    as a fresh array.

    linear_ode is analytic; duffing and lotka_volterra use RK4; burgers uses
    a fine-grid Crank-Nicolson solve with linear interpolation. The RK4
    paths and the Crank-Nicolson field are memoized per process.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    for axis, (lo, hi) in enumerate(problem.extrap_domain):
        if np.any(grid[:, axis] < lo) or np.any(grid[:, axis] > hi):
            raise ConfigError("grid must lie inside extrap_domain")
    c = problem.coefficients
    coeff_key = tuple(sorted(c.items()))
    if problem.name == "linear_ode":
        t0 = problem.train_domain[0][0]
        t = grid[:, 0]
        return (c["u0"] * np.exp(t0**2 - t**2)).reshape(-1, 1)
    if problem.name in ("duffing", "lotka_volterra"):
        t0 = problem.train_domain[0][0]
        if problem.name == "duffing":
            y0 = (c["u0"], c["du0"])

            def f(t, y):
                return (y[1], -(c["omega"] ** 2) * y[0] - c["eps_nl"] * y[0] ** 3)
        else:
            y0 = (c["u0"], c["v0"])
            a, b, d, g = c["lv_alpha"], c["lv_beta"], c["lv_delta"], c["lv_gamma"]

            def f(t, y):
                u, v = y
                dv = d * u * v - g * v if c["lv_standard_form"] else -d * u + g * u * v
                return (a * u - b * u * v, dv)

        order = np.argsort(grid[:, 0])
        times = grid[order, 0]
        path = _memoized((problem.name, coeff_key, t0, rk4_step, times.tobytes()),
                         lambda: rk4_path(f, t0, y0, times, rk4_step))
        out = np.empty((grid.shape[0], problem.n_outputs))
        out[order] = path[:, :problem.n_outputs]
        return out
    if problem.name == "burgers":
        (xl, xr), t_end = problem.train_domain[0], problem.extrap_domain[1][1]
        x, t, u = _memoized((problem.name, coeff_key, xl, xr, t_end),
                            lambda: _crank_nicolson_burgers(c["visc"], xl, xr, t_end))
        return RegularGridInterpolator((t, x), u)(grid[:, [1, 0]]).reshape(-1, 1)
    raise ConfigError(f"no reference solver for {problem.name!r}")


def grid_points(domain: Sequence[Interval], n_per_dim: int) -> np.ndarray:
    """Product grid with n_per_dim equispaced points (endpoints included)
    per coordinate, rows in C order (first coordinate slowest)."""
    axes = [np.linspace(lo, hi, n_per_dim) for lo, hi in domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
