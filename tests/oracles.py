"""Reference implementations the tests compare the production code against.

The stage-1 network once ran as generic jet arithmetic over the reverse-mode
tape: every layer a Jet2 of Var nodes, every direction a full second-order
pass. That path is slow but obviously right, so it is kept here as the
oracle for the fused jet kernel in `deuq.nets.JetKernel`.

Two small samplers sit here too, because only tests call them: the
stage-1 dataset on a chosen grid, and one shared-noise posterior draw.

So do the reference integrators as first written, on numpy arrays: RK4 on
an array state and Crank-Nicolson with `solve_banded` on a fresh banded
matrix per Newton step. `deuq.problems` does the same arithmetic with
less overhead and must match them bit for bit.

The rest are checks the pipeline never runs:
- `seed_input`, `central_diff_1`, `central_diff_2` and `finite_diff_check`
  check jet derivatives and tape gradients against finite differences;
- `nlm_predict` is the per-point form of `deuq.uq.nlm_band`;
- `flipout_perturb` materializes the per-example weights that the
  flipout trainer's decomposed forward pass never builds;
- `kl_gaussian_diag` is the closed-form KL the variational trainer
  records inline on the tape.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from deuq import nets, problems, stage1
from deuq.autodiff import Jet2, Var, grad_params
from deuq.errors import ConfigError, OracleError, StructuralError
from deuq.uq import GaussianPrior, NLMPosterior, feature_map, sign_dims
from deuq.uq.variational import VariationalParams


def _affine_jet(h: Jet2, W, b) -> Jet2:
    # the layer is linear, so each jet component maps through it independently
    Wt = W.T
    return Jet2(h.value @ Wt + b, h.d1 @ Wt, h.d2 @ Wt)


def forward_batch(config: nets.MLPConfig, weights: Sequence, biases: Sequence, x: Jet2) -> Jet2:
    """Evaluate the network on a batch jet with components of shape (n, input_dim).

    Weights may be numpy arrays or Var nodes; returns a jet with components
    of shape (n, output_dim).
    """
    act = nets._ACTIVATIONS[config.activation]
    h = x
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = _affine_jet(h, W, b)
        if i != last:
            h = act(h)
    return h


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
        u_by_dir[direction] = problems.enforce(raw, in_jets, problem.transform)
    loss = None
    for r in problems.residual(problem, u_by_dir, point_cols):
        term = (r * r).mean()
        loss = term if loss is None else loss + term
    return loss


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


def ode_reference(problem: problems.ProblemSpec, grid: np.ndarray,
                  rk4_step: float = 1e-3) -> np.ndarray:
    """`problems.reference_solution` for duffing and lotka_volterra, with
    array-valued right-hand sides on the array RK4 above."""
    c = problem.coefficients
    if problem.name == "duffing":
        def f(t, y):
            return np.array([y[1], -(c["omega"] ** 2) * y[0] - c["eps_nl"] * y[0] ** 3])
        y0 = np.array([c["u0"], c["du0"]])
    else:
        a, b, d, g = c["lv_alpha"], c["lv_beta"], c["lv_delta"], c["lv_gamma"]

        def f(t, y):
            u, v = y
            dv = d * u * v - g * v if c["lv_standard_form"] else -d * u + g * u * v
            return np.array([a * u - b * u * v, dv])
        y0 = np.array([c["u0"], c["v0"]])
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    order = np.argsort(grid[:, 0])
    path = rk4_path(f, problem.train_domain[0][0], y0, grid[order, 0], rk4_step)
    out = np.empty((grid.shape[0], problem.n_outputs))
    out[order] = path[:, :problem.n_outputs]
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


def kl_gaussian_diag(q: VariationalParams, prior: GaussianPrior) -> float:
    """Closed-form KL(q || prior) summed over all weights; zero iff equal."""
    sigma = q.sigma
    if q.config is None:
        if isinstance(prior.std, tuple):
            raise ConfigError("per-layer prior requires a network config")
        s = np.full_like(q.mu, float(prior.std))
    else:
        s = prior.per_param(q.config)
    return float(np.sum(np.log(s / sigma) + (sigma**2 + q.mu**2) / (2.0 * s**2) - 0.5))


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
