import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from deuq import problems
from deuq.autodiff import Jet2, exp
from deuq.errors import ConfigError, OracleError, StructuralError
from oracles import cole_hopf_hermite, crank_nicolson_burgers, enforce, ode_reference, seed_input


def _jet_solution_linear(t):
    tj = seed_input(t, True)
    return exp(-(tj * tj)), tj


def test_linear_ode_residual_vanishes_on_analytic_solution():
    p = problems.linear_ode()
    for t in np.linspace(0.0, 2.0, 9):
        uj, _ = _jet_solution_linear(float(t))
        r = problems.residual(p, {0: [uj]}, (float(t),))
        assert abs(r[0]) < 1e-8


def test_linear_ode_residual_of_constant_one():
    p = problems.linear_ode()
    r = problems.residual(p, {0: [Jet2(1.0, 0.0, 0.0)]}, (1.0,))
    assert r[0] == pytest.approx(2.0)


def test_burgers_residual_of_constant():
    p = problems.burgers()
    jets = {0: [Jet2(3.0, 0.0, 0.0)], 1: [Jet2(3.0, 0.0, 0.0)]}
    assert problems.residual(p, jets, (0.2, 0.4))[0] == 0.0


def test_residual_missing_direction():
    p = problems.burgers()
    with pytest.raises(StructuralError):
        problems.residual(p, {0: [Jet2(1.0, 0.0, 0.0)]}, (0.0, 0.0))


def test_enforce_at_condition_point_ignores_raw():
    p = problems.linear_ode()
    out = enforce([Jet2(123.0, 5.0, -7.0)], [seed_input(0.0, True)], p.transform)
    assert out[0].value == 1.0


def test_enforce_hand_value_at_log2():
    p = problems.linear_ode()
    t = seed_input(math.log(2.0), True)
    out = enforce([Jet2(1.0, 0.0, 0.0)], [t], p.transform)
    assert out[0].value == pytest.approx(1.5)


def test_enforce_far_field_limit():
    p = problems.linear_ode(extrap_domain=(0.0, 60.0))
    t = seed_input(50.0, True)
    out = enforce([Jet2(2.0, 0.0, 0.0)], [t], p.transform)
    assert out[0].value == pytest.approx(1.0 + 2.0, rel=1e-12)


@pytest.mark.parametrize("name", problems.preset_names())
@settings(max_examples=250, deadline=None)
@given(raw=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_enforcement_exact_at_every_condition(name, raw):
    p = problems.make_preset(name)
    grid = problems.grid_points(p.train_domain, 9)
    mask, values = problems.condition_mask(p, grid)
    assert mask.any()
    A, B = problems.transform_values(p.transform, grid)
    enforced = A + B * raw
    for k in range(p.n_outputs):
        good = mask & ~np.isnan(values[:, k])
        assert np.all(B[good, k] == 0.0)
        np.testing.assert_allclose(enforced[good, k], values[good, k], atol=1e-15)


def test_duffing_transform_pins_value_and_slope():
    p = problems.duffing(u0=2.0, du0=-0.3)
    out = enforce([Jet2(7.0, 11.0, 13.0)], [seed_input(0.0, True)], p.transform)
    assert out[0].value == 2.0
    assert out[0].d1 == pytest.approx(-0.3, abs=1e-15)


def test_enforce_jets_match_finite_differences():
    # raw(t) = sin(1.3 t) + 0.2, an arbitrary smooth stand-in for a network
    p = problems.duffing()

    def enforced(t):
        tj = seed_input(t, True)
        rawj = Jet2(
            math.sin(1.3 * t) + 0.2,
            1.3 * math.cos(1.3 * t),
            -1.69 * math.sin(1.3 * t),
        )
        return enforce([rawj], [tj], p.transform)[0]

    t0 = 0.8
    h = 1e-4
    vals = [enforced(t0 - h).value, enforced(t0).value, enforced(t0 + h).value]
    out = enforced(t0)
    assert out.d1 == pytest.approx((vals[2] - vals[0]) / (2 * h), rel=1e-4)
    assert out.d2 == pytest.approx((vals[2] - 2 * vals[1] + vals[0]) / h**2, rel=1e-3)


def test_reference_linear_ode():
    p = problems.linear_ode()
    val = problems.reference_solution(p, np.array([[1.0]]))[0, 0]
    assert val == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_reference_duffing_harmonic_limit():
    p = problems.duffing(eps_nl=0.0, extrap_domain=(0.0, 4.0))
    val = problems.reference_solution(p, np.array([[math.pi]]))[0, 0]
    assert val == pytest.approx(math.cos(math.pi), abs=1e-6)


def test_rk4_step_halving_converges():
    p = problems.lotka_volterra()
    grid = np.linspace(0.0, 2.0, 41).reshape(-1, 1)
    coarse = problems.reference_solution(p, grid, rk4_step=1e-3)
    fine = problems.reference_solution(p, grid, rk4_step=5e-4)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_rk4_nonfinite_raises_oracle_error():
    from deuq.problems import rk4_path

    with pytest.raises(OracleError):
        rk4_path(lambda t, y: (y[0] * y[0],), 0.0, (3.0,), np.array([5.0]), 1e-2)


def test_duffing_reference_with_huge_start_raises_oracle_error():
    # u0^3 overflows: numpy would give inf, Python floats raise OverflowError
    p = problems.duffing(u0=1e200)
    with pytest.raises(OracleError):
        problems.reference_solution(p, np.array([[1.0]]))


@pytest.mark.parametrize("name,overrides", [
    ("duffing", {}),
    ("duffing", {"eps_nl": 0}),
    ("lotka_volterra", {}),
    ("lotka_volterra", {"lv_standard_form": True}),
])
def test_rk4_reference_equals_the_array_oracle_bit_for_bit(name, overrides):
    p = problems.make_preset(name, **overrides)
    grid = problems.grid_points(p.extrap_domain, 37)[::-1]  # unsorted on purpose
    np.testing.assert_array_equal(problems.reference_solution(p, grid),
                                  ode_reference(p, grid))


@pytest.mark.parametrize("visc", [0.1, 0.05])
def test_cole_hopf_series_matches_gauss_hermite(visc):
    p = problems.burgers(visc=visc)
    grid = problems.grid_points(p.extrap_domain, 41)
    grid = grid[grid[:, 1] > 0.0]  # the quadrature needs t > 0
    np.testing.assert_allclose(problems.reference_solution(p, grid)[:, 0],
                               cole_hopf_hermite(visc, grid[:, 0], grid[:, 1]), rtol=0, atol=1e-12)


def test_crank_nicolson_converges_to_the_burgers_reference():
    # halving both steps of the second-order scheme should cut its error about 4x
    p = problems.burgers(t_train=(0.0, 0.2), t_extrap=(0.0, 0.25))
    times = np.linspace(0.05, 0.25, 5)
    errors = []
    for nx, dt in ((513, 5e-4), (1025, 2.5e-4)):
        x, t, u = crank_nicolson_burgers(0.1, -1.0, 1.0, 0.25, nx=nx, dt=dt)
        rows = np.rint(times / dt).astype(int)
        grid = np.column_stack([np.tile(x, rows.size), np.repeat(t[rows], x.size)])
        exact = problems.reference_solution(p, grid)[:, 0]
        errors.append(np.max(np.abs(u[rows].ravel() - exact)))
    assert errors[0] < 3e-5
    assert errors[1] < errors[0] / 3.0


@pytest.fixture
def integrations(monkeypatch):
    """Start from an empty reference memo and count the RK4 solves behind it."""
    monkeypatch.setattr(problems, "_reference_memo", {})
    calls = {"rk4": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(problems, "rk4_path", counted("rk4", problems.rk4_path))
    return calls


def test_reference_memo_integrates_a_repeated_ode_grid_once(integrations):
    p = problems.make_preset("duffing")
    grid = problems.grid_points(p.extrap_domain, 41)
    first = problems.reference_solution(p, grid)
    again = problems.reference_solution(p, grid)
    shuffled = problems.reference_solution(p, grid[::-1])
    assert integrations["rk4"] == 1
    np.testing.assert_array_equal(first, ode_reference(p, grid))
    np.testing.assert_array_equal(again, first)
    np.testing.assert_array_equal(shuffled, first[::-1])


@pytest.mark.parametrize("change", ["grid", "rk4_step", "lv_standard_form"])
def test_reference_memo_integrates_again_when_a_key_part_changes(integrations, change):
    p = problems.make_preset("lotka_volterra")
    grid = problems.grid_points(p.extrap_domain, 41)
    step = 1e-3
    problems.reference_solution(p, grid, rk4_step=step)
    if change == "grid":
        grid = problems.grid_points(p.extrap_domain, 43)
    elif change == "rk4_step":
        step = 5e-4
    else:
        p = problems.make_preset("lotka_volterra", lv_standard_form=True)
    out = problems.reference_solution(p, grid, rk4_step=step)
    assert integrations["rk4"] == 2
    np.testing.assert_array_equal(out, ode_reference(p, grid, rk4_step=step))


def test_reference_memo_returns_fresh_arrays(integrations):
    p = problems.make_preset("lotka_volterra")
    grid = problems.grid_points(p.extrap_domain, 41)
    problems.reference_solution(p, grid)[:] = np.nan
    np.testing.assert_array_equal(problems.reference_solution(p, grid), ode_reference(p, grid))
    assert integrations["rk4"] == 1


def test_burgers_reference_leaves_the_memo_empty(integrations):
    p = problems.burgers()
    grid = problems.grid_points(p.extrap_domain, 9)
    problems.reference_solution(p, grid)[:] = np.nan
    np.testing.assert_array_equal(problems.reference_solution(p, grid)[:, 0],
                                  problems._cole_hopf_burgers(0.1, grid[:, 0], grid[:, 1]))
    assert problems._reference_memo == {}


def test_burgers_reference_raises_oracle_error_at_small_viscosity():
    grid = np.array([[0.0, 0.5]])
    problems.reference_solution(problems.burgers(visc=0.035), grid)
    with pytest.raises(OracleError, match="viscosity 0.03"):
        problems.reference_solution(problems.burgers(visc=0.03), grid)


def test_reference_memo_does_not_store_an_oracle_error(integrations):
    p = problems.duffing(u0=1e200)
    for _ in range(2):
        with pytest.raises(OracleError):
            problems.reference_solution(p, np.array([[1.0]]))
    assert integrations["rk4"] == 2


def test_lv_standard_form_switch():
    printed = problems.lotka_volterra()
    standard = problems.lotka_volterra(lv_standard_form=True)
    jets = {0: [Jet2(1.2, 0.0, 0.0), Jet2(0.7, 0.0, 0.0)]}
    r_printed = problems.residual(printed, jets, (0.5,))
    r_standard = problems.residual(standard, jets, (0.5,))
    assert r_printed[0] == r_standard[0]
    # printed: v' + d u - g u v ; standard: v' + g v - d u v
    assert r_printed[1] == pytest.approx(1.2 - 1.2 * 0.7)
    assert r_standard[1] == pytest.approx(0.7 - 1.2 * 0.7)


def test_burgers_reference_matches_initial_profile():
    p = problems.burgers()
    xs = np.linspace(-1.0, 1.0, 17)
    grid = np.stack([xs, np.zeros_like(xs)], axis=1)
    vals = problems.reference_solution(p, grid)[:, 0]
    np.testing.assert_allclose(vals, -np.sin(np.pi * xs), atol=1e-12)


def test_burgers_reference_odd_symmetry():
    # the equation preserves the odd symmetry of the initial profile
    p = problems.burgers()
    xs = np.linspace(-1.0, 1.0, 21)
    grid = np.stack([xs, np.full_like(xs, 0.8)], axis=1)
    vals = problems.reference_solution(p, grid)[:, 0]
    np.testing.assert_allclose(vals, -vals[::-1], atol=1e-10)


def test_burgers_oracle_satisfies_pde_on_grid():
    p = problems.burgers()
    h = 1e-4
    x = np.linspace(-0.95, 0.95, 39)

    def u(dx, t):
        return problems.reference_solution(p, np.column_stack([x + dx, np.full_like(x, t)]))[:, 0]

    for t in (0.1, 0.5, 1.0, 1.4):
        u_t = (u(0.0, t + h) - u(0.0, t - h)) / (2 * h)
        u_x = (u(h, t) - u(-h, t)) / (2 * h)
        u_xx = (u(h, t) - 2 * u(0.0, t) + u(-h, t)) / h**2
        residual = u_t + u(0.0, t) * u_x - 0.1 * u_xx
        assert np.max(np.abs(residual)) < 1e-6


def test_preset_domain_validation():
    with pytest.raises(ConfigError):
        problems.linear_ode(train_domain=(0.0, 2.0), extrap_domain=(0.0, 2.0))
    with pytest.raises(ConfigError):
        problems.burgers(visc=0.0)
    with pytest.raises(ConfigError):
        problems.burgers(x_domain=(-0.5, 1.0))
    with pytest.raises(ConfigError):
        problems.make_preset("heat_equation")


def test_reference_grid_outside_extrap_domain():
    p = problems.linear_ode()
    with pytest.raises(ConfigError):
        problems.reference_solution(p, np.array([[4.0]]))


def test_grid_points_product_order():
    grid = problems.grid_points(((0.0, 1.0), (0.0, 2.0)), 3)
    assert grid.shape == (9, 2)
    np.testing.assert_array_equal(grid[0], [0.0, 0.0])
    np.testing.assert_array_equal(grid[1], [0.0, 1.0])  # second coordinate fastest
    np.testing.assert_array_equal(grid[-1], [1.0, 2.0])


@pytest.mark.parametrize("visc", [0.035, 0.05, 0.1, 0.5, 2.0])
def test_scaled_bessel_series_matches_scipy(visc):
    z = 1.0 / (2.0 * math.pi * visc)
    coef = problems._scaled_bessel(z)
    ref = ive(np.arange(coef.size), z)
    assert np.max(np.abs(coef - ref) / ref) <= 1e-13
    # the first order dropped is below the floor the series keeps to
    assert ive(coef.size, z) < np.finfo(float).eps * math.exp(-2.0 * z)
