"""Acceptance criteria, one test per criterion, each printing a verdict line.

The heavyweight pipeline runs (stage 1 + each method + band + report) are
shared across criteria through a session cache, so the whole module stays
inside the stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from deuq import experiment, nets, problems, stage1
from oracles import Var, identity_head_args
from deuq.uq.der import EvidentialOutput, der_predictive
from deuq.uq.nlm import nlm_fit
from deuq.uq.predictive import enforce_predictive, posterior_predictive_mc
from deuq.uq.variational import VariationalParams, bbb_train, flipout_train
from oracles import central_diff_1, der_loss, central_diff_2, finite_diff_check, jet_forward, nlm_predict, seed_input, split_flat_var, values_batch

SEEDS = (0, 1, 2)
METHODS = ("bbb", "flipout", "nlm", "der")


def _announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


# ---------------------------------------------------------------------
# shared pipeline cache
# ---------------------------------------------------------------------


class _Runs:
    def __init__(self):
        self._stage1 = {}
        self._bands = {}

    def stage1(self, preset: str, seed: int) -> stage1.Stage1Result:
        key = (preset, seed)
        if key not in self._stage1:
            config = experiment.ExperimentConfig(preset=preset, method="bbb", seed=seed)
            self._stage1[key] = experiment.run_stage1(config)
        return self._stage1[key]

    def band_and_report(self, preset: str, method: str, seed: int):
        key = (preset, method, seed)
        if key not in self._bands:
            config = experiment.ExperimentConfig(preset=preset, method=method, seed=seed)
            band, _, _, report = experiment.score(config, self.stage1(preset, seed))
            self._bands[key] = (band, report)
        return self._bands[key]


@pytest.fixture(scope="module")
def runs():
    return _Runs()


# ---------------------------------------------------------------------
# 1. differentiation correctness
# ---------------------------------------------------------------------


def test_criterion_1_differentiation_correctness():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_jet = 0.0
    worst_grad = 0.0
    for case in range(100):
        n_layers = 1 + case % 3
        widths = tuple(int(w) for w in rng.integers(2, 7, size=n_layers))
        cfg = nets.MLPConfig(1, 1, widths, seed=int(rng.integers(0, 2**31)))
        params = nets.init(cfg)
        for W in params.weights:
            W += rng.normal(0.0, 0.3, W.shape)
        for b in params.biases:
            b += rng.normal(0.0, 0.2, b.shape)
        t0 = float(rng.uniform(-1.0, 1.0))

        def value(t):
            return nets.evaluate(params, np.array([[t]]))[0, 0]

        jet = jet_forward(params, [seed_input(t0, True)])[0]
        d1 = central_diff_1(value, t0, 1e-5)
        d2 = central_diff_2(value, t0, 1e-4)
        worst_jet = max(
            worst_jet,
            abs(jet.d1 - d1) / max(1.0, abs(d1)),
            abs(jet.d2 - d2) / max(1.0, abs(d2)),
        )

        x = rng.uniform(-1.0, 1.0, size=(8, 1))
        y = rng.uniform(-1.0, 1.0, size=(8, 1))

        def objective(flat):
            if isinstance(flat, Var):
                Ws, bs = split_flat_var(cfg, flat)
            else:
                p = nets.MLPParams.from_flat(cfg, flat)
                Ws, bs = p.weights, p.biases
            out = values_batch(cfg, Ws, bs, x)
            return ((out - y) ** 2).mean()

        worst_grad = max(worst_grad, finite_diff_check(objective, params.flat(), 1e-5))
    elapsed = time.time() - start
    ok = worst_jet < 1e-4 and worst_grad < 1e-4 and elapsed < 10.0
    _announce(
        "1 differentiation correctness",
        ok,
        f"jet err {worst_jet:.2e}, grad err {worst_grad:.2e}, {elapsed:.1f}s (<10s)",
    )
    assert worst_jet < 1e-4
    assert worst_grad < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------
# 2. stage-1 fidelity on the linear ODE
# ---------------------------------------------------------------------


def test_criterion_2_stage1_fidelity(runs):
    start = time.time()
    result = runs.stage1("linear_ode", 0)
    reference = problems.reference_solution(result.problem, result.dataset_points)
    max_err = float(np.max(np.abs(result.dataset_values - reference)))
    final_loss = result.loss_history[-1][1]
    elapsed = time.time() - start
    ok = max_err < 1e-2 and final_loss < 1e-4 and elapsed < 120.0
    _announce(
        "2 stage-1 fidelity (linear ODE)",
        ok,
        f"max |u~ - exact| {max_err:.2e} (<1e-2), final residual mse "
        f"{final_loss:.2e} (<1e-4), {elapsed:.0f}s (<120s)",
    )
    assert max_err < 1e-2
    assert final_loss < 1e-4
    assert elapsed < 120.0


# ---------------------------------------------------------------------
# 3. enforcement exactness for every preset and method
# ---------------------------------------------------------------------


def test_criterion_3_enforcement_exactness():
    # structural property of the enforced band: independent of training
    # quality, so reduced budgets keep this criterion affordable
    worst_mean = 0.0
    worst_std = 0.0
    fast = dict(
        epochs_stage1=200, epochs_stage2=150, n_collocation=12,
        dataset_grid=17, eval_grid=13, n_mc_samples=32,
    )
    for preset in problems.preset_names():
        for method in METHODS:
            config = experiment.ExperimentConfig(preset=preset, method=method, seed=0, **fast)
            result = experiment.run_stage1(config)
            band = experiment.run_method(config, result)
            mask, values = problems.condition_mask(result.problem, band.grid)
            assert mask.any()
            for k in range(result.problem.n_outputs):
                good = mask & ~np.isnan(values[:, k])
                worst_mean = max(worst_mean, float(np.max(np.abs(band.mean[good, k] - values[good, k]))))
                worst_std = max(worst_std, float(np.max(band.std[good, k])))
    ok = worst_mean <= 1e-15 and worst_std == 0.0
    _announce(
        "3 enforcement exactness",
        ok,
        f"max |mean - u_c| {worst_mean:.1e} (<=1e-15, machine precision), max std {worst_std:.1e} (= 0)",
    )
    assert worst_mean <= 1e-15
    assert worst_std == 0.0


# ---------------------------------------------------------------------
# 4. uncertainty inflation outside the training domain
# ---------------------------------------------------------------------


def test_criterion_4_uncertainty_inflation(runs):
    start = time.time()
    eps = experiment.ExperimentConfig().eps
    lines = []
    ok = True
    for preset in ("linear_ode", "duffing"):
        for method in METHODS:
            reports = [runs.band_and_report(preset, method, s)[1] for s in SEEDS]
            inflation = float(np.mean([r.inflation_ratio for r in reports]))
            std_train = float(np.mean([r.mean_std_train for r in reports]))
            good = inflation >= 5.0 and std_train <= 3.0 * eps
            ok &= good
            lines.append(f"{preset}/{method}: inflation {inflation:.1f} (>=5), "
                         f"std_train {std_train:.1e} (<={3*eps:.0e})")
    burgers_inflation = float(np.mean(
        [runs.band_and_report("burgers", "bbb", s)[1].inflation_ratio for s in SEEDS]
    ))
    ok &= burgers_inflation >= 2.0
    lines.append(f"burgers/bbb: inflation {burgers_inflation:.1f} (>=2)")
    elapsed = time.time() - start
    ok &= elapsed < 1800.0
    _announce("4 uncertainty inflation", ok, "; ".join(lines) + f"; {elapsed:.0f}s (<1800s)")
    for preset in ("linear_ode", "duffing"):
        for method in METHODS:
            reports = [runs.band_and_report(preset, method, s)[1] for s in SEEDS]
            assert float(np.mean([r.inflation_ratio for r in reports])) >= 5.0, (preset, method)
            assert float(np.mean([r.mean_std_train for r in reports])) <= 3.0 * eps, (preset, method)
    assert burgers_inflation >= 2.0
    assert elapsed < 1800.0


# ---------------------------------------------------------------------
# 5. conjugacy oracle
# ---------------------------------------------------------------------


def _brute_force_posterior(phi, y, eps, prior_std, half_width, n):
    d = phi.shape[1]
    axes = [np.linspace(-half_width, half_width, n)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    log_post = (
        -0.5 * np.sum((y[None, :] - W @ phi.T) ** 2, axis=1) / eps**2
        - 0.5 * np.sum(W**2, axis=1) / prior_std**2
    )
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    mean = W.T @ w
    centered = W - mean
    return mean, (centered * w[:, None]).T @ centered


def test_criterion_5_conjugacy_oracle():
    start = time.time()
    rng = np.random.default_rng(42)
    worst_mean = 0.0
    worst_var = 0.0
    for d, n_grid in ((1, 4001), (2, 601)):
        for _ in range(3):
            phi = rng.normal(size=(15, d))
            y = phi @ rng.normal(size=d) + rng.normal(scale=0.3, size=15)
            posterior = nlm_fit(phi, y, eps=0.3, prior_std=1.2)
            mean, cov = _brute_force_posterior(phi, y, 0.3, 1.2, 4.0, n_grid)
            worst_mean = max(worst_mean, float(np.max(np.abs(posterior.posterior_mean - mean))))
            worst_var = max(
                worst_var,
                float(np.max(np.abs(np.diag(posterior.posterior_cov) - np.diag(cov))
                             / np.diag(cov))),
            )
    elapsed = time.time() - start
    ok = worst_mean < 1e-3 and worst_var < 1e-2 and elapsed < 60.0
    _announce(
        "5 conjugacy oracle",
        ok,
        f"mean err {worst_mean:.2e} (<1e-3), var rel err {worst_var:.2e} (<1e-2), "
        f"{elapsed:.1f}s (<60s)",
    )
    assert worst_mean < 1e-3
    assert worst_var < 1e-2
    assert elapsed < 60.0


# ---------------------------------------------------------------------
# 6. Monte Carlo band matches the analytic band
# ---------------------------------------------------------------------


def test_criterion_6_mc_matches_analytic():
    # last-layer-only Gaussian model: a frozen random hidden layer supplies
    # the feature basis, a diagonal Gaussian sits on the final layer, and
    # the MC route must reproduce the closed-form route point for point
    start = time.time()
    from deuq.uq.nlm import NLMPosterior, feature_map
    from deuq.uq.predictive import nlm_band

    cfg = nets.MLPConfig(1, 1, (6,), activation="tanh", seed=4)
    frozen = nets.init(cfg)
    rng = np.random.default_rng(1)
    for W in frozen.weights:
        W += rng.normal(0.0, 0.5, W.shape)
    for b in frozen.biases:
        b += rng.normal(0.0, 0.3, b.shape)

    d = 7  # 6 hidden features + constant
    last_mean = rng.normal(0.0, 0.6, size=d)
    last_std = rng.uniform(0.05, 0.4, size=d)
    posterior = NLMPosterior(
        feature_params=frozen,
        posterior_mean=last_mean,
        posterior_cov=np.diag(last_std**2),
    )
    grid = np.linspace(0.0, 3.0, 41).reshape(-1, 1)
    analytic = nlm_band([posterior], grid)

    mu = frozen.flat().copy()
    rho = np.full(cfg.n_params, -60.0)  # sigma = 0 outside the last layer
    # canonical tail of the flat vector: W2 row (6 entries) then bias b2
    mu[-d:] = last_mean
    rho[-d:] = np.log(np.expm1(last_std))
    q = VariationalParams(cfg, mu, rho)
    band = posterior_predictive_mc(q, cfg, grid, n_samples=100_000, seed=7)

    rel = np.abs(band.std - analytic.std) / analytic.std
    mean_dev = float(np.max(np.abs(band.mean - analytic.mean)))
    elapsed = time.time() - start
    ok = float(np.max(rel)) < 0.05 and elapsed < 120.0
    _announce(
        "6 MC vs analytic band",
        ok,
        f"max rel std dev {float(np.max(rel)):.3f} (<0.05), mean dev {mean_dev:.2e}, "
        f"{elapsed:.0f}s (<120s)",
    )
    assert float(np.max(rel)) < 0.05
    assert elapsed < 120.0


# ---------------------------------------------------------------------
# 7. flipout reduces to the shared scheme under unit signs
# ---------------------------------------------------------------------


def test_criterion_7_flipout_reduction():
    x = np.linspace(0.0, 1.0, 24).reshape(-1, 1)
    args = identity_head_args(x, np.sin(2.0 * x), nets.MLPConfig(1, 1, (8,), seed=3))
    settings = dict(eps=1e-2, prior_std=1.0, epochs=300, lr=1e-2, seed=11)
    shared = bbb_train(*args, **settings)
    forced = flipout_train(*args, **settings, unit_signs=True)
    equal = shared.loss_history == forced.loss_history
    _announce(
        "7 flipout reduction",
        equal,
        f"loss traces identical over {len(shared.loss_history)} steps: {equal}",
    )
    assert equal
    np.testing.assert_array_equal(shared.mu, forced.mu)
    np.testing.assert_array_equal(shared.rho, forced.rho)


# ---------------------------------------------------------------------
# 8. evidential formulas
# ---------------------------------------------------------------------


def test_criterion_8_der_behavior():
    rng = np.random.default_rng(5)
    monotone = True
    for _ in range(100):
        nu, alpha, beta = rng.uniform(0.1, 10.0), rng.uniform(1.1, 10.0), rng.uniform(0.1, 10.0)
        bump = rng.uniform(0.05, 3.0)
        _, s = der_predictive(EvidentialOutput(0.0, nu, alpha, beta))
        _, s_a = der_predictive(EvidentialOutput(0.0, nu, alpha + bump, beta))
        _, s_n = der_predictive(EvidentialOutput(0.0, nu + bump, alpha, beta))
        monotone &= s_a < s and s_n < s

    target = 0.42
    gammas = np.linspace(target - 1.5, target + 1.5, 3001)
    nll = [der_loss(EvidentialOutput(g, 0.9, 2.1, 0.7), target) for g in gammas]
    argmin_ok = abs(gammas[int(np.argmin(nll))] - target) < 1e-3

    out = EvidentialOutput(0.0, 1.0, 2.0, 1.0)
    reg = der_loss(out, 1.0, 0.25) - der_loss(out, 1.0, 0.0)
    reg_ok = math.isclose(reg, 0.25 * 4.0, rel_tol=1e-12)

    ok = monotone and argmin_ok and reg_ok
    _announce(
        "8 DER behavior",
        ok,
        f"variance monotone in alpha,nu over 100 tuples: {monotone}; "
        f"NLL minimized at gamma=target: {argmin_ok}; regularizer hand value: {reg_ok}",
    )
    assert monotone and argmin_ok and reg_ok


# ---------------------------------------------------------------------
# 9. coverage sanity on the linear ODE
# ---------------------------------------------------------------------


def test_criterion_9_coverage(runs):
    lines = []
    ok = True
    for method in METHODS:
        coverages = [runs.band_and_report("linear_ode", method, s)[1].coverage_k2 for s in SEEDS]
        avg = float(np.mean(coverages))
        ok &= avg >= 0.9
        lines.append(f"{method}: {avg:.3f}")
    _announce("9 coverage sanity (2 sigma, linear ODE)", ok, "; ".join(lines) + " (>=0.90)")
    for method in METHODS:
        avg = float(np.mean(
            [runs.band_and_report("linear_ode", method, s)[1].coverage_k2 for s in SEEDS]
        ))
        assert avg >= 0.9, method


# ---------------------------------------------------------------------
# 10. byte-identical reproducibility
# ---------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    fast = dict(
        epochs_stage1=400, epochs_stage2=300, n_collocation=16,
        dataset_grid=33, eval_grid=31, n_mc_samples=128,
    )
    config = dict(preset="linear_ode", method="bbb", seed=123, output_dir=str(tmp_path / "a"), **fast)
    first = experiment.run(experiment.ExperimentConfig(**config))
    config["output_dir"] = str(tmp_path / "b")
    second = experiment.run(experiment.ExperimentConfig(**config))
    identical = first.band_csv.read_bytes() == second.band_csv.read_bytes()
    _announce("10 reproducibility", identical, f"band CSVs byte-identical: {identical}")
    assert identical
