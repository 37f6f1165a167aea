"""Workload compositions: a workload seed becomes the run configs of one pass.

Every pass of a workload runs the same configs in a fresh output directory,
so stage 1 is solved (and then reused from the stage-1 cache) exactly as a
new `deuq run` sequence would. The program only ever receives these
configs; the workload seed reaches it through the run seeds derived here.

Budgets are cut from the pipeline defaults so that one pass takes a few
seconds on one core and a run of the benchmark holds several passes.
"""

from __future__ import annotations

import hashlib

ODE_PRESETS = ("linear_ode", "duffing", "lotka_volterra")
METHODS = ("bbb", "flipout", "nlm", "der")

# burgers_solve: the stage-1 solve on (1024, 32) jet arrays dominates
SOLVE_SEEDS = 2
SOLVE_EPOCHS_STAGE1 = 250
SOLVE_EPOCHS_STAGE2 = 100

# ode_matrix: small arrays, so per-op Python overhead dominates
ODE_EPOCHS_STAGE1 = 600
ODE_EPOCHS_STAGE2 = {"bbb": 1000, "flipout": 500, "nlm": 1000, "der": 250}

# burgers_bands: stage 2 and the band on the 37 x 37 grid dominate
BANDS_EPOCHS_STAGE1 = 100
BANDS_EPOCHS_STAGE2 = 120

N_MC_SAMPLES = 1000

WORKLOADS = ("burgers_solve", "ode_matrix", "burgers_bands")


def run_seeds(workload: str, seed: int, count: int) -> list[int]:
    """`count` distinct 31-bit run seeds derived from the workload seed."""
    out: list[int] = []
    i = 0
    while len(out) < count:
        digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
        value = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        if value not in out:
            out.append(value)
        i += 1
    return out


def configs(workload: str, seed: int, output_dir: str) -> list[dict]:
    """ExperimentConfig keyword arguments of one pass, in run order."""
    if workload == "burgers_solve":
        return [
            dict(preset="burgers", method="nlm", seed=s,
                 epochs_stage1=SOLVE_EPOCHS_STAGE1, epochs_stage2=SOLVE_EPOCHS_STAGE2,
                 output_dir=output_dir)
            for s in run_seeds(workload, seed, SOLVE_SEEDS)
        ]
    if workload == "ode_matrix":
        (s,) = run_seeds(workload, seed, 1)
        return [
            dict(preset=preset, method=method, seed=s,
                 epochs_stage1=ODE_EPOCHS_STAGE1,
                 epochs_stage2=ODE_EPOCHS_STAGE2[method],
                 n_mc_samples=N_MC_SAMPLES, output_dir=output_dir)
            for preset in ODE_PRESETS
            for method in METHODS
        ]
    if workload == "burgers_bands":
        (s,) = run_seeds(workload, seed, 1)
        return [
            dict(preset="burgers", method=method, seed=s,
                 epochs_stage1=BANDS_EPOCHS_STAGE1, epochs_stage2=BANDS_EPOCHS_STAGE2,
                 n_mc_samples=N_MC_SAMPLES, output_dir=output_dir)
            for method in METHODS
        ]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
