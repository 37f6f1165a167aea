"""Output check for one pipeline run, independent of the program's own reader.

A run passes when:
- the four artifacts (band CSV, stage-1 JSON, report JSON, config echo) exist;
- the band CSV sits on the configured evaluation grid, every value in it is
  finite and every std is >= 0;
- at each grid point that `problems.condition_mask` marks, std is exactly 0
  and the mean equals the conditioned value to the CSV's 9 significant
  digits (the Burgers boundary mean is -sin(+-pi), about 1e-16, not 0);
- every number in the report is finite.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# 9 significant digits in the CSV, plus an absolute floor for values near 0
_REL_TOL = 1e-8
_ABS_TOL = 1e-12


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_band(path) -> np.ndarray:
    """The values of a band CSV, header skipped, one row per grid point."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)


def check_run(experiment, problems, config, paths) -> list[str]:
    """Problems found in one run's artifacts; empty when the run is correct."""
    errors: list[str] = []
    for field in ("band_csv", "stage1_json", "report_json", "config_json"):
        if not Path(getattr(paths, field)).is_file():
            errors.append(f"missing artifact {field}")
    if errors:
        return errors

    resolved = config.resolved()
    problem = experiment.build_problem(config)
    grid = problems.grid_points(problem.extrap_domain, resolved["eval_grid"])
    data = read_band(paths.band_csv)
    n_coords = problem.input_dim
    k = problem.n_outputs
    if data.shape != (grid.shape[0], n_coords + 3 * k + 1):
        return [f"band CSV has shape {data.shape}, expected {grid.shape[0]} rows "
                f"of {n_coords + 3 * k + 1} columns"]
    if not np.all(np.isfinite(data)):
        errors.append("band CSV holds a non-finite value")
    if not np.allclose(data[:, :n_coords], grid, rtol=_REL_TOL, atol=_ABS_TOL):
        errors.append("band CSV coordinates are not the evaluation grid")
    mean = data[:, n_coords : n_coords + 3 * k : 3]
    std = data[:, n_coords + 1 : n_coords + 3 * k : 3]
    if np.any(std < 0.0):
        errors.append("band CSV holds a negative std")

    mask, values = problems.condition_mask(problem, grid)
    if not mask.any():
        errors.append("evaluation grid holds no condition location")
    for out in range(k):
        pinned = mask & ~np.isnan(values[:, out])
        if np.any(std[pinned, out] != 0.0):
            errors.append(f"output {out}: std is not 0 at a condition location")
        gap = np.abs(mean[pinned, out] - values[pinned, out])
        if np.any(gap > _ABS_TOL + _REL_TOL * np.abs(values[pinned, out])):
            errors.append(f"output {out}: mean misses the conditioned value")

    report = json.loads(Path(paths.report_json).read_text())
    for key, value in report.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and not math.isfinite(value):
            errors.append(f"report field {key} is not finite")
    return errors
