#!/usr/bin/env python3
"""Margin ledger: the acceptance pipelines of criteria 2, 4 and 9 over seeds.

    PYTHONPATH=src python3 scripts/margins.py --seeds 6 --out margins.json

For seeds 0 to N-1 it runs `experiment.run_stage1` and `experiment.score`
with the default settings, as tests/test_acceptance.py does: linear_ode and
duffing with all four methods, burgers with bbb and der. It writes JSON with
- per preset x method: the min, median and max over seeds of the inflation
  ratio, std_train, 2-sigma coverage and RMSE of the band's report;
- per preset: the same spread of the stage-1 final loss and of the max
  error against the reference on the dataset grid;
- the wall time of each phase, summed over seeds.

The criteria keep their own seeds 0-2 and bounds; the ledger shows how far
each margin moves from seed to seed, so a change can be read against it.
"""

import argparse
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from deuq import experiment, problems

METHODS = ("bbb", "flipout", "nlm", "der")
CASES = {"linear_ode": METHODS, "duffing": METHODS, "burgers": ("bbb", "der")}
REPORT_KEYS = {"inflation": "inflation_ratio", "std_train": "mean_std_train",
               "coverage": "coverage_k2", "rmse": "rmse_train"}


def spread(values: list) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=6, help="run seeds 0 .. N-1")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()

    stage1_values = defaultdict(lambda: defaultdict(list))
    band_values = defaultdict(lambda: defaultdict(list))
    wall_s = defaultdict(float)
    for preset, methods in CASES.items():
        for seed in range(args.seeds):
            start = time.perf_counter()
            result = experiment.run_stage1(
                experiment.ExperimentConfig(preset=preset, method=methods[0], seed=seed))
            wall_s[f"{preset}/stage1"] += time.perf_counter() - start
            reference = problems.reference_solution(result.problem, result.dataset_points)
            stage1_values[preset]["final_loss"].append(result.loss_history[-1][1])
            stage1_values[preset]["max_error"].append(
                float(np.max(np.abs(result.dataset_values - reference))))
            for method in methods:
                start = time.perf_counter()
                config = experiment.ExperimentConfig(preset=preset, method=method, seed=seed)
                report = experiment.score(config, result)[3]
                wall_s[f"{preset}/{method}"] += time.perf_counter() - start
                for key, field in REPORT_KEYS.items():
                    band_values[f"{preset}/{method}"][key].append(getattr(report, field))
            print(f"{preset} seed {seed}: final loss {stage1_values[preset]['final_loss'][-1]:.3g}",
                  flush=True)

    ledger = {
        "seeds": list(range(args.seeds)),
        "stage1": {p: {k: spread(v) for k, v in d.items()} for p, d in stage1_values.items()},
        "bands": {c: {k: spread(v) for k, v in d.items()} for c, d in band_values.items()},
        "wall_s": {k: round(v, 2) for k, v in wall_s.items()},
    }
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    for case, values in ledger["bands"].items():
        print(case, " ".join(f"{k}={v['min']:.3g}/{v['median']:.3g}/{v['max']:.3g}"
                             for k, v in values.items()))


if __name__ == "__main__":
    main()
