#!/usr/bin/env python3
"""Run every (preset, method) pair and print a summary table.

This reproduces the headline qualitative result: tight predictive bands on
the training domain that widen outside it, with conditions carrying zero
uncertainty. Band CSVs land in the output directory for plotting. The
summary records the sha256 of each pair's band CSV, report JSON, stage-1
file and config echo (the echo without its `output_dir`), so two summaries
at one seed show whether a change kept every file byte for byte, and the
wall time of each pair's `experiment.run` call as `wall_s` (it includes
the stage-1 solve only where the pair did not reuse a cached one).

With `--compare OLD_SUMMARY.json` the script prints nothing but the files
whose sha256 differs from that summary and exits 1 if there is any: the
byte check of a change against its parent at one seed. Each such file
gets a line naming its kind (band, report, stage1 or config), then how far
it moved, read against the file of the same name next to the old summary:
for a band, the largest |Δ| in each value column (mean, std, reference);
for a report, the relative change of each numeric field; for a stage-1
file or a config echo, the top-level keys whose values differ. A stage-1
file, which the pairs of one preset share, is named once.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from deuq import experiment


def _band_columns(path: Path) -> dict:
    header = path.read_text().split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)
            if name.split("_")[0] in ("mean", "std", "reference")}


def _band_changes(old: Path, new: Path) -> str:
    old, new = _band_columns(old), _band_columns(new)
    return "band max |Δ|: " + " ".join(
        f"{name}={np.max(np.abs(new[name] - old[name])):.2e}" for name in new)


def _report_changes(old: Path, new: Path) -> str:
    old, new = json.loads(old.read_text()), json.loads(new.read_text())
    return "report relative Δ: " + " ".join(
        f"{key}={abs(new[key] - old[key]) / abs(old[key]) if old[key] else abs(new[key]):.2e}"
        for key in sorted(new) if isinstance(new[key], float))


def _key_changes(old: Path, new: Path) -> str:
    old, new = json.loads(old.read_text()), json.loads(new.read_text())
    keys = sorted(k for k in old.keys() | new.keys()
                  if k != "output_dir" and old.get(k) != new.get(k))
    return "keys that differ: " + (", ".join(keys) or "none")


# file kind -> how far a file of that kind moved from the old one
CHANGES = {"band": _band_changes, "report": _report_changes,
           "stage1": _key_changes, "config": _key_changes}


def _digest(kind: str, path: Path) -> str:
    """sha256 of the file; of a config echo, without its output directory."""
    data = Path(path).read_bytes()
    if kind == "config":
        echo = json.loads(data)
        echo.pop("output_dir")
        data = json.dumps(echo, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/matrix", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--presets", nargs="*",
                        default=["linear_ode", "duffing", "lotka_volterra", "burgers"])
    parser.add_argument("--methods", nargs="*", default=list(experiment.METHODS))
    parser.add_argument("--compare", type=Path, metavar="OLD_SUMMARY.json",
                        help="print only the files whose sha256 differs")
    args = parser.parse_args()
    old = json.loads(args.compare.read_text()) if args.compare else None

    rows, files = [], {}
    for preset in args.presets:
        for method in args.methods:
            config = experiment.ExperimentConfig(
                preset=preset, method=method, seed=args.seed, output_dir=args.out,
            )
            start = time.perf_counter()
            paths = experiment.run(config)
            wall_s = time.perf_counter() - start
            report = json.loads(Path(paths.report_json).read_text())
            kinds = {"band": paths.band_csv, "report": paths.report_json,
                     "stage1": paths.stage1_json, "config": paths.config_json}
            digests = {f"{kind}_sha256": _digest(kind, path) for kind, path in kinds.items()}
            rows.append((preset, method, {**report, **digests, "wall_s": wall_s}))
            files[f"{preset}/{method}"] = kinds
            if old is not None:
                continue
            inflation = report["inflation_ratio"]  # null for a band flat inside
            print(
                f"{preset:15s} {method:8s} "
                f"coverage={report['coverage_k2']:.3f} "
                f"inflation={'null' if inflation is None else format(inflation, '8.2f'):>8s} "
                f"std_train={report['mean_std_train']:.2e} "
                f"rmse={report['rmse_train']:.2e} "
                f"wall={wall_s:7.2f}s",
                flush=True,
            )

    summary = {f"{p}/{m}": r for p, m, r in rows}
    summary_path = Path(args.out) / f"summary_seed{args.seed}.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2))
    if old is None:
        print(f"\nsummary: {summary_path}")
        return
    differ = set()
    for pair, row in summary.items():
        for kind, path in files[pair].items():
            if row[f"{kind}_sha256"] == old.get(pair, {}).get(f"{kind}_sha256") or path in differ:
                continue
            differ.add(path)
            old_path = args.compare.parent / path.name
            moved = (CHANGES[kind](old_path, path) if old_path.exists()
                     else f"no {old_path.name} in {old_path.parent}")
            print(f"{path.name}: {kind} sha256 differs\n  {moved}", flush=True)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
