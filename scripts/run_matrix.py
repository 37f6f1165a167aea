#!/usr/bin/env python3
"""Run every (preset, method) pair and print a summary table.

This reproduces the headline qualitative result: tight predictive bands on
the training domain that widen outside it, with conditions carrying zero
uncertainty. Band CSVs land in the output directory for plotting. The
summary records the sha256 of each band CSV and report JSON, so two
summaries at one seed show whether a change kept every band byte for byte,
and the wall time of each pair's `experiment.run` call as `wall_s` (it
includes the stage-1 solve only where the pair did not reuse a cached one).

With `--compare OLD_SUMMARY.json` the script prints nothing but the pairs
whose band or report sha256 differs from that summary and exits 1 if there
is any: the byte check of a change against its parent at one seed. Each
such pair gets a line naming the digests that differ, then how far the
files moved, read against the band CSV and report of the same name next
to the old summary: the largest |Δ| in each value column of the band
(mean, std, reference) and the relative change of each numeric report
field.
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


def _changes(old_dir: Path, band_csv: Path, report_json: Path) -> list[str]:
    """How far a pair's band and report moved from the old files of the same name."""
    old_band, old_report = old_dir / band_csv.name, old_dir / report_json.name
    if not (old_band.exists() and old_report.exists()):
        return [f"  no {old_band.name} or {old_report.name} in {old_dir}"]
    old, new = _band_columns(old_band), _band_columns(band_csv)
    band = " ".join(f"{name}={np.max(np.abs(new[name] - old[name])):.2e}" for name in new)
    old, new = json.loads(old_report.read_text()), json.loads(report_json.read_text())
    report = " ".join(
        f"{key}={abs(new[key] - old[key]) / abs(old[key]) if old[key] else abs(new[key]):.2e}"
        for key in sorted(new) if isinstance(new[key], float))
    return [f"  band max |Δ|: {band}", f"  report relative Δ: {report}"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/matrix", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--presets", nargs="*",
                        default=["linear_ode", "duffing", "lotka_volterra", "burgers"])
    parser.add_argument("--methods", nargs="*", default=list(experiment.METHODS))
    parser.add_argument("--compare", type=Path, metavar="OLD_SUMMARY.json",
                        help="print only the pairs whose band or report sha256 differs")
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
            digests = {f"{kind}_sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()
                       for kind, path in (("band", paths.band_csv), ("report", paths.report_json))}
            rows.append((preset, method, {**report, **digests, "wall_s": wall_s}))
            files[f"{preset}/{method}"] = (paths.band_csv, paths.report_json)
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
    differ = False
    for pair, row in summary.items():
        kinds = [kind for kind in ("band", "report")
                 if row[f"{kind}_sha256"] != old.get(pair, {}).get(f"{kind}_sha256")]
        if kinds:
            differ = True
            print(f"{pair}: {', '.join(kinds)} sha256 differs", flush=True)
            print("\n".join(_changes(args.compare.parent, *files[pair])), flush=True)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
