#!/usr/bin/env python3
"""Write BENCH_<n>.json for a change against its parent, or read the
committed ones back as a trajectory.

    python3 scripts/bench.py --pr N --parent PARENT_DIR --summary TEXT --first-seed SEED
    python3 scripts/bench.py --trajectory

The first form measures this checkout and the parent checkout at
PARENT_DIR, and writes BENCH_<pr>.json here with a fixed core:
- `pr` and `summary`;
- `machine`: cores, Python, numpy and its BLAS;
- `lines`: the line counts of src/, tests/ and tests/oracles.py per tree;
- `tier1`: passed, failed, warnings and wall_s per tree, and the command;
  each tree's suite runs twice, in the order parent, change, change,
  parent, at default BLAS threads, so that a drift in outside load weighs
  on both trees alike; `runs_s` holds a tree's two wall times and
  `wall_s` is their mean;
- `margins`: the ledger of scripts/margins.py over seeds 0-5 per tree, the
  two trees side by side, one per core, at 1-thread BLAS;
- `ab_pairs`: per workload of BENCHMARK.json, the summary of
  scripts/ab_pairs.py over 10 pairs, the k-th workload at seeds from
  --first-seed + 100 k on;
- `layers`: per workload, four `perfbench/run.py --trace 1` runs in the
  order parent, change, change, parent, at the first two seeds of its
  pairs (each tree runs both); per tree, the median of each per-layer
  metric over its two runs, and whether both runs were correct;
- `claim`: null, or with --claim WORKLOAD/METRIC the pair rule on it: at
  least 9 wins in 10 and a median gap larger than the parent's q3 - q1;
- `notes`: the JSON object in --notes, for one-off figures.
The file is written once, at the end; the phases print as they finish.

`--trajectory` prints one row per committed BENCH_*.json: Tier-1 wall time
and passed count, src/ lines, the seed-ledger medians of the margins that
criteria 2, 4 and 9 gate, a few per-layer figures of the change (blank in
files without a `layers` section), and the claim. It reads the variant
keys of the files written by hand before this script.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "scripts"))

import ab_pairs  # noqa: E402

TIER1 = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
PAIRS = 10  # per workload, the fewest the pair rule accepts
# the ledger medians the acceptance criteria gate: (ledger section, case, figure)
GATED = {
    "c2 loss": ("stage1", "linear_ode", "final_loss"),
    "c2 max err": ("stage1", "linear_ode", "max_error"),
    "c4 duffing infl": ("bands", "duffing/bbb", "inflation"),
    "c4 duffing std": ("bands", "duffing/bbb", "std_train"),
    "c4 burgers infl": ("bands", "burgers/bbb", "inflation"),
    "c9 coverage": ("bands", "linear_ode/bbb", "coverage"),
}
# the per-layer medians the trajectory shows: (workload, perfbench metric)
LAYER_COLUMNS = {
    "s1 epoch ms": ("burgers_solve", "stage1.epoch_ms_p50"),
    "bbb epoch ms": ("burgers_bands", "uq.bbb.epoch_ms"),
    "mc band s": ("burgers_bands", "uq.predictive.mc_band_s"),
    "adam step us": ("ode_matrix", "optim.adam_step_us"),
}


def line_count(paths) -> int:
    return sum(len(p.read_text().splitlines()) for p in paths)


def lines(root: Path) -> dict:
    return {"src": line_count((root / "src").rglob("*.py")),
            "tests": line_count((root / "tests").rglob("*.py")),
            "tests/oracles.py": line_count([root / "tests" / "oracles.py"])}


def tier1(root: Path) -> dict:
    """One run of the suite in `root`: its counts and wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1.split()[2:]], cwd=root, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|warning|error)", proc.stdout.splitlines()[-1])}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "warnings": counts.get("warning", 0), "errors": counts.get("error", 0),
            "wall_s": round(time.perf_counter() - start, 1)}


def tier1_abba(roots: dict) -> dict:
    """Each tree's suite twice, parent, change, change, parent; the counts
    of a tree's later run, with the mean of its two wall times."""
    runs = {side: [] for side in roots}
    for side in ("parent", "change", "change", "parent"):
        runs[side].append(tier1(roots[side]))
        print("tier1", side, json.dumps(runs[side][-1]), flush=True)
    return {side: {**r[-1], "wall_s": round((r[0]["wall_s"] + r[1]["wall_s"]) / 2, 1),
                   "runs_s": [run["wall_s"] for run in r]} for side, r in runs.items()}


def margins(roots: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / f"{side}.json" for side in roots}
        procs = [subprocess.Popen(
            [sys.executable, str(HERE / "scripts" / "margins.py"), "--seeds", "6",
             "--out", str(outs[side])], stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"})
            for side, root in roots.items()]
        if any(p.wait() for p in procs):
            raise SystemExit("margins.py failed")
        return {side: json.loads(path.read_text()) for side, path in outs.items()}


def layers(roots: dict, workload: str, first_seed: int, seconds: float) -> dict:
    """Two traced perfbench runs per tree, parent, change, change, parent, at
    seeds first_seed and first_seed + 1; per tree the median of each
    per-layer metric over its two runs."""
    runs = {side: [] for side in roots}
    correct = True
    for i, side in enumerate(("parent", "change", "change", "parent")):
        result, _ = ab_pairs.bench(roots[side], workload, first_seed + i // 2, seconds, trace=1)
        correct &= result["correct"]
        runs[side].append({k: m["value"] for k, m in result["metrics"].items()})
        print("layers", workload, side, "correct" if result["correct"] else "NOT correct",
              flush=True)
    return {"seeds": [first_seed, first_seed + 1], "correct": correct,
            **{side: {k: statistics.median(r[k] for r in rs if k in r)
                      for k in sorted(set().union(*rs))}
               for side, rs in runs.items()}}


def pair_rule(summary: dict, metric: str, better: str) -> dict:
    m = summary["metrics"][metric]
    iqr = m["parent_q3"] - m["parent_q1"]
    gap = (m["parent_median"] - m["change_median"]) * (1 if better == "lower" else -1)
    return {"workload": summary["workload"], "metric": metric, "wins": m["wins"],
            "pairs": m["pairs"], "parent_median": m["parent_median"],
            "change_median": m["change_median"], "parent_iqr": iqr,
            "met": m["wins"] >= 0.9 * m["pairs"] and gap > iqr}


def trajectory_row(data: dict) -> dict:
    """The trajectory figures of one BENCH file, from either key layout."""
    change = data["tier1"]["change"]
    passed = change.get("passed")
    if passed is None:  # written by hand as the pytest summary line
        passed = int(re.search(r"(\d+) passed", change["result"]).group(1))
    ledger = data["margins"]["change"]
    per_layer = data.get("layers", {})
    claim = data.get("claim")
    return {"pr": data["pr"], "tier1_s": change["wall_s"], "passed": passed,
            "src": data["lines"]["src"]["change"],
            **{name: ledger[section][case][figure]["median"]
               for name, (section, case, figure) in GATED.items()},
            **{name: per_layer.get(workload, {}).get("change", {}).get(metric)
               for name, (workload, metric) in LAYER_COLUMNS.items()},
            "claim": "-" if not claim else
            f"{claim['workload']}/{claim['metric']} {'met' if claim['met'] else 'not met'}"}


def print_trajectory() -> None:
    rows = [trajectory_row(json.loads(p.read_text()))
            for p in sorted(HERE.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))]
    print("  ".join(f"{k:>15s}" for k in rows[0]))
    for row in rows:
        print("  ".join(f"{v:>15.4g}" if isinstance(v, float) else
                        f"{'' if v is None else v!s:>15s}" for v in row.values()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trajectory", action="store_true")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--summary", default="")
    parser.add_argument("--first-seed", type=int, help="first ab_pairs seed; pick unused ones")
    parser.add_argument("--claim", help="WORKLOAD/METRIC of a claimed gain")
    parser.add_argument("--notes", type=Path, help="JSON object of one-off figures")
    args = parser.parse_args()
    if args.trajectory:
        print_trajectory()
        return
    if args.pr is None or args.parent is None or args.first_seed is None:
        parser.error("--pr, --parent and --first-seed are required without --trajectory")
    roots = {"parent": args.parent.resolve(), "change": HERE}
    out = HERE / f"BENCH_{args.pr}.json"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    counts = {side: lines(root) for side, root in roots.items()}
    bench = {"pr": args.pr, "summary": args.summary,
             "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"},
             "lines": {k: {side: c[k] for side, c in counts.items()} for k in counts["change"]},
             "claim": None,
             "notes": json.loads(args.notes.read_text()) if args.notes else {}}

    bench["tier1"] = {"command": TIER1, **tier1_abba(roots)}
    print("tier1", json.dumps(bench["tier1"]), flush=True)
    bench["margins"] = {"command": "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 "
                                   "scripts/margins.py --seeds 6 --out PATH",
                        **margins(roots)}
    print("margins written", flush=True)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    bench["ab_pairs"] = {w["name"]: ab_pairs.run_pairs(roots["parent"], w["name"], PAIRS,
                                                       args.first_seed + 100 * i)
                         for i, w in enumerate(spec["workloads"])}
    bench["layers"] = {w["name"]: layers(roots, w["name"], args.first_seed + 100 * i,
                                         spec["run_seconds"])
                       for i, w in enumerate(spec["workloads"])}
    if args.claim:
        workload, metric = args.claim.split("/")
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
        bench["claim"] = pair_rule(bench["ab_pairs"][workload], metric, better)
    out.write_text(json.dumps(bench, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
