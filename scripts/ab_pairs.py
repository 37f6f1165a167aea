#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against this one.

    python3 scripts/ab_pairs.py PARENT_DIR --workload ode_matrix --pairs 10 --first-seed 900

Runs `perfbench/run.py --trace 0` in PARENT_DIR and in this checkout,
alternately and in ABBA order: pair i runs the parent first when i is
even and this checkout first when i is odd, both at seed first-seed + i,
for `run_seconds` of BENCHMARK.json. Pick seeds no earlier claim used.

For every end-to-end metric of BENCHMARK.json it prints the parent's
median and quartiles, this checkout's median, and in how many pairs this
checkout did better. A speed claim needs at least 9 wins in 10 pairs and
a median gap larger than the parent's quartile distance. For every seed
it prints whether the band digests of the two `.perfbench/result-*.json`
records are equal. With `--json PATH` it also writes that summary to PATH:
per metric the parent's median and quartiles, this checkout's median and
the wins, with the seeds and the number of seeds whose digests were equal.
Exits 1 if any run is not `correct`. `run_pairs` is the same run for
another script (scripts/bench.py).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def bench(root: Path, workload: str, seed: int, seconds: float,
          trace: int = 0) -> tuple[dict, dict]:
    """The result line of one perfbench run in `root`, and its band digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}, {}
    record = root / ".perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(record.read_text())["band_sha256"])


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def run_pairs(parent_root: Path, workload: str, n_pairs: int, first_seed: int) -> dict:
    """Run the pairs and print them; returns the summary that --json writes."""
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    roots = {"parent": parent_root.resolve(), "change": HERE}

    runs = {"parent": [], "change": []}
    correct, equal = True, 0
    for i in range(n_pairs):
        seed = first_seed + i
        digests = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result, digests[side] = bench(roots[side], workload, seed, spec["run_seconds"])
            correct &= result["correct"]
            runs[side].append({k: m["value"] for k, m in result["metrics"].items()})
        figures = " ".join(f"{m['name']} {runs['parent'][-1].get(m['name'], float('nan')):.4g}"
                           f"->{runs['change'][-1].get(m['name'], float('nan')):.4g}"
                           for m in spec["end_to_end"])
        same = digests["parent"] == digests["change"]
        equal += same
        print(f"pair {i} seed {seed}: {figures}; band digests {'equal' if same else 'DIFFER'}",
              flush=True)

    summary = {}
    print(f"\n{'metric':12s} {'parent median':>14s} {'[q1, q3]':>22s} {'change median':>14s} {'wins':>6s}")
    for m in spec["end_to_end"]:
        name = m["name"]
        pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                 if name in p and name in c]
        if not pairs:
            print(f"{name:12s} not measured")
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        q1, med, q3 = quartiles(parent)
        wins = sum((c < p) if m["better"] == "lower" else (c > p) for p, c in pairs)
        summary[name] = {"parent_median": med, "parent_q1": q1, "parent_q3": q3,
                         "change_median": statistics.median(change), "wins": wins,
                         "pairs": len(pairs)}
        print(f"{name:12s} {med:14.4g} {f'[{q1:.4g}, {q3:.4g}]':>22s} "
              f"{statistics.median(change):14.4g} {f'{wins}/{len(pairs)}':>6s}")
    if not correct:
        print("some runs were not correct", file=sys.stderr)
    return {"workload": workload, "seeds": list(range(first_seed, first_seed + n_pairs)),
            "band_digests_equal": equal, "correct": correct, "metrics": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--json", type=Path, help="also write the summary to this file")
    args = parser.parse_args()
    summary = run_pairs(args.parent, args.workload, args.pairs, args.first_seed)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
