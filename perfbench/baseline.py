"""Run every workload on several seeds and record the spread and baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 10 --first-seed 100 --out perfbench/baseline.json

For each workload it runs `run.py` once per seed with tracing off, then once
traced, and prints for every end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
next to the metric's bound. A spread above a third of its bound is marked
`NOISY`; setup_s is exempt, as only its median is compared. With --out it
writes the figures, the workload compositions and the environment block.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return result


def composition(workload: str) -> list[str]:
    keys = ("epochs_stage1", "epochs_stage2", "n_mc_samples")
    return [f"{c['preset']}/{c['method']} " + " ".join(f"{k}={c[k]}" for k in keys if k in c)
            for c in workloads.configs(workload, 0, "runs")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    noisy = 0
    for w in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for name, m in run(root, w, seed, spec["run_seconds"], 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "NOISY"
            noisy += flag == "NOISY"
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "unit": m["unit"], "values": v}
            print(f"{w:14s} {m['name']:12s} median={med:10.5g} {m['unit']:3s} "
                  f"spread={spread:.3f} bound={m['bound']} {flag}", flush=True)
        traced = run(root, w, seeds[0], spec["run_seconds"], 1)["metrics"]
        out["workloads"][w] = {
            "why": why[w], "composition": composition(w), "end_to_end": rows,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
    record = json.loads((root / ".perfbench" / f"result-{workloads.WORKLOADS[0]}"
                         f"-seed{seeds[0]}-trace1.json").read_text())
    out["environment"] = record["environment"]
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
