"""deuq benchmark: time the two-stage pipeline and check what it writes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload burgers_solve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A run repeats passes of one workload (see workloads.py), each in a fresh
interpreter (one_pass.py), until the next pass would end after --seconds.
With --trace 0 it reports the end-to-end metrics: medians over passes of
the summed `experiment.run` wall time, of set-up (process start to the
first run) and of peak memory. With --trace 1 it runs a fixed set of
untraced and traced passes (TRACE_SCHEDULE) and reports per-layer metrics
from the spans (layertrace.py) and the band-quality figures of the run
reports.

Every run is checked (check.py); a run that raises or fails the check
counts in `failed`, as does one whose band CSV bytes differ between
passes. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The environment block, the band CSV
digests and the per-pass figures go to .perfbench/result-*.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402
from one_pass import THREAD_VARS  # noqa: E402

# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0

# The passes of a traced run, True where traced. A fixed set, so that the
# sample counts do not depend on speed. The untraced passes are the base
# of the tracing overhead; this order cancels a linear drift of speed.
TRACE_SCHEDULE = (False, True, True, False)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_pass(root: Path, pass_dir: Path, workload: str, seed: int, traced: bool,
               env: dict, timeout: float) -> dict:
    pass_dir.mkdir(parents=True)
    spec = {
        "src": str(root / "src"),
        "configs": workloads.configs(workload, seed, str(pass_dir / "runs")),
        "trace": traced,
        "n_mc_samples": workloads.N_MC_SAMPLES,
        "spawned_at": now(),
    }
    (pass_dir / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "one_pass.py"), str(pass_dir)],
                   env=env, cwd=root, stdout=sys.stderr, check=True, timeout=timeout)
    return json.loads((pass_dir / "result.json").read_text())


def run_passes(root: Path, work: Path, workload: str, seed: int, seconds: float,
               trace: bool, started: float) -> list[dict]:
    """Passes until the next one would end after `seconds`; in a traced
    run, the passes of TRACE_SCHEDULE."""
    env = {k: v for k, v in os.environ.items() if k != "DEUQ_OUTPUT_ROOT"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    passes: list[dict] = []
    begin = now()
    while True:
        traced = trace and TRACE_SCHEDULE[len(passes)]
        t0 = now()
        result = spawn_pass(root, work / f"pass{len(passes)}", workload, seed, traced,
                            env, timeout=max(1.0, DEADLINE_S - (t0 - started)))
        result["traced"] = traced
        passes.append(result)
        last = now() - t0
        if (len(passes) == len(TRACE_SCHEDULE) if trace
                else now() + last - begin > seconds):
            return passes


def score(passes: list[dict]) -> tuple[int, int, dict]:
    """(attempted, failed, band digests): a run fails on an error, a failed
    check, or band bytes that differ from the first pass."""
    attempted = failed = 0
    digests: dict = {}
    for p in passes:
        for rec in p["runs"]:
            attempted += 1
            first = digests.setdefault(rec["tag"], rec["band_sha256"])
            if rec["errors"] or rec["band_sha256"] != first:
                failed += 1
                print(f"FAILED {rec['tag']}: {rec['errors'] or 'band bytes differ between passes'}",
                      file=sys.stderr)
    return attempted, failed, digests


def band_quality(passes: list[dict]) -> dict:
    """Means over the runs of the first pass; every pass writes the same
    bands. Deterministic at a fixed seed, but across seeds they move more
    than the largest end-to-end bound allows, so they are reported with
    the layers (see README.md)."""
    reports = [rec["report"] for rec in passes[0]["runs"] if rec["report"]]
    if not reports:
        return {}
    return {
        "stage1.final_loss": statistics.fmean(r["final_stage1_loss"] for r in reports),
        "uq.predictive.rmse_train": statistics.fmean(r["rmse_train"] for r in reports),
        "uq.predictive.coverage_k2": statistics.fmean(r["coverage_k2"] for r in reports),
        "uq.predictive.inflation_ratio": math.exp(
            statistics.fmean(math.log(r["inflation_ratio"]) for r in reports)),
    }


def end_to_end(passes: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(sum(r["wall_s"] for r in p["runs"]) for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict:
    untraced = [sum(r["wall_s"] for r in p["runs"]) for p in passes if not p["traced"]]
    traced = [p["trace"] for p in passes if p["traced"]]
    return layertrace.layer_metrics(traced, statistics.median(untraced)) | band_quality(passes)


def environment(root: Path, passes: list[dict]) -> dict:
    rev = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        **passes[0]["libraries"],
        "threads": dict.fromkeys(THREAD_VARS, "1"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "git_revision": rev,
    }


def run_one(args, root: Path, spec: dict) -> dict:
    started = now()
    out = root / ".perfbench"
    work = out / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        passes = run_passes(root, work, args.workload, args.seed, args.seconds,
                            bool(args.trace), started)
        for i, p in enumerate(passes):
            spans = work / f"pass{i}" / "spans.jsonl"
            if spans.exists():
                spans.replace(out / f"spans-{args.workload}-seed{args.seed}-pass{i}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, digests = score(passes)
    key = "per_layer" if args.trace else "end_to_end"
    values = per_layer(passes) if args.trace else end_to_end(passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key] if m["name"] in values}
    absent = [m["name"] for m in spec[key] if m["name"] not in metrics]
    if absent:
        print(f"metrics not measured: {', '.join(absent)}", file=sys.stderr)
    correct = failed == 0 and not absent
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root, passes),
        "band_sha256": digests, "passes": [
            {k: p[k] for k in ("traced", "setup_s", "peak_rss_mb")}
            | {"runs": [{k: r[k] for k in ("tag", "wall_s", "cpu_s", "errors")} for r in p["runs"]]}
            for p in passes
        ],
        "metrics": metrics,
    }
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:34s} {m['value']:14.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args, root: Path, spec: dict) -> dict:
    """Every workload in its own process; one row per workload."""
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, check=True, timeout=DEADLINE_S + 10)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((w, res))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    units = {m["name"]: m["unit"] for m in spec[key]}
    print(" ".join(["workload".ljust(14)] + [f"{n}[{units[n]}]".rjust(22) for n in names]
                   + ["failed/ops".rjust(11)]))
    for w, res in rows:
        cells = [f"{res['metrics'][n]['value']:.6g}".rjust(22) if n in res["metrics"]
                 else "-".rjust(22) for n in names]
        print(" ".join([w.ljust(14)] + cells + [f"{res['failed']}/{res['attempted']}".rjust(11)]))
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "deuq" / "__init__.py").is_file():
        print("perfbench: no src/deuq under the working directory; run it from the root "
              "of a deuq checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    (root / ".perfbench").mkdir(exist_ok=True)
    result = (run_all if args.workload == "all" else run_one)(args, root, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
