"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/one_pass.py PASS_DIR

Reads PASS_DIR/spec.json (written by run.py), runs each config through
`deuq.experiment.run`, checks every run's artifacts and writes
PASS_DIR/result.json. A fresh process per pass means every pass pays the
process-level costs a `deuq run` user pays: imports and the Burgers
reference oracle, which the program caches per process.
"""

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded BLAS baseline; must precede the first numpy import
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def library_versions() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def main() -> int:
    pass_dir = Path(sys.argv[1])
    spec = json.loads((pass_dir / "spec.json").read_text())
    sys.path.insert(0, spec["src"])
    import deuq
    from deuq import experiment, problems

    import check
    import layertrace

    if not Path(deuq.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"deuq was imported from {deuq.__file__}, not from {spec['src']}")

    configs = [experiment.ExperimentConfig(**kw) for kw in spec["configs"]]
    tracer = layertrace.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned_at"]

    runs = []
    for i, config in enumerate(configs):
        paths, error = None, None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            paths = tracer.root(i, experiment.run, config) if tracer else experiment.run(config)
        except Exception:  # a failed run is counted, and the pass goes on
            error = traceback.format_exc()
        runs.append({"wall_s": time.perf_counter() - start,
                     "cpu_s": time.process_time() - cpu_start, "paths": paths, "error": error})
    if tracer:
        tracer.uninstall()

    records = []
    for config, run in zip(configs, runs):
        rec = {"tag": f"{config.preset}_{config.method}_seed{config.seed}",
               "wall_s": run["wall_s"], "cpu_s": run["cpu_s"], "errors": [], "report": None, "band_sha256": None}
        if run["error"]:
            rec["errors"].append(run["error"])
        else:
            paths = run["paths"]
            rec["errors"] = check.check_run(experiment, problems, config, paths)
            rec["band_sha256"] = check.sha256(paths.band_csv)
            rec["report"] = json.loads(Path(paths.report_json).read_text())
        records.append(rec)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": records,
        "libraries": library_versions(),
    }
    if tracer:
        layertrace.write_spans(tracer.spans, pass_dir / "spans.jsonl")
        result["trace"] = layertrace.summarize(tracer.spans, spec["n_mc_samples"])
        result["trace"]["span_cost_s"] = layertrace.span_cost_s()
    (pass_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
