"""Span tracing around the calls into each layer of the pipeline.

The benchmark does not edit the program: it replaces public functions in
the namespace the caller looks them up in (for instance
`deuq.stage1.grad_params`, which stage 1 calls, apart from
`deuq.uq.der.grad_params`) with wrappers that record a span. Spans are
kept in memory, one list per pass, and written once when the pass ends.

A span is (name, layer, start, end, parent, run): parent is the index of
the enclosing span (-1 for a root) and run the index of the pipeline run
it belongs to. The roots are the `experiment.run` calls, so the self
times of all spans add up to the traced wall time of the pass. What the
tracing adds is measured two ways: traced against untraced passes of the
same run (run.py), and span count times the cost of one span
(`span_cost_s`).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("autodiff", "nets", "optim", "stage1", "uq.variational", "uq.nlm",
          "uq.der", "uq.predictive", "problems", "metrics", "experiment")

ROOT = "experiment.run"

# (module, attribute, span name, layer); a name is wrapped in the namespace
# its caller resolves it from
TARGETS = (
    ("deuq.stage1", "residual_loss", "autodiff.jet_fwd", "autodiff"),
    ("deuq.stage1", "grad_params", "autodiff.tape_bwd.stage1", "autodiff"),
    ("deuq.uq.variational", "grad_params", "autodiff.tape_bwd.uq", "autodiff"),
    ("deuq.uq.nlm", "grad_params", "autodiff.tape_bwd.uq", "autodiff"),
    ("deuq.uq.der", "grad_params", "autodiff.tape_bwd.uq", "autodiff"),
    ("deuq.nets", "evaluate", "nets.evaluate", "nets"),
    ("deuq.optim.Adam", "step", "optim.adam_step", "optim"),
    ("deuq.experiment", "run_stage1", "stage1.fit", "stage1"),
    ("deuq.experiment", "bbb_train", "uq.bbb.fit", "uq.variational"),
    ("deuq.experiment", "flipout_train", "uq.flipout.fit", "uq.variational"),
    ("deuq.experiment", "nlm_fit_dataset", "uq.nlm.fit", "uq.nlm"),
    ("deuq.uq.nlm", "train_feature_net", "uq.nlm.train", "uq.nlm"),
    ("deuq.uq.nlm", "nlm_fit", "uq.nlm.conjugate", "uq.nlm"),
    ("deuq.experiment", "der_train", "uq.der.fit", "uq.der"),
    ("deuq.experiment", "der_evaluate", "uq.der.evaluate", "uq.der"),
    ("deuq.experiment", "posterior_predictive_mc", "uq.predictive.mc_band", "uq.predictive"),
    ("deuq.experiment", "nlm_band", "uq.predictive.nlm_band", "uq.predictive"),
    ("deuq.experiment", "der_band", "uq.predictive.der_band", "uq.predictive"),
    ("deuq.experiment", "enforce_predictive", "uq.predictive.enforce", "uq.predictive"),
    ("deuq.problems", "make_preset", "problems.make_preset", "problems"),
    ("deuq.problems", "reference_solution", "problems.reference", "problems"),
    ("deuq.metrics", "band_report", "metrics.band_report", "metrics"),
    ("deuq.stage1", "load_result", "experiment.stage1_load", "experiment"),
    ("deuq.stage1", "save_result", "experiment.write", "experiment"),
    ("deuq.experiment", "emit_band_csv", "experiment.write", "experiment"),
    ("deuq.experiment", "_atomic_write", "experiment.write", "experiment"),
)

# at least one stage-1 epoch beyond the p99; fewer means the epoch
# structure changed
MIN_EPOCH_SAMPLES = 100

UQ_FITS = {"bbb": "uq.bbb.fit", "flipout": "uq.flipout.fit",
           "nlm": "uq.nlm.train", "der": "uq.der.fit"}


def _resolve(path: str):
    """Module or class for a dotted path such as `deuq.optim.Adam`."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every target. A target that is gone would leave its metrics
        at 0, which reads as a gain, so it stops the pass instead."""
        for owner_path, attr, name, layer in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                self.uninstall()
                raise LookupError(f"trace target {owner_path}.{attr} not found; "
                                  "update TARGETS in perfbench/layertrace.py")
            setattr(owner, attr, self._wrap(original, name, layer))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()

        return traced

    def root(self, run: int, fn, *args):
        """Call fn(*args) as pipeline run `run`, under a root span."""
        self.run = run
        return self._wrap(fn, ROOT, "experiment")(*args)


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Time a span adds to one call: a wrapped no-op against a bare one,
    best of `repeats`."""
    def noop():
        pass

    wrapped = Tracer()._wrap(noop, "calibration", "experiment")

    def best(fn):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        return min(times)

    return max(0.0, best(wrapped) - best(noop)) / calls


def summarize(spans: list[list], n_mc_samples: int) -> dict:
    """Per-pass totals a run of the benchmark pools across traced passes."""
    n = len(spans)
    dur = [end - start for _, _, start, end, _, _ in spans]
    child = [0.0] * n
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        parent = span[4]
        if parent >= 0:
            child[parent] += dur[i]
            children[parent].append(i)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    total = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, layer, *_rest) in enumerate(spans):
        layer_self[layer] += dur[i] - child[i]
        total[name] += dur[i]
        calls[name] += 1

    def adam_children(i):
        return sum(1 for c in children[i] if spans[c][0] == "optim.adam_step")

    epoch_ms, stage1_epochs = [], 0
    for i, span in enumerate(spans):
        if span[0] != "stage1.fit":
            continue
        stage1_epochs += adam_children(i)
        starts = [spans[c][2] for c in children[i] if spans[c][0] == "autodiff.jet_fwd"]
        epoch_ms += [1e3 * (b - a) for a, b in zip(starts, starts[1:])]

    uq = {}
    for method, name in UQ_FITS.items():
        fits = [i for i, span in enumerate(spans) if span[0] == name]
        uq[method] = (sum(dur[i] for i in fits), sum(adam_children(i) for i in fits))

    writes = sum(dur[i] for i, span in enumerate(spans)
                 if span[0] == "experiment.write"
                 and (span[4] < 0 or spans[span[4]][0] != "experiment.write"))

    return {
        "wall_s": total[ROOT],
        "runs": calls[ROOT],
        "spans": n,
        "layer_self_s": layer_self,
        "total_s": dict(total),
        "calls": dict(calls),
        "epoch_ms": epoch_ms,
        "stage1_epochs": stage1_epochs,
        "uq_fit": uq,
        "write_s": writes,
        "mc_draws": calls["uq.predictive.mc_band"] * n_mc_samples,
    }


def layer_metrics(passes: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer metrics pooled over the traced passes of one run. The
    number of passes is fixed, so sample counts depend on the workload only.
    The stage-1 epoch quantiles are left out below MIN_EPOCH_SAMPLES (the
    epoch structure changed), which makes the run incorrect."""
    def tot(name):
        return sum(p["total_s"].get(name, 0.0) for p in passes)

    def cnt(name):
        return sum(p["calls"].get(name, 0) for p in passes)

    def per_call(name, scale):
        return scale * tot(name) / cnt(name) if cnt(name) else 0.0

    n = len(passes)
    wall = sum(p["wall_s"] for p in passes)
    runs = sum(p["runs"] for p in passes)
    epochs = sorted(e for p in passes for e in p["epoch_ms"])
    stage1_epochs = sum(p["stage1_epochs"] for p in passes)
    m = {}
    m["autodiff.jet_fwd_ms"] = per_call("autodiff.jet_fwd", 1e3)
    for caller in ("stage1", "uq"):
        m[f"autodiff.tape_bwd_ms.{caller}"] = per_call(f"autodiff.tape_bwd.{caller}", 1e3)
        m[f"autodiff.grad_calls.{caller}"] = cnt(f"autodiff.tape_bwd.{caller}") / n
    m["nets.evaluate_ms"] = per_call("nets.evaluate", 1e3)
    m["nets.evaluate_calls"] = cnt("nets.evaluate") / n
    m["optim.adam_step_us"] = per_call("optim.adam_step", 1e6)
    m["optim.adam_steps"] = cnt("optim.adam_step") / n
    if len(epochs) >= MIN_EPOCH_SAMPLES:
        m["stage1.epoch_ms_p50"] = statistics.median(epochs)
        m["stage1.epoch_ms_p99"] = statistics.quantiles(epochs, n=100)[98]
    m["stage1.epochs"] = stage1_epochs / n
    m["stage1.fit_s"] = tot("stage1.fit") / n
    m["stage1.share"] = tot("stage1.fit") / wall
    for method in UQ_FITS:
        fit_s = sum(p["uq_fit"][method][0] for p in passes)
        fit_epochs = sum(p["uq_fit"][method][1] for p in passes)
        m[f"uq.{method}.epoch_ms"] = 1e3 * fit_s / fit_epochs if fit_epochs else 0.0
    m["uq.nlm.conjugate_ms"] = per_call("uq.nlm.conjugate", 1e3)
    m["uq.predictive.mc_band_s"] = tot("uq.predictive.mc_band") / n
    draws = sum(p["mc_draws"] for p in passes)
    m["uq.predictive.mc_draws_per_s"] = draws / tot("uq.predictive.mc_band") if draws else 0.0
    m["uq.predictive.mc_share"] = tot("uq.predictive.mc_band") / wall
    m["uq.predictive.enforce_ms"] = per_call("uq.predictive.enforce", 1e3)
    m["problems.reference_s"] = tot("problems.reference") / n
    m["problems.reference_calls"] = cnt("problems.reference") / n
    m["metrics.band_report_ms"] = per_call("metrics.band_report", 1e3)
    m["experiment.write_ms"] = 1e3 * sum(p["write_s"] for p in passes) / runs
    m["experiment.stage1_load_ms"] = per_call("experiment.stage1_load", 1e3)
    m["experiment.stage1_reuse_ratio"] = 1.0 - cnt("stage1.fit") / runs
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(p["layer_self_s"][layer] for p in passes) / n
    m["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall_s
    m["trace.wrapper_s"] = statistics.median(p["spans"] * p["span_cost_s"] for p in passes)
    m["trace.spans"] = sum(p["spans"] for p in passes) / n
    return m


def write_spans(spans: list[list], path) -> None:
    Path(path).write_text("".join(json.dumps(s) + "\n" for s in spans))
