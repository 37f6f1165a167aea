"""The benchmark's span tracer (`perfbench/layertrace.py`) wraps each of its
targets in the namespace the caller looks the name up in, and a traced pass
stops when a target is gone. These tests check every target where the tracer
looks for it, and that an installed tracer still records the artifact writes
and the stage-1 load of a run."""

import importlib
import sys
from pathlib import Path

import pytest

from deuq import experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TINY_LV = dict(preset="lotka_volterra", seed=5, epochs_stage1=3, epochs_stage2=2,
               n_collocation=8, dataset_grid=9, eval_grid=9)


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layertrace")
    sys.modules.pop("layertrace", None)


def test_every_trace_target_is_in_its_owners_namespace(layertrace):
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in layertrace.TARGETS
               if not callable(vars(layertrace._resolve(owner)).get(attr))]
    assert missing == []


def test_installed_tracer_records_writes_and_stage1_loads(layertrace, tmp_path):
    originals = {(owner, attr): vars(layertrace._resolve(owner))[attr]
                 for owner, attr, _, _ in layertrace.TARGETS}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for i, method in enumerate(("nlm", "der")):
            config = experiment.ExperimentConfig(method=method, output_dir=str(tmp_path), **TINY_LV)
            tracer.root(i, experiment.run, config)
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert vars(layertrace._resolve(owner))[attr] is fn
    calls = layertrace.summarize(tracer.spans, 1)["calls"]
    assert calls["stage1.fit"] == 1  # the second run reuses the stage-1 file
    assert calls["experiment.stage1_load"] == 1
    # the band CSV reaches the disk through experiment._atomic_write
    spans = tracer.spans
    nested = [s for s in spans if s[0] == "experiment.write" and s[4] >= 0
              and spans[s[4]][0] == "experiment.write"]
    assert len(nested) == 2
