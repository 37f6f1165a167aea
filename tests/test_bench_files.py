"""Every committed BENCH_<n>.json reads back through `scripts/bench.py`'s
trajectory reader, whichever key layout it was written in."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_reads_as_a_trajectory_row(path):
    bench = _bench_module()
    data = json.loads(path.read_text())
    row = bench.trajectory_row(data)
    assert row["pr"] == int(path.stem.split("_")[1])
    assert row["tier1_s"] > 0 and row["passed"] > 0 and row["src"] > 0
    figures = [v for k, v in row.items()
               if k not in ("pr", "tier1_s", "passed", "src", "claim", *bench.LAYER_COLUMNS)]
    assert len(figures) == 6 and all(math.isfinite(v) and v >= 0 for v in figures)
    # per-layer columns are blank in files written before the layers section
    layer = [row[k] for k in bench.LAYER_COLUMNS]
    if "layers" in data:
        assert all(math.isfinite(v) and v > 0 for v in layer)
    else:
        assert layer == [None] * len(layer)
    assert isinstance(row["claim"], str)
