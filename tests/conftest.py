"""The `pythonpath` setting in pyproject.toml puts `src/` on sys.path for
pytest itself; export it too, so that subprocesses started by tests (the
command-line entry point test) import the same package.

Tests that use the acceptance suite's `runs` fixture (full-budget pipeline
runs on every preset, method and seed) are marked `slow`, so that
`python -m pytest -m "not slow"` is a fast inner loop. The plain command
still runs every test."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
