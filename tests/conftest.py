"""The `pythonpath` setting in pyproject.toml puts `src/` on sys.path for
pytest itself; export it too, so that subprocesses started by tests (the
command-line entry point test) import the same package."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
