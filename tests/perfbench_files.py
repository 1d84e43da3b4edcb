"""Load a module of ``perfbench/`` by file name, for tests that read the
benchmark's cases and spans without writing to ``perfbench/``."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, executed afresh."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
