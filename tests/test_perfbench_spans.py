"""The benchmark's traced pass wraps lpackets functions by name.

``perfbench/spans.py`` lists them as (module, attribute) pairs; a rename or a
deletion in the package would silently drop a span from the traced pass.
This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_resolves_to_a_package_attribute():
    spans = _load_spans()
    assert spans
    for mod_name, attr, _counter in spans:
        target = importlib.import_module(f"lpackets.{mod_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"lpackets.{mod_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"lpackets.{mod_name}.{attr}"
