"""The benchmark's traced pass wraps lpackets functions by name.

``perfbench/spans.py`` lists them as (module, attribute) pairs; a rename or a
deletion in the package would silently drop a span from the traced pass.
This test only reads ``perfbench/``.
"""

import importlib

from perfbench_files import load_perfbench


def test_every_span_resolves_to_a_package_attribute():
    spans = load_perfbench("spans").SPANS
    assert spans
    for mod_name, attr, _counter in spans:
        target = importlib.import_module(f"lpackets.{mod_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"lpackets.{mod_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"lpackets.{mod_name}.{attr}"
