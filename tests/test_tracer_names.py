"""The benchmark tracer wraps package functions by (module, attribute) name.

A rename in the package would otherwise only surface in the slow benchmark
tests (`python3 -m pytest perfbench/tests`); this reads the tracer's name
lists and checks that each one resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = set(spans.PATCHES) | set(spans.MODEL_FACTORIES) | set(spans.FUNCTIONAL_FACTORIES)
    assert names
    missing = [
        f"lentparticle.{mod}.{attr}"
        for mod, attr in sorted(names)
        if not callable(getattr(importlib.import_module(f"lentparticle.{mod}"), attr, None))
    ]
    assert not missing, missing
