"""The benchmark's tracer must find every function it wraps.

`perfbench/tracing.py` names the traced functions as (module, function)
pairs in `LAYERS`.  A function renamed or deleted here would otherwise
break only a traced benchmark run, never the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for specs in tracing.LAYERS.values() for pair in specs]
    missing = [
        f"{module}.{func}"
        for module, func in pairs
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert pairs and missing == []
