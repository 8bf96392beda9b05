"""The benchmark's tracer names medleak functions as "<module>.<function>"
strings. A name that no longer resolves is not an error there: its per-layer
metrics just read None, so this test keeps every name bound to a function."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_a_medleak_function():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    unresolved = []
    for name in tracing.TARGETS:
        module_name, function_name = name.split(".")
        module = importlib.import_module(f"medleak.{module_name}")
        if not callable(getattr(module, function_name, None)):
            unresolved.append(name)
    assert unresolved == []
