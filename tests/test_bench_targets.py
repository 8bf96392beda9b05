"""The benchmark's tracer names medleak functions as "<module>.<function>"
strings. A name that no longer resolves is not an error there: its per-layer
metrics just read None, so this test keeps every name bound to a function.
A name that resolves but that ``analyze`` no longer reaches reads 0, so the
set of such names is pinned too."""

import importlib
import importlib.util
from pathlib import Path

from medleak import report
from medleak.config import RunConfig
from medleak.corpus import fixture_registry, generate_random_capture

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# The traced names that analyze and render never call: the classifiers'
# per-payload entry points (analyze classifies columns), and the per-stream
# payload list and per-payload TLS rule (analyze reads the grouping's
# columns, whose TLS flag the decode set).
UNREACHED = {
    "classifiers.chi_squared",
    "classifiers.classify",
    "classifiers.classify_ascii",
    "classifiers.compare_methods",
    "classifiers.shannon_entropy",
    "payload.detect_tls",
    "payload.extract_payloads",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_medleak_function():
    tracing = _tracing()
    assert tracing.TARGETS
    unresolved = []
    for name in tracing.TARGETS:
        module_name, function_name = name.split(".")
        module = importlib.import_module(f"medleak.{module_name}")
        if not callable(getattr(module, function_name, None)):
            unresolved.append(name)
    assert unresolved == []


def test_analyze_reaches_every_traced_name_but_the_pinned_ones(fixture_dir, tmp_path):
    """Traced as the benchmark traces it, analyze and render over mixed-home
    and random capture 0 open a span for every traced name except those in
    ``UNREACHED``. Work moved off a traced name would read 0 in its per-layer
    metrics; this fails until the pin is changed with it."""
    tracing = _tracing()
    data, registry = generate_random_capture(0)
    random_path = tmp_path / "random_0.pcap"
    random_path.write_bytes(data)
    config = RunConfig(registry={**fixture_registry("mixed-home"), **registry})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        result = report.analyze([fixture_dir / "mixed-home.pcap", random_path], config)
        report.render(result.reports)
    finally:
        tracer.uninstall()
    assert len(result.reports) == 2 * len(config.registry)  # every registered device, per capture
    assert set(tracing.TARGETS) - {span.name for span in tracer.spans} == UNREACHED
