"""Span recording around medleak's public functions, installed from outside.

``Tracer.install()`` wraps each function in ``TARGETS`` and binds the wrapper
to every ``medleak.*`` module attribute that holds the original, because
``report``, ``metadata`` and ``leaks`` import each other's names. A span is
(id, parent id, name, start ns, end ns, stream id); spans of one device
stream share the stream id that ``analyze_stream`` opens. Spans are kept in
memory; ``per_layer`` turns one pass's spans and counters into the per-layer
metrics, with each span's self time being its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# "<module>.<function>": the module under src/medleak/ is the layer.
TARGETS = (
    "capture.parse_capture",
    "capture.split_by_device",
    "payload.extract_payloads",
    "payload.detect_tls",
    "payload.parse_http",
    "classifiers.classify",
    "classifiers.compare_methods",
    "classifiers.classify_ascii",
    "classifiers.shannon_entropy",
    "classifiers.chi_squared",
    "leaks.scan_cleartext_payload",
    "leaks.tokenize",
    "leaks.dictionary_match",
    "leaks.http_leak_scan",
    "leaks.matches_vendor",
    "leaks.image_get_signature",
    "metadata.extract_dns_answers",
    "metadata.resolve_hostnames",
    "metadata.activity_periods",
    "metadata.endpoint_profiles",
    "metadata.periodicity_hint",
    "report.analyze",
    "report.analyze_stream",
    "report.render",
    "config.load_dictionaries",
)
LAYERS = ("capture", "payload", "classifiers", "leaks", "metadata", "report", "config")


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    stream: str | None


def _capture_names(args) -> str:
    return "+".join(str(path).rsplit("/", 1)[-1] for path in args[0])


# Spans below these open a new stream id; all others inherit their parent's.
_STREAM_OF = {
    "report.analyze": _capture_names,
    "report.analyze_stream": lambda args: f"{args[0]}/{args[1].device_id}",
    "classifiers.compare_methods": lambda args: "corpus",
}

# Counts taken from return values at the same boundaries as the spans.
_OBSERVE = {
    "capture.parse_capture": lambda c, r: c.update(frames=len(r.packets), skipped=len(r.warnings)),
    "capture.split_by_device": lambda c, r: c.update(unattributed=len(r[1])),
    "payload.extract_payloads": lambda c, r: c.update(payloads=len(r)),
    "payload.detect_tls": lambda c, r: c.update(tls=int(r.is_tls)),
    "payload.parse_http": lambda c, r: c.update(http_parsed=int(r is not None)),
    "classifiers.classify": lambda c, r: c.update(cleartext=int(r.consensus == "cleartext")),
    "metadata.activity_periods": lambda c, r: c.update(periods=len(r)),
    "report.analyze_stream": lambda c, r: c.update(findings=len(r.findings)),
    "report.render": lambda c, r: c.update(render_bytes=len(r)),
}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self.unobservable: set[str] = set()
        self._stack: list[tuple[int, str | None]] = []
        self._ids = itertools.count()
        self._bound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "medleak" or n.startswith("medleak.")]
        self.missing = []
        for name in self.targets:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules.get(f"medleak.{module_name}"), func_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()

    def _wrap(self, name: str, func):
        stream_of = _STREAM_OF.get(name)
        observe = _OBSERVE.get(name)
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent_id, stream = stack[-1] if stack else (None, None)
            if stream_of is not None and args:
                stream = stream_of(args)
            span_id = next(ids)
            stack.append((span_id, stream))
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, parent_id, name, start, end, stream))
            if observe is not None:
                try:
                    observe(self.counters, result)
                except (AttributeError, TypeError):  # return value changed shape
                    self.unobservable.add(name)
            return result

        return wrapper


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """span id -> nanoseconds not covered by the span's children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    return {
        s.span_id: (s.end_ns - s.start_ns) - _covered(s.start_ns, s.end_ns, children.get(s.span_id, []))
        for s in spans
    }


def per_layer(tracer: Tracer, wall_s: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass. A metric whose function is
    missing from medleak, or whose count cannot be read from what the
    function returned, is None (unmeasured), never zero."""
    spans, counters = tracer.spans, tracer.counters
    self_ns = self_times(spans)
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span in spans:
        self_s[span.name] += self_ns[span.span_id] / 1e9
        calls[span.name] += 1

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float | None] = {"trace.wall_s": wall_s}
    for name in tracer.targets:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    metrics.update({
        "capture.frames_per_s": ratio(counters["frames"], self_s["capture.parse_capture"]),
        "capture.skipped": counters["skipped"],
        "capture.unattributed": counters["unattributed"],
        "payload.tls_share": ratio(counters["tls"], counters["payloads"]),
        "payload.parse_http.useful_ratio": ratio(counters["http_parsed"], calls["payload.parse_http"]),
        "classifiers.cleartext_share": ratio(counters["cleartext"], calls["classifiers.classify"]),
        "leaks.tokenize_per_cleartext": ratio(calls["leaks.tokenize"], counters["cleartext"]),
        "leaks.findings": counters["findings"],
        "metadata.activity_periods.periods": counters["periods"],
        "report.render_bytes": counters["render_bytes"],
    })
    depends = {
        "capture.frames_per_s": "capture.parse_capture",
        "capture.skipped": "capture.parse_capture",
        "capture.unattributed": "capture.split_by_device",
        "payload.tls_share": "payload.detect_tls",
        "payload.parse_http.useful_ratio": "payload.parse_http",
        "classifiers.cleartext_share": "classifiers.classify",
        "leaks.tokenize_per_cleartext": "leaks.tokenize",
        "leaks.findings": "report.analyze_stream",
        "metadata.activity_periods.periods": "metadata.activity_periods",
        "report.render_bytes": "report.render",
    }
    for name in tracer.missing:
        metrics[f"{name}.self_s"] = metrics[f"{name}.calls"] = None
    for metric, target in depends.items():
        if target in tracer.missing or target in tracer.unobservable:
            metrics[metric] = None
    return metrics
