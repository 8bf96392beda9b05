"""Self-tests of the benchmark: input determinism, span arithmetic, a tiny
smoke run, and the output checks firing on altered reports."""

import gc
import json
import sys
from argparse import Namespace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SMALL = {"home-mixed": 300, "tls-bulk": 300, "corpus-classify": 40}
SMOKE_SEED = 7  # not the committed seed, so the invariant checks apply


def _generate(tmp_path, workload, seed):
    return workloads.generate(workload, seed, tmp_path / f"{workload}-{seed}", size=SMALL[workload])


def _input_bytes(meta):
    return b"".join(Path(meta[key]).read_bytes() for key in ("input", "registry") if key in meta)


def test_same_seed_same_input_and_other_seed_differs(tmp_path):
    for workload in workloads.WORKLOADS:
        inputs = {}
        for label, seed in (("first", 3), ("again", 3), ("other", 4)):
            directory = tmp_path / workload / label
            directory.mkdir(parents=True)
            inputs[label] = _input_bytes(_generate(directory, workload, seed))
        assert inputs["first"] == inputs["again"], workload
        assert inputs["first"] != inputs["other"], workload


def test_input_sizes_are_fixed_per_workload(tmp_path):
    for seed in (1, 2):
        meta = _generate(tmp_path, "home-mixed", seed)
        assert meta["frames"] == SMALL["home-mixed"]
        meta = _generate(tmp_path, "tls-bulk", seed)
        assert meta["frames"] == SMALL["tls-bulk"]
        assert 0 < meta["dns_answer_share"] < 1


def test_self_time_of_nested_spans():
    # root [0,100] has children a [10,40] and b [50,70]; a has child g [20,30];
    # c [60,80] overlaps b, so root's children cover [10,40] and [50,80].
    spans = [
        Span(1, None, "report.analyze", 0, 100, None),
        Span(2, 1, "capture.parse_capture", 10, 40, None),
        Span(3, 2, "payload.detect_tls", 20, 30, None),
        Span(4, 1, "leaks.tokenize", 50, 70, None),
        Span(5, 1, "leaks.tokenize", 60, 80, None),
    ]
    assert tracing.self_times(spans) == {1: 40, 2: 20, 3: 10, 4: 20, 5: 20}

    tracer = tracing.Tracer()
    tracer.spans = spans
    metrics = tracing.per_layer(tracer, wall_s=1e-7)
    assert metrics["leaks.tokenize.calls"] == 2
    assert metrics["leaks.tokenize.self_s"] == 40e-9
    assert metrics["report.analyze.self_s"] == 40e-9
    assert metrics["leaks.self_s"] == 40e-9
    assert metrics["classifiers.classify.calls"] == 0


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import medleak
    from medleak import leaks, metadata, report

    originals = (report.analyze_stream, leaks.matches_vendor, metadata.matches_vendor, medleak.analyze)
    meta = _generate(tmp_path, "home-mixed", SMOKE_SEED)
    workload = workloads.Workload(meta)
    untraced = workload.rendered(workload.run())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert report.matches_vendor is metadata.matches_vendor is leaks.matches_vendor
        assert leaks.matches_vendor is not originals[1]
        traced = workload.rendered(workload.run())
    finally:
        tracer.uninstall()
    assert (report.analyze_stream, leaks.matches_vendor, metadata.matches_vendor, medleak.analyze) == originals
    assert traced == untraced

    by_id = {span.span_id: span for span in tracer.spans}
    streams = [s for s in tracer.spans if s.name == "report.analyze_stream"]
    assert streams and all(by_id[s.parent_id].name == "report.analyze" for s in streams)
    for span in tracer.spans:
        if span.parent_id is not None and by_id[span.parent_id].name == "report.analyze_stream":
            assert span.stream == by_id[span.parent_id].stream
    metrics = tracing.per_layer(tracer, wall_s=1.0)
    assert metrics["metadata.resolve_hostnames.calls"] == 2 * metrics["report.analyze_stream.calls"]
    assert metrics["capture.frames_per_s"] > 0


def test_missing_function_is_unmeasured_not_zero():
    tracer = tracing.Tracer(targets=tracing.TARGETS + ("leaks.no_such_function", "nosuchmodule.f"))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["leaks.no_such_function", "nosuchmodule.f"]
    metrics = tracing.per_layer(tracer, wall_s=1.0)
    assert metrics["leaks.no_such_function.self_s"] is None
    assert metrics["leaks.no_such_function.calls"] is None
    assert metrics["leaks.tokenize.calls"] == 0


def _measure(tmp_path, workload, trace, digests=None):
    meta = _generate(tmp_path, workload, SMOKE_SEED)
    meta_path = tmp_path / f"{workload}.meta.json"
    meta_path.write_text(json.dumps(meta))
    if digests is not None:
        worker.DIGESTS = digests
    try:
        return worker.measure(Namespace(meta=str(meta_path), seconds=0.05, trace=trace,
                                        spans=str(tmp_path / "spans.jsonl")))
    finally:
        worker.DIGESTS = BENCH / "digests.json"


def test_smoke_run_has_no_failures(tmp_path):
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = _measure(tmp_path, workload, trace)
            assert result["failed"] == 0, result["failures"]
            assert len(result["walls"]) >= worker.MIN_PASSES
            if trace:
                assert len(result["traced_walls"]) >= worker.MIN_PASSES
                assert result["per_layer"]["trace.wall_s"] > 0
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert tuple(json.loads(lines[0])) == Span._fields


def test_digest_check_fires_on_altered_report(tmp_path):
    committed = json.loads((BENCH / "digests.json").read_text())
    meta = _generate(tmp_path, "home-mixed", SMOKE_SEED)
    workload = workloads.Workload(meta)
    rendered = workload.rendered(workload.run())
    committed["workloads"]["home-mixed"] = {
        "seed": SMOKE_SEED,
        "input_sha256": meta["input_sha256"],
        "report_sha256": workloads.sha256(rendered + b" "),
    }
    altered = tmp_path / "digests.json"
    altered.write_text(json.dumps(committed))
    result = _measure(tmp_path, "home-mixed", 0, digests=altered)
    assert result["failed"] == result["attempted"] - 4  # all but the fixtures and the input digest
    assert any("report digest" in failure for failure in result["failures"])


def test_invariant_checks_fire_on_altered_reports(tmp_path):
    meta = _generate(tmp_path, "home-mixed", SMOKE_SEED)
    workload = workloads.Workload(meta)
    doc = json.loads(workload.rendered(workload.run()))
    assert workloads.check(meta, json.dumps(doc).encode())[0] == []

    device = next(d for d in doc["devices"] if d["findings"])
    device["packet_count"] += 1
    device["tls_count"] += 1
    device["findings"][0]["matched_text"] = "nowhere-in-the-payload"
    problems, _ = workloads.check(meta, json.dumps(doc).encode())
    assert len(problems) == 3


def test_reference_scaling():
    assert reference.scaled(0.6, 1.0, 1.0) == 0.6
    # the loops ran twice as slow around the pass, so the CPU was slow: halve it
    assert abs(reference.scaled(0.6, 2.0, 2.0) - 0.3) < 1e-12
    assert abs(reference.scaled(0.6, 1.0, 3.0) - 0.3) < 1e-12
    assert reference.slowness() > 0 and reference.slowness(with_numpy=False) > 0
    assert gc.isenabled()


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89)
    assert run.tail(list(range(20))) == (50, 9)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [p[:3] for p in run.PER_LAYER]
