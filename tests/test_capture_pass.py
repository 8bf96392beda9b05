"""analyze's one pass per capture: the same reports as each stream analysed
alone, nothing carried from one capture to the next, and each stream's table
held only while the stream is analysed."""

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from medleak.capture import parse_capture, split_by_device
from medleak.classifiers import DECISION_METHODS
from medleak.config import RunConfig, load_dictionaries
from medleak.corpus import fixture_registry, generate_random_capture
from medleak.metadata import extract_dns_answers
from medleak.report import analyze, analyze_stream

from conftest import stitch_random_captures


@st.composite
def _captures(draw):
    """A random capture, and a registry of some of its MACs (the gateway's
    and strangers' too) plus MACs it never holds, so some streams are
    empty."""
    data, _ = generate_random_capture(draw(st.integers(0, 2**32 - 1)))
    present = sorted(parse_capture(data).table.names.macs)
    chosen = draw(st.lists(st.sampled_from(present), unique=True, max_size=len(present)))
    absent = draw(st.lists(st.integers(0, 2**32 - 1), unique=True, max_size=3))
    macs = chosen + ["02:ee:" + n.to_bytes(4, "big").hex(":") for n in absent]
    return data, {mac: f"device_{position}" for position, mac in enumerate(macs)}


@settings(max_examples=60, deadline=None)
@given(
    capture=_captures(),
    method=st.sampled_from(DECISION_METHODS),
    gap=st.floats(1e-6, 1e9),
)
def test_analyze_reports_each_stream_as_it_is_analysed_alone(tmp_path_factory, capture, method, gap):
    """analyze scores and groups the capture once for all its streams; each
    report equals analyze_stream run alone on the same split stream, which
    builds its state over that stream's rows only."""
    data, registry = capture
    path = tmp_path_factory.mktemp("capture") / "random.pcap"
    path.write_bytes(data)
    config = RunConfig(registry=registry, decision_method=method, gap_threshold=gap)
    table = parse_capture(data).table
    answers = extract_dns_answers(table)
    dictionaries = load_dictionaries()
    alone = [
        analyze_stream(path.name, stream, answers, config, dictionaries)
        for stream in split_by_device(table, registry)[0]
    ]
    assert analyze([path], config).reports == alone


def test_no_state_carries_from_one_capture_to_the_next(fixture_dir):
    """Two captures in one call report and warn as each one in its own call,
    for two captures of different devices and for one capture twice."""
    registry = {**fixture_registry("bp-monitor-leaky"), **fixture_registry("scale-encrypted")}
    config = RunConfig(registry=registry)
    bp, scale = fixture_dir / "bp-monitor-leaky.pcap", fixture_dir / "scale-encrypted.pcap"
    for first, second in ((bp, scale), (scale, bp), (bp, bp)):
        together = analyze([first, second], config)
        apart = [analyze([first], config), analyze([second], config)]
        assert together.reports == apart[0].reports + apart[1].reports
        assert together.warnings == apart[0].warnings + apart[1].warnings
        assert together.exit_code == max(result.exit_code for result in apart)
    assert {r.status for r in analyze([bp, scale], config).reports} == {"LEAK", "OK"}


def _traced(call):
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_analyze_holds_one_streams_table_at_a_time(tmp_path):
    """On a capture of 375 registered devices stitched from random captures
    0-199 (4,499 frames), analyze's traced peak beyond what its reports keep
    is at most the parsed table's size plus 768 KiB. Each stream's table is
    taken from the grouped capture table when the stream is analysed and
    dropped after it; building every stream's table up front and holding
    them all (14 column views and a payload list each) exceeds the bound.
    On CPython 3.11 the excess over the table is about 530 KB, and about
    1,270 KB with every table held."""
    data, registry = stitch_random_captures(200)
    path = tmp_path / "stitched.pcap"
    path.write_bytes(data)
    config = RunConfig(registry=registry)
    assert len(registry) >= 300
    analyze([path], config)  # the first call fills the interpreter's own caches
    _, table_size, _ = _traced(lambda: parse_capture(path.read_bytes()))
    result, kept, peak = _traced(lambda: analyze([path], config))
    assert len(result.reports) == len(registry)
    assert peak - kept <= table_size + 768 * 1024
