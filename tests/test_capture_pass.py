"""analyze's one pass per capture: the same reports as each stream analysed
alone, nothing carried from one capture to the next, no stream's table
built, periods that never span two devices, and no TLS application data
held past its record header."""

import gc
import math
import tracemalloc
import weakref

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from medleak import capture, report
from medleak.capture import PacketTable, parse_capture, split_by_device
from medleak.classifiers import DECISION_METHODS
from medleak.config import RunConfig, load_dictionaries
from medleak.corpus import (
    build_fixture_capture,
    fixture_registry,
    generate_random_capture,
    tcp_frame,
    tls_record,
    udp_frame,
    write_pcap,
)
from medleak.metadata import activity_periods, extract_dns_answers
from medleak.report import analyze, analyze_stream

from _oracles import activity_periods_oracle, resolve_hostnames_oracle
from conftest import stitch_random_captures, stream_of


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
    report equals analyze_stream run on the stream split again from its own
    table alone, whose grouping holds that stream's rows only."""
    data, registry = capture
    path = tmp_path_factory.mktemp("capture") / "random.pcap"
    path.write_bytes(data)
    config = RunConfig(registry=registry, decision_method=method, gap_threshold=gap)
    table = parse_capture(data).table
    answers = extract_dns_answers(table)
    dictionaries = load_dictionaries()
    alone = [
        analyze_stream(path.name, stream_of(stream.device_id, stream.mac, stream.table), answers, config,
                       dictionaries)
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


def _interleaved_capture() -> tuple[bytes, dict[str, str]]:
    """Two devices whose packets alternate a second apart, then one of them
    alone 300 s later, and a registered device with no rows."""
    one, two, gateway = "02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:fe"
    frames = [
        (one, "10.0.0.1", "198.18.0.1"), (two, "10.0.0.2", "198.18.0.2"),
        (one, "10.0.0.1", "198.18.0.3"), (two, "10.0.0.2", "198.18.0.1"),
        (one, "10.0.0.1", "198.18.0.2"),
    ]
    records = [(1_700_000_000_000_000 + k * 1_000_000, udp_frame(mac, gateway, src, dst, 5000, 6000, bytes(k + 1)))
               for k, (mac, src, dst) in enumerate(frames)]
    records.append((1_700_000_300_000_000, udp_frame(one, gateway, "10.0.0.1", "198.18.0.4", 5000, 6000, b"x")))
    return write_pcap(records), {one: "one", "02:00:00:00:00:03": "silent", two: "two"}


@pytest.mark.parametrize("gap", [0.0, 1e-6, 60.0, math.nan, math.inf])
def test_no_period_spans_two_devices(tmp_path, gap):
    """The grouping's periods are cut at each group bound as well as at each
    gap, so each split stream's periods, and each report's where RunConfig
    takes the threshold (it refuses 0 and NaN), are those of the stream
    alone, also where two devices' packets interleave within one gap."""
    data, registry = _interleaved_capture()
    table = parse_capture(data).table
    answers = extract_dns_answers(table)
    streams = split_by_device(table, registry)[0]
    expected = []
    for stream in streams:
        alone = stream_of(stream.device_id, stream.mac, stream.table)
        hostnames = resolve_hostnames_oracle(alone, answers)
        expected.append(activity_periods_oracle(alone, gap, hostnames))
        assert activity_periods(stream, gap, hostnames) == expected[-1]
    assert [len(periods) > 0 for periods in expected] == [True, False, True]
    if gap > 0:
        path = tmp_path / "interleaved.pcap"
        path.write_bytes(data)
        reports = analyze([path], RunConfig(registry=registry, gap_threshold=gap)).reports
        assert [report.activity for report in reports] == expected


def test_analyze_builds_no_stream_table(fixture_dir, monkeypatch):
    """analyze takes one table per time-sorted capture, the unattributed
    rows: every stage reads its stream's slices of the grouping's columns."""
    taken = []
    take = PacketTable.take

    def counted(self, rows):
        taken.append(rows)
        return take(self, rows)

    monkeypatch.setattr(PacketTable, "take", counted)
    registry = {**fixture_registry("mixed-home"), **fixture_registry("bp-monitor-leaky")}
    captures = [fixture_dir / "mixed-home.pcap", fixture_dir / "bp-monitor-leaky.pcap"]
    result = analyze(captures, RunConfig(registry=registry))
    assert len(result.reports) == 2 * len(registry) == 4
    assert len(taken) == 2


def test_analyze_keeps_the_count_of_unattributed_rows_not_their_table(fixture_dir, monkeypatch):
    """analyze reads only the ``len`` of the split's unattributed rows, so
    it lets go of them before it analyses a stream: a stand-in handed back
    as those rows is gone by each analyze_stream call, and the warning
    still counts them."""
    path, registry = fixture_dir / "mixed-home.pcap", fixture_registry("mixed-home")
    config = RunConfig(registry=registry)
    expected = analyze([path], config)
    assert any(warning.endswith("packets unattributed") for warning in expected.warnings)

    class Rows:
        def __init__(self, count: int) -> None:
            self.count = count

        def __len__(self) -> int:
            return self.count

    handed, alive = [], []
    split, analyze_stream_ = report.split_by_device, report.analyze_stream

    def split_by_device(table, registry):
        streams, unattributed = split(table, registry)
        rows = Rows(len(unattributed))
        handed.append(weakref.ref(rows))
        return streams, rows

    def watched(*args):
        alive.append(handed[-1]() is not None)
        return analyze_stream_(*args)

    monkeypatch.setattr(report, "split_by_device", split_by_device)
    monkeypatch.setattr(report, "analyze_stream", watched)
    result = analyze([path], config)
    assert alive == [False] * len(registry) and len(handed) == 1
    assert result.reports == expected.reports and result.warnings == expected.warnings


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
    is at most the parsed table's size plus 768 KiB. No stream's table is
    built: the stages read the grouping's columns. Building every stream's
    table up front and holding them all (14 columns and a payload list
    each) exceeds the bound. On CPython 3.11 the excess over the table is
    about 360 KB with the grouping's period and HTTP columns, was about
    340 KB while each stream's table was taken as it was analysed, and
    about 530 KB while the split copied the whole table in device order."""
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


def test_a_stream_given_its_own_table_is_grouped_once(monkeypatch):
    """analyze_stream reads the one-group grouping that a stream split from
    its own table for a one-device registry already has, and reports as the
    stream split from the capture does."""
    groupings = []
    init = capture._Grouping.__init__

    def counted(self, *args):
        groupings.append(args)
        init(self, *args)

    monkeypatch.setattr(capture._Grouping, "__init__", counted)
    registry = fixture_registry("bp-monitor-leaky")
    (mac, device_id), = registry.items()
    table = parse_capture(build_fixture_capture("bp-monitor-leaky")).table
    (split,), _ = split_by_device(table, registry)
    own = stream_of(device_id, mac, split.table)
    assert len(groupings) == 2
    config, answers, dictionaries = RunConfig(registry=registry), extract_dns_answers(table), load_dictionaries()
    reports = [analyze_stream("bp.pcap", stream, answers, config, dictionaries) for stream in (own, split)]
    assert len(groupings) == 2
    assert reports[0] == reports[1] and reports[0].status == "LEAK"


def test_standalone_calls_on_split_streams_classify_the_capture_once(fixture_dir, monkeypatch):
    """analyze_stream called on each split stream of a capture classifies
    the capture's grouped payloads once, for all its streams, and reports
    as analyze does."""
    calls = []
    consensus_codes = capture._consensus_codes

    def counted(rows, config):
        calls.append(config)
        return consensus_codes(rows, config)

    monkeypatch.setattr(capture, "_consensus_codes", counted)
    registry = fixture_registry("mixed-home")
    table = parse_capture(build_fixture_capture("mixed-home")).table
    config, answers, dictionaries = RunConfig(registry=registry), extract_dns_answers(table), load_dictionaries()
    streams = split_by_device(table, registry)[0]
    reports = [analyze_stream("mixed-home.pcap", stream, answers, config, dictionaries) for stream in streams]
    assert len(reports) == 2 and calls == [config]
    assert reports == analyze([fixture_dir / "mixed-home.pcap"], config).reports


def test_a_stream_analysed_under_two_methods_gets_each_methods_counts():
    """The grouping keeps its verdicts for the last config asked for: one
    stream analysed under chi_squared, then ascii, then chi_squared again
    reports as a freshly split stream does under each."""
    data, registry = generate_random_capture(2)
    table = parse_capture(data).table
    answers, dictionaries = extract_dns_answers(table), load_dictionaries()
    stream = split_by_device(table, registry)[0][0]

    def counts(report):
        return report.tls_count, report.cleartext_count, report.encrypted_count, report.indeterminate_count

    seen = []
    for method in ("chi_squared", "ascii", "chi_squared"):
        config = RunConfig(registry=registry, decision_method=method)
        fresh = split_by_device(table, registry)[0][0]
        report = analyze_stream("random_2.pcap", stream, answers, config, dictionaries)
        assert report == analyze_stream("random_2.pcap", fresh, answers, config, dictionaries)
        seen.append(counts(report))
    assert seen[0] == seen[2] != seen[1]


def _application_data_capture(count: int = 2000) -> bytes:
    """A device sending ``count`` near-MTU TLS application-data segments on
    port 443: the shape of encrypted bulk traffic."""
    device, gateway = "02:00:00:00:00:01", "02:00:00:00:00:fe"
    return write_pcap([
        (1_700_000_000_000_000 + k * 1000, tcp_frame(device, gateway, "192.168.7.10", "198.18.0.1", 40000, 443,
                                                     tls_record(0x17, 3, bytes([k % 251]) * 1395)))
        for k in range(count)
    ])


def test_a_table_keeps_only_the_record_header_of_application_data():
    data = _application_data_capture()
    assert len(data) > 2_000_000
    table = parse_capture(data).table
    assert len(table) == 2000 and table.tls.all()
    assert all(payload[:3] == b"\x17\x03\x03" and len(payload) <= 5 for payload in table.payloads)
    assert sum(map(len, table.payloads)) <= 5 * len(table)


def test_analyze_holds_less_than_half_an_application_data_capture(tmp_path):
    """analyze's traced peak on 2,000 TLS application-data segments is below
    half the capture's size: the table holds record headers, not records
    (holding them whole takes more than the capture's size)."""
    data = _application_data_capture()
    path = tmp_path / "bulk.pcap"
    path.write_bytes(data)
    config = RunConfig(registry={"02:00:00:00:00:01": "hub"})
    analyze([path], config)  # the first call fills the interpreter's own caches
    result, _, peak = _traced(lambda: analyze([path], config))
    assert [(r.tls_count, r.payload_count) for r in result.reports] == [(2000, 2000)]
    assert peak < len(data) / 2
