"""The columnar PacketTable against lists of RawPackets.

Each stage that reads columns gives, on a stream backed by rows of a parsed
capture's table, what it gives on ``DeviceStream(id, mac, list(packets))``
and what the per-packet oracles give. ``analyze`` reads the table and builds
RawPackets for no row.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medleak import capture, report
from medleak.capture import DeviceStream, PacketTable, RawPacket, parse_capture, split_by_device
from medleak.config import RunConfig
from medleak.corpus import (
    SCENARIOS,
    build_fixture_capture,
    dns_response_payload,
    fixture_registry,
    generate_random_capture,
    tcp_frame,
    tls_record,
    udp_frame,
    write_pcap,
)
from medleak.metadata import activity_periods, endpoint_profiles, extract_dns_answers, resolve_hostnames
from medleak.payload import _START_LINE_PREFIXES, AppPayload, extract_payloads

from _oracles import (
    activity_periods_oracle,
    detect_tls_oracle,
    endpoint_profiles_oracle,
    extract_payloads_oracle,
    parse_capture_oracle,
    resolve_hostnames_oracle,
    split_by_device_oracle,
)
from test_capture import _VARIANTS, AP_MAC, DEV_MAC, _capture, _hostile_frame, _ipv6_capture

GAPS = (60.0, 5.0, 0.0, math.nan, math.inf)
PATTERNS = ("*vendor.example", "*withings*", "89.30.*")


def _assert_row_flags(table: PacketTable, packets: list[RawPacket]) -> None:
    """The decode-time flags of each row against the per-packet rules."""
    payloads = [p for p in packets if p.transport is not None and p.payload]
    ports = [(p.transport.src_port, p.transport.dst_port) for p in payloads]
    assert (table.head >= 0).tolist() == [p.transport is not None and bool(p.payload) for p in packets]
    assert table.tls[table.head >= 0].tolist() == [
        detect_tls_oracle(AppPayload(p.index, "outbound", pair, p.payload)).is_tls for p, pair in zip(payloads, ports)]
    assert table.http.tolist() == [
        p.transport is not None and p.transport.kind == "TCP" and p.payload.startswith(_START_LINE_PREFIXES)
        for p in packets]


def _assert_stages_agree(data: bytes, registry: dict[str, str]) -> None:
    parsed = parse_capture(data)
    packets = parse_capture_oracle(data).packets
    assert parsed.packets == packets
    _assert_row_flags(parsed.table, packets)

    streams, unattributed = split_by_device(parsed.table, registry)
    listed, listed_rest = split_by_device(list(packets), registry)
    want, want_rest = split_by_device_oracle(packets, registry)
    assert [(s.device_id, s.mac, s.packets) for s in streams] == want
    assert [(s.device_id, s.mac, s.packets) for s in listed] == want
    assert len(unattributed) == len(listed_rest) == len(want_rest)
    assert unattributed == listed_rest == want_rest

    dns = extract_dns_answers(parsed.table)
    assert dns == extract_dns_answers(packets)
    for stream in streams:
        from_list = DeviceStream(stream.device_id, stream.mac, list(stream.packets))
        assert extract_payloads(stream) == extract_payloads(from_list) == extract_payloads_oracle(from_list)
        for answers in (dns, {}):
            hostnames = resolve_hostnames(stream, answers)
            assert hostnames == resolve_hostnames(from_list, answers) == resolve_hostnames_oracle(from_list, answers)
            for gap in GAPS:
                periods = activity_periods(stream, gap, hostnames)
                assert periods == activity_periods(from_list, gap, hostnames)
                assert periods == activity_periods_oracle(from_list, gap, hostnames)
            profiles = endpoint_profiles(stream, answers, PATTERNS)
            assert profiles == endpoint_profiles(from_list, answers, PATTERNS)
            assert profiles == endpoint_profiles_oracle(from_list, answers, PATTERNS)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_captures_give_the_same_stages_from_the_table(seed):
    _assert_stages_agree(*generate_random_capture(seed))


def test_fixtures_and_ipv6_give_the_same_stages_from_the_table():
    for scenario in SCENARIOS:
        _assert_stages_agree(build_fixture_capture(scenario), fixture_registry(scenario))
    for registry in ({DEV_MAC.hex(): "dev"}, {AP_MAC.hex(): "ap", DEV_MAC.hex("-"): "dev"}):
        _assert_stages_agree(_ipv6_capture(), registry)


_REGISTRIES = st.sampled_from([{}, {DEV_MAC.hex(): "dev"}, {AP_MAC.hex(":"): "ap"},
                               {AP_MAC.hex("-").upper(): "ap", DEV_MAC.hex(): "dev"}])


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(_VARIANTS),
    # few distinct seconds, so frames tie and timestamps go backwards
    records=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 999_999), _hostile_frame()), max_size=12),
    registry=_REGISTRIES,
)
def test_hostile_captures_give_the_same_stages_from_the_table(variant, records, registry):
    _assert_stages_agree(_capture(variant, records), registry)


DEV, GATEWAY = DEV_MAC.hex(":"), AP_MAC.hex(":")
_REMOTES = ("89.30.121.52", "198.51.100.7", "2001:db8::7")


@st.composite
def _unsorted_packets(draw) -> list[RawPacket]:
    """Hand-built packets whose timestamps step back as well as forward, with
    ARP, UDP, TCP, TLS and HTTP rows, to and from the device."""
    packets, t_us = [], 1_700_000_000_000_000
    for index in range(draw(st.integers(0, 25))):
        t_us += draw(st.sampled_from((0, 1, 60_000_000, 60_000_001, -1, -61_000_000)) | st.integers(-10**8, 10**8))
        outbound = draw(st.booleans())
        src, dst = (DEV, GATEWAY) if outbound else (GATEWAY, DEV)
        remote = draw(st.sampled_from(_REMOTES))
        here = "2001:db8::1" if ":" in remote else "192.168.4.21"
        ip = capture.IpInfo(here, remote, 6) if outbound else capture.IpInfo(remote, here, 6)
        kind = draw(st.sampled_from(("arp", "TCP", "UDP", "none")))
        payload = draw(st.sampled_from((b"", b"GET / HTTP/1.1\r\nHost: h.example\r\n\r\n", tls_record(0x17, 3, b"x"),
                                        b"HTTP/1.1 200 OK\r\nHost: r.example\r\n\r\n", b"Host: GET\r\n", b"\x00\x01")))
        transport = None
        if kind in ("TCP", "UDP"):
            transport = capture.TransportInfo(draw(st.sampled_from((53, 80, 443, 40000))), 41000, kind)
        packets.append(RawPacket(index, t_us, src, dst, None if kind == "arp" else ip, transport, payload,
                                 54 + len(payload)))
    return packets


@settings(max_examples=200, deadline=None)
@given(packets=_unsorted_packets(), gap=st.sampled_from(GAPS) | st.floats(-5.0, 120.0))
def test_a_stream_built_from_a_list_runs_the_column_code_as_the_oracles(packets, gap):
    stream = DeviceStream("dev", DEV, packets)
    assert stream.packets == packets and stream.table.packets() == packets
    hostnames = resolve_hostnames(stream, {})
    assert hostnames == resolve_hostnames_oracle(stream, {})
    assert activity_periods(stream, gap, hostnames) == activity_periods_oracle(stream, gap, hostnames)
    assert endpoint_profiles(stream, {}, PATTERNS) == endpoint_profiles_oracle(stream, {}, PATTERNS)
    _assert_row_flags(stream.table, packets)
    assert extract_payloads(stream) == extract_payloads_oracle(stream)
    streams, unattributed = split_by_device(packets, {DEV: "dev"})
    assert streams[0].packets == [p for p in packets if DEV in (p.src_mac, p.dst_mac)]
    assert list(unattributed) == []


def _tls_bulk_capture() -> bytes:
    """Two devices sending near-MTU TLS records on port 443 with bare ACKs,
    DNS answers for their remotes, some binary UDP, and one plain HTTP
    request: the shape of a long encrypted device capture."""
    records, t_us = [], 1_700_000_000_000_000
    devices = (("02:00:00:00:00:01", "192.168.7.10", "198.18.0.1"), ("02:00:00:00:00:02", "192.168.7.11", "198.18.0.2"))
    for burst in range(40):
        mac, here, remote = devices[burst % 2]
        t_us += 61_000_000
        if burst < 2:
            answer = dns_response_payload(burst, f"api{burst}.cloud.example", [remote])
            records.append((t_us, udp_frame(GATEWAY, mac, "192.168.7.1", here, 53, 53000, answer)))
        for k in range(6):
            t_us += 20_000
            record = tls_record(0x17, 3, bytes([burst, k]) * 700)
            records.append((t_us, tcp_frame(mac, GATEWAY, here, remote, 40000, 443, record)))
            records.append((t_us, tcp_frame(GATEWAY, mac, remote, here, 443, 40000, b"", flags=0x10)))
        if burst % 10 == 0:
            records.append((t_us, udp_frame(mac, GATEWAY, here, remote, 40001, 9999, bytes(range(200)))))
    records.append((t_us + 1, tcp_frame(devices[0][0], GATEWAY, devices[0][1], "203.0.113.5", 40002, 80,
                                        b"GET /fw HTTP/1.1\r\nHost: fw.example\r\n\r\n")))
    return write_pcap(records)


def test_analyze_reads_the_table_and_builds_no_packet_list(tmp_path, monkeypatch):
    data = _tls_bulk_capture()
    path = tmp_path / "tls-bulk.pcap"
    path.write_bytes(data)
    packets = parse_capture_oracle(data).packets
    read = 0  # rows whose bytes analyze must read
    for packet in packets:
        transport = packet.transport
        if transport is None or not packet.payload:
            continue
        ports = (transport.src_port, transport.dst_port)
        read += not detect_tls_oracle(AppPayload(packet.index, "outbound", ports, packet.payload)).is_tls
        read += transport.kind == "UDP" and transport.src_port == 53
        read += transport.kind == "TCP" and packet.payload.startswith(_START_LINE_PREFIXES)
    assert 0 < read < len(packets) // 10

    built, parses = [], []

    class CountedPacket(RawPacket):
        __slots__ = ()

        def __init__(self, *fields):
            built.append(fields[0])
            super().__init__(*fields)

    def recorded_parse(source):
        parses.append(parse_capture(source))
        return parses[-1]

    monkeypatch.setattr(capture, "RawPacket", CountedPacket)
    monkeypatch.setattr(report, "parse_capture", recorded_parse)
    registry = {"02:00:00:00:00:01": "hub", "02:00:00:00:00:02": "scale"}
    result = report.analyze([path], RunConfig(registry=registry))
    assert [r.tls_count for r in result.reports] == [120, 120]
    assert len(built) <= read
    assert len(parses) == 1 and "packets" not in vars(parses[0])
    assert isinstance(parses[0].table, PacketTable) and len(parses[0].table) == len(packets)


def test_a_table_is_a_collection_of_its_packets():
    data, registry = generate_random_capture(3)
    parsed = parse_capture(data)
    table = parsed.table
    assert len(table) == len(parsed.packets) and list(table) == parsed.packets
    assert table == parsed.packets and table == tuple(parsed.packets) and table != parsed.packets[1:]
    assert table.take(slice(2, 5)) == parsed.packets[2:5]
    with pytest.raises(TypeError):
        hash(table)
    streams, unattributed = split_by_device(table, registry)
    # every stream's rows name the strings of the capture's table
    assert all(stream.table.names is table.names for stream in streams)
    assert sum(len(s.table) for s in streams) + len(unattributed) == len(table)


def test_a_frame_longer_than_a_block_is_read_whole_and_warned_past_the_end():
    big = AP_MAC + DEV_MAC + b"\x88\xb5" + b"x" * (3 * capture._BLOCK)  # no IP layer: any length
    small = tcp_frame(DEV, GATEWAY, "192.168.4.21", "89.30.121.52", 40000, 80, b"GET / HTTP/1.1\r\n\r\n")
    data = write_pcap([(1_000_000, small), (2_000_000, big), (3_000_000, small)])
    cut = data[: len(data) - 5]
    for source in (data, cut):
        got, want = parse_capture(source), parse_capture_oracle(source)
        assert got.packets == want.packets and got.warnings == want.warnings
    assert parse_capture(cut).warnings == [f"frame 2: declared caplen {len(small)} exceeds remaining "
                                           f"{len(small) - 5} bytes"]
    truncated = data + struct.pack("<II", 1, 2)
    assert parse_capture(truncated).warnings == [f"frame 3: truncated record header at offset {len(data)}"]
