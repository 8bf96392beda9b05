"""The columnar PacketTable against lists of per-packet rows.

Each stage that reads columns gives, on a stream backed by rows of a parsed
capture's table, what it gives on the stream split from that stream's table
alone, and what the per-packet oracles give. ``analyze`` reads the table and
builds RawPackets for no row.
"""

import ipaddress
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medleak import capture, report
from medleak.capture import PacketTable, RawPacket, parse_capture, split_by_device
from medleak.config import RunConfig
from medleak.corpus import (
    SCENARIOS,
    build_fixture_capture,
    dns_response_payload,
    ethernet_frame,
    fixture_registry,
    generate_random_capture,
    ipv4_packet,
    tcp_frame,
    tcp_segment,
    tls_record,
    udp_datagram,
    udp_frame,
    write_pcap,
)
from medleak.metadata import activity_periods, endpoint_profiles, extract_dns_answers, resolve_hostnames
from medleak.payload import _START_LINE_PREFIXES, AppPayload, extract_payloads

from _oracles import (
    activity_periods_oracle,
    detect_tls_oracle,
    endpoint_profiles_oracle,
    extract_dns_answers_oracle,
    extract_payloads_oracle,
    parse_capture_oracle,
    resolve_hostnames_oracle,
    split_by_device_oracle,
    table_rows_oracle,
)
from conftest import stream_of, table_of
from test_capture import _VARIANTS, AP_MAC, DEV_MAC, _capture, _hostile_frame, _ipv6_capture

GAPS = (60.0, 5.0, 0.0, math.nan, math.inf)
PATTERNS = ("*vendor.example", "*withings*", "89.30.*")


def _assert_stages_agree(data: bytes, registry: dict[str, str]) -> None:
    parsed = parse_capture(data)
    packets = parse_capture_oracle(data).packets
    rows = table_rows_oracle(packets)
    assert parsed.packets == rows

    streams, unattributed = split_by_device(parsed.table, registry)
    want, want_rest = split_by_device_oracle(rows, registry)
    assert [(s.device_id, s.mac, s.table) for s in streams] == want
    assert len(unattributed) == len(want_rest)
    assert unattributed == want_rest

    dns = extract_dns_answers(parsed.table)
    assert dns == extract_dns_answers_oracle(packets)
    for stream in streams:
        own = stream_of(stream.device_id, stream.mac, stream.table)
        assert extract_payloads(stream) == extract_payloads(own) == extract_payloads_oracle(own)
        for answers in (dns, {}):
            hostnames = resolve_hostnames(stream, answers)
            assert hostnames == resolve_hostnames(own, answers) == resolve_hostnames_oracle(own, answers)
            for gap in GAPS:
                periods = activity_periods(stream, gap, hostnames)
                assert periods == activity_periods(own, gap, hostnames)
                assert periods == activity_periods_oracle(own, gap, hostnames)
            profiles = endpoint_profiles(stream, answers, PATTERNS)
            assert profiles == endpoint_profiles(own, answers, PATTERNS)
            assert profiles == endpoint_profiles_oracle(own, answers, PATTERNS)


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


def _ip_frame(src_mac: str, dst_mac: str, src_ip: str, dst_ip: str, protocol: int, body: bytes) -> bytes:
    """An IPv4 frame, or an IPv6 one when the addresses are IPv6."""
    if ":" not in src_ip:
        return ethernet_frame(src_mac, dst_mac, 0x0800, ipv4_packet(src_ip, dst_ip, protocol, body))
    addresses = ipaddress.IPv6Address(src_ip).packed + ipaddress.IPv6Address(dst_ip).packed
    return ethernet_frame(src_mac, dst_mac, 0x86DD, struct.pack("!IHBB", 6 << 28, len(body), protocol, 64)
                          + addresses + body)


def test_each_distinct_mac_and_address_is_named_once_across_blocks():
    """A capture of several read blocks, every block repeating the same
    MACs and IPv4, IPv6 and v4-mapped IPv6 addresses: the decode names each
    distinct string once, and every row reads as the oracle's."""
    macs = (DEV, GATEWAY, "02:00:00:00:00:03")
    pairs = (("192.168.4.21", "89.30.121.52"), ("2001:db8::1", "2001:db8::7"),
             ("::ffff:192.168.4.21", "::ffff:89.30.121.52"), ("192.168.4.21", "198.51.100.7"))
    records = [
        (1_700_000_000_000_000 + k, _ip_frame(macs[k % 3], macs[(k + 1) % 3], *pairs[k % 4], 17,
                                              udp_datagram(40000, 5000, bytes([k % 251]) * 1000)))
        for k in range(500)
    ]
    data = write_pcap(records)
    assert len(data) > 3 * capture._BLOCK
    table = parse_capture(data).table
    names = table.names
    assert sorted(names.macs) == sorted(macs)
    assert names.mac_ids == {mac: position for position, mac in enumerate(names.macs)}
    assert len(names.addresses) == len(set(names.addresses)) == 7
    assert table.packets() == table_rows_oracle(parse_capture_oracle(data).packets)


@st.composite
def _unsorted_records(draw) -> list[tuple[int, bytes]]:
    """Hand-made (ts_us, frame) records whose timestamps step back as well
    as forward, with ARP-typed, ICMP, UDP, TCP, TLS and HTTP frames, to and
    from the device."""
    records, t_us = [], 1_700_000_000_000_000
    for _ in range(draw(st.integers(0, 25))):
        t_us += draw(st.sampled_from((0, 1, 60_000_000, 60_000_001, -1, -61_000_000)) | st.integers(-10**8, 10**8))
        outbound = draw(st.booleans())
        src, dst = (DEV, GATEWAY) if outbound else (GATEWAY, DEV)
        remote = draw(st.sampled_from(_REMOTES))
        here = "2001:db8::1" if ":" in remote else "192.168.4.21"
        src_ip, dst_ip = (here, remote) if outbound else (remote, here)
        kind = draw(st.sampled_from(("arp", "TCP", "UDP", "none")))
        payload = draw(st.sampled_from((b"", b"GET / HTTP/1.1\r\nHost: h.example\r\n\r\n", tls_record(0x17, 3, b"x"),
                                        b"HTTP/1.1 200 OK\r\nHost: r.example\r\n\r\n", b"Host: GET\r\n", b"\x00\x01")))
        if kind == "arp":  # no IP layer: the body after the ethertype is the payload
            frame = ethernet_frame(src, dst, 0x0806, payload)
        elif kind == "none":  # IP without a transport layer: ICMP
            frame = _ip_frame(src, dst, src_ip, dst_ip, 58 if ":" in remote else 1, payload)
        else:
            port = draw(st.sampled_from((53, 80, 443, 40000)))
            body = (tcp_segment if kind == "TCP" else udp_datagram)(port, 41000, payload)
            frame = _ip_frame(src, dst, src_ip, dst_ip, 6 if kind == "TCP" else 17, body)
        records.append((t_us, frame))
    return records


@settings(max_examples=200, deadline=None)
@given(records=_unsorted_records(), gap=st.sampled_from(GAPS) | st.floats(-5.0, 120.0))
def test_a_stream_of_unsorted_frames_runs_the_column_code_as_the_oracles(records, gap):
    decoded = table_of(records)
    # the decode sorts by timestamp; the rows are taken back into capture
    # order, so the columns are read with timestamps that step back
    table = decoded.take(np.argsort(decoded.index, kind="stable"))
    assert table.index.tolist() == list(range(len(records)))
    packets = sorted(parse_capture_oracle(write_pcap(records)).packets, key=lambda packet: packet.index)
    stream = stream_of("dev", DEV, table)
    assert stream.table.packets() == table_rows_oracle(packets)
    hostnames = resolve_hostnames(stream, {})
    assert hostnames == resolve_hostnames_oracle(stream, {})
    assert activity_periods(stream, gap, hostnames) == activity_periods_oracle(stream, gap, hostnames)
    assert endpoint_profiles(stream, {}, PATTERNS) == endpoint_profiles_oracle(stream, {}, PATTERNS)
    assert extract_payloads(stream) == extract_payloads_oracle(stream)
    streams, unattributed = split_by_device(table, {DEV: "dev"})
    assert streams[0].table == [p for p in table_rows_oracle(packets) if DEV in (p.src_mac, p.dst_mac)]
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


@pytest.fixture
def built_packets(monkeypatch) -> list[int]:
    """The index of each RawPacket built from here on, as the capture module
    builds them: its ``RawPacket`` is replaced by a subclass that records."""
    built = []

    class CountedPacket(RawPacket):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields[0])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(capture, "RawPacket", CountedPacket)
    return built


def test_analyze_reads_the_table_and_builds_no_packet_list(tmp_path, monkeypatch, built_packets):
    data = _tls_bulk_capture()
    path = tmp_path / "tls-bulk.pcap"
    path.write_bytes(data)
    packets = parse_capture_oracle(data).packets
    read = 0  # rows whose bytes analyze must read
    for packet in packets:
        if not packet.proto or not packet.payload:
            continue
        ports = (packet.src_port, packet.dst_port)
        read += not detect_tls_oracle(AppPayload(packet.index, "outbound", ports, packet.payload)).is_tls
        read += packet.proto == 17 and packet.src_port == 53
        read += packet.proto == 6 and packet.payload.startswith(_START_LINE_PREFIXES)
    assert 0 < read < len(packets) // 10

    parses = []

    def recorded_parse(source):
        parses.append(parse_capture(source))
        return parses[-1]

    monkeypatch.setattr(report, "parse_capture", recorded_parse)
    registry = {"02:00:00:00:00:01": "hub", "02:00:00:00:00:02": "scale"}
    result = report.analyze([path], RunConfig(registry=registry))
    assert [r.tls_count for r in result.reports] == [120, 120]
    assert len(built_packets) <= read
    assert len(parses) == 1
    assert isinstance(parses[0].table, PacketTable) and len(parses[0].table) == len(packets)


def test_counting_the_packets_of_a_parse_builds_none(built_packets):
    """``len`` of a parse's packets reads its table: a traced pass that
    counts the frames of a capture builds no RawPacket."""
    data = _tls_bulk_capture()
    assert len(parse_capture(data).packets) == len(parse_capture_oracle(data).packets)
    assert built_packets == []


def test_a_table_is_a_collection_of_its_packets():
    data, registry = generate_random_capture(3)
    parsed = parse_capture(data)
    table = parsed.table
    packets = table.packets()
    assert parsed.packets is table
    assert len(table) == len(packets) and list(table) == packets
    assert table == packets and table == tuple(packets) and table != packets[1:]
    assert table.take(np.arange(2, 5)) == packets[2:5]
    with pytest.raises(TypeError):
        hash(table)
    streams, unattributed = split_by_device(table, registry)
    # every stream's rows name the strings of the capture's table
    assert all(stream.table.names is table.names for stream in streams)
    assert sum(len(s.table) for s in streams) + len(unattributed) == len(table)


def test_a_stream_reads_its_mac_in_any_spelling():
    """The split canonicalizes a registry MAC, so a stream's MAC, and each
    row's direction and remote end, are those of the canonical MAC in any
    spelling: the device's own address is never one of its endpoints. A
    malformed MAC is refused."""
    (mac, device_id), = fixture_registry("bp-monitor-leaky").items()
    table = parse_capture(build_fixture_capture("bp-monitor-leaky")).table
    stream = stream_of(device_id, mac, table)
    payloads, profiles = extract_payloads(stream), endpoint_profiles(stream, {}, PATTERNS)
    assert sum(p.direction == "outbound" for p in payloads) == 7
    assert "192.168.4.21" not in {profile.address for profile in profiles}
    for spelling in (mac.upper(), mac.replace(":", "-"), mac.replace(":", "").upper()):
        respelt = stream_of(device_id, spelling, stream.table)
        assert respelt.mac == mac
        assert extract_payloads(respelt) == payloads
        assert endpoint_profiles(respelt, {}, PATTERNS) == profiles
    with pytest.raises(ValueError, match="malformed MAC"):
        stream_of(device_id, "00:24:e4:1b:20", table)


def test_a_stream_with_no_rows_is_empty():
    """A registered device that no row names gets an empty stream, split
    from an empty capture or from one of other devices' rows."""
    others = table_of([(0, udp_frame(GATEWAY, "02:00:00:00:00:09", "192.168.4.1", "192.168.4.9", 53, 5000, b"x"))])
    for table in (table_of([]), others):
        stream = stream_of("dev", DEV, table)
        assert len(stream.table) == 0 and stream.table == []
        assert extract_payloads(stream) == [] and activity_periods(stream) == []
        assert resolve_hostnames(stream, {}) == {} and endpoint_profiles(stream, {}, PATTERNS) == []
        assert repr(stream) == f"DeviceStream(device_id='dev', mac={DEV!r}, rows=0)"


def test_the_repr_of_a_split_stream_takes_no_table():
    """A split stream's table is a copy of its rows, taken when first read:
    ``repr`` counts the rows from the group's bounds and keeps no copy."""
    table = parse_capture(build_fixture_capture("mixed-home")).table
    streams, _ = split_by_device(table, fixture_registry("mixed-home"))
    texts = [repr(stream) for stream in streams]
    assert all("table" not in vars(stream) for stream in streams)
    assert texts == [f"DeviceStream(device_id={s.device_id!r}, mac={s.mac!r}, rows={len(s.table)})" for s in streams]
    assert all(len(stream.table) > 0 for stream in streams)


def test_a_frame_longer_than_a_block_is_read_whole_and_warned_past_the_end():
    big = AP_MAC + DEV_MAC + b"\x88\xb5" + b"x" * (3 * capture._BLOCK)  # no IP layer: any length
    small = tcp_frame(DEV, GATEWAY, "192.168.4.21", "89.30.121.52", 40000, 80, b"GET / HTTP/1.1\r\n\r\n")
    data = write_pcap([(1_000_000, small), (2_000_000, big), (3_000_000, small)])
    cut = data[: len(data) - 5]
    for source in (data, cut):
        got, want = parse_capture(source), parse_capture_oracle(source)
        assert got.packets == table_rows_oracle(want.packets) and got.warnings == want.warnings
    assert parse_capture(cut).warnings == [f"frame 2: declared caplen {len(small)} exceeds remaining "
                                           f"{len(small) - 5} bytes"]
    truncated = data + struct.pack("<II", 1, 2)
    assert parse_capture(truncated).warnings == [f"frame 3: truncated record header at offset {len(data)}"]
