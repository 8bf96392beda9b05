"""Capture parsing and MAC-based stream attribution.

The parser fixtures here are assembled by hand with struct.pack so they stay
independent of the package's own frame builders.
"""

import dataclasses
import functools
import pickle
import struct
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medleak.capture import (
    _COLUMNS,
    GLOBAL_HEADER_LEN,
    LINKTYPE_ETHERNET,
    RECORD_HEADER_LEN,
    DeviceStream,
    MalformedCapture,
    RawPacket,
    normalize_mac,
    parse_capture,
    split_by_device,
)
from medleak.corpus import (
    SCENARIOS,
    build_fixture_capture,
    dns_response_payload,
    ethernet_frame,
    generate_random_capture,
    tcp_frame,
    tls_record,
    udp_frame,
    write_pcap,
)
from medleak.metadata import extract_dns_answers
from medleak.payload import AppPayload, detect_tls, extract_payloads

from _oracles import (
    OracleParse,
    extract_dns_answers_oracle,
    ipv4_oracle,
    parse_capture_oracle,
    table_rows_oracle,
)
from conftest import table_of

DEV_MAC = bytes.fromhex("0024e41b2031")
AP_MAC = bytes.fromhex("b827eb5a1004")


def _global_header(magic: bytes) -> bytes:
    return magic + struct.pack("<HHiIII", 2, 4, 0, 0, 65535, 1)


def _record(ts_sec: int, ts_frac: int, frame: bytes, caplen: int | None = None) -> bytes:
    caplen = len(frame) if caplen is None else caplen
    return struct.pack("<IIII", ts_sec, ts_frac, caplen, len(frame)) + frame


def _tcp_frame_by_hand(
    src_mac: bytes, dst_mac: bytes, src_ip: bytes, dst_ip: bytes, sport: int, dport: int, payload: bytes
) -> bytes:
    tcp = struct.pack("!HHIIBBHHH", sport, dport, 1, 0, 5 << 4, 0x18, 4096, 0, 0) + payload
    ip = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(tcp), 7, 0, 64, 6, 0) + src_ip + dst_ip + tcp
    return dst_mac + src_mac + b"\x08\x00" + ip


@pytest.fixture
def three_frame_capture() -> bytes:
    frames = [
        _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\xc0\xa8\x01\x15", b"\x59\x1e\x79\x34", 43211, 80, b"GET / HTTP/1.1\r\n\r\n"),
        _tcp_frame_by_hand(AP_MAC, DEV_MAC, b"\x59\x1e\x79\x34", b"\xc0\xa8\x01\x15", 80, 43211, b"HTTP/1.1 200 OK\r\n\r\nok"),
        _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\xc0\xa8\x01\x15", b"\x59\x1e\x79\x34", 43212, 8080, b"\x00" * 5),
    ]
    records = b"".join(_record(100 + i, 250_000 * i, f) for i, f in enumerate(frames))
    return _global_header(b"\xd4\xc3\xb2\xa1") + records


def test_parse_empty_capture():
    result = parse_capture(_global_header(b"\xd4\xc3\xb2\xa1"))
    assert result.packets == []
    assert result.warnings == []


def test_parse_three_hand_built_frames(three_frame_capture):
    result = parse_capture(three_frame_capture)
    assert len(result.packets) == 3
    assert result.warnings == []

    first, second, third = result.packets
    assert first.index == 0
    assert first.src_mac == "00:24:e4:1b:20:31"
    assert first.dst_mac == "b8:27:eb:5a:10:04"
    assert first.src_addr == "192.168.1.21"
    assert first.dst_addr == "89.30.121.52"
    assert (first.src_port, first.dst_port) == (43211, 80)
    assert first.ip_proto == first.proto == 6
    assert first.payload == b"GET / HTTP/1.1\r\n\r\n"
    assert first.ts_us == 100 * 1_000_000

    assert (second.src_port, second.dst_port) == (80, 43211)
    assert second.payload == b"HTTP/1.1 200 OK\r\n\r\nok"
    assert second.ts_us == 101 * 1_000_000 + 250_000

    assert third.dst_port == 8080
    assert len(third.payload) == 5


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=4, max_size=4), st.binary(min_size=4, max_size=4))
def test_ipv4_addresses_format_as_ipaddress_does(src_ip, dst_ip):
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, src_ip, dst_ip, 1, 2, b"x")
    (packet,) = parse_capture(_global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, frame)).packets
    assert (packet.src_addr, packet.dst_addr) == (ipv4_oracle(src_ip), ipv4_oracle(dst_ip))


def test_truncated_second_frame_yields_one_packet_one_warning(three_frame_capture):
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 1, 2, b"x")
    data = (
        _global_header(b"\xd4\xc3\xb2\xa1")
        + _record(10, 0, frame)
        + _record(11, 0, frame[:20], caplen=len(frame) + 500)
    )
    result = parse_capture(data)
    assert len(result.packets) == 1
    assert len(result.warnings) == 1
    assert "caplen" in result.warnings[0]


def _ipv4_fragment_by_hand(flags_fragment: int, body: bytes) -> bytes:
    """A device-sent IPv4/TCP datagram piece whose flags and fragment offset
    are set by hand; ``body`` is whatever follows the IPv4 header."""
    ip = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(body), 9, flags_fragment, 64, 6, 0)
    return AP_MAC + DEV_MAC + b"\x08\x00" + ip + b"\xc0\xa8\x01\x15" + b"\x59\x1e\x79\x34" + body


def test_non_first_ipv4_fragment_has_ip_but_no_transport():
    tcp = struct.pack("!HHIIBBHHH", 43211, 80, 1, 0, 5 << 4, 0x18, 4096, 0, 0)
    first = _ipv4_fragment_by_hand(0x2000, tcp + b"POST /sync HTTP/1.1\r\n")  # MF set, offset 0
    later = _ipv4_fragment_by_hand(185, b"lo" + b"od" + b"\x00" * 16 + b"body text, not a TCP header")
    data = _global_header(b"\xd4\xc3\xb2\xa1") + _record(10, 0, first) + _record(11, 0, later)
    result = parse_capture(data)
    assert result.warnings == []
    head, tail = result.packets
    assert (head.src_port, head.dst_port) == (43211, 80)
    assert head.payload == b"POST /sync HTTP/1.1\r\n"
    assert tail.ip_proto == 6 and tail.src_addr == "192.168.1.21"
    assert (tail.proto, tail.src_port, tail.dst_port) == (0, -1, -1)

    streams, _ = split_by_device(result.packets, {DEV_MAC.hex(): "dev"})
    assert [p.packet_index for p in extract_payloads(streams[0])] == [head.index]


def test_bad_magic_raises():
    with pytest.raises(MalformedCapture):
        parse_capture(b"\x00\x01\x02\x03" + b"\x00" * 20)


def test_truncated_global_header_raises():
    with pytest.raises(MalformedCapture):
        parse_capture(b"\xd4\xc3\xb2\xa1\x02\x00")


def test_non_ethernet_linktype_raises():
    header = b"\xd4\xc3\xb2\xa1" + struct.pack("<HHiIII", 2, 4, 0, 0, 65535, 105)
    with pytest.raises(MalformedCapture, match="link type"):
        parse_capture(header)


def test_nanosecond_variant_normalizes_to_microseconds():
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 1, 2, b"x")
    data = b"\x4d\x3c\xb2\xa1" + struct.pack("<HHiIII", 2, 4, 0, 0, 65535, 1)
    data += _record(10, 123_456_789, frame)  # fractional field is nanoseconds here
    (packet,) = parse_capture(data).packets
    assert packet.ts_us == 10 * 1_000_000 + 123_456


def test_big_endian_variant():
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 7, 9, b"hi")
    data = b"\xa1\xb2\xc3\xd4" + struct.pack(">HHiIII", 2, 4, 0, 0, 65535, 1)
    data += struct.pack(">IIII", 42, 7, len(frame), len(frame)) + frame
    (packet,) = parse_capture(data).packets
    assert packet.src_port == 7
    assert packet.ts_us == 42 * 1_000_000 + 7


def test_runt_frame_is_skipped_with_warning():
    data = _global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, b"\xaa" * 6)
    result = parse_capture(data)
    assert result.packets == []
    assert len(result.warnings) == 1


def test_sort_is_stable_for_equal_timestamps():
    frame_a = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 1, 2, b"a")
    frame_b = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 3, 4, b"b")
    frame_c = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 5, 6, b"c")
    # out of order: frame at t=5 comes first, then two frames sharing t=2
    data = _global_header(b"\xd4\xc3\xb2\xa1")
    data += _record(5, 0, frame_a) + _record(2, 0, frame_b) + _record(2, 0, frame_c)
    result = parse_capture(data)
    timestamps = [p.ts_us for p in result.packets]
    assert timestamps == sorted(timestamps)
    assert [p.index for p in result.packets] == [1, 2, 0]  # capture order kept on the tie


def test_ethernet_padding_stripped_via_ip_total_length():
    payload = b"ab"
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 1, 2, payload)
    padded = frame + b"\x00" * 10  # Ethernet trailer padding beyond the IP datagram
    data = _global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, padded)
    (packet,) = parse_capture(data).packets
    assert packet.payload == payload


def test_an_ipv4_total_length_below_the_header_length_runs_the_datagram_to_the_frame_end():
    """A lenient rule: an IPv4 total length below the header length bounds
    nothing, so the datagram runs to the frame's end, trailer included,
    with no warning (total length 0 is what captures of TSO-offloaded sends
    hold). A total length of exactly the header length bounds the datagram
    to its header, and the TCP header is then cut short."""
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", 1, 2, b"ab") + b"cd"
    for total_len in (0, 12, 19):
        lenient = frame[:16] + struct.pack("!H", total_len) + frame[18:]
        result = parse_capture(_global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, lenient))
        (packet,) = result.packets
        assert packet.payload == b"abcd" and packet.dst_port == 2
        assert result.warnings == []
    bounded = frame[:16] + struct.pack("!H", 20) + frame[18:]
    result = parse_capture(_global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, bounded))
    assert result.packets == [] and result.warnings == ["frame 0: truncated TCP header"]


def test_a_udp_length_past_the_datagram_end_keeps_the_bytes_that_are_there():
    """A lenient rule: a UDP length longer than its datagram is accepted
    without a warning, and the payload is cut to the bytes the datagram
    holds; a UDP length shorter than the datagram bounds the payload."""
    for udp_len, payload in ((8 + 4 + 100, b"mdns"), (0xFFFF, b"mdns"), (8 + 2, b"md")):
        udp = struct.pack("!HHHH", 5353, 5353, udp_len, 0) + b"mdns"
        ip = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(udp), 7, 0, 64, 17, 0) + b"\xc0\xa8\x01\x15" * 2 + udp
        result = parse_capture(_global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, AP_MAC + DEV_MAC + b"\x08\x00" + ip))
        (packet,) = result.packets
        assert packet.proto == 17 and packet.payload == payload
        assert result.warnings == []


def test_ipv6_tcp_frame_decodes_addresses_and_ports():
    payload = b"GET /v6 HTTP/1.1\r\n\r\n"
    tcp = struct.pack("!HHIIBBHHH", 50000, 80, 1, 0, 5 << 4, 0x18, 4096, 0, 0) + payload
    src = bytes.fromhex("20010db8000000000000000000000001")
    dst = bytes.fromhex("20010db8000000000000000000000002")
    ipv6 = struct.pack("!IHBB", 6 << 28, len(tcp), 6, 64) + src + dst + tcp
    frame = AP_MAC + DEV_MAC + b"\x86\xdd" + ipv6
    data = _global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, frame)
    (packet,) = parse_capture(data).packets
    assert packet.src_addr == "2001:db8::1"
    assert packet.dst_addr == "2001:db8::2"
    assert packet.ip_proto == packet.proto == 6
    assert (packet.src_port, packet.dst_port) == (50000, 80)
    assert packet.payload == payload


def test_arp_frame_has_no_ip_or_transport():
    body = b"\x00\x01\x08\x00\x06\x04\x00\x01" + b"\x00" * 20
    frame = AP_MAC + DEV_MAC + b"\x08\x06" + body
    data = _global_header(b"\xd4\xc3\xb2\xa1") + _record(1, 0, frame)
    (packet,) = parse_capture(data).packets
    assert (packet.ip_proto, packet.src_addr, packet.dst_addr) == (-1, None, None)
    assert (packet.proto, packet.src_port, packet.dst_port, packet.head, packet.tls) == (0, -1, -1, -1, False)
    assert packet.payload == body


def _mk_record(index: int, src_mac: str, dst_mac: str) -> tuple[int, bytes]:
    """A bare Ethernet frame of a non-IP ethertype: no IP layer, no transport, no payload."""
    return index, ethernet_frame(src_mac, dst_mac, 0x88B5, b"")


class TestSplitByDevice:
    def test_six_of_ten_matched(self):
        device = "00:24:e4:00:00:01"
        other = "aa:aa:aa:aa:aa:01"
        # 3 outbound + 3 inbound for the device, 4 stranger-to-stranger
        records = [_mk_record(i, device, other) for i in range(3)]
        records += [_mk_record(3 + i, other, device) for i in range(3)]
        records += [_mk_record(6 + i, "cc:cc:cc:cc:cc:03", "dd:dd:dd:dd:dd:04") for i in range(4)]
        streams, unattributed = split_by_device(table_of(records), {device: "monitor"})
        assert len(streams) == 1
        assert streams[0].device_id == "monitor"
        assert len(streams[0].table) == 6
        assert len(unattributed) == 4

    def test_zero_matching_registry(self):
        records = [_mk_record(i, "aa:aa:aa:aa:aa:01", "bb:bb:bb:bb:bb:02") for i in range(5)]
        streams, unattributed = split_by_device(table_of(records), {"00:11:22:33:44:55": "ghost"})
        assert [len(s.table) for s in streams] == [0]
        assert len(unattributed) == 5

    def test_both_registered_goes_to_src_device(self):
        a, b = "aa:aa:aa:aa:aa:01", "bb:bb:bb:bb:bb:02"
        streams, unattributed = split_by_device(table_of([_mk_record(0, a, b)]), {a: "dev_a", b: "dev_b"})
        by_id = {s.device_id: s.table for s in streams}
        assert len(by_id["dev_a"]) == 1
        assert by_id["dev_b"] == []
        assert unattributed == []

    def test_empty_registry_all_unattributed(self):
        records = [_mk_record(i, "aa:aa:aa:aa:aa:01", "bb:bb:bb:bb:bb:02") for i in range(3)]
        streams, unattributed = split_by_device(table_of(records), {})
        assert streams == []
        assert len(unattributed) == 3

    def test_registry_mac_forms_are_normalized(self):
        record = _mk_record(0, "00:24:e4:1b:20:31", "ff:ff:ff:ff:ff:ff")
        streams, _ = split_by_device(table_of([record]), {"00-24-E4-1B-20-31": "monitor"})
        assert len(streams[0].table) == 1

    def test_two_spellings_of_one_mac_are_rejected_not_merged(self):
        """Each registry entry gets a stream, so two entries that name one
        MAC cannot both have one: the split refuses the registry, as
        RunConfig does, instead of keeping the last label."""
        packets = parse_capture(build_fixture_capture("bp-monitor-leaky")).table
        registry = {"00:24:E4:1B:20:31": "first", "00:24:e4:1b:20:31": "second"}
        with pytest.raises(ValueError, match="duplicate registry MAC 00:24:e4:1b:20:31"):
            split_by_device(packets, registry)


def test_normalize_mac_accepts_common_forms():
    assert normalize_mac("AA:BB:CC:DD:EE:FF") == "aa:bb:cc:dd:ee:ff"
    assert normalize_mac("aa-bb-cc-dd-ee-ff") == "aa:bb:cc:dd:ee:ff"
    assert normalize_mac("aabbccddeeff") == "aa:bb:cc:dd:ee:ff"
    with pytest.raises(ValueError):
        normalize_mac("not-a-mac")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_partition_conservation(seed):
    data, registry = generate_random_capture(seed)
    packets = parse_capture(data).packets
    streams, unattributed = split_by_device(packets, registry)
    assert sum(len(s.table) for s in streams) + len(unattributed) == len(packets)
    for stream in streams:
        assert all(p.src_mac == stream.mac or p.dst_mac == stream.mac for p in stream.table)
    # disjointness: every packet lands exactly once
    seen = [p.index for s in streams for p in s.table] + [p.index for p in unattributed]
    assert sorted(seen) == sorted(p.index for p in packets)


_SPLIT_MACS = ("02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03")


@settings(max_examples=200, deadline=None)
@given(
    # (source, destination, with an IP layer): a device may send to itself
    # or broadcast, and a registry may hold both ends of a frame
    frames=st.lists(st.tuples(st.sampled_from(_SPLIT_MACS), st.sampled_from((*_SPLIT_MACS, "ff:ff:ff:ff:ff:ff")),
                              st.booleans()), max_size=16),
    registered=st.lists(st.sampled_from(_SPLIT_MACS), unique=True),
)
def test_each_grouped_row_has_the_owner_direction_and_remote_read_from_its_frame(frames, registered):
    """The owner, outbound flag and remote end of each row of each split
    stream are those read from its frame's bytes, one packet at a time: a
    registered source owns its row and sent it, else a registered
    destination owns it and received it, and the remote end is the other
    end's address (None without an IP layer). No other row is grouped."""
    records = []
    for k, (src, dst, with_ip) in enumerate(frames):
        if with_ip:  # each end's address is its own, so the remote tells the direction
            frame = udp_frame(src, dst, f"10.1.0.{k}", f"10.2.0.{k}", 5000, 6000, b"x")
        else:
            frame = ethernet_frame(src, dst, 0x88B5, b"")
        records.append((k, frame))
    data = write_pcap(records)
    registry = {mac: f"device_{position}" for position, mac in enumerate(registered)}
    want = {}
    for packet in parse_capture_oracle(data).packets:
        owner = next((mac for mac in (packet.src_mac, packet.dst_mac) if mac in registry), None)
        if owner is not None:
            outbound = packet.src_mac == owner
            want[packet.index] = (registry[owner], outbound, packet.dst_addr if outbound else packet.src_addr)

    table = parse_capture(data).table
    streams, unattributed = split_by_device(table, registry)
    addresses = [*table.names.addresses, None]  # id -1 reads the None
    got = {}
    for stream in streams:
        for index, outbound, remote in zip(stream.table.index.tolist(), stream.outbound.tolist(),
                                           stream.remote.tolist()):
            got[index] = (stream.device_id, outbound, addresses[remote])
    assert got == want
    assert sorted(unattributed.index.tolist()) == sorted(set(range(len(frames))) - set(want))


# --- decode against the oracle ------------------------------------------------

# (magic, byte order) of the four classic pcap variants
_VARIANTS = [(b"\xd4\xc3\xb2\xa1", "<"), (b"\xa1\xb2\xc3\xd4", ">"), (b"\x4d\x3c\xb2\xa1", "<"),
             (b"\xa1\xb2\x3c\x4d", ">")]
# Small pools, so that headers repeat across the frames of one capture
_MAC_PAIRS = (AP_MAC + DEV_MAC, DEV_MAC + AP_MAC)
_IPV4_ADDRS = (b"\xc0\xa8\x01\x15\x59\x1e\x79\x34", b"\x59\x1e\x79\x34\xc0\xa8\x01\x15")
_IPV6_ADDRS = (bytes.fromhex("20010db8" + "00" * 11 + "01" + "20010db8" + "00" * 11 + "02"),
               bytes.fromhex("fe80" + "00" * 13 + "01" + "00" * 10 + "ffff" + "c0a80115"))
_PORT_PAIRS = (struct.pack("!HH", 43211, 80), struct.pack("!HH", 53, 42333))
# How a hostile frame's payload may start: with nothing chosen, with a TLS
# application-data record header (minor 0..4, whole or cut), with one of
# minor 5 or a handshake record, or with a DNS response's id 0x1703 and flags
_PAYLOAD_STARTS = (b"", b"\x17\x03\x03\x05\xa0", b"\x17\x03\x00", b"\x17\x03\x04\x00", b"\x17\x03",
                   b"\x17\x03\x05\x00\x10", b"\x16\x03\x01\x00\x20", b"\x17\x03\x81\x80")


def _capture(variant, records) -> bytes:
    magic, endian = variant
    data = magic + struct.pack(endian + "HHiIII", 2, 4, 0, 0, 65535, 1)
    for ts_sec, ts_frac, frame in records:
        data += struct.pack(endian + "IIII", ts_sec, ts_frac, len(frame), len(frame)) + frame
    return data


def _assert_decodes_as_oracle(data: bytes) -> None:
    got, want = parse_capture(data), parse_capture_oracle(data)
    assert got.packets == table_rows_oracle(want.packets)
    assert got.warnings == want.warnings


@st.composite
def _hostile_frame(draw) -> bytes:
    """An Ethernet frame with IPv4, IPv6 or ARP under it and TCP, UDP, ICMP or
    an IPv6 hop-by-hop (0) or fragment (44) extension header above that,
    whose length, version, IHL, total length, fragment, data offset and UDP
    length fields are drawn from valid and invalid values, and which may then
    be cut short."""
    protocol = draw(st.sampled_from([6, 17, 1, 0, 44]))
    data = draw(st.sampled_from(_PAYLOAD_STARTS)) + draw(st.binary(max_size=24))
    ports = draw(st.sampled_from(_PORT_PAIRS))
    if protocol == 6:
        data_offset = draw(st.integers(0, 15))
        segment = ports + struct.pack("!IIBBHHH", 1, 0, data_offset << 4, 0x18, 4096, 0, 0) + data
    elif protocol == 17:
        udp_len = draw(st.sampled_from([8 + len(data), 0, 7, 8]) | st.integers(0, 0xFFFF))
        segment = ports + struct.pack("!HH", udp_len, 0) + data
    elif protocol in (0, 44):
        # an 8-byte extension header naming TCP next, then a valid TCP header:
        # the transport is not decoded, since the extension is not followed
        segment = struct.pack("!BB6x", 6, 0) + ports + struct.pack("!IIBBHHH", 1, 0, 5 << 4, 0x18, 4096, 0, 0) + data
    else:
        segment = data
    ethertype = draw(st.sampled_from([0x0800, 0x86DD, 0x0806]))
    if ethertype == 0x0800:
        options = bytes(draw(st.sampled_from([0, 4, 40])))
        ihl = draw(st.sampled_from([5 + len(options) // 4]) | st.integers(0, 15))
        version = draw(st.sampled_from([4, 6]))
        total_len = draw(st.sampled_from([20 + len(options) + len(segment)]) | st.integers(0, 0xFFFF))
        flags_fragment = draw(st.sampled_from([0, 0x4000, 0x2000, 185, 0x2000 | 185, 0x1000]))
        checksum = draw(st.integers(0, 0xFFFF))  # varies per frame for the same addresses
        header = struct.pack("!BBHHHBBH", version << 4 | ihl, 0, total_len, 7, flags_fragment, 64, protocol,
                             checksum) + draw(st.sampled_from(_IPV4_ADDRS)) + options
    elif ethertype == 0x86DD:
        version = draw(st.sampled_from([6, 4]))
        payload_len = draw(st.sampled_from([len(segment)]) | st.integers(0, 0xFFFF))
        hop_limit = draw(st.integers(0, 255))
        header = struct.pack("!IHBB", version << 28, payload_len, protocol, hop_limit)
        header += draw(st.sampled_from(_IPV6_ADDRS))
    else:
        header = b"\x00\x01\x08\x00\x06\x04\x00\x01"
    frame = draw(st.sampled_from(_MAC_PAIRS)) + struct.pack("!H", ethertype) + header + segment
    cut = draw(st.none() | st.integers(0, len(frame)))
    return frame if cut is None else frame[:cut]


def test_random_captures_and_fixtures_decode_as_oracle():
    for seed in range(30):
        _assert_decodes_as_oracle(generate_random_capture(seed)[0])
    for scenario in SCENARIOS:
        _assert_decodes_as_oracle(build_fixture_capture(scenario))


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(_VARIANTS),
    # few distinct seconds, so frames tie and arrive out of time order
    records=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**32 - 1), _hostile_frame()), max_size=12),
)
def test_hostile_frames_decode_as_oracle(variant, records):
    _assert_decodes_as_oracle(_capture(variant, records))


@st.composite
def _payload_frame(draw) -> bytes:
    """A well-formed IPv4 or IPv6 frame holding a TCP or UDP payload that
    may start like a TLS record, on port 80, 53 or 443: hostile frames
    seldom decode as far as a payload."""
    data = draw(st.sampled_from(_PAYLOAD_STARTS)) + draw(st.binary(max_size=40))
    ports = draw(st.sampled_from(_PORT_PAIRS + (struct.pack("!HH", 43211, 443),)))
    protocol = draw(st.sampled_from([6, 17]))
    if protocol == 6:
        segment = ports + struct.pack("!IIBBHHH", 1, 0, 5 << 4, 0x18, 4096, 0, 0) + data
    else:
        segment = ports + struct.pack("!HH", 8 + len(data), 0) + data
    if draw(st.booleans()):
        ethertype = b"\x08\x00"
        header = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(segment), 7, 0, 64, protocol, 0)
        header += draw(st.sampled_from(_IPV4_ADDRS))
    else:
        ethertype = b"\x86\xdd"
        header = struct.pack("!IHBB", 6 << 28, len(segment), protocol, 64) + draw(st.sampled_from(_IPV6_ADDRS))
    return draw(st.sampled_from(_MAC_PAIRS)) + ethertype + header + segment


def _assert_the_cut_changes_no_verdict(data: bytes) -> None:
    """Each row gives the TLS verdict on the payload its table keeps that it
    gives on the oracle's full payload; a row keeps less than the full
    payload only where that starts an application-data record, and then
    keeps its 5-byte header; the DNS answers are those of the full
    payloads."""
    table = parse_capture(data).table
    packets = parse_capture_oracle(data).packets
    rows = table.packets()
    assert [row.index for row in rows] == [packet.index for packet in packets]
    for row, packet in zip(rows, packets):
        full, kept = packet.payload, row.payload
        if kept != full:
            assert packet.proto
            assert full[:2] == b"\x17\x03" and full[2] <= 4 and len(full) > 5 and kept == full[:5]
        if not packet.proto:
            continue
        ports = (packet.src_port, packet.dst_port)
        assert detect_tls(AppPayload(packet.index, "outbound", ports, kept)) == detect_tls(
            AppPayload(packet.index, "outbound", ports, full))
    assert extract_dns_answers(table) == extract_dns_answers_oracle(packets)


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(_VARIANTS),
    records=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**32 - 1), _hostile_frame() | _payload_frame()),
                     max_size=12),
)
def test_cutting_hostile_application_data_changes_no_verdict(variant, records):
    _assert_the_cut_changes_no_verdict(_capture(variant, records))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cutting_random_captures_application_data_changes_no_verdict(seed):
    _assert_the_cut_changes_no_verdict(generate_random_capture(seed)[0])


def test_a_dns_response_with_a_record_like_id_keeps_its_bytes():
    """A DNS response whose transaction id is 0x1703 starts like a TLS
    record, but the QR bit puts its third byte at 0x80 or above: no record
    header allows that, so the response keeps every byte and its answer."""
    response = dns_response_payload(0x1703, "api.vendor.example", ["89.30.121.52"])
    assert response[:3] == b"\x17\x03\x81"
    frame = udp_frame(AP_MAC.hex(":"), DEV_MAC.hex(":"), "192.168.1.1", "192.168.1.21", 53, 42333, response)
    table = table_of([(1_000_000, frame)])
    assert table.payloads == [response] and not table.tls.any()
    assert extract_dns_answers(table) == {"89.30.121.52": "api.vendor.example"}


def _ipv6_capture() -> bytes:
    """IPv6 TCP and UDP frames over the small pools, each header repeated
    with another hop limit and payload."""
    frames = []
    for round_ in range(3):
        for addrs in _IPV6_ADDRS:
            for ports in _PORT_PAIRS:
                tcp = ports + struct.pack("!IIBBHHH", round_, 0, 5 << 4, 0x18, 4096, 0, 0) + b"t" * round_
                udp = ports + struct.pack("!HH", 8 + round_, 0) + b"u" * round_
                for protocol, segment in ((6, tcp), (17, udp)):
                    header = struct.pack("!IHBB", 6 << 28, len(segment), protocol, 64 - round_) + addrs
                    frames.append(_MAC_PAIRS[round_ % 2] + b"\x86\xdd" + header + segment)
    return _capture(_VARIANTS[0], [(1, 0, frame) for frame in frames])


def test_headers_are_shared_within_a_parse_and_never_across_parses():
    """Each distinct MAC and address string is formatted once per parse, so
    every row that names one shares it; another parse formats its own."""
    for data in (build_fixture_capture("mixed-home"), _ipv6_capture()):
        first, second = list(parse_capture(data).packets), list(parse_capture(data).packets)
        assert first == second
        for field in ("src_mac", "dst_mac", "src_addr", "dst_addr"):
            strings = [getattr(p, field) for p in first if getattr(p, field) is not None]
            # one instance per distinct string: each is formatted once per parse
            assert len({id(text) for text in strings}) == len(set(strings)) < len(strings)
            # the names live for one call only
            others = {id(getattr(p, field)) for p in second}
            assert all(id(text) not in others for text in strings)


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(_VARIANTS),
    frames=st.lists(st.binary(max_size=80) | _hostile_frame(), max_size=8),
    tail=st.binary(max_size=48),
)
def test_arbitrary_records_raise_nothing_and_every_record_is_counted(variant, frames, tail):
    data = _capture(variant, [(1, 0, frame) for frame in frames]) + tail
    try:
        result = parse_capture(data)
    except MalformedCapture:
        return
    # walk the records independently of the parser
    records, offset, cut_short = 0, GLOBAL_HEADER_LEN, False
    while offset < len(data):
        if offset + RECORD_HEADER_LEN > len(data):
            cut_short = True
            break
        (incl_len,) = struct.unpack_from(variant[1] + "I", data, offset + 8)
        offset += RECORD_HEADER_LEN + incl_len
        if offset > len(data):
            cut_short = True
            break
        records += 1
    skipped = len(result.warnings) - cut_short
    assert len(result.packets) + skipped == records


def _outcome(parse, source):
    """A parse's packets and warnings, or the message of its MalformedCapture."""
    try:
        result = parse(source)
    except MalformedCapture as exc:
        return str(exc)
    return result.packets, result.warnings


def _table_parse_oracle(source):
    """``parse_capture_oracle``'s packets as a table keeps them, and its warnings."""
    packets, warnings = parse_capture_oracle(source)
    return OracleParse(table_rows_oracle(packets), warnings)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    variant=st.sampled_from(_VARIANTS),
    records=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**32 - 1), st.binary(max_size=80) | _hostile_frame()),
                     max_size=8),
    tail=st.binary(max_size=48),
    magic=st.none() | st.binary(min_size=4, max_size=4),
    network=st.sampled_from([LINKTYPE_ETHERNET]) | st.integers(0, 2**32 - 1),
    cut=st.none() | st.integers(0, GLOBAL_HEADER_LEN + RECORD_HEADER_LEN),
)
def test_a_file_parses_as_its_bytes(tmp_path, variant, records, tail, magic, network, cut):
    data = _capture(variant, records) + tail
    data = (magic or data[:4]) + data[4:20] + struct.pack(variant[1] + "I", network) + data[24:]
    data = data if cut is None else data[:cut]
    path = tmp_path / "capture.pcap"
    path.write_bytes(data)
    with path.open("rb") as fh:
        from_file = _outcome(parse_capture, fh)
    assert from_file == _outcome(parse_capture, data) == _outcome(_table_parse_oracle, data)


def _traced(parse):
    """(result, traced peak, traced memory the result retains) of one parse."""
    tracemalloc.start()
    try:
        result = parse()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


def test_a_huge_declared_caplen_in_a_file_warns_without_allocating_it(tmp_path):
    path = tmp_path / "huge-caplen.pcap"
    path.write_bytes(_global_header(b"\xd4\xc3\xb2\xa1") + struct.pack("<IIII", 1, 0, 0xFFFFFFFF, 60) + b"\x00" * 8)
    with path.open("rb") as fh:
        result, peak, _ = _traced(lambda: parse_capture(fh))
    assert result.packets == []
    assert result.warnings == ["frame 0: declared caplen 4294967295 exceeds remaining 8 bytes"]
    assert peak < 1 << 20


@pytest.mark.parametrize("size", [1_000_000, 8_000_000])
def test_parsing_a_file_holds_no_more_than_its_result(tmp_path, size):
    """Near-MTU TLS frames, the shape of a long device capture: the parse's
    traced peak is what its packets keep plus a slack that does not grow
    with the file, and the packets keep less than the file plus a quarter
    (each keeps its payload, not its frame)."""
    frame = _tcp_frame_by_hand(DEV_MAC, AP_MAC, b"\xc0\xa8\x01\x15", b"\x59\x1e\x79\x34", 43211, 443,
                               b"\x17\x03\x03\x05\x78" + bytes(1395))
    count = (size - GLOBAL_HEADER_LEN) // (RECORD_HEADER_LEN + len(frame))
    path = tmp_path / "bulk.pcap"
    with path.open("wb") as fh:
        fh.write(_global_header(b"\xd4\xc3\xb2\xa1"))
        for i in range(count):
            fh.write(_record(1_700_000_000 + i, 0, frame))
    with path.open("rb") as fh:
        result, peak, retained = _traced(lambda: parse_capture(fh))
    assert len(result.packets) == count and result.warnings == []
    assert peak - retained < 256 * 1024
    assert retained < 1.25 * size


def test_a_small_parsed_packet_keeps_only_what_analysis_reads():
    """A 75-byte TLS frame parses to a table row that keeps one entry of
    each column, its payload cut to the 5-byte record header, and a list
    slot; its MACs and addresses are shared. The bound is those objects'
    sizes on the running interpreter plus 24 B, so a field that holds one
    more object per frame (an int is at least 28 B) shows here. On CPython
    3.11 with numpy 2.4 a row keeps 105.0 B traced against a 124 B bound."""
    record = tls_record(0x17, 3, bytes(16))
    frame = tcp_frame(DEV_MAC.hex(":"), AP_MAC.hex(":"), "192.168.1.21", "89.30.121.52", 43211, 443, record)
    assert len(frame) == 75
    count = 20_000
    data = write_pcap([(1_700_000_000_000_000 + i * 1000, frame) for i in range(count)])
    result, _, retained = _traced(lambda: parse_capture(data))
    assert len(result.packets) == count and result.warnings == []
    table = result.table
    assert table.payloads[-1] == record[:5]
    kept = sum(getattr(table, name).itemsize for name in _COLUMNS) + sys.getsizeof(table.payloads[-1]) + 8
    assert retained / count < kept + 24


def test_a_raw_packet_holds_each_column_then_the_payload():
    """A RawPacket is its row's columns read back, in column order, then
    the payload: so a new column extends it. A MAC or address id reads as
    its string, and an address id of -1 (no IP layer) as None."""
    assert RawPacket._fields == (*_COLUMNS, "payload")
    table = parse_capture(build_fixture_capture("mixed-home")).table
    macs, addresses = table.names.macs, table.names.addresses
    packets = table.packets()
    assert any(packet.src_addr is None for packet in packets)
    for row, packet in enumerate(packets):
        for name in _COLUMNS:
            value = getattr(table, name)[row].item()
            if name.endswith("_mac"):
                value = macs[value]
            elif name.endswith("_addr"):
                value = None if value == -1 else addresses[value]
            assert getattr(packet, name) == value
        assert packet.payload is table.payloads[row]


_PACKET = RawPacket(3, 1_000_000, 57, "aa", "bb", 6, "192.168.4.21", "89.30.121.52", 6, 40000, 80, 71, False, b"GET")


@pytest.mark.parametrize("record, field_names, text", [
    (_PACKET,
     ("index", "ts_us", "frame_len", "src_mac", "dst_mac", "ip_proto", "src_addr", "dst_addr", "proto", "src_port",
      "dst_port", "head", "tls", "payload"),
     "RawPacket(index=3, ts_us=1000000, frame_len=57, src_mac='aa', dst_mac='bb', ip_proto=6, "
     "src_addr='192.168.4.21', dst_addr='89.30.121.52', proto=6, src_port=40000, dst_port=80, head=71, tls=False, "
     "payload=b'GET')"),
    (AppPayload(3, "outbound", (40000, 80), b"GET"),
     ("packet_index", "direction", "port_pair", "data"),
     "AppPayload(packet_index=3, direction='outbound', port_pair=(40000, 80), data=b'GET')"),
], ids=["RawPacket", "AppPayload"])
def test_packet_records_are_slotted_frozen_values(record, field_names, text):
    """A RawPacket is a named tuple, an AppPayload a slotted frozen
    dataclass: each has no ``__dict__``, refuses a field set, and copies,
    compares and pickles as a value."""
    named = isinstance(record, tuple)
    replace = record._replace if named else functools.partial(dataclasses.replace, record)
    assert not hasattr(record, "__dict__")
    assert (record._fields if named else tuple(field.name for field in dataclasses.fields(record))) == field_names
    assert repr(record) == text
    first = field_names[0]
    with pytest.raises(AttributeError if named else dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    copy = replace()
    assert copy == record and copy is not record
    assert replace(**{first: None}) != record
    assert pickle.loads(pickle.dumps(record)) == record
