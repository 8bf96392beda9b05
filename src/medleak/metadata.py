"""Traffic-shape analysis: activity periods, endpoint profiles, periodicity.

Even fully encrypted devices reveal usage behavior through when they talk
and whom they talk to; this module extracts that second-order evidence from
a device stream using only in-capture information.
"""

from __future__ import annotations

import ipaddress
import statistics
import struct
from collections import Counter
from dataclasses import dataclass, field

from .capture import DeviceStream, RawPacket
from .leaks import _MiningRun, matches_vendor  # noqa: F401 (unused: bench/tests/test_perfbench.py pins this binding)
from .payload import _START_LINE_PREFIXES, parse_http

DEFAULT_GAP_THRESHOLD = 60.0  # seconds of silence that end an activity period


@dataclass
class ActivityPeriod:
    start: float
    end: float
    packet_count: int
    bytes_total: int
    endpoints: set[tuple[str, str | None]] = field(default_factory=set)


@dataclass
class EndpointProfile:
    address: str
    hostname: str | None
    packet_count: int
    vendor_flag: bool


@dataclass(frozen=True)
class PeriodicityHint:
    median_interval: float
    dispersion: float


def remote_address(packet: RawPacket, device_mac: str) -> str | None:
    """The non-device end of an IP packet, relative to the device MAC."""
    if packet.ip is None:
        return None
    return packet.ip.dst_addr if packet.src_mac == device_mac else packet.ip.src_addr


def activity_periods(
    stream: DeviceStream,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    hostnames: dict[str, str] | None = None,
) -> list[ActivityPeriod]:
    """Greedy segmentation of a time-sorted stream into usage sessions.

    Consecutive packets whose inter-arrival time is at most ``gap_threshold``
    seconds share a period; a single packet forms a zero-duration period.
    One pass adds up each period's packets, bytes and remote addresses.
    """
    if not stream.packets:
        return []
    hostnames = hostnames or {}
    gap_us = gap_threshold * 1_000_000

    def period(first: RawPacket, last: RawPacket, count: int, size: int, addresses: set[str]) -> ActivityPeriod:
        endpoints = {(address, hostnames.get(address)) for address in addresses}
        return ActivityPeriod(first.timestamp, last.timestamp, count, size, endpoints)

    periods: list[ActivityPeriod] = []
    first = last = stream.packets[0]
    count = size = 0
    addresses: set[str] = set()
    for packet in stream.packets:
        # "not <=" rather than ">", so that a NaN threshold splits every packet
        if count and not packet.timestamp_us - last.timestamp_us <= gap_us:
            periods.append(period(first, last, count, size, addresses))
            first, count, size, addresses = packet, 0, 0, set()
        last = packet
        count += 1
        size += packet.frame_len
        address = remote_address(packet, stream.mac)
        if address is not None:
            addresses.add(address)
    periods.append(period(first, last, count, size, addresses))
    return periods


def _decode_dns_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) DNS name; returns (name, next offset)."""
    labels: list[str] = []
    jumps = 0
    next_offset = -1
    while True:
        if offset >= len(data) or jumps > 32:
            break
        length = data[offset]
        if length == 0:
            offset += 1
            break
        if length & 0xC0 == 0xC0:  # compression pointer
            if offset + 1 >= len(data):
                break
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if next_offset < 0:
                next_offset = offset + 2
            offset = pointer
            jumps += 1
            continue
        labels.append(data[offset + 1 : offset + 1 + length].decode("latin-1"))
        offset += 1 + length
    return ".".join(labels), (next_offset if next_offset >= 0 else offset)


def _parse_dns_response(data: bytes) -> dict[str, str]:
    """address -> hostname pairs from the answer section of one response."""
    if len(data) < 12:
        return {}
    flags, qdcount, ancount = struct.unpack("!HHH", data[2:8])
    if not flags & 0x8000:  # not a response
        return {}
    offset = 12
    for _ in range(qdcount):
        if offset >= len(data):
            break  # a hostile qdcount would otherwise loop up to 65,535 times
        _, offset = _decode_dns_name(data, offset)
        offset += 4  # qtype + qclass
    answers: dict[str, str] = {}
    for _ in range(ancount):
        if offset >= len(data):
            break
        name, offset = _decode_dns_name(data, offset)
        if offset + 10 > len(data):
            break
        rtype, _, _, rdlength = struct.unpack("!HHIH", data[offset : offset + 10])
        if offset + 10 + rdlength > len(data):
            break  # rdata cut off (e.g. by the snap length)
        offset += 10
        rdata = data[offset : offset + rdlength]
        offset += rdlength
        if rtype == 1 and rdlength == 4:  # A
            answers.setdefault(str(ipaddress.IPv4Address(rdata)), name)
        elif rtype == 28 and rdlength == 16:  # AAAA
            answers.setdefault(str(ipaddress.IPv6Address(rdata)), name)
    return answers


def extract_dns_answers(packets: list[RawPacket]) -> dict[str, str]:
    """address -> hostname map from every DNS response in a capture."""
    answers: dict[str, str] = {}
    for packet in packets:
        if packet.transport is None or packet.transport.kind != "UDP":
            continue
        if packet.transport.src_port != 53:
            continue
        for address, hostname in _parse_dns_response(packet.payload).items():
            answers.setdefault(address, hostname)
    return answers


def resolve_hostnames(stream: DeviceStream, dns_answers: dict[str, str] | None = None) -> dict[str, str]:
    """Merge DNS answers with HTTP Host evidence from the stream itself."""
    hostmap = dict(dns_answers or {})
    for packet in stream.packets:
        if packet.transport is None or packet.transport.kind != "TCP":
            continue
        if not packet.payload.startswith(_START_LINE_PREFIXES):
            continue  # parse_http would return None
        address = remote_address(packet, stream.mac)
        if address is None or address in hostmap:
            continue
        message = parse_http(packet.payload)
        if message is not None and message.host:
            hostmap[address] = message.host
    return hostmap


def endpoint_profiles(
    stream: DeviceStream,
    dns_answers: dict[str, str] | None = None,
    vendor_patterns=(),
    run: _MiningRun | None = None,
) -> list[EndpointProfile]:
    """One profile per distinct remote address the device exchanged IP
    traffic with, in first-seen order."""
    vendor = (run or _MiningRun(vendor_patterns=vendor_patterns)).vendor
    counts: Counter[str] = Counter()  # iterates in first-seen order
    for packet in stream.packets:
        address = remote_address(packet, stream.mac)
        if address is not None:
            counts[address] += 1
    hostmap = resolve_hostnames(stream, dns_answers)
    profiles = []
    for address, count in counts.items():
        hostname = hostmap.get(address)
        profiles.append(
            EndpointProfile(
                address=address,
                hostname=hostname,
                packet_count=count,
                vendor_flag=vendor(hostname) or vendor(address),
            )
        )
    return profiles


def periodicity_hint(periods: list[ActivityPeriod]) -> PeriodicityHint | None:
    """Median and median-absolute-deviation of successive period starts.

    Robust at the handful-of-sessions scale typical of desk captures; None
    when fewer than three periods exist.
    """
    if len(periods) < 3:
        return None
    starts = [p.start for p in periods]
    intervals = [later - earlier for earlier, later in zip(starts, starts[1:])]
    median = statistics.median(intervals)
    dispersion = statistics.median(abs(value - median) for value in intervals)
    return PeriodicityHint(median_interval=median, dispersion=dispersion)
