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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .capture import DeviceStream, PacketTable, RawPacket
from .leaks import _MiningRun, matches_vendor  # noqa: F401 (unused: bench/tests/test_perfbench.py pins this binding)
from .payload import parse_http

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


def activity_periods(
    stream: DeviceStream,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    hostnames: dict[str, str] | None = None,
) -> list[ActivityPeriod]:
    """Greedy segmentation of a time-sorted stream into usage sessions.

    Consecutive packets whose inter-arrival time is at most ``gap_threshold``
    seconds share a period; a single packet forms a zero-duration period.
    Each period's packets, bytes and remote addresses are added up over the
    stream's columns.
    """
    table = stream.table
    if not len(table):
        return []
    hostnames = hostnames or {}
    ts_us = table.ts_us
    # "not <=" rather than ">", so that a NaN threshold splits every packet
    splits = ~(ts_us[1:] - ts_us[:-1] <= gap_threshold * 1_000_000)
    firsts = [0, *(splits.nonzero()[0] + 1).tolist()]
    sizes = np.add.reduceat(table.frame_len, firsts).tolist()
    times, remote, addresses = ts_us.tolist(), stream.remote.tolist(), table.names.addresses
    periods = []
    for first, after, size in zip(firsts, [*firsts[1:], len(table)], sizes):
        names = [addresses[address] for address in set(remote[first:after]) if address >= 0]
        endpoints = {(name, hostnames.get(name)) for name in names}
        start, end = times[first] / 1_000_000, times[after - 1] / 1_000_000
        periods.append(ActivityPeriod(start, end, after - first, size, endpoints))
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


def extract_dns_answers(packets: PacketTable | Iterable[RawPacket]) -> dict[str, str]:
    """address -> hostname map from every DNS response (a UDP payload from
    port 53) in a capture, given as a table or as RawPackets."""
    table = PacketTable.of(packets)
    answers: dict[str, str] = {}
    for row in ((table.proto == 17) & (table.src_port == 53)).nonzero()[0].tolist():
        for address, hostname in _parse_dns_response(table.payloads[row]).items():
            answers.setdefault(address, hostname)
    return answers


def resolve_hostnames(stream: DeviceStream, dns_answers: dict[str, str] | None = None) -> dict[str, str]:
    """Merge DNS answers with HTTP Host evidence from the stream itself."""
    hostmap = dict(dns_answers or {})
    table = stream.table
    addresses = table.names.addresses
    # parse_http returns None for a payload that does not begin with a start line
    rows = table.http.nonzero()[0]
    if not len(rows):
        return hostmap
    for row, address in zip(rows.tolist(), stream.remote[rows].tolist()):
        if address < 0 or addresses[address] in hostmap:
            continue
        message = parse_http(table.payloads[row])
        if message is not None and message.host:
            hostmap[addresses[address]] = message.host
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
    counts = Counter(stream.remote.tolist())  # iterates in first-seen order
    counts.pop(-1, None)  # rows without an IP layer
    hostmap = resolve_hostnames(stream, dns_answers)
    addresses = stream.table.names.addresses
    profiles = []
    for address, count in counts.items():
        address = addresses[address]
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
