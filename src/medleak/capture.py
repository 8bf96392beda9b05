"""PCAP ingestion and MAC-based per-device stream attribution.

Reads classic libpcap captures (microsecond or nanosecond variants, Ethernet
link type) block by block, decodes each block's Ethernet/IPv4/IPv6/TCP/UDP
headers with numpy into the columns of a ``PacketTable``, and partitions the
table into one stream per registered device MAC address. A ``RawPacket`` is
one row of a table as an object, built only when it is asked for.
"""

from __future__ import annotations

import io
import logging
import operator
import re
import struct
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from ipaddress import IPv6Address
from typing import BinaryIO, Mapping

import numpy as np

log = logging.getLogger(__name__)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

LINKTYPE_ETHERNET = 1

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
ETHERNET_HEADER_LEN = 14

# The wire rules the decode flags each row by: TLS by port or record header,
# and an HTTP/1.x start line, which begins with one of the prefixes (the
# start-line patterns of payload.parse_http are anchored).
TLS_PORT = 443
TLS_CONTENT_TYPES = frozenset({0x14, 0x15, 0x16, 0x17})
HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH", "TRACE", "CONNECT")
_START_LINE_PREFIXES = tuple(f"{method} ".encode() for method in HTTP_METHODS) + (b"HTTP/",)

# Classic pcap magic bytes as they appear at the start of the file:
# (struct byte-order prefix, fractional-seconds divisor to reach microseconds)
_MAGICS = {
    b"\xd4\xc3\xb2\xa1": ("<", 1),      # little-endian, microseconds
    b"\xa1\xb2\xc3\xd4": (">", 1),      # big-endian, microseconds
    b"\x4d\x3c\xb2\xa1": ("<", 1000),   # little-endian, nanoseconds
    b"\xa1\xb2\x3c\x4d": (">", 1000),   # big-endian, nanoseconds
}
# a record header's incl_len, per byte order
_INCL_LEN = {endian: struct.Struct(endian + "8xI") for endian in "<>"}
_BLOCK = 1 << 17  # bytes read at a time; a longer record is read whole


class MalformedCapture(Exception):
    """The capture cannot be read at all (bad magic, truncated global header,
    or an unsupported link type)."""


@dataclass(frozen=True, slots=True)
class IpInfo:
    src_addr: str
    dst_addr: str
    protocol: int


@dataclass(frozen=True, slots=True)
class TransportInfo:
    src_port: int
    dst_port: int
    kind: str  # "TCP" | "UDP"


_PROTOCOLS = {"TCP": 6, "UDP": 17}  # TransportInfo.kind -> IP protocol number
_KINDS = {number: kind for kind, number in _PROTOCOLS.items()}


@dataclass(frozen=True, slots=True)
class RawPacket:
    """One captured frame, decoded through the transport layer.

    ``payload`` holds whatever remains after every decoded header, and
    ``frame_len`` is the captured frame's length; the frame itself is not
    kept. Timestamps are normalized to integer microseconds since the epoch
    regardless of the capture's native precision.
    """

    index: int
    timestamp_us: int
    src_mac: str
    dst_mac: str
    ip: IpInfo | None
    transport: TransportInfo | None
    payload: bytes
    frame_len: int

    @property
    def timestamp(self) -> float:
        """Capture time in seconds since the epoch."""
        return self.timestamp_us / 1_000_000


class Names:
    """The distinct MAC and IP address strings of one capture. Table rows
    name them by position, so every row that repeats one shares its string."""

    __slots__ = ("macs", "mac_ids", "addresses", "address_ids")

    def __init__(self) -> None:
        self.macs: list[str] = []
        self.mac_ids: dict[str, int] = {}
        self.addresses: list[str] = []
        self.address_ids: dict[str, int] = {}

    def mac(self, text: str) -> int:
        """The id of a MAC string, added when new."""
        return _add(self.macs, self.mac_ids, text)

    def address(self, text: str) -> int:
        """The id of an address string, added when new."""
        return _add(self.addresses, self.address_ids, text)


def _add(names: list[str], ids: dict[str, int], text: str) -> int:
    found = ids.get(text)
    if found is None:
        found = ids[text] = len(names)
        names.append(text)
    return found


# Each column of a PacketTable and its dtype, one entry per row. IpInfo and
# TransportInfo are not kept: a RawPacket's are built from these fields.
_COLUMNS = {
    "index": np.int64,      # the frame's position in the capture, skipped frames counted
    "ts_us": np.int64,      # capture time in integer microseconds
    "frame_len": np.int64,  # the captured frame's length
    "src_mac": np.int32,    # ids into names.macs
    "dst_mac": np.int32,
    "ip_proto": np.int16,   # the IP header's protocol number, or -1 without an IP layer
    "src_addr": np.int32,   # ids into names.addresses, or -1 without an IP layer
    "dst_addr": np.int32,
    "proto": np.int8,       # 6 (TCP) or 17 (UDP) with a transport layer, else 0
    "src_port": np.int32,   # -1 without a transport layer
    "dst_port": np.int32,
    "head": np.int16,       # the first byte of a transport payload; -1 without one, or when empty
    "tls": np.bool_,        # a transport payload that is TLS (_payload_columns)
    "http": np.bool_,       # a TCP payload that begins with an HTTP start line (_http_rows)
}


@dataclass(slots=True, eq=False, repr=False)
class PacketTable:
    """Decoded packets as columns: one numpy array per field in ``_COLUMNS``
    and one list of payload bytes, all indexed by row. Ids name entries of
    ``names``, which the tables taken from one capture's table share. A
    table is read, never changed: ``take`` makes a new one.

    A table is also a read-only collection of RawPackets: ``len``, iteration
    and ``==`` against a list of packets see the rows as RawPackets, built
    when they are asked for.
    """

    index: np.ndarray
    ts_us: np.ndarray
    frame_len: np.ndarray
    src_mac: np.ndarray
    dst_mac: np.ndarray
    ip_proto: np.ndarray
    src_addr: np.ndarray
    dst_addr: np.ndarray
    proto: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    head: np.ndarray
    tls: np.ndarray
    http: np.ndarray
    payloads: list[bytes]
    names: Names

    @classmethod
    def of(cls, packets: PacketTable | Iterable[RawPacket]) -> PacketTable:
        """``packets`` itself when it is a table, else the table of those packets."""
        return packets if isinstance(packets, PacketTable) else cls.from_packets(packets)

    @classmethod
    def from_packets(cls, packets: Iterable[RawPacket]) -> PacketTable:
        """The table of RawPackets, one row each, in their order."""
        packets = list(packets)
        names = Names()
        rows = []
        for packet in packets:
            ip_proto = src_addr = dst_addr = src_port = dst_port = -1
            proto = 0
            if packet.ip is not None:
                ip_proto = packet.ip.protocol
                src_addr, dst_addr = names.address(packet.ip.src_addr), names.address(packet.ip.dst_addr)
            if packet.transport is not None:
                proto = _PROTOCOLS[packet.transport.kind]
                src_port, dst_port = packet.transport.src_port, packet.transport.dst_port
            rows.append((packet.index, packet.timestamp_us, packet.frame_len, names.mac(packet.src_mac),
                         names.mac(packet.dst_mac), ip_proto, src_addr, dst_addr, proto, src_port, dst_port))
        payloads = [packet.payload for packet in packets]
        values = np.array(rows, np.int64).reshape(-1, 11).T
        columns = {name: column.astype(_COLUMNS[name]) for name, column in zip(_COLUMNS, values)}
        heads = b"".join(payload[:3].ljust(3, b"\0") for payload in payloads)
        head = np.frombuffer(heads, np.uint8).reshape(-1, 3).T.astype(np.int32)
        length = np.fromiter(map(len, payloads), np.int64, len(payloads))
        columns["head"], columns["tls"] = _payload_columns(columns["src_port"], columns["dst_port"], head, length)
        columns["http"] = _http_rows(columns["proto"], columns["head"], payloads)
        return cls(**columns, payloads=payloads, names=names)

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self) -> Iterator[RawPacket]:
        return iter(self.packets())

    def __eq__(self, other) -> bool:
        if isinstance(other, (PacketTable, list, tuple)):
            return self.packets() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PacketTable(rows={len(self)})"

    def take(self, rows: slice | np.ndarray) -> PacketTable:
        """The table of ``rows`` (a slice, or an array of row numbers), sharing this table's names."""
        payloads = self.payloads[rows] if isinstance(rows, slice) else [self.payloads[i] for i in rows.tolist()]
        return PacketTable(*[column[rows] for column in _column_values(self)], payloads, self.names)

    def mac_id(self, mac: str) -> int:
        """The id of a MAC string, or -1 when no row has it."""
        return self.names.mac_ids.get(mac, -1)

    def packets(self) -> list[RawPacket]:
        """The RawPacket of each row, in row order. Rows with equal IP or
        transport fields share one IpInfo or TransportInfo."""
        macs, addresses = self.names.macs, self.names.addresses
        ips: dict[tuple[int, int, int], IpInfo] = {}
        transports: dict[tuple[int, int, int], TransportInfo] = {}
        packets = []
        rows = zip(*(column.tolist() for column in (
            self.index, self.ts_us, self.src_mac, self.dst_mac, self.ip_proto, self.src_addr, self.dst_addr,
            self.proto, self.src_port, self.dst_port, self.frame_len)), self.payloads)
        for index, ts_us, src, dst, ip_proto, src_addr, dst_addr, proto, src_port, dst_port, frame_len, payload in rows:
            ip = transport = None
            if ip_proto >= 0:
                ip = ips.get((ip_proto, src_addr, dst_addr))
                if ip is None:
                    ip = ips[ip_proto, src_addr, dst_addr] = IpInfo(addresses[src_addr], addresses[dst_addr], ip_proto)
            if proto:
                transport = transports.get((proto, src_port, dst_port))
                if transport is None:
                    transport = transports[proto, src_port, dst_port] = TransportInfo(src_port, dst_port, _KINDS[proto])
            packets.append(RawPacket(index, ts_us, macs[src], macs[dst], ip, transport, payload, frame_len))
        return packets


_column_values = operator.attrgetter(*_COLUMNS)
_TLS_TYPE = np.zeros(256, bool)
_TLS_TYPE[list(TLS_CONTENT_TYPES)] = True
_START_BYTE = np.zeros(257, bool)  # by head; -1, no payload, is the last entry
_START_BYTE[[prefix[0] for prefix in _START_LINE_PREFIXES]] = True


def _payload_columns(
    src_port: np.ndarray, dst_port: np.ndarray, head: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``head`` and ``tls`` columns of rows with these ports (-1 without
    a transport layer), payload lengths and first three payload bytes
    (``head``, one row per byte; those past a payload's length are not read).

    A transport payload that is not empty is TLS by the rule of
    ``payload.tls_verdict``, as one vector test: either port is 443, or the
    payload starts with a record header (content type 0x14-0x17, version
    major 3, minor 0..4).
    """
    payload = (src_port >= 0) & (length > 0)
    record = (length >= 3) & _TLS_TYPE[head[0]] & (head[1] == 3) & (head[2] <= 4)
    return np.where(payload, head[0], -1), payload & (record | (src_port == TLS_PORT) | (dst_port == TLS_PORT))


def _http_rows(proto: np.ndarray, head: np.ndarray, payloads: list[bytes]) -> np.ndarray:
    """Which rows hold a TCP payload that begins with an HTTP start line:
    those whose first byte can start one, then looked at whole."""
    http = (proto == 6) & _START_BYTE[head]
    for row in http.nonzero()[0].tolist():
        http[row] = payloads[row].startswith(_START_LINE_PREFIXES)
    return http


_IP = ETHERNET_HEADER_LEN  # offset of the IP header in a frame
_SPAN = np.arange(64)  # byte offsets of a gather
_UNSEEN = np.iinfo(np.int64).max  # ends a sorted _Ids.numbers: above any MAC or IPv4 number


class _Ids:
    """The id of each number (a MAC or an IPv4 address), from a sorted array
    of the numbers seen so far that one binary search per block reads; a
    number not seen before gets the id ``new(number)`` gives it."""

    def __init__(self, new) -> None:
        self.new = new
        self.numbers = np.array([_UNSEEN])
        self.ids = np.array([-1], np.int32)

    def __call__(self, numbers: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self.numbers, numbers)
        unseen = self.numbers[at] != numbers
        if unseen.any():
            fresh = sorted(set(numbers[unseen].tolist()))
            at = np.searchsorted(self.numbers, fresh)
            self.numbers = np.insert(self.numbers, at, fresh)
            self.ids = np.insert(self.ids, at, [self.new(number) for number in fresh])
            at = np.searchsorted(self.numbers, numbers)
        return self.ids[at]


class _Decoder:
    """One capture's decode: the columns, filled block by block into arrays
    that grow in place, the payloads, the warnings, and the id of each
    distinct MAC and address by its number."""

    def __init__(self, endian: str, frac_divisor: int) -> None:
        self.word = np.dtype(endian + "u4")
        self.frac_divisor = frac_divisor
        self.names = Names()
        self.columns = {name: array("B" if dtype is np.bool_ else np.dtype(dtype).char)
                        for name, dtype in _COLUMNS.items()}
        self.payloads: list[bytes] = []
        self.warnings: list[str] = []
        self.mac_ids = _Ids(lambda number: self.names.mac(number.to_bytes(6, "big").hex(":")))
        self.ipv4_ids = _Ids(lambda number: self.names.address("%d.%d.%d.%d" % tuple(number.to_bytes(4, "big"))))
        self.ipv6_ids: dict[bytes, int] = {}

    def block(self, block: bytes, starts: list[int], first_index: int) -> None:
        """Decode the whole records at offsets ``starts`` of ``block``, the
        first of which is frame ``first_index`` of the capture. Each check is
        that of a single frame: Ethernet, then IPv4 or IPv6, then TCP or UDP;
        a frame that fails one is skipped with a warning."""
        u8 = np.frombuffer(block, np.uint8)

        def gather(offsets: np.ndarray, first: int, stop: int) -> np.ndarray:
            """Bytes ``first`` to ``stop`` after each offset, one row per
            byte, clipped to the block: a byte past a frame's end is read
            only where a length check has already failed."""
            return np.take(u8, offsets + _SPAN[first:stop, None], mode="clip").astype(np.int32)

        record = np.array(starts, np.int64)
        header = np.take(u8, record[:, None] + _SPAN[:RECORD_HEADER_LEN]).view(self.word)
        index = first_index + np.arange(len(starts))
        ts_us = header[:, 0].astype(np.int64) * 1_000_000 + header[:, 1] // self.frac_divisor
        size = header[:, 2].astype(np.int64)  # incl_len
        frame = record + RECORD_HEADER_LEN

        # frame bytes 12-33: the ethertype, the fixed IPv4 header, the IPv6
        # header up to its addresses; eth[k] is frame byte 12 + k
        eth = gather(frame, 12, 34)
        has_eth = size >= ETHERNET_HEADER_LEN
        ethertype = eth[0] << 8 | eth[1]
        v4 = has_eth & (ethertype == ETHERTYPE_IPV4)
        v6 = has_eth & (ethertype == ETHERTYPE_IPV6)
        version = eth[2] >> 4
        ip_len = np.where(v4 & (size >= _IP + 20) & (version == 4), (eth[2] & 0x0F) * 4, 0)
        bad4 = v4 & ((ip_len < 20) | (size < _IP + ip_len))
        bad6 = v6 & ((size < _IP + 40) | (version != 6))
        v4 &= ~bad4
        v6 &= ~bad6
        total_len = eth[4] << 8 | eth[5]
        start = np.where(v4, _IP + ip_len, np.where(v6, _IP + 40, _IP))  # payload bounds
        # total_length bounds the datagram so Ethernet trailer padding is dropped
        end = np.where(v4 & (total_len >= ip_len), np.minimum(_IP + total_len, size),
                       np.where(v6, np.minimum(_IP + 40 + (eth[6] << 8 | eth[7]), size), size))
        ip_proto = np.where(v4, eth[11], np.where(v6, eth[8], -1))
        # only the first fragment of a datagram starts with the transport header
        first = v6 | (v4 & (((eth[8] & 0x1F) | eth[9]) == 0))
        tcp = first & (ip_proto == 6)
        udp = first & (ip_proto == 17)

        segment = gather(frame + start, 0, 14)
        room = end - start
        # the data offset bounds a TCP header, the UDP length a UDP datagram
        tcp_len = np.where(tcp & (room >= 20), (segment[12] >> 4) * 4, 0)
        bad_tcp = tcp & ((tcp_len < 20) | (room < tcp_len))
        udp_len = np.where(udp & (room >= 8), segment[4] << 8 | segment[5], 0)
        bad_udp = udp & (udp_len < 8)

        transport = tcp | udp
        end = np.where(udp, np.minimum(start + udp_len, end), end)
        start = start + np.where(tcp, tcp_len, 0) + np.where(udp, 8, 0)
        src_port = np.where(transport, segment[0] << 8 | segment[1], -1)
        dst_port = np.where(transport, segment[2] << 8 | segment[3], -1)
        head = gather(frame + start, 0, 3)
        values = {
            "index": index, "ts_us": ts_us, "frame_len": size, "ip_proto": ip_proto,
            "proto": np.where(tcp, 6, np.where(udp, 17, 0)), "src_port": src_port, "dst_port": dst_port,
        }
        values["head"], values["tls"] = _payload_columns(src_port, dst_port, head, end - start)

        bad = ~has_eth | bad4 | bad6 | bad_tcp | bad_udp
        if bad.any():
            for row in bad.nonzero()[0].tolist():
                reason = (f"truncated Ethernet header ({size[row]} bytes)" if not has_eth[row]
                          else "truncated or invalid IPv4 header" if bad4[row]
                          else "truncated or invalid IPv6 header" if bad6[row]
                          else f"truncated {'TCP' if tcp[row] else 'UDP'} header")
                self.warnings.append(f"frame {first_index + row}: {reason}")
            keep = (~bad).nonzero()[0]
            if not len(keep):
                return
            values = {name: column[keep] for name, column in values.items()}
            frame, start, end, v4, v6 = frame[keep], start[keep], end[keep], v4[keep], v6[keep]

        rows = len(frame)
        pair = np.zeros((rows, 16), np.uint8)  # each MAC as the low six bytes of a big-endian u8
        pair[:, 2:8] = np.take(u8, frame[:, None] + _SPAN[:6])
        pair[:, 10:16] = np.take(u8, frame[:, None] + _SPAN[6:12])
        macs = self.mac_ids(pair.view(">u8").ravel().astype(np.int64)).reshape(rows, 2)
        values["dst_mac"], values["src_mac"] = macs[:, 0], macs[:, 1]

        addresses = np.full((rows, 2), -1, np.int32)  # source, destination
        if v4.any():
            selected = v4.nonzero()[0]
            raw = np.take(u8, frame[selected, None] + _SPAN[_IP + 12 : _IP + 20])
            addresses[selected] = self.ipv4_ids(raw.view(">u4").ravel().astype(np.int64)).reshape(-1, 2)
        if v6.any():  # by their 16 bytes, as IPv6 is rare
            selected = v6.nonzero()[0]
            raw = np.take(u8, frame[selected, None] + _SPAN[_IP + 8 : _IP + 40]).tobytes()
            ids = [self._ipv6(raw[i : i + 16]) for i in range(0, len(raw), 16)]
            addresses[selected] = np.array(ids, np.int32).reshape(-1, 2)
        values["src_addr"], values["dst_addr"] = addresses[:, 0], addresses[:, 1]

        payloads = [block[lo:hi] for lo, hi in zip((frame + start).tolist(), (frame + end).tolist())]
        values["http"] = _http_rows(values["proto"], values["head"], payloads)
        for name, column in self.columns.items():
            column.frombytes(memoryview(np.ascontiguousarray(values[name], _COLUMNS[name])).cast("B"))
        self.payloads += payloads

    def _ipv6(self, raw: bytes) -> int:
        found = self.ipv6_ids.get(raw)
        if found is None:
            found = self.ipv6_ids[raw] = self.names.address(str(IPv6Address(raw)))
        return found

    def table(self) -> PacketTable:
        """The decoded rows, stably sorted by timestamp when one goes
        backwards, so that equal timestamps keep capture order."""
        columns = {name: np.frombuffer(self.columns[name], dtype) for name, dtype in _COLUMNS.items()}
        table = PacketTable(**columns, payloads=self.payloads, names=self.names)
        if (table.ts_us[1:] < table.ts_us[:-1]).any():
            table = table.take(np.argsort(table.ts_us, kind="stable"))
        return table


class _Rows:
    """Rows held as a ``table`` or as a ``packets`` list: whichever one was
    given, the other is built from it on first read."""

    @cached_property
    def table(self) -> PacketTable:
        return PacketTable.from_packets(self.packets)

    @cached_property
    def packets(self) -> list[RawPacket]:
        return self.table.packets()


class CaptureParse(_Rows):
    """A decoded capture: its rows and the warning of each skipped frame."""

    def __init__(self, packets: list[RawPacket] | None = None, warnings: list[str] | None = None,
                 table: PacketTable | None = None) -> None:
        if (packets is None) == (table is None):
            raise TypeError("CaptureParse takes packets or a table")
        self.warnings = [] if warnings is None else warnings
        if table is not None:
            self.table = table
        else:
            self.packets = packets


class _Grouping:
    """A table whose rows are grouped by device: group ``k`` is rows
    ``bounds[k]:bounds[k + 1]``, the rows of the device ``macs[k]``, and any
    rows past the last group belong to none. Each grouped row's direction
    and remote end are computed here once, for every group at a time."""

    __slots__ = ("table", "bounds", "outbound", "remote")

    def __init__(self, table: PacketTable, bounds: list[int], macs: list[str]) -> None:
        self.table = table
        self.bounds = bounds
        grouped = slice(0, bounds[-1])
        device = np.repeat([table.mac_id(mac) for mac in macs], np.diff(bounds))
        # the device sent the row
        self.outbound = table.src_mac[grouped] == device
        # the row's non-device end, as an id into the table's addresses (-1
        # without an IP layer): the destination of a row the device sent,
        # the source of any other
        self.remote = np.where(self.outbound, table.dst_addr[grouped], table.src_addr[grouped])

    @classmethod
    def alone(cls, table: PacketTable, mac: str) -> _Grouping:
        """The grouping of a table of one device's rows, as one group."""
        return cls(table, [0, len(table)], [mac])

    def rows(self, group: int) -> slice:
        return slice(self.bounds[group], self.bounds[group + 1])


class DeviceStream(_Rows):
    """One device's packets (in time order when they come from
    ``split_by_device``); the stage functions read its table.

    A stream is given its packets, its table, or its ``group`` of a
    ``grouping`` of a capture's rows; then its table is taken from the
    grouped table when first read.
    """

    def __init__(self, device_id: str, mac: str, packets: Iterable[RawPacket] | None = None,
                 table: PacketTable | None = None, *, grouping: _Grouping | None = None, group: int = 0) -> None:
        self.device_id = device_id
        self.mac = mac
        self.group = group
        if grouping is not None:
            self.grouping = grouping
        elif table is not None:
            self.table = table
        else:
            self.packets = list(packets or ())

    @cached_property
    def table(self) -> PacketTable:
        if "grouping" not in vars(self):
            return PacketTable.from_packets(self.packets)
        return self.grouping.table.take(self.grouping.rows(self.group))

    @cached_property
    def grouping(self) -> _Grouping:
        """The grouping this stream is group ``group`` of: for a stream
        given its packets or table, the grouping of its own rows alone."""
        return _Grouping.alone(self.table, self.mac)

    @cached_property
    def remote(self) -> np.ndarray:
        """Each row's non-device end, as an id into the table's addresses
        (-1 without an IP layer): the destination of a packet the device
        sent, the source of any other."""
        return self.grouping.remote[self.grouping.rows(self.group)]

    @cached_property
    def outbound(self) -> np.ndarray:
        """Whether the device sent each row."""
        return self.grouping.outbound[self.grouping.rows(self.group)]

    def __repr__(self) -> str:
        return f"DeviceStream(device_id={self.device_id!r}, mac={self.mac!r}, rows={len(self.table)})"


_CANONICAL_MAC = re.compile(r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}")


def normalize_mac(mac: str) -> str:
    """Canonicalize a MAC address to lowercase colon-separated form.

    Accepts ``aa:bb:cc:dd:ee:ff``, ``AA-BB-...``, and bare 12-digit hex.
    Raises ValueError for anything that is not a 6-byte hardware address.
    """
    if _CANONICAL_MAC.fullmatch(mac):
        return mac
    digits = re.sub(r"[:\-.]", "", mac.strip().lower())
    if len(digits) != 12 or not all(c in "0123456789abcdef" for c in digits):
        raise ValueError(f"malformed MAC address: {mac!r}")
    return ":".join(digits[i : i + 2] for i in range(0, 12, 2))


def parse_capture(source: bytes | BinaryIO) -> CaptureParse:
    """Decode a classic libpcap capture, given as bytes or as a seekable
    binary file, into a PacketTable.

    The file is read in blocks of ``_BLOCK`` bytes, each decoded whole; a
    record cut by a block's end is read again at the start of the next one,
    so a file is never held whole. Frames with truncated headers are skipped
    and counted as warnings rather than aborting the parse. The rows are
    stably sorted by timestamp, so equal timestamps keep capture order.

    Each distinct MAC and address string is formatted once per call and
    named by id in every row that repeats it.
    """
    fh = io.BytesIO(source) if isinstance(source, bytes) else source  # BytesIO shares the bytes
    size = fh.seek(0, io.SEEK_END)  # no read goes past what the file held here
    fh.seek(0)

    header = fh.read(GLOBAL_HEADER_LEN)
    if len(header) < GLOBAL_HEADER_LEN:
        raise MalformedCapture(f"truncated global header ({len(header)} bytes)")
    try:
        endian, frac_divisor = _MAGICS[header[:4]]
    except KeyError:
        raise MalformedCapture(f"unrecognized pcap magic {header[:4].hex()}") from None
    _, _, _, _, _, network = struct.unpack(endian + "HHiIII", header[4:])
    if network != LINKTYPE_ETHERNET:
        raise MalformedCapture(f"unsupported link type {network} (only Ethernet is supported)")

    incl_len = _INCL_LEN[endian].unpack_from
    decoder = _Decoder(endian, frac_divisor)
    offset = GLOBAL_HEADER_LEN
    index = 0
    while offset < size:
        fh.seek(offset)
        block = fh.read(min(_BLOCK, size - offset))
        starts: list[int] = []
        used = 0
        while used + RECORD_HEADER_LEN <= len(block):
            (length,) = incl_len(block, used)
            end = used + RECORD_HEADER_LEN + length
            if end > len(block):
                break
            starts.append(used)
            used = end
        if not starts:  # the next record is longer than a block, or cut short
            if len(block) < RECORD_HEADER_LEN:
                decoder.warnings.append(f"frame {index}: truncated record header at offset {offset}")
                break
            (length,) = incl_len(block)
            remaining = size - offset - RECORD_HEADER_LEN
            # checked before reading: read(n) allocates n bytes whatever the stream holds
            if length > remaining:
                decoder.warnings.append(f"frame {index}: declared caplen {length} exceeds remaining {remaining} bytes")
                break
            fh.seek(offset)
            block = fh.read(RECORD_HEADER_LEN + length)
            starts, used = [0], len(block)
        decoder.block(block, starts, index)
        index += len(starts)
        offset += used
    return CaptureParse(warnings=decoder.warnings, table=decoder.table())


def split_by_device(
    packets: PacketTable | Iterable[RawPacket], registry: Mapping[str, str]
) -> tuple[list[DeviceStream], PacketTable]:
    """Partition packets (a table, or RawPackets) into per-device streams
    keyed by MAC address, and the table of the unattributed rest.

    Each packet lands in exactly one stream (matched by source or destination
    MAC) or in the unattributed table. When both endpoints are registered the
    packet is attributed to the source device. A stream is produced for every
    registry entry, empty or not, in registry order, and keeps its packets in
    their order in ``packets``: a stable argsort by owner groups the rows, and
    the streams are the groups of one ``_Grouping`` of the grouped table,
    each taking its slice of it when its table is first read. Two registry
    spellings of one MAC are a ValueError.
    """
    table = PacketTable.of(packets)
    if not registry:
        log.warning("empty device registry: all %d packets unattributed", len(table))
        return [], table
    devices: dict[str, str] = {}
    for mac, device_id in registry.items():
        mac = normalize_mac(mac)
        if mac in devices:
            raise ValueError(f"duplicate registry MAC {mac}")
        devices[mac] = device_id
    nobody = len(devices)  # the owner of an unattributed row
    owner_of_mac = np.full(len(table.names.macs), nobody)
    for position, mac in enumerate(devices):
        if (mac_id := table.mac_id(mac)) >= 0:
            owner_of_mac[mac_id] = position
    by_source = owner_of_mac[table.src_mac]
    owner = np.where(by_source < nobody, by_source, owner_of_mac[table.dst_mac])
    grouped = table.take(np.argsort(owner, kind="stable"))
    bounds = [0, *np.cumsum(np.bincount(owner, minlength=nobody + 1)).tolist()]
    grouping = _Grouping(grouped, bounds[:-1], list(devices))
    streams = [
        DeviceStream(device_id, mac, grouping=grouping, group=position)
        for position, (mac, device_id) in enumerate(devices.items())
    ]
    return streams, grouped.take(slice(bounds[nobody], bounds[nobody + 1]))
