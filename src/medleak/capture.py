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
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from ipaddress import IPv6Address
from typing import BinaryIO, Mapping

import numpy as np

from .classifiers import _CONSENSUS, CLEARTEXT, ClassifierConfig, _consensus_codes

log = logging.getLogger(__name__)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

LINKTYPE_ETHERNET = 1

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
ETHERNET_HEADER_LEN = 14

# The wire rules of TLS (by port or record header), which the decode flags
# each row by, and of an HTTP/1.x start line, which begins with one of the
# prefixes (the start-line patterns of payload.parse_http are anchored).
TLS_PORT = 443
TLS_CONTENT_TYPES = frozenset({0x14, 0x15, 0x16, 0x17})
TLS_RECORD_HEADER_LEN = 5  # content type, version, record length: all an application-data row keeps
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


class Names:
    """The distinct MAC and IP address strings of one capture, each added
    once by the decode. Table rows name them by position, so every row that
    repeats one shares its string; ``mac_ids`` finds a MAC's id."""

    __slots__ = ("macs", "mac_ids", "addresses")

    def __init__(self) -> None:
        self.macs: list[str] = []
        self.mac_ids: dict[str, int] = {}
        self.addresses: list[str] = []

    def mac(self, text: str) -> int:
        """The id of a new MAC string."""
        found = self.mac_ids[text] = len(self.macs)
        self.macs.append(text)
        return found

    def address(self, text: str) -> int:
        """The id of a new address string."""
        self.addresses.append(text)
        return len(self.addresses) - 1


# Each column of a PacketTable and its dtype, one entry per row.
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
}


# One row of a table read back (PacketTable.packets): each column's value,
# with a MAC or address id read as its string (an address id of -1, without
# an IP layer, as None), then the payload the table keeps.
RawPacket = namedtuple("RawPacket", (*_COLUMNS, "payload"))


@dataclass(slots=True, eq=False, repr=False)
class PacketTable:
    """Decoded packets as columns: one numpy array per field in ``_COLUMNS``
    and one list of payload bytes (an application-data record cut to its
    record header, by ``_payload_columns``), all indexed by row. Ids name
    entries of ``names``, which the tables taken from one capture's table
    share. Only the decode (``parse_capture``) makes a table's columns; a
    table is read, never changed, and ``take`` makes a new one of its rows.

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
    payloads: list[bytes]
    names: Names

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

    def take(self, rows: np.ndarray) -> PacketTable:
        """The table of ``rows``, an array of row numbers, sharing this table's names."""
        payloads = [self.payloads[i] for i in rows.tolist()]
        return PacketTable(*[column[rows] for column in _column_values(self)], payloads, self.names)

    def packets(self) -> list[RawPacket]:
        """The RawPacket of each row, in row order. Rows that name one MAC
        or address share its string."""
        macs = np.array(self.names.macs, object)
        addresses = np.array([*self.names.addresses, None], object)  # id -1 reads the None
        strings = {"src_mac": macs, "dst_mac": macs, "src_addr": addresses, "dst_addr": addresses}
        columns = (strings[name][column] if name in strings else column
                   for name, column in zip(_COLUMNS, _column_values(self)))
        return list(map(RawPacket, *(column.tolist() for column in columns), self.payloads))


def payload_rows(table: PacketTable) -> np.ndarray:
    """Which rows of a table carry application bytes: rows without a
    transport layer (ARP and friends) and empty TCP segments carry none."""
    return table.head >= 0


_column_values = operator.attrgetter(*_COLUMNS)
_TLS_TYPE = np.zeros(256, bool)
_TLS_TYPE[list(TLS_CONTENT_TYPES)] = True
# 1 at each byte a start line can begin with, by a payload's first byte
_START_BYTE = bytes(byte in {prefix[0] for prefix in _START_LINE_PREFIXES} for byte in range(256))


def _payload_columns(
    src_port: np.ndarray, dst_port: np.ndarray, head: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``head`` and ``tls`` columns of rows with these ports (-1 without
    a transport layer), payload lengths and first three payload bytes
    (``head``, one row per byte; those past a payload's length are not read),
    and the length of each payload that the table keeps.

    A transport payload that is not empty is TLS by the rule of
    ``payload.detect_tls``, as one vector test: either port is 443, or the
    payload starts with a record header (content type 0x14-0x17, version
    major 3, minor 0..4).

    A payload that starts with an application-data record (content type
    0x17) keeps only its record header: content type, version and record
    length. Nothing reads more of it, since the TLS rule reads three bytes
    and a TLS payload is counted, never classified or mined. Handshake,
    alert and change-cipher-spec records keep all their bytes.
    """
    payload = (src_port >= 0) & (length > 0)
    record = payload & (length >= 3) & _TLS_TYPE[head[0]] & (head[1] == 3) & (head[2] <= 4)
    tls = record | payload & ((src_port == TLS_PORT) | (dst_port == TLS_PORT))
    kept = np.where(record & (head[0] == 0x17), np.minimum(length, TLS_RECORD_HEADER_LEN), length)
    return np.where(payload, head[0], -1), tls, kept


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
        values["head"], values["tls"], kept = _payload_columns(src_port, dst_port, head, end - start)
        end = start + kept

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

        for name, column in self.columns.items():
            column.frombytes(memoryview(np.ascontiguousarray(values[name], _COLUMNS[name])).cast("B"))
        self.payloads += [block[lo:hi] for lo, hi in zip((frame + start).tolist(), (frame + end).tolist())]

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


@dataclass(eq=False)
class CaptureParse:
    """A decoded capture: its rows and the warning of each skipped frame."""

    table: PacketTable
    warnings: list[str]

    @property
    def packets(self) -> PacketTable:
        """The table, read as a collection of RawPackets."""
        return self.table


class _Grouping:
    """A table's rows grouped by device, without copying them: ``order``
    lists the grouped row numbers of the table, and group ``k`` is the rows
    ``order[bounds[k]:bounds[k + 1]]``, those of the split's ``k``-th device.
    ``outbound``, from the split, tells in ``order`` whether the device sent
    each row, whose remote end is computed here once for every group; so
    are, on first use, the payload verdicts (``verdicts``), activity periods
    (``periods``) and HTTP-start candidates (``http``) that the per-stream
    stages read their group's slices of."""

    __slots__ = ("table", "order", "bounds", "outbound", "remote", "_verdicts", "_periods", "_http")

    def __init__(self, table: PacketTable, order: np.ndarray, bounds: list[int], outbound: np.ndarray) -> None:
        self.table = table
        self.order = order
        self.bounds = bounds
        self.outbound = outbound
        # the row's non-device end, as an id into the table's addresses (-1
        # without an IP layer): the destination of a row the device sent,
        # the source of any other
        self.remote = np.where(outbound, table.dst_addr[order], table.src_addr[order])
        self._verdicts: _Verdicts | None = None
        self._periods: _Periods | None = None
        self._http: tuple[np.ndarray, np.ndarray] | None = None

    def rows(self, group: int) -> slice:
        return slice(self.bounds[group], self.bounds[group + 1])

    def verdicts(self, config: ClassifierConfig) -> _Verdicts:
        """The grouped payloads classified under ``config``, kept for the last config (by identity)."""
        if self._verdicts is None or self._verdicts.config is not config:
            self._verdicts = _Verdicts(self, config)
        return self._verdicts

    def periods(self, gap_threshold: float) -> _Periods:
        """The grouped rows cut into activity periods at ``gap_threshold``
        seconds, kept for the last threshold asked for."""
        key = float(gap_threshold).hex()  # one key for every NaN
        if self._periods is None or self._periods.key != key:
            self._periods = _Periods(self, gap_threshold, key)
        return self._periods

    @property
    def http(self) -> tuple[np.ndarray, np.ndarray]:
        """The grouped TCP rows whose first byte can begin an HTTP start
        line, in order: their table rows and remote ids as the two rows of a
        matrix, and each group's bounds in its columns. ``parse_http``
        judges each candidate whole."""
        if self._http is None:
            table, order = self.table, self.order
            # a translate of the heads as bytes, where a numpy lookup would
            # first copy them as an 8-byte index each
            heads = table.head[order].astype(np.uint8).tobytes()  # -1, no payload, reads as 255
            start = np.frombuffer(heads.translate(_START_BYTE), bool)
            positions = (start & (table.proto[order] == 6)).nonzero()[0]
            rows = np.array((order[positions], self.remote[positions]), np.int32)
            self._http = rows, np.searchsorted(positions, self.bounds)
        return self._http


class _Verdicts:
    """A grouping's payloads classified under one config, for every group at
    a time: every grouped non-TLS payload at once, TLS rows only counted.
    ``counts[k]`` is group ``k``'s TLS count, then its count of each verdict
    in ``_CONSENSUS`` order. The cleartext rows, in grouped order, have
    their table row, packet index, outbound flag and ``ts_us`` in the rows
    of ``fields``; group ``k``'s are ``bounds[k]:bounds[k + 1]``. Both stay
    arrays, since lists would be held until the capture's last stream."""

    __slots__ = ("config", "counts", "fields", "bounds")

    def __init__(self, grouping: _Grouping, config: ClassifierConfig) -> None:
        self.config = config
        table, bounds = grouping.table, grouping.bounds
        groups = len(bounds) - 1
        grouped = grouping.order
        owner = np.repeat(np.arange(groups), np.diff(bounds))
        tls = table.tls[grouped]
        plain = (payload_rows(table)[grouped] & ~tls).nonzero()[0]
        codes = _consensus_codes((table.payloads[row] for row in grouped[plain].tolist()), config)
        tallies = np.bincount(owner[plain] * len(_CONSENSUS) + codes, minlength=groups * len(_CONSENSUS))
        self.counts = np.column_stack((np.bincount(owner[tls], minlength=groups),
                                       tallies.reshape(groups, len(_CONSENSUS))))
        positions = plain[codes == _CONSENSUS.index(CLEARTEXT)]
        rows = grouped[positions]
        self.fields = np.array((rows, table.index[rows], grouping.outbound[positions], table.ts_us[rows]), np.int64)
        self.bounds = np.searchsorted(positions, bounds)


class _Periods:
    """A grouping's rows cut into activity periods, for every group at a time.

    A cut falls where the gap to the previous grouped row is not ``<=`` the
    threshold (so a NaN threshold cuts every row) and at each group bound,
    so no period spans two devices. Period ``p`` is the grouped rows
    ``cuts[p]:cuts[p + 1]``, and ``columns[:, p]`` holds its first and last
    timestamp (integer microseconds) and its bytes. Group ``k``'s periods
    are ``bounds[k]:bounds[k + 1]``."""

    __slots__ = ("key", "cuts", "columns", "bounds")

    def __init__(self, grouping: _Grouping, gap_threshold: float, key: str) -> None:
        self.key = key
        grouped = grouping.order
        count = len(grouped)
        ts_us = grouping.table.ts_us[grouped]
        cut = np.ones(count + 1, bool)
        cut[1:count] = ~(ts_us[1:] - ts_us[:-1] <= gap_threshold * 1_000_000)
        cut[grouping.bounds] = True
        self.cuts = cut.nonzero()[0]  # each period's first row, then the count
        firsts = self.cuts[:-1]
        sizes = np.add.reduceat(grouping.table.frame_len[grouped], firsts)
        self.columns = np.array((ts_us[firsts], ts_us[self.cuts[1:] - 1], sizes), np.int64)
        self.bounds = np.searchsorted(self.cuts, grouping.bounds)


class DeviceStream:
    """One device's rows, in their order in the split table: group ``group``
    of the ``grouping`` that ``split_by_device`` made of a capture's rows,
    whose columns the stage functions read their slices of. Its table is
    taken from the capture's table, in the grouping's order, when first
    read; the stages of ``analyze`` never ask for it. Only the split makes
    streams, so ``mac`` is the registry's canonical MAC.
    """

    def __init__(self, device_id: str, mac: str, grouping: _Grouping, group: int) -> None:
        self.device_id = device_id
        self.mac = mac
        self.grouping = grouping
        self.group = group

    @cached_property
    def table(self) -> PacketTable:
        return self.grouping.table.take(self.grouping.order[self.grouping.rows(self.group)])

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

    @property
    def packet_count(self) -> int:
        rows = self.grouping.rows(self.group)
        return rows.stop - rows.start

    def __repr__(self) -> str:
        return f"DeviceStream(device_id={self.device_id!r}, mac={self.mac!r}, rows={self.packet_count})"


_CANONICAL_MAC = re.compile(r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}")


def normalize_mac(mac: str) -> str:
    """Canonicalize a MAC address to lowercase colon-separated form.

    Accepts ``aa:bb:cc:dd:ee:ff``, ``AA-BB-...``, and bare 12-digit hex.
    Raises ValueError for anything that is not a 6-byte hardware address.
    """
    if not isinstance(mac, str):
        raise ValueError(f"malformed MAC address: {mac!r}")
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
    return CaptureParse(decoder.table(), decoder.warnings)


def canonical_registry(registry: Mapping[str, str]) -> dict[str, str]:
    """The device registry keyed by canonical MAC, in its order. A malformed
    MAC, or two spellings of one MAC, is a ValueError."""
    devices: dict[str, str] = {}
    for mac, device_id in registry.items():
        mac = normalize_mac(mac)
        if mac in devices:
            raise ValueError(f"duplicate registry MAC {mac}")
        devices[mac] = device_id
    return devices


def split_by_device(table: PacketTable, registry: Mapping[str, str]) -> tuple[list[DeviceStream], PacketTable]:
    """Partition a capture's table into per-device streams keyed by MAC
    address, and the table of the unattributed rest.

    Each row lands in exactly one stream (matched by source or destination
    MAC) or in the unattributed table. When both endpoints are registered the
    row is attributed to the source device: a row is outbound exactly when
    its source owns it. A stream is produced for every registry entry, in
    registry order, and keeps its rows in their order in ``table``: a
    stable argsort by owner groups the rows, and the streams are the groups
    of one ``_Grouping`` of ``table`` in that order, each taking its rows
    when its table is first read. The registry is read by
    ``canonical_registry``, so a malformed or repeated MAC is a ValueError.
    """
    if not registry:
        log.warning("empty device registry: all %d packets unattributed", len(table))
        return [], table
    devices = canonical_registry(registry)
    nobody = len(devices)  # the owner of an unattributed row
    owner_of_mac = np.full(len(table.names.macs), nobody)
    for position, mac in enumerate(devices):
        if mac in table.names.mac_ids:
            owner_of_mac[table.names.mac_ids[mac]] = position
    by_source = owner_of_mac[table.src_mac]
    sent = by_source < nobody  # the source device owns the row, and sent it
    owner = np.where(sent, by_source, owner_of_mac[table.dst_mac])
    order = np.argsort(owner, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(owner, minlength=nobody + 1)[:nobody]).tolist()]
    grouped = order[: bounds[-1]]
    grouping = _Grouping(table, grouped, bounds, sent[grouped])
    streams = [
        DeviceStream(device_id, mac, grouping, position)
        for position, (mac, device_id) in enumerate(devices.items())
    ]
    return streams, table.take(order[bounds[-1] :])
