"""PCAP ingestion and MAC-based per-device stream attribution.

Reads classic libpcap captures (microsecond or nanosecond variants, Ethernet
link type), decodes Ethernet/IPv4/IPv6/TCP/UDP headers, and partitions the
decoded packets into one stream per registered device MAC address.
"""

from __future__ import annotations

import io
import logging
import re
import struct
from dataclasses import dataclass
from ipaddress import IPv6Address
from typing import BinaryIO

log = logging.getLogger(__name__)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

LINKTYPE_ETHERNET = 1

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
ETHERNET_HEADER_LEN = 14

# Classic pcap magic bytes as they appear at the start of the file:
# (struct byte-order prefix, fractional-seconds divisor to reach microseconds)
_MAGICS = {
    b"\xd4\xc3\xb2\xa1": ("<", 1),      # little-endian, microseconds
    b"\xa1\xb2\xc3\xd4": (">", 1),      # big-endian, microseconds
    b"\x4d\x3c\xb2\xa1": ("<", 1000),   # little-endian, nanoseconds
    b"\xa1\xb2\x3c\x4d": (">", 1000),   # big-endian, nanoseconds
}
# record header per byte order: ts_sec, ts_frac, incl_len, orig_len
_RECORD_HEADERS = {endian: struct.Struct(endian + "IIII") for endian in "<>"}
_PORTS = struct.Struct("!HH")


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
    ethertype: int
    ip: IpInfo | None
    transport: TransportInfo | None
    payload: bytes
    frame_len: int

    @property
    def timestamp(self) -> float:
        """Capture time in seconds since the epoch."""
        return self.timestamp_us / 1_000_000


@dataclass
class CaptureParse:
    packets: list[RawPacket]
    warnings: list[str]


@dataclass
class DeviceStream:
    device_id: str
    mac: str
    packets: list[RawPacket]


def normalize_mac(mac: str) -> str:
    """Canonicalize a MAC address to lowercase colon-separated form.

    Accepts ``aa:bb:cc:dd:ee:ff``, ``AA-BB-...``, and bare 12-digit hex.
    Raises ValueError for anything that is not a 6-byte hardware address.
    """
    digits = re.sub(r"[:\-.]", "", mac.strip().lower())
    if len(digits) != 12 or not all(c in "0123456789abcdef" for c in digits):
        raise ValueError(f"malformed MAC address: {mac!r}")
    return ":".join(digits[i : i + 2] for i in range(0, 12, 2))


_IP = ETHERNET_HEADER_LEN  # offset of the IP header in a frame


def _decode_ipv4(frame: bytes, ips: dict) -> tuple[IpInfo, int, int] | None:
    """The IPv4 header after the Ethernet header: its IpInfo, shared by every
    frame with the same protocol and addresses, and its payload's bounds."""
    body_len = len(frame) - _IP
    if body_len < 20:
        return None
    ver_ihl = frame[_IP]
    if ver_ihl >> 4 != 4:
        return None
    header_len = (ver_ihl & 0x0F) * 4
    if header_len < 20 or body_len < header_len:
        return None
    total_len = frame[_IP + 2] << 8 | frame[_IP + 3]
    # total_length bounds the datagram so Ethernet trailer padding is dropped
    end = min(total_len, body_len) if total_len >= header_len else body_len
    key = (frame[_IP + 9], frame[_IP + 12 : _IP + 20])
    info = ips.get(key)
    if info is None:
        info = ips[key] = IpInfo("%d.%d.%d.%d" % tuple(key[1][:4]), "%d.%d.%d.%d" % tuple(key[1][4:]), key[0])
    return info, _IP + header_len, _IP + end


def _decode_ipv6(frame: bytes, ips: dict) -> tuple[IpInfo, int, int] | None:
    body_len = len(frame) - _IP
    if body_len < 40:
        return None
    if frame[_IP] >> 4 != 6:
        return None
    payload_len = frame[_IP + 4] << 8 | frame[_IP + 5]
    end = min(40 + payload_len, body_len)
    key = (frame[_IP + 6], frame[_IP + 8 : _IP + 40])
    info = ips.get(key)
    if info is None:
        info = ips[key] = IpInfo(str(IPv6Address(key[1][:16])), str(IPv6Address(key[1][16:])), key[0])
    return info, _IP + 40, _IP + end


def _decode_transport(
    protocol: int, frame: bytes, start: int, end: int, transports: dict
) -> tuple[TransportInfo, int, int] | None:
    """The TCP (protocol 6) or UDP (17) header at ``frame[start:end]``: its
    TransportInfo, shared like an IpInfo, and the payload bounds."""
    if protocol == 6:  # TCP
        if end - start < 20:
            return None
        data_offset = (frame[start + 12] >> 4) * 4
        if data_offset < 20 or end - start < data_offset:
            return None
        payload_start = start + data_offset
    else:  # UDP
        if end - start < 8:
            return None
        udp_len = frame[start + 4] << 8 | frame[start + 5]
        if udp_len < 8:
            return None
        payload_start, end = start + 8, min(start + udp_len, end)
    key = (protocol, frame[start : start + 4])
    info = transports.get(key)
    if info is None:
        kind = "TCP" if protocol == 6 else "UDP"
        info = transports[key] = TransportInfo(*_PORTS.unpack_from(frame, start), kind)
    return info, payload_start, end


def _decode_frame(
    index: int, ts_us: int, frame: bytes, macs: dict, ips: dict, transports: dict
) -> tuple[RawPacket | None, str | None]:
    if len(frame) < ETHERNET_HEADER_LEN:
        return None, f"frame {index}: truncated Ethernet header ({len(frame)} bytes)"
    key = frame[:12]
    pair = macs.get(key)
    if pair is None:
        pair = macs[key] = (key[:6].hex(":"), key[6:].hex(":"))
    ethertype = frame[12] << 8 | frame[13]

    ip: IpInfo | None = None
    start, end = ETHERNET_HEADER_LEN, len(frame)  # payload bounds
    fragment_offset = 0
    if ethertype == ETHERTYPE_IPV4:
        decoded = _decode_ipv4(frame, ips)
        if decoded is None:
            return None, f"frame {index}: truncated or invalid IPv4 header"
        ip, start, end = decoded
        fragment_offset = (frame[_IP + 6] & 0x1F) << 8 | frame[_IP + 7]
    elif ethertype == ETHERTYPE_IPV6:
        decoded = _decode_ipv6(frame, ips)
        if decoded is None:
            return None, f"frame {index}: truncated or invalid IPv6 header"
        ip, start, end = decoded

    transport: TransportInfo | None = None
    # only the first fragment of a datagram starts with the transport header
    if ip is not None and ip.protocol in (6, 17) and not fragment_offset:
        decoded_t = _decode_transport(ip.protocol, frame, start, end, transports)
        if decoded_t is None:
            kind = "TCP" if ip.protocol == 6 else "UDP"
            return None, f"frame {index}: truncated {kind} header"
        transport, start, end = decoded_t

    packet = RawPacket(index, ts_us, pair[1], pair[0], ethertype, ip, transport, frame[start:end], len(frame))
    return packet, None


def parse_capture(source: bytes | BinaryIO) -> CaptureParse:
    """Decode a classic libpcap capture, given as bytes or as a seekable
    binary file, into RawPackets.

    Records are read one at a time, so a file is never held whole. Frames
    with truncated headers are skipped and counted as warnings rather than
    aborting the parse. The returned packets are stably sorted by timestamp,
    so equal timestamps keep capture order.

    Each distinct MAC pair, IP header and transport header is decoded once
    per call and its (frozen) result shared by every frame that repeats it.
    """
    fh = io.BytesIO(source) if isinstance(source, bytes) else source  # BytesIO shares the bytes
    size = fh.seek(0, io.SEEK_END)  # no read goes past what the file held here
    fh.seek(0)
    read = fh.read

    header = read(GLOBAL_HEADER_LEN)
    if len(header) < GLOBAL_HEADER_LEN:
        raise MalformedCapture(f"truncated global header ({len(header)} bytes)")
    try:
        endian, frac_divisor = _MAGICS[header[:4]]
    except KeyError:
        raise MalformedCapture(f"unrecognized pcap magic {header[:4].hex()}") from None
    _, _, _, _, _, network = struct.unpack(endian + "HHiIII", header[4:])
    if network != LINKTYPE_ETHERNET:
        raise MalformedCapture(f"unsupported link type {network} (only Ethernet is supported)")

    record_header = _RECORD_HEADERS[endian]
    packets: list[RawPacket] = []
    warnings: list[str] = []
    macs, ips, transports = {}, {}, {}  # decoded headers by their raw bytes
    in_order, last_ts = True, 0
    offset = GLOBAL_HEADER_LEN
    index = 0
    while offset < size:
        if offset + RECORD_HEADER_LEN > size:
            warnings.append(f"frame {index}: truncated record header at offset {offset}")
            break
        ts_sec, ts_frac, incl_len, _ = record_header.unpack(read(RECORD_HEADER_LEN))
        offset += RECORD_HEADER_LEN
        # checked before reading: read(n) allocates n bytes whatever the stream holds
        if offset + incl_len > size:
            warnings.append(
                f"frame {index}: declared caplen {incl_len} exceeds remaining "
                f"{size - offset} bytes"
            )
            break
        frame = read(incl_len)
        offset += incl_len
        ts_us = ts_sec * 1_000_000 + ts_frac // frac_divisor
        packet, warning = _decode_frame(index, ts_us, frame, macs, ips, transports)
        index += 1
        if warning is not None:
            warnings.append(warning)
            continue
        assert packet is not None
        packets.append(packet)
        in_order = in_order and ts_us >= last_ts
        last_ts = ts_us

    if not in_order:
        packets.sort(key=lambda p: p.timestamp_us)  # stable: capture order kept on ties
    return CaptureParse(packets=packets, warnings=warnings)


def split_by_device(
    packets: list[RawPacket], registry: dict[str, str]
) -> tuple[list[DeviceStream], list[RawPacket]]:
    """Partition packets into per-device streams keyed by MAC address.

    Each packet lands in exactly one stream (matched by source or destination
    MAC) or in the unattributed bucket. When both endpoints are registered the
    packet is attributed to the source device. A stream is produced for every
    registry entry, empty or not, in registry order.
    """
    if not registry:
        log.warning("empty device registry: all %d packets unattributed", len(packets))
        return [], list(packets)
    streams: dict[str, DeviceStream] = {}
    for mac, device_id in registry.items():
        mac = normalize_mac(mac)
        streams[mac] = DeviceStream(device_id=device_id, mac=mac, packets=[])
    unattributed: list[RawPacket] = []
    for packet in packets:
        if packet.src_mac in streams:
            streams[packet.src_mac].packets.append(packet)
        elif packet.dst_mac in streams:
            streams[packet.dst_mac].packets.append(packet)
        else:
            unattributed.append(packet)
    return list(streams.values()), unattributed
