"""Application-payload isolation, TLS/SSL exclusion, and plaintext HTTP parsing."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .capture import DeviceStream

TLS_PORT = 443
TLS_CONTENT_TYPES = frozenset({0x14, 0x15, 0x16, 0x17})

HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH", "TRACE", "CONNECT")

_REQUEST_LINE = re.compile(r"^(%s) (\S+) HTTP/" % "|".join(HTTP_METHODS))
_STATUS_LINE = re.compile(r"^HTTP/\S+ (\d{3})(?: |$)")
# Both start-line patterns are anchored, so a payload can match one only if
# it begins with one of these byte strings.
_START_LINE_PREFIXES = tuple(f"{method} ".encode() for method in HTTP_METHODS) + (b"HTTP/",)
_LINE_SPLIT = re.compile(r"\r\n|\n")
_HEADERISH_LINE = re.compile(r"^[A-Za-z][A-Za-z0-9-]*:\s")


@dataclass(frozen=True, slots=True)
class AppPayload:
    """Application-layer bytes of a single packet (no cross-packet reassembly)."""

    packet_index: int
    direction: str  # "outbound" | "inbound" relative to the device
    port_pair: tuple[int, int]  # (src_port, dst_port)
    data: bytes
    transport_kind: str  # "TCP" | "UDP"


@dataclass(frozen=True)
class TlsVerdict:
    is_tls: bool
    reason: str | None = None  # "port-based" | "record-based" | "both"
    version: tuple[int, int] | None = None


@dataclass
class HttpMessage:
    kind: str  # "request" | "response"
    method: str | None = None
    url: str | None = None
    headers: list[tuple[str, str]] = field(default_factory=list)
    host: str | None = None
    cookies: list[tuple[str, str]] = field(default_factory=list)
    status_code: int | None = None


def extract_payloads(stream: DeviceStream) -> list[AppPayload]:
    """One AppPayload per packet that carries application bytes.

    Packets without a transport layer (ARP and friends) and empty TCP
    segments / bare ACKs are dropped here.
    """
    payloads: list[AppPayload] = []
    for packet in stream.packets:
        if packet.transport is None or not packet.payload:
            continue
        direction = "outbound" if packet.src_mac == stream.mac else "inbound"
        payloads.append(
            AppPayload(
                packet_index=packet.index,
                direction=direction,
                port_pair=(packet.transport.src_port, packet.transport.dst_port),
                data=packet.payload,
                transport_kind=packet.transport.kind,
            )
        )
    return payloads


def detect_tls(payload: AppPayload) -> TlsVerdict:
    """Flag TLS/SSL payloads by well-known port and/or record header.

    Deterministic on (ports, first three payload bytes): port 443 on either
    side, or a record whose content type is 0x14-0x17 with version major 3
    and minor 0..4.
    """
    port_hit = TLS_PORT in payload.port_pair
    data = payload.data
    record_hit = len(data) >= 3 and data[0] in TLS_CONTENT_TYPES and data[1] == 3 and data[2] <= 4
    version = (data[1], data[2]) if record_hit else None
    if port_hit and record_hit:
        return TlsVerdict(True, "both", version)
    if port_hit:
        return TlsVerdict(True, "port-based")
    if record_hit:
        return TlsVerdict(True, "record-based", version)
    return TlsVerdict(False)


def _parse_cookie_pairs(value: str) -> list[tuple[str, str]]:
    pairs = []
    for part in value.split(";"):
        part = part.strip()
        if "=" in part:
            key, _, val = part.partition("=")
            pairs.append((key.strip(), val.strip()))
    return pairs


def parse_http(payload: AppPayload) -> HttpMessage | None:
    """Parse a plaintext HTTP/1.x message head, or None for anything else.

    Lenient on purpose: consumer devices emit nonconforming HTTP, so
    malformed header lines are skipped instead of rejecting the message.
    Only the first segment of a message is seen (no reassembly).
    """
    if not payload.data.startswith(_START_LINE_PREFIXES):
        return None
    text = payload.data.decode("latin-1")
    lines = _LINE_SPLIT.split(text)
    first = lines[0] if lines else ""

    message: HttpMessage
    request = _REQUEST_LINE.match(first)
    if request:
        message = HttpMessage(kind="request", method=request.group(1), url=request.group(2))
    else:
        status = _STATUS_LINE.match(first)
        if not status:
            return None
        code = int(status.group(1))
        if not 100 <= code <= 599:
            return None
        message = HttpMessage(kind="response", status_code=code)

    for line in lines[1:]:
        if line == "":
            break  # end of header block
        if ":" not in line or line[0] in " \t":
            continue  # malformed or folded header line: skip
        name, _, value = line.partition(":")
        name = name.strip()
        value = value.strip()
        if not name:
            continue
        message.headers.append((name, value))
        lowered = name.lower()
        if lowered == "host" and message.host is None:
            message.host = value
        elif lowered == "cookie":
            message.cookies.extend(_parse_cookie_pairs(value))
        elif lowered == "set-cookie":
            message.cookies.extend(_parse_cookie_pairs(value.split(";", 1)[0]))
    return message


def looks_like_http_continuation(data: bytes) -> bool:
    """Heuristic for payloads that are probably a later TCP segment of an
    HTTP message (headers or body split across packets)."""
    text = data[:512].decode("latin-1")
    first = _LINE_SPLIT.split(text)[0]
    if _REQUEST_LINE.match(first) or _STATUS_LINE.match(first):
        return False
    return bool(_HEADERISH_LINE.match(first)) or " HTTP/1." in text
