"""Application-payload isolation, TLS/SSL exclusion, and plaintext HTTP parsing."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .capture import (
    _START_LINE_PREFIXES,
    HTTP_METHODS,
    TLS_CONTENT_TYPES,
    TLS_PORT,
    DeviceStream,
    PacketTable,
)

_REQUEST_LINE = re.compile(r"^(%s) (\S+) HTTP/" % "|".join(HTTP_METHODS))
_STATUS_LINE = re.compile(r"^HTTP/\S+ (\d{3})(?: |$)")
# Both start-line patterns are anchored, so a payload can match one only if
# it begins with one of _START_LINE_PREFIXES.
_LINE_SPLIT = re.compile(r"\r\n|\n")


@dataclass(frozen=True, slots=True)
class AppPayload:
    """Application-layer bytes of a single packet (no cross-packet reassembly)."""

    packet_index: int
    direction: str  # "outbound" | "inbound" relative to the device
    port_pair: tuple[int, int]  # (src_port, dst_port)
    data: bytes


@dataclass(frozen=True)
class TlsVerdict:
    is_tls: bool
    version: tuple[int, int] | None = None  # (3, minor) of a record header


@dataclass
class HttpMessage:
    kind: str  # "request" | "response"
    method: str | None = None
    url: str | None = None
    headers: list[tuple[str, str]] = field(default_factory=list)
    host: str | None = None
    cookies: list[tuple[str, str]] = field(default_factory=list)
    status_code: int | None = None


def payload_rows(table: PacketTable) -> np.ndarray:
    """Which rows of a table carry application bytes: rows without a
    transport layer (ARP and friends) and empty TCP segments carry none."""
    return table.head >= 0


def extract_payloads(stream: DeviceStream) -> list[AppPayload]:
    """One AppPayload per row of the stream that ``payload_rows`` selects."""
    table = stream.table
    rows = payload_rows(table).nonzero()[0]
    outbound = stream.outbound[rows]
    return [
        AppPayload(index, "outbound" if out else "inbound", (src_port, dst_port), table.payloads[row])
        for index, out, src_port, dst_port, row in zip(
            table.index[rows].tolist(), outbound.tolist(), table.src_port[rows].tolist(),
            table.dst_port[rows].tolist(), rows.tolist())
    ]


# Every verdict the TLS rule can give, built once and shared (TlsVerdict is
# frozen): not TLS, port 443 alone, and a record header of each minor 0..4.
_NOT_TLS = TlsVerdict(False)
_PORT_ONLY = TlsVerdict(True)
_RECORD = tuple(TlsVerdict(True, (3, minor)) for minor in range(5))


def tls_verdict(port_pair: tuple[int, int], data: bytes) -> TlsVerdict:
    """Flag TLS/SSL bytes by well-known port and/or record header.

    Deterministic on (ports, first three payload bytes): port 443 on either
    side, or a record whose content type is 0x14-0x17 with version major 3
    and minor 0..4.
    """
    if len(data) >= 3 and data[0] in TLS_CONTENT_TYPES and data[1] == 3 and data[2] <= 4:
        return _RECORD[data[2]]
    return _PORT_ONLY if TLS_PORT in port_pair else _NOT_TLS


def detect_tls(payload: AppPayload) -> TlsVerdict:
    """``tls_verdict`` of a payload's ports and bytes."""
    return tls_verdict(payload.port_pair, payload.data)


def _parse_cookie_pairs(value: str) -> list[tuple[str, str]]:
    pairs = []
    for part in value.split(";"):
        part = part.strip()
        if "=" in part:
            key, _, val = part.partition("=")
            pairs.append((key.strip(), val.strip()))
    return pairs


def parse_http(data: bytes) -> HttpMessage | None:
    """Parse a plaintext HTTP/1.x message head, or None for anything else.

    Lenient on purpose: consumer devices emit nonconforming HTTP, so
    malformed header lines are skipped instead of rejecting the message.
    Only the first segment of a message is seen (no reassembly).
    """
    if not data.startswith(_START_LINE_PREFIXES):
        return None
    text = data.decode("latin-1")
    lines = _LINE_SPLIT.split(text)

    message: HttpMessage
    request = _REQUEST_LINE.match(lines[0])
    if request:
        message = HttpMessage(kind="request", method=request.group(1), url=request.group(2))
    else:
        status = _STATUS_LINE.match(lines[0])
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

