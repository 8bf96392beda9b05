"""Brute-force reference implementations, kept independent of the package's
fast paths on purpose: these are the oracles the fast versions are checked
against."""

import ipaddress
import math
import re
import struct
from fnmatch import fnmatchcase
from typing import NamedTuple

import numpy as np

from medleak.capture import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    GLOBAL_HEADER_LEN,
    LINKTYPE_ETHERNET,
    RECORD_HEADER_LEN,
    MalformedCapture,
    normalize_mac,
)
from medleak.classifiers import (
    CLEARTEXT,
    ENCRYPTED,
    INDETERMINATE,
    METHODS,
    ClassificationResult,
    ClassifierConfig,
    EmptyCorpus,
    MethodReport,
    MethodStats,
    _statistics,
    histogram,
)
from medleak.leaks import (
    DICTIONARIES,
    IMAGE_EXTENSIONS,
    MIN_NAME_TOKEN_LEN,
    SEVERITY_WARN,
    TimedMessage,
    _finding,
    _normalized_payload,
    image_get_signature,
    normalize_text,
)
from medleak.metadata import (
    DEFAULT_GAP_THRESHOLD,
    ActivityPeriod,
    EndpointProfile,
    _decode_dns_name,
    periodicity_hint,
)
from medleak.payload import (
    TLS_CONTENT_TYPES,
    TLS_PORT,
    AppPayload,
    TlsVerdict,
    parse_http,
)
from medleak.report import DeviceReport, _finding_order, _status


def byte_counts(data: bytes) -> dict[int, int]:
    counts: dict[int, int] = {}
    for b in data:
        counts[b] = counts.get(b, 0) + 1
    return counts


def entropy_oracle(data: bytes) -> float:
    """Direct summation over a byte->count map."""
    n = len(data)
    h = 0.0
    for count in byte_counts(data).values():
        p = count / n
        h -= p * math.log2(p)
    return h


def chi_squared_two_pass_oracle(data: bytes) -> float:
    """Pass 1 counts, pass 2 evaluates the formula over all 256 bins."""
    n = len(data)
    expected = n / 256
    counts = byte_counts(data)
    total = 0.0
    for value in range(256):
        observed = counts.get(value, 0)
        total += (observed - expected) ** 2 / expected
    return total


def chi_squared_double_loop_oracle(data: bytes) -> float:
    """Naive O(256*n) evaluation: recount the payload for every bin."""
    n = len(data)
    expected = n / 256
    total = 0.0
    for value in range(256):
        observed = sum(1 for b in data if b == value)
        total += (observed - expected) ** 2 / expected
    return total


_WORD = re.compile(r"[a-z0-9]+(?:[_\-][a-z0-9]+)*")
_JOINERS = re.compile(r"[_\-]+")
_ALPHA_OR_DIGIT_RUN = re.compile(r"[a-z]+|[0-9]+")


def tokenize_oracle(data: bytes | str) -> list[str]:
    """Every word, its joined and split forms, and the letter/digit runs of
    every part, with no shortcut for words that need no splitting. A str is
    read as its text, bytes as their latin-1 text, either lowercased by
    ``str.lower`` and split by the word regex."""
    text = (data if isinstance(data, str) else data.decode("latin-1")).lower()
    tokens: list[str] = []
    for word in _WORD.findall(text):
        tokens.append(word)
        if "_" in word or "-" in word:
            tokens.append(_JOINERS.sub(" ", word))
            parts = _JOINERS.split(word)
            tokens.extend(parts)
        else:
            parts = [word]
        for part in parts:
            runs = _ALPHA_OR_DIGIT_RUN.findall(part)
            if len(runs) > 1:
                tokens.extend(runs)
    return tokens


def dictionary_hits_oracle(tokens, dictionaries) -> list[tuple[str, str]]:
    """Look every token up in every dictionary, keeping the first hit per
    (token, dictionary name)."""
    seen: set[tuple[str, str]] = set()
    hits = []
    for dictionary in dictionaries:
        min_len = MIN_NAME_TOKEN_LEN if dictionary.name == "first-names" else 0
        for token in tokens:
            if len(token) < min_len or token not in dictionary.entries:
                continue
            if (token, dictionary.name) not in seen:
                seen.add((token, dictionary.name))
                hits.append((token, dictionary.name))
    return hits


def matches_vendor_oracle(subject, vendor_patterns) -> bool:
    if not subject:
        return False
    lowered = subject.lower()
    return any(fnmatchcase(lowered, pattern.lower()) for pattern in vendor_patterns)


def ipv4_oracle(packed: bytes) -> str:
    return str(ipaddress.IPv4Address(packed))


def image_get_signature_oracle(messages, window_s):
    """Compare every image GET against every earlier message."""
    ordered = sorted(messages, key=lambda m: (m.timestamp, m.packet_index))
    findings = []
    for position, timed in enumerate(ordered):
        message = timed.message
        if not (timed.outbound and message.kind == "request" and message.method == "GET"):
            continue
        path = (message.url or "").split("?", 1)[0]
        if not path.lower().endswith(IMAGE_EXTENSIONS):
            continue
        preceded = any(
            (prior.outbound or prior.vendor_endpoint)
            and timed.timestamp - prior.timestamp <= window_s
            for prior in ordered[:position]
        )
        if preceded:
            normalized = _normalized_payload(timed.payload)
            findings.append(_finding(timed.packet_index, "image-get-signature", SEVERITY_WARN, path, normalized))
    return findings


# --- pcap decode: one frame at a time, every string formatted afresh ---------

_MAGICS = {
    b"\xd4\xc3\xb2\xa1": ("<", 1),      # little-endian, microseconds
    b"\xa1\xb2\xc3\xd4": (">", 1),      # big-endian, microseconds
    b"\x4d\x3c\xb2\xa1": ("<", 1000),   # little-endian, nanoseconds
    b"\xa1\xb2\x3c\x4d": (">", 1000),   # big-endian, nanoseconds
}
_RECORD_HEADERS = {endian: struct.Struct(endian + "IIII") for endian in "<>"}
_PORTS = struct.Struct("!HH")
_UDP_HEADER = struct.Struct("!HHH")  # src port, dst port, length


def _format_mac(raw: bytes) -> str:
    return raw.hex(":")


class OraclePacket(NamedTuple):
    """One decoded frame, in the fields a table row reads back as: -1 for
    the IP protocol without an IP layer, None for its addresses; 0 for the
    transport protocol (6 TCP, 17 UDP) and -1 for its ports without a
    transport layer; then the whole payload."""

    index: int
    ts_us: int
    frame_len: int
    src_mac: str
    dst_mac: str
    ip_proto: int
    src_addr: str | None
    dst_addr: str | None
    proto: int
    src_port: int
    dst_port: int
    payload: bytes


def _decode_ipv4(body: bytes) -> tuple[str, str, int, bytes] | None:
    if len(body) < 20:
        return None
    ver_ihl = body[0]
    if ver_ihl >> 4 != 4:
        return None
    header_len = (ver_ihl & 0x0F) * 4
    if header_len < 20 or len(body) < header_len:
        return None
    total_len = int.from_bytes(body[2:4], "big")
    # total_length bounds the datagram so Ethernet trailer padding is dropped
    end = min(total_len, len(body)) if total_len >= header_len else len(body)
    src_addr = "%d.%d.%d.%d" % (body[12], body[13], body[14], body[15])
    dst_addr = "%d.%d.%d.%d" % (body[16], body[17], body[18], body[19])
    return src_addr, dst_addr, body[9], body[header_len:end]


def _decode_ipv6(body: bytes) -> tuple[str, str, int, bytes] | None:
    if len(body) < 40:
        return None
    if body[0] >> 4 != 6:
        return None
    payload_len = int.from_bytes(body[4:6], "big")
    end = min(40 + payload_len, len(body))
    src_addr = str(ipaddress.IPv6Address(body[8:24]))
    dst_addr = str(ipaddress.IPv6Address(body[24:40]))
    return src_addr, dst_addr, body[6], body[40:end]


def _decode_transport(protocol: int, segment: bytes) -> tuple[int, int, bytes] | None:
    if protocol == 6:  # TCP
        if len(segment) < 20:
            return None
        data_offset = (segment[12] >> 4) * 4
        if data_offset < 20 or len(segment) < data_offset:
            return None
        sport, dport = _PORTS.unpack_from(segment)
        return sport, dport, segment[data_offset:]
    if protocol == 17:  # UDP
        if len(segment) < 8:
            return None
        sport, dport, udp_len = _UDP_HEADER.unpack_from(segment)
        if udp_len < 8:
            return None
        return sport, dport, segment[8 : min(udp_len, len(segment))]
    return None


def _decode_frame(index: int, ts_us: int, frame: bytes) -> tuple[OraclePacket | None, str | None]:
    if len(frame) < ETHERNET_HEADER_LEN:
        return None, f"frame {index}: truncated Ethernet header ({len(frame)} bytes)"
    dst_mac = _format_mac(frame[0:6])
    src_mac = _format_mac(frame[6:12])
    ethertype = int.from_bytes(frame[12:14], "big")
    body = frame[ETHERNET_HEADER_LEN:]

    ip_proto, src_addr, dst_addr = -1, None, None
    payload = body
    fragment_offset = 0
    if ethertype == ETHERTYPE_IPV4:
        decoded = _decode_ipv4(body)
        if decoded is None:
            return None, f"frame {index}: truncated or invalid IPv4 header"
        src_addr, dst_addr, ip_proto, payload = decoded
        fragment_offset = int.from_bytes(body[6:8], "big") & 0x1FFF
    elif ethertype == ETHERTYPE_IPV6:
        decoded = _decode_ipv6(body)
        if decoded is None:
            return None, f"frame {index}: truncated or invalid IPv6 header"
        src_addr, dst_addr, ip_proto, payload = decoded

    proto, src_port, dst_port = 0, -1, -1
    # only the first fragment of a datagram starts with the transport header
    if ip_proto in (6, 17) and not fragment_offset:
        decoded_t = _decode_transport(ip_proto, payload)
        if decoded_t is None:
            kind = "TCP" if ip_proto == 6 else "UDP"
            return None, f"frame {index}: truncated {kind} header"
        proto = ip_proto
        src_port, dst_port, payload = decoded_t

    packet = OraclePacket(
        index=index,
        ts_us=ts_us,
        frame_len=len(frame),
        src_mac=src_mac,
        dst_mac=dst_mac,
        ip_proto=ip_proto,
        src_addr=src_addr,
        dst_addr=dst_addr,
        proto=proto,
        src_port=src_port,
        dst_port=dst_port,
        payload=payload,
    )
    return packet, None


class OracleParse(NamedTuple):
    """What ``parse_capture_oracle`` decodes: a list of OraclePackets and
    the warning of each skipped frame."""

    packets: list[OraclePacket]
    warnings: list[str]


def parse_capture_oracle(data: bytes) -> OracleParse:
    """Decode a classic libpcap capture into OraclePackets.

    Frames with truncated headers are skipped and counted as warnings rather
    than aborting the parse. The returned packets are stably sorted by
    timestamp, so equal timestamps keep capture order.
    """
    if len(data) < GLOBAL_HEADER_LEN:
        raise MalformedCapture(f"truncated global header ({len(data)} bytes)")
    try:
        endian, frac_divisor = _MAGICS[data[:4]]
    except KeyError:
        raise MalformedCapture(f"unrecognized pcap magic {data[:4].hex()}") from None
    _, _, _, _, _, network = struct.unpack(endian + "HHiIII", data[4:GLOBAL_HEADER_LEN])
    if network != LINKTYPE_ETHERNET:
        raise MalformedCapture(f"unsupported link type {network} (only Ethernet is supported)")

    record_header = _RECORD_HEADERS[endian]
    packets: list[OraclePacket] = []
    warnings: list[str] = []
    offset = GLOBAL_HEADER_LEN
    index = 0
    while offset < len(data):
        if offset + RECORD_HEADER_LEN > len(data):
            warnings.append(f"frame {index}: truncated record header at offset {offset}")
            break
        ts_sec, ts_frac, incl_len, _ = record_header.unpack_from(data, offset)
        offset += RECORD_HEADER_LEN
        if offset + incl_len > len(data):
            warnings.append(
                f"frame {index}: declared caplen {incl_len} exceeds remaining "
                f"{len(data) - offset} bytes"
            )
            break
        frame = data[offset : offset + incl_len]
        offset += incl_len
        ts_us = ts_sec * 1_000_000 + ts_frac // frac_divisor
        packet, warning = _decode_frame(index, ts_us, frame)
        index += 1
        if warning is not None:
            warnings.append(warning)
            continue
        assert packet is not None
        packets.append(packet)

    packets.sort(key=lambda p: p.ts_us)  # stable: capture order kept on ties
    return OracleParse(packets, warnings)


# --- what a table keeps of a packet: an application-data record's header only,
# the payload's first byte and its TLS verdict


class OracleRow(NamedTuple):
    """A decoded packet as a table row: its fields, the first byte of a
    transport payload (-1 without one, or when empty), whether that payload
    is TLS, and the bytes of the payload a table keeps."""

    index: int
    ts_us: int
    frame_len: int
    src_mac: str
    dst_mac: str
    ip_proto: int
    src_addr: str | None
    dst_addr: str | None
    proto: int
    src_port: int
    dst_port: int
    head: int
    tls: bool
    payload: bytes


def kept_payload_oracle(packet: OraclePacket) -> bytes:
    """The bytes a table keeps of a packet's payload: all of them, except
    that a transport payload starting 0x17 0x03 0x00-0x04 (a TLS
    application-data record) keeps its first five, the record header."""
    data = packet.payload
    if packet.proto and len(data) >= 3 and data[0] == 0x17 and data[1] == 3 and data[2] <= 4:
        return data[:5]
    return data


def table_rows_oracle(packets) -> list[OracleRow]:
    """The packets as the rows of a table read back: each keeps the payload
    ``kept_payload_oracle`` gives, and its ``head`` and ``tls`` are read from
    the full payload, the verdict by ``detect_tls_oracle``."""
    rows = []
    for packet in packets:
        *fields, data = packet
        carried = bool(packet.proto and data)
        ports = (packet.src_port, packet.dst_port)
        tls = carried and detect_tls_oracle(AppPayload(packet.index, "outbound", ports, data)).is_tls
        rows.append(OracleRow(*fields, data[0] if carried else -1, tls, kept_payload_oracle(packet)))
    return rows


# --- the remote end of a packet, one packet at a time -------------------------


def remote_address(packet, device_mac: str) -> str | None:
    """The non-device end of an IP packet, relative to the device MAC; None
    without an IP layer, where both addresses are None."""
    return packet.dst_addr if packet.src_mac == device_mac else packet.src_addr


# --- split and endpoints: one packet at a time, over lists -------------------


def split_by_device_oracle(packets, registry):
    """((device_id, mac, packets) per registry entry, unattributed packets)."""
    if not registry:
        return [], list(packets)
    streams = {}
    for mac, device_id in registry.items():
        mac = normalize_mac(mac)
        streams[mac] = (device_id, mac, [])
    unattributed = []
    for packet in packets:
        if packet.src_mac in streams:
            streams[packet.src_mac][2].append(packet)
        elif packet.dst_mac in streams:
            streams[packet.dst_mac][2].append(packet)
        else:
            unattributed.append(packet)
    return list(streams.values()), unattributed


def endpoint_profiles_oracle(stream, dns_answers=None, vendor_patterns=()) -> list[EndpointProfile]:
    counts = {}
    for packet in stream.table:
        address = remote_address(packet, stream.mac)
        if address is not None:
            counts[address] = counts.get(address, 0) + 1
    hostmap = resolve_hostnames_oracle(stream, dns_answers)
    return [
        EndpointProfile(
            address=address,
            hostname=hostmap.get(address),
            packet_count=count,
            vendor_flag=matches_vendor_oracle(hostmap.get(address), vendor_patterns)
            or matches_vendor_oracle(address, vendor_patterns),
        )
        for address, count in counts.items()
    ]


# --- hostnames: every TCP payload of an unresolved remote goes through parse_http


def resolve_hostnames_oracle(stream, dns_answers=None) -> dict[str, str]:
    hostmap = dict(dns_answers or {})
    for packet in stream.table:
        if packet.proto != 6 or not packet.payload:
            continue
        address = remote_address(packet, stream.mac)
        if address is None or address in hostmap:
            continue
        message = parse_http(packet.payload)
        if message is not None and message.host:
            hostmap[address] = message.host
    return hostmap


# --- payloads: one AppPayload per payload packet, each TLS verdict built fresh


def extract_payloads_oracle(stream) -> list[AppPayload]:
    payloads: list[AppPayload] = []
    for packet in stream.table:
        if not packet.proto or not packet.payload:
            continue
        direction = "outbound" if packet.src_mac == stream.mac else "inbound"
        payloads.append(
            AppPayload(
                packet_index=packet.index,
                direction=direction,
                port_pair=(packet.src_port, packet.dst_port),
                data=packet.payload,
            )
        )
    return payloads


def detect_tls_oracle(payload: AppPayload) -> TlsVerdict:
    port_hit = TLS_PORT in payload.port_pair
    data = payload.data
    record_hit = len(data) >= 3 and data[0] in TLS_CONTENT_TYPES and data[1] == 3 and data[2] <= 4
    version = (data[1], data[2]) if record_hit else None
    return TlsVerdict(port_hit or record_hit, version)


# --- activity: one packet list per period, summed when the period closes ------


def activity_periods_oracle(
    stream,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    hostnames: dict[str, str] | None = None,
) -> list[ActivityPeriod]:
    packets = list(stream.table)
    if not packets:
        return []
    hostnames = hostnames or {}
    gap_us = gap_threshold * 1_000_000

    def finish(group: list) -> ActivityPeriod:
        endpoints = set()
        for packet in group:
            address = remote_address(packet, stream.mac)
            if address is not None:
                endpoints.add((address, hostnames.get(address)))
        return ActivityPeriod(
            start=group[0].ts_us / 1_000_000,
            end=group[-1].ts_us / 1_000_000,
            packet_count=len(group),
            bytes_total=sum(p.frame_len for p in group),
            endpoints=endpoints,
        )

    periods: list[ActivityPeriod] = []
    group = [packets[0]]
    for packet in packets[1:]:
        if packet.ts_us - group[-1].ts_us <= gap_us:
            group.append(packet)
        else:
            periods.append(finish(group))
            group = [packet]
    periods.append(finish(group))
    return periods


# --- DNS: the question loop runs qdcount times, past the end of the message --


def parse_dns_response_oracle(data: bytes) -> dict[str, str]:
    if len(data) < 12:
        return {}
    flags, qdcount, ancount = struct.unpack("!HHH", data[2:8])
    if not flags & 0x8000:  # not a response
        return {}
    offset = 12
    for _ in range(qdcount):
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


def extract_dns_answers_oracle(packets) -> dict[str, str]:
    """address -> hostname from the full payload of every UDP packet from
    port 53, the first answer for an address kept."""
    answers: dict[str, str] = {}
    for packet in packets:
        if packet.proto == 17 and packet.src_port == 53:
            for address, hostname in parse_dns_response_oracle(packet.payload).items():
                answers.setdefault(address, hostname)
    return answers


# --- classifiers: one payload at a time, entropy over the non-empty bins -----


def _is_ascii(counts: np.ndarray) -> bool:
    return not counts[128:].any()


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    value = float(-(p * np.log2(p)).sum())
    return value + 0.0  # fold -0.0 from the single-symbol case


def _chi_squared(counts: np.ndarray, n: int) -> float:
    expected = n / 256.0
    deviation = counts - expected
    return float((deviation * deviation / expected).sum())


def classify_oracle(payload, config: ClassifierConfig = ClassifierConfig()) -> ClassificationResult:
    data = payload.data
    counts = histogram(data)
    ascii_verdict = _is_ascii(counts)
    entropy_bits = _entropy(counts, len(data))
    chi = _chi_squared(counts, len(data))
    entropy_verdict = entropy_bits < config.entropy_threshold
    chi_verdict = chi > config.chi_threshold

    if len(data) < config.min_stat_len:
        consensus = CLEARTEXT if ascii_verdict else INDETERMINATE
    else:
        votes = {
            "ascii": ascii_verdict,
            "entropy": entropy_verdict,
            "chi_squared": chi_verdict,
            "majority": (ascii_verdict + entropy_verdict + chi_verdict) >= 2,
        }
        consensus = CLEARTEXT if votes[config.decision_method] else ENCRYPTED

    return ClassificationResult(
        packet_index=payload.packet_index,
        ascii_verdict=ascii_verdict,
        entropy_bits=entropy_bits,
        entropy_verdict=entropy_verdict,
        chi_squared=chi,
        chi_verdict=chi_verdict,
        consensus=consensus,
    )


# --- classifiers: one payload at a time, one 256-bin histogram per call ------


def classify_single_oracle(payload, config: ClassifierConfig = ClassifierConfig()) -> ClassificationResult:
    data = payload.data
    is_ascii, entropy, chi = _statistics(histogram(data), len(data))
    ascii_verdict, entropy_bits, chi = bool(is_ascii), float(entropy), float(chi)
    entropy_verdict = entropy_bits < config.entropy_threshold
    chi_verdict = chi > config.chi_threshold

    if len(data) < config.min_stat_len:
        consensus = CLEARTEXT if ascii_verdict else INDETERMINATE
    else:
        votes = {
            "ascii": ascii_verdict,
            "entropy": entropy_verdict,
            "chi_squared": chi_verdict,
            "majority": (ascii_verdict + entropy_verdict + chi_verdict) >= 2,
        }
        consensus = CLEARTEXT if votes[config.decision_method] else ENCRYPTED

    return ClassificationResult(
        packet_index=payload.packet_index,
        ascii_verdict=ascii_verdict,
        entropy_bits=entropy_bits,
        entropy_verdict=entropy_verdict,
        chi_squared=chi,
        chi_verdict=chi_verdict,
        consensus=consensus,
    )


def compare_methods_oracle(corpus, config: ClassifierConfig = ClassifierConfig()) -> MethodReport:
    tallies = {method: {"tp": 0, "fp": 0, "fn": 0, "flagged": 0} for method in METHODS}
    total = 0
    for item in corpus:
        total += 1
        is_cleartext = item.label == CLEARTEXT
        counts = histogram(item.data)
        flags = {
            "ascii": _is_ascii(counts),
            "entropy": _entropy(counts, len(item.data)) < config.entropy_threshold,
            "chi_squared": _chi_squared(counts, len(item.data)) > config.chi_threshold,
        }
        for method, flagged in flags.items():
            tally = tallies[method]
            if flagged:
                tally["flagged"] += 1
                tally["tp" if is_cleartext else "fp"] += 1
            elif is_cleartext:
                tally["fn"] += 1
    if total == 0:
        raise EmptyCorpus("corpus has no payloads")
    per_method = {
        method: MethodStats(
            true_positives=t["tp"],
            false_positives=t["fp"],
            false_negatives=t["fn"],
            flagged=t["flagged"],
            total=total,
        )
        for method, t in tallies.items()
    }
    return MethodReport(per_method=per_method, total=total)


# --- report: extract every payload, then detect, classify and scan each one
# in one pass ------------------------------------------------------------------


def http_hits_oracle(message, dictionaries, vendor_patterns, identifier_keys) -> list[tuple[str, str, str]]:
    """(category, severity, matched text) of every structural HTTP tell: the
    dictionary hits of the full URL and cookie token lists, with no gate on
    the payload's own hits, then the vendor host or URL, then identifier keys."""
    hits = []
    url = message.url or ""
    cookie_blob = " ".join(f"{k}={v}" for k, v in message.cookies)
    for category, text in (("url-leak", url), ("cookie-leak", cookie_blob)):
        for token, name in dictionary_hits_oracle(tokenize_oracle(text.encode("latin-1")), dictionaries):
            hits.append((category, DICTIONARIES[name][1], token))
    if matches_vendor_oracle(message.host, vendor_patterns):
        hits.append(("vendor-identifier", SEVERITY_WARN, message.host))
    elif matches_vendor_oracle(url, vendor_patterns):
        hits.append(("vendor-identifier", SEVERITY_WARN, url))
    query_keys = [part.split("=", 1)[0] for part in url.partition("?")[2].split("&") if part]
    reported = set()
    for key in [key for key, _ in message.cookies] + query_keys:
        if key.lower() in identifier_keys and key.lower() not in reported:
            reported.add(key.lower())
            hits.append(("user-identifier", SEVERITY_WARN, key))
    return hits


def analyze_stream_oracle(capture_name, stream, dns_answers, config, dictionaries) -> DeviceReport:
    packets_by_index = {p.index: p for p in stream.table}

    payloads = extract_payloads_oracle(stream)
    findings = []
    timed_messages = []
    tls_count = cleartext_count = encrypted_count = indeterminate_count = 0

    for payload in payloads:
        tls = detect_tls_oracle(payload)
        if tls.is_tls:
            tls_count += 1
            continue
        verdict = classify_single_oracle(payload, config)
        if verdict.consensus == ENCRYPTED:
            encrypted_count += 1
            continue
        if verdict.consensus == INDETERMINATE:
            indeterminate_count += 1
            continue
        cleartext_count += 1
        hits = [
            (*DICTIONARIES[name], token)
            for token, name in dictionary_hits_oracle(tokenize_oracle(payload.data), dictionaries)
        ]
        message = parse_http(payload.data)
        if message is not None:
            hits += http_hits_oracle(message, dictionaries, config.vendor_patterns, config.identifier_keys)
        normalized = normalize_text(payload.data.decode("latin-1"))
        findings.extend(_finding(payload.packet_index, *hit, normalized) for hit in hits)
        if message is None:
            continue
        timed_messages.append(
            TimedMessage(
                timestamp=packets_by_index[payload.packet_index].ts_us / 1_000_000,
                packet_index=payload.packet_index,
                message=message,
                outbound=payload.direction == "outbound",
                vendor_endpoint=matches_vendor_oracle(message.host, config.vendor_patterns),
                payload=payload.data,
            )
        )

    findings.extend(image_get_signature(timed_messages, config.image_window))
    findings.sort(key=_finding_order)

    hostnames = resolve_hostnames_oracle(stream, dns_answers)
    activity = activity_periods_oracle(stream, config.gap_threshold, hostnames)
    return DeviceReport(
        capture=capture_name,
        device_id=stream.device_id,
        mac=stream.mac,
        packet_count=len(stream.table),
        payload_count=len(payloads),
        cleartext_count=cleartext_count,
        tls_count=tls_count,
        encrypted_count=encrypted_count,
        indeterminate_count=indeterminate_count,
        findings=findings,
        activity=activity,
        endpoints=endpoint_profiles_oracle(stream, dns_answers, config.vendor_patterns),
        periodicity=periodicity_hint(activity),
        status=_status(findings),
    )
