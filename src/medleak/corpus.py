"""Synthetic labeled corpora and golden-fixture captures.

The corpus generator produces cleartext payloads from realistic templates
(HTTP heads, English prose, key=value forms) and "encrypted" payloads from a
seeded extendable-output hash, which is indistinguishable from ciphertext
for the statistics under test. Labels are assigned by construction, never by
classification.

The fixture builder emits small hand-scripted PCAPs modeling a leaky blood
pressure monitor, a well-behaved TLS-only scale, and a mixed home network.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import json
import random
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

from .capture import normalize_mac
from .classifiers import CLEARTEXT, ENCRYPTED

# Fixture network: device MACs carry vendor-style OUIs, the gateway is the
# capture point, and the laptop is deliberately absent from registries.
BP_MONITOR_MAC = "00:24:e4:1b:20:31"
SCALE_MAC = "00:24:e4:9c:41:72"
AP_MAC = "b8:27:eb:5a:10:04"
LAPTOP_MAC = "3c:22:fb:7d:88:19"

BP_MONITOR_IP = "192.168.4.21"
SCALE_IP = "192.168.4.22"
LAPTOP_IP = "192.168.4.30"
GATEWAY_IP = "192.168.4.1"

MEASURE_HOST = "scalews.withings.net"
MEASURE_ADDR = "89.30.121.52"
STATIC_ADDR = "89.30.121.60"
SCALE_CLOUD_ADDR = "63.34.120.8"
WEB_ADDR = "93.184.216.34"
WEB_TLS_ADDR = "142.250.74.36"

_FIXTURE_STREAM_SEED = 0x5EED

# payload lengths (bytes, inclusive) of a corpus when none are given
DEFAULT_LENGTH_RANGE = (64, 2048)


class InvalidCorpusSpec(ValueError):
    pass


class MalformedCorpus(ValueError):
    """A saved corpus line that is not a valid labeled-payload record."""


@dataclass(frozen=True)
class LabeledPayload:
    data: bytes
    label: str  # CLEARTEXT | ENCRYPTED
    generator_note: str
    seed_record: int


@dataclass(frozen=True)
class CorpusSpec:
    n_cleartext: int
    n_encrypted: int
    length_range: tuple[int, int]
    seed: int


def deterministic_bytes(seed: int, tag: str, n: int) -> bytes:
    """n reproducible bytes from a cryptographic XOF keyed by (seed, tag)."""
    return hashlib.shake_256(f"medleak:{seed}:{tag}".encode()).digest(n)


# --- cleartext templates -----------------------------------------------------

_WORDS = (
    "the of and device measurement record status update sensor network home "
    "daily morning reading result value level report system time profile "
    "settings sync battery signal summary history chart trend upload complete "
    "session start finish normal range target goal note entry check monitor "
    "service cloud login welcome thanks please review weekly average total "
    "count item list page next previous first last new today minute hour week "
    "month year about contact help support guide manual version firmware "
    "hardware model unit step walk run rest active idle ready done open close "
    "send receive request response message notice alert info detail full "
    "partial quick slow high low medium enabled disabled paired online offline"
).split()

_ACCENT_WORDS = ("café", "señor", "über", "jalapeño", "crème", "naïve", "déjà", "smörgås")

_HOSTS = (
    "api.devicecloud.example",
    "sync.healthhub.example",
    "updates.iotworks.example",
    "telemetry.vendor.example",
)
_PATH_SEGMENTS = ("api", "v2", "sync", "data", "upload", "session", "device", "status", "history")
_FIELD_NAMES = ("id", "session", "device", "type", "value", "unit", "ts", "lang", "tz", "fw", "mode", "page")
_USER_AGENTS = (
    "DeviceAgent/1.4 (linux; armv7)",
    "SyncClient/2.0",
    "EmbeddedHTTP/0.9",
    "HealthSync/3.1 (iOS 10.2)",
)


def _word(rng: random.Random, accents: bool) -> str:
    if accents and rng.random() < 0.12:
        return rng.choice(_ACCENT_WORDS)
    return rng.choice(_WORDS)


def _text_block(rng: random.Random, n_chars: int, accents: bool) -> str:
    parts: list[str] = []
    size = 0
    while size < n_chars:
        word = _word(rng, accents)
        parts.append(word)
        size += len(word) + 1
    return " ".join(parts)


def _gen_http_request(rng: random.Random, length: int, accents: bool) -> str:
    method = rng.choice(("GET", "POST"))
    path = "/" + "/".join(rng.sample(_PATH_SEGMENTS, k=rng.randint(1, 3)))
    query = "&".join(f"{rng.choice(_FIELD_NAMES)}={rng.randrange(100000)}" for _ in range(rng.randint(1, 4)))
    lines = [
        f"{method} {path}?{query} HTTP/1.1",
        f"Host: {rng.choice(_HOSTS)}",
        f"User-Agent: {rng.choice(_USER_AGENTS)}",
        "Accept: */*",
        "Connection: keep-alive",
    ]
    if rng.random() < 0.4:
        lines.append(f"Cookie: session={rng.randrange(10**9)}; lang=en")
    text = "\r\n".join(lines) + "\r\n\r\n"
    if len(text) < length:
        text += _text_block(rng, length - len(text), accents)
    return text


def _gen_http_response(rng: random.Random, length: int, accents: bool) -> str:
    lines = [
        f"HTTP/1.1 {rng.choice(('200 OK', '204 No Content', '302 Found'))}",
        "Server: embedded-httpd",
        f"Content-Type: {rng.choice(('text/html', 'application/json', 'text/plain'))}",
        "Connection: close",
    ]
    text = "\r\n".join(lines) + "\r\n\r\n"
    if len(text) < length:
        text += _text_block(rng, length - len(text), accents)
    return text


def _gen_keyvalue_form(rng: random.Random, length: int, accents: bool) -> str:
    pairs: list[str] = []
    size = 0
    while size < length:
        name = rng.choice(_FIELD_NAMES)
        value = _word(rng, accents) if rng.random() < 0.5 else str(rng.randrange(10**6))
        pairs.append(f"{name}={value}")
        size += len(pairs[-1]) + 1
    return "&".join(pairs)

_CLEARTEXT_BUILDERS = (
    ("http-request", _gen_http_request),
    ("http-response", _gen_http_response),
    ("english-text", _text_block),
    ("keyvalue-form", _gen_keyvalue_form),
)


def generate_corpus(spec: CorpusSpec) -> list[LabeledPayload]:
    """Build a labeled corpus, fully reproducible from spec.seed."""
    if spec.n_cleartext <= 0 or spec.n_encrypted <= 0:
        raise InvalidCorpusSpec("payload counts must be positive")
    low, high = spec.length_range
    if low < 1 or high < low:
        raise InvalidCorpusSpec(f"bad length range {spec.length_range!r}")

    rng = random.Random(spec.seed)
    items: list[LabeledPayload] = []
    for _ in range(spec.n_cleartext):
        length = rng.randint(low, high)
        name, builder = _CLEARTEXT_BUILDERS[rng.randrange(len(_CLEARTEXT_BUILDERS))]
        accents = rng.random() < 0.25
        text = builder(rng, length, accents)
        data = text.encode("utf-8")
        while len(data) < length:
            text += " " + _text_block(rng, length - len(data) + 8, accents)
            data = text.encode("utf-8")
        items.append(
            LabeledPayload(
                data=data[:length],
                label=CLEARTEXT,
                generator_note=name + ("+utf8" if accents else ""),
                seed_record=spec.seed,
            )
        )
    for i in range(spec.n_encrypted):
        length = rng.randint(low, high)
        items.append(
            LabeledPayload(
                data=deterministic_bytes(spec.seed, f"enc:{i}", length),
                label=ENCRYPTED,
                generator_note="xof-stream",
                seed_record=spec.seed,
            )
        )
    return items


def save_corpus(items: list[LabeledPayload], path) -> Path:
    """Write a corpus as JSONL (one base64-encoded payload per line)."""
    path = Path(path)
    if path.suffix != ".jsonl":
        path.mkdir(parents=True, exist_ok=True)
        path = path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(
                json.dumps(
                    {
                        "label": item.label,
                        "data_b64": base64.b64encode(item.data).decode("ascii"),
                        "generator_note": item.generator_note,
                        "seed_record": item.seed_record,
                    }
                )
                + "\n"
            )
    return path


def load_corpus(path) -> list[LabeledPayload]:
    path = Path(path)
    if path.is_dir():
        path = path / "corpus.jsonl"
    items: list[LabeledPayload] = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("record is not a JSON object")
                if obj["label"] not in (CLEARTEXT, ENCRYPTED):
                    raise ValueError(f"unknown label {obj['label']!r}")
                note = obj.get("generator_note", "")
                if not isinstance(note, str):
                    raise ValueError(f"generator_note {note!r} is not a string")
                seed_record = obj.get("seed_record", 0)
                if type(seed_record) is not int:  # not isinstance: JSON true would pass as 1
                    raise ValueError(f"seed_record {seed_record!r} is not an integer")
                data = base64.b64decode(obj["data_b64"], validate=True)
                if not data:
                    raise ValueError("empty payload")
                # a corpus has a handful of distinct labels and notes: share
                # one string object per value instead of one per record
                items.append(
                    LabeledPayload(
                        data=data,
                        label=sys.intern(obj["label"]),
                        generator_note=sys.intern(note),
                        seed_record=seed_record,
                    )
                )
            except KeyError as exc:
                raise MalformedCorpus(f"{path}:{line_number}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise MalformedCorpus(f"{path}:{line_number}: {exc}") from None
    return items


# --- wire-format builders ----------------------------------------------------

def mac_to_bytes(mac: str) -> bytes:
    return bytes(int(part, 16) for part in normalize_mac(mac).split(":"))


def ethernet_frame(src_mac: str, dst_mac: str, ethertype: int, body: bytes) -> bytes:
    return mac_to_bytes(dst_mac) + mac_to_bytes(src_mac) + ethertype.to_bytes(2, "big") + body


def _ipv4_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += int.from_bytes(header[i : i + 2], "big")
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4_packet(src_ip: str, dst_ip: str, protocol: int, body: bytes) -> bytes:
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        20 + len(body),
        0,
        0x4000,  # don't fragment
        64,  # TTL
        protocol,
        0,
        ipaddress.IPv4Address(src_ip).packed,
        ipaddress.IPv4Address(dst_ip).packed,
    )
    checksum = _ipv4_checksum(header)
    return header[:10] + struct.pack("!H", checksum) + header[12:] + body


def tcp_segment(src_port: int, dst_port: int, payload: bytes, seq: int = 0, flags: int = 0x18) -> bytes:
    header = struct.pack("!HHIIBBHHH", src_port, dst_port, seq, 0, 5 << 4, flags, 8192, 0, 0)
    return header + payload


def udp_datagram(src_port: int, dst_port: int, payload: bytes) -> bytes:
    return struct.pack("!HHHH", src_port, dst_port, 8 + len(payload), 0) + payload


def tcp_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes,
    seq: int = 0,
    flags: int = 0x18,
) -> bytes:
    return ethernet_frame(
        src_mac, dst_mac, 0x0800, ipv4_packet(src_ip, dst_ip, 6, tcp_segment(src_port, dst_port, payload, seq, flags))
    )


def udp_frame(
    src_mac: str, dst_mac: str, src_ip: str, dst_ip: str, src_port: int, dst_port: int, payload: bytes
) -> bytes:
    return ethernet_frame(
        src_mac, dst_mac, 0x0800, ipv4_packet(src_ip, dst_ip, 17, udp_datagram(src_port, dst_port, payload))
    )


def arp_frame(src_mac: str, src_ip: str, target_ip: str) -> bytes:
    body = struct.pack(
        "!HHBBH6s4s6s4s",
        1,  # Ethernet
        0x0800,
        6,
        4,
        1,  # request
        mac_to_bytes(src_mac),
        ipaddress.IPv4Address(src_ip).packed,
        b"\x00" * 6,
        ipaddress.IPv4Address(target_ip).packed,
    )
    body += b"\x00" * (46 - len(body))  # pad to minimum frame body
    return ethernet_frame(src_mac, "ff:ff:ff:ff:ff:ff", 0x0806, body)


def _dns_name(hostname: str) -> bytes:
    encoded = b""
    for label in hostname.split("."):
        encoded += len(label).to_bytes(1, "big") + label.encode("ascii")
    return encoded + b"\x00"


def dns_query_payload(txid: int, hostname: str) -> bytes:
    return struct.pack("!HHHHHH", txid, 0x0100, 1, 0, 0, 0) + _dns_name(hostname) + struct.pack("!HH", 1, 1)


def dns_response_payload(txid: int, hostname: str, addresses: list[str]) -> bytes:
    out = struct.pack("!HHHHHH", txid, 0x8180, 1, len(addresses), 0, 0)
    out += _dns_name(hostname) + struct.pack("!HH", 1, 1)
    for address in addresses:
        out += struct.pack("!HHHIH", 0xC00C, 1, 1, 300, 4) + ipaddress.IPv4Address(address).packed
    return out


def tls_record(content_type: int, minor: int, body: bytes) -> bytes:
    return bytes((content_type, 3, minor)) + len(body).to_bytes(2, "big") + body


def write_pcap(records: list[tuple[int, bytes]]) -> bytes:
    """Serialize (timestamp_us, frame) records as a classic little-endian
    microsecond PCAP with Ethernet link type."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for ts_us, frame in records:
        sec, usec = divmod(ts_us, 1_000_000)
        out.append(struct.pack("<IIII", sec, usec, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


# --- golden fixtures ----------------------------------------------------------

_MEASURE_REQUEST = (
    "GET /cgi-bin/measure/probe?b=blood_pressure,heart_pulse&action=store"
    "&measure_type=blood_pressure&withings_mobile_app=ios_healthmate HTTP/1.1\r\n"
    "Host: scalews.withings.net\r\n"
    "User-Agent: HealthMate/2.1.4 (iPhone; iOS 10.2)\r\n"
    "Accept: */*\r\n"
    "Accept-Language: en-us\r\n"
    "Accept-Encoding: identity\r\n"
    "Cookie: current_user=48213; session_token=9f27c44ab31e\r\n"
    "Connection: keep-alive\r\n"
    "\r\n"
).encode("ascii")

_MEASURE_RESPONSE = (
    "HTTP/1.1 200 OK\r\n"
    "Server: nginx/1.4.6\r\n"
    "Content-Type: application/json\r\n"
    "Connection: keep-alive\r\n"
    "\r\n"
    '{"status":0,"body":{"updatetime":1481800000,"measuregrps":[{"grpid":2909881,'
    '"attrib":0,"category":1,"deviceid":"a1f3","measures":[{"value":118,"kind":9},'
    '{"value":76,"kind":10},{"value":62,"kind":11}]}]}}'
).encode("ascii")

_IMAGE_REQUEST = (
    "GET /img/device/bpm/bpm_stock_photo.jpg HTTP/1.1\r\n"
    "Host: static.withings.com\r\n"
    "User-Agent: HealthMate/2.1.4 (iPhone; iOS 10.2)\r\n"
    "Accept: image/*\r\n"
    "Accept-Encoding: identity\r\n"
    "Referer: http://scalews.withings.net/cgi-bin/measure\r\n"
    "Connection: keep-alive\r\n"
    "\r\n"
).encode("ascii")

_LAPTOP_REQUEST = (
    "GET /news/today.html HTTP/1.1\r\n"
    "Host: example.com\r\n"
    "User-Agent: Mozilla/5.0 (X11; Linux x86_64)\r\n"
    "Accept: text/html\r\n"
    "\r\n"
).encode("ascii")


def _image_response() -> bytes:
    body = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01" + deterministic_bytes(
        _FIXTURE_STREAM_SEED, "jpeg-body", 128
    ) + b"\xff\xd9"
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Server: nginx/1.4.6\r\n"
        "Content-Type: image/jpeg\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


def _bp_burst(t0_us: int, full: bool) -> list[tuple[int, bytes]]:
    dev, ap = BP_MONITOR_MAC, AP_MAC
    records = []
    if full:
        records.append((t0_us + 100_000, arp_frame(dev, BP_MONITOR_IP, GATEWAY_IP)))
        records.append(
            (
                t0_us + 200_000,
                udp_frame(dev, ap, BP_MONITOR_IP, GATEWAY_IP, 42333, 53, dns_query_payload(0x3A21, MEASURE_HOST)),
            )
        )
        records.append(
            (
                t0_us + 250_000,
                udp_frame(
                    ap, dev, GATEWAY_IP, BP_MONITOR_IP, 53, 42333,
                    dns_response_payload(0x3A21, MEASURE_HOST, [MEASURE_ADDR]),
                ),
            )
        )
    records.append(
        (t0_us + 400_000, tcp_frame(dev, ap, BP_MONITOR_IP, MEASURE_ADDR, 43211, 80, _MEASURE_REQUEST))
    )
    records.append(
        (t0_us + 900_000, tcp_frame(ap, dev, MEASURE_ADDR, BP_MONITOR_IP, 80, 43211, _MEASURE_RESPONSE))
    )
    if full:
        # bare ACK, dropped at payload extraction
        records.append(
            (t0_us + 950_000, tcp_frame(dev, ap, BP_MONITOR_IP, MEASURE_ADDR, 43211, 80, b"", flags=0x10))
        )
    records.append(
        (t0_us + 2_500_000, tcp_frame(dev, ap, BP_MONITOR_IP, STATIC_ADDR, 43212, 80, _IMAGE_REQUEST))
    )
    records.append(
        (t0_us + 3_000_000, tcp_frame(ap, dev, STATIC_ADDR, BP_MONITOR_IP, 80, 43212, _image_response()))
    )
    return records


def _scale_burst(t0_us: int) -> list[tuple[int, bytes]]:
    dev, ap = SCALE_MAC, AP_MAC

    def out(offset_us: int, record: bytes) -> tuple[int, bytes]:
        return (t0_us + offset_us, tcp_frame(dev, ap, SCALE_IP, SCALE_CLOUD_ADDR, 40123, 443, record))

    def inc(offset_us: int, record: bytes) -> tuple[int, bytes]:
        return (t0_us + offset_us, tcp_frame(ap, dev, SCALE_CLOUD_ADDR, SCALE_IP, 443, 40123, record))

    stream = lambda tag, n: deterministic_bytes(_FIXTURE_STREAM_SEED, tag, n)
    return [
        out(100_000, tls_record(0x16, 1, stream("hello", 160))),
        inc(300_000, tls_record(0x16, 3, stream("server-hello", 400))),
        out(500_000, tls_record(0x14, 3, b"\x01")),
        out(600_000, tls_record(0x16, 3, stream("finished", 64))),
        out(800_000, tls_record(0x17, 3, stream("app-1", 256))),
        inc(1_000_000, tls_record(0x17, 3, stream("app-2", 512))),
        out(1_200_000, tls_record(0x17, 3, stream("app-3", 128))),
    ]


def _laptop_noise(t0_us: int) -> list[tuple[int, bytes]]:
    lap, ap = LAPTOP_MAC, AP_MAC
    response = (
        "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<html><body>news of the day</body></html>"
    ).encode("ascii")
    return [
        (t0_us, tcp_frame(lap, ap, LAPTOP_IP, WEB_ADDR, 51000, 80, _LAPTOP_REQUEST)),
        (t0_us + 300_000, tcp_frame(ap, lap, WEB_ADDR, LAPTOP_IP, 80, 51000, response)),
        (
            t0_us + 1_000_000,
            tcp_frame(
                lap, ap, LAPTOP_IP, WEB_TLS_ADDR, 51001, 443,
                tls_record(0x16, 1, deterministic_bytes(_FIXTURE_STREAM_SEED, "laptop-hello", 200)),
            ),
        ),
    ]


_FIXTURE_BASE_US = 1_481_800_000_000_000
_DAY_US = 86_400_000_000


# scenario -> (registry, records). bp-monitor-leaky: three daily measurement
# sessions, each leaking health terms, vendor and user identifiers, and a
# trailing image GET. scale-encrypted: a single TLS-only upload session on
# port 443. mixed-home: both devices interleaved with unregistered background
# traffic.
_FIXTURES = {
    "bp-monitor-leaky": (
        {BP_MONITOR_MAC: "bp_monitor"},
        lambda: (
            _bp_burst(_FIXTURE_BASE_US, full=True)
            + _bp_burst(_FIXTURE_BASE_US + _DAY_US, full=False)
            + _bp_burst(_FIXTURE_BASE_US + 2 * _DAY_US, full=False)
        ),
    ),
    "scale-encrypted": ({SCALE_MAC: "scale"}, lambda: _scale_burst(_FIXTURE_BASE_US)),
    "mixed-home": (
        {BP_MONITOR_MAC: "bp_monitor", SCALE_MAC: "scale"},
        lambda: (
            _bp_burst(_FIXTURE_BASE_US, full=True)
            + _laptop_noise(_FIXTURE_BASE_US + 5_000_000)
            + _scale_burst(_FIXTURE_BASE_US + 10_000_000)
        ),
    ),
}
SCENARIOS = tuple(_FIXTURES)


def _fixture(scenario: str):
    try:
        return _FIXTURES[scenario]
    except KeyError:
        raise ValueError(f"unknown fixture scenario: {scenario!r}") from None


def fixture_registry(scenario: str) -> dict[str, str]:
    return dict(_fixture(scenario)[0])


def build_fixture_capture(scenario: str) -> bytes:
    """Emit one of the named fixture scenarios as capture bytes."""
    records = _fixture(scenario)[1]()
    records.sort(key=lambda r: r[0])
    return write_pcap(records)


# --- randomized captures for property testing ---------------------------------

_LEAKY_TERMS = ("blood_pressure", "heart_pulse", "glucose", "insulin", "alice", "asthma")


def _random_http_payload(rng: random.Random, leaky: bool) -> bytes:
    text = _gen_http_request(rng, rng.randint(250, 550), accents=rng.random() < 0.2)
    if leaky:
        extra = rng.choice(_LEAKY_TERMS)
        text = text.replace(" HTTP/1.1", f"&b={extra}&current_user={rng.randrange(10**5)} HTTP/1.1", 1)
    return text.encode("utf-8")


def generate_random_capture(seed: int) -> tuple[bytes, dict[str, str]]:
    """A small well-formed capture plus a registry, reproducible from seed.

    Mixes cleartext HTTP (sometimes deliberately leaky), TLS records, DNS,
    bare ACKs, ARP, and binary UDP across registered and unregistered MACs.
    """
    rng = random.Random(seed)
    macs = ["02:%02x:%02x:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(5)) for _ in range(rng.randint(1, 3))]
    registry: dict[str, str] = {}
    for position, mac in enumerate(macs):
        if rng.random() < 0.8:
            registry[mac] = f"device_{position}"
    if not registry:
        registry[macs[0]] = "device_0"
    if rng.random() < 0.3:
        registry["02:ff:%02x:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(4))] = "silent_device"

    gateway = "b8:27:eb:00:00:01"
    stranger = "aa:bb:cc:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(3))
    ips = {mac: f"192.168.9.{10 + i}" for i, mac in enumerate(macs + [stranger])}

    records: list[tuple[int, bytes]] = []
    ts_us = 1_700_000_000_000_000
    for _ in range(rng.randint(6, 36)):
        ts_us += int(rng.choice((0.0, 0.2, 1.5, 8.0, 40.0, 75.0, 200.0)) * rng.uniform(0.5, 1.5) * 1e6)
        mac = stranger if rng.random() < 0.15 else rng.choice(macs)
        ip = ips[mac]
        remote = f"203.0.113.{rng.randrange(1, 255)}"
        kind = rng.choice(("http", "http", "image-get", "tls", "dns", "ack", "arp", "binary-udp"))
        if kind == "http":
            frame = tcp_frame(mac, gateway, ip, remote, rng.randrange(40000, 60000), 80,
                              _random_http_payload(rng, leaky=rng.random() < 0.5))
        elif kind == "image-get":
            text = f"GET /media/photo_{rng.randrange(100)}.jpg HTTP/1.1\r\nHost: cdn.vendor.example\r\n\r\n"
            frame = tcp_frame(mac, gateway, ip, remote, rng.randrange(40000, 60000), 80, text.encode())
        elif kind == "tls":
            frame = tcp_frame(mac, gateway, ip, remote, rng.randrange(40000, 60000), 443,
                              tls_record(0x17, 3, deterministic_bytes(seed, f"tls:{ts_us}", rng.randint(48, 512))))
        elif kind == "dns":
            host = f"host{rng.randrange(50)}.vendor.example"
            records.append((ts_us, udp_frame(mac, gateway, ip, "192.168.9.1", 42000, 53, dns_query_payload(rng.randrange(65536), host))))
            ts_us += 40_000
            frame = udp_frame(gateway, mac, "192.168.9.1", ip, 53, 42000,
                              dns_response_payload(rng.randrange(65536), host, [remote]))
        elif kind == "ack":
            frame = tcp_frame(mac, gateway, ip, remote, rng.randrange(40000, 60000), 80, b"", flags=0x10)
        elif kind == "arp":
            frame = arp_frame(mac, ip, "192.168.9.1")
        else:
            frame = udp_frame(mac, gateway, ip, remote, rng.randrange(40000, 60000), 9999,
                              deterministic_bytes(seed, f"udp:{ts_us}", rng.randint(16, 300)))
        records.append((ts_us, frame))
    return write_pcap(records), registry
