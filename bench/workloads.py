"""Benchmark inputs and the operation each workload times.

Inputs are generated from a seed with ``medleak.corpus`` (never timed) and
written to disk before any timing starts. Each workload then times one
operation per pass:

- ``home-mixed`` and ``tls-bulk``: ``analyze([capture])`` plus
  ``render(reports, "json")``, from the capture file to the rendered report.
- ``corpus-classify``: ``compare_methods(corpus)``.

The checks at the bottom verify outputs without trusting the code under
test: report invariants for any seed, digests for the committed seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import struct
from pathlib import Path

from medleak import classifiers, corpus, leaks, report
from medleak.capture import parse_capture, split_by_device
from medleak.config import RunConfig

WORKLOADS = ("home-mixed", "tls-bulk", "corpus-classify")

# Sizes are fixed per workload, so every seed does the same amount of work.
HOME_MIXED_FRAMES = 6_000
TLS_BULK_FRAMES = 8_000
CORPUS_PAYLOADS = 5_000  # per label
CORPUS_LENGTHS = (64, 2048)

# home-mixed sub-captures use consecutive seeds from seed * SEED_STRIDE.
SEED_STRIDE = 100_000
_STITCH_GAP_US = 120_000_000  # > the 60 s activity gap between sub-captures
_PCAP_HEADER = struct.Struct("<IHHiIII")
_PCAP_RECORD = struct.Struct("<IIII")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pcap_records(data: bytes) -> list[tuple[int, bytes]]:
    """(timestamp_us, frame) records of a little-endian microsecond pcap as
    written by ``corpus.write_pcap``."""
    records = []
    offset = _PCAP_HEADER.size
    while offset < len(data):
        sec, usec, incl_len, _ = _PCAP_RECORD.unpack_from(data, offset)
        offset += _PCAP_RECORD.size
        records.append((sec * 1_000_000 + usec, data[offset : offset + incl_len]))
        offset += incl_len
    return records


def home_mixed(seed: int, frames: int = HOME_MIXED_FRAMES) -> tuple[bytes, dict[str, str], dict]:
    """Stitch ``generate_random_capture`` for consecutive seeds into one
    time-shifted capture of exactly ``frames`` frames, with the merged
    registry (device ids prefixed by their sub-capture seed)."""
    records: list[tuple[int, bytes]] = []
    registry: dict[str, str] = {}
    sub_seed = seed * SEED_STRIDE
    offset_us = 0
    while len(records) < frames:
        data, sub_registry = corpus.generate_random_capture(sub_seed)
        sub = pcap_records(data)
        first = sub[0][0]
        records.extend((ts - first + offset_us, frame) for ts, frame in sub)
        offset_us = records[-1][0] + _STITCH_GAP_US
        for mac, device_id in sub_registry.items():
            registry.setdefault(mac, f"s{sub_seed}_{device_id}")
        sub_seed += 1
    del records[frames:]
    base = 1_700_000_000_000_000
    capture = corpus.write_pcap([(base + ts, frame) for ts, frame in records])
    return capture, registry, {"sub_captures": sub_seed - seed * SEED_STRIDE}


def tls_bulk(seed: int, frames: int = TLS_BULK_FRAMES) -> tuple[bytes, dict[str, str], dict]:
    """A few registered devices talking TLS to cloud endpoints for days.

    Bursts are near-MTU TLS application data on port 443 with bare ACKs,
    single-record keepalives and a little binary UDP; bursts of all devices
    are at least 61 s apart, so each one is its own activity period. Half
    of each device's eight remotes get a DNS answer before first contact,
    the rest are hard-coded addresses.
    """
    rng = random.Random(seed)
    gateway_mac, gateway_ip = "b8:27:eb:00:00:01", "192.168.7.1"
    devices = []
    registry: dict[str, str] = {}
    for position in range(4):
        mac = "02:%02x:%02x:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(5))
        registry[mac] = f"tls_device_{position}"
        remotes = [
            (f"198.{18 + position}.{rng.randrange(256)}.{r + 1}", f"api{r}.cloud{position}.example" if r % 2 else None)
            for r in range(8)
        ]
        devices.append((mac, f"192.168.7.{10 + position}", remotes))

    records: list[tuple[int, bytes]] = []
    resolved: set[str] = set()
    contacted: set[str] = set()
    ts = 1_700_000_000_000_000

    def app_data(tag: str, low: int, high: int) -> bytes:
        return corpus.tls_record(0x17, 3, corpus.deterministic_bytes(seed, tag, rng.randint(low, high)))

    while len(records) < frames:
        ts += int((61 + rng.expovariate(1 / 600)) * 1e6)
        mac, ip, remotes = rng.choice(devices)
        address, hostname = rng.choice(remotes)
        port = rng.randrange(40000, 60000)
        contacted.add(address)

        def out(payload: bytes, flags: int = 0x18) -> None:
            records.append((ts, corpus.tcp_frame(mac, gateway_mac, ip, address, port, 443, payload, flags=flags)))

        def inc(payload: bytes, flags: int = 0x18) -> None:
            records.append((ts, corpus.tcp_frame(gateway_mac, mac, address, ip, 443, port, payload, flags=flags)))

        if hostname and address not in resolved:
            txid = rng.randrange(65536)
            records.append((ts, corpus.udp_frame(mac, gateway_mac, ip, gateway_ip, 53000, 53,
                                                 corpus.dns_query_payload(txid, hostname))))
            ts += 30_000
            records.append((ts, corpus.udp_frame(gateway_mac, mac, gateway_ip, ip, 53, 53000,
                                                 corpus.dns_response_payload(txid, hostname, [address]))))
            resolved.add(address)
        kind = rng.random()
        if kind < 0.6:  # keepalive
            out(app_data(f"ka:{ts}", 24, 80))
            ts += 40_000
            inc(b"", flags=0x10)
        elif kind < 0.95:  # bulk transfer
            out(corpus.tls_record(0x16, 1, corpus.deterministic_bytes(seed, f"hello:{ts}", rng.randint(180, 400))))
            upload = rng.random() < 0.5
            for k in range(rng.randint(4, 16)):
                ts += rng.randint(2_000, 400_000)
                (out if upload else inc)(app_data(f"bulk:{ts}:{k}", 1200, 1443))
                if rng.random() < 0.5:
                    (inc if upload else out)(b"", flags=0x10)
        else:  # binary UDP telemetry
            for k in range(rng.randint(1, 3)):
                ts += 5_000
                records.append((ts, corpus.udp_frame(mac, gateway_mac, ip, address, port, 9999,
                                                     corpus.deterministic_bytes(seed, f"udp:{ts}:{k}",
                                                                                rng.randint(100, 400)))))
    del records[frames:]
    capture = corpus.write_pcap(records)
    named = sum(1 for a in contacted if a in resolved)
    return capture, registry, {"remotes": len(contacted), "dns_answer_share": named / len(contacted)}


def corpus_spec(seed: int, per_label: int = CORPUS_PAYLOADS) -> corpus.CorpusSpec:
    return corpus.CorpusSpec(per_label, per_label, CORPUS_LENGTHS, seed)


def generate(workload: str, seed: int, out: Path, size: int | None = None) -> dict:
    """Write the workload's input under ``out`` (a path stem) and return its
    description: input files, their sha256, and what the input contains."""
    if workload == "corpus-classify":
        items = corpus.generate_corpus(corpus_spec(seed, size or CORPUS_PAYLOADS))
        path = corpus.save_corpus(items, out.with_suffix(".jsonl"))
        return {
            "workload": workload,
            "seed": seed,
            "input": str(path),
            "input_sha256": sha256(path.read_bytes()),
            "payloads": len(items),
            "payload_bytes": sum(len(i.data) for i in items),
            "labels": {label: sum(i.label == label for i in items) for label in (classifiers.CLEARTEXT,
                                                                                  classifiers.ENCRYPTED)},
        }
    build = {"home-mixed": home_mixed, "tls-bulk": tls_bulk}[workload]
    capture, registry, extra = build(seed) if size is None else build(seed, size)
    path = out.with_suffix(".pcap")
    path.write_bytes(capture)
    registry_path = out.with_suffix(".registry.json")
    registry_path.write_text(json.dumps(registry, sort_keys=True))
    return {
        "workload": workload,
        "seed": seed,
        "input": str(path),
        "registry": str(registry_path),
        "input_sha256": sha256(capture),
        "registry_sha256": sha256(registry_path.read_bytes()),
        "frames": len(pcap_records(capture)),
        "bytes": len(capture),
        "devices": len(registry),
        **extra,
    }


# --- one timed operation per workload -----------------------------------------

class Workload:
    """Loaded input plus the operation a pass times.

    ``run()`` returns what the pass produced; ``rendered()`` gives its
    rendered bytes, rendering a method comparison outside the timed region
    because ``compare_methods`` itself does not render.
    """

    def __init__(self, meta: dict):
        self.meta = meta
        self.name = meta["workload"]
        if self.name == "corpus-classify":
            self.corpus = corpus.load_corpus(meta["input"])
            self.classifier_config = classifiers.ClassifierConfig()
        else:
            registry = json.loads(Path(meta["registry"]).read_text())
            self.config = RunConfig(registry=registry)

    def run(self):
        # attribute lookups at call time, so an installed tracer sees the call
        if self.name == "corpus-classify":
            method_report = classifiers.compare_methods(self.corpus, self.classifier_config)
            return method_report, None
        result = report.analyze([self.meta["input"]], self.config)
        return result, report.render(result.reports, "json")

    def rendered(self, output) -> bytes:
        produced, rendered = output
        return rendered if rendered is not None else render_method_report(produced)


def render_method_report(method_report: classifiers.MethodReport) -> bytes:
    doc = {
        "total": method_report.total,
        "per_method": {m: dataclasses.asdict(s) for m, s in method_report.per_method.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def fixture_digests(directory: Path) -> dict[str, str]:
    """sha256 of the rendered JSON report of each golden fixture."""
    digests = {}
    for scenario in corpus.SCENARIOS:
        path = directory / f"{scenario}.pcap"
        path.write_bytes(corpus.build_fixture_capture(scenario))
        result = report.analyze([path], RunConfig(registry=corpus.fixture_registry(scenario)))
        digests[scenario] = sha256(report.render(result.reports, "json"))
        path.unlink()
    return digests


# --- output checks -------------------------------------------------------------

def check_report(meta: dict, rendered: bytes) -> tuple[list[str], dict]:
    """Invariants of a rendered analyze report, for any seed.

    Returns the violations found and what the report contains (decoded
    packets, payloads by verdict, findings).
    """
    problems: list[str] = []
    doc = json.loads(rendered)
    capture = Path(meta["input"]).read_bytes()
    registry = json.loads(Path(meta["registry"]).read_text())
    parsed = parse_capture(capture)
    _, unattributed = split_by_device(parsed.packets, registry)
    devices = doc["devices"]
    decoded = len(parsed.packets)
    if decoded != meta["frames"]:
        problems.append(f"decoded {decoded} of {meta['frames']} well-formed frames")
    in_streams = sum(d["packet_count"] for d in devices)
    if in_streams + len(unattributed) != decoded:
        problems.append(f"stream packets {in_streams} + unattributed {len(unattributed)} != decoded {decoded}")
    mix = {"tls": 0, "cleartext": 0, "encrypted": 0, "indeterminate": 0}
    payloads = findings = 0
    payload_by_index = {p.index: p.payload for p in parsed.packets}
    for device in devices:
        counts = {verdict: device[f"{verdict}_count"] for verdict in mix}
        if device["payload_count"] != sum(counts.values()):
            problems.append(f"{device['device_id']}: payload_count {device['payload_count']} != {counts}")
        payloads += device["payload_count"]
        for verdict, count in counts.items():
            mix[verdict] += count
        for f in device["findings"]:
            findings += 1
            finding = leaks.LeakFinding(f["packet_index"], f["category"], f["matched_text"], f["context"],
                                        f["severity"])
            data = payload_by_index.get(f["packet_index"])
            if data is None or not leaks.relocate(finding, data):
                problems.append(f"{device['device_id']}: finding {f['matched_text']!r} does not re-locate "
                                f"in packet {f['packet_index']}")
    summary = {"decoded_packets": decoded, "unattributed": len(unattributed), "payloads": payloads,
               "payload_mix": mix, "findings": findings}
    return problems, summary


def check_method_report(meta: dict, rendered: bytes) -> tuple[list[str], dict]:
    """Invariants of a rendered method comparison, for any seed."""
    problems: list[str] = []
    doc = json.loads(rendered)
    total = doc["total"]
    cleartext = meta["labels"][classifiers.CLEARTEXT]
    if total != meta["payloads"]:
        problems.append(f"total {total} != corpus size {meta['payloads']}")
    for method, stats in doc["per_method"].items():
        if stats["true_positives"] + stats["false_positives"] != stats["flagged"]:
            problems.append(f"{method}: TP + FP != flagged")
        if stats["true_positives"] + stats["false_negatives"] != cleartext:
            problems.append(f"{method}: TP + FN != cleartext payloads {cleartext}")
        if stats["total"] != total:
            problems.append(f"{method}: total {stats['total']} != {total}")
    summary = {"decoded_packets": total, "payloads": total, "payload_mix": meta["labels"]}
    return problems, summary


def check(meta: dict, rendered: bytes) -> tuple[list[str], dict]:
    checker = check_method_report if meta["workload"] == "corpus-classify" else check_report
    return checker(meta, rendered)
