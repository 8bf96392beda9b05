"""End-to-end analysis pipeline and per-device privacy reports."""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .capture import DeviceStream, parse_capture, split_by_device
from .config import RunConfig, load_dictionaries
from .leaks import (
    LeakFinding,
    SEVERITY_HIGH,
    TimedMessage,
    _MiningRun,
    http_leak_scan,
    image_get_signature,
    matches_vendor,  # noqa: F401 (unused: bench/tests/test_perfbench.py pins this binding for the tracer)
    scan_cleartext_payload,
)
from .metadata import (
    ActivityPeriod,
    EndpointProfile,
    PeriodicityHint,
    activity_periods,
    endpoint_profiles,
    extract_dns_answers,
    periodicity_hint,
    resolve_hostnames,
)
from .payload import parse_http

SCHEMA_VERSION = 1

STATUS_OK = "OK"
STATUS_WARN = "WARN"
STATUS_LEAK = "LEAK"

EXIT_OK = 0
EXIT_WARN = 1
EXIT_LEAK = 2
EXIT_ERROR = 3

@dataclass
class DeviceReport:
    capture: str
    device_id: str
    mac: str
    packet_count: int
    payload_count: int
    cleartext_count: int
    tls_count: int
    encrypted_count: int
    indeterminate_count: int
    findings: list[LeakFinding]
    activity: list[ActivityPeriod]
    endpoints: list[EndpointProfile]
    periodicity: PeriodicityHint | None
    status: str


@dataclass
class AnalysisResult:
    reports: list[DeviceReport]
    warnings: list[str]

    @property
    def exit_code(self) -> int:
        if any(r.status == STATUS_LEAK for r in self.reports):
            return EXIT_LEAK
        if any(r.status == STATUS_WARN for r in self.reports):
            return EXIT_WARN
        return EXIT_OK


_finding_order = attrgetter("packet_index", "category", "matched_text")


def _status(findings: list[LeakFinding]) -> str:
    if any(f.severity == SEVERITY_HIGH for f in findings):
        return STATUS_LEAK
    if findings:
        return STATUS_WARN
    return STATUS_OK


def analyze_stream(
    capture_name: str,
    stream: DeviceStream,
    dns_answers: dict[str, str],
    config: RunConfig,
    dictionaries,
    run: _MiningRun | None = None,
) -> DeviceReport:
    """One device's report, read from its grouping's verdicts under
    ``config``: all the grouping's streams are classified at once."""
    run = run or _MiningRun(dictionaries, config.vendor_patterns)
    verdicts = stream.grouping.verdicts(config)
    first, after = verdicts.bounds[stream.group : stream.group + 2].tolist()
    payloads = stream.grouping.table.payloads
    findings: list[LeakFinding] = []
    timed_messages: list[TimedMessage] = []

    # each cleartext payload of the stream, in row order
    for row, packet_index, outbound, ts_us in zip(*verdicts.fields[:, first:after].tolist()):
        data = payloads[row]
        payload_findings = scan_cleartext_payload(data, packet_index, dictionaries, run)
        findings.extend(payload_findings)
        message = parse_http(data)
        if message is None:
            continue
        findings.extend(
            http_leak_scan(
                message,
                config.vendor_patterns,
                # URL and cookie tokens are payload tokens: no payload hit, no URL or cookie hit
                dictionaries=dictionaries if payload_findings else (),
                identifier_keys=config.identifier_keys,
                packet_index=packet_index,
                payload=data,
                run=run,
            )
        )
        timed_messages.append(
            TimedMessage(
                timestamp=ts_us / 1_000_000,
                packet_index=packet_index,
                message=message,
                outbound=outbound == 1,
                vendor_endpoint=run.vendor(message.host),
                payload=data,
            )
        )

    findings.extend(image_get_signature(timed_messages, config.image_window))
    findings.sort(key=_finding_order)

    hostnames = resolve_hostnames(stream, dns_answers)
    activity = activity_periods(stream, config.gap_threshold, hostnames)
    counts = verdicts.counts[stream.group].tolist()
    tls_count, cleartext_count, encrypted_count, indeterminate_count = counts
    return DeviceReport(
        capture=capture_name,
        device_id=stream.device_id,
        mac=stream.mac,
        packet_count=stream.packet_count,
        payload_count=sum(counts),
        cleartext_count=cleartext_count,
        tls_count=tls_count,
        encrypted_count=encrypted_count,
        indeterminate_count=indeterminate_count,
        findings=findings,
        activity=activity,
        endpoints=endpoint_profiles(stream, hostnames, config.vendor_patterns, run),
        periodicity=periodicity_hint(activity),
        status=_status(findings),
    )


def analyze(captures, config: RunConfig) -> AnalysisResult:
    """Run the full pipeline over capture files and build device reports.

    Reports are deterministic for identical inputs. ``config`` was checked
    when it was built and is only read. Each capture's streams share one
    grouping, whose columns (the payload verdicts among them) every stage
    reads its stream's slices of, so no stream's table is built.
    """
    dictionaries = load_dictionaries(config.dict_dir)
    run = _MiningRun(dictionaries, config.vendor_patterns)
    reports: list[DeviceReport] = []
    warnings: list[str] = []
    for capture_path in captures:
        path = Path(capture_path)
        with path.open("rb") as fh:
            parsed = parse_capture(fh)
        warnings.extend(f"{path.name}: {w}" for w in parsed.warnings)
        streams, unattributed = split_by_device(parsed.table, config.registry)
        if unattributed := len(unattributed):  # the count, not the rows, is kept past the split
            warnings.append(f"{path.name}: {unattributed} packets unattributed")
        dns_answers = extract_dns_answers(parsed.table)
        for position in range(len(streams)):
            stream, streams[position] = streams[position], None  # the list keeps no analysed stream
            reports.append(analyze_stream(path.name, stream, dns_answers, config, dictionaries, run))

    return AnalysisResult(reports=reports, warnings=warnings)


# --- rendering -----------------------------------------------------------------

# Scalar JSON keys in output order, read by render; a device's are followed by
# findings, activity, endpoints and periodicity, a period's by its endpoints.
# EndpointProfile and PeriodicityHint declare their fields in key order.
DEVICE_KEYS = (
    "capture", "device_id", "mac", "status", "packet_count", "payload_count",
    "cleartext_count", "tls_count", "encrypted_count", "indeterminate_count",
)
FINDING_KEYS = ("packet_index", "category", "severity", "matched_text", "context")
PERIOD_KEYS = ("start", "end", "packet_count", "bytes_total")
ENDPOINT_KEYS = tuple(f.name for f in fields(EndpointProfile))
PERIODICITY_KEYS = tuple(f.name for f in fields(PeriodicityHint))


def _reader(keys):
    """The function of a record to the dict of its ``keys``, in order."""
    values = attrgetter(*keys)
    return lambda record: dict(zip(keys, values(record)))


_device_doc, _finding_doc, _period_doc, _endpoint_doc, _periodicity_doc = map(
    _reader, (DEVICE_KEYS, FINDING_KEYS, PERIOD_KEYS, ENDPOINT_KEYS, PERIODICITY_KEYS))


def _period_dict(period: ActivityPeriod) -> dict:
    doc = _period_doc(period)
    doc["endpoints"] = [list(e) for e in sorted(period.endpoints, key=lambda e: (e[0], e[1] or ""))]
    return doc


def _device_dict(report: DeviceReport) -> dict:
    doc = _device_doc(report)
    doc["findings"] = [_finding_doc(f) for f in sorted(report.findings, key=_finding_order)]
    doc["activity"] = [_period_dict(p) for p in report.activity]
    doc["endpoints"] = [_endpoint_doc(e) for e in sorted(report.endpoints, key=lambda e: e.address)]
    doc["periodicity"] = _periodicity_doc(report.periodicity) if report.periodicity else None
    return doc


def render(reports: list[DeviceReport], format: str = "json") -> bytes:
    """Serialize reports; JSON is stable-ordered (devices by capture+MAC,
    findings by packet index) and schema-versioned."""
    ordered = sorted(reports, key=lambda r: (r.capture, r.mac))
    if format == "json":
        # Each device is dumped on its own into one buffer, whose bytes are
        # returned without a copy, so the report is held about once, never as
        # one dict tree, one str, or pieces and their join.
        out = io.BytesIO()
        out.write(b'{"schema":%d,"devices":[' % SCHEMA_VERSION)
        for position, r in enumerate(ordered):
            if position:
                out.write(b",")
            text = json.dumps(_device_dict(r), separators=(",", ":"), ensure_ascii=False)
            if not text.isascii() or "\x7f" in text:  # isascii is O(1): most dumps skip the search
                text = _DEL_AND_C1.sub(_json_escape, text)
            out.write(text.encode("utf-8"))
        out.write(b"]}\n")
        return out.getvalue()
    if format == "text":
        return _render_text(ordered).encode("utf-8")
    raise ValueError(f"unknown render format: {format!r}")


# C0 controls, DEL and C1 controls as \xNN, so that text from the network or a
# file name cannot move the cursor or retitle the terminal that shows the table.
_CONTROL_ESCAPES = {code: f"\\x{code:02x}" for code in (*range(0x20), *range(0x7F, 0xA0))}
# JSON escapes C0 controls itself but keeps DEL and C1 raw with
# ensure_ascii=False; render writes those as \u00NN.
_DEL_AND_C1 = re.compile("[\x7f-\x9f]")


def _json_escape(match: re.Match) -> str:
    return f"\\u{ord(match[0]):04x}"


def _render_text(reports: list[DeviceReport]) -> str:
    header = f"{'CAPTURE':<20} {'DEVICE':<14} {'MAC':<18} {'STATUS':<6} {'PKTS':>5} {'CLEAR':>5} {'TLS':>4} {'FINDINGS':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        capture, device_id = r.capture.translate(_CONTROL_ESCAPES), r.device_id.translate(_CONTROL_ESCAPES)
        lines.append(
            f"{capture:<20} {device_id:<14} {r.mac:<18} {r.status:<6} "
            f"{r.packet_count:>5} {r.cleartext_count:>5} {r.tls_count:>4} {len(r.findings):>8}"
        )
        for f in r.findings:
            matched = f.matched_text.translate(_CONTROL_ESCAPES)
            lines.append(f"    [{f.severity}] {f.category} pkt {f.packet_index}: {matched}")
    if not reports:
        lines.append("(no devices)")
    return "\n".join(lines) + "\n"

