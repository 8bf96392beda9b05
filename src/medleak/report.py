"""End-to-end analysis pipeline and per-device privacy reports."""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .capture import DeviceStream, _Grouping, parse_capture, split_by_device
from .classifiers import (
    _CONSENSUS,
    CLEARTEXT,
    ENCRYPTED,
    INDETERMINATE,
    ClassificationResult,
    _VerdictColumns,
    _verdict_columns,
)
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
from .payload import AppPayload, parse_http, payload_rows

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


class _CapturePass:
    """What ``analyze_stream`` reads of the streams of one grouping, computed
    once for all of them: each group's TLS tally and verdict tally, and each
    cleartext row's fields and verdict, from one classification of every
    grouped non-TLS payload. ``analyze`` builds this object per capture and
    drops it with the capture; ``analyze_stream`` called without one builds
    its own over its stream's rows alone."""

    def __init__(self, grouping: _Grouping, config: RunConfig) -> None:
        self.grouping = grouping
        table, bounds = grouping.table, grouping.bounds
        groups = len(bounds) - 1
        grouped = slice(0, bounds[-1])
        owner = np.repeat(np.arange(groups), np.diff(bounds))
        tls = table.tls[grouped]
        self.tls_counts = np.bincount(owner[tls], minlength=groups).tolist()
        # TLS rows are only counted: the other payload rows are classified
        plain = (payload_rows(table)[grouped] & ~tls).nonzero()[0]
        verdicts = _verdict_columns((table.payloads[row] for row in plain.tolist()), config)
        codes = verdicts.consensus
        tallies = np.bincount(owner[plain] * len(_CONSENSUS) + codes, minlength=groups * len(_CONSENSUS))
        self.tallies = tallies.reshape(groups, len(_CONSENSUS)).tolist()
        # the cleartext rows' verdicts, and their fields as the rows of a matrix
        cleartext = (codes == _CONSENSUS.index(CLEARTEXT)).nonzero()[0]
        self.verdicts = _VerdictColumns(*(column[..., cleartext] for column in verdicts))
        rows = plain[cleartext]
        self.fields = np.array((rows, table.index[rows], grouping.outbound[rows], table.src_port[rows],
                                table.dst_port[rows], table.ts_us[rows]), np.int64)
        self.bounds = np.searchsorted(rows, bounds).tolist()

    def cleartext_payloads(self, group: int) -> Iterator[tuple[AppPayload, float, ClassificationResult]]:
        """Each cleartext payload of the group, in row order, with its
        capture time in seconds and its verdict."""
        first, after = self.bounds[group], self.bounds[group + 1]
        if first == after:
            return
        payloads = self.grouping.table.payloads
        fields = self.fields[:, first:after].tolist()
        verdicts = self.verdicts.results(fields[1], slice(first, after))
        for row, index, outbound, src_port, dst_port, ts_us, verdict in zip(*fields, verdicts):
            payload = AppPayload(index, "outbound" if outbound else "inbound", (src_port, dst_port), payloads[row])
            yield payload, ts_us / 1_000_000, verdict


def analyze_stream(
    capture_name: str,
    stream: DeviceStream,
    dns_answers: dict[str, str],
    config: RunConfig,
    dictionaries,
    run: _MiningRun | None = None,
    capture: _CapturePass | None = None,
) -> DeviceReport:
    run = run or _MiningRun(dictionaries, config.vendor_patterns)
    if capture is None:
        capture, group = _CapturePass(_Grouping.alone(stream.table, stream.mac), config), 0
    else:
        group = stream.group
    findings: list[LeakFinding] = []
    timed_messages: list[TimedMessage] = []

    for payload, timestamp, verdict in capture.cleartext_payloads(group):
        payload_findings = scan_cleartext_payload(payload, verdict, dictionaries, run)
        findings.extend(payload_findings)
        message = parse_http(payload.data)
        if message is None:
            continue
        findings.extend(
            http_leak_scan(
                message,
                config.vendor_patterns,
                # URL and cookie tokens are payload tokens: no payload hit, no URL or cookie hit
                dictionaries=dictionaries if payload_findings else (),
                identifier_keys=config.identifier_keys,
                packet_index=payload.packet_index,
                payload=payload.data,
                run=run,
            )
        )
        timed_messages.append(
            TimedMessage(
                timestamp=timestamp,
                packet_index=payload.packet_index,
                message=message,
                outbound=payload.direction == "outbound",
                vendor_endpoint=run.vendor(message.host),
                payload=payload.data,
            )
        )

    findings.extend(image_get_signature(timed_messages, config.image_window))
    findings.sort(key=_finding_order)

    hostnames = resolve_hostnames(stream, dns_answers)
    activity = activity_periods(stream, config.gap_threshold, hostnames)
    tls_count, tally = capture.tls_counts[group], dict(zip(_CONSENSUS, capture.tallies[group]))
    return DeviceReport(
        capture=capture_name,
        device_id=stream.device_id,
        mac=stream.mac,
        packet_count=len(stream.table),
        payload_count=tls_count + sum(tally.values()),
        cleartext_count=tally[CLEARTEXT],
        tls_count=tls_count,
        encrypted_count=tally[ENCRYPTED],
        indeterminate_count=tally[INDETERMINATE],
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
    ``_CapturePass``; each stream's table is built when the stream is
    analysed and dropped with the stream right after.
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
        if len(unattributed):
            warnings.append(f"{path.name}: {len(unattributed)} packets unattributed")
        dns_answers = extract_dns_answers(parsed.table)
        capture = _CapturePass(streams[0].grouping, config) if streams else None
        for position in range(len(streams)):
            stream, streams[position] = streams[position], None  # the list keeps no analysed stream
            reports.append(analyze_stream(path.name, stream, dns_answers, config, dictionaries, run, capture))

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


def _attrs(record, keys) -> dict:
    return {key: getattr(record, key) for key in keys}


def _period_dict(period: ActivityPeriod) -> dict:
    doc = _attrs(period, PERIOD_KEYS)
    doc["endpoints"] = [list(e) for e in sorted(period.endpoints, key=lambda e: (e[0], e[1] or ""))]
    return doc


def _device_dict(report: DeviceReport) -> dict:
    doc = _attrs(report, DEVICE_KEYS)
    doc["findings"] = [_attrs(f, FINDING_KEYS) for f in sorted(report.findings, key=_finding_order)]
    doc["activity"] = [_period_dict(p) for p in report.activity]
    doc["endpoints"] = [_attrs(e, ENDPOINT_KEYS) for e in sorted(report.endpoints, key=lambda e: e.address)]
    doc["periodicity"] = _attrs(report.periodicity, PERIODICITY_KEYS) if report.periodicity else None
    return doc


def render(reports: list[DeviceReport], format: str = "json") -> bytes:
    """Serialize reports; JSON is stable-ordered (devices by capture+MAC,
    findings by packet index) and schema-versioned."""
    ordered = sorted(reports, key=lambda r: (r.capture, r.mac))
    if format == "json":
        # Each device is dumped on its own and every piece is joined once, so
        # the report is held at most as its pieces plus their join, never as
        # one dict tree or str.
        pieces = [b'{"schema":%d,"devices":[' % SCHEMA_VERSION]
        for position, r in enumerate(ordered):
            if position:
                pieces.append(b",")
            text = json.dumps(_device_dict(r), separators=(",", ":"), ensure_ascii=False)
            if not text.isascii() or "\x7f" in text:  # isascii is O(1): most dumps skip the search
                text = _DEL_AND_C1.sub(_json_escape, text)
            pieces.append(text.encode("utf-8"))
        pieces.append(b"]}\n")
        return b"".join(pieces)
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

