"""End-to-end analysis pipeline and per-device privacy reports."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .capture import DeviceStream, parse_capture, split_by_device
from .classifiers import ENCRYPTED, INDETERMINATE, classify
from .config import RunConfig, load_dictionaries
from .leaks import (
    LeakFinding,
    SEVERITY_HIGH,
    TimedMessage,
    http_leak_scan,
    image_get_signature,
    matches_vendor,
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
from .payload import detect_tls, extract_payloads, looks_like_http_continuation, parse_http

log = logging.getLogger(__name__)

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
) -> DeviceReport:
    classifier_config = config.classifier_config()
    packets_by_index = {p.index: p for p in stream.packets}

    payloads = extract_payloads(stream)
    findings: list[LeakFinding] = []
    timed_messages: list[TimedMessage] = []
    tls_count = cleartext_count = encrypted_count = indeterminate_count = 0
    continuation_count = 0

    for payload in payloads:
        tls = detect_tls(payload)
        if tls.is_tls:
            tls_count += 1
            continue
        verdict = classify(payload, classifier_config)
        if verdict.consensus == ENCRYPTED:
            encrypted_count += 1
            continue
        if verdict.consensus == INDETERMINATE:
            indeterminate_count += 1
            continue
        cleartext_count += 1
        findings.extend(scan_cleartext_payload(payload, verdict, dictionaries))
        message = parse_http(payload)
        if message is None:
            if looks_like_http_continuation(payload.data):
                continuation_count += 1
            continue
        findings.extend(
            http_leak_scan(
                message,
                config.vendor_patterns,
                dictionaries=dictionaries,
                identifier_keys=config.identifier_keys,
                packet_index=payload.packet_index,
                payload=payload.data,
            )
        )
        timed_messages.append(
            TimedMessage(
                timestamp=packets_by_index[payload.packet_index].timestamp,
                packet_index=payload.packet_index,
                message=message,
                outbound=payload.direction == "outbound",
                vendor_endpoint=matches_vendor(message.host, config.vendor_patterns),
                payload=payload.data,
            )
        )

    findings.extend(image_get_signature(timed_messages, config.image_window))
    findings.sort(key=lambda f: (f.packet_index, f.category, f.matched_text))

    if continuation_count:
        log.info(
            "%s/%s: %d payloads look like HTTP continuations (no reassembly in this version)",
            capture_name, stream.device_id, continuation_count,
        )

    hostnames = resolve_hostnames(stream, dns_answers)
    activity = activity_periods(stream, config.gap_threshold, hostnames)
    return DeviceReport(
        capture=capture_name,
        device_id=stream.device_id,
        mac=stream.mac,
        packet_count=len(stream.packets),
        payload_count=len(payloads),
        cleartext_count=cleartext_count,
        tls_count=tls_count,
        encrypted_count=encrypted_count,
        indeterminate_count=indeterminate_count,
        findings=findings,
        activity=activity,
        endpoints=endpoint_profiles(stream, dns_answers, config.vendor_patterns),
        periodicity=periodicity_hint(activity),
        status=_status(findings),
    )


def analyze(captures, config: RunConfig) -> AnalysisResult:
    """Run the full pipeline over capture files and build device reports.

    Reports are deterministic for identical inputs.
    """
    config.validate()
    dictionaries = load_dictionaries(config.dict_dir)
    reports: list[DeviceReport] = []
    warnings: list[str] = []
    for capture_path in captures:
        path = Path(capture_path)
        parsed = parse_capture(path.read_bytes())
        warnings.extend(f"{path.name}: {w}" for w in parsed.warnings)
        streams, unattributed = split_by_device(parsed.packets, config.registry)
        if unattributed:
            warnings.append(f"{path.name}: {len(unattributed)} packets unattributed")
        dns_answers = extract_dns_answers(parsed.packets)
        for stream in streams:
            reports.append(analyze_stream(path.name, stream, dns_answers, config, dictionaries))

    return AnalysisResult(reports=reports, warnings=warnings)


# --- rendering -----------------------------------------------------------------

def _finding_dict(finding: LeakFinding) -> dict:
    return {
        "packet_index": finding.packet_index,
        "category": finding.category,
        "severity": finding.severity,
        "matched_text": finding.matched_text,
        "context": finding.context,
    }


def _period_dict(period: ActivityPeriod) -> dict:
    return {
        "start": period.start,
        "end": period.end,
        "packet_count": period.packet_count,
        "bytes_total": period.bytes_total,
        "endpoints": [
            [address, hostname]
            for address, hostname in sorted(period.endpoints, key=lambda e: (e[0], e[1] or ""))
        ],
    }


def _endpoint_dict(profile: EndpointProfile) -> dict:
    return {
        "address": profile.address,
        "hostname": profile.hostname,
        "packet_count": profile.packet_count,
        "vendor_flag": profile.vendor_flag,
    }


def _device_dict(report: DeviceReport) -> dict:
    return {
        "capture": report.capture,
        "device_id": report.device_id,
        "mac": report.mac,
        "status": report.status,
        "packet_count": report.packet_count,
        "payload_count": report.payload_count,
        "cleartext_count": report.cleartext_count,
        "tls_count": report.tls_count,
        "encrypted_count": report.encrypted_count,
        "indeterminate_count": report.indeterminate_count,
        "findings": [
            _finding_dict(f)
            for f in sorted(report.findings, key=lambda f: (f.packet_index, f.category, f.matched_text))
        ],
        "activity": [_period_dict(p) for p in report.activity],
        "endpoints": [_endpoint_dict(e) for e in sorted(report.endpoints, key=lambda e: e.address)],
        "periodicity": (
            {"median_interval": report.periodicity.median_interval, "dispersion": report.periodicity.dispersion}
            if report.periodicity
            else None
        ),
    }


def render(reports: list[DeviceReport], format: str = "json") -> bytes:
    """Serialize reports; JSON is stable-ordered (devices by capture+MAC,
    findings by packet index) and schema-versioned."""
    ordered = sorted(reports, key=lambda r: (r.capture, r.mac))
    if format == "json":
        doc = {"schema": SCHEMA_VERSION, "devices": [_device_dict(r) for r in ordered]}
        return (json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n").encode("utf-8")
    if format == "text":
        return _render_text(ordered).encode("utf-8")
    raise ValueError(f"unknown render format: {format!r}")


def _render_text(reports: list[DeviceReport]) -> str:
    lines = []
    header = f"{'CAPTURE':<20} {'DEVICE':<14} {'MAC':<18} {'STATUS':<6} {'PKTS':>5} {'CLEAR':>5} {'TLS':>4} {'FINDINGS':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        lines.append(
            f"{r.capture:<20} {r.device_id:<14} {r.mac:<18} {r.status:<6} "
            f"{r.packet_count:>5} {r.cleartext_count:>5} {r.tls_count:>4} {len(r.findings):>8}"
        )
        for f in r.findings:
            lines.append(f"    [{f.severity}] {f.category} pkt {f.packet_index}: {f.matched_text}")
    if not reports:
        lines.append("(no devices)")
    return "\n".join(lines) + "\n"


def reports_from_json(data: bytes | str | dict) -> list[DeviceReport]:
    """Rebuild DeviceReports from rendered JSON (render -> parse -> render
    must be byte-identical)."""
    doc = json.loads(data) if not isinstance(data, dict) else data
    reports: list[DeviceReport] = []
    for device in doc.get("devices", []):
        periodicity = device.get("periodicity")
        reports.append(
            DeviceReport(
                capture=device["capture"],
                device_id=device["device_id"],
                mac=device["mac"],
                packet_count=device["packet_count"],
                payload_count=device["payload_count"],
                cleartext_count=device["cleartext_count"],
                tls_count=device["tls_count"],
                encrypted_count=device["encrypted_count"],
                indeterminate_count=device["indeterminate_count"],
                findings=[
                    LeakFinding(
                        packet_index=f["packet_index"],
                        category=f["category"],
                        matched_text=f["matched_text"],
                        context=f["context"],
                        severity=f["severity"],
                    )
                    for f in device["findings"]
                ],
                activity=[
                    ActivityPeriod(
                        device_id=device["device_id"],
                        start=p["start"],
                        end=p["end"],
                        packet_count=p["packet_count"],
                        bytes_total=p["bytes_total"],
                        endpoints={(a, h) for a, h in p["endpoints"]},
                    )
                    for p in device["activity"]
                ],
                endpoints=[
                    EndpointProfile(
                        address=e["address"],
                        hostname=e["hostname"],
                        packet_count=e["packet_count"],
                        vendor_flag=e["vendor_flag"],
                    )
                    for e in device["endpoints"]
                ],
                periodicity=(
                    PeriodicityHint(
                        median_interval=periodicity["median_interval"],
                        dispersion=periodicity["dispersion"],
                    )
                    if periodicity
                    else None
                ),
                status=device["status"],
            )
        )
    return reports
