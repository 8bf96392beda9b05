"""Pipeline reports, rendering stability, schema validity, and CLI contract."""

import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medleak.capture import parse_capture, split_by_device
from medleak.classifiers import (
    DECISION_METHODS,
    DEFAULT_CHI_THRESHOLD,
    DEFAULT_ENTROPY_THRESHOLD,
    ClassificationResult,
    ClassifierConfig,
    _consensus_codes,
    classify,
    compare_methods,
)
from medleak import capture as capture_module
from medleak import cli
from medleak import report as report_module
from medleak.cli import _build_parser, main
from medleak.config import (
    DEFAULT_VENDOR_PATTERNS,
    THRESHOLDS,
    ConfigError,
    RunConfig,
    load_config,
    load_dictionaries,
    load_registry,
    save_registry,
)
from medleak.corpus import (
    DEFAULT_LENGTH_RANGE,
    SCENARIOS,
    arp_frame,
    build_fixture_capture,
    dns_response_payload,
    fixture_registry,
    generate_random_capture,
    tcp_frame,
    tls_record,
    udp_frame,
    write_pcap,
)
from medleak.leaks import Dictionary, relocate
from medleak.metadata import extract_dns_answers
from medleak.payload import AppPayload
from medleak.report import (
    DEVICE_KEYS,
    ENDPOINT_KEYS,
    EXIT_ERROR,
    FINDING_KEYS,
    PERIOD_KEYS,
    PERIODICITY_KEYS,
    analyze,
    render,
)

from _oracles import analyze_stream_oracle, detect_tls_oracle, parse_capture_oracle
from conftest import stitch_random_captures, table_of


def _config(scenario):
    return RunConfig(registry=fixture_registry(scenario))


def _classifier_values(config):
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(ClassifierConfig)}


@pytest.fixture(scope="module")
def fixture_results(fixture_dir):
    results = {}
    for scenario in ("bp-monitor-leaky", "scale-encrypted", "mixed-home"):
        results[scenario] = analyze([fixture_dir / f"{scenario}.pcap"], _config(scenario))
    return results


class TestAnalyze:
    def test_bp_fixture_is_leak(self, fixture_results):
        result = fixture_results["bp-monitor-leaky"]
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.status == "LEAK"
        assert result.exit_code == 2
        categories = {f.category for f in report.findings}
        assert {"dictionary-medical", "vendor-identifier", "user-identifier", "image-get-signature"} <= categories

    def test_scale_fixture_is_ok_and_fully_tls_excluded(self, fixture_results):
        result = fixture_results["scale-encrypted"]
        report = result.reports[0]
        assert report.status == "OK"
        assert result.exit_code == 0
        assert report.findings == []
        assert report.tls_count == report.payload_count > 0
        assert report.cleartext_count == 0

    def test_mixed_home_findings_only_for_leaky_device(self, fixture_results):
        result = fixture_results["mixed-home"]
        by_device = {r.device_id: r for r in result.reports}
        assert by_device["bp_monitor"].status == "LEAK"
        assert by_device["scale"].findings == []
        assert result.exit_code == 2
        assert any("unattributed" in w for w in result.warnings)

    def test_counts_reconcile(self, fixture_results):
        for result in fixture_results.values():
            for r in result.reports:
                assert (
                    r.cleartext_count + r.tls_count + r.encrypted_count + r.indeterminate_count
                    == r.payload_count
                )

    def test_daily_periodicity_detected_for_bp_fixture(self, fixture_results):
        report = fixture_results["bp-monitor-leaky"].reports[0]
        assert len(report.activity) == 3
        assert report.periodicity is not None
        assert report.periodicity.median_interval == pytest.approx(86400, abs=1.0)

    def test_vendor_endpoints_profiled(self, fixture_results):
        report = fixture_results["bp-monitor-leaky"].reports[0]
        by_address = {e.address: e for e in report.endpoints}
        assert by_address["89.30.121.52"].hostname == "scalews.withings.net"
        assert by_address["89.30.121.52"].vendor_flag is True
        assert by_address["89.30.121.60"].hostname == "static.withings.com"  # via HTTP Host

    def test_findings_relocate_in_parsed_capture(self, fixture_dir, fixture_results):
        packets = parse_capture((fixture_dir / "bp-monitor-leaky.pcap").read_bytes()).packets
        by_index = {p.index: p for p in packets}
        report = fixture_results["bp-monitor-leaky"].reports[0]
        assert report.findings
        for finding in report.findings:
            assert relocate(finding, by_index[finding.packet_index].payload)

    def test_same_content_different_filename_reports_identical_modulo_capture(self, fixture_dir, tmp_path):
        copy = tmp_path / "renamed.pcap"
        copy.write_bytes((fixture_dir / "bp-monitor-leaky.pcap").read_bytes())
        a = analyze([fixture_dir / "bp-monitor-leaky.pcap"], _config("bp-monitor-leaky"))
        b = analyze([copy], _config("bp-monitor-leaky"))
        dict_a = json.loads(render(a.reports))["devices"]
        dict_b = json.loads(render(b.reports))["devices"]
        for device in dict_a + dict_b:
            device.pop("capture")
        assert dict_a == dict_b

    def test_two_captures_merge_into_two_reports(self, fixture_dir):
        path = fixture_dir / "bp-monitor-leaky.pcap"
        result = analyze([path, path], _config("bp-monitor-leaky"))
        assert len(result.reports) == 2

    def test_warn_only_findings_give_exit_1(self, tmp_path):
        device, gateway = "02:11:22:33:44:55", "b8:27:eb:00:00:01"
        request = b"GET /sync?current_user=9 HTTP/1.1\r\nHost: hub.example\r\n\r\n"
        frame = tcp_frame(device, gateway, "192.168.9.5", "203.0.113.9", 41000, 80, request)
        path = tmp_path / "warn.pcap"
        path.write_bytes(write_pcap([(1_700_000_000_000_000, frame)]))
        result = analyze([path], RunConfig(registry={device: "widget"}))
        report = result.reports[0]
        assert report.status == "WARN"
        assert {f.category for f in report.findings} == {"user-identifier"}
        assert result.exit_code == 1

    def test_mid_record_tls_segments_off_port_443_are_classified(self):
        """On port 8883 only a record's first segment starts with a header;
        the others are classified. A full segment reads encrypted. Below
        min_stat_len the ASCII row decides, so a tail with a byte >= 0x80 is
        indeterminate and an all-ASCII one is cleartext and mined."""
        device, gateway = "02:11:22:33:44:55", "b8:27:eb:00:00:01"
        body = random.Random(0).randbytes(2 * 1448 - 5)
        segments = []
        for tail in (b"A\xc3B", b"alice"):
            record = tls_record(0x17, 3, body + tail)
            segments += [record[offset : offset + 1448] for offset in range(0, len(record), 1448)]
        assert [len(segment) for segment in segments] == [1448, 1448, 3, 1448, 1448, 5]
        frames = [tcp_frame(device, gateway, "192.168.9.5", "203.0.113.9", 41000, 8883, s) for s in segments]
        table = table_of([(1_700_000_000_000_000 + i, f) for i, f in enumerate(frames)])
        (stream,), _ = split_by_device(table, {device: "broker"})
        args = ("split.pcap", stream, {}, RunConfig(), load_dictionaries())
        report = report_module.analyze_stream(*args)
        assert report == analyze_stream_oracle(*args)
        counts = (report.tls_count, report.encrypted_count, report.indeterminate_count, report.cleartext_count)
        assert counts == (2, 2, 1, 1)
        assert [(f.packet_index, f.category, f.matched_text) for f in report.findings] == [(5, "dictionary-name", "alice")]

    def test_header_fragment_without_start_line_is_mined_as_cleartext(self):
        """A payload that continues an HTTP message (headers, no start line)
        parses as no message, so it gives no cookie or URL finding, but it is
        still counted as cleartext and its words are mined."""
        device, gateway = "02:11:22:33:44:55", "b8:27:eb:00:00:01"
        fragment = b"Accept-Language: en-us\r\nCookie: session=alice\r\n\r\n"
        frame = tcp_frame(device, gateway, "192.168.9.5", "203.0.113.9", 41000, 80, fragment)
        table = table_of([(1_700_000_000_000_000, frame)])
        (stream,), _ = split_by_device(table, {device: "scale"})
        args = ("fragment.pcap", stream, {}, RunConfig(), load_dictionaries())
        report = report_module.analyze_stream(*args)
        assert report == analyze_stream_oracle(*args)
        counts = (report.tls_count, report.encrypted_count, report.indeterminate_count, report.cleartext_count)
        assert counts == (0, 0, 0, 1)
        assert [(f.packet_index, f.category, f.matched_text) for f in report.findings] == [(0, "dictionary-name", "alice")]

    @pytest.fixture(scope="class")
    def capture_streams(self):
        """(capture name, stream, DNS answers) for every device stream of
        random captures 0-29 and the three fixtures."""
        captures = [(f"random_{seed}.pcap", *generate_random_capture(seed)) for seed in range(30)]
        captures += [(f"{s}.pcap", build_fixture_capture(s), fixture_registry(s)) for s in SCENARIOS]
        streams = []
        for name, data, registry in captures:
            packets = parse_capture(data).packets
            answers = extract_dns_answers(packets)
            streams += [(name, stream, answers) for stream in split_by_device(packets, registry)[0]]
        return streams

    @staticmethod
    def _streams_unlike_the_oracle(streams):
        dictionaries = load_dictionaries()
        unlike = 0
        for method in DECISION_METHODS:
            config = RunConfig(decision_method=method)
            for name, stream, answers in streams:
                args = (name, stream, answers, config, dictionaries)
                unlike += report_module.analyze_stream(*args) != analyze_stream_oracle(*args)
        return unlike

    def test_streams_report_as_the_per_payload_oracle(self, capture_streams):
        assert len(capture_streams) > 40
        assert self._streams_unlike_the_oracle(capture_streams) == 0

    def test_oracle_comparison_catches_verdicts_paired_off_by_one(self, capture_streams, monkeypatch):
        def shifted(rows, config):
            return np.roll(_consensus_codes(rows, config), 1)

        monkeypatch.setattr(capture_module, "_consensus_codes", shifted)
        assert self._streams_unlike_the_oracle(capture_streams) > 0

    HAND_BUILT_DEVICE = "02:11:22:33:44:55"

    @classmethod
    def _hand_built_capture(cls) -> bytes:
        device, gateway, here = cls.HAND_BUILT_DEVICE, "b8:27:eb:00:00:01", "192.168.9.5"
        hub, t0 = "203.0.113.9", 1_700_000_000_000_000

        def outbound(port, payload, kind=tcp_frame):
            return kind(device, gateway, here, hub, 41000, port, payload)

        # long enough that every decision method calls both requests cleartext
        head = b"Host: hub.example\r\nUser-Agent: widget/1.0 fw-v2\r\nAccept: */*\r\nCache-Control: no-cache\r\n"
        head += b"Cookie: name=al; uid=7\r\nConnection: keep-alive\r\n\r\n"
        records = [
            (0.0, outbound(8883, tls_record(0x17, 3, bytes(range(64))))),  # TLS by record only
            (0.5, arp_frame(device, here, "192.168.9.1")),
            (1.0, outbound(443, b"GET /status HTTP/1.1\r\nHost: hub.example\r\n\r\n")),  # TLS by port only
            (2.0, outbound(5000, b"a", udp_frame)),
            (3.0, outbound(5000, b"\x00\xff", udp_frame)),
            (100.0, outbound(80, b"POST /upload/v2 HTTP/1.1\r\n" + head + b"blood_pressure=120&heart_pulse=70")),
            (101.0, arp_frame(device, here, "192.168.9.1")),
            # an image GET 20 s after the upload; a timestamp carried from a
            # neighbouring payload would put it 97 s or 380 s after it
            (120.0, outbound(80, b"GET /reading.jpg HTTP/1.1\r\n" + head)),
            (500.0, tcp_frame(gateway, device, hub, here, 80, 41000, b"HTTP/1.1 204 No Content\r\n\r\n")),
        ]
        return write_pcap([(t0 + int(t * 1_000_000), frame) for t, frame in records])

    def _hand_built_reports(self, dictionaries, vendor_patterns=DEFAULT_VENDOR_PATTERNS):
        """analyze_stream's reports of the hand-built stream under each
        decision method, each checked against the per-payload oracle."""
        packets = parse_capture(self._hand_built_capture()).packets
        (stream,), _ = split_by_device(packets, {self.HAND_BUILT_DEVICE: "widget"})
        reports = []
        for method in DECISION_METHODS:
            config = RunConfig(decision_method=method, vendor_patterns=vendor_patterns)
            args = ("hand-built.pcap", stream, {}, config, dictionaries)
            reports.append(report_module.analyze_stream(*args))
            assert reports[-1] == analyze_stream_oracle(*args)
        return reports

    def test_hand_built_stream_reports_as_the_per_payload_oracle(self):
        for report in self._hand_built_reports(load_dictionaries()):
            assert (report.packet_count, report.payload_count, report.tls_count) == (9, 7, 2)
            assert report.indeterminate_count == 1  # the 2-byte payload is not ASCII
            assert "image-get-signature" in {f.category for f in report.findings}

    def test_hand_built_stream_reports_as_the_oracle_under_built_dictionaries(self):
        # entries a dictionary file cannot hold (a joined word), a multi-word
        # entry, a letter-digit run inside a joined word, and a two-letter name
        dictionaries = [
            Dictionary("medical-terms", frozenset({"blood_pressure", "heart pulse", "v2"})),
            Dictionary("first-names", frozenset({"al", "widget"})),
            Dictionary("pii-fields", frozenset({"upload", "name"})),
        ]
        for report in self._hand_built_reports(dictionaries, vendor_patterns=["*.nowhere", "hub.*"]):
            found = {(f.category, f.matched_text) for f in report.findings}
            assert {("dictionary-medical", "blood pressure"), ("dictionary-medical", "heart pulse")} <= found
            assert {("url-leak", "upload"), ("url-leak", "v2"), ("cookie-leak", "name")} <= found
            assert ("vendor-identifier", "hub.example") in found
            assert all(f.matched_text != "al" for f in report.findings)

    def test_analyze_calls_share_no_mining_state(self, tmp_path):
        """Runs in one process, with different dictionaries and vendor
        patterns, each report as the same run in a fresh interpreter, so no
        word, vendor match or payload text carries over between runs."""
        capture = tmp_path / "hand-built.pcap"
        capture.write_bytes(self._hand_built_capture())
        custom = tmp_path / "dictionaries"
        custom.mkdir()
        for name, entry in (("medical-terms", "v2"), ("first-names", "widget"), ("pii-fields", "upload")):
            (custom / f"{name}.txt").write_text(entry + "\n")
        devices = f"[devices]\n{self.HAND_BUILT_DEVICE} = widget\n"
        configs = {
            "bundled": "[vendor-patterns]\npatterns = *hub.example\n" + devices,
            "custom": f"[dictionaries]\ndir = {custom}\n[vendor-patterns]\npatterns = *.nowhere\n" + devices,
        }
        for name, text in configs.items():
            (tmp_path / f"{name}.conf").write_text(text)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def alone(name):
            argv = ["analyze", "--capture", str(capture), "--config", str(tmp_path / f"{name}.conf")]
            return subprocess.run([sys.executable, "-m", "medleak.cli", *argv], capture_output=True, env=env).stdout

        def in_process(name):
            return render(analyze([capture], load_config(tmp_path / f"{name}.conf")).reports)

        expected = {name: alone(name) for name in configs}
        assert expected["bundled"] != expected["custom"]
        for name in ("bundled", "custom", "bundled", "custom"):
            assert in_process(name) == expected[name], name


@pytest.fixture
def built_records(monkeypatch) -> list[str]:
    """The class name of each AppPayload and ClassificationResult built from
    here on: the ``__init__`` of each class is replaced by one that records."""
    built = []
    for cls in (AppPayload, ClassificationResult):
        def recorded(self, *args, original=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recorded)
    return built


class TestOnlyCleartextIsMined:
    """analyze mines a payload only if the decode's TLS flag left it and the
    grouping's verdicts call it cleartext; the miner, which is handed only
    bytes and a packet index, checks neither."""

    @pytest.fixture(scope="class")
    def captures(self, tmp_path_factory):
        """(path, bytes, registry) of random captures 0-29 and the three fixtures."""
        directory = tmp_path_factory.mktemp("mined")
        captures = [(f"random_{seed}.pcap", *generate_random_capture(seed)) for seed in range(30)]
        captures += [(f"{s}.pcap", build_fixture_capture(s), fixture_registry(s)) for s in SCENARIOS]
        for name, data, _ in captures:
            (directory / name).write_bytes(data)
        return [(directory / name, data, registry) for name, data, registry in captures]

    @staticmethod
    def _mined(path, data, config) -> list[tuple[int, bool, str]]:
        """(packet index, TLS by the oracle, ``classify``'s consensus) of the
        packet of each finding of analyze on one capture."""
        packets = {packet.index: packet for packet in parse_capture_oracle(data).packets}
        mined = []
        for report in analyze([path], config).reports:
            for finding in report.findings:
                packet = packets[finding.packet_index]
                payload = AppPayload(packet.index, "outbound", (packet.src_port, packet.dst_port), packet.payload)
                mined.append((packet.index, detect_tls_oracle(payload).is_tls, classify(payload, config).consensus))
        return mined

    def test_every_finding_is_on_a_row_not_tls_and_classified_cleartext(self, captures):
        for method in DECISION_METHODS:
            mined = []
            for path, data, registry in captures:
                mined += self._mined(path, data, RunConfig(decision_method=method, registry=registry))
            assert mined, method
            assert [m for m in mined if m[1:] != (False, "cleartext")] == []

    def test_a_leaky_request_on_port_443_or_that_reads_encrypted_is_not_mined(self, tmp_path):
        device, gateway, here, hub = "02:11:22:33:44:55", "b8:27:eb:00:00:01", "192.168.9.5", "203.0.113.9"
        # long enough that every decision method calls it cleartext on port 80
        leaky = b"POST /upload HTTP/1.1\r\nHost: hub.example\r\nCookie: uid=7\r\n\r\n"
        leaky += b"blood_pressure=120&name=alice" + b"&pad=filler" * 30
        payloads = [(80, leaky), (443, leaky), (80, leaky[:120] + random.Random(0).randbytes(1300))]
        records = [
            (1_700_000_000_000_000 + position * 1_000_000, tcp_frame(device, gateway, here, hub, 41000, port, data))
            for position, (port, data) in enumerate(payloads)
        ]
        path = tmp_path / "hand-built.pcap"
        path.write_bytes(write_pcap(records))
        for method in DECISION_METHODS:
            config = RunConfig(decision_method=method, registry={device: "widget"})
            assert classify(AppPayload(2, "outbound", (41000, 80), payloads[2][1]), config).consensus == "encrypted"
            (report,) = analyze([path], config).reports
            assert {f.packet_index for f in report.findings} == {0}
            assert {"dictionary-medical", "dictionary-name", "user-identifier"} <= {f.category for f in report.findings}
            assert (report.tls_count, report.cleartext_count, report.encrypted_count) == (1, 1, 1)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(("port 80", "port 443", "record", "ack", "zeros")),
                                   st.booleans(), st.sampled_from((tcp_frame, udp_frame))), min_size=1, max_size=10))
    def test_leaky_rows_that_are_tls_are_never_mined(self, tmp_path_factory, rows):
        """Generated captures mix a leaky request on port 80 with the same
        request to or from port 443, the same bytes behind a handshake record
        header (0x16 0x03 0x01) on port 80, empty segments and datagrams of
        zeros, each sent or received over TCP or UDP. Under every method the
        TLS rows classify cleartext, yet only the port-80 requests are mined."""
        device, hub, here, there = "02:11:22:33:44:55", "b8:27:eb:00:00:01", "192.168.9.5", "203.0.113.9"
        leaky = b"POST /upload HTTP/1.1\r\nHost: hub.example\r\nCookie: uid=7\r\n\r\n"
        leaky += b"blood_pressure=120&name=alice" + b"&pad=filler" * 30
        kinds = {"port 80": (80, leaky), "port 443": (443, leaky), "record": (80, b"\x16\x03\x01" + leaky),
                 "ack": (80, b""), "zeros": (80, bytes(64))}
        records = []
        for position, (kind, outbound, frame) in enumerate(rows):
            port, payload = kinds[kind]
            ends = (device, hub, here, there, 41000, port) if outbound else (hub, device, there, here, port, 41000)
            records.append((1_700_000_000_000_000 + position * 1_000_000, frame(*ends, payload)))
        path = tmp_path_factory.mktemp("tls-rows") / "generated.pcap"
        path.write_bytes(write_pcap(records))
        for method in DECISION_METHODS:
            config = RunConfig(decision_method=method, registry={device: "widget"})
            for kind in ("port 443", "record"):
                port, payload = kinds[kind]
                assert classify(AppPayload(0, "outbound", (41000, port), payload), config).consensus == "cleartext"
            (report,) = analyze([path], config).reports
            assert {f.packet_index for f in report.findings} == {k for k, row in enumerate(rows) if row[0] == "port 80"}

    def test_analyze_builds_no_payload_or_verdict_object(self, fixture_dir, built_records):
        result = analyze([fixture_dir / "mixed-home.pcap"], _config("mixed-home"))
        assert any(report.findings for report in result.reports)
        assert built_records == []
        classify(AppPayload(0, "outbound", (41000, 80), b"GET / HTTP/1.1\r\n\r\n"))
        assert built_records == ["AppPayload", "ClassificationResult"]  # the counting sees a per-payload call


class TestRender:
    def test_empty_reports_render_exact_json(self):
        assert render([], "json").rstrip(b"\n") == b'{"schema":1,"devices":[]}'

    def test_schema_required_keys_are_the_renderers_keys(self, report_schema):
        definitions = report_schema["definitions"]
        periodicity = definitions["device"]["properties"]["periodicity"]["oneOf"][1]
        assert definitions["device"]["required"] == [*DEVICE_KEYS, "findings", "activity", "endpoints", "periodicity"]
        assert definitions["finding"]["required"] == list(FINDING_KEYS)
        assert definitions["activity_period"]["required"] == [*PERIOD_KEYS, "endpoints"]
        assert definitions["endpoint"]["required"] == list(ENDPOINT_KEYS)
        assert periodicity["required"] == list(PERIODICITY_KEYS)

    def test_text_table_mentions_leak(self, fixture_results):
        text = render(fixture_results["bp-monitor-leaky"].reports, "text").decode()
        assert "LEAK" in text
        assert "bp_monitor" in text

    def test_text_escapes_control_characters_that_json_keeps(self, tmp_path):
        """A Host header, a capture file name and a device label with terminal
        control sequences reach the text table with each C0, DEL and C1
        character as \\xNN, and the JSON report with each as \\u00NN."""
        device, gateway = "02:11:22:33:44:55", "b8:27:eb:00:00:01"
        host = "a\x1b]0;owned\x07.withings.net"
        request = f"GET / HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
        frame = tcp_frame(device, gateway, "192.168.9.5", "203.0.113.9", 41000, 80, request)
        path = tmp_path / "home\x1b[2J.pcap"
        path.write_bytes(write_pcap([(1_700_000_000_000_000, frame)]))
        reports = analyze([path], RunConfig(registry={device: "scale\x7f\x9b2J"})).reports
        assert ("vendor-identifier", host) in {(f.category, f.matched_text) for f in reports[0].findings}

        text = render(reports, "text")
        assert [byte for byte in text if byte < 0x20 and byte != 0x0A] == []
        assert not set(text.decode()) & {chr(code) for code in (0x7F, *range(0x80, 0xA0))}
        for shown in ("home\\x1b[2J.pcap", "scale\\x7f\\x9b2J", "a\\x1b]0;owned\\x07.withings.net"):
            assert shown in text.decode()
        rendered = render(reports)
        assert hashlib.sha256(rendered).hexdigest() == "71b7aaa1a3fbd6eb83b16b49e98040c787e6f449e137c6d28275ee159c64e815"
        assert b"\x7f" not in rendered
        assert not any(b"\xc2" + bytes([code]) in rendered for code in range(0x80, 0xA0))
        assert json.loads(rendered)["devices"][0]["device_id"] == "scale\x7f\x9b2J"

    def test_text_keeps_printable_non_ascii(self, fixture_results):
        """Only C0, DEL and C1 characters are escaped: printable characters
        above U+00A0 reach the text table as they are."""
        (report,) = fixture_results["bp-monitor-leaky"].reports
        finding = dataclasses.replace(report.findings[0], matched_text="café\xa0Ω")
        report = dataclasses.replace(report, device_id="balança", findings=[finding])
        text = render([report], "text").decode()
        assert "balança" in text
        assert "café\xa0Ω" in text
        assert "\\x" not in text

    def test_unknown_format_rejected(self, fixture_results):
        with pytest.raises(ValueError):
            render(fixture_results["mixed-home"].reports, "yaml")

    def test_devices_sorted_by_capture_and_mac(self, fixture_results):
        doc = json.loads(render(fixture_results["mixed-home"].reports))
        macs = [d["mac"] for d in doc["devices"]]
        assert macs == sorted(macs)

    def test_schema_valid_for_fixtures(self, fixture_results, report_schema):
        for result in fixture_results.values():
            jsonschema.validate(json.loads(render(result.reports)), report_schema)

    def test_schema_valid_for_random_captures(self, tmp_path, report_schema):
        for seed in range(8):
            data, registry = generate_random_capture(seed)
            path = tmp_path / f"random_{seed}.pcap"
            path.write_bytes(data)
            result = analyze([path], RunConfig(registry=registry))
            jsonschema.validate(json.loads(render(result.reports)), report_schema)

    def test_reports_do_not_depend_on_the_hash_seed(self, fixture_dir, tmp_path):
        """Two interpreters with different string hashes render the same
        bytes, as JSON and as text, for every fixture and random captures 0-9."""
        runs = [[str(fixture_dir / f"{scenario}.pcap"), fixture_registry(scenario)] for scenario in SCENARIOS]
        for seed in range(10):
            data, registry = generate_random_capture(seed)
            path = tmp_path / f"random-{seed}.pcap"
            path.write_bytes(data)
            runs.append([str(path), registry])
        script = (
            "import json, sys\n"
            "from medleak.config import RunConfig\n"
            "from medleak.report import analyze, render\n"
            "for path, registry in json.loads(sys.argv[1]):\n"
            "    reports = analyze([path], RunConfig(registry=registry)).reports\n"
            "    sys.stdout.buffer.write(render(reports, 'json') + render(reports, 'text'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = [
            subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b'{"schema":') == len(runs)

    def test_json_is_rendered_device_by_device(self, tmp_path):
        """On a capture stitched from many random ones, the traced peak of
        rendering is at most 1.25 times the output's size plus a fixed slack
        (the report is written into one buffer, not held as pieces and their
        join), and it is exactly the document that one dump of the whole
        report gives."""
        data, registry = stitch_random_captures(80)
        path = tmp_path / "stitched.pcap"
        path.write_bytes(data)
        reports = analyze([path], RunConfig(registry=registry)).reports
        assert len(reports) > 100
        tracemalloc.start()
        try:
            output = render(reports, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * len(output) + 64 * 1024
        assert output == (json.dumps(json.loads(output), separators=(",", ":"), ensure_ascii=False) + "\n").encode()


class TestConfigFiles:
    def test_registry_file(self, tmp_path):
        path = tmp_path / "devices.conf"
        path.write_text("[devices]\n00:24:e4:1b:20:31 = bp_monitor\n")
        assert load_registry(path) == {"00:24:e4:1b:20:31": "bp_monitor"}

    def test_registry_default_section_rejected(self, tmp_path):
        # configparser would copy the key into [devices] as a device named 'foo'
        path = tmp_path / "devices.conf"
        path.write_text("[DEFAULT]\nfoo = bar\n[devices]\n00:24:e4:1b:20:31 = bp_monitor\n")
        with pytest.raises(ConfigError, match=re.escape("section [DEFAULT]")):
            load_registry(path)

    def test_registry_missing_section(self, tmp_path):
        path = tmp_path / "devices.conf"
        path.write_text("[names]\nx = y\n")
        with pytest.raises(ConfigError):
            load_registry(path)

    def test_full_config_file(self, tmp_path):
        path = tmp_path / "medleak.conf"
        path.write_text(
            "[thresholds]\n"
            "entropy_threshold = 7.2\n"
            "chi_threshold = 900\n"
            "min_stat_len = 48\n"
            "gap_threshold = 120\n"
            "image_window = 45\n"
            "[analysis]\n"
            "decision_method = chi-squared\n"
            "[vendor-patterns]\n"
            "patterns = *withings*, *acme-health*\n"
            "[identifier-keys]\n"
            "keys = current_user, uid, patient\n"
            "[devices]\n"
            "00:24:e4:1b:20:31 = bp_monitor\n"
        )
        config = load_config(path)
        assert config.entropy_threshold == 7.2
        assert config.chi_threshold == 900
        assert config.min_stat_len == 48
        assert config.gap_threshold == 120
        assert config.image_window == 45
        assert config.decision_method == "chi_squared"
        assert config.vendor_patterns == ("*withings*", "*acme-health*")
        assert config.identifier_keys == frozenset({"current_user", "uid", "patient"})
        assert config.registry == {"00:24:e4:1b:20:31": "bp_monitor"}
        assert load_registry(path) == config.registry  # a full config also works as --registry

    def test_bad_threshold_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[thresholds]\nentropy_threshold = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("name", ["entropy_threshold", "chi_threshold", "gap_threshold", "image_window"])
    def test_nan_threshold_rejected(self, tmp_path, name):
        with pytest.raises(ConfigError):
            RunConfig(**{name: float("nan")})
        with pytest.raises(ConfigError):
            dataclasses.replace(RunConfig(), **{name: float("nan")})
        path = tmp_path / "nan.conf"
        path.write_text(f"[thresholds]\n{name} = nan\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("text, unknown", [
        ("[thresholds]\nentropy_treshold = 1\n", "'entropy_treshold' in [thresholds]"),
        ("[analysis]\ndecison_method = ascii\n", "'decison_method' in [analysis]"),
        ("[vendor-patterns]\npattern = *acme*\n", "'pattern' in [vendor-patterns]"),
        ("[threshold]\nentropy_threshold = 1\n", "section [threshold]"),
        ("[devices]\n00:24:e4:1b:20:31 = bp\n[device]\n00:24:e4:9c:41:72 = scale\n", "section [device]"),
        ("[DEFAULT]\nchi_threshold = 5\n", "section [DEFAULT]"),
        ("[DEFAULT]\nchi_threshold = 5\n[thresholds]\nentropy_threshold = 7\n", "section [DEFAULT]"),
    ])
    def test_unknown_key_or_section_rejected(self, tmp_path, capsys, text, unknown):
        path = tmp_path / "typo.conf"
        path.write_text(text)
        for load, flag in ((load_config, "--config"), (load_registry, "--registry")):
            with pytest.raises(ConfigError, match=re.escape(unknown)):
                load(path)
            assert main(["analyze", "--capture", "x.pcap", flag, str(path)]) == EXIT_ERROR
            assert unknown in capsys.readouterr().err

    @pytest.mark.parametrize("text, empty", [
        ("[vendor-patterns]\npatterns =\n", "'patterns' in [vendor-patterns]"),
        ("[identifier-keys]\nkeys = ,\n", "'keys' in [identifier-keys]"),
        ("[dictionaries]\ndir =\n", "'dir' in [dictionaries]"),
    ])
    def test_empty_value_rejected_not_defaulted(self, tmp_path, capsys, text, empty):
        path = tmp_path / "empty.conf"
        path.write_text(text + "[devices]\n00:24:e4:1b:20:31 = bp\n")
        with pytest.raises(ConfigError, match=re.escape(f"empty value for {empty}")):
            load_config(path)
        assert main(["analyze", "--capture", "x.pcap", "--config", str(path)]) == EXIT_ERROR
        assert empty in capsys.readouterr().err

    @pytest.mark.parametrize("loader, flag", [(load_registry, "--registry"), (load_config, "--config")])
    def test_empty_device_label_rejected_not_named_empty(self, tmp_path, capsys, loader, flag):
        path = tmp_path / "devices.conf"
        path.write_text("[devices]\n00:24:e4:1b:20:31 = bp\n00:24:E4:9C:41:72 =\n")
        message = "empty device label for 00:24:e4:9c:41:72 in [devices]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            loader(path)
        assert main(["analyze", "--capture", "x.pcap", flag, str(path)]) == EXIT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["chi-squared", "chi_squared", " chi-squared "])
    def test_decision_method_is_spelt_the_same_in_file_and_flag(self, tmp_path, spelling):
        path = tmp_path / "medleak.conf"
        path.write_text(f"[analysis]\ndecision_method = {spelling}\n")
        assert load_config(path).decision_method == "chi_squared"
        args = _build_parser().parse_args(["analyze", "--capture", "x.pcap", "--decision-method", spelling])
        assert args.decision_method == "chi_squared"

    def test_unknown_decision_method_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--capture", "x.pcap", "--decision-method", "chi-square"])
        assert excinfo.value.code == EXIT_ERROR
        assert "invalid choice" in capsys.readouterr().err

    def test_malformed_mac_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(registry={"zz:zz": "x"})
        with pytest.raises(ConfigError):
            dataclasses.replace(RunConfig(), registry={"zz:zz": "x"})

    def test_duplicate_mac_forms_rejected(self):
        registry = {"00:24:e4:1b:20:31": "a", "00-24-E4-1B-20-31": "b"}
        with pytest.raises(ConfigError):
            RunConfig(registry=registry)
        with pytest.raises(ConfigError):
            dataclasses.replace(RunConfig(), registry=registry)

    def test_run_config_is_a_frozen_classifier_config(self):
        config = RunConfig()
        assert isinstance(config, ClassifierConfig)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.gap_threshold = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.registry = {}

    @pytest.mark.parametrize("name", ["vendor_patterns", "identifier_keys"])
    @pytest.mark.parametrize("value", ["*withings*", "uid", b"uid", ""])
    def test_one_string_is_refused_not_split_into_characters(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a collection of strings"):
            RunConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be a collection of strings"):
            dataclasses.replace(RunConfig(), **{name: value})

    @pytest.mark.parametrize("values, message", [
        ({"identifier_keys": ["uid", 1]}, "identifier_keys must be a collection of strings, not holding 1"),
        ({"vendor_patterns": ["*withings*", 1]}, "vendor_patterns must be a collection of strings, not holding 1"),
        ({"vendor_patterns": [b"*withings*"]}, "vendor_patterns must be a collection of strings, not holding b'"),
        ({"registry": {"00:24:E4:1B:20:31": 5}}, "device label for 00:24:e4:1b:20:31 must be a string, not 5"),
        ({"registry": {"00:24:e4:1b:20:31": ""}}, "empty device label for 00:24:e4:1b:20:31"),
    ])
    def test_an_item_or_label_that_is_not_a_string_is_refused(self, values, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**values)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(RunConfig(), **values)

    @pytest.mark.parametrize("values, message", [
        ({"registry": {5: "x"}}, "malformed MAC address: 5"),
        ({"registry": [("00:24:e4:1b:20:31", "x")]}, "registry must be a mapping of MAC to device label, not list"),
        ({"registry": None}, "registry must be a mapping of MAC to device label, not NoneType"),
        ({"vendor_patterns": 5}, "vendor_patterns must be a collection of strings, not 5"),
        ({"identifier_keys": 5}, "identifier_keys must be a collection of strings, not 5"),
        ({"gap_threshold": "60"}, "gap_threshold must be a positive number"),
        ({"min_stat_len": None}, "min_stat_len must be a positive number"),
    ])
    def test_a_value_of_the_wrong_type_is_a_config_error(self, values, message):
        """A value built in code that no check expects is refused as a
        ConfigError, never let out as a TypeError or AttributeError."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**values)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(RunConfig(), **values)

    def test_items_given_as_iterators_are_read_once_and_kept(self):
        config = RunConfig(vendor_patterns=iter(["*withings*"]), identifier_keys=(key for key in ["UID"]))
        assert config.vendor_patterns == ("*withings*",) and config.identifier_keys == frozenset({"uid"})

    def test_vendor_patterns_are_kept_as_a_tuple_so_a_config_hashes(self):
        listed = RunConfig(vendor_patterns=["*withings*"], identifier_keys=["UID"])
        built = RunConfig(vendor_patterns=("*withings*",), identifier_keys=frozenset({"uid"}))
        assert listed.vendor_patterns == ("*withings*",) and listed.identifier_keys == frozenset({"uid"})
        assert listed == built and hash(listed) == hash(built)

    def test_registry_macs_are_normalized_at_construction(self):
        registry = {"00-24-E4-1B-20-31": "bp"}
        config = RunConfig(registry=registry)
        assert config.registry == {"00:24:e4:1b:20:31": "bp"}
        assert registry == {"00-24-E4-1B-20-31": "bp"}  # the caller's dict is not rewritten
        assert dataclasses.replace(config, gap_threshold=5.0).registry == config.registry

    def test_identifier_keys_are_lowercased_when_built_in_code_or_read_from_a_file(self, fixture_dir, tmp_path):
        registry = fixture_registry("bp-monitor-leaky")
        path = tmp_path / "keys.conf"
        path.write_text("[identifier-keys]\nkeys = Current_User\n")
        built = RunConfig(identifier_keys=frozenset({"Current_User"}), registry=registry)
        loaded = dataclasses.replace(load_config(path), registry=registry)
        assert built.identifier_keys == loaded.identifier_keys == frozenset({"current_user"})
        capture = [fixture_dir / "bp-monitor-leaky.pcap"]
        findings = [[f for r in analyze(capture, config).reports for f in r.findings] for config in (built, loaded)]
        assert findings[0] == findings[1]
        assert "current user" in {f.matched_text for f in findings[0] if f.category == "user-identifier"}

    def test_registry_is_read_only_past_the_mac_check(self):
        config = RunConfig(registry={"00:24:e4:1b:20:31": "bp"})
        with pytest.raises(TypeError):
            config.registry["not-a-mac"] = "scale"
        with pytest.raises(AttributeError):
            config.registry.clear()
        assert config.registry == {"00:24:e4:1b:20:31": "bp"}

    def test_run_config_is_hashable(self):
        config = RunConfig(registry={"00:24:e4:1b:20:31": "bp"})
        assert hash(config) == hash(dataclasses.replace(config))
        assert hash(RunConfig()) == hash(RunConfig())
        assert len({config, RunConfig(), dataclasses.replace(config)}) == 2

    def test_analyze_leaves_its_config_as_it_was(self, fixture_dir):
        registry = {mac.upper().replace(":", "-"): label for mac, label in fixture_registry("mixed-home").items()}
        config = RunConfig(registry=registry)
        analyze([fixture_dir / "mixed-home.pcap"], config)
        assert config == RunConfig(registry=registry)

    def test_thresholds_are_the_numeric_fields_in_order(self):
        # the [thresholds] keys, and the order of the analyze flags
        assert list(THRESHOLDS.items()) == [
            ("entropy_threshold", float),
            ("chi_threshold", float),
            ("min_stat_len", int),
            ("gap_threshold", float),
            ("image_window", float),
        ]

    def test_dict_dir_is_set_only_by_argument_flag_or_config(self, tmp_path, fixture_dir, monkeypatch):
        custom = tmp_path / "dictionaries"
        custom.mkdir()
        for name, entries in (
            ("medical-terms.txt", "custom medical term\n"),
            ("first-names.txt", "zelda\n"),
            ("pii-fields.txt", "badge number\n"),
        ):
            (custom / name).write_text(entries)
        capture = str(fixture_dir / "bp-monitor-leaky.pcap")
        registry = tmp_path / "reg.conf"
        save_registry(fixture_registry("bp-monitor-leaky"), registry)

        def report(*extra):
            out = tmp_path / "report.json"
            main(["analyze", "--capture", capture, "--registry", str(registry), "--out", str(out), *extra])
            return out.read_bytes()

        bundled, bundled_report = load_dictionaries(), report()
        # an environment variable is no input: the same command gives the same report
        monkeypatch.setenv("MEDLEAK_DICT_DIR", str(custom))
        assert load_dictionaries() == bundled
        assert report() == bundled_report
        by_name = {d.name: d for d in load_dictionaries(custom)}
        assert by_name["medical-terms"].entries == frozenset({"custom medical term"})
        assert by_name["first-names"].entries == frozenset({"zelda"})
        assert report("--dict-dir", str(custom)) != bundled_report

    def test_defaults_have_one_home(self):
        assert _classifier_values(RunConfig()) == _classifier_values(ClassifierConfig())
        compare = _build_parser().parse_args(["compare-methods", "--seed", "0"])
        assert compare.entropy_threshold == [DEFAULT_ENTROPY_THRESHOLD]
        assert compare.chi_threshold == [DEFAULT_CHI_THRESHOLD]
        gen_corpus = _build_parser().parse_args(["gen-corpus", "--seed", "0", "--out", "x"])
        for args in (compare, gen_corpus):
            assert (args.min_len, args.max_len) == DEFAULT_LENGTH_RANGE
        for method in DECISION_METHODS:
            args = ["analyze", "--capture", "x.pcap", "--decision-method", method]
            assert _build_parser().parse_args(args).decision_method == method

    def test_missing_dict_dir_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dictionaries(tmp_path / "nope")

    def test_percent_in_values_is_literal(self, tmp_path):
        path = tmp_path / "medleak.conf"
        path.write_text(
            "[vendor-patterns]\npatterns = %(x)s, 100%*\n"
            "[devices]\n00:24:e4:1b:20:31 = bp%monitor\n"
        )
        config = load_config(path)
        assert config.vendor_patterns == ("%(x)s", "100%*")
        assert config.registry == {"00:24:e4:1b:20:31": "bp%monitor"}
        registry = tmp_path / "devices.conf"
        save_registry({"00:24:e4:1b:20:31": "bp%monitor", "00:24:e4:9c:41:72": "%(scale)s"}, registry)
        assert load_registry(registry) == {"00:24:e4:1b:20:31": "bp%monitor", "00:24:e4:9c:41:72": "%(scale)s"}

    @pytest.mark.parametrize("name", list(THRESHOLDS))
    def test_every_threshold_is_an_ini_key_and_an_analyze_flag(self, fixture_dir, tmp_path, monkeypatch, name):
        seen = []
        monkeypatch.setattr(cli, "analyze", lambda captures, config: seen.append(config) or analyze(captures, config))
        kind = type(getattr(RunConfig(), name))
        assert THRESHOLDS[name] is kind
        config_path = tmp_path / "medleak.conf"
        config_path.write_text(f"[thresholds]\n{name} = 3\n[devices]\n00:24:e4:9c:41:72 = scale\n")
        base = ["analyze", "--capture", str(fixture_dir / "scale-encrypted.pcap"), "--config", str(config_path),
                "--out", str(tmp_path / "report.json")]
        flag = "--" + name.replace("_", "-")
        assert main(base) == 0
        assert main(base + [flag, "5"]) == 0
        assert [getattr(config, name) for config in seen] == [3, 5]
        assert [type(getattr(config, name)) for config in seen] == [kind, kind]
        defaults = RunConfig()
        for other in THRESHOLDS:
            if other != name:
                assert [getattr(config, other) for config in seen] == [getattr(defaults, other)] * 2

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "medleak.conf"
        path.write_text(example)
        config = load_config(path)
        assert _classifier_values(config) == _classifier_values(RunConfig())
        assert config.registry == {"00:24:e4:1b:20:31": "bp_monitor", "00:24:e4:9c:41:72": "scale"}


class TestCli:
    def test_analyze_exit_codes_per_fixture(self, fixture_dir, tmp_path, capsys):
        registry = tmp_path / "reg.conf"
        for scenario, expected in (("bp-monitor-leaky", 2), ("scale-encrypted", 0), ("mixed-home", 2)):
            registry.write_text(
                "[devices]\n" + "".join(f"{m} = {d}\n" for m, d in fixture_registry(scenario).items())
            )
            code = main([
                "analyze",
                "--capture", str(fixture_dir / f"{scenario}.pcap"),
                "--registry", str(registry),
            ])
            capsys.readouterr()
            assert code == expected, scenario

    def test_analyze_writes_report_file(self, fixture_dir, tmp_path):
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:9c:41:72 = scale\n")
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--capture", str(fixture_dir / "scale-encrypted.pcap"),
            "--registry", str(registry), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["devices"][0]["status"] == "OK"

    def test_analyze_text_format(self, fixture_dir, tmp_path, capsys):
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:1b:20:31 = bp_monitor\n")
        code = main([
            "analyze", "--capture", str(fixture_dir / "bp-monitor-leaky.pcap"),
            "--registry", str(registry), "--format", "text",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "LEAK" in captured.out

    def test_truncated_dns_answer_still_gives_a_report(self, tmp_path):
        dev, ap = "00:24:e4:1b:20:31", "b8:27:eb:5a:10:04"
        cut_answer = dns_response_payload(7, "one.example", ["198.51.100.1"])[:-2]
        frames = [
            udp_frame(ap, dev, "192.168.4.1", "192.168.4.21", 53, 42333, cut_answer),
            tcp_frame(dev, ap, "192.168.4.21", "198.51.100.1", 40000, 80, b"GET / HTTP/1.1\r\n\r\n"),
        ]
        capture = tmp_path / "cut-dns.pcap"
        capture.write_bytes(write_pcap([(1_000_000 + i, frame) for i, frame in enumerate(frames)]))
        registry = tmp_path / "reg.conf"
        registry.write_text(f"[devices]\n{dev} = monitor\n")
        out = tmp_path / "report.json"
        code = main(["analyze", "--capture", str(capture), "--registry", str(registry), "--out", str(out)])
        assert code != 3
        doc = json.loads(out.read_text())
        assert [d["device_id"] for d in doc["devices"]] == ["monitor"]

    def test_missing_capture_file_is_operational_error(self, tmp_path, capsys):
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:1b:20:31 = bp\n")
        code = main(["analyze", "--capture", str(tmp_path / "missing.pcap"), "--registry", str(registry)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_not_a_capture_is_operational_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.pcap"
        bogus.write_bytes(b"this is not a pcap file at all....")
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:1b:20:31 = bp\n")
        code = main(["analyze", "--capture", str(bogus), "--registry", str(registry)])
        assert code == 3

    def test_empty_registry_is_operational_error(self, fixture_dir, capsys):
        code = main(["analyze", "--capture", str(fixture_dir / "scale-encrypted.pcap")])
        assert code == 3
        assert "registry" in capsys.readouterr().err

    def test_usage_error_exits_3(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])  # missing required --capture
        assert excinfo.value.code == 3

    def test_gen_fixture_and_registry_out(self, tmp_path, capsys):
        out = tmp_path / "bp.pcap"
        registry_out = tmp_path / "bp-reg.conf"
        code = main(["gen-fixture", "bp-monitor-leaky", "--out", str(out), "--registry-out", str(registry_out)])
        assert code == 0
        assert out.read_bytes() == build_fixture_capture("bp-monitor-leaky")
        assert load_registry(registry_out) == fixture_registry("bp-monitor-leaky")

    def test_gen_corpus_then_compare(self, tmp_path, capsys):
        code = main(["gen-corpus", "--seed", "5", "--out", str(tmp_path / "corpus"),
                     "--n-cleartext", "40", "--n-encrypted", "40", "--min-len", "64", "--max-len", "256"])
        assert code == 0
        code = main(["compare-methods", "--corpus", str(tmp_path / "corpus")])
        assert code == 0
        table = capsys.readouterr().out
        assert "naive-ascii" in table and "chi-squared" in table

    def test_compare_methods_json(self, capsys):
        code = main(["compare-methods", "--seed", "3", "--n-cleartext", "30", "--n-encrypted", "30",
                     "--min-len", "64", "--max-len", "256", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["ascii", "entropy", "chi_squared"]
        assert [row["threshold"] for rows in doc.values() for row in rows] == [
            None, DEFAULT_ENTROPY_THRESHOLD, DEFAULT_CHI_THRESHOLD,
        ]
        for (row,) in doc.values():
            assert list(row) == ["threshold", "precision", "recall", "fraction_flagged",
                                 "true_positives", "false_positives", "false_negatives"]
            assert row["recall"] == row["true_positives"] / (row["true_positives"] + row["false_negatives"])

    def test_compare_methods_sweep_prints_one_row_per_value_with_recall(self, capsys):
        code = main(["compare-methods", "--seed", "3", "--n-cleartext", "40", "--n-encrypted", "40",
                     "--entropy-threshold", "6", "7.5", "7.75", "--chi-threshold", "415", "1000"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["Approach", "Threshold", "Precision", "Recall", "%", "flagged", "cleartext"]
        assert [line.split()[:2] for line in lines[1:]] == [
            ["naive-ascii", "-"],
            ["shannon-entropy", "6"], ["shannon-entropy", "7.5"], ["shannon-entropy", "7.75"],
            ["chi-squared", "415"], ["chi-squared", "1000"],
        ]
        for line in lines[1:]:
            recall = float(line.split()[3])
            assert 0.0 <= recall <= 1.0

    @pytest.mark.parametrize("argv, passes, rows", [
        ([], 1, 3),
        (["--entropy-threshold", "7.5", "7"], 2, 4),
        (["--entropy-threshold", "6", "7", "--chi-threshold", "415", "1000", "2000"], 3, 6),
    ])
    def test_compare_methods_scores_the_corpus_once_per_pass(self, capsys, monkeypatch, argv, passes, rows):
        calls = []

        def counting(corpus, config):
            calls.append(config)
            return compare_methods(corpus, config)

        monkeypatch.setattr(cli, "compare_methods", counting)
        assert main(["compare-methods", "--seed", "3", "--n-cleartext", "10", "--n-encrypted", "10", *argv]) == 0
        assert len(calls) == passes
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows

    def test_compare_methods_bad_length_range_is_a_one_line_error(self, capsys):
        code = main(["compare-methods", "--seed", "3", "--n-cleartext", "10", "--n-encrypted", "10",
                     "--min-len", "100", "--max-len", "10"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["medleak: error: bad length range (100, 10)"]

    def test_nan_threshold_flag_is_operational_error(self, fixture_dir, tmp_path, capsys):
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:1b:20:31 = bp_monitor\n")
        code = main([
            "analyze", "--capture", str(fixture_dir / "bp-monitor-leaky.pcap"),
            "--registry", str(registry), "--chi-threshold", "nan",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "chi_threshold must be a positive number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("record", [
        '{"label": "cleartext"}',
        '{"label": "plaintext", "data_b64": "aGk="}',
        '{"label": "cleartext", "data_b64": ""}',
        '{"label": "cleartext", "data_b64": "aGk=", "generator_note": 5}',
        '{"label": "cleartext", "data_b64": "aGk=", "seed_record": 5.9}',
        '{"label": "cleartext", "data_b64": "aGk=", "seed_record": "7"}',
        '{"label": "cleartext", "data_b64": "aGk=", "seed_record": true}',
    ])
    def test_malformed_corpus_record_is_operational_error(self, tmp_path, capsys, record):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"label": "encrypted", "data_b64": "aGk="}\n' + record + "\n")
        assert main(["compare-methods", "--corpus", str(path)]) == 3
        assert f"{path}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--chi-threshold", "nan", "chi_threshold"),
        ("--entropy-threshold", "-1", "entropy_threshold"),
        ("--entropy-threshold", "7 nan", "entropy_threshold"),
    ])
    def test_bad_compare_methods_threshold_is_operational_error(self, capsys, monkeypatch, flag, value, name):
        monkeypatch.setattr(cli, "generate_corpus", lambda spec: pytest.fail("corpus built before the check"))
        code = main(["compare-methods", "--seed", "3", "--n-cleartext", "10", "--n-encrypted", "10",
                     flag, *value.split()])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"medleak: error: {name} must be a positive number"]
        assert captured.out == ""

    def test_percent_device_label_is_reported(self, fixture_dir, tmp_path, capsys):
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:1b:20:31 = bp%monitor\n")
        code = main(["analyze", "--capture", str(fixture_dir / "bp-monitor-leaky.pcap"), "--registry", str(registry)])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert [d["device_id"] for d in doc["devices"]] == ["bp%monitor"]
        assert doc["devices"][0]["status"] == "LEAK"
        assert code == 2

    @pytest.mark.parametrize("command, flags", [
        ("analyze", {"--capture", "--chi-threshold", "--config", "--decision-method", "--dict-dir",
                     "--entropy-threshold", "--format", "--gap-threshold", "--image-window", "--min-stat-len",
                     "--out", "--registry"}),
        ("gen-corpus", {"--max-len", "--min-len", "--n-cleartext", "--n-encrypted", "--out", "--seed"}),
        ("gen-fixture", {"--out", "--registry-out"}),
        ("compare-methods", {"--chi-threshold", "--corpus", "--entropy-threshold", "--format", "--max-len",
                             "--min-len", "--n-cleartext", "--n-encrypted", "--seed"}),
    ])
    def test_help_lists_the_same_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == flags | {"-h", "--help"}

    def test_cli_flag_overrides_config(self, fixture_dir, tmp_path, capsys):
        registry = tmp_path / "reg.conf"
        registry.write_text("[devices]\n00:24:e4:1b:20:31 = bp_monitor\n")
        # an unreachable chi threshold classifies every HTTP payload encrypted,
        # so the leak findings disappear and the device comes back clean
        code = main([
            "analyze", "--capture", str(fixture_dir / "bp-monitor-leaky.pcap"),
            "--registry", str(registry), "--chi-threshold", "1e12",
        ])
        capsys.readouterr()
        assert code == 0
