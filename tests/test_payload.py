"""Payload extraction, TLS detection, and HTTP parsing."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medleak.capture import DeviceStream, IpInfo, RawPacket, TransportInfo
from medleak.payload import (
    _LINE_SPLIT,
    _REQUEST_LINE,
    _START_LINE_PREFIXES,
    _STATUS_LINE,
    HTTP_METHODS,
    AppPayload,
    HttpMessage,
    detect_tls,
    extract_payloads,
    looks_like_http_continuation,
    parse_http,
)

from _oracles import detect_tls_oracle, extract_payloads_oracle

DEV = "00:24:e4:1b:20:31"
AP = "b8:27:eb:5a:10:04"


def _packet(index, payload, kind="TCP", src=DEV, dst=AP, sport=40000, dport=80, with_transport=True):
    return RawPacket(
        index=index,
        timestamp_us=index * 1000,
        src_mac=src,
        dst_mac=dst,
        ip=IpInfo("192.168.4.21", "89.30.121.52", 6 if kind == "TCP" else 17),
        transport=TransportInfo(sport, dport, kind) if with_transport else None,
        payload=payload,
        frame_len=54 + len(payload),
    )


def _payload(data, sport=40000, dport=80, direction="outbound", index=0):
    return AppPayload(index, direction, (sport, dport), data)


class TestExtractPayloads:
    def test_empty_tcp_segments_are_filtered(self):
        packets = [
            _packet(0, b"hello"),
            _packet(1, b""),  # bare ACK
            _packet(2, b"world"),
            _packet(3, b""),
            _packet(4, b"!"),
        ]
        stream = DeviceStream("monitor", DEV, packets)
        extracted = extract_payloads(stream)
        assert [p.packet_index for p in extracted] == [0, 2, 4]

    def test_udp_dns_query_payload(self):
        dns = b"\x3a\x21\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x07scalews\x08withings\x03net\x00\x00\x01\x00\x01"
        stream = DeviceStream("monitor", DEV, [_packet(0, dns, kind="UDP", sport=42333, dport=53)])
        extracted = extract_payloads(stream)
        assert len(extracted) == 1
        assert extracted[0].data == dns

    def test_packet_without_transport_is_excluded(self):
        arp = _packet(0, b"\x00\x01\x08\x00", with_transport=False)
        assert extract_payloads(DeviceStream("monitor", DEV, [arp])) == []

    def test_direction_follows_device_mac(self):
        packets = [_packet(0, b"out", src=DEV, dst=AP), _packet(1, b"in", src=AP, dst=DEV)]
        extracted = extract_payloads(DeviceStream("monitor", DEV, packets))
        assert [p.direction for p in extracted] == ["outbound", "inbound"]

    @settings(max_examples=100)
    @given(
        rows=st.lists(
            st.tuples(
                st.binary(max_size=8), st.sampled_from(("TCP", "UDP")), st.booleans(), st.booleans(),
                st.sampled_from((80, 443, 8883)),
            ),
            max_size=20,
        )
    )
    def test_payloads_equal_the_per_packet_loop(self, rows):
        packets = [
            _packet(i, data, kind, *((DEV, AP) if outbound else (AP, DEV)), dport=port, with_transport=transport)
            for i, (data, kind, outbound, transport, port) in enumerate(rows)
        ]
        stream = DeviceStream("monitor", DEV, packets)
        assert extract_payloads(stream) == extract_payloads_oracle(stream)


class TestDetectTls:
    def test_port_and_record(self):
        verdict = detect_tls(_payload(b"\x17\x03\x03\x01\x00" + b"\x00" * 16, dport=443))
        assert verdict.is_tls
        assert verdict.reason == "both"
        assert verdict.version == (3, 3)

    def test_plain_http_on_port_80(self):
        verdict = detect_tls(_payload(b"GET / HTTP/1.1\r\n\r\n", dport=80))
        assert not verdict.is_tls
        assert verdict.reason is None
        assert verdict.version is None

    def test_record_on_nonstandard_port(self):
        verdict = detect_tls(_payload(b"\x16\x03\x01\x00\xa0" + b"\x00" * 8, dport=8883))
        assert verdict.is_tls
        assert verdict.reason == "record-based"
        assert verdict.version == (3, 1)

    def test_port_443_without_record_shape(self):
        verdict = detect_tls(_payload(b"binary-but-not-tls", sport=443))
        assert verdict.is_tls
        assert verdict.reason == "port-based"
        assert verdict.version is None

    def test_bad_version_minor_is_not_a_record(self):
        assert not detect_tls(_payload(b"\x16\x03\x09\x00\x10", dport=80)).is_tls

    def test_short_payload_cannot_match_record_rule(self):
        assert not detect_tls(_payload(b"\x16\x03", dport=80)).is_tls

    @settings(max_examples=50)
    @given(
        data=st.binary(min_size=3, max_size=64),
        tail=st.binary(max_size=64),
        sport=st.integers(1, 65535),
        dport=st.integers(1, 65535),
    )
    def test_depends_only_on_ports_and_first_three_bytes(self, data, tail, sport, dport):
        a = detect_tls(_payload(data, sport=sport, dport=dport))
        b = detect_tls(_payload(data + tail, sport=sport, dport=dport))
        assert a == b

    _ports = st.sampled_from((443, 80, 8883, 0, 65535)) | st.integers(0, 65535)
    _record_heads = st.tuples(st.integers(0x13, 0x18), st.integers(2, 4), st.integers(0, 5)).map(bytes)

    @settings(max_examples=300)
    @given(
        sport=_ports,
        dport=_ports,
        data=st.binary(max_size=8)
        | st.tuples(_record_heads, st.binary(max_size=8), st.integers(0, 12)).map(lambda t: (t[0] + t[1])[: t[2]]),
    )
    def test_verdict_equals_a_fresh_verdict(self, sport, dport, data):
        payload = _payload(data, sport=sport, dport=dport)
        assert detect_tls(payload) == detect_tls_oracle(payload)

    def test_shared_verdicts_are_frozen(self):
        verdict = detect_tls(_payload(b"\x17\x03\x03\x00\x10", dport=443))
        assert verdict is detect_tls(_payload(b"\x17\x03\x03", sport=443))
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.is_tls = False


FIG_REQUEST = (
    b"GET /probe?b=blood_pressure,heart_pulse HTTP/1.1\r\n"
    b"Host: scalews.withings.net\r\n"
    b"Cookie: current_user=48213; token=abc\r\n"
    b"\r\n"
)


class TestParseHttp:
    def test_request_with_health_terms(self):
        message = parse_http(FIG_REQUEST)
        assert message.kind == "request"
        assert message.method == "GET"
        assert "blood_pressure" in message.url
        assert message.host == "scalews.withings.net"
        assert ("current_user", "48213") in message.cookies
        assert ("token", "abc") in message.cookies

    def test_response(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Type: image/jpeg\r\n\r\n\xff\xd8\xff\xe0"
        message = parse_http(raw)
        assert message.kind == "response"
        assert message.status_code == 200
        assert ("Content-Type", "image/jpeg") in message.headers

    def test_dns_bytes_are_not_http(self):
        assert parse_http(b"\x3a\x21\x81\x80\x00\x01\x00\x01") is None

    def test_unknown_method_is_not_http(self):
        assert parse_http(b"FROB / HTTP/1.1\r\n\r\n") is None

    def test_status_code_out_of_range_rejected(self):
        assert parse_http(b"HTTP/1.1 999 Nope\r\n\r\n") is None
        assert parse_http(b"HTTP/1.1 099 Nope\r\n\r\n") is None

    def test_malformed_header_lines_are_skipped(self):
        raw = b"GET /x HTTP/1.1\r\nHost: h.example\r\ngarbage line no colon\r\nX-Ok: 1\r\n\r\n"
        message = parse_http(raw)
        assert message.host == "h.example"
        assert ("X-Ok", "1") in message.headers
        assert all(name != "garbage line no colon" for name, _ in message.headers)

    def test_set_cookie_takes_first_segment_only(self):
        raw = b"HTTP/1.1 200 OK\r\nSet-Cookie: sid=99; Path=/; HttpOnly\r\n\r\n"
        message = parse_http(raw)
        assert message.cookies == [("sid", "99")]

    def test_request_round_trip_on_parsed_subset(self):
        message = parse_http(FIG_REQUEST)
        serialized = f"{message.method} {message.url} HTTP/1.1\r\n"
        serialized += "".join(f"{name}: {value}\r\n" for name, value in message.headers)
        serialized += "\r\n"
        reparsed = parse_http(serialized.encode("latin-1"))
        assert reparsed == message


_NON_SPACE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0xFF), min_size=1, max_size=8)
_START_LINE = st.one_of(
    st.builds(lambda m, url: f"{m} {url} HTTP/1.1", st.sampled_from(HTTP_METHODS), _NON_SPACE),
    st.builds(lambda v, code: f"HTTP/{v} {code:03d} OK", _NON_SPACE, st.integers(0, 999)),
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=40),
        st.tuples(_START_LINE, st.sampled_from(("\r\n", "\n", "")), st.binary(max_size=20)).map(
            lambda t: (t[0] + t[1]).encode("latin-1") + t[2]
        ),
    )
)
def test_start_line_gate_never_rejects_a_start_line(data):
    """parse_http rejects anything that does not start with one of the
    prefixes; that is exact only if every start line the two regexes accept
    starts with one."""
    first = _LINE_SPLIT.split(data.decode("latin-1"))[0]
    if _REQUEST_LINE.match(first) or _STATUS_LINE.match(first):
        assert data.startswith(_START_LINE_PREFIXES)


class TestContinuationHeuristic:
    def test_header_fragment_looks_like_continuation(self):
        assert looks_like_http_continuation(b"Accept-Language: en-us\r\nCookie: a=1\r\n\r\n")

    def test_full_request_is_not_a_continuation(self):
        assert not looks_like_http_continuation(FIG_REQUEST)

    def test_binary_is_not_a_continuation(self):
        assert not looks_like_http_continuation(b"\x00\x01\x02\x03\xfe\xff")


# --- robustness: the parsers return normally on anything ---------------------

_VALID_START_LINE = st.one_of(
    st.builds(
        lambda m, url: (f"{m} /{url} HTTP/1.1", "request"),
        st.sampled_from(HTTP_METHODS),
        st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=40),
    ),
    st.builds(lambda code: (f"HTTP/1.1 {code} OK", "response"), st.integers(100, 599)),
)


@settings(max_examples=300)
@given(data=st.binary(max_size=1024))
def test_http_parsers_return_normally_on_arbitrary_bytes(data):
    message = parse_http(data)
    assert message is None or isinstance(message, HttpMessage)
    assert looks_like_http_continuation(data) in (True, False)


@settings(max_examples=300)
@given(start=_VALID_START_LINE, newline=st.sampled_from((b"\r\n", b"\n")), tail=st.binary(max_size=1024))
def test_http_parsers_return_normally_after_a_valid_start_line(start, newline, tail):
    line, kind = start
    data = line.encode("latin-1") + newline + tail
    message = parse_http(data)
    assert message.kind == kind
    assert all(isinstance(name, str) and isinstance(value, str) for name, value in message.headers)
    assert looks_like_http_continuation(data) is False
