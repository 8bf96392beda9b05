"""Activity segmentation, endpoint profiling, DNS extraction, periodicity."""

import ipaddress
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medleak.capture import parse_capture, split_by_device
from medleak.corpus import (
    SCENARIOS,
    arp_frame,
    build_fixture_capture,
    dns_query_payload,
    dns_response_payload,
    fixture_registry,
    generate_random_capture,
    tcp_frame,
    tls_record,
    udp_frame,
)
from medleak import metadata
from medleak.metadata import (
    ActivityPeriod,
    _parse_dns_response,
    activity_periods,
    endpoint_profiles,
    extract_dns_answers,
    periodicity_hint,
    resolve_hostnames,
)

from _oracles import activity_periods_oracle, parse_dns_response_oracle, resolve_hostnames_oracle
from conftest import stream_of, table_of

DEV = "00:24:e4:1b:20:31"
AP = "b8:27:eb:5a:10:04"
_REMOTES = ("89.30.121.52", "89.30.121.60", "198.51.100.7")


def _frame(outbound=True, remote="89.30.121.52", payload=b"", kind="TCP", sport=40000, dport=80):
    here = "192.168.4.21"
    macs_and_addresses = (DEV, AP, here, remote) if outbound else (AP, DEV, remote, here)
    return (tcp_frame if kind == "TCP" else udp_frame)(*macs_and_addresses, sport, dport, payload)


def _record(t_seconds, **frame):
    return int(t_seconds * 1_000_000), _frame(**frame)


def _stream(records):
    return stream_of("monitor", DEV, table_of(records))


class TestActivityPeriods:
    def test_gap_splits_into_two_periods(self):
        stream = _stream([_record(t) for t in (0, 1, 2, 3600, 3601)])
        periods = activity_periods(stream, gap_threshold=60)
        assert len(periods) == 2
        assert (periods[0].start, periods[0].end, periods[0].packet_count) == (0.0, 2.0, 3)
        assert (periods[1].start, periods[1].end, periods[1].packet_count) == (3600.0, 3601.0, 2)

    def test_empty_stream(self):
        assert activity_periods(_stream([])) == []

    def test_single_packet_zero_duration(self):
        periods = activity_periods(_stream([_record(5.0)]))
        assert len(periods) == 1
        assert periods[0].start == periods[0].end == 5.0
        assert periods[0].packet_count == 1

    def test_gap_exactly_at_threshold_stays_in_period(self):
        stream = _stream([_record(0.0), _record(60.0)])
        assert len(activity_periods(stream, gap_threshold=60)) == 1

    def test_endpoints_and_bytes_are_aggregated(self):
        stream = _stream([
            _record(0.0, remote="89.30.121.52", payload=b"x" * 10),
            _record(1.0, outbound=False, remote="89.30.121.60", payload=b"y" * 20),
        ])
        periods = activity_periods(stream, hostnames={"89.30.121.52": "scalews.withings.net"})
        assert len(periods) == 1
        assert periods[0].endpoints == {("89.30.121.52", "scalews.withings.net"), ("89.30.121.60", None)}
        assert periods[0].bytes_total == (54 + 10) + (54 + 20)

    @settings(max_examples=60, deadline=None)
    @given(
        offsets=st.lists(st.floats(min_value=0.0, max_value=500.0, allow_nan=False), min_size=0, max_size=40),
        gap_a=st.floats(min_value=0.5, max_value=400.0),
        gap_b=st.floats(min_value=0.5, max_value=400.0),
    )
    def test_conservation_and_monotone_coarsening(self, offsets, gap_a, gap_b):
        t = 0.0
        records = []
        for step in offsets:
            t += step
            records.append(_record(t))
        stream = _stream(records)
        small, large = min(gap_a, gap_b), max(gap_a, gap_b)
        periods_small = activity_periods(stream, gap_threshold=small)
        periods_large = activity_periods(stream, gap_threshold=large)
        assert sum(p.packet_count for p in periods_small) == len(records)
        assert sum(p.packet_count for p in periods_large) == len(records)
        assert len(periods_large) <= len(periods_small)
        for earlier, later in zip(periods_small, periods_small[1:]):
            assert earlier.end < later.start  # disjoint and ordered

    def test_nan_threshold_splits_every_packet_and_inf_joins_them(self):
        stream = _stream([_record(t) for t in (0.0, 0.0, 5.0)])
        assert [p.packet_count for p in activity_periods(stream, gap_threshold=math.nan)] == [1, 1, 1]
        assert [p.packet_count for p in activity_periods(stream, gap_threshold=math.inf)] == [3]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_periods_equal_the_per_period_packet_lists(self, data):
        threshold = data.draw(
            st.sampled_from((0.0, -0.0, -1.0, 1.5, 60.0, math.inf, -math.inf, math.nan)) | st.floats(-10.0, 120.0)
        )
        exact_us = int(threshold * 1_000_000) if 0 < threshold < math.inf else 1_000_000
        steps = st.sampled_from((0, 1, exact_us - 1, exact_us, exact_us + 1)) | st.integers(0, 3 * exact_us)
        kinds = st.sampled_from(("arp", "outbound", "inbound"))
        records, t_us = [], 1_700_000_000_000_000
        for step, kind, remote, size in data.draw(
            st.lists(st.tuples(steps, kinds, st.sampled_from(_REMOTES), st.integers(0, 1500)), max_size=30)
        ):
            t_us += step
            if kind == "arp":  # a 60-byte broadcast with no IP layer
                records.append((t_us, arp_frame(DEV, "192.168.4.21", "192.168.4.1")))
            else:
                records.append((t_us, _frame(outbound=kind == "outbound", remote=remote, payload=bytes(size))))
        names = st.sampled_from(("a.example", "b.example"))
        hostnames = data.draw(st.none() | st.dictionaries(st.sampled_from(_REMOTES), names))
        stream = _stream(records)
        assert activity_periods(stream, threshold, hostnames) == activity_periods_oracle(stream, threshold, hostnames)
        if hostnames is None:
            assert activity_periods(stream, threshold) == activity_periods_oracle(stream, threshold)


class TestPeriodicity:
    def _period(self, start):
        return ActivityPeriod(start, start, 1, 0, set())

    def test_daily_pattern(self):
        hint = periodicity_hint([self._period(t) for t in (0, 86400, 172800)])
        assert hint.median_interval == 86400
        assert hint.dispersion == 0

    def test_two_periods_is_none(self):
        assert periodicity_hint([self._period(0), self._period(100)]) is None

    def test_median_of_mixed_intervals(self):
        hint = periodicity_hint([self._period(t) for t in (0, 100, 90000, 90100)])
        assert hint.median_interval == 100
        assert hint.dispersion == 0


class TestEndpoints:
    def test_dns_answer_attaches_hostname_and_vendor_flag(self):
        stream = _stream([_record(0.0, remote="89.30.121.52")])
        profiles = endpoint_profiles(stream, {"89.30.121.52": "scalews.withings.net"}, ("*withings*",))
        assert len(profiles) == 1
        assert profiles[0].hostname == "scalews.withings.net"
        assert profiles[0].vendor_flag is True
        assert profiles[0].packet_count == 1

    def test_unresolved_address_has_no_hostname(self):
        profiles = endpoint_profiles(_stream([_record(0.0, remote="198.51.100.7")]), {}, ("*withings*",))
        assert profiles[0].hostname is None
        assert profiles[0].vendor_flag is False

    def test_empty_stream_yields_no_profiles(self):
        assert endpoint_profiles(_stream([]), {}, ()) == []

    def test_profile_counts_sum_to_ip_packet_count(self):
        records = [
            _record(0.0, remote="198.51.100.9"),
            _record(1.0, remote="198.51.100.7"),
            _record(2.0, remote="198.51.100.9", outbound=False),
            _record(3.0, remote="198.51.100.10"),
        ]
        profiles = endpoint_profiles(_stream(records), {}, ())
        assert sum(p.packet_count for p in profiles) == 4
        # first-seen order, which is neither numeric nor string address order
        assert [(p.address, p.packet_count) for p in profiles] == [
            ("198.51.100.9", 2), ("198.51.100.7", 1), ("198.51.100.10", 1),
        ]

    def test_http_host_resolves_hostname_without_dns(self):
        request = b"GET /x HTTP/1.1\r\nHost: api.vendor.example\r\n\r\n"
        stream = _stream([_record(0.0, remote="198.51.100.20", payload=request)])
        hostmap = resolve_hostnames(stream, {})
        assert hostmap == {"198.51.100.20": "api.vendor.example"}
        profiles = endpoint_profiles(stream, {}, ("*vendor.example",))
        assert profiles[0].hostname == "api.vendor.example"
        assert profiles[0].vendor_flag is True

    def test_hostnames_resolve_as_oracle(self):
        tls = tls_record(0x17, 3, b"\x8f" * 64)
        hand_built = [_stream([
            _record(0.0, remote="198.51.100.20", payload=tls, dport=443),  # TLS, never resolved
            _record(1.0, remote="198.51.100.21", payload=tls, dport=443),
            _record(2.0, remote="198.51.100.21", payload=b"GET /late HTTP/1.1\r\nHost: late.example\r\n\r\n"),
            _record(3.0, remote="198.51.100.22", payload=b"GET without a version\r\nHost: no.example\r\n\r\n"),
            _record(4.0, remote="198.51.100.23", payload=b"HTTP/1.1 200 OK\r\nHost: reply.example\r\n\r\n",
                    outbound=False),
            _record(5.0, remote="198.51.100.24", payload=b"get /lower HTTP/1.1\r\nHost: lower.example\r\n\r\n"),
            _record(6.0, remote="198.51.100.25", payload=b"GET / HTTP/1.1\r\nHost: udp.example\r\n\r\n", kind="UDP"),
        ])]
        captures = [generate_random_capture(seed) for seed in range(30)]
        captures += [(build_fixture_capture(s), fixture_registry(s)) for s in SCENARIOS]
        cases = [(stream, {}) for stream in hand_built]
        for data, registry in captures:
            packets = parse_capture(data).packets
            streams, _ = split_by_device(packets, registry)
            answers = extract_dns_answers(packets)
            # without the DNS answers, every TLS remote stays unresolved
            cases += [(stream, dns) for stream in streams for dns in (answers, {})]
        for stream, dns in cases:
            assert resolve_hostnames(stream, dns) == resolve_hostnames_oracle(stream, dns)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), with_dns=st.booleans())
    def test_profiles_from_resolved_hostnames_equal_profiles_from_dns_answers(self, seed, with_dns):
        # analyze_stream hands endpoint_profiles the hostnames it has resolved
        data, registry = generate_random_capture(seed)
        packets = parse_capture(data).packets
        streams, _ = split_by_device(packets, registry)
        dns = extract_dns_answers(packets) if with_dns else {}
        patterns = ("*vendor.example",)
        for stream in streams:
            hostnames = resolve_hostnames(stream, dns)
            assert resolve_hostnames(stream, hostnames) == hostnames
            assert endpoint_profiles(stream, hostnames, patterns) == endpoint_profiles(stream, dns, patterns)


class TestDnsExtraction:
    def test_parses_a_records_from_response_frame(self):
        payload = dns_response_payload(0x3A21, "scalews.withings.net", ["89.30.121.52"])
        frame = udp_frame(AP, DEV, "192.168.4.1", "192.168.4.21", 53, 42333, payload)
        table = table_of([(1_000_000, frame)])
        assert extract_dns_answers(table) == {"89.30.121.52": "scalews.withings.net"}

    def test_query_is_ignored(self):
        frame = udp_frame(DEV, AP, "192.168.4.21", "192.168.4.1", 42333, 53, dns_query_payload(1, "x.example"))
        table = table_of([(1_000_000, frame)])
        assert extract_dns_answers(table) == {}

    def test_non_dns_udp_is_ignored(self):
        frame = udp_frame(DEV, AP, "192.168.4.21", "192.168.4.1", 9999, 9999, b"\x00" * 30)
        table = table_of([(1_000_000, frame)])
        assert extract_dns_answers(table) == {}

    @staticmethod
    def _answers(payload):
        frame = udp_frame(AP, DEV, "192.168.4.1", "192.168.4.21", 53, 42333, payload)
        return extract_dns_answers(table_of([(1_000_000, frame)]))

    def test_truncated_a_answer_is_skipped_and_earlier_answers_kept(self):
        payload = dns_response_payload(7, "multi.example", ["198.51.100.1", "198.51.100.2"])
        assert self._answers(payload[:-2]) == {"198.51.100.1": "multi.example"}
        assert self._answers(dns_response_payload(7, "one.example", ["198.51.100.1"])[:-2]) == {}

    def test_truncated_aaaa_answer_is_skipped_and_earlier_answers_kept(self):
        question = b"\x02v6\x07example\x00" + struct.pack("!HH", 28, 1)
        answers = b"".join(
            struct.pack("!HHHIH", 0xC00C, 28, 1, 300, 16) + ipaddress.IPv6Address(address).packed
            for address in ("2001:db8::1", "2001:db8::2")
        )
        for count, body in ((1, answers[:22]), (2, answers[:-6])):
            payload = struct.pack("!HHHHHH", 7, 0x8180, 1, count, 0, 0) + question + body
            expected = {} if count == 1 else {"2001:db8::1": "v6.example"}
            assert self._answers(payload) == expected

    def test_multiple_answers(self):
        payload = dns_response_payload(7, "multi.example", ["198.51.100.1", "198.51.100.2"])
        frame = udp_frame(AP, DEV, "192.168.4.1", "192.168.4.21", 53, 42333, payload)
        table = table_of([(1_000_000, frame)])
        answers = extract_dns_answers(table)
        assert answers == {"198.51.100.1": "multi.example", "198.51.100.2": "multi.example"}


# --- robustness: the DNS response parser returns normally on anything --------

def _assert_address_to_name_map(answers):
    assert isinstance(answers, dict)
    for address, name in answers.items():
        ipaddress.ip_address(address)
        assert isinstance(name, str)


@settings(max_examples=300)
@given(data=st.binary(max_size=512))
def test_dns_response_parser_returns_normally_on_arbitrary_bytes(data):
    _assert_address_to_name_map(_parse_dns_response(data))


@settings(max_examples=300)
@given(data=st.binary(max_size=512), flags=st.integers(0, 0xFFFF), qdcount=st.integers(0, 0xFFFF))
def test_dns_response_parser_equals_the_unbounded_question_loop(data, flags, qdcount):
    assert _parse_dns_response(data) == parse_dns_response_oracle(data)
    shaped = struct.pack("!HHH", 0x3A21, flags | 0x8000, qdcount) + data  # a response with any qdcount
    assert _parse_dns_response(shaped) == parse_dns_response_oracle(shaped)


@pytest.mark.parametrize("body", [b"", b"\x00", b"\x01a\x00\x00\x01\x00\x01", b"\xc0\x0c" * 8])
def test_hostile_question_count_stops_at_the_end_of_the_message(body, monkeypatch):
    calls = []
    decode = metadata._decode_dns_name

    def counted(data, offset):
        calls.append(offset)
        return decode(data, offset)

    monkeypatch.setattr(metadata, "_decode_dns_name", counted)
    data = struct.pack("!HHHHHH", 0x3A21, 0x8180, 0xFFFF, 0xFFFF, 0, 0) + body
    assert _parse_dns_response(data) == {}
    assert len(calls) <= len(data)


# Bytes shaped like the sections of a response, so that questions are
# skipped and A and AAAA records with short or long rdata are common.
_NAME_LIKE = st.one_of(st.sampled_from((b"\x00", b"\xc0\x0c", b"\x01a\x00")), st.binary(max_size=12))
_QUESTION_LIKE = st.builds(lambda name, rest: name + rest, _NAME_LIKE, st.binary(min_size=4, max_size=4))
_RECORD_LIKE = st.builds(
    lambda name, type_and_length, rdata: name + struct.pack("!HHIH", type_and_length[0], 1, 300, type_and_length[1])
    + rdata,
    _NAME_LIKE,
    st.one_of(st.sampled_from(((1, 4), (28, 16))), st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))),
    st.binary(max_size=20),
)


@settings(max_examples=300)
@given(
    flags=st.integers(0, 0xFFFF),
    questions=st.lists(_QUESTION_LIKE, max_size=2),
    records=st.lists(_RECORD_LIKE, max_size=4),
    extra_answers=st.integers(0, 2),
    tail=st.binary(max_size=24),
    cut=st.integers(0, 8),
)
def test_dns_response_parser_returns_normally_after_a_response_header(
    flags, questions, records, extra_answers, tail, cut
):
    body = b"".join(questions + records) + tail
    body = body[: max(0, len(body) - cut)]  # a snap length may cut the last record short
    header = struct.pack("!HHHHHH", 0x3A21, flags | 0x8000, len(questions), len(records) + extra_answers, 0, 0)
    _assert_address_to_name_map(_parse_dns_response(header + body))


@settings(max_examples=300)
@given(
    questions=st.lists(_QUESTION_LIKE, max_size=2),
    records=st.lists(_RECORD_LIKE, max_size=4),
    qdcount=st.one_of(st.integers(0, 4), st.just(0xFFFF)),
    ancount=st.integers(0, 6),
    cut=st.integers(0, 8),
)
def test_shaped_dns_responses_equal_the_unbounded_question_loop(questions, records, qdcount, ancount, cut):
    body = b"".join(questions + records)
    header = struct.pack("!HHHHHH", 0x3A21, 0x8180, qdcount, ancount, 0, 0)
    data = header + body[: max(0, len(body) - cut)]
    assert _parse_dns_response(data) == parse_dns_response_oracle(data)
