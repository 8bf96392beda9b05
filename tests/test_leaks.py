"""Leak detection: tokenization, dictionary matching, HTTP structure checks,
image-GET signatures, and evidence soundness."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medleak.classifiers import classify
from medleak.config import parse_dictionary_text
from medleak.leaks import (
    _MATCH_TEXT_CAP,
    CONTEXT_LEN,
    DICTIONARIES,
    Dictionary,
    LeakFinding,
    TimedMessage,
    _MiningRun,
    _dictionary_hits,
    _finding,
    dictionary_match,
    http_leak_scan,
    image_get_signature,
    matches_vendor,
    normalize_text,
    relocate,
    scan_cleartext_payload,
    tokenize,
)
from medleak.payload import AppPayload, HttpMessage, parse_http

from _oracles import dictionary_hits_oracle, image_get_signature_oracle, matches_vendor_oracle, tokenize_oracle

MEDICAL = Dictionary("medical-terms", frozenset({"blood pressure", "heart pulse", "glucose"}))
NAMES = Dictionary("first-names", frozenset({"alice", "bob", "amy"}))
PII = Dictionary("pii-fields", frozenset({"passport", "user id", "ssn"}))
DICTS = [MEDICAL, NAMES, PII]


def _payload(data, index=0):
    return AppPayload(index, "outbound", (40000, 80), data)


class TestTokenize:
    def test_underscore_terms_yield_joined_and_normalized_forms(self):
        tokens = tokenize(b"b=blood_pressure,heart_pulse")
        for expected in ("blood_pressure", "blood pressure", "heart_pulse", "heart pulse", "blood", "pulse"):
            assert expected in tokens

    def test_empty_payload_yields_no_tokens(self):
        assert tokenize(b"") == []
        assert tokenize(b" ,;\r\n=&") == []

    def test_digits_split_from_letters(self):
        tokens = tokenize(b"User=Alice123")
        for expected in ("user", "alice123", "alice"):
            assert expected in tokens

    def test_tokens_are_lowercase(self):
        assert all(t == t.lower() for t in tokenize(b"MiXeD CaSe TEXT_here"))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="aZk09_- .=&\r\n\xe9\xc9\xff", max_size=60))
    def test_equals_the_unshortcut_loop(self, text):
        data = text.encode("latin-1")
        assert tokenize(data) == tokenize_oracle(data)


# raw bytes that reach every branch of the translate split: upper-case
# latin-1 letters (which str.lower lowers, and which end a word as before),
# C1 controls, doubled, leading and trailing joiners, and letter-digit mixes
_RAW_PIECES = st.one_of(
    st.binary(max_size=4),
    st.integers(0xC0, 0xDE).map(lambda byte: bytes([byte])),
    st.integers(0x80, 0x9F).map(lambda byte: bytes([byte])),
    st.sampled_from((b"_", b"-", b"__", b"--", b"_-", b"-_", b" ", b"=", b"\xa0", b"\xff")),
    st.text(alphabet="aZq09", min_size=1, max_size=5).map(str.encode),
)
_RAW_TEXT = st.lists(_RAW_PIECES, max_size=12).map(b"".join)


class TestTranslateSplit:
    """The bytes.translate word split gives the regex split's tokens."""

    @settings(max_examples=500, deadline=None)
    @given(_RAW_TEXT)
    def test_tokenize_equals_the_oracle_on_raw_bytes(self, data):
        assert tokenize(data) == tokenize_oracle(data)

    @settings(max_examples=500, deadline=None)
    @given(_RAW_TEXT, st.data())
    def test_dictionary_tokens_are_the_oracle_tokens_that_a_dictionary_holds(self, data, draw):
        tokens = tokenize_oracle(data)
        entries = draw.draw(st.sets(st.sampled_from(tokens))) if tokens else set()
        run = _MiningRun([Dictionary("pii-fields", frozenset(entries | {"zzz"}))])
        expected = [token for token in tokens if token in run.terms]
        assert run.dictionary_tokens(data) == expected
        assert run.dictionary_tokens(data.decode("latin-1")) == expected

    def test_a_str_beyond_latin_1_splits_as_its_lowercased_text(self):
        """KELVIN SIGN lowers to an ASCII k, and a dotted capital I to i and
        a combining dot: a URL holding them is mined as its lowercased text,
        never refused for what latin-1 cannot encode."""
        url = "/\u212aelvin_\u0130d?uid=\u2603"
        expected = tokenize_oracle(url)
        assert expected == ["kelvin_i", "kelvin i", "kelvin", "i", "d", "uid"]
        run = _MiningRun([Dictionary("medical-terms", frozenset({"kelvin", "kelvin i", "uid"}))])
        assert run.dictionary_tokens(url) == ["kelvin i", "kelvin", "uid"]
        kelvin = [Dictionary("medical-terms", frozenset({"kelvin"}))]
        findings = http_leak_scan(_request(url), (), dictionaries=kelvin, identifier_keys=frozenset())
        assert [(f.category, f.matched_text) for f in findings] == [("url-leak", "kelvin")]


class TestDictionaryValidation:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Dictionary("slang", frozenset({"x"}))

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            Dictionary("medical-terms", frozenset())

    def test_uppercase_entry_rejected(self):
        with pytest.raises(ValueError):
            Dictionary("medical-terms", frozenset({"Asthma"}))

    def test_padded_entry_rejected(self):
        with pytest.raises(ValueError):
            Dictionary("medical-terms", frozenset({" asthma"}))


_VOCABULARY = ("al", "amy", "alice", "bob", "glucose", "ssn", "x", "blood pressure", "heart")


class TestDictionaryMatch:
    def test_medical_term_from_underscore_payload(self):
        data = b"GET /probe?b=blood_pressure,heart_pulse HTTP/1.1\r\n\r\n"
        findings = dictionary_match(tokenize(data), DICTS, packet_index=3, payload=data)
        categories = {f.category for f in findings}
        assert "dictionary-medical" in categories
        medical = [f for f in findings if f.category == "dictionary-medical"]
        assert {f.matched_text for f in medical} == {"blood pressure", "heart pulse"}
        assert all(f.severity == "high" for f in medical)
        assert all(f.packet_index == 3 for f in findings)

    def test_name_hit_warns(self):
        findings = dictionary_match(["alice"], DICTS)
        assert [f.category for f in findings] == ["dictionary-name"]
        assert findings[0].severity == "warn"

    def test_empty_tokens_no_findings(self):
        assert dictionary_match([], DICTS) == []

    def test_short_tokens_do_not_match_names(self):
        short_names = Dictionary("first-names", frozenset({"al", "jo", "amy"}))
        findings = dictionary_match(["al", "jo", "amy"], [short_names])
        assert {f.matched_text for f in findings} == {"amy"}

    def test_duplicate_tokens_give_one_finding_per_dictionary(self):
        findings = dictionary_match(["glucose", "glucose", "glucose"], DICTS)
        assert len(findings) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        at=st.integers(0, 300),
        length=st.integers(1, _MATCH_TEXT_CAP),
        after=st.integers(0, 300),
        data=st.data(),
    )
    def test_context_contains_match(self, at, length, after, data):
        """A match of any length up to the cap, anywhere in the payload, lies
        inside its context window."""
        size = at + length + after
        normalized = data.draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789 =&/.:\xe9", min_size=size, max_size=size))
        matched = normalized[at : at + length]
        finding = _finding(0, "medical-terms", "LEAK", matched, normalized)
        assert finding.matched_text == matched
        assert matched in finding.context
        assert len(finding.context) <= CONTEXT_LEN

    @settings(max_examples=40)
    @given(extra=st.sets(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=10)))
    def test_adding_entries_never_removes_findings(self, extra):
        data = b"glucose level for alice, passport on file"
        tokens = tokenize(data)
        base = {(f.category, f.matched_text) for f in dictionary_match(tokens, [MEDICAL], payload=data)}
        grown = Dictionary("medical-terms", MEDICAL.entries | frozenset(extra))
        result = {(f.category, f.matched_text) for f in dictionary_match(tokens, [grown], payload=data)}
        assert base <= result

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_VOCABULARY), max_size=12),
        st.lists(
            st.tuples(st.sampled_from(list(DICTIONARIES)), st.sets(st.sampled_from(_VOCABULARY), min_size=1)),
            max_size=4,
        ),
    )
    def test_hits_equal_the_per_dictionary_lookup(self, tokens, specs):
        dictionaries = [Dictionary(name, frozenset(entries)) for name, entries in specs]
        assert list(_dictionary_hits(tokens, dictionaries)) == dictionary_hits_oracle(tokens, dictionaries)

    def test_custom_entry_with_joiner_is_matched_in_normalized_space(self):
        pii = parse_dictionary_text("user_id  # account key\n", "pii-fields")
        assert pii.entries == frozenset({"user id"})
        raw = b"POST /sync HTTP/1.1\r\n\r\nuser_id=42&weight=81.5"
        findings = dictionary_match(tokenize(raw), [pii], packet_index=3, payload=raw)
        assert [(f.category, f.matched_text) for f in findings] == [("dictionary-pii", "user id")]
        assert "user id=42&weight" in findings[0].context
        assert relocate(findings[0], raw)


class TestScanBoundary:
    def test_accepts_cleartext_and_findings_relocate(self):
        payload = _payload(b"POST /sync HTTP/1.1\r\nHost: hub.example\r\n\r\nb=blood_pressure&user=alice" + b"&pad=filler" * 30, 7)
        assert classify(payload).consensus == "cleartext"
        findings = scan_cleartext_payload(payload.data, payload.packet_index, DICTS)
        assert {f.packet_index for f in findings} == {payload.packet_index}
        assert findings
        assert all(relocate(f, payload.data) for f in findings)


# words that split in every way tokenize knows: joiners, letter-digit runs,
# two-letter names, case and non-ASCII letters
_WORDS = ("Blood", "pressure", "blood_pressure", "heart-Pulse", "v2", "fw-v2", "al", "Alice123", "x", "42", "\xe9t\xe9")
_ENTRIES = ("blood", "blood pressure", "blood_pressure", "heart pulse", "heart-pulse", "v2", "al", "alice", "42", "x")
_SEPARATORS = ("", " ", "_", "-", "=", "&", ";", "/", "\r\n", "\t", "\x85", "\xa0", "\xc0")
_MIXED_TEXT = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=10).map(
    lambda pairs: "".join(word + separator for word, separator in pairs)
)
_BUILT_DICTIONARIES = st.lists(
    st.tuples(st.sampled_from(list(DICTIONARIES)), st.sets(st.sampled_from(_ENTRIES), min_size=1)),
    min_size=1,
    max_size=4,
).map(lambda specs: [Dictionary(name, frozenset(entries)) for name, entries in specs])
_URL_ALPHABET = "aZk09_-;=/?&.%\xc0"  # a URL in a request line holds no whitespace
_HTTP_ALPHABET = _URL_ALPHABET + " \t\r\n\x85\xa0"


class TestOneMiningPass:
    """The one word scan per text gives the hits of every token, and the
    URL and cookie tokens that analyze_stream skips are payload tokens."""

    @settings(max_examples=300, deadline=None)
    @given(_MIXED_TEXT, _BUILT_DICTIONARIES)
    def test_scan_equals_matching_every_token(self, text, dictionaries):
        data = text.encode("latin-1")
        expected = dictionary_match(tokenize_oracle(data), dictionaries, packet_index=4, payload=data)
        assert scan_cleartext_payload(data, 4, dictionaries) == expected

    @settings(max_examples=300, deadline=None)
    @given(_MIXED_TEXT, _MIXED_TEXT, _MIXED_TEXT, _BUILT_DICTIONARIES)
    def test_url_and_cookie_hits_equal_matching_every_token(self, url, key, value, dictionaries):
        message = _request(url, cookies=[(key, value)])
        expected = []
        for category, text in (("url-leak", url), ("cookie-leak", f"{key}={value}")):
            tokens = tokenize_oracle(text.encode("latin-1"))
            expected += [(category, normalize_text(token)) for token, _ in dictionary_hits_oracle(tokens, dictionaries)]
        findings = http_leak_scan(message, (), dictionaries=dictionaries, identifier_keys=frozenset())
        assert [(f.category, f.matched_text) for f in findings] == expected

    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from(["GET", "POST", "HTTP/1.1 200"]),
        st.text(alphabet=_URL_ALPHABET, min_size=1, max_size=30),
        st.lists(
            st.tuples(
                st.sampled_from(["Cookie", "Cookie ", "cookie", "Set-Cookie", " Cookie", "Host"]),
                st.lists(st.tuples(st.text(_HTTP_ALPHABET, max_size=12), st.text(_HTTP_ALPHABET, max_size=12)), max_size=3),
            ),
            max_size=4,
        ),
        st.text(alphabet=_HTTP_ALPHABET, max_size=20),
    )
    def test_url_and_cookie_tokens_are_payload_tokens(self, start, url, headers, body):
        data = f"{start} {url} HTTP/1.1\r\n".encode("latin-1")
        for name, pairs in headers:
            data += f"{name}:{';'.join(f'{k}={v}' for k, v in pairs)}\r\n".encode("latin-1")
        data += body.encode("latin-1")
        message = parse_http(data)
        assume(message is not None)
        payload_tokens = set(tokenize(data))
        cookie_blob = " ".join(f"{k}={v}" for k, v in message.cookies)
        assert set(tokenize((message.url or "").encode("latin-1"))) <= payload_tokens
        assert set(tokenize(cookie_blob.encode("latin-1"))) <= payload_tokens


def _request(url, host=None, cookies=(), method="GET"):
    return HttpMessage(kind="request", method=method, url=url, host=host, cookies=list(cookies))


class TestHttpLeakScan:
    def test_vendor_identifier_from_host(self):
        raw = b"GET /probe HTTP/1.1\r\nHost: scalews.withings.net\r\n\r\n"
        message = _request("/probe", host="scalews.withings.net")
        findings = http_leak_scan(message, ("*withings*",), packet_index=1, payload=raw)
        assert [f.category for f in findings] == ["vendor-identifier"]
        assert findings[0].matched_text == "scalews.withings.net"

    def test_user_identifier_from_query_key(self):
        raw = b"GET /p?current_user=12345 HTTP/1.1\r\n\r\n"
        message = _request("/p?current_user=12345")
        findings = http_leak_scan(message, (), payload=raw)
        assert [f.category for f in findings] == ["user-identifier"]
        assert "current user" in findings[0].matched_text

    def test_user_identifier_from_cookie_key(self):
        raw = b"GET /p HTTP/1.1\r\nCookie: uid=77\r\n\r\n"
        findings = http_leak_scan(_request("/p", cookies=[("uid", "77")]), (), payload=raw)
        assert [f.category for f in findings] == ["user-identifier"]

    def test_plain_host_no_findings(self):
        raw = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"
        message = _request("/index.html", host="example.com")
        assert http_leak_scan(message, ("*withings*",), dictionaries=DICTS, payload=raw) == []

    def test_url_leak_for_dictionary_hit_in_url(self):
        raw = b"GET /store?b=blood_pressure HTTP/1.1\r\n\r\n"
        message = _request("/store?b=blood_pressure")
        findings = http_leak_scan(message, (), dictionaries=DICTS, payload=raw)
        url_hits = [f for f in findings if f.category == "url-leak"]
        assert {f.matched_text for f in url_hits} == {"blood pressure"}
        assert all(f.severity == "high" for f in url_hits)

    def test_cookie_leak_for_dictionary_hit_in_cookie(self):
        raw = b"GET /p HTTP/1.1\r\nCookie: name=alice\r\n\r\n"
        findings = http_leak_scan(_request("/p", cookies=[("name", "alice")]), (), dictionaries=DICTS, payload=raw)
        assert [f.category for f in findings] == ["cookie-leak"]
        assert findings[0].severity == "warn"

    def test_tokens_hitting_two_dictionaries_give_one_finding_each_in_dictionary_order(self):
        medical = Dictionary("medical-terms", frozenset({"glucose", "insulin"}))
        pii = Dictionary("pii-fields", frozenset({"glucose", "insulin"}))
        raw = b"GET /m?glucose=glucose HTTP/1.1\r\nCookie: insulin=4\r\n\r\n"
        message = _request("/m?glucose=glucose", cookies=[("insulin", "4")])
        findings = http_leak_scan(message, (), dictionaries=[medical, pii], payload=raw)
        expected = [
            ("url-leak", "glucose", "high"),
            ("url-leak", "glucose", "warn"),
            ("cookie-leak", "insulin", "high"),
            ("cookie-leak", "insulin", "warn"),
        ]
        assert [(f.category, f.matched_text, f.severity) for f in findings] == expected
        # the report's sort key ties on these, so emission order is what lands in the report
        ordered = sorted(findings, key=lambda f: (f.packet_index, f.category, f.matched_text))
        assert [(f.category, f.severity) for f in ordered] == [
            ("cookie-leak", "high"),
            ("cookie-leak", "warn"),
            ("url-leak", "high"),
            ("url-leak", "warn"),
        ]

    def test_vendor_identifier_from_url_when_host_clean(self):
        raw = b"GET /q?withings_mobile_app=ios_healthmate HTTP/1.1\r\nHost: proxy.example\r\n\r\n"
        message = _request("/q?withings_mobile_app=ios_healthmate", host="proxy.example")
        findings = http_leak_scan(message, ("*withings*",), payload=raw)
        assert [f.category for f in findings] == ["vendor-identifier"]


class TestMatchesVendor:
    def test_no_patterns_match_nothing(self):
        assert matches_vendor("api.vendor.example", ()) is False
        assert matches_vendor("", ()) is False

    def test_patterns_may_be_a_list(self):
        assert matches_vendor("API.Vendor.example", ["*.other.example", "*vendor*"]) is True
        assert matches_vendor("api.other.net", ["*.other.example", "*vendor*"]) is False

    @pytest.mark.parametrize(
        "subject, pattern, expected",
        [
            ("axbyc", "a*b*c", True),
            ("axyc", "a*b*c", False),
            ("xaxbyc", "a*b*c", False),
            ("scale1.example", "scale?.example", True),
            ("scale12.example", "scale?.example", False),
            ("scale7.example", "scale[0-9].example", True),
            ("scalex.example", "scale[0-9].example", False),
            ("scalex.example", "scale[!0-9].example", True),
            ("Scale.Example", "SCALE.*", True),
        ],
    )
    def test_wildcards_match_as_fnmatch(self, subject, pattern, expected):
        assert matches_vendor(subject, (pattern,)) is expected
        assert matches_vendor_oracle(subject, (pattern,)) is expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.none(), st.text(alphabet="aB.-x1", max_size=8)),
        st.lists(st.text(alphabet="aB.*?[]!-x1", max_size=6), max_size=4),
    )
    def test_equals_fnmatchcase_over_each_pattern(self, subject, patterns):
        assert matches_vendor(subject, patterns) == matches_vendor_oracle(subject, patterns)


class TestImageGetSignature:
    def _timed(self, t, index, method, url, outbound=True, vendor=False):
        raw = f"{method} {url} HTTP/1.1\r\n\r\n".encode()
        return TimedMessage(t, index, HttpMessage(kind="request", method=method, url=url),
                            outbound=outbound, vendor_endpoint=vendor, payload=raw)

    def test_image_get_after_vendor_post_is_flagged(self):
        messages = [
            self._timed(10.0, 1, "POST", "/measure/store", vendor=True),
            self._timed(12.0, 2, "GET", "/img/bpm_usage.jpg"),
        ]
        findings = image_get_signature(messages, window_s=30.0)
        assert [f.category for f in findings] == ["image-get-signature"]
        assert findings[0].packet_index == 2
        assert "bpm usage.jpg" in findings[0].matched_text

    def test_image_get_with_no_prior_traffic_in_window(self):
        messages = [
            self._timed(10.0, 1, "POST", "/measure/store"),
            self._timed(100.0, 2, "GET", "/img/bpm_usage.jpg"),
        ]
        assert image_get_signature(messages, window_s=30.0) == []

    def test_non_image_get_not_flagged(self):
        messages = [
            self._timed(10.0, 1, "POST", "/measure/store"),
            self._timed(12.0, 2, "GET", "/status.html"),
        ]
        assert image_get_signature(messages, window_s=30.0) == []

    def test_inbound_image_fetch_not_flagged(self):
        messages = [
            self._timed(10.0, 1, "POST", "/measure/store"),
            self._timed(12.0, 2, "GET", "/img/x.png", outbound=False),
        ]
        assert image_get_signature(messages, window_s=30.0) == []

    def test_lone_image_get_not_flagged(self):
        assert image_get_signature([self._timed(5.0, 1, "GET", "/img/x.gif")]) == []

    def test_query_string_does_not_hide_extension(self):
        messages = [
            self._timed(10.0, 1, "POST", "/measure/store"),
            self._timed(11.0, 2, "GET", "/img/photo.jpeg?cache=1"),
        ]
        assert len(image_get_signature(messages)) == 1


_TIMED = st.builds(
    lambda t, index, method, url, outbound, vendor: TimedMessage(
        t, index, HttpMessage(kind="request", method=method, url=url),
        outbound=outbound, vendor_endpoint=vendor, payload=f"{method} {url} HTTP/1.1".encode(),
    ),
    st.one_of(st.integers(0, 60).map(float), st.floats(0, 60)),
    st.integers(0, 5),
    st.sampled_from(("GET", "POST")),
    st.sampled_from(("/a.jpg", "/b.PNG?x=1", "/c.txt", "/d")),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TIMED, max_size=12), st.sampled_from((0.0, 1.0, 5.0, 30.0)))
def test_image_get_signature_equals_the_scan_of_every_earlier_message(messages, window_s):
    assert image_get_signature(messages, window_s) == image_get_signature_oracle(messages, window_s)


def test_bundled_dictionaries_cover_spec_anchors(dictionaries):
    by_name = {d.name: d for d in dictionaries}
    assert set(by_name) == {"medical-terms", "first-names", "pii-fields"}
    assert "blood pressure" in by_name["medical-terms"].entries
    assert "heart pulse" in by_name["medical-terms"].entries
    assert "alice" in by_name["first-names"].entries
    assert "passport" in by_name["pii-fields"].entries or "passport number" in by_name["pii-fields"].entries
    for dictionary in dictionaries:
        assert all(e == e.strip().lower() for e in dictionary.entries)
