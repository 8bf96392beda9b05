"""Classifier correctness: analytic anchors, brute-force oracle agreement,
threshold tie rules, consensus logic, and distributional invariants."""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medleak.classifiers import (
    CLEARTEXT,
    DECISION_METHODS,
    ENCRYPTED,
    ClassifierConfig,
    EmptyCorpus,
    EmptyPayload,
    MethodStats,
    chi_squared,
    classify,
    classify_all,
    classify_ascii,
    compare_methods,
    _BATCH,
    _RUN_BYTES,
    _batch_counts,
    _statistics,
    histogram,
    shannon_entropy,
)
from medleak.corpus import CorpusSpec, LabeledPayload, deterministic_bytes, generate_corpus
from medleak.payload import AppPayload

from _oracles import (
    chi_squared_double_loop_oracle,
    chi_squared_two_pass_oracle,
    classify_oracle,
    classify_single_oracle,
    compare_methods_oracle,
    entropy_oracle,
)

ALL_256_ONCE = bytes(range(256))

# The stacked kernel sums entropy over all 256 bins, the oracle over the
# non-empty ones only; the two orders of summation may differ by a few ulp.
ENTROPY_ORACLE_TOLERANCE = 1e-12


def _payload(data, index=0):
    return AppPayload(index, "outbound", (40000, 80), data)


def _results(payloads, **thresholds):
    return classify_all([_payload(data) for data in payloads], ClassifierConfig(**thresholds))


def _entropy_verdict(data, **thresholds):
    return _results([data], **thresholds)[0].entropy_verdict


def _chi_verdict(data, **thresholds):
    return _results([data], **thresholds)[0].chi_verdict


class TestHistogram:
    def test_single_value(self):
        h = histogram(b"AAAA")
        assert h.shape == (256,)
        assert h[65] == 4
        assert h.sum() == 4

    def test_uniform(self):
        h = histogram(ALL_256_ONCE)
        assert all(c == 1 for c in h)
        assert h.sum() == 256

    def test_two_symbols(self):
        h = histogram(b"abab")
        assert h[97] == 2
        assert h[98] == 2

    def test_probabilities_sum_to_one(self):
        h = histogram(b"some arbitrary payload \x00\xff")
        assert abs((h / h.sum()).sum() - 1.0) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptyPayload):
            histogram(b"")


class TestAscii:
    def test_http_request_is_ascii(self):
        assert classify_ascii(b"GET /index.html HTTP/1.1") is True

    def test_high_byte_fails(self):
        assert classify_ascii(b"caf\xc3\xa9") is False

    def test_boundary_0x7f_passes(self):
        assert classify_ascii(b"\x7f") is True

    def test_boundary_0x80_fails(self):
        assert classify_ascii(b"\x80") is False

    def test_empty_raises(self):
        with pytest.raises(EmptyPayload):
            classify_ascii(b"")


class TestEntropyAnchors:
    def test_single_symbol_is_zero(self):
        assert shannon_entropy(b"AAAA") == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_eight(self):
        assert shannon_entropy(ALL_256_ONCE) == pytest.approx(8.0, abs=1e-12)

    def test_two_equiprobable_symbols_is_one(self):
        assert shannon_entropy(b"abab") == pytest.approx(1.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyPayload):
            shannon_entropy(b"")


class TestChiAnchors:
    def test_uniform_256_is_zero(self):
        assert chi_squared(ALL_256_ONCE) == pytest.approx(0.0, abs=1e-12)

    def test_256_identical_bytes(self):
        # one bin (256-1)^2/1 plus 255 bins (0-1)^2/1 = 65025 + 255
        assert chi_squared(b"\x41" * 256) == pytest.approx(65280.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyPayload):
            chi_squared(b"")


class TestOracleAgreement:
    def test_entropy_matches_brute_force_on_random_payloads(self):
        rng = random.Random(1311)
        for _ in range(200):
            data = rng.randbytes(rng.randint(1, 4096))
            assert shannon_entropy(data) == pytest.approx(entropy_oracle(data), abs=1e-9)

    def test_chi_matches_two_pass_oracle_on_random_payloads(self):
        rng = random.Random(1312)
        for _ in range(200):
            data = rng.randbytes(rng.randint(1, 4096))
            assert chi_squared(data) == pytest.approx(chi_squared_two_pass_oracle(data), abs=1e-9)

    def test_chi_matches_double_loop_oracle_on_small_payloads(self):
        rng = random.Random(1313)
        for _ in range(100):
            data = rng.randbytes(32)
            assert chi_squared(data) == pytest.approx(chi_squared_double_loop_oracle(data), abs=1e-9)


class TestThresholdRules:
    def test_high_entropy_is_presumed_encrypted(self):
        data = deterministic_bytes(7, "high-entropy", 4096)  # measured H well above 7.5
        assert shannon_entropy(data) > 7.5
        assert _entropy_verdict(data) is False

    def test_low_entropy_is_cleartext(self):
        assert _entropy_verdict(b"AAAA") is True

    def test_entropy_tie_counts_as_encrypted(self):
        data = ALL_256_ONCE  # entropy exactly 8.0
        assert _entropy_verdict(data, entropy_threshold=8.0) is False
        assert _entropy_verdict(data, entropy_threshold=8.0 + 1e-9) is True

    def test_chi_tie_counts_as_encrypted(self):
        data = b"\x41" * 256  # chi-squared exactly 65280
        assert _chi_verdict(data, chi_threshold=65280.0) is False
        assert _chi_verdict(data, chi_threshold=65279.0) is True

    def test_chi_uniform_payload_not_flagged(self):
        assert _chi_verdict(ALL_256_ONCE) is False

    def test_english_http_requests_exceed_chi_threshold(self):
        corpus = generate_corpus(CorpusSpec(30, 1, (256, 600), seed=11))
        cleartext = [item for item in corpus if item.label == "cleartext"]
        assert any(item.generator_note.startswith("http-request") for item in cleartext)
        for item in cleartext:
            assert chi_squared_two_pass_oracle(item.data) > 1000
        assert all(result.chi_verdict is True for result in _results([item.data for item in cleartext]))

    def test_pseudorandom_2048_bytes_never_flagged_by_chi(self):
        rng = random.Random(4242)
        assert not any(result.chi_verdict for result in _results([rng.randbytes(2048) for _ in range(1000)]))

    @pytest.mark.parametrize("method, threshold, field, data, statistic, past", [
        ("entropy", "entropy_threshold", "entropy_bits", ALL_256_ONCE, 8.0, math.inf),
        ("chi_squared", "chi_threshold", "chi_squared", b"A" * 256, 65280.0, -math.inf),
    ], ids=["entropy", "chi_squared"])
    def test_tie_is_encrypted_in_classify_all_and_compare_methods(self, method, threshold, field, data, statistic,
                                                                   past):
        # entropy flags cleartext strictly below its threshold, chi-squared
        # strictly above; one ulp toward that side turns the tie into cleartext
        for value, expected in ((statistic, ENCRYPTED), (math.nextafter(statistic, past), CLEARTEXT)):
            config = ClassifierConfig(**{threshold: value}, decision_method=method)
            [result] = classify_all([_payload(data)], config)
            assert getattr(result, field) == statistic
            assert result.consensus == expected
            report = compare_methods([LabeledPayload(data, CLEARTEXT, "tie", 0)], config)
            assert report.per_method[method].flagged == (expected == CLEARTEXT)


class TestClassifyConsensus:
    def test_http_payload_is_cleartext(self):
        raw = (
            b"GET /probe?b=blood_pressure,heart_pulse&withings_mobile_app=ios_healthmate HTTP/1.1\r\n"
            b"Host: scalews.withings.net\r\n"
            b"User-Agent: HealthMate/2.1.4 (iPhone; iOS 10.2)\r\n"
            b"Cookie: current_user=48213; session_token=9f27c44ab31e\r\n"
            b"Accept: */*\r\nAccept-Language: en-us\r\nConnection: keep-alive\r\n\r\n"
        )
        assert classify(_payload(raw)).consensus == "cleartext"

    def test_pseudorandom_payload_is_encrypted(self):
        data = deterministic_bytes(8, "enc", 2048)
        result = classify(_payload(data))
        assert result.consensus == "encrypted"
        assert result.ascii_verdict is False

    def test_short_ascii_payload_falls_back_to_cleartext(self):
        result = classify(_payload(b"user=bob42"))
        assert result.consensus == "cleartext"

    def test_short_binary_payload_is_indeterminate(self):
        result = classify(_payload(b"\x81\x80\x00\x01\x00\x02"))
        assert result.consensus == "indeterminate"

    def test_decision_method_is_configurable(self):
        # text whose chi is low at this length but entropy is low too:
        # entropy method says cleartext, chi method may disagree
        data = deterministic_bytes(9, "enc2", 100)
        by_entropy = classify(_payload(data), ClassifierConfig(decision_method="entropy"))
        by_chi = classify(_payload(data), ClassifierConfig(decision_method="chi_squared"))
        assert by_entropy.entropy_verdict == (by_entropy.consensus == "cleartext")
        assert by_chi.chi_verdict == (by_chi.consensus == "cleartext")

    def test_unknown_decision_method_raises(self):
        with pytest.raises(ValueError, match="unknown decision method 'coin-flip'"):
            ClassifierConfig(decision_method="coin-flip")

    @pytest.mark.parametrize("name", ["entropy_threshold", "chi_threshold", "min_stat_len"])
    @pytest.mark.parametrize("value", [float("nan"), 0, -1])
    def test_non_positive_or_nan_setting_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive number"):
            ClassifierConfig(**{name: value})

    def test_deterministic(self):
        data = deterministic_bytes(10, "det", 512)
        assert classify(_payload(data)) == classify(_payload(data))

    def test_empty_raises(self):
        with pytest.raises(EmptyPayload):
            classify(_payload(b""))


class TestCompareMethods:
    def test_all_encrypted_nothing_flagged(self):
        corpus = [
            LabeledPayload(deterministic_bytes(3, f"e{i}", 2048), "encrypted", "xof", 3) for i in range(20)
        ]
        report = compare_methods(corpus)
        for stats in report.per_method.values():
            assert stats.precision is None
            assert stats.fraction_flagged == 0.0
            assert stats.true_positives == 0

    def test_single_cleartext_item_flagged_by_all(self):
        text = ("GET /api/v2/status?id=4711 HTTP/1.1\r\nHost: sync.example\r\n\r\n" + "status ok " * 60).encode()
        assert len(text) >= 256
        report = compare_methods([LabeledPayload(text, "cleartext", "http", 1)])
        for stats in report.per_method.values():
            assert stats.precision == 1.0
            assert stats.fraction_flagged == 1.0

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            compare_methods([])

    def test_counts_reconcile(self):
        corpus = generate_corpus(CorpusSpec(50, 50, (64, 512), seed=5))
        report = compare_methods(corpus)
        for stats in report.per_method.values():
            assert stats.flagged == stats.true_positives + stats.false_positives
            assert stats.true_positives + stats.false_negatives == 50
            assert stats.total == 100

    def test_recall_undefined_without_cleartext(self):
        corpus = [LabeledPayload(deterministic_bytes(4, f"e{i}", 512), "encrypted", "xof", 4) for i in range(5)]
        corpus.append(LabeledPayload(b"A" * 512, "encrypted", "mislabelled", 4))  # flagged by every method
        for stats in compare_methods(corpus).per_method.values():
            assert stats.true_positives == stats.false_negatives == 0
            assert stats.recall is None

    def test_recall_on_a_mixed_corpus(self):
        corpus = generate_corpus(CorpusSpec(50, 50, (64, 512), seed=5))
        cleartext = [item for item in corpus if item.label == CLEARTEXT]
        config = ClassifierConfig()
        caught = {
            "ascii": sum(max(item.data) < 128 for item in cleartext),
            "entropy": sum(entropy_oracle(item.data) < config.entropy_threshold for item in cleartext),
            "chi_squared": sum(chi_squared_two_pass_oracle(item.data) > config.chi_threshold for item in cleartext),
        }
        for method, stats in compare_methods(corpus).per_method.items():
            assert stats.recall == caught[method] / 50
        assert 0 < caught["ascii"] < 50  # the mix has misses as well as hits

    def test_recall_is_not_a_field(self):
        # dataclasses.asdict(MethodStats) is digested by the corpus benchmark
        assert [field.name for field in dataclasses.fields(MethodStats)] == [
            "true_positives", "false_positives", "false_negatives", "flagged", "total",
        ]


# --- invariants ------------------------------------------------------------

@given(data=st.binary(min_size=1, max_size=2048))
def test_entropy_bounds_and_zero_condition(data):
    h = shannon_entropy(data)
    assert 0.0 <= h <= 8.0
    assert (h == 0.0) == (len(set(data)) == 1)


@given(data=st.binary(min_size=1, max_size=1024), seed=st.integers(0, 2**16))
def test_permutation_invariance(data, seed):
    mixed = bytearray(data)
    random.Random(seed).shuffle(mixed)
    mixed = bytes(mixed)
    assert shannon_entropy(mixed) == shannon_entropy(data)
    assert chi_squared(mixed) == chi_squared(data)


@given(data=st.binary(min_size=1, max_size=1024))
def test_chi_nonnegative_and_zero_iff_uniform(data):
    chi = chi_squared(data)
    assert chi >= 0.0
    counts = histogram(data)
    all_equal = len(set(counts.tolist())) == 1
    assert (chi == 0.0) == all_equal


@given(repeats=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**16))
def test_entropy_is_eight_iff_all_values_equally_frequent(repeats, seed):
    data = bytearray(ALL_256_ONCE * repeats)
    random.Random(seed).shuffle(data)
    assert shannon_entropy(bytes(data)) == pytest.approx(8.0, abs=1e-12)
    skewed = bytes(data) + b"\x42"  # one extra byte breaks uniformity
    assert shannon_entropy(skewed) < 8.0


@given(data=st.binary(min_size=1, max_size=512), high_byte=st.integers(128, 255))
def test_ascii_flips_false_with_high_byte_and_never_back(data, high_byte):
    extended = data + bytes([high_byte])
    assert classify_ascii(extended) is False
    if not classify_ascii(data):
        assert classify_ascii(data + b"ascii tail") is False


@given(data=st.binary(min_size=1, max_size=1024))
def test_self_concatenation_keeps_entropy(data):
    assert shannon_entropy(data + data) == shannon_entropy(data)


@given(data=st.binary(min_size=1, max_size=2048))
def test_classify_equals_the_three_public_tests_exactly(data):
    result = classify(_payload(data))
    assert result.ascii_verdict == classify_ascii(data)
    assert result.entropy_bits == shannon_entropy(data)
    assert result.chi_squared == chi_squared(data)


# --- the stacked kernel against the per-payload oracle -----------------------

_payload_bytes = st.one_of(
    st.binary(min_size=1, max_size=2048),
    st.text(min_size=1, max_size=600).map(lambda text: text.encode("utf-8")),
    st.text(alphabet=st.characters(max_codepoint=127), min_size=1, max_size=600).map(str.encode),
)
_configs = st.builds(
    ClassifierConfig,
    entropy_threshold=st.floats(0.01, 9.0),
    chi_threshold=st.floats(0.01, 1e5),
    min_stat_len=st.integers(1, 160),
)


def _assert_close_to_the_oracle(data, config):
    got, want = classify(_payload(data, 7), config), classify_oracle(_payload(data, 7), config)
    assert got.ascii_verdict is want.ascii_verdict
    assert abs(got.entropy_bits - want.entropy_bits) <= ENTROPY_ORACLE_TOLERANCE
    assert dataclasses.replace(got, entropy_bits=want.entropy_bits) == want  # chi² and every verdict exact


@given(data=_payload_bytes, config=_configs)
def test_classify_matches_the_per_payload_oracle(data, config):
    for method in DECISION_METHODS:
        _assert_close_to_the_oracle(data, dataclasses.replace(config, decision_method=method))


@given(config=_configs, offset=st.integers(-2, 2), draw=st.data())
def test_classify_matches_the_oracle_around_min_stat_len(config, offset, draw):
    length = max(1, config.min_stat_len + offset)
    data = draw.draw(st.one_of(
        st.binary(min_size=length, max_size=length),
        st.text(alphabet=st.characters(max_codepoint=127), min_size=length, max_size=length).map(str.encode),
    ))
    for method in DECISION_METHODS:
        _assert_close_to_the_oracle(data, dataclasses.replace(config, decision_method=method))


_ASCII_WORDS = ("status", "blood_pressure", "id=4711", "\r\n")


def _mixed_corpus(seed, size):
    """Binary, ASCII and UTF-8 payloads of 1-600 bytes, labeled at random so
    every tally cell is exercised."""
    rng = random.Random(seed)
    items = []
    for _ in range(size):
        length = rng.randint(1, 600)
        vocabulary = rng.choice((None, _ASCII_WORDS, _ASCII_WORDS + ("café", "über")))
        if vocabulary is None:
            data = rng.randbytes(length)
        else:
            data = " ".join(rng.choices(vocabulary, k=length)).encode()[:length]
        items.append(LabeledPayload(data, rng.choice((CLEARTEXT, ENCRYPTED)), "mixed", seed))
    return items


@settings(max_examples=30, deadline=None)
@given(
    size=st.sampled_from([1, 15, 16, 17, 1000]),
    seed=st.integers(0, 2**32 - 1),
    as_generator=st.booleans(),
    entropy_threshold=st.floats(0.5, 8.5),
    chi_threshold=st.floats(1.0, 5000.0),
)
def test_compare_methods_tallies_equal_the_per_item_oracle(size, seed, as_generator, entropy_threshold, chi_threshold):
    corpus = _mixed_corpus(seed, size)
    config = ClassifierConfig(entropy_threshold=entropy_threshold, chi_threshold=chi_threshold)
    report = compare_methods((item for item in corpus) if as_generator else corpus, config)
    assert report == compare_methods_oracle(corpus, config)
    for stats in report.per_method.values():
        assert all(type(value) is int for value in dataclasses.astuple(stats))


@given(rows=st.lists(_payload_bytes, min_size=1, max_size=20))
def test_a_stacked_row_equals_the_one_dimensional_result(rows):
    counts = np.array([histogram(data) for data in rows], dtype=np.float64)
    lengths = np.array([len(data) for data in rows], dtype=np.float64)
    stacked = _statistics(counts, lengths[:, np.newaxis])
    for row, data in enumerate(rows):
        alone = _statistics(histogram(data), len(data))
        assert [column[row] for column in stacked] == list(alone)


@pytest.mark.parametrize("position", [0, 5, 15, 16, 17])
def test_an_empty_payload_anywhere_in_the_corpus_raises(position):
    corpus = [LabeledPayload(b"status ok " * 10, CLEARTEXT, "text", 0)] * 20
    corpus[position] = LabeledPayload(b"", CLEARTEXT, "empty", 0)
    for score in (compare_methods, compare_methods_oracle):
        with pytest.raises(EmptyPayload):
            score(corpus)
        with pytest.raises(EmptyPayload):
            score(item for item in corpus)


def test_an_empty_generator_raises_empty_corpus():
    for score in (compare_methods, compare_methods_oracle):
        with pytest.raises(EmptyCorpus):
            score(item for item in [])


def _traced_peak(count):
    stream = (
        LabeledPayload(deterministic_bytes(21, f"p{i}", 1024), (CLEARTEXT, ENCRYPTED)[i % 2], "xof", 21)
        for i in range(count)
    )
    tracemalloc.start()
    try:
        compare_methods(stream)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_methods_memory_does_not_grow_with_a_generator_corpus():
    slack = 16 * 1024
    assert _traced_peak(4000) <= _traced_peak(400) + slack


# --- classify_all: stacked batches against one histogram at a time ----------


def _around_min_stat_len(config):
    """Binary or ASCII payloads within two bytes of ``min_stat_len``."""
    lengths = st.integers(-2, 2).map(lambda offset: max(1, config.min_stat_len + offset))
    return lengths.flatmap(lambda n: st.one_of(
        st.binary(min_size=n, max_size=n),
        st.text(alphabet=st.characters(max_codepoint=127), min_size=n, max_size=n).map(str.encode),
    ))


def _assert_equals_the_single_histogram_oracle(rows, config):
    payloads = [_payload(data, index) for index, data in enumerate(rows)]
    for method in DECISION_METHODS:
        method_config = dataclasses.replace(config, decision_method=method)
        got = classify_all(payloads, method_config)
        want = [classify_single_oracle(payload, method_config) for payload in payloads]
        assert got == want  # entropy and chi² bit for bit, every verdict
        assert all(g.ascii_verdict is w.ascii_verdict for g, w in zip(got, want))
        assert all(type(g.entropy_bits) is type(g.chi_squared) is float for g in got)
        assert classify_all(iter(payloads), method_config) == got


@settings(deadline=None)
@given(config=_configs, draw=st.data())
def test_classify_all_equals_the_single_histogram_oracle(config, draw):
    rows = draw.draw(st.lists(st.one_of(_payload_bytes, _around_min_stat_len(config)), max_size=40))
    _assert_equals_the_single_histogram_oracle(rows, config)


@pytest.mark.parametrize("size", [1, 15, 16, 17, 32, 33, 40])
def test_classify_all_equals_the_oracle_across_batch_edges(size):
    rng = random.Random(size)
    rows = [
        rng.randbytes(rng.randint(1, 300)) if rng.random() < 0.5 else b"status ok " * rng.randint(1, 30)
        for _ in range(size)
    ]
    _assert_equals_the_single_histogram_oracle(rows, ClassifierConfig())


def test_classify_all_of_nothing_is_empty():
    assert classify_all([]) == []
    assert classify_all(iter([])) == []


@pytest.mark.parametrize("position", [0, 15, 16, 17])
def test_an_empty_payload_anywhere_in_classify_all_raises(position):
    payloads = [_payload(b"status ok " * 10, index) for index in range(20)]
    payloads[position] = _payload(b"", position)
    with pytest.raises(EmptyPayload):
        classify_all(payloads)
    with pytest.raises(EmptyPayload):
        classify_all(iter(payloads))


# --- the batch kernel: one bincount per run of rows ---------------------------


def _assert_batch_counts_equal_the_histograms(rows):
    counts = _batch_counts(rows, [len(row) for row in rows])
    assert counts.shape == (len(rows), 256)
    for row, data in zip(counts, rows):
        assert np.array_equal(row, histogram(data))


# each row may start and end with 0x00 or 0xFF, next to its neighbours' edges
_edged_row = st.tuples(st.sampled_from([b"", b"\x00", b"\xff"]), st.binary(max_size=3000),
                       st.sampled_from([b"", b"\x00", b"\xff"])).map(b"".join).filter(bool)


@given(rows=st.lists(st.one_of(_edged_row, st.sampled_from([b"\x00", b"\xff", b"a"])), min_size=1, max_size=_BATCH))
def test_batch_counts_equal_one_histogram_per_row(rows):
    _assert_batch_counts_equal_the_histograms(rows)


@pytest.mark.parametrize("lengths", [
    [_RUN_BYTES // _BATCH] * _BATCH,  # the whole batch is exactly one run
    [1000, _RUN_BYTES - 1000],  # exactly at the cap
    [1000, _RUN_BYTES - 999],  # one byte over it
    [_RUN_BYTES - 1, 1, 1],
    [_RUN_BYTES + 1],
    [1, _RUN_BYTES + 1, 1, 2],  # a row longer than the cap between short ones
    [3 * _RUN_BYTES, _RUN_BYTES, 1],
    [1] * _BATCH,
], ids=repr)
def test_batch_counts_at_the_run_cap(lengths):
    rng = random.Random(len(lengths))
    # rows alternate between ending in 0xFF and starting with 0x00
    rows = [(b"\x00" + rng.randbytes(n) + b"\xff")[:n] if i % 2 else (rng.randbytes(n) + b"\xff")[-n:]
            for i, n in enumerate(lengths)]
    assert [len(row) for row in rows] == lengths
    _assert_batch_counts_equal_the_histograms(rows)


def test_classify_all_memory_is_bounded_by_one_batch():
    """Beyond the results it returns, classify_all holds one batch's stack
    at a time; a stack of all 4,000 payloads would take 8 MB per temporary."""
    payloads = [_payload(deterministic_bytes(22, f"p{i}", 1024), i) for i in range(4000)]
    tracemalloc.start()
    try:
        results = classify_all(payloads)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(payloads)
    assert peak - retained <= 256 * 1024


def test_classify_all_memory_is_bounded_for_large_payloads():
    """A payload longer than the run cap is counted alone, so 64 payloads of
    65,000 bytes hold about one payload's 8-byte bincount index at a time; an
    index over a whole batch would take 8.3 MB."""
    payloads = [_payload(deterministic_bytes(23, f"p{i}", 65_000), i) for i in range(64)]
    tracemalloc.start()
    try:
        results = classify_all(payloads)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(payloads)
    assert peak - retained <= 1024 * 1024
