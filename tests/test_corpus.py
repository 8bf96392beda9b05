"""Corpus generation determinism, fixture construction, and wire builders."""

import pytest

from medleak.capture import parse_capture
from medleak.classifiers import shannon_entropy
from medleak.corpus import (
    SCENARIOS,
    CorpusSpec,
    InvalidCorpusSpec,
    MalformedCorpus,
    build_fixture_capture,
    deterministic_bytes,
    fixture_registry,
    generate_corpus,
    generate_random_capture,
    load_corpus,
    reserialize,
    save_corpus,
)


class TestGenerateCorpus:
    def test_minimal_spec(self):
        items = generate_corpus(CorpusSpec(1, 1, (256, 256), seed=7))
        assert len(items) == 2
        assert [i.label for i in items] == ["cleartext", "encrypted"]
        assert all(len(i.data) == 256 for i in items)
        assert all(i.seed_record == 7 for i in items)

    def test_same_seed_is_byte_identical(self):
        spec = CorpusSpec(25, 25, (64, 512), seed=99)
        assert generate_corpus(spec) == generate_corpus(spec)

    def test_different_seeds_differ(self):
        a = generate_corpus(CorpusSpec(5, 5, (64, 512), seed=1))
        b = generate_corpus(CorpusSpec(5, 5, (64, 512), seed=2))
        assert a != b

    def test_lengths_within_range(self):
        items = generate_corpus(CorpusSpec(40, 40, (64, 2048), seed=3))
        assert all(64 <= len(i.data) <= 2048 for i in items)

    def test_labels_never_leak_into_payload_bytes(self):
        for item in generate_corpus(CorpusSpec(30, 30, (64, 1024), seed=4)):
            assert b"cleartext" not in item.data
            assert b"encrypted" not in item.data

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidCorpusSpec):
            generate_corpus(CorpusSpec(0, 1, (64, 128), seed=1))
        with pytest.raises(InvalidCorpusSpec):
            generate_corpus(CorpusSpec(1, 0, (64, 128), seed=1))
        with pytest.raises(InvalidCorpusSpec):
            generate_corpus(CorpusSpec(1, 1, (0, 128), seed=1))
        with pytest.raises(InvalidCorpusSpec):
            generate_corpus(CorpusSpec(1, 1, (128, 64), seed=1))

    def test_long_encrypted_payloads_have_high_entropy(self):
        items = generate_corpus(CorpusSpec(1, 200, (1024, 2048), seed=8))
        encrypted = [i for i in items if i.label == "encrypted"]
        assert all(shannon_entropy(i.data) > 7.5 for i in encrypted)

    def test_save_load_round_trip(self, tmp_path):
        items = generate_corpus(CorpusSpec(10, 10, (64, 256), seed=12))
        path = save_corpus(items, tmp_path / "corpus")
        assert path.name == "corpus.jsonl"
        assert load_corpus(tmp_path / "corpus") == items
        assert load_corpus(path) == items

    def test_loaded_records_share_one_string_per_label_and_note(self, tmp_path):
        items = load_corpus(save_corpus(generate_corpus(CorpusSpec(40, 40, (64, 128), seed=13)), tmp_path / "c"))
        for attribute in ("label", "generator_note"):
            first_seen = {}
            for item in items:
                value = getattr(item, attribute)
                assert value is first_seen.setdefault(value, value)
        assert len({item.generator_note for item in items}) > 2

    @pytest.mark.parametrize("record, reason", [
        ('{"label": "cleartext", "generator_note": "x"}', "missing key 'data_b64'"),
        ('{"data_b64": "aGk="}', "missing key 'label'"),
        ('{"label": "cleartext", "data_b64": "aGk"}', "padding"),
        ('{"label": "cleartext", "data_b64": "a$Gk="}', "base64"),
        ('{"label": "Cleartext", "data_b64": "aGk="}', "unknown label 'Cleartext'"),
        ('["cleartext", "aGk="]', "not a JSON object"),
        ("{not json", "Expecting"),
    ])
    def test_malformed_record_names_its_line(self, tmp_path, record, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"label": "encrypted", "data_b64": "aGk="}\n\n' + record + "\n")
        with pytest.raises(MalformedCorpus, match=f"corpus.jsonl:3: .*{reason}"):
            load_corpus(path)


class TestDeterministicBytes:
    def test_reproducible(self):
        assert deterministic_bytes(1, "a", 64) == deterministic_bytes(1, "a", 64)

    def test_tag_and_seed_separate_streams(self):
        assert deterministic_bytes(1, "a", 64) != deterministic_bytes(1, "b", 64)
        assert deterministic_bytes(1, "a", 64) != deterministic_bytes(2, "a", 64)

    def test_prefix_property(self):
        assert deterministic_bytes(5, "x", 128)[:32] == deterministic_bytes(5, "x", 32)


class TestFixtures:
    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="scenario"):
            build_fixture_capture("no-such-scenario")
        with pytest.raises(ValueError, match="scenario"):
            fixture_registry("no-such-scenario")

    def test_fixtures_are_deterministic(self):
        for scenario in SCENARIOS:
            assert build_fixture_capture(scenario) == build_fixture_capture(scenario)

    def test_fixtures_parse_cleanly(self):
        for scenario in SCENARIOS:
            parsed = parse_capture(build_fixture_capture(scenario))
            assert parsed.packets
            assert parsed.warnings == []
            timestamps = [p.timestamp_us for p in parsed.packets]
            assert timestamps == sorted(timestamps)

    def test_fixture_round_trip_is_lossless(self):
        for scenario in SCENARIOS:
            first = parse_capture(build_fixture_capture(scenario)).packets
            second = parse_capture(reserialize(first)).packets
            assert first == second

    def test_bp_fixture_contains_expected_cleartext(self):
        data = build_fixture_capture("bp-monitor-leaky")
        assert data.count(b"blood_pressure") >= 2
        assert b"withings_mobile_app=ios_healthmate" in data
        assert b"current_user" in data
        assert b".jpg" in data

    def test_scale_fixture_is_all_tls_port_443(self):
        parsed = parse_capture(build_fixture_capture("scale-encrypted"))
        for packet in parsed.packets:
            assert packet.transport is not None
            assert 443 in (packet.transport.src_port, packet.transport.dst_port)
            assert packet.payload[0] in (0x14, 0x15, 0x16, 0x17)
            assert packet.payload[1] == 3

    def test_registries_match_scenarios(self):
        assert set(fixture_registry("mixed-home").values()) == {"bp_monitor", "scale"}
        assert len(fixture_registry("bp-monitor-leaky")) == 1
        assert len(fixture_registry("scale-encrypted")) == 1


class TestRandomCapture:
    def test_reproducible(self):
        assert generate_random_capture(42) == generate_random_capture(42)

    def test_parses_without_warnings(self):
        for seed in range(12):
            data, registry = generate_random_capture(seed)
            parsed = parse_capture(data)
            assert parsed.warnings == []
            assert parsed.packets
            assert registry
