"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Tolerances are pinned here and
nowhere else."""

import json
import random
import time

import pytest

from medleak.capture import parse_capture, split_by_device
from medleak.classifiers import chi_squared, compare_methods, shannon_entropy
from medleak.cli import main
from medleak.config import RunConfig, load_dictionaries
from medleak.corpus import (
    CorpusSpec,
    deterministic_bytes,
    fixture_registry,
    generate_corpus,
    generate_random_capture,
)
from medleak.leaks import relocate
from medleak.metadata import activity_periods, extract_dns_answers
from medleak.report import analyze, analyze_stream, render

from _oracles import chi_squared_two_pass_oracle, entropy_oracle

CORPUS_SEED = 20170501
ORACLE_SEED = 424243
PLACEMENT_SEED = 515151
CAPTURE_SEED_BASE = 700_000


def _report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_classifier_ordering():
    started = time.perf_counter()
    corpus = generate_corpus(CorpusSpec(5000, 5000, (64, 2048), seed=CORPUS_SEED))
    report = compare_methods(corpus)
    elapsed = time.perf_counter() - started

    ascii_stats = report.per_method["ascii"]
    entropy_stats = report.per_method["entropy"]
    chi_stats = report.per_method["chi_squared"]

    ok = (
        ascii_stats.precision == 1.0
        and chi_stats.precision is not None
        and chi_stats.precision >= 0.95
        and entropy_stats.precision is not None
        and entropy_stats.precision < chi_stats.precision
        and entropy_stats.fraction_flagged > chi_stats.fraction_flagged
        and entropy_stats.fraction_flagged > ascii_stats.fraction_flagged
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        "classifier ordering on 5000+5000 corpus: "
        f"ascii precision={ascii_stats.precision:.3f} ({ascii_stats.fraction_flagged:.1%} flagged), "
        f"chi precision={chi_stats.precision:.3f} ({chi_stats.fraction_flagged:.1%}), "
        f"entropy precision={entropy_stats.precision:.3f} ({entropy_stats.fraction_flagged:.1%}), "
        f"runtime {elapsed:.2f}s",
    )


def test_recall_baseline_at_two_chi_thresholds(capsys):
    # chi-squared recall on criterion 1's corpus at the default threshold and
    # at the Wilson-Hilferty critical value for df = 255 at alpha = 1e-9
    code = main(["compare-methods", "--seed", str(CORPUS_SEED), "--chi-threshold", "1000", "415", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["threshold"] for row in doc["chi_squared"]] == [1000.0, 415.0]
    assert [(row["true_positives"], row["false_negatives"], row["false_positives"]) for row in doc["chi_squared"]] == [
        (4937, 63, 0), (5000, 0, 0),
    ]
    assert [row["recall"] for row in doc["ascii"]] == [3816 / 5000]
    assert [(row["recall"], row["false_positives"]) for row in doc["entropy"]] == [(1.0, 916)]


def test_criterion_2_oracle_equivalence():
    rng = random.Random(ORACLE_SEED)
    worst_entropy = 0.0
    worst_chi = 0.0
    for _ in range(1000):
        data = rng.randbytes(rng.randint(1, 4096))
        worst_entropy = max(worst_entropy, abs(shannon_entropy(data) - entropy_oracle(data)))
        worst_chi = max(worst_chi, abs(chi_squared(data) - chi_squared_two_pass_oracle(data)))
    ok = worst_entropy <= 1e-9 and worst_chi <= 1e-9
    _report(
        2,
        ok,
        f"oracle equivalence on 1000 payloads: max entropy delta {worst_entropy:.2e}, "
        f"max chi-squared delta {worst_chi:.2e} (tolerance 1e-9)",
    )


def test_criterion_3_analytic_anchors():
    checks = (
        ("entropy('AAAA') == 0", abs(shannon_entropy(b"AAAA") - 0.0)),
        ("entropy(all 256 once) == 8", abs(shannon_entropy(bytes(range(256))) - 8.0)),
        ("chi(uniform 256) == 0", abs(chi_squared(bytes(range(256))) - 0.0)),
        ("chi(256 identical) == 65280", abs(chi_squared(b"\x41" * 256) - 65280.0)),
    )
    ok = all(delta <= 1e-12 for _, delta in checks)
    detail = ", ".join(f"{name} (delta {delta:.1e})" for name, delta in checks)
    _report(3, ok, f"analytic anchors within 1e-12: {detail}")


def test_criterion_4_fixture_end_to_end(fixture_dir, tmp_path):
    registry = tmp_path / "registry.conf"

    registry.write_text(
        "[devices]\n" + "".join(f"{m} = {d}\n" for m, d in fixture_registry("bp-monitor-leaky").items())
    )
    bp_exit = main(["analyze", "--capture", str(fixture_dir / "bp-monitor-leaky.pcap"),
                    "--registry", str(registry), "--out", str(tmp_path / "bp.json")])
    bp_result = analyze([fixture_dir / "bp-monitor-leaky.pcap"],
                        RunConfig(registry=fixture_registry("bp-monitor-leaky")))
    categories = {f.category for r in bp_result.reports for f in r.findings}
    required = {"dictionary-medical", "vendor-identifier", "user-identifier", "image-get-signature"}
    medical_terms = {
        f.matched_text for r in bp_result.reports for f in r.findings if f.category == "dictionary-medical"
    }

    registry.write_text(
        "[devices]\n" + "".join(f"{m} = {d}\n" for m, d in fixture_registry("scale-encrypted").items())
    )
    scale_exit = main(["analyze", "--capture", str(fixture_dir / "scale-encrypted.pcap"),
                       "--registry", str(registry), "--out", str(tmp_path / "scale.json")])
    scale_result = analyze([fixture_dir / "scale-encrypted.pcap"],
                           RunConfig(registry=fixture_registry("scale-encrypted")))
    scale_report = scale_result.reports[0]

    ok = (
        required <= categories
        and "blood pressure" in medical_terms
        and bp_exit == 2
        and scale_exit == 0
        and scale_report.findings == []
        and scale_report.tls_count == scale_report.payload_count
    )
    _report(
        4,
        ok,
        f"fixtures end-to-end: bp categories {sorted(categories)} (exit {bp_exit}), "
        f"scale findings {len(scale_report.findings)} with {scale_report.tls_count}/"
        f"{scale_report.payload_count} payloads TLS-excluded (exit {scale_exit})",
    )


def test_criterion_5_conservation_under_randomized_captures():
    dictionaries = load_dictionaries()
    violations = 0
    checked_findings = 0
    started = time.perf_counter()
    for seed in range(CAPTURE_SEED_BASE, CAPTURE_SEED_BASE + 1000):
        data, registry = generate_random_capture(seed)
        parsed = parse_capture(data)
        streams, unattributed = split_by_device(parsed.packets, registry)
        if sum(len(s.packets) for s in streams) + len(unattributed) != len(parsed.packets):
            violations += 1
            continue
        by_index = {p.index: p for p in parsed.packets}
        dns_answers = extract_dns_answers(parsed.packets)
        config = RunConfig(registry=registry)
        for stream in streams:
            periods_fine = activity_periods(stream, gap_threshold=5.0)
            periods_coarse = activity_periods(stream, gap_threshold=60.0)
            if sum(p.packet_count for p in periods_fine) != len(stream.packets):
                violations += 1
            if sum(p.packet_count for p in periods_coarse) != len(stream.packets):
                violations += 1
            if len(periods_coarse) > len(periods_fine):
                violations += 1
            report = analyze_stream("mem", stream, dns_answers, config, dictionaries)
            for finding in report.findings:
                checked_findings += 1
                if not relocate(finding, by_index[finding.packet_index].payload):
                    violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and checked_findings > 0
    _report(
        5,
        ok,
        f"randomized conservation over 1000 captures: {violations} violations, "
        f"{checked_findings} findings relocated ({elapsed:.1f}s)",
    )


def test_criterion_6_threshold_placement():
    rng = random.Random(PLACEMENT_SEED)
    both_encrypted = 0
    total = 10_000
    for i in range(total):
        length = rng.randint(1024, 4096)
        data = deterministic_bytes(PLACEMENT_SEED, f"enc:{i}", length)
        if shannon_entropy(data) > 7.5 and chi_squared(data) < 1000.0:
            both_encrypted += 1
    rate = both_encrypted / total
    ok = rate >= 0.999
    _report(
        6,
        ok,
        f"threshold placement: {both_encrypted}/{total} ({rate:.2%}) long encrypted payloads "
        "have entropy > 7.5 and chi-squared < 1000",
    )


def test_criterion_7_determinism(fixture_dir):
    config_a = RunConfig(registry=fixture_registry("mixed-home"))
    config_b = RunConfig(registry=fixture_registry("mixed-home"))
    path = fixture_dir / "mixed-home.pcap"
    first = render(analyze([path], config_a).reports, "json")
    second = render(analyze([path], config_b).reports, "json")
    ok = first == second and len(first) > 2
    _report(7, ok, f"determinism: two runs produced byte-identical JSON ({len(first)} bytes)")
