#!/usr/bin/env python3
"""medleak benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): ``home-mixed``, ``tls-bulk`` and
``corpus-classify``. Every run generates its input from ``--seed`` in a
separate process and writes it to disk first, then:

- ``--trace 0`` measures ``setup_s`` and ``peak_rss_mb`` in fresh child
  processes and times untraced passes for ``--seconds``;
- times are scaled to a nominal CPU speed, read from fixed loops timed
  around each pass and each set-up (reference.py), because the CPU speed of
  a shared host drifts;
- ``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
  reports per-layer metrics from the traced ones (tracing.py).

Every pass's rendered report is hashed and must match the first pass, whose
output is checked for invariants (any seed) and against ``digests.json``
(the default seed and the golden fixtures). Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when any check failed.
The full record goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("home-mixed", "tls-bulk", "corpus-classify")
DEFAULT_SEED = 0
SETUP_RUNS = 7
RSS_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("packets_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("payloads_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("capture.self_s", "s", "lower", "layer total"),
    ("capture.parse_capture.self_s", "s", "lower", "packets_per_s, mb_per_s, peak_rss_mb: tls-bulk most, home-mixed less"),
    ("capture.frames_per_s", "1/s", "higher", "packets_per_s, mb_per_s: tls-bulk most, home-mixed less"),
    ("capture.skipped", "count", "lower", "packets_per_s: tls-bulk, home-mixed (0 on well-formed input)"),
    ("capture.split_by_device.self_s", "s", "lower", "wall_s: home-mixed"),
    ("capture.unattributed", "count", "lower", "wall_s: home-mixed (input property)"),
    ("payload.self_s", "s", "lower", "layer total"),
    ("payload.extract_payloads.self_s", "s", "lower", "wall_s: tls-bulk"),
    ("payload.detect_tls.calls", "count", "lower", "wall_s: tls-bulk"),
    ("payload.tls_share", "ratio", "higher", "wall_s: tls-bulk (input property)"),
    ("payload.parse_http.calls", "count", "lower", "wall_s: home-mixed, tls-bulk"),
    ("payload.parse_http.self_s", "s", "lower", "wall_s: home-mixed, tls-bulk"),
    ("payload.parse_http.useful_ratio", "ratio", "higher", "wall_s: home-mixed, tls-bulk"),
    ("classifiers.self_s", "s", "lower", "layer total"),
    ("classifiers.classify.calls", "count", "lower", "wall_s: home-mixed"),
    ("classifiers.classify.self_s", "s", "lower", "wall_s: home-mixed"),
    ("classifiers.cleartext_share", "ratio", "higher", "wall_s: home-mixed (input property)"),
    ("classifiers.compare_methods.self_s", "s", "lower", "payloads_per_s: corpus-classify"),
    ("classifiers.classify_ascii.calls", "count", "lower", "payloads_per_s: corpus-classify"),
    ("classifiers.classify_ascii.self_s", "s", "lower", "payloads_per_s: corpus-classify"),
    ("classifiers.shannon_entropy.calls", "count", "lower", "payloads_per_s: corpus-classify"),
    ("classifiers.shannon_entropy.self_s", "s", "lower", "payloads_per_s: corpus-classify"),
    ("classifiers.chi_squared.calls", "count", "lower", "payloads_per_s: corpus-classify"),
    ("classifiers.chi_squared.self_s", "s", "lower", "payloads_per_s: corpus-classify"),
    ("leaks.self_s", "s", "lower", "layer total"),
    ("leaks.scan_cleartext_payload.self_s", "s", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.tokenize.calls", "count", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.tokenize.self_s", "s", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.tokenize_per_cleartext", "ratio", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.dictionary_match.self_s", "s", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.http_leak_scan.self_s", "s", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.matches_vendor.calls", "count", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.matches_vendor.self_s", "s", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.image_get_signature.self_s", "s", "lower", "wall_s, packets_per_s: home-mixed; none on tls-bulk"),
    ("leaks.findings", "count", "higher", "wall_s: home-mixed (output property)"),
    ("metadata.self_s", "s", "lower", "layer total"),
    ("metadata.extract_dns_answers.self_s", "s", "lower", "wall_s: tls-bulk, home-mixed"),
    ("metadata.resolve_hostnames.calls", "count", "lower", "wall_s: tls-bulk, home-mixed"),
    ("metadata.resolve_hostnames.self_s", "s", "lower", "wall_s: tls-bulk, home-mixed"),
    ("metadata.activity_periods.self_s", "s", "lower", "wall_s: tls-bulk, home-mixed"),
    ("metadata.activity_periods.periods", "count", "lower", "wall_s: tls-bulk, home-mixed (output property)"),
    ("metadata.endpoint_profiles.self_s", "s", "lower", "wall_s: tls-bulk, home-mixed"),
    ("metadata.periodicity_hint.self_s", "s", "lower", "wall_s: tls-bulk, home-mixed"),
    ("report.self_s", "s", "lower", "layer total"),
    ("report.analyze.self_s", "s", "lower", "wall_s: home-mixed, tls-bulk"),
    ("report.analyze_stream.self_s", "s", "lower", "wall_s: home-mixed (many devices), tls-bulk (many periods)"),
    ("report.analyze_stream.calls", "count", "lower", "wall_s: home-mixed (many devices)"),
    ("report.render.self_s", "s", "lower", "wall_s: home-mixed (many devices), tls-bulk (many periods)"),
    ("report.render_bytes", "B", "lower", "wall_s: home-mixed, tls-bulk (output property)"),
    ("config.self_s", "s", "lower", "layer total"),
    ("config.load_dictionaries.self_s", "s", "lower", "setup_s: every workload"),
    ("trace.wall_s", "s", "lower", "traced wall_s: every workload"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s / untraced wall_s"),
)


def tail(values: list[float]) -> tuple[int, float]:
    """(q, value): the highest whole percentile q, by nearest rank, that has at
    least ten samples beyond it. Fewer than eleven samples give the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    q = 100 * (n - 10) // n
    return q, ordered[max(math.ceil(q * n / 100), 1) - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child(*args: str) -> dict:
    """Run one worker job in a fresh interpreter; return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, measure and check one workload; return its full record."""
    # The report names the capture file, so the name must not vary between runs.
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    stem = run_dir / f"{workload}-seed{seed}"
    meta_path = stem.with_suffix(".meta.json")
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        record["input"] = child("generate", "--workload", workload, "--seed", str(seed), "--stem", str(stem))
        if not trace:
            setups = [child("setup") for _ in range(SETUP_RUNS)]
            record["setup_s"] = [run["setup_s"] for run in setups]
            record["raw_setup_s"] = [run["raw_setup_s"] for run in setups]
            record["peak_rss_mb"] = [child("rss", "--meta", str(meta_path))["peak_rss_mb"] for _ in range(RSS_RUNS)]
        record["measure"] = child(
            "measure", "--meta", str(meta_path), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--spans", str(OUT / f"{workload}.spans.jsonl"),
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["metrics"] = end_to_end(record) if not trace else per_layer(record)
    return record


def end_to_end(record: dict) -> dict:
    meta, measure = record["input"], record["measure"]
    walls = measure["walls"]
    wall = statistics.median(walls)
    q, tail_value = tail(walls)
    packets = measure["summary"]["decoded_packets"]
    input_bytes = meta["payload_bytes"] if record["workload"] == "corpus-classify" else meta["bytes"]
    values = {
        "wall_s": (wall, len(walls), "median"),
        "wall_s_tail": (tail_value, len(walls), f"p{q}"),
        "packets_per_s": (packets / wall, len(walls), "per median pass"),
        "mb_per_s": (input_bytes / 1e6 / wall, len(walls), "per median pass"),
        "payloads_per_s": (measure["summary"]["payloads"] / wall, len(walls), "per median pass"),
        "peak_rss_mb": (statistics.median(record["peak_rss_mb"]), len(record["peak_rss_mb"]), "median"),
        "setup_s": (statistics.median(record["setup_s"]), len(record["setup_s"]), "median"),
    }
    return {name: {"value": values[name][0], "unit": unit, "samples": values[name][1], "stat": values[name][2]}
            for name, unit in END_TO_END}


def per_layer(record: dict) -> dict:
    measure = record["measure"]
    layers = dict(measure["per_layer"])
    layers["trace.overhead_ratio"] = statistics.median(measure["traced_walls"]) / statistics.median(measure["walls"])
    samples = len(measure["traced_walls"])
    return {name: {"value": layers.get(name), "unit": unit, "samples": samples, "stat": "median", "moves": moves}
            for name, unit, _, moves in PER_LAYER}


def describe(record: dict) -> list[str]:
    meta, measure = record["input"], record["measure"]
    lines = [f"== {record['workload']} seed {record['seed']} ({'traced' if record['trace'] else 'untraced'}) =="]
    shown = {k: v for k, v in meta.items() if k not in ("workload", "seed", "input", "registry")}
    lines.append("input: " + json.dumps(shown))
    lines.append("output: " + json.dumps(measure["summary"]) + f" report_sha256 {measure['report_sha256']}")
    raw = measure["raw_walls"] + measure["raw_traced_walls"]
    lines.append(f"timings are scaled to the nominal CPU speed (reference.py): median slowness "
                 f"{statistics.median(measure['slowness']):.6g}; raw pass median {statistics.median(raw):.6g} s"
                 + (f", raw setup median {statistics.median(record['raw_setup_s']):.6g} s"
                    if "raw_setup_s" in record else ""))
    for name, m in record["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:<40} {value:>14} {m['unit']:<6} ({m['stat']}, n={m['samples']})")
    ratio = measure["failed"] / measure["attempted"]
    lines.append(f"  {'failed_ratio':<40} {ratio:>14.6g} {'ratio':<6} "
                 f"({measure['failed']}/{measure['attempted']} operations)")
    lines.extend(f"  FAILED: {failure}" for failure in measure["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "medleak" / "__init__.py").is_file():
        print(f"bench: no medleak sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        record["environment"] = {**environment, "numpy": record["measure"]["numpy"]}
        record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print("\n".join(describe(record)))
        records.append(record)
    print("environment: " + json.dumps(records[0]["environment"]))

    prefix = (lambda r: f"{r['workload']}.") if len(records) > 1 else (lambda r: "")
    attempted = sum(r["measure"]["attempted"] for r in records)
    failed = sum(r["measure"]["failed"] for r in records)
    metrics = {prefix(r) + name: {"value": m["value"], "unit": m["unit"]}
               for r in records for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
