"""Command-line interface: analyze captures, generate corpora and fixtures,
and compare cleartext-detection methods."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .capture import MalformedCapture
from .classifiers import (
    DECISION_METHODS,
    DEFAULT_CHI_THRESHOLD,
    DEFAULT_ENTROPY_THRESHOLD,
    ClassifierConfig,
    MethodStats,
    compare_methods,
)
from .config import THRESHOLDS, ConfigError, RunConfig, load_config, load_registry, normalize_method, save_registry
from .corpus import (
    DEFAULT_LENGTH_RANGE,
    SCENARIOS,
    CorpusSpec,
    build_fixture_capture,
    fixture_registry,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from .report import EXIT_ERROR, analyze, render

_METHOD_LABELS = {"ascii": "naive-ascii", "entropy": "shannon-entropy", "chi_squared": "chi-squared"}
# each compare-methods JSON row: its threshold, then these MethodStats values
_ROW_KEYS = ("precision", "recall", "fraction_flagged", "true_positives", "false_positives", "false_negatives")


class _Parser(argparse.ArgumentParser):
    # exit codes <= 2 are reserved for analysis outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="medleak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze capture files and emit device privacy reports")
    p_analyze.add_argument("--capture", action="append", required=True, metavar="PCAP",
                           help="capture file (repeatable)")
    p_analyze.add_argument("--registry", metavar="INI", help="device registry file with a [devices] section")
    p_analyze.add_argument("--config", metavar="INI", help="run configuration file")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    for name, kind in THRESHOLDS.items():
        p_analyze.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
    p_analyze.add_argument("--decision-method", type=normalize_method, choices=DECISION_METHODS, dest="decision_method")
    p_analyze.add_argument("--dict-dir", type=Path, dest="dict_dir")

    p_corpus = sub.add_parser("gen-corpus", help="generate a labeled synthetic corpus")
    p_corpus.add_argument("--seed", type=int, required=True)
    p_corpus.add_argument("--out", required=True, metavar="DIR")
    p_corpus.add_argument("--n-cleartext", type=int, default=1000)
    p_corpus.add_argument("--n-encrypted", type=int, default=1000)
    p_corpus.add_argument("--min-len", type=int, default=DEFAULT_LENGTH_RANGE[0])
    p_corpus.add_argument("--max-len", type=int, default=DEFAULT_LENGTH_RANGE[1])

    p_fixture = sub.add_parser("gen-fixture", help="write a named golden-fixture capture")
    p_fixture.add_argument("scenario", choices=SCENARIOS)
    p_fixture.add_argument("--out", required=True, metavar="PCAP")
    p_fixture.add_argument("--registry-out", metavar="INI", help="also write the matching device registry")

    p_compare = sub.add_parser("compare-methods", help="score the three detection methods on a labeled corpus")
    group = p_compare.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", metavar="PATH", help="saved corpus (directory or .jsonl)")
    group.add_argument("--seed", type=int, help="generate a fresh corpus from this seed")
    p_compare.add_argument("--n-cleartext", type=int, default=5000)
    p_compare.add_argument("--n-encrypted", type=int, default=5000)
    p_compare.add_argument("--min-len", type=int, default=DEFAULT_LENGTH_RANGE[0])
    p_compare.add_argument("--max-len", type=int, default=DEFAULT_LENGTH_RANGE[1])
    # several values make a sweep: one row per value
    p_compare.add_argument("--entropy-threshold", type=float, nargs="+", default=[DEFAULT_ENTROPY_THRESHOLD])
    p_compare.add_argument("--chi-threshold", type=float, nargs="+", default=[DEFAULT_CHI_THRESHOLD])
    p_compare.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_analyze(args) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {name: getattr(args, name) for name in (*THRESHOLDS, "decision_method", "dict_dir")}
    if args.registry:
        overrides["registry"] = load_registry(args.registry)
    # replace builds a new RunConfig, so the merged values are checked again
    config = replace(config, **{name: value for name, value in overrides.items() if value is not None})
    if not config.registry:
        raise ConfigError("empty device registry: pass --registry or a config with a [devices] section")
    result = analyze(args.capture, config)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    output = render(result.reports, args.format)
    if args.out:
        Path(args.out).write_bytes(output)
    else:
        sys.stdout.buffer.write(output)
    return result.exit_code


def _cmd_gen_corpus(args) -> int:
    spec = CorpusSpec(
        n_cleartext=args.n_cleartext,
        n_encrypted=args.n_encrypted,
        length_range=(args.min_len, args.max_len),
        seed=args.seed,
    )
    path = save_corpus(generate_corpus(spec), args.out)
    print(f"wrote {spec.n_cleartext + spec.n_encrypted} payloads to {path}")
    return 0


def _cmd_gen_fixture(args) -> int:
    Path(args.out).write_bytes(build_fixture_capture(args.scenario))
    print(f"wrote fixture {args.scenario} to {args.out}")
    if args.registry_out:
        save_registry(fixture_registry(args.scenario), args.registry_out)
        print(f"wrote registry to {args.registry_out}")
    return 0


def _ratio(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _format_method_table(rows: dict[str, list[tuple[float | None, MethodStats]]]) -> str:
    lines = [f"{'Approach':<16} {'Threshold':>9} {'Precision':>10} {'Recall':>7} {'% flagged cleartext':>20}"]
    for method, method_rows in rows.items():
        for threshold, stats in method_rows:
            shown = "-" if threshold is None else f"{threshold:g}"
            lines.append(
                f"{_METHOD_LABELS[method]:<16} {shown:>9} {_ratio(stats.precision):>10} "
                f"{_ratio(stats.recall):>7} {stats.fraction_flagged * 100:>19.1f}%"
            )
    return "\n".join(lines) + "\n"


def _cmd_compare_methods(args) -> int:
    # One compare_methods pass per value of the longer threshold list; the
    # shorter list repeats its last value. Every config is built (and so
    # checked) before the corpus is.
    entropy, chi = args.entropy_threshold, args.chi_threshold
    configs = [
        ClassifierConfig(entropy_threshold=entropy[min(i, len(entropy) - 1)], chi_threshold=chi[min(i, len(chi) - 1)])
        for i in range(max(len(entropy), len(chi)))
    ]
    if args.corpus:
        corpus = load_corpus(args.corpus)
    else:
        corpus = generate_corpus(
            CorpusSpec(args.n_cleartext, args.n_encrypted, (args.min_len, args.max_len), args.seed)
        )
    reports = [compare_methods(corpus, config) for config in configs]
    # a row depends only on its own method's threshold
    rows = {
        "ascii": [(None, reports[0].per_method["ascii"])],
        "entropy": [(value, report.per_method["entropy"]) for value, report in zip(entropy, reports)],
        "chi_squared": [(value, report.per_method["chi_squared"]) for value, report in zip(chi, reports)],
    }
    if args.format == "json":
        doc = {
            method: [{"threshold": threshold, **{key: getattr(stats, key) for key in _ROW_KEYS}}
                     for threshold, stats in method_rows]
            for method, method_rows in rows.items()
        }
        print(json.dumps(doc, indent=2))
    else:
        print(_format_method_table(rows), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "gen-corpus": _cmd_gen_corpus,
        "gen-fixture": _cmd_gen_fixture,
        "compare-methods": _cmd_compare_methods,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, MalformedCapture, ValueError, OSError) as exc:
        print(f"medleak: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
