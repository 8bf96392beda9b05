#!/usr/bin/env python3
"""Sweep the entropy threshold over a labeled corpus.

Lowering the threshold trades recall for precision: fewer encrypted payloads
slip under it, but fewer genuine cleartext payloads are caught too. The sweep
makes that tradeoff concrete for a given length mix.
"""

import argparse

from medleak.classifiers import ClassifierConfig, compare_methods
from medleak.corpus import CorpusSpec, InvalidCorpusSpec, generate_corpus
from medleak.report import EXIT_ERROR


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20170501)
    parser.add_argument("--n", type=int, default=2000, help="payloads per class")
    parser.add_argument("--min-len", type=int, default=64)
    parser.add_argument("--max-len", type=int, default=2048)
    parser.add_argument("--thresholds", type=float, nargs="+",
                        default=(5.0, 6.0, 6.5, 7.0, 7.25, 7.5, 7.75))
    args = parser.parse_args()
    try:
        configs = [ClassifierConfig(entropy_threshold=threshold) for threshold in args.thresholds]
    except ValueError as exc:
        parser.exit(EXIT_ERROR, f"{parser.prog}: error: {exc}\n")

    try:
        corpus = generate_corpus(CorpusSpec(args.n, args.n, (args.min_len, args.max_len), args.seed))
    except InvalidCorpusSpec as exc:
        parser.exit(EXIT_ERROR, f"{parser.prog}: error: {exc}\n")
    print(f"{'threshold':>9} | {'precision':>9} | {'recall':>7} | {'% flagged':>9}")
    print("-" * 45)
    for config in configs:
        report = compare_methods(corpus, config)
        stats = report.per_method["entropy"]
        recall = stats.true_positives / (stats.true_positives + stats.false_negatives)
        precision = "n/a" if stats.precision is None else f"{stats.precision:9.3f}"
        print(f"{config.entropy_threshold:>9.2f} | {precision} | {recall:>7.3f} | {stats.fraction_flagged * 100:>8.1f}%")


if __name__ == "__main__":
    main()
