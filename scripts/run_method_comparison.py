#!/usr/bin/env python3
"""Compare the three cleartext-detection methods on a seeded synthetic corpus.

Prints a precision / fraction-flagged table like the one the evaluation
harness checks: ASCII is perfectly precise but selective, entropy casts the
widest net with the most false positives, chi-squared keeps high precision
while catching most cleartext.
"""

import argparse

from medleak.classifiers import METHODS, compare_methods
from medleak.corpus import CorpusSpec, InvalidCorpusSpec, generate_corpus
from medleak.report import EXIT_ERROR

LABELS = {"ascii": "Naive ASCII", "entropy": "Shannon Entropy", "chi_squared": "Chi Square"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20170501)
    parser.add_argument("--n", type=int, default=5000, help="payloads per class")
    parser.add_argument("--min-len", type=int, default=64)
    parser.add_argument("--max-len", type=int, default=2048)
    args = parser.parse_args()

    try:
        corpus = generate_corpus(CorpusSpec(args.n, args.n, (args.min_len, args.max_len), args.seed))
    except InvalidCorpusSpec as exc:
        parser.exit(EXIT_ERROR, f"{parser.prog}: error: {exc}\n")
    report = compare_methods(corpus)

    print(f"corpus: {args.n} cleartext + {args.n} encrypted payloads, "
          f"lengths {args.min_len}-{args.max_len}, seed {args.seed}\n")
    print(f"{'Approach':<16} | {'Precision':>9} | {'% flagged cleartext':>19}")
    print("-" * 52)
    for method in METHODS:
        stats = report.per_method[method]
        precision = "n/a" if stats.precision is None else f"{stats.precision:.2f}"
        print(f"{LABELS[method]:<16} | {precision:>9} | {stats.fraction_flagged * 100:>18.1f}%")


if __name__ == "__main__":
    main()
