"""Cleartext-vs-encrypted payload classification.

Three per-payload tests over the 256-value byte alphabet: a naive ASCII
check, Shannon entropy in bits per byte, and a chi-squared statistic against
the uniform distribution. A comparison harness scores the three methods on a
labeled corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .corpus import LabeledPayload
    from .payload import AppPayload

DEFAULT_ENTROPY_THRESHOLD = 7.5
DEFAULT_CHI_THRESHOLD = 1000.0
DEFAULT_MIN_STAT_LEN = 64
DEFAULT_DECISION_METHOD = "chi_squared"

METHODS = ("ascii", "entropy", "chi_squared")
DECISION_METHODS = METHODS + ("majority",)

CLEARTEXT = "cleartext"
ENCRYPTED = "encrypted"
INDETERMINATE = "indeterminate"


class EmptyPayload(ValueError):
    """A classifier was handed a zero-length payload."""


class EmptyCorpus(ValueError):
    """Method comparison was run on an empty corpus."""


@dataclass(frozen=True)
class ClassifierConfig:
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    chi_threshold: float = DEFAULT_CHI_THRESHOLD
    # Below this length the statistics are unreliable (expected bin counts
    # fall far below 1), so the ASCII test decides instead.
    min_stat_len: int = DEFAULT_MIN_STAT_LEN
    decision_method: str = DEFAULT_DECISION_METHOD

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.name != "decision_method" and not getattr(self, field.name) > 0:  # also rejects NaN
                raise ValueError(f"{field.name} must be a positive number")
        if self.decision_method not in DECISION_METHODS:
            raise ValueError(
                f"unknown decision method {self.decision_method!r} (expected one of {DECISION_METHODS})"
            )


@dataclass(frozen=True)
class ClassificationResult:
    packet_index: int
    ascii_verdict: bool
    entropy_bits: float
    entropy_verdict: bool
    chi_squared: float
    chi_verdict: bool
    consensus: str  # CLEARTEXT | ENCRYPTED | INDETERMINATE


@dataclass(frozen=True)
class MethodStats:
    true_positives: int
    false_positives: int
    false_negatives: int
    flagged: int
    total: int

    @property
    def precision(self) -> float | None:
        """TP/(TP+FP); None marks the undefined case (nothing flagged)."""
        positives = self.true_positives + self.false_positives
        return self.true_positives / positives if positives else None

    @property
    def fraction_flagged(self) -> float:
        return self.flagged / self.total


@dataclass(frozen=True)
class MethodReport:
    per_method: dict[str, MethodStats]
    total: int


def histogram(data: bytes) -> np.ndarray:
    """256-bin count array of the payload's byte values, from which the
    ASCII, entropy and chi-squared tests are all derived."""
    if not data:
        raise EmptyPayload("payload is empty")
    return np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)


def _is_ascii(counts: np.ndarray) -> bool:
    return not counts[128:].any()


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    value = float(-(p * np.log2(p)).sum())
    return value + 0.0  # fold -0.0 from the single-symbol case


def _chi_squared(counts: np.ndarray, n: int) -> float:
    expected = n / 256.0
    deviation = counts - expected
    return float((deviation * deviation / expected).sum())


def classify_ascii(data: bytes) -> bool:
    """True when every byte is in the 128-value ASCII set."""
    return _is_ascii(histogram(data))


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in bits per byte.

    0 for a single repeated value, 8 when all 256 values are equally
    frequent.
    """
    return _entropy(histogram(data), len(data))


def classify_entropy(data: bytes, threshold: float = DEFAULT_ENTROPY_THRESHOLD) -> bool:
    """True (cleartext) when entropy is strictly below the threshold; a tie
    counts as encrypted."""
    return shannon_entropy(data) < threshold


def chi_squared(data: bytes) -> float:
    """Chi-squared statistic of byte frequencies against a uniform
    expectation over all 256 bins. Zero iff every bin count is equal."""
    return _chi_squared(histogram(data), len(data))


def classify_chi(data: bytes, threshold: float = DEFAULT_CHI_THRESHOLD) -> bool:
    """True (cleartext) when the statistic is strictly above the threshold;
    a tie counts as encrypted."""
    return chi_squared(data) > threshold


def classify(payload: AppPayload, config: ClassifierConfig = ClassifierConfig()) -> ClassificationResult:
    """Run all three methods on one payload and form a consensus verdict.

    The configured decision method decides payloads of at least
    ``min_stat_len`` bytes; shorter ones fall back to the ASCII test and are
    marked indeterminate when that test fails too.
    """
    data = payload.data
    counts = histogram(data)
    ascii_verdict = _is_ascii(counts)
    entropy_bits = _entropy(counts, len(data))
    chi = _chi_squared(counts, len(data))
    entropy_verdict = entropy_bits < config.entropy_threshold
    chi_verdict = chi > config.chi_threshold

    if len(data) < config.min_stat_len:
        consensus = CLEARTEXT if ascii_verdict else INDETERMINATE
    else:
        votes = {
            "ascii": ascii_verdict,
            "entropy": entropy_verdict,
            "chi_squared": chi_verdict,
            "majority": (ascii_verdict + entropy_verdict + chi_verdict) >= 2,
        }
        consensus = CLEARTEXT if votes[config.decision_method] else ENCRYPTED

    return ClassificationResult(
        packet_index=payload.packet_index,
        ascii_verdict=ascii_verdict,
        entropy_bits=entropy_bits,
        entropy_verdict=entropy_verdict,
        chi_squared=chi,
        chi_verdict=chi_verdict,
        consensus=consensus,
    )


def compare_methods(
    corpus: Sequence[LabeledPayload] | Iterable[LabeledPayload],
    config: ClassifierConfig = ClassifierConfig(),
) -> MethodReport:
    """Score each method on a labeled corpus.

    A "positive" is a payload the method flags as cleartext; precision is
    TP/(TP+FP) and fraction_flagged the share of all payloads flagged. The
    raw tests are applied directly (no minimum-length fallback) so the
    methods are compared on their own merits.
    """
    tallies = {method: {"tp": 0, "fp": 0, "fn": 0, "flagged": 0} for method in METHODS}
    total = 0
    for item in corpus:
        total += 1
        is_cleartext = item.label == CLEARTEXT
        counts = histogram(item.data)
        flags = {
            "ascii": _is_ascii(counts),
            "entropy": _entropy(counts, len(item.data)) < config.entropy_threshold,
            "chi_squared": _chi_squared(counts, len(item.data)) > config.chi_threshold,
        }
        for method, flagged in flags.items():
            tally = tallies[method]
            if flagged:
                tally["flagged"] += 1
                tally["tp" if is_cleartext else "fp"] += 1
            elif is_cleartext:
                tally["fn"] += 1
    if total == 0:
        raise EmptyCorpus("corpus has no payloads")
    per_method = {
        method: MethodStats(
            true_positives=t["tp"],
            false_positives=t["fp"],
            false_negatives=t["fn"],
            flagged=t["flagged"],
            total=total,
        )
        for method, t in tallies.items()
    }
    return MethodReport(per_method=per_method, total=total)
