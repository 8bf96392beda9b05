"""Cleartext-vs-encrypted payload classification.

Three per-payload tests over the 256-value byte alphabet: a naive ASCII
check, Shannon entropy in bits per byte, and a chi-squared statistic against
the uniform distribution. A comparison harness scores the three methods on a
labeled corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import islice, tee
from numbers import Real
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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

# classify_all and compare_methods score this many payloads at a time, as one
# stacked (k, 256) count matrix; each row adds 2 KB to every statistics
# temporary.
_BATCH = 16
# One bincount counts consecutive rows of a batch up to this many payload
# bytes; it copies its index to 8 bytes per payload byte. A longer payload is
# counted alone.
_RUN_BYTES = 16 * 1024
# Row r of a run counts its bytes in bins r * 256 .. r * 256 + 255; as uint16,
# the index takes 2 bytes per payload byte until bincount copies it.
_ROW_OFFSETS = np.arange(_BATCH, dtype=np.uint16) * 256

CLEARTEXT = "cleartext"
ENCRYPTED = "encrypted"
INDETERMINATE = "indeterminate"


class EmptyPayload(ValueError):
    """A classifier was handed a zero-length payload."""


class EmptyCorpus(ValueError):
    """Method comparison was run on an empty corpus."""


def numeric_fields(config) -> dict[str, type]:
    """Name -> type of each field of a config dataclass (or instance) whose
    default is an int or a float, in declaration order."""
    return {f.name: type(f.default) for f in fields(config) if type(f.default) in (int, float)}


@dataclass(frozen=True)
class ClassifierConfig:
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    chi_threshold: float = DEFAULT_CHI_THRESHOLD
    # Below this length the statistics are unreliable (expected bin counts
    # fall far below 1), so the ASCII test decides instead.
    min_stat_len: int = DEFAULT_MIN_STAT_LEN
    decision_method: str = DEFAULT_DECISION_METHOD

    def __post_init__(self) -> None:
        # every numeric field, a subclass's too, must be a positive number
        for name in numeric_fields(self):
            value = getattr(self, name)
            if not (isinstance(value, Real) and value > 0):  # also rejects NaN
                raise ValueError(f"{name} must be a positive number")
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
    def recall(self) -> float | None:
        """TP/(TP+FN); None marks the undefined case (no cleartext)."""
        cleartext = self.true_positives + self.false_negatives
        return self.true_positives / cleartext if cleartext else None

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


def _statistics(counts: np.ndarray, n: int | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII verdict, entropy in bits per byte and chi-squared, over the
    last axis of ``counts``: one 256-bin histogram with ``n`` its length, or
    a ``(k, 256)`` stack with ``n`` a ``(k, 1)`` column of lengths.

    Entropy sums all 256 bins, an empty bin adding exactly 0.0, so a
    histogram gets the same bits alone or stacked.
    """
    is_ascii = ~counts[..., 128:].any(axis=-1)
    p = counts / n
    entropy = -(p * np.log2(p + (counts == 0))).sum(axis=-1) + 0.0  # fold -0.0 from the single-symbol case
    expected = n / 256.0
    deviation = counts - expected
    chi = (deviation * deviation / expected).sum(axis=-1)
    return is_ascii, entropy, chi


def classify_ascii(data: bytes) -> bool:
    """True when every byte is in the 128-value ASCII set."""
    return bool(_statistics(histogram(data), len(data))[0])


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in bits per byte.

    0 for a single repeated value, 8 when all 256 values are equally
    frequent.
    """
    return float(_statistics(histogram(data), len(data))[1])


def chi_squared(data: bytes) -> float:
    """Chi-squared statistic of byte frequencies against a uniform
    expectation over all 256 bins. Zero iff every bin count is equal."""
    return float(_statistics(histogram(data), len(data))[2])


def classify(payload: AppPayload, config: ClassifierConfig = ClassifierConfig()) -> ClassificationResult:
    """Run all three methods on one payload and form a consensus verdict.

    The configured decision method decides payloads of at least
    ``min_stat_len`` bytes; shorter ones fall back to the ASCII test and are
    marked indeterminate when that test fails too.
    """
    return classify_all([payload], config)[0]


def classify_all(
    payloads: Sequence[AppPayload] | Iterable[AppPayload],
    config: ClassifierConfig = ClassifierConfig(),
) -> list[ClassificationResult]:
    """``classify`` for each payload, in order, read from each batch that
    ``_verdict_batches`` scores."""
    indices: list[int] = []  # the batch being scored, added by data() as the batch is read

    def data() -> Iterator[bytes]:
        for payload in payloads:
            indices.append(payload.packet_index)
            yield payload.data

    results: list[ClassificationResult] = []
    for consensus, flags, entropy, chi in _verdict_batches(data(), config):
        results += [
            ClassificationResult(packet_index, ascii_verdict, entropy_bits, entropy_verdict, chi_value, chi_verdict,
                                 _CONSENSUS[code])
            for packet_index, code, ascii_verdict, entropy_verdict, chi_verdict, entropy_bits, chi_value in zip(
                indices, consensus.tolist(), *flags.tolist(), entropy.tolist(), chi.tolist())
        ]
        indices.clear()
    return results


# A consensus code is its verdict's position here.
_CONSENSUS = (CLEARTEXT, ENCRYPTED, INDETERMINATE)


def _verdict_batches(
    rows: Iterable[bytes], config: ClassifierConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The verdicts of each batch of payloads in ``rows`` that
    ``_scored_batches`` scores, one entry per payload in order: a
    ``consensus`` code (into ``_CONSENSUS``), a ``(3, k)`` array of ``flags``
    (one row per method in ``METHODS`` order), and ``entropy`` and ``chi``
    values.

    This is the one place the verdict rule is applied: the configured
    decision method decides payloads of at least ``min_stat_len`` bytes;
    shorter ones fall back to the ASCII test and are indeterminate when that
    test fails too.
    """
    for lengths, entropy, chi, flags in _scored_batches(rows, config):
        if config.decision_method == "majority":
            decided = flags.sum(axis=0) >= 2
        else:
            decided = flags[METHODS.index(config.decision_method)]
        short = lengths < config.min_stat_len
        cleartext = np.where(short, flags[0], decided)
        consensus = np.where(cleartext, 0, np.where(short, 2, 1)).astype(np.int8)
        yield consensus, flags, entropy, chi


def _consensus_codes(rows: Iterable[bytes], config: ClassifierConfig) -> np.ndarray:
    """The consensus code of every payload in ``rows``, joined from those of
    its batches."""
    return np.concatenate([np.empty(0, np.int8), *(batch[0] for batch in _verdict_batches(rows, config))])


def _scored_batches(
    rows: Iterable[bytes], config: ClassifierConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Read payload bytes from ``rows`` in lists of at most ``_BATCH`` and
    score each list as one stacked ``(k, 256)`` histogram matrix, so an
    iterable is never held in memory whole. The matrix is counted by
    ``_batch_counts``, one bincount per run of rows rather than one per
    payload.

    Yields each list's lengths, entropies and chi-squared values, and a
    ``(3, k)`` array of cleartext flags, one row per method in ``METHODS``
    order. This is the one place the thresholds are applied: entropy flags
    cleartext when strictly below ``entropy_threshold``, chi-squared when
    strictly above ``chi_threshold``, and a tie at either counts as
    encrypted.
    """
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH)):
        lengths = [len(row) for row in batch]
        if not all(lengths):
            raise EmptyPayload("payload is empty")
        n = np.array(lengths, dtype=np.float64)
        is_ascii, entropy, chi = _statistics(_batch_counts(batch, lengths), n[:, np.newaxis])
        flags = np.array((is_ascii, entropy < config.entropy_threshold, chi > config.chi_threshold))
        yield n, entropy, chi, flags


def _batch_counts(rows: Sequence[bytes], lengths: Sequence[int]) -> np.ndarray:
    """``(k, 256)`` byte counts of ``k <= _BATCH`` payloads of the given
    lengths, as float64; row ``r`` equals ``histogram(rows[r])``.

    Consecutive rows are joined into runs of at most ``_RUN_BYTES`` (a longer
    payload is a run alone), and each run is counted by one bincount with
    every byte shifted into its row's 256 bins.
    """
    counts = np.empty((len(rows), 256))
    start = 0
    while start < len(rows):
        stop, size = start + 1, lengths[start]
        while stop < len(rows) and size + lengths[stop] <= _RUN_BYTES:
            size += lengths[stop]
            stop += 1
        index = np.repeat(_ROW_OFFSETS[: stop - start], lengths[start:stop])
        index += np.frombuffer(b"".join(rows[start:stop]), dtype=np.uint8)
        counts[start:stop] = np.bincount(index, minlength=256 * (stop - start)).reshape(-1, 256)
        del index
        start = stop
    return counts


def compare_methods(
    corpus: Sequence[LabeledPayload] | Iterable[LabeledPayload],
    config: ClassifierConfig = ClassifierConfig(),
) -> MethodReport:
    """Score each method on a labeled corpus.

    A "positive" is a payload the method flags as cleartext; precision is
    TP/(TP+FP) and fraction_flagged the share of all payloads flagged. The
    raw tests are applied directly (no minimum-length fallback) so the
    methods are compared on their own merits. The corpus is read in batches
    of ``_BATCH``, so an iterable is never held in memory whole.
    """
    true_positives = np.zeros(len(METHODS), dtype=np.int64)
    flagged = np.zeros(len(METHODS), dtype=np.int64)
    total = cleartext = 0
    # both copies advance a batch at a time, so tee holds at most one batch
    items, labelled = tee(corpus)
    for n, _, _, flags in _scored_batches((item.data for item in items), config):
        is_cleartext = np.array([item.label == CLEARTEXT for item in islice(labelled, len(n))])
        true_positives += (flags & is_cleartext).sum(axis=1)
        flagged += flags.sum(axis=1)
        total += len(n)
        cleartext += int(is_cleartext.sum())
    if total == 0:
        raise EmptyCorpus("corpus has no payloads")
    per_method = {
        method: MethodStats(
            true_positives=tp,
            false_positives=positives - tp,
            false_negatives=cleartext - tp,
            flagged=positives,
            total=total,
        )
        for method, tp, positives in zip(METHODS, true_positives.tolist(), flagged.tolist())
    }
    return MethodReport(per_method=per_method, total=total)
