"""Brute-force reference implementations, kept independent of the package's
fast paths on purpose: these are the oracles the fast versions are checked
against."""

import ipaddress
import math
import re
from fnmatch import fnmatchcase

from medleak.leaks import IMAGE_EXTENSIONS, MIN_NAME_TOKEN_LEN, SEVERITY_WARN, _finding, _normalized_payload


def byte_counts(data: bytes) -> dict[int, int]:
    counts: dict[int, int] = {}
    for b in data:
        counts[b] = counts.get(b, 0) + 1
    return counts


def entropy_oracle(data: bytes) -> float:
    """Direct summation over a byte->count map."""
    n = len(data)
    h = 0.0
    for count in byte_counts(data).values():
        p = count / n
        h -= p * math.log2(p)
    return h


def chi_squared_two_pass_oracle(data: bytes) -> float:
    """Pass 1 counts, pass 2 evaluates the formula over all 256 bins."""
    n = len(data)
    expected = n / 256
    counts = byte_counts(data)
    total = 0.0
    for value in range(256):
        observed = counts.get(value, 0)
        total += (observed - expected) ** 2 / expected
    return total


def chi_squared_double_loop_oracle(data: bytes) -> float:
    """Naive O(256*n) evaluation: recount the payload for every bin."""
    n = len(data)
    expected = n / 256
    total = 0.0
    for value in range(256):
        observed = sum(1 for b in data if b == value)
        total += (observed - expected) ** 2 / expected
    return total


_WORD = re.compile(r"[a-z0-9]+(?:[_\-][a-z0-9]+)*")
_JOINERS = re.compile(r"[_\-]+")
_ALPHA_OR_DIGIT_RUN = re.compile(r"[a-z]+|[0-9]+")


def tokenize_oracle(data: bytes) -> list[str]:
    """Every word, its joined and split forms, and the letter/digit runs of
    every part, with no shortcut for words that need no splitting."""
    text = data.decode("latin-1").lower()
    tokens: list[str] = []
    for word in _WORD.findall(text):
        tokens.append(word)
        if "_" in word or "-" in word:
            tokens.append(_JOINERS.sub(" ", word))
            parts = _JOINERS.split(word)
            tokens.extend(parts)
        else:
            parts = [word]
        for part in parts:
            runs = _ALPHA_OR_DIGIT_RUN.findall(part)
            if len(runs) > 1:
                tokens.extend(runs)
    return tokens


def dictionary_hits_oracle(tokens, dictionaries) -> list[tuple[str, str]]:
    """Look every token up in every dictionary, keeping the first hit per
    (token, dictionary name)."""
    seen: set[tuple[str, str]] = set()
    hits = []
    for dictionary in dictionaries:
        min_len = MIN_NAME_TOKEN_LEN if dictionary.name == "first-names" else 0
        for token in tokens:
            if len(token) < min_len or token not in dictionary.entries:
                continue
            if (token, dictionary.name) not in seen:
                seen.add((token, dictionary.name))
                hits.append((token, dictionary.name))
    return hits


def matches_vendor_oracle(subject, vendor_patterns) -> bool:
    if not subject:
        return False
    lowered = subject.lower()
    return any(fnmatchcase(lowered, pattern.lower()) for pattern in vendor_patterns)


def ipv4_oracle(packed: bytes) -> str:
    return str(ipaddress.IPv4Address(packed))


def image_get_signature_oracle(messages, window_s):
    """Compare every image GET against every earlier message."""
    ordered = sorted(messages, key=lambda m: (m.timestamp, m.packet_index))
    findings = []
    for position, timed in enumerate(ordered):
        message = timed.message
        if not (timed.outbound and message.kind == "request" and message.method == "GET"):
            continue
        path = (message.url or "").split("?", 1)[0]
        if not path.lower().endswith(IMAGE_EXTENSIONS):
            continue
        preceded = any(
            (prior.outbound or prior.vendor_endpoint)
            and timed.timestamp - prior.timestamp <= window_s
            for prior in ordered[:position]
        )
        if preceded:
            normalized = _normalized_payload(timed.payload)
            findings.append(_finding(timed.packet_index, "image-get-signature", SEVERITY_WARN, path, normalized))
    return findings
