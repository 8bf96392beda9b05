"""Mining cleartext payloads for privacy leaks.

Covers dictionary hits (medical terms, first names, PII field names) plus
structural HTTP tells: sensitive words in URLs and cookies, vendor-branded
endpoints, user-identifier keys, and the tell-tale image GET that follows a
measurement upload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import translate
from functools import cache, lru_cache

from .classifiers import CLEARTEXT, ClassificationResult
from .payload import AppPayload, HttpMessage, detect_tls

SEVERITY_WARN = "warn"
SEVERITY_HIGH = "high"

# Dictionary name -> (finding category, severity). A dictionary is read from
# "<name>.txt".
DICTIONARIES = {
    "medical-terms": ("dictionary-medical", SEVERITY_HIGH),
    "first-names": ("dictionary-name", SEVERITY_WARN),
    "pii-fields": ("dictionary-pii", SEVERITY_WARN),
}

DEFAULT_IDENTIFIER_KEYS = frozenset({"current_user", "userid", "uid"})
IMAGE_EXTENSIONS = (".jpg", ".jpeg", ".png", ".gif")
DEFAULT_IMAGE_WINDOW = 30.0  # seconds an image GET may trail other traffic

# Two-letter tokens ("al", "jo") produce floods of bogus name hits.
MIN_NAME_TOKEN_LEN = 3
CONTEXT_LEN = 120
_MATCH_TEXT_CAP = 100

_WORD = re.compile(r"[a-z0-9]+(?:[_\-][a-z0-9]+)*")
_JOINERS = re.compile(r"[_\-]+")
_ALPHA_OR_DIGIT_RUN = re.compile(r"[a-z]+|[0-9]+")


@dataclass(frozen=True)
class Dictionary:
    """A named set of lowercase terms (single- or multi-word) to search for."""

    name: str
    entries: frozenset[str]

    def __post_init__(self) -> None:
        if self.name not in DICTIONARIES:
            raise ValueError(f"unknown dictionary name: {self.name!r}")
        if not self.entries:
            raise ValueError(f"dictionary {self.name!r} has no entries")
        for entry in self.entries:
            if entry != entry.strip() or entry != entry.lower() or not entry:
                raise ValueError(f"dictionary {self.name!r}: bad entry {entry!r}")


@dataclass(frozen=True)
class LeakFinding:
    packet_index: int
    category: str
    matched_text: str
    context: str
    severity: str


@dataclass(frozen=True)
class TimedMessage:
    """An HTTP message paired with the capture time of its packet."""

    timestamp: float
    packet_index: int
    message: HttpMessage
    outbound: bool
    vendor_endpoint: bool = False
    payload: bytes = b""


def normalize_text(text: str) -> str:
    """Lowercase and collapse ``_``/``-`` runs to single spaces.

    Device firmware writes "blood_pressure" where the dictionary says
    "blood pressure"; all matching and evidence relocation happens in this
    normalized space.
    """
    return _JOINERS.sub(" ", text.lower())


def tokenize(data: bytes) -> list[str]:
    """Lowercased tokens of a cleartext payload.

    Splits on non-alphanumeric delimiters but keeps ``_``/``-``-joined words
    together, additionally emitting the space-normalized form and the
    individual components; a secondary pass splits digits from letters
    ("alice123" also yields "alice").
    """
    text = data.decode("latin-1").lower()
    tokens: list[str] = []
    for word in _WORD.findall(text):
        tokens.append(word)
        # A _WORD match holds only [a-z0-9_-], so isalnum() means no joiner,
        # and an all-letter or all-digit part is a single run.
        if word.isalnum():
            parts = (word,)
        else:
            tokens.append(_JOINERS.sub(" ", word))
            parts = _JOINERS.split(word)
            tokens.extend(parts)
        for part in parts:
            if not (part.isalpha() or part.isdigit()):
                tokens.extend(_ALPHA_OR_DIGIT_RUN.findall(part))
    return tokens


# one entry: a payload's dictionary and HTTP findings share its normalized text
@lru_cache(maxsize=1)
def _normalized_payload(data: bytes) -> str:
    return normalize_text(data.decode("latin-1")) if data else ""


def _finding(
    packet_index: int, category: str, severity: str, matched: str, normalized_payload: str
) -> LeakFinding:
    """Normalize and clamp the matched text, and cut a context window of the
    normalized payload that contains it."""
    matched = normalize_text(matched)[:_MATCH_TEXT_CAP]
    at = normalized_payload.find(matched)
    if at < 0:
        context = matched
    else:
        # the cap keeps the match shorter than the window, so the window holds it
        start = max(0, at - (CONTEXT_LEN - len(matched)) // 2)
        context = normalized_payload[start : start + CONTEXT_LEN]
    return LeakFinding(
        packet_index=packet_index,
        category=category,
        matched_text=matched,
        context=context,
        severity=severity,
    )


def relocate(finding: LeakFinding, data: bytes) -> bool:
    """Independently re-locate a finding's evidence in its payload."""
    return normalize_text(finding.matched_text) in _normalized_payload(data)


def _dictionary_hits(tokens: list[str], dictionaries: list[Dictionary]):
    """Yield each distinct (token, dictionary name) hit, dictionary by
    dictionary and in token order. Name matching skips tokens shorter than
    MIN_NAME_TOKEN_LEN."""
    seen: set[tuple[str, str]] = set()  # two dictionaries may share a name
    for dictionary in dictionaries:
        min_len = MIN_NAME_TOKEN_LEN if dictionary.name == "first-names" else 0
        for token in tokens:
            hit = (token, dictionary.name)
            if token in dictionary.entries and len(token) >= min_len and hit not in seen:
                seen.add(hit)
                yield hit


def dictionary_match(
    tokens: list[str],
    dictionaries: list[Dictionary],
    packet_index: int = 0,
    payload: bytes = b"",
) -> list[LeakFinding]:
    """One finding per distinct (token, dictionary) hit.

    Medical-term hits are high severity; name and PII hits warn. Name
    matching skips tokens shorter than MIN_NAME_TOKEN_LEN.
    """
    hits = list(_dictionary_hits(tokens, dictionaries))
    if not hits:
        return []
    normalized = _normalized_payload(payload)
    return [_finding(packet_index, *DICTIONARIES[name], token, normalized) for token, name in hits]


def scan_cleartext_payload(
    payload: AppPayload,
    verdict: ClassificationResult,
    dictionaries: list[Dictionary],
    run: _MiningRun | None = None,
) -> list[LeakFinding]:
    """Dictionary-mine one payload that already passed cleartext
    classification. Refuses TLS or non-cleartext payloads outright."""
    if detect_tls(payload).is_tls:
        raise ValueError("leak scan refused: payload is TLS")
    if verdict.consensus != CLEARTEXT:
        raise ValueError(f"leak scan refused: payload classified {verdict.consensus}")
    run = run or _MiningRun(dictionaries)
    tokens = run.dictionary_tokens(payload.data.decode("latin-1"))
    return dictionary_match(tokens, dictionaries, packet_index=payload.packet_index, payload=payload.data)


@lru_cache(maxsize=16)
def _vendor_regex(patterns: tuple[str, ...]) -> re.Pattern[str] | None:
    """One compiled alternation of the lowercased shell patterns, or None for
    no patterns (an empty alternation would match everything)."""
    if not patterns:
        return None
    return re.compile("|".join(translate(pattern.lower()) for pattern in patterns))


def matches_vendor(subject: str | None, vendor_patterns) -> bool:
    """Case-insensitive shell-pattern match of a host or URL, as
    ``fnmatchcase`` against any of the patterns."""
    if not subject:
        return False
    regex = _vendor_regex(tuple(vendor_patterns))
    return regex is not None and regex.match(subject.lower()) is not None


class _MiningRun:
    """Leak-mining memos for one ``analyze`` call, which builds this object and
    drops it on return; a public function called without one builds its own.
    It must be built from the dictionaries and vendor patterns passed with it."""

    def __init__(self, dictionaries=(), vendor_patterns=()):
        terms = self.terms = frozenset().union(*(dictionary.entries for dictionary in dictionaries))
        # the dictionary tokens of a word that tokenize splits, once per distinct word
        self.split_word = cache(lambda word: tuple(t for t in tokenize(word.encode("latin-1")) if t in terms))
        self.vendor = cache(lambda subject: matches_vendor(subject, vendor_patterns))

    def dictionary_tokens(self, text: str) -> list[str]:
        """The tokens of ``tokenize(text)`` that some dictionary holds, in order:
        a word of only letters or only digits is its own only token."""
        tokens: list[str] = []
        for word in _WORD.findall(text.lower()):
            if not (word.isalpha() or word.isdigit()):
                tokens.extend(self.split_word(word))
            elif word in self.terms:
                tokens.append(word)
        return tokens


def _query_keys(url: str) -> list[str]:
    # raw split, no percent-decoding: evidence must stay relocatable as-is
    query = url.partition("?")[2]
    return [part.split("=", 1)[0] for part in query.split("&") if part]


def http_leak_scan(
    message: HttpMessage,
    vendor_patterns,
    dictionaries: list[Dictionary] = (),
    identifier_keys: frozenset[str] = DEFAULT_IDENTIFIER_KEYS,
    packet_index: int = 0,
    payload: bytes = b"",
    run: _MiningRun | None = None,
) -> list[LeakFinding]:
    """Structural HTTP leak checks on one parsed message.

    - url-leak / cookie-leak: dictionary hits inside the URL or cookies
    - vendor-identifier: host or URL matches a vendor pattern
    - user-identifier: cookie/query key is a configured identifier key
    """
    run = run or _MiningRun(dictionaries, vendor_patterns)
    hits: list[tuple[str, str, str]] = []  # (category, matched text, severity)
    url = message.url or ""
    if dictionaries:
        cookie_blob = " ".join(f"{k}={v}" for k, v in message.cookies)
        for category, text in (("url-leak", url), ("cookie-leak", cookie_blob)):
            for token, name in _dictionary_hits(run.dictionary_tokens(text), dictionaries):
                hits.append((category, token, DICTIONARIES[name][1]))

    if run.vendor(message.host):
        hits.append(("vendor-identifier", message.host or "", SEVERITY_WARN))
    elif matches_vendor(url, vendor_patterns):  # URLs seldom repeat, so they skip the memo
        hits.append(("vendor-identifier", url, SEVERITY_WARN))

    candidate_keys = [key for key, _ in message.cookies] + _query_keys(url)
    reported: set[str] = set()
    for key in candidate_keys:
        lowered = key.lower()
        if lowered in identifier_keys and lowered not in reported:
            reported.add(lowered)
            hits.append(("user-identifier", key, SEVERITY_WARN))

    if not hits:
        return []
    normalized = _normalized_payload(payload)
    return [
        _finding(packet_index, category, severity, matched, normalized)
        for category, matched, severity in hits
    ]


def image_get_signature(messages: list[TimedMessage], window_s: float = DEFAULT_IMAGE_WINDOW) -> list[LeakFinding]:
    """Flag outbound GETs for image files that trail other device traffic.

    A GET whose URL path ends in an image extension within ``window_s``
    seconds after earlier outbound or vendor-endpoint traffic from the same
    device marks the end of a measurement session for any observer.
    """
    ordered = sorted(messages, key=lambda m: (m.timestamp, m.packet_index))
    findings: list[LeakFinding] = []
    # Timestamp of the latest earlier outbound or vendor message. The list is
    # time-sorted and subtraction is monotone, so if any earlier such message
    # lies within the window, this one does.
    latest: float | None = None
    for timed in ordered:
        message = timed.message
        if (
            latest is not None
            and timed.outbound
            and message.kind == "request"
            and message.method == "GET"
            and timed.timestamp - latest <= window_s
        ):
            path = (message.url or "").split("?", 1)[0]
            if path.lower().endswith(IMAGE_EXTENSIONS):
                normalized = _normalized_payload(timed.payload)
                findings.append(
                    _finding(timed.packet_index, "image-get-signature", SEVERITY_WARN, path, normalized)
                )
        if timed.outbound or timed.vendor_endpoint:
            latest = timed.timestamp
    return findings
