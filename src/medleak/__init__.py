"""medleak: offline privacy analysis of consumer medical IoT packet captures.

Detects cleartext health-information leaks (dictionary terms, URL/cookie
content, vendor and user identifiers, image-GET signatures) and profiles
traffic metadata (activity periods, endpoints, periodicity) per device.
"""

from .capture import DeviceStream, MalformedCapture, RawPacket, parse_capture, split_by_device
from .classifiers import (
    ClassificationResult,
    ClassifierConfig,
    MethodReport,
    chi_squared,
    classify,
    classify_all,
    classify_ascii,
    compare_methods,
    histogram,
    shannon_entropy,
)
from .config import ConfigError, RunConfig, load_config, load_dictionaries, load_registry
from .corpus import CorpusSpec, LabeledPayload, build_fixture_capture, fixture_registry, generate_corpus
from .leaks import Dictionary, LeakFinding, dictionary_match, http_leak_scan, image_get_signature, tokenize
from .metadata import activity_periods, endpoint_profiles, extract_dns_answers, periodicity_hint
from .payload import AppPayload, HttpMessage, TlsVerdict, detect_tls, extract_payloads, parse_http
from .report import AnalysisResult, DeviceReport, analyze, render

__version__ = "0.1.0"
