"""Run configuration, device registry, and dictionary loading.

Config files are flat key=value INI sections (see README for the exact
keys). Dictionary files are UTF-8, one lowercase entry per line, with '#'
comments; the bundled set can be replaced per run (``--dict-dir`` or
``[dictionaries] dir``).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .capture import normalize_mac
from .classifiers import (
    DEFAULT_CHI_THRESHOLD,
    DEFAULT_DECISION_METHOD,
    DEFAULT_ENTROPY_THRESHOLD,
    DEFAULT_MIN_STAT_LEN,
    ClassifierConfig,
)
from .leaks import DEFAULT_IDENTIFIER_KEYS, DEFAULT_IMAGE_WINDOW, DICTIONARIES, Dictionary, normalize_text
from .metadata import DEFAULT_GAP_THRESHOLD

DEFAULT_VENDOR_PATTERNS = ("*withings*", "*ihealth*", "*1byone*")


class ConfigError(Exception):
    pass


# The numeric knobs: RunConfig field -> type. Each is a [thresholds] key and
# an analyze flag (--entropy-threshold for entropy_threshold).
THRESHOLDS = {
    "entropy_threshold": float,
    "chi_threshold": float,
    "min_stat_len": int,
    "gap_threshold": float,
    "image_window": float,
}
_CLASSIFIER_FIELDS = tuple(f.name for f in fields(ClassifierConfig))
# The keys each config section may hold; None for any key ([devices] MACs).
_SECTION_KEYS = {"thresholds": set(THRESHOLDS), "analysis": {"decision_method"}, "dictionaries": {"dir"},
                 "vendor-patterns": {"patterns"}, "identifier-keys": {"keys"}, "devices": None}


def normalize_method(name: str) -> str:
    """A decision method read with '-' as '_', in a config file and on the command line alike."""
    return name.strip().replace("-", "_")


@dataclass
class RunConfig:
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    chi_threshold: float = DEFAULT_CHI_THRESHOLD
    min_stat_len: int = DEFAULT_MIN_STAT_LEN
    gap_threshold: float = DEFAULT_GAP_THRESHOLD
    image_window: float = DEFAULT_IMAGE_WINDOW
    decision_method: str = DEFAULT_DECISION_METHOD
    dict_dir: Path | None = None
    vendor_patterns: tuple[str, ...] = DEFAULT_VENDOR_PATTERNS
    identifier_keys: frozenset[str] = DEFAULT_IDENTIFIER_KEYS
    registry: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        try:
            self.classifier_config()  # ClassifierConfig checks its own fields
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in THRESHOLDS:
            if name not in _CLASSIFIER_FIELDS and not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigError(f"{name} must be a positive number")
        normalized: dict[str, str] = {}
        for mac, device_id in self.registry.items():
            try:
                canonical = normalize_mac(mac)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if canonical in normalized:
                raise ConfigError(f"duplicate registry MAC {canonical}")
            normalized[canonical] = device_id
        self.registry = normalized

    def classifier_config(self) -> ClassifierConfig:
        return ClassifierConfig(**{name: getattr(self, name) for name in _CLASSIFIER_FIELDS})


def _read_ini(path) -> configparser.ConfigParser:
    # '=' only: the default ':' delimiter would split MAC-address keys; no
    # interpolation, so a '%' in a value is literal
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    # configparser copies [DEFAULT] keys into every section, past the key checks
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [DEFAULT]")
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key in parser[name]:
            if _SECTION_KEYS[name] is not None and key not in _SECTION_KEYS[name]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
    return parser


def load_registry(path) -> dict[str, str]:
    """MAC -> device label, from the [devices] section of a registry or config file."""
    parser = _read_ini(path)
    if not parser.has_section("devices"):
        raise ConfigError(f"{path}: missing [devices] section")
    registry = dict(parser.items("devices"))
    if not registry:
        raise ConfigError(f"{path}: empty device registry")
    return registry


def load_config(path) -> RunConfig:
    """Build a RunConfig from an INI file; unspecified keys keep defaults."""
    parser = _read_ini(path)
    config = RunConfig()
    if parser.has_section("thresholds"):
        section = parser["thresholds"]
        try:
            for name, kind in THRESHOLDS.items():
                if name in section:
                    setattr(config, name, kind(section[name]))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad threshold value: {exc}") from None
    method = parser.get("analysis", "decision_method", fallback=config.decision_method)
    config.decision_method = normalize_method(method)
    directory = parser.get("dictionaries", "dir", fallback="").strip()
    if directory:
        config.dict_dir = Path(directory)
    patterns = parser.get("vendor-patterns", "patterns", fallback="")
    parsed = tuple(p.strip() for p in patterns.split(",") if p.strip())
    if parsed:
        config.vendor_patterns = parsed
    keys = parser.get("identifier-keys", "keys", fallback="")
    parsed_keys = frozenset(k.strip().lower() for k in keys.split(",") if k.strip())
    if parsed_keys:
        config.identifier_keys = parsed_keys
    if parser.has_section("devices"):
        config.registry = dict(parser.items("devices"))
    config.validate()
    return config


def save_registry(registry: dict[str, str], path) -> None:
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser["devices"] = dict(registry)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def parse_dictionary_text(text: str, name: str) -> Dictionary:
    entries = set()
    for line in text.splitlines():
        # entries live in the same normalized space as the text they match
        line = normalize_text(line.split("#", 1)[0]).strip()
        if line:
            entries.add(line)
    if not entries:
        raise ConfigError(f"dictionary {name!r} has no entries")
    return Dictionary(name=name, entries=frozenset(entries))


def load_dictionaries(dict_dir: Path | None = None) -> list[Dictionary]:
    """Load the three dictionaries from dict_dir, or from the bundled data
    files when it is None."""
    root = Path(dict_dir) if dict_dir is not None else resources.files("medleak") / "data"
    dictionaries = []
    for name in DICTIONARIES:
        path = root / f"{name}.txt"
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read dictionary {path}: {exc}") from None
        dictionaries.append(parse_dictionary_text(text, name))
    return dictionaries

