"""Run configuration, device registry, and dictionary loading.

Config files are flat key=value INI sections (see README for the exact
keys). Dictionary files are UTF-8, one lowercase entry per line, with '#'
comments; the bundled set can be replaced per run (``--dict-dir`` or
``[dictionaries] dir``).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .capture import normalize_mac
from .classifiers import ClassifierConfig, numeric_fields
from .leaks import DEFAULT_IDENTIFIER_KEYS, DEFAULT_IMAGE_WINDOW, DICTIONARIES, Dictionary, normalize_text
from .metadata import DEFAULT_GAP_THRESHOLD

DEFAULT_VENDOR_PATTERNS = ("*withings*", "*ihealth*", "*1byone*")


class ConfigError(Exception):
    pass


def normalize_method(name: str) -> str:
    """A decision method read with '-' as '_', in a config file and on the command line alike."""
    return name.strip().replace("-", "_")


@dataclass(frozen=True)
class RunConfig(ClassifierConfig):
    """Everything one analyze run reads. It is checked when built, and
    ``dataclasses.replace`` builds (and so checks) a variant. The registry is
    kept as a read-only mapping and left out of the hash."""

    gap_threshold: float = DEFAULT_GAP_THRESHOLD
    image_window: float = DEFAULT_IMAGE_WINDOW
    dict_dir: Path | None = None
    vendor_patterns: tuple[str, ...] = DEFAULT_VENDOR_PATTERNS
    identifier_keys: frozenset[str] = DEFAULT_IDENTIFIER_KEYS
    registry: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
            registry: dict[str, str] = {}
            for mac, device_id in self.registry.items():
                canonical = normalize_mac(mac)
                if canonical in registry:
                    raise ValueError(f"duplicate registry MAC {canonical}")
                registry[canonical] = device_id
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "registry", MappingProxyType(registry))


# The numeric knobs: RunConfig field -> type. Each is a [thresholds] key and
# an analyze flag (--entropy-threshold for entropy_threshold).
THRESHOLDS = numeric_fields(RunConfig)
# The keys each config section may hold; None for any key ([devices] MACs).
_SECTION_KEYS = {"thresholds": set(THRESHOLDS), "analysis": {"decision_method"}, "dictionaries": {"dir"},
                 "vendor-patterns": {"patterns"}, "identifier-keys": {"keys"}, "devices": None}


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


def _option(parser: configparser.ConfigParser, path, section: str, key: str, items: bool = False):
    """A key's stripped value, or with ``items`` its comma-separated items;
    None when the key is absent. An empty one is an error, never the default."""
    if not parser.has_option(section, key):
        return None
    value = parser[section][key].strip()
    parsed = [item.strip() for item in value.split(",") if item.strip()] if items else value
    if not parsed:
        raise ConfigError(f"{path}: empty value for {key!r} in [{section}]")
    return parsed


def _devices(parser: configparser.ConfigParser, path) -> dict[str, str]:
    """MAC -> device label of the [devices] section; a MAC with no label is an error."""
    registry = dict(parser.items("devices"))
    for mac, label in registry.items():
        if not label:
            raise ConfigError(f"{path}: empty device label for {mac} in [devices]")
    return registry


def load_registry(path) -> dict[str, str]:
    """MAC -> device label, from the [devices] section of a registry or config file."""
    parser = _read_ini(path)
    if not parser.has_section("devices"):
        raise ConfigError(f"{path}: missing [devices] section")
    registry = _devices(parser, path)
    if not registry:
        raise ConfigError(f"{path}: empty device registry")
    return registry


def load_config(path) -> RunConfig:
    """Build a RunConfig from an INI file; unspecified keys keep defaults."""
    parser = _read_ini(path)
    values: dict = {}
    if parser.has_section("thresholds"):
        try:
            for name, value in parser.items("thresholds"):
                values[name] = THRESHOLDS[name](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad threshold value: {exc}") from None
    if parser.has_option("analysis", "decision_method"):
        values["decision_method"] = normalize_method(parser["analysis"]["decision_method"])
    directory = _option(parser, path, "dictionaries", "dir")
    if directory is not None:
        values["dict_dir"] = Path(directory)
    patterns = _option(parser, path, "vendor-patterns", "patterns", items=True)
    if patterns is not None:
        values["vendor_patterns"] = tuple(patterns)
    keys = _option(parser, path, "identifier-keys", "keys", items=True)
    if keys is not None:
        values["identifier_keys"] = frozenset(key.lower() for key in keys)
    if parser.has_section("devices"):
        values["registry"] = _devices(parser, path)
    return RunConfig(**values)


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

