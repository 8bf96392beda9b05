import json
import struct
from importlib import resources

import pytest

from medleak.config import load_dictionaries
from medleak.capture import GLOBAL_HEADER_LEN, RECORD_HEADER_LEN
from medleak.corpus import SCENARIOS, build_fixture_capture, fixture_registry, generate_random_capture, write_pcap


@pytest.fixture(scope="session")
def dictionaries():
    return load_dictionaries()


@pytest.fixture(scope="session")
def report_schema():
    return json.loads((resources.files("medleak") / "data" / "report.schema.json").read_text())


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """All three fixture scenarios written out as .pcap files."""
    directory = tmp_path_factory.mktemp("fixtures")
    for scenario in SCENARIOS:
        (directory / f"{scenario}.pcap").write_bytes(build_fixture_capture(scenario))
    return directory


@pytest.fixture(scope="session")
def fixture_registries():
    return {scenario: fixture_registry(scenario) for scenario in SCENARIOS}


def stitch_random_captures(seeds: int) -> tuple[bytes, dict[str, str]]:
    """One capture of random captures 0 to ``seeds - 1``, each moved a day
    after the one before, and the union of their registries."""
    records, registry = [], {}
    for seed in range(seeds):
        data, seed_registry = generate_random_capture(seed)
        offset = GLOBAL_HEADER_LEN  # the generator writes little-endian microsecond records
        while offset < len(data):
            sec, usec, caplen, _ = struct.unpack_from("<IIII", data, offset)
            offset += RECORD_HEADER_LEN
            records.append((sec * 1_000_000 + usec + seed * 86_400_000_000, data[offset : offset + caplen]))
            offset += caplen
        registry.update(seed_registry)
    return write_pcap(records), registry
