"""numpy stays the only runtime dependency: every import in the package is
from the standard library, numpy, or medleak itself. Private names cross
from one module to another only where pinned. The README names only what
the package has."""

import ast
import importlib
import re
import sys
from pathlib import Path

import medleak

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "medleak"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "medleak"}
MODULES = {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
# a backticked dotted name, such as `PacketTable.packets()`, and a file name
_REFERENCE = re.compile(r"([A-Za-z_]\w*)((?:\.\w+)+)")
_FILE = re.compile(r"\S*/\S*|[\w.-]+\.(?:py|json|jsonl|md|toml|txt|yml|pcap)")
# a backticked private name, such as `_Periods` or `_Grouping.periods`
_PRIVATE = re.compile(r"_[A-Za-z]\w*(?:\.\w+)*")


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(SOURCE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{lineno}: {root}"
        for path in sources
        for lineno, root in _imported_roots(path)
        if root not in ALLOWED
    ]
    assert foreign == []


# Each private name that one module of the package imports from another:
# (importing module, imported module, name). A new crossing is a design
# change to make on purpose, and one that goes away shrinks this set.
PRIVATE_CROSSINGS = {
    ("capture", "classifiers", "_CONSENSUS"),
    ("capture", "classifiers", "_consensus_codes"),
    ("payload", "capture", "_START_LINE_PREFIXES"),
    ("metadata", "leaks", "_MiningRun"),
    ("report", "leaks", "_MiningRun"),
}


def test_private_names_cross_modules_only_where_pinned():
    crossings = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level:
                module = node.module
            elif node.module.startswith("medleak."):
                module = node.module.removeprefix("medleak.")
            else:
                continue
            crossings |= {(path.stem, module, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert crossings == PRIVATE_CROSSINGS


def test_readme_lower_level_pieces_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Lower-level pieces .*?(?=\n\n)", readme, re.M | re.S).group()
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) >= 8
    assert [name for name in names if not hasattr(medleak, name)] == []


def _resolves(owner, dotted: str) -> bool:
    for attribute in dotted.split("."):
        if not hasattr(owner, attribute):
            return False
        owner = getattr(owner, attribute)
    return True


def test_readme_references_resolve():
    """Every backticked ``Name.attr`` in the README whose ``Name`` is a
    medleak module or a top-level export names an attribute that exists,
    and every backticked private ``_name`` or ``_Name.attr`` is one of some
    medleak module. File paths such as ``medleak/report.py`` are not
    references."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = [importlib.import_module(f"medleak.{name}") for name in sorted(MODULES)]
    checked, private, missing = 0, 0, []
    for span in re.findall(r"`([^`\n]+)`", readme):
        if _FILE.fullmatch(span):
            continue
        if _PRIVATE.fullmatch(span):
            private += 1
            if not any(_resolves(module, span) for module in modules):
                missing.append(span)
            continue
        match = _REFERENCE.match(span)
        if match is None:
            continue
        name, attributes = match.groups()
        if name in MODULES:
            owner = importlib.import_module(f"medleak.{name}")
        elif not name.startswith("_") and hasattr(medleak, name):
            owner = getattr(medleak, name)
        else:
            continue
        checked += 1
        if not _resolves(owner, attributes[1:]):
            missing.append(span)
    assert checked >= 3 and private >= 5
    assert missing == []
