"""numpy stays the only runtime dependency: every import in the package is
from the standard library, numpy, or medleak itself. The README names only
what the package exports."""

import ast
import re
import sys
from pathlib import Path

import medleak

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "medleak"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "medleak"}


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


def test_readme_lower_level_pieces_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Lower-level pieces .*?(?=\n\n)", readme, re.M | re.S).group()
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) >= 8
    assert [name for name in names if not hasattr(medleak, name)] == []
