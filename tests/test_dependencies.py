"""numpy stays the only runtime dependency: every import in the package is
from the standard library, numpy, or medleak itself."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "medleak"
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
