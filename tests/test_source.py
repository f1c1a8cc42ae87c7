"""Source-level rules for the library package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperthick"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a self-check written as one
    # would silently vanish; checks in the library must raise instead
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
