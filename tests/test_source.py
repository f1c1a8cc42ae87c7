"""Source-level rules for the library package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import hyperthick

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


def test_every_export_resolves():
    # a deletion that leaves its name in an __all__ list fails here
    missing = [f"hyperthick.{name}" for name in hyperthick.__all__
               if not hasattr(hyperthick, name)]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"hyperthick.{path.stem}")
        missing += [f"hyperthick.{path.stem}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_library_does_not_import_scipy():
    # numpy and click are the runtime dependencies; scipy serves the tests only
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
    code = "import sys, hyperthick.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cold_monte_carlo_imports_no_pool_and_leaves_no_thread():
    # the CLI's cold start pays for every module a Monte Carlo call pulls
    # in; its lanes run on plain threads, all joined before it returns
    code = (
        "import sys, threading, hyperthick.cli\n"
        "from hyperthick import StarShape, thickness_montecarlo\n"
        "thickness_montecarlo(StarShape.ball(3).indicator(8), 2, 100_000, 1)\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules),"
        " threading.active_count())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert out.stdout.strip() == "[] 1"
