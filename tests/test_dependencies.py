"""The package runs on the standard library alone."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stepcalc").glob("*.py"))


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_sources_import_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        assert non_stdlib_imports(path.read_text()) == [], path.name


def test_guard_sees_third_party_imports():
    source = "import os\nfrom . import expr\ndef f():\n    import numpy.linalg\n    from scipy import special\n"
    assert non_stdlib_imports(source) == ["numpy.linalg", "scipy"]


def test_no_runtime_dependencies_declared():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
