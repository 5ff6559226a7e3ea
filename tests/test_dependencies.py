"""The package runs on the standard library alone, and a request leaves its slow modules unimported."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stepcalc").glob("*.py"))


def absolute_imports(source: str) -> list[str]:
    """The modules that ``source`` imports by absolute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside the standard library."""
    return [name for name in absolute_imports(source) if name.split(".")[0] not in sys.stdlib_module_names]


def test_sources_import_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        assert non_stdlib_imports(path.read_text()) == [], path.name


def test_no_module_imports_argparse():
    # the command line reads its arguments from its own table (cli.build_parser)
    for path in SOURCES:
        assert "argparse" not in [name.split(".")[0] for name in absolute_imports(path.read_text())], path.name
    assert absolute_imports("import os, argparse\nfrom argparse import Namespace\n") == ["os", "argparse", "argparse"]


def test_generated_code_compiles_in_one_place():
    # stepcalc.generated: the records' constructors, the run loops, the Taylor steps and the polyline loops
    assert sum(path.read_text().count("exec(") for path in SOURCES) == 1


def test_guard_sees_third_party_imports():
    source = "import os\nfrom . import expr\ndef f():\n    import numpy.linalg\n    from scipy import special\n"
    assert non_stdlib_imports(source) == ["numpy.linalg", "scipy"]


def test_no_runtime_dependencies_declared():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


# modules whose import costs a one-shot process more than its work; dataclasses
# loads inspect, ast, dis and tokenize, and fractions loads decimal and numbers
SLOW_IMPORTS = {"dataclasses", "inspect", "ast"}


def loaded_modules(calls: str) -> set[str]:
    """The modules a fresh interpreter holds after ``from stepcalc import cli`` and ``calls``.  It runs with -S:
    without site, only stepcalc's own imports reach sys.modules."""
    code = f"import sys; from stepcalc import cli; {calls}; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# one-shot requests, each with the module that does its work; none imports the slow modules, typing, shutil
# (which asks the terminal for its width) or fractions
ONE_SHOT = {
    "fn": (["fn", "sin", "1"], "stepcalc.functions"),
    "pendulum": (["pendulum", "--theta0", "1"], "stepcalc.applications"),
    "pendulum ode": (["pendulum", "--theta0", "1", "--method", "ode"], "stepcalc.applications"),
    "ballistics": (["ballistics", "--mass", "1", "--v0", "40", "--alpha", "40"], "stepcalc.applications"),
    "table": (["table"], "stepcalc.tables"),
    "pi": (["pi"], "stepcalc.series"),
    "lox": (["lox", "--lat1", "10", "--lon1", "0", "--lat2", "20", "--lon2", "5"], "stepcalc.applications"),
    "ellipk": (["ellipk", "--k", "0.5"], "stepcalc.applications"),
    "rectify": (["rectify", "--x-expr", "t", "--y-expr", "t", "--t0", "0", "--t1", "1"], "stepcalc.applications"),
    "solve": (["solve", str(ROOT / "tests" / "golden" / "specs" / "exp.ivp")], "stepcalc.solver"),
}


@pytest.mark.parametrize("calls, present, absent", [
    ("cli.build_parser(); cli.main(['fn', 'sin', '1']); cli.main(['deriv', 'x^2', '--at=3'])",
     {"stepcalc.functions"}, SLOW_IMPORTS),
    *((f"cli.main({argv!r})", {module}, SLOW_IMPORTS | {"typing", "shutil", "fractions"})
      for argv, module in ONE_SHOT.values()),
    # a derivative loads no integrator; its exact arithmetic is the one request that needs fractions
    ("cli.main(['deriv', 'x^2', '--at=3'])", {"stepcalc.nonarch"},
     SLOW_IMPORTS | {"typing", "shutil", "stepcalc.solver", "stepcalc.functions", "stepcalc.applications"}),
], ids=["full parser, fn and deriv", *ONE_SHOT, "deriv"])
def test_requests_leave_slow_modules_unimported(calls, present, absent):
    loaded = loaded_modules(calls)
    assert present <= loaded, sorted(present - loaded)
    assert absent.isdisjoint(loaded), sorted(absent & loaded)


# what argparse loaded, which a request that parses no expression has no use for
PARSER_IMPORTS = {"argparse", "re", "enum", "gettext", "locale"}


@pytest.mark.parametrize("route", ["fn", "pendulum", "ballistics", "table", "pi", "lox", "ellipk"])
def test_requests_without_expressions_leave_the_parser_imports_unloaded(route):
    loaded = loaded_modules(f"cli.main({ONE_SHOT[route][0]!r})")
    assert PARSER_IMPORTS.isdisjoint(loaded), sorted(PARSER_IMPORTS & loaded)


def test_the_full_parser_imports_only_the_package():
    # its defaults and help lines read the package's constants; no integration module is imported,
    # and its help, laid out for 80 columns, asks the terminal nothing
    loaded = loaded_modules("cli.build_parser(); cli.main(['--help']); cli.main([]); cli.main(['frobnicate'])")
    assert {name for name in loaded if name.startswith("stepcalc")} == {"stepcalc", "stepcalc.cli"}
    assert "shutil" not in loaded
