"""Public names: everything exported resolves, and the demos import only live names.

The demos are not run by the suite, so their imports are read with ``ast``.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import fdsl4

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _fdsl4_imports(path):
    """(module, name) for every name the file imports from fdsl4."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "fdsl4":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "fdsl4"]
    return found


def test_exported_names_resolve():
    assert [name for name in fdsl4.__all__ if not hasattr(fdsl4, name)] == []


def test_moment_table_interface_pinned():
    # bench/stagetrace.py reads the ``T`` argument of moments by name
    assert tuple(inspect.signature(fdsl4.moments).parameters) == ("n", "X", "T", "ctx")
    assert tuple(f.name for f in dataclasses.fields(fdsl4.MomentTable)) == \
        ("n", "X", "alpha", "beta", "eta", "mu")


def test_demo_imports_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for demo in demos:
        imports = _fdsl4_imports(demo)
        assert imports, f"{demo.name} imports nothing from fdsl4"
        for module, name in imports:
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                missing.append(f"{demo.name}: {module}.{name}")
    assert missing == []
