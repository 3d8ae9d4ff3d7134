"""Public names: everything exported resolves and has a caller, the demos
import only live names, no library module keeps an import it does not use,
and no private helper lacks a caller.

The demos are not run by the suite, so their imports are read with ``ast``.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import fdsl4

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


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
    # bench/stagetrace.py reads only the ``T`` argument of moments, by name;
    # the field list pins the table's shape for the closure, the recurrence's
    # row factors and the oracles
    assert tuple(inspect.signature(fdsl4.moments).parameters) == ("n", "X", "T", "ctx")
    assert tuple(f.name for f in dataclasses.fields(fdsl4.MomentTable)) == \
        ("X", "alpha", "beta", "eta", "mu", "at_X", "factors")


def test_correction_term_fields_pinned():
    # bench/workloads.hinge_values and tools/compare_cases.digest read a
    # term's arrays by these names
    assert fdsl4.CorrectionTerm._fields == ("a", "b", "c", "d")


def test_derivative_cache_interface_pinned():
    # bench/stagetrace.py reports corrections._derivative_arrays.cache_info()
    from fdsl4 import corrections
    assert callable(getattr(corrections._derivative_arrays, "cache_info", None)), \
        "corrections._derivative_arrays lost its cache_info"


def _params(fn):
    return tuple(inspect.signature(fn).parameters)


def test_traced_verify_interfaces_pinned():
    # bench/stagetrace.py rebinds QuadratureRule.build as a classmethod and
    # reads its panels and nodes_per_panel arguments by name; it also wraps
    # build_galerkin and galerkin_nearest_eigenvalue
    from fdsl4 import verify
    assert isinstance(verify.QuadratureRule.__dict__["build"], classmethod), \
        "QuadratureRule.build must stay a classmethod"
    assert _params(verify.QuadratureRule.build) == ("X", "panels", "nodes_per_panel", "ctx"), \
        "QuadratureRule.build(X, panels, nodes_per_panel, ctx) changed"
    assert _params(verify.build_galerkin) == ("spec", "N", "ctx"), \
        "build_galerkin(spec, N, ctx) changed"
    assert _params(verify.galerkin_nearest_eigenvalue) == ("spec", "shift", "N", "ctx"), \
        "galerkin_nearest_eigenvalue(spec, shift, N, ctx) changed"


def test_one_exact_sum_kernel():
    # numerics._dot forms every exactly rounded sum of products in the package:
    # no module reads mp.fdot, or mp.convert to coerce a kernel entry, nor
    # imports either from mpmath
    package = Path(fdsl4.__file__).resolve().parent
    hits = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("fdot", "convert") \
                    and isinstance(node.value, ast.Name) and node.value.id == "mp":
                hits.append(f"{path.name}:{node.lineno} mp.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
                hits += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                         if alias.name in ("fdot", "convert")]
    assert hits == []


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


def _unused_imports(path):
    """Names a module imports but never reads, string annotations included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    package = Path(fdsl4.__file__).resolve().parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def _definitions(statement):
    """Top-level names a module statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = getattr(statement, "targets", None) or [statement.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _private_definitions(statement):
    """Private top-level names a module statement defines."""
    return [n for n in _definitions(statement) if n.startswith("_") and not n.startswith("__")]


def _read_names(statement):
    """Names a statement reads, bare or as a module attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_private_helpers_have_callers():
    # a private function, class or constant is read somewhere in the package
    # outside its own definition, so a helper that loses its callers goes too
    package = Path(fdsl4.__file__).resolve().parent
    statements = [(path.name, s) for path in sorted(package.glob("*.py"))
                  for s in ast.parse(path.read_text(encoding="utf-8")).body]
    private = [(module, name, s) for module, s in statements
               for name in _private_definitions(s)]
    assert len(private) >= 20
    reads = [(s, _read_names(s)) for _, s in statements]
    assert [f"{module}: {name}" for module, name, s in private
            if not any(name in names for other, names in reads if other is not s)] == []


def test_exported_names_have_callers():
    # an exported name is read somewhere in the package, the tools, the demos
    # or the benchmark, outside its own definition and __init__.py; the
    # tests do not count, and neither do the layer names the benchmark's
    # tracer holds as strings
    package = Path(fdsl4.__file__).resolve().parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += [p for folder in ("tools", "demos", "bench")
              for p in sorted((ROOT / folder).glob("*.py"))]
    reads = [(_definitions(s), _read_names(s)) for path in paths
             for s in ast.parse(path.read_text(encoding="utf-8")).body]
    assert [name for name in fdsl4.__all__
            if not any(name in names for defined, names in reads if name not in defined)] == []
