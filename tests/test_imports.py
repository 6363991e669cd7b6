"""Every import in the package is read by the scope that makes it.

A module-level import must be used somewhere in its module; an import
inside a function must be used in that function (its nested functions
included).  A scan of module scopes alone misses the function-local
imports, which is where most of the package imports."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parents[1] \
    / "series_correction_project_updated_ray"

# (file, scope, name) of imports kept for their side effect
ALLOWED = {
    # the availability probe of pandas' xlsx engine
    ("pipelines/reports.py", "write_excel_safely", "openpyxl"),
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of ``scope`` outside its nested functions (their
    imports belong to the nested scope)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imported(scope):
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def unused_imports(root=PKG):
    """``(file, scope, name, line)`` of every import its scope never
    reads, over the module and function scopes under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, *_FUNCS)):
                continue
            name = getattr(scope, "name", "<module>")
            used = {n.id for n in ast.walk(scope)
                    if isinstance(n, ast.Name)}
            found += [(rel, name, imp, line)
                      for imp, line in _imported(scope)
                      if imp not in used
                      and (rel, name, imp) not in ALLOWED]
    return found


def test_no_unused_import():
    assert unused_imports() == []


def test_scan_sees_function_local_imports(tmp_path):
    (tmp_path / "m.py").write_text(
        "import os\n"
        "import re\n"
        "def f():\n"
        "    import json\n"
        "    import math\n"
        "    def g():\n"
        "        return math.pi\n"
        "    return g, re\n")
    assert unused_imports(tmp_path) == [("m.py", "<module>", "os", 1),
                                        ("m.py", "f", "json", 4)]
