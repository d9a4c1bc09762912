"""Source hygiene: every module-level import in the package is used, only
equidist imports numpy or scipy when it loads, and every module-level private
function, class or constant is referenced somewhere in the package."""

import ast
import pathlib

import pytest

import heckedist

PACKAGE = sorted(pathlib.Path(heckedist.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str):
    """Names bound by module-level imports that the module never references."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations ("Box") name their types inside a constant
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Dict, List\nx: List[int] = []\n") \
        == [(1, "os"), (2, "Dict")]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def import_time_array_imports(source: str):
    """(line, module) of each numpy or scipy import that runs when the module
    loads: anywhere outside a function body, class bodies and if/try blocks included."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(f for f in found if f[1].split(".")[0] in ("numpy", "scipy"))


def test_checker_flags_an_import_time_array_import():
    source = ("import os, numpy as np\nfrom scipy.integrate import quad\n"
              "try:\n    import numpy.fft\nexcept ImportError:\n    pass\n"
              "class A:\n    from numpy import fft\n"
              "def f():\n    import numpy\n    return numpy\n")
    assert import_time_array_imports(source) == [(1, "numpy"), (2, "scipy.integrate"),
                                                 (4, "numpy.fft"), (8, "numpy")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_equidist_imports_numpy_when_it_loads(path):
    # `import heckedist` and the non-array CLI commands stay on the standard library
    found = import_time_array_imports(path.read_text())
    assert (found != []) == (path.name == "equidist.py"), (path.name, found)


def unused_private_names(sources):
    """(module, name) of each module-level private def, class or assignment
    that no module in sources (a dict of module name to source) references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
    return sorted(d for d in defined if d[1] not in used)


def test_checker_flags_an_unused_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE: int = 4\ndef _helper():\n    return _LIMIT\n"
                "def _orphan():\n    pass\nclass _Old:\n    pass\n__all__ = []\n",
        "b.py": "from a import _helper\nimport a\n_helper()\nx: \"_Kept\" = a._Hidden\n",
        "c.py": "class _Kept:\n    pass\nclass _Hidden:\n    pass\n",
    }
    assert unused_private_names(sources) == [("a.py", "_Old"), ("a.py", "_SPARE"),
                                             ("a.py", "_orphan")]


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in PACKAGE}) == []
