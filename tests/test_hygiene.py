"""Source hygiene: every module-level import in the package is used, only
equidist imports numpy when it loads, no module imports scipy at all,
every module-level private function, class or constant is referenced
somewhere in the package, every function reads each of its parameters,
no name is parsed again where the parsed value could travel instead, no
decision reads a float embedding, no Kloosterman term computes its own cos
or sin beside the kept tables, no module keeps state by a global statement
or reads the table budget beside fields._Store, and every benchmark record
at the repository root is strict JSON with its required keys."""

import ast
import json
import pathlib

import pytest

import heckedist

PACKAGE = sorted(pathlib.Path(heckedist.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
BENCH_RECORDS = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


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


def imported_modules(source: str):
    """(line, module) of every import statement, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted(found)


def test_checker_finds_an_import_in_a_method():
    source = ("import os\nclass A:\n    def f(self):\n        def g():\n"
              "            from scipy.integrate import quad\n        return g\n")
    assert imported_modules(source) == [(1, "os"), (5, "scipy.integrate")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy is a test-only reference: the package's routes run without it
    found = [m for m in imported_modules(path.read_text()) if m[1].split(".")[0] == "scipy"]
    assert found == [], (path.name, found)


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


def unused_parameters(source: str):
    """(line, function, parameter) of each parameter, self and cls aside, that
    its function's body never reads; lambdas count as functions, and a read in
    a nested function counts for the function that encloses it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p) for p in params
                  if p not in read and p not in ("self", "cls")]
    return sorted(found)


def test_checker_flags_an_unused_parameter():
    source = ("def f(field, level, *args, key=None, **kw):\n    return level, kw\n"
              "class A:\n    def m(self, x, y):\n        def g():\n            return x\n"
              "        return g\n    @classmethod\n    def c(cls, z):\n        return 1\n"
              "h = lambda u, v: u\n"
              "async def k(p, /, q):\n    await p\n")
    assert unused_parameters(source) == [
        (1, "f", "args"), (1, "f", "field"), (1, "f", "key"), (4, "m", "y"),
        (9, "c", "z"), (11, "<lambda>", "v"), (12, "k", "q")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text()) == [], path.name


def reparsed_names(source: str):
    """(line, function) of each make_field call passed an attribute read (a
    spec kept on an object and parsed again) and each spectral_measure call
    passed a %-formatted string or an f-string (a kind built to be parsed back)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        args = [*node.args, *(k.value for k in node.keywords)]
        if name == "make_field":
            bad = any(isinstance(a, ast.Attribute) for a in args)
        elif name == "spectral_measure":
            bad = any(isinstance(a, ast.JoinedStr)
                      or isinstance(a, ast.BinOp) and isinstance(a.op, ast.Mod) for a in args)
        else:
            bad = False
        if bad:
            found.append((node.lineno, name))
    return sorted(found)


def test_checker_flags_a_reparsed_name():
    source = ("make_field(self.field_spec)\nfields.make_field(spec=ds.spec)\n"
              "make_field(spec)\nmake_field(5)\nmake_field(repr(field))\n"
              "spectral_measure('pl%d' % xi)\nm.spectral_measure(f'v1{xi}')\n"
              "spectral_measure(kind)\nspectral_measure('pl0')\nSpectralMeasure('pl', xi)\n")
    assert reparsed_names(source) == [(1, "make_field"), (2, "make_field"),
                                      (6, "spectral_measure"), (7, "spectral_measure")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_names_are_parsed_once_where_they_enter(path):
    # a field spec or measure kind is read at the CLI, the package's edge, and
    # the parsed NumberField or SpectralMeasure is passed on from there
    assert reparsed_names(path.read_text()) == [], path.name


def float_embedding_reads(source: str):
    """(line, enclosing def as Class.method) of each embed() or embeddings() call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) \
                    and getattr(child.func, "attr", None) in ("embed", "embeddings"):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


# the float embeddings are read only to print them, to take the regulator's log,
# and by embed() itself; signs and orderings come from exact traces and norms
EMBEDDING_READERS = {"fields.py": {"FieldElement.embed", "UnitGroupData.__init__"},
                     "cli.py": {"cmd_field_info", "cmd_field_unit"}}


def test_checker_finds_an_embedding_read():
    source = ("class U:\n    def f(self, x):\n        return x.embed()[0] > 0\n"
              "def g(f, a):\n    return [v < 0 for v in f.embeddings(a, 0)]\n"
              "def h(x):\n    return x.signs()\n")
    assert float_embedding_reads(source) == [(3, "U.f"), (5, "g")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_decision_reads_a_float_embedding(path):
    allowed = EMBEDDING_READERS.get(path.name, set())
    reads = float_embedding_reads(path.read_text())
    assert [(line, scope) for line, scope in reads if scope not in allowed] == [], path.name


def trig_reads(source: str):
    """(line, enclosing def) of each read of cos or sin from math or cmath, as
    an attribute or through a from-import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("cos", "sin") \
                    and getattr(child.value, "id", None) in ("math", "cmath"):
                found.append((child.lineno, ".".join(scope)))
            elif isinstance(child, ast.ImportFrom) and child.module in ("math", "cmath") \
                    and {a.name for a in child.names} & {"cos", "sin"}:
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_checker_finds_a_trig_read():
    source = ("from math import sin\nimport math\ndef f(x):\n    t = math.cos\n"
              "    return t(x) + math.sin(x)\nclass A:\n    def g(self, z):\n"
              "        return cmath.cos(z) + math.tan(z) + cos(z)\n")
    assert trig_reads(source) == [(1, ""), (4, "f"), (5, "f"), (8, "A.g")]


def test_kloosterman_terms_read_their_trig_tables():
    # a term's cos or sin is a lookup in a kept table: only the table builder
    # calls the functions, so no second term path grows beside the tables
    path = next(p for p in PACKAGE if p.name == "kloosterman.py")
    assert {scope for _, scope in trig_reads(path.read_text())} == {"_trig_table"}


def store_state(source: str):
    """(line, enclosing def as Class.method, what) of each global statement and
    each read of the table budget _STORE_ENTRIES: as a name, an attribute or
    a from-import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Global):
                found.append((child.lineno, ".".join(scope), "global"))
            elif isinstance(child, ast.Name) and child.id == "_STORE_ENTRIES" \
                    and isinstance(child.ctx, ast.Load) \
                    or isinstance(child, ast.Attribute) and child.attr == "_STORE_ENTRIES" \
                    or isinstance(child, ast.ImportFrom) \
                    and "_STORE_ENTRIES" in {a.name for a in child.names}:
                found.append((child.lineno, ".".join(scope), "budget"))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_checker_flags_a_second_store():
    source = ("from .fields import _STORE_ENTRIES, _Store\n_tables, _size = {}, 0\n"
              "def keep(key, table):\n    global _size\n"
              "    if _size + len(table) <= _STORE_ENTRIES:\n        _size += len(table)\n"
              "class A:\n    def f(self):\n        return fields._STORE_ENTRIES\n"
              "_STORE_ENTRIES = 1 << 16\n")
    assert store_state(source) == [(1, "", "budget"), (4, "keep", "global"),
                                   (5, "keep", "budget"), (9, "A.f", "budget")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_tables_are_kept_by_the_one_store(path):
    # every table store is a fields._Store, whose keep is the one place that
    # holds a table against the budget; a module-global counter beside it
    # would be a second copy of the policy
    found = {(scope, what) for _, scope, what in store_state(path.read_text())}
    assert found == ({("_Store.keep", "budget")} if path.name == "fields.py" else set()), \
        path.name


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not JSON."""
    def reject(name):
        raise ValueError("non-JSON constant %s" % name)
    return json.loads(text, parse_constant=reject)


def test_strict_json_rejects_non_finite_constants():
    assert strict_json('{"x": [1.5, null]}') == {"x": [1.5, None]}
    for text in ('{"x": NaN}', "[Infinity]", "[-Infinity]"):
        with pytest.raises(ValueError, match="non-JSON constant"):
            strict_json(text)


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_is_strict_json_with_required_keys(path):
    record = strict_json(path.read_text())
    missing = [k for k in ("what", "machine", "git_sha", "end_to_end") if k not in record]
    assert missing == [], (path.name, missing)
