"""Every parameter of every function in the package is read in its body,
every private module-level name is read somewhere in the package, every
public function and class has a reader, and every dataclass field is read
somewhere in the project.

A parameter that no line reads makes each caller build and pass a value
for nothing.  The scan covers nested functions and lambdas; a nested
scope that rebinds the name as its own parameter does not count as a read.
A method's self or cls is bound by the call, not passed, and is not scanned.
A private (_-prefixed, not dunder) function, class or constant that no
line of the package loads outside its own definition is dead code; a
read from the tests does not keep it alive.  A public module-level
function or class is read by another line of the package (an import
alone, such as the re-export in __init__.py, is no read), by a bench
script, in code or as a name in a dotted string, or by the acceptance
tests; one that only its own unit tests call is a capability nothing uses.  A field of a package
dataclass that no line of the package, the tests or the bench reads as an
attribute is stored for nothing.
"""
import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rkdglab"
FUNCTIONS = (ast.FunctionDef, ast.Lambda)


def _params(fn):
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def _reads(node, name):
    """Whether name is loaded anywhere under node, outside scopes that rebind it as a parameter."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, FUNCTIONS) and name in _params(node):
        # defaults and decorators are evaluated in the enclosing scope
        outer = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        outer += getattr(node, "decorator_list", [])
        return any(_reads(d, name) for d in outer)
    return any(_reads(child, name) for child in ast.iter_child_nodes(node))


def _unread(src=SRC):
    out = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, FUNCTIONS):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            for name in _params(fn):
                if name not in ("self", "cls") and not any(_reads(stmt, name) for stmt in body):
                    where = getattr(fn, "name", "<lambda>")
                    out.append(f"{path.name}:{fn.lineno} {where}({name})")
    return out


def test_every_parameter_is_read():
    assert (SRC / "schemes.py").is_file()      # the scan reads the package, not an empty dir
    assert _unread() == []


def test_the_scan_sees_an_unread_parameter(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b):\n"
        "    def g(b):\n"
        "        return b\n"
        "    return a + g(1)\n"
    )
    assert _unread(tmp_path) == ["m.py:1 f(b)"]


@pytest.mark.parametrize("source", [
    "def f(a):\n    return lambda: a\n",
    "def f(a):\n    def g(x=a):\n        return x\n    return g\n",
])
def test_a_read_in_a_nested_scope_counts(tmp_path, source):
    (tmp_path / "m.py").write_text(source)
    assert _unread(tmp_path) == []


def _definitions(tree):
    """(name, node) for each module-level function, class or constant of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _loads(node):
    """Counter of the names loaded, or read as attributes, under node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _unread_private(src=SRC):
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    loads = sum(map(_loads, trees.values()), collections.Counter())
    out = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            private = name.startswith("_") and not name.startswith("__")
            if private and loads[name] == _loads(node)[name]:
                out.append(f"{fname}:{node.lineno} {name}")
    return out


def test_every_private_name_is_read():
    assert (SRC / "schemes.py").is_file()
    assert _unread_private() == []


def test_the_scan_sees_an_unread_private_name(tmp_path):
    # a recursive call is its own definition's read; a read from another
    # module, by name or as an attribute, counts
    (tmp_path / "a.py").write_text(
        "_USED = 1\n"
        "_DEAD = 2\n"
        "__dunder__ = 3\n"
        "def _loop(n):\n"
        "    return _loop(n - 1)\n"
        "class _Shape:\n"
        "    pass\n"
        "def _helper():\n"
        "    return _USED\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _helper\nX = a._Shape, _helper()\n")
    assert _unread_private(tmp_path) == ["a.py:2 _DEAD", "a.py:4 _loop"]


def _names(tree):
    """The names loaded, read as attributes, imported from a module, or given as
    the parts of a dotted-name string under tree."""
    out = set(_loads(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _unread_public(src=SRC, outside=(*sorted((ROOT / "bench").glob("*.py")),
                                     ROOT / "tests" / "test_acceptance.py")):
    """Public module-level functions and classes under src that no module of src
    reads outside their own definition and no outside file names."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    reads = sum(map(_loads, trees.values()), collections.Counter())
    named = set().union(*(_names(ast.parse(path.read_text(), str(path))) for path in outside))
    out = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")
                    and name not in named and reads[name] == _loads(node)[name]):
                out.append(f"{fname}:{node.lineno} {name}")
    return out


def test_every_public_function_and_class_has_a_reader():
    assert (SRC / "schemes.py").is_file()
    assert _unread_public() == []


def test_the_scan_sees_a_public_name_without_a_reader(tmp_path):
    # a re-export and a recursive call are no readers; a read from another
    # module of the package, a bench script's code or dotted string, or the
    # acceptance tests is one
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "pkg" / "a.py").write_text(
        "def exported():\n    pass\n"
        "def loop(n):\n    return loop(n - 1)\n"
        "def used():\n    pass\n"
        "class Traced:\n    def method(self):\n        pass\n"
        "def in_code():\n    pass\n"
        "def accepted():\n    pass\n"
        "def _private():\n    pass\n"
    )
    (tmp_path / "pkg" / "b.py").write_text("from . import a\nX = a.used()\n")
    (tmp_path / "bench.py").write_text(
        "from pkg.a import in_code\nSPANS = ((\"span\", \"pkg.a\", \"Traced.method\"),)\n")
    (tmp_path / "test_acceptance.py").write_text("import pkg.a\npkg.a.accepted()\n")
    outside = (tmp_path / "bench.py", tmp_path / "test_acceptance.py")
    assert _unread_public(tmp_path / "pkg", outside) == ["a.py:1 exported", "a.py:3 loop"]


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) == "dataclass":
            return True
    return False


def _unread_fields(src=SRC, readers=(ROOT / "src", ROOT / "tests", ROOT / "bench")):
    """Fields of the dataclasses under src that no .py file under readers reads as an attribute."""
    reads = {node.attr for root in readers for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                out += [f"{path.name}:{field.lineno} {cls.name}.{field.target.id}"
                        for field in cls.body if isinstance(field, ast.AnnAssign)
                        and isinstance(field.target, ast.Name) and field.target.id not in reads]
    return out


def test_every_dataclass_field_is_read():
    assert (SRC / "schemes.py").is_file()
    assert _unread_fields() == []


def test_the_scan_sees_an_unread_dataclass_field(tmp_path):
    # a store is no read, and a plain class's annotations are no fields
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n"
        "    used: int\n"
        "    stored: int\n"
        "@dataclasses.dataclass\n"
        "class State:\n"
        "    kept: float\n"
        "class Plain:\n"
        "    note: str\n"
    )
    (tmp_path / "use.py").write_text("def f(row, state):\n    state.stored = row.used\n")
    assert _unread_fields(tmp_path / "pkg", [tmp_path]) == ["a.py:6 Row.stored", "a.py:9 State.kept"]
