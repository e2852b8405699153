"""Every parameter of every function in the package is read in its body.

A parameter that no line reads makes each caller build and pass a value
for nothing.  The scan covers nested functions and lambdas; a nested
scope that rebinds the name as its own parameter does not count as a read.
A method's self or cls is bound by the call, not passed, and is not scanned.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rkdglab"
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
