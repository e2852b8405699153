"""The names the benchmark reads from the package exist, and take what it passes.

bench/tracing.py wraps each (module, attribute) of SPANS and MATVECS by
looking it up in the owner's __dict__ (Tracer._patch).  A rename of any
of them makes `bench/run.py --trace 1` fail at install time; this test
resolves every name the same way, so the rename fails here first.
bench/worker.py and bench/make_reference.py call package functions
directly; every rkdglab name they read must resolve, and every call must
bind to its function's signature.
"""
import ast
import importlib
import importlib.util
import inspect
import pathlib
import textwrap

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()
TARGETS = sorted({(module, attr) for _, module, attr in _TRACING.SPANS} | set(_TRACING.MATVECS))


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_name_resolves_as_the_tracer_patches_it(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert attr in owner.__dict__, f"{module}.{attr} is traced but not defined there"
    assert callable(owner.__dict__[attr])


def test_operator_norm_accepts_exactly_the_traced_methods():
    # the tracer names a norm span after its method: a method outside
    # NORM_PATHS would go untraced
    from rkdglab import operators
    from rkdglab.mesh import build_mesh_1d

    tree = ast.parse(textwrap.dedent(inspect.getsource(operators.operator_norm)))
    compared = {node.comparators[0].value for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                and node.left.id == "method"}
    assert compared == set(_TRACING.NORM_PATHS)
    op = operators.assemble_upwind(build_mesh_1d(8), 1)
    norms = [operators.operator_norm(op, method) for method in _TRACING.NORM_PATHS]
    assert max(norms) - min(norms) <= 1e-8 * norms[0]


def _rkdglab_uses(path):
    """{dotted rkdglab name: [(positional count, keyword names) per call]} of a bench script."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {}      # local name -> the rkdglab name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rkdglab":
                    roots[alias.asname or "rkdglab"] = alias.name if alias.asname else "rkdglab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rkdglab"):
            roots.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})

    def dotted(node):
        if isinstance(node, ast.Name):
            return roots.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    uses = {}
    for node in ast.walk(tree):
        name = dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if name:
            uses.setdefault(name, [])
    for node in ast.walk(tree):
        name = dotted(node.func) if isinstance(node, ast.Call) else None
        if name:
            uses[name].append((len(node.args), tuple(kw.arg for kw in node.keywords)))
    return uses


def _resolve(name):
    """The object a dotted rkdglab name reads: the longest importable module, then attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


BENCH_USES = {script: _rkdglab_uses(BENCH / script) for script in ("worker.py", "make_reference.py")}
BENCH_NAMES = sorted((script, name) for script, uses in BENCH_USES.items() for name in uses)


@pytest.mark.parametrize("script, name", BENCH_NAMES, ids=[f"{s}:{n}" for s, n in BENCH_NAMES])
def test_bench_name_resolves_and_takes_the_arguments_passed(script, name):
    obj = _resolve(name)
    for n_args, keywords in BENCH_USES[script][name]:
        inspect.signature(obj).bind(*range(n_args), **dict.fromkeys(keywords))


def test_the_bench_scan_sees_the_calls_it_checks():
    assert BENCH_USES["worker.py"]["rkdglab.delta"] == [(4, ())]
    assert BENCH_USES["worker.py"]["rkdglab.build_mesh_1d"] == [(2, ("seed",))]
    assert BENCH_USES["make_reference.py"]["rkdglab.operator_norm"] == [(1, ("method", "dense_cap"))]
    assert {"rkdglab.taylor_scheme", "rkdglab.cli.main", "rkdglab.cli.run"} <= set(
        BENCH_USES["worker.py"])
    assert {"rkdglab.__version__", "rkdglab.stability.evolution_map",
            "rkdglab.stability.DELTA_FLOOR", "rkdglab.stability.NORM_RESOLUTION"} <= set(
        BENCH_USES["make_reference.py"])
