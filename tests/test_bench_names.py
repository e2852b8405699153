"""The benchmark tracer's patch targets exist in the package.

bench/tracing.py wraps each (module, attribute) of SPANS and MATVECS by
looking it up in the owner's __dict__ (Tracer._patch).  A rename of any
of them makes `bench/run.py --trace 1` fail at install time; this test
resolves every name the same way, so the rename fails here first.
"""
import ast
import importlib
import importlib.util
import inspect
import pathlib
import textwrap

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
