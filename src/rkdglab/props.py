"""Built-in operator-identity checks, runnable from the CLI or the test suite.

Each check returns (name, max_residual, tolerance); a check passes when the
residual stays below its tolerance.  All randomness is seeded.
"""
import numpy as np

from .mesh import build_mesh_1d, build_mesh_2d
from .operators import (
    DGSpace,
    _face_traces,
    assemble_upwind,
    jump_inner,
    l2_inner,
    project,
    reduce_operator,
)
from .projections import gauss_radau, lsz
from .schemes import EvolutionMap, energy_coefficients, step, taylor_scheme


def check_orthonormality():
    """Coefficient 2-norm equals the quadrature L2 norm of the reconstruction."""
    from .operators import eval_grid, quadrature_grid

    worst = 0.0
    mesh_1d, mesh_2d = build_mesh_1d(7, perturb_fraction=0.2, seed=3), build_mesh_2d(4, 5)
    cases = [(mesh_1d, k, k + 1) for k in (0, 1, 3)] + [(mesh_2d, k, k) for k in (1, 2)]
    for mesh, k, seed in cases:
        u = DGSpace(mesh, k).random(seed)
        *_, w = quadrature_grid(u.space, k + 6)
        vals = eval_grid(u, k + 6)
        worst = max(worst, abs(np.sqrt(np.sum(w * vals**2)) - u.norm()))
    return "orthonormal basis isometry", worst, 1e-12


def check_jump_identity():
    """<<v, v>> = -<(L + L^T) v, v> on random states, 1D and 2D."""
    worst = 0.0
    for mesh in (build_mesh_1d(9, 0.2, seed=5), build_mesh_2d(4, 3, 1.0, 2.0)):
        for k in (1, 2):
            op = assemble_upwind(mesh, k)
            space = op.space
            for seed in range(4):
                v = space.random(seed)
                lhs = jump_inner(v, v)
                rhs = -(l2_inner(op.apply(v), v) + l2_inner(op.transpose().apply(v), v))
                worst = max(worst, abs(lhs - rhs) / max(v.norm() ** 2, 1.0))
    return "jump seminorm identity", worst, 1e-11


def check_reduction():
    """Reduced operator equals the full one composed with the mode filter."""
    worst = 0.0
    for mesh in (build_mesh_1d(8, 0.15, seed=2), build_mesh_2d(3, 4)):
        for k in (1, 3):
            op = assemble_upwind(mesh, k)
            red = reduce_operator(op)
            v = op.space.random(k)
            direct = red.apply(v)
            filtered = project(op.apply(v), target="k_minus_1")
            worst = max(worst, (direct - filtered).norm() / max(v.norm(), 1.0))
    return "reduced operator = filtered operator", worst, 1e-13


def check_integration_by_parts():
    """Repeated transfer of the operator across the inner product, i <= 4."""
    mesh = build_mesh_1d(12, 0.1, seed=8)
    worst = 0.0
    for k in (1, 2):
        op = assemble_upwind(mesh, k)
        space = op.space
        w = space.random(11)
        v = space.random(12)
        pw = [w]
        pv = [v]
        for _ in range(4):
            pw.append(op.apply(pw[-1]))
            pv.append(op.apply(pv[-1]))
        for i in range(1, 5):
            lhs = l2_inner(pw[i], v)
            rhs = (-1.0) ** i * l2_inner(w, pv[i])
            for j in range(i):
                rhs += (-1.0) ** (j + 1) * jump_inner(pw[i - j - 1], pv[j])
            scale = max(abs(lhs), 1.0) * max(w.norm(), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    return "discrete integration by parts", worst, 1e-10


def check_energy_identity():
    """One-step energy expansion with the closed-form coefficients, r = 2, 3, 4."""
    mesh = build_mesh_1d(16)
    worst = 0.0
    for r in (2, 3, 4):
        scheme = taylor_scheme(r)
        k = 1
        op = assemble_upwind(mesh, k)
        tau = 0.1 / 16
        w = op.space.random(r)
        powers = [w]
        for _ in range(r):
            powers.append(op.apply(powers[-1]))
        emap = EvolutionMap(scheme, op, op, tau)
        lhs = emap.apply(w).norm() ** 2
        coeff = energy_coefficients(scheme.alphas)
        rhs = sum(coeff.beta[i] * tau ** (2 * i) * powers[i].norm() ** 2 for i in range(r + 1))
        rhs += sum(
            coeff.gamma[i, j] * tau ** (i + j + 1) * jump_inner(powers[i], powers[j])
            for i in range(r)
            for j in range(r)
        )
        worst = max(worst, abs(lhs - rhs) / w.norm() ** 2)
    return "RK energy identity", worst, 1e-10


def check_butcher_compact():
    """Butcher and compact forms agree on linear autonomous problems."""
    mesh = build_mesh_1d(10, 0.1, seed=4)
    worst = 0.0
    for r in (2, 3, 4):
        for variant in ("standard", "sdA"):
            scheme = taylor_scheme(r, variant)
            k = 2
            op = assemble_upwind(mesh, k)
            red = reduce_operator(op)
            u = op.space.random(r + 7)
            tau = 0.04
            a = step(scheme, op, red, u, tau, form="butcher")
            b = step(scheme, op, red, u, tau, form="compact")
            worst = max(worst, (a - b).norm() / max(u.norm(), 1.0))
    return "Butcher form matches compact form", worst, 1e-12


def check_reduced_rk2_reformulation():
    """One reduced-stage RK2 step equals the standard step minus the filtered correction."""
    mesh = build_mesh_1d(14, 0.1, seed=9)
    k = 1
    op = assemble_upwind(mesh, k)
    red = reduce_operator(op)
    scheme = taylor_scheme(2, "sdA")
    u = op.space.random(21)
    tau = 0.004
    lhs = step(scheme, op, red, u, tau)
    base = step(taylor_scheme(2), op, op, u, tau)
    corr = op.apply(project(op.apply(u), target="perp"))
    rhs = base - (tau**2 / 2.0) * corr
    resid = (lhs - rhs).norm() / max(u.norm(), 1.0)
    return "reduced RK2 perturbation form", resid, 1e-12


def check_gauss_radau():
    """Moment and right-trace constraints of the 1D downwind projection."""
    mesh = build_mesh_1d(10, 0.2, seed=6)
    worst = 0.0
    f = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    for k in (1, 2, 3):
        space = DGSpace(mesh, k)
        p = gauss_radau(f, space)
        full = project(f, space, n_points=20)
        sub = project(p, target="k_minus_1") - project(full, target="k_minus_1")
        worst = max(worst, sub.norm())
        ((_, right, _),) = _face_traces(p)
        worst = max(worst, np.abs(right - f(mesh.nodes[1:])).max())
    return "Gauss-Radau constraints", worst, 1e-12


def check_lsz_conditions():
    """Cell averages of the 2D projection match those of the function."""
    mesh = build_mesh_2d(5, 4)
    f = lambda x, y: np.sin(2 * np.pi * (x + y))
    worst = 0.0
    for k in (1, 2):
        space = DGSpace(mesh, k)
        p = lsz(f, space)
        full = project(f, space, n_points=16)
        worst = max(worst, np.abs(p.coeffs[..., 0] - full.coeffs[..., 0]).max())
    return "2D projection cell averages", worst, 1e-12


def check_semi_negativity():
    """<(L + L^T) v, v> <= 0 up to roundoff on many random states.

    The 100 states of a mesh stand on a trailing batch axis, so each
    operator is applied once to all of them.
    """
    worst = -np.inf
    for mesh, k in ((build_mesh_1d(12, 0.3, seed=1), 2), (build_mesh_2d(4, 4), 1)):
        op = assemble_upwind(mesh, k)
        v = np.stack([op.space.random(seed).coeffs for seed in range(100)], axis=-1)
        cells = tuple(range(v.ndim - 1))
        val = np.sum((op.apply_array(v) + op.transpose().apply_array(v)) * v, axis=cells)
        worst = max(worst, float(np.max(val / np.sum(v * v, axis=cells))))
    return "negative semi-definiteness", max(worst, 0.0), 1e-11


ALL_CHECKS = (
    check_orthonormality,
    check_jump_identity,
    check_reduction,
    check_integration_by_parts,
    check_energy_identity,
    check_butcher_compact,
    check_reduced_rk2_reformulation,
    check_gauss_radau,
    check_lsz_conditions,
    check_semi_negativity,
)


def run_all(out=print):
    """Run every check, emit one line each, return the number of failures."""
    failures = 0
    for check in ALL_CHECKS:
        name, resid, tol = check()
        ok = resid <= tol
        failures += 0 if ok else 1
        out(f"{'PASS' if ok else 'FAIL'}  {name}: residual {resid:.2e} (tol {tol:.0e})")
    return failures
