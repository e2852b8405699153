import numpy as np
import pytest

from rkdglab.basis import basis_2d_index, gauss_quadrature, legendre_modes
from rkdglab.errors import CflTooLargeError, UnsupportedMeshError
from rkdglab.experiments import TravelingSine
from rkdglab.mesh import build_mesh_1d, build_mesh_2d
from rkdglab.operators import (
    DGSpace,
    assemble_upwind,
    eval_grid,
    project,
    quadrature_grid,
    reduce_operator,
)
from rkdglab.projections import gauss_radau, lsz, pi_star, special_projection
from rkdglab.schemes import taylor_scheme


def l2_distance_to(u, f, n_points=14):
    space = u.space
    if space.dim == 1:
        x, w = quadrature_grid(space, n_points)
        return float(np.sqrt(np.sum(w * (eval_grid(u, n_points) - f(x)) ** 2)))
    x, y, w = quadrature_grid(space, n_points)
    fx = f(x[:, None, :, None], y[None, :, None, :])
    return float(np.sqrt(np.sum(w * (eval_grid(u, n_points) - fx) ** 2)))


# ---------------------------------------------------------------------------
# Gauss-Radau (1D)
# ---------------------------------------------------------------------------

def _as_function(v):
    """Pointwise evaluator of a 1D member; exact right-endpoint values use
    the trace from the left (downwind) side."""
    mesh = v.space.mesh

    def member(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        idx = np.clip(np.searchsorted(mesh.nodes, flat, side="left") - 1, 0, mesh.n_cells - 1)
        h = mesh.cell_sizes[idx]
        xi = np.clip(2.0 * (flat - mesh.nodes[idx]) / h - 1.0, -1.0, 1.0)
        modes, _ = legendre_modes(v.space.degree, xi)
        out = np.sqrt(2.0 / h) * np.einsum("pm,mp->p", v.coeffs[idx], modes)
        return out.reshape(x.shape)

    return member


def test_gauss_radau_reproduces_members():
    mesh = build_mesh_1d(7, 0.2, seed=3)
    space = DGSpace(mesh, 2)
    v = space.random(8)
    p = gauss_radau(_as_function(v), space, n_points=16)
    assert (p - v).norm() <= 1e-11 * v.norm()


def test_gauss_radau_closed_form_single_cell_algebra():
    # k=1, w(x) = x^2 on a reference cell: moments against constants fix the
    # mean, the right trace fixes the slope; on cell [0, 1] the projection is
    # -1/3 + (4/3) x (mean 1/3, right value 1).  Verified on the first cell
    # of a 2-cell mesh by rescaling x -> x/2.
    mesh = build_mesh_1d(2)
    space = DGSpace(mesh, 1)
    w = lambda x: (2.0 * x) ** 2  # maps cell [0, 1/2] onto the unit-cell algebra
    p = gauss_radau(w, space)
    xs = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
    expected = -1.0 / 3.0 + (4.0 / 3.0) * (2.0 * xs)
    # evaluate p on the first cell
    vals, _ = legendre_modes(1, 2.0 * xs / 0.5 - 1.0)
    got = np.sqrt(2.0 / 0.5) * np.einsum("m,mq->q", p.coeffs[0], vals)
    assert np.abs(got - expected).max() <= 1e-13


def test_gauss_radau_defining_constraints():
    mesh = build_mesh_1d(9, 0.25, seed=5)
    f = lambda x: np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
    for k in (1, 2, 3):
        space = DGSpace(mesh, k)
        p = gauss_radau(f, space, n_points=20)
        # right-trace interpolation at every cell right endpoint
        from rkdglab.operators import _traces_1d

        right, _ = _traces_1d(p)
        scale = max(np.abs(f(mesh.nodes[1:])).max(), 1.0)
        assert np.abs(right - f(mesh.nodes[1:])).max() <= 1e-12 * scale
        # orthogonality of the error against P^{k-1} per cell
        moments = project(f, space, n_points=20)
        diff = p.coeffs[:, :k] - moments.coeffs[:, :k]
        assert np.abs(diff).max() <= 1e-12 * scale


def test_gauss_radau_superconvergence_identity():
    field = TravelingSine(1)
    for n, k in ((16, 1), (12, 2), (10, 3)):
        mesh = build_mesh_1d(n, 0.2, seed=4)
        space = DGSpace(mesh, k)
        op = assemble_upwind(mesh, k)
        lhs = project(field.deriv(1), space, n_points=20)
        rhs = op.apply(gauss_radau(field.value, space, n_points=20))
        assert (lhs - rhs).norm() <= 1e-10


def test_gauss_radau_error_order():
    errs = []
    k = 2
    for n in (16, 32, 64, 128):
        space = DGSpace(build_mesh_1d(n), k)
        p = gauss_radau(lambda x: np.sin(2 * np.pi * x), space)
        errs.append(l2_distance_to(p, lambda x: np.sin(2 * np.pi * x)))
    order = np.log2(errs[-2] / errs[-1])
    assert abs(order - (k + 1)) <= 0.05


def test_gauss_radau_requires_1d():
    with pytest.raises(UnsupportedMeshError):
        gauss_radau(lambda x, y: x, DGSpace(build_mesh_2d(3, 3), 1))


# ---------------------------------------------------------------------------
# 2D projection
# ---------------------------------------------------------------------------

def test_lsz_reproduces_polynomials():
    space = DGSpace(build_mesh_2d(4, 5, 1.0, 2.0), 2)
    f = lambda x, y: 0.3 + 1.1 * x - 0.4 * y + 0.7 * x**2 - 0.2 * y**2 + 0.5 * x * y
    p = lsz(f, space)
    assert (p - project(f, space, n_points=12)).norm() <= 1e-12


def test_lsz_cell_average_condition():
    space = DGSpace(build_mesh_2d(6, 6), 2)
    f = lambda x, y: np.sin(2 * np.pi * (x + y))
    p = lsz(f, space)
    full = project(f, space, n_points=14)
    assert np.abs(p.coeffs[..., 0] - full.coeffs[..., 0]).max() <= 1e-12


def test_lsz_defining_conditions_by_quadrature():
    # residual of the weighted derivative/trace condition, checked with an
    # independent quadrature of eta = p - w against every test mode
    mesh = build_mesh_2d(4, 4, 1.3, 0.8)
    k = 2
    space = DGSpace(mesh, k)
    f = lambda x, y: np.sin(2 * np.pi * (x + y))
    p = lsz(f, space, n_points=14)

    quad = gauss_quadrature(14)
    vals, ders = legendre_modes(k, quad.nodes)
    right = legendre_modes(k, np.array([1.0]))[0][:, 0]
    left = legendre_modes(k, np.array([-1.0]))[0][:, 0]
    ids = basis_2d_index(k)
    hx, hy, bx, by = mesh.hx, mesh.hy, mesh.beta_x, mesh.beta_y
    nx, ny = mesh.nx, mesh.ny
    sxy = 2.0 / np.sqrt(hx * hy)

    xq = (np.arange(nx)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hx
    yq = (np.arange(ny)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hy
    eta_vol = eval_grid(p, 14) - f(xq[:, None, :, None], yq[None, :, None, :])

    from rkdglab.operators import _edge_traces_2d

    top, _, rgt, _ = _edge_traces_2d(p)
    # trace values of p on top/right edges at the quadrature points
    p_top = np.einsum("xya,aq->xyq", top, vals) * np.sqrt(2.0 / hx)
    p_rgt = np.einsum("xyb,bq->xyq", rgt, vals) * np.sqrt(2.0 / hy)
    ytop = (np.arange(ny)[None, :, None] + 1.0) * hy
    xrgt = (np.arange(nx)[:, None, None] + 1.0) * hx
    eta_top = p_top - f(xq[:, None, :], np.broadcast_to(ytop, (nx, ny, 1)))
    eta_rgt = p_rgt - f(np.broadcast_to(xrgt, (nx, ny, 1)), yq[None, :, :])

    wqx = quad.weights * hx / 2.0
    wqy = quad.weights * hy / 2.0
    worst = 0.0
    for (a, b) in ids:
        grad = bx * np.einsum("q,r,xyqr,q,r->xy", wqx, wqy, eta_vol, ders[a] * 2.0 / hx, vals[b])
        grad += by * np.einsum("q,r,xyqr,q,r->xy", wqx, wqy, eta_vol, vals[a], ders[b] * 2.0 / hy)
        grad *= sxy
        t_top = by * (right[b] - left[b]) * np.sqrt(2.0 / hy) * np.sqrt(2.0 / hx) * np.einsum(
            "q,xyq,q->xy", wqx, eta_top, vals[a]
        )
        t_rgt = bx * (right[a] - left[a]) * np.sqrt(2.0 / hx) * np.sqrt(2.0 / hy) * np.einsum(
            "r,xyr,r->xy", wqy, eta_rgt, vals[b]
        )
        worst = max(worst, np.abs(grad - t_top - t_rgt).max())
    assert worst <= 1e-10


def test_lsz_error_order():
    errs = []
    k = 2
    f = lambda x, y: np.sin(2 * np.pi * (x + y))
    for n in (8, 16, 32, 64):
        space = DGSpace(build_mesh_2d(n, n), k)
        errs.append(l2_distance_to(lsz(f, space), f))
    order = np.log2(errs[-2] / errs[-1])
    assert abs(order - (k + 1)) <= 0.05


def test_lsz_2d_superconvergence_residual_order():
    # residual functional of the commuted operators decays at order k+1
    field = TravelingSine(2)
    k = 1
    res = []
    for n in (8, 16, 32, 64):
        mesh = build_mesh_2d(n, n)
        space = DGSpace(mesh, k)
        op = assemble_upwind(mesh, k)
        lhs = project(field.deriv(1), space, n_points=14)
        rhs = op.apply(lsz(field.value, space, n_points=14))
        res.append((lhs - rhs).norm())
    order = np.log2(res[-2] / res[-1])
    assert abs(order - (k + 1)) <= 0.15


def test_lsz_requires_2d():
    with pytest.raises(UnsupportedMeshError):
        lsz(lambda x: x, DGSpace(build_mesh_1d(4), 1))


# ---------------------------------------------------------------------------
# time-step-aware approximation operator
# ---------------------------------------------------------------------------

def _ops(mesh, k):
    op = assemble_upwind(mesh, k)
    return op, reduce_operator(op)


def test_pi_star_collapses_at_zero_step():
    field = TravelingSine(1)
    mesh = build_mesh_1d(16)
    space = DGSpace(mesh, 1)
    op, red = _ops(mesh, 1)
    p = pi_star(field, taylor_scheme(2, "sdA"), space, op, red, 0.0, 2)
    g = gauss_radau(field.value, space)
    assert (p - g).norm() == 0.0


def test_pi_star_matches_second_order_formula():
    field = TravelingSine(1)
    mesh = build_mesh_1d(16)
    space = DGSpace(mesh, 1)
    op, red = _ops(mesh, 1)
    tau = 0.05 / 16
    p = pi_star(field, taylor_scheme(2, "sdA"), space, op, red, tau, 2)
    rhs = gauss_radau(lambda x: field.value(x) + 0.5 * tau * field.deriv(1)(x), space)
    dense = np.eye(space.n_dofs) + 0.5 * tau * red.as_dense()
    expected = np.linalg.solve(dense, rhs.coeffs.ravel()).reshape(space.shape)
    assert np.linalg.norm(p.coeffs - expected) <= 1e-11 * np.linalg.norm(expected)


def test_pi_star_error_order():
    # (r, k, q) = (3, 2, 3) at fixed lambda = 0.05
    field = TravelingSine(1)
    errs = []
    for n in (16, 32, 64, 128):
        mesh = build_mesh_1d(n)
        space = DGSpace(mesh, 2)
        op, red = _ops(mesh, 2)
        p = pi_star(field, taylor_scheme(3, "sdA"), space, op, red, 0.05 / n, 3)
        errs.append(l2_distance_to(p, field.value))
    order = np.log2(errs[-2] / errs[-1])
    assert abs(order - 3.0) <= 0.1


def test_pi_star_gauss_radau_closeness_order():
    # with the full operator at inner stages (the setting of the multi-stage
    # comparison) the distance to the downwind projection decays at k+2
    field = TravelingSine(1)
    k = 1
    diffs = []
    for n in (16, 32, 64, 128):
        mesh = build_mesh_1d(n)
        space = DGSpace(mesh, k)
        op = assemble_upwind(mesh, k)
        p = pi_star(field, taylor_scheme(2, "standard"), space, op, op, 0.05 / n, 2)
        diffs.append((p - gauss_radau(field.value, space)).norm())
    order = np.log2(diffs[-2] / diffs[-1])
    assert abs(order - (k + 2)) <= 0.15


def test_pi_star_rejects_bad_q():
    field = TravelingSine(1)
    mesh = build_mesh_1d(8)
    space = DGSpace(mesh, 1)
    op, red = _ops(mesh, 1)
    with pytest.raises(ValueError):
        pi_star(field, taylor_scheme(3, "sdA"), space, op, red, 0.001, 3)  # q > k+1


@pytest.mark.filterwarnings("error")
def test_pi_star_cfl_too_large():
    field = TravelingSine(1)
    mesh = build_mesh_1d(8)
    space = DGSpace(mesh, 1)
    op, red = _ops(mesh, 1)
    with pytest.raises(CflTooLargeError) as info:
        pi_star(field, taylor_scheme(2, "sdA"), space, op, red, 10.0, 2)
    assert info.value.contraction is None or info.value.contraction > 1.0


def test_pi_star_stops_once_the_update_grows():
    field = TravelingSine(1)
    mesh = build_mesh_1d(8)
    space = DGSpace(mesh, 1)
    op, red = _ops(mesh, 1)
    with pytest.raises(CflTooLargeError, match="stopped contracting at iteration 2"):
        pi_star(field, taylor_scheme(2, "sdA"), space, op, red, 10.0, 2)


def test_special_projection_dispatch():
    f1 = TravelingSine(1)
    s1 = DGSpace(build_mesh_1d(8), 1)
    assert (special_projection(f1.value, s1) - gauss_radau(f1.value, s1)).norm() == 0.0
    f2 = TravelingSine(2)
    s2 = DGSpace(build_mesh_2d(4, 4), 1)
    assert (special_projection(f2.value, s2) - lsz(f2.value, s2)).norm() == 0.0
