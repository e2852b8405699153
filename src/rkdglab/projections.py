"""Special projections used in the error analysis of upwind DG schemes.

gauss_radau: 1D local projection matching moments against P^{k-1} and the
right (downwind) cell trace.  lsz: its 2D analogue on uniform rectangular
meshes, defined by a cell-average condition and a speed-weighted
derivative/trace condition.  pi_star: the time-step-aware approximation
operator built from them; it needs analytic advective derivatives of the
projected function.
"""
import numpy as np

from .basis import basis_2d_index, gauss_quadrature, legendre_modes, reference_tables
from .errors import (
    CflTooLargeError,
    PowerIterationError,
    ProjectionFailureError,
    UnsupportedMeshError,
)
from .operators import GridFunction, operator_norm, project


def gauss_radau(f, space, n_points=None):
    """Downwind-trace projection onto V_h^k of a cellwise-H1 function (1D)."""
    if space.dim != 1:
        raise UnsupportedMeshError("gauss_radau is the 1D projection")
    k = space.degree
    mesh = space.mesh
    nq = n_points if n_points is not None else max(10, k + 4)
    quad = gauss_quadrature(nq)
    vals, _ = legendre_modes(k, quad.nodes)
    right, _, _ = reference_tables(k)
    nodes, h = mesh.nodes, mesh.cell_sizes

    x = nodes[:-1, None] + (quad.nodes[None, :] + 1.0) * h[:, None] / 2.0
    moments = np.sqrt(h / 2.0)[:, None] * np.einsum("q,mq,iq->im", quad.weights, vals, f(x))

    # local (k+1) x (k+1) system: k moment rows plus the right-trace row;
    # in the orthonormal basis the matrix is cell-independent
    a = np.zeros((k + 1, k + 1))
    a[:k, :k] = np.eye(k)
    a[k, :] = right
    rhs = np.empty((k + 1, mesh.n_cells))
    rhs[:k] = moments[:, :k].T
    rhs[k] = f(nodes[1:]) * np.sqrt(h / 2.0)
    try:
        coeffs = np.linalg.solve(a, rhs).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - matrix is triangular-ish
        raise ProjectionFailureError("singular Gauss-Radau system") from exc
    return GridFunction(space, np.ascontiguousarray(coeffs))


def _lsz_system(space):
    """Cell-local matrix of the 2D projection conditions (uniform mesh)."""
    k = space.degree
    mesh = space.mesh
    ids = basis_2d_index(k)
    m = len(ids)
    right, left, stiff = reference_tables(k)
    bx, by = mesh.beta_x, mesh.beta_y
    cx, cy = 2.0 / mesh.hx, 2.0 / mesh.hy

    g = np.zeros((m, m))
    for r_, (p, q) in enumerate(ids):        # test mode
        for c_, (a, b) in enumerate(ids):    # trial mode
            val = 0.0
            if b == q:
                val += bx * cx * stiff[p, a]
                val -= bx * cx * right[a] * (right[p] - left[p])
            if a == p:
                val += by * cy * stiff[q, b]
                val -= by * cy * right[b] * (right[q] - left[q])
            g[r_, c_] = val
    # the constant test row is identically zero; the cell-average condition
    # takes its place, which in this basis pins the (0, 0) coefficient
    g[0, :] = 0.0
    g[0, 0] = 1.0
    return g, ids


def lsz(f, space, n_points=None):
    """2D projection onto V_h^k from cell averages and weighted trace data."""
    if space.dim != 2:
        raise UnsupportedMeshError("lsz is the 2D projection")
    if not space.mesh.is_uniform:
        raise UnsupportedMeshError("lsz projection requires a uniform mesh")
    k = space.degree
    mesh = space.mesh
    nq = n_points if n_points is not None else max(10, k + 4)
    quad = gauss_quadrature(nq)
    vals, ders = legendre_modes(k, quad.nodes)
    right, left, _ = reference_tables(k)
    g, ids = _lsz_system(space)
    m = len(ids)
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    bx, by = mesh.beta_x, mesh.beta_y

    xq = (np.arange(nx)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hx
    yq = (np.arange(ny)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hy
    fvol = f(xq[:, None, :, None], yq[None, :, None, :])          # (nx, ny, q, q)
    ytop = (np.arange(ny)[None, :, None] + 1.0) * hy
    ftop = f(xq[:, None, :], np.broadcast_to(ytop, (nx, ny, 1)))  # (nx, ny, q)
    xright = (np.arange(nx)[:, None, None] + 1.0) * hx
    frgt = f(np.broadcast_to(xright, (nx, ny, 1)), yq[None, :, :])

    rhs = np.empty((nx, ny, m))
    wqx = quad.weights * hx / 2.0
    wqy = quad.weights * hy / 2.0
    sxy = 2.0 / np.sqrt(hx * hy)
    for r_, (p, q) in enumerate(ids):
        if r_ == 0:
            # cell average, expressed as the L2 coefficient of the constant mode
            rhs[:, :, 0] = np.einsum("q,r,xyqr->xy", wqx, wqy, fvol) * vals[0, 0] ** 2 * sxy
            continue
        grad_test = bx * np.einsum("q,r,xyqr,q,r->xy", wqx, wqy, fvol, ders[p] * 2.0 / hx, vals[q])
        grad_test += by * np.einsum("q,r,xyqr,q,r->xy", wqx, wqy, fvol, vals[p], ders[q] * 2.0 / hy)
        grad_test *= sxy
        top = by * (right[q] - left[q]) * np.sqrt(2.0 / hy) * np.sqrt(2.0 / hx) * np.einsum(
            "q,xyq,q->xy", wqx, ftop, vals[p]
        )
        rgt = bx * (right[p] - left[p]) * np.sqrt(2.0 / hx) * np.sqrt(2.0 / hy) * np.einsum(
            "r,xyr,r->xy", wqy, frgt, vals[q]
        )
        rhs[:, :, r_] = grad_test - top - rgt
    try:
        coeffs = np.linalg.solve(g, rhs.reshape(-1, m).T).T
    except np.linalg.LinAlgError as exc:
        raise ProjectionFailureError("singular local projection system") from exc
    return GridFunction(space, coeffs.reshape(nx, ny, m))


def special_projection(f, space, n_points=None):
    """Dimension dispatch: gauss_radau in 1D, lsz on uniform 2D meshes."""
    if space.dim == 1:
        return gauss_radau(f, space, n_points)
    return lsz(f, space, n_points)


def pi_star(field, scheme, space, upwind_op, reduced_op, tau, q, tol=1e-12, max_iter=200):
    """Time-step-aware approximation operator of the reduced-stage schemes.

    field must expose deriv(i) returning the i-th advective derivative as a
    callable (deriv(0) is the function itself).  The inverted stage
    polynomial in the reduced operator is solved by fixed-point (Neumann)
    iteration, which converges exactly in the small-time-step regime where
    the operator is defined.
    """
    alphas = scheme.alphas
    s = scheme.stages
    k = space.degree
    r = scheme.order
    if not 1 <= q <= min(r, k + 1):
        raise ValueError(f"truncation order q={q} outside [1, min(r, k+1)]")

    import math

    def taylor_sum(x, *rest):
        acc = 0.0
        for i in range(1, q + 1):
            acc = acc + tau ** (i - 1) / math.factorial(i) * field.deriv(i - 1)(x, *rest)
        return acc

    rhs = special_projection(taylor_sum, space)
    if tau > 0.0 and q < s:
        tail_seed = special_projection(field.deriv(q), space)
        tail = alphas[s] * tail_seed
        for i in range(s - 1, q, -1):
            tail = alphas[i] * tail_seed + tau * reduced_op.apply(tail)
        rhs = rhs + tau**q * tail

    # solve (I + E) v = rhs with E = sum_{i>=2} alpha_i (tau Lt)^{i-1}
    def apply_tail_poly(v):
        if s < 2 or tau == 0.0:
            return space.zeros()
        t = alphas[s] * v
        for i in range(s - 1, 1, -1):
            t = alphas[i] * v + tau * reduced_op.apply(t)
        return tau * reduced_op.apply(t)

    v = rhs.copy()
    scale = max(rhs.norm(), 1e-300)
    previous = np.inf
    reason = f"still moving after {max_iter} iterations"
    for iteration in range(1, max_iter + 1):
        v_next = rhs - apply_tail_poly(v)
        delta = (v_next - v).norm()
        v = v_next
        if delta <= tol * scale:
            return v
        if not delta < previous:            # also nan: the iteration diverges
            reason = f"update stopped contracting at iteration {iteration}"
            break
        previous = delta
    contraction = None
    try:
        op_norm = operator_norm(reduced_op, "auto")
        contraction = sum(
            abs(alphas[i]) * (tau * op_norm) ** (i - 1) for i in range(2, s + 1)
        )
    except (np.linalg.LinAlgError, PowerIterationError):  # diagnostics only
        pass
    raise CflTooLargeError(
        f"resolvent fixed point {reason} (contraction estimate {contraction})",
        contraction=contraction,
    )
