"""Special projections used in the error analysis of upwind DG schemes.

gauss_radau: 1D local projection matching moments against P^{k-1} and the
right (downwind) cell trace.  lsz: its 2D analogue on uniform rectangular
meshes, defined by a cell-average condition and a speed-weighted
derivative/trace condition.  pi_star: the time-step-aware approximation
operator built from them; it needs analytic advective derivatives of the
projected function.
"""
import numpy as np

from .basis import gauss_mode_table, kron_sum_2d, reference_tables, sum_factorized, tensor_index
from .errors import (
    CflTooLargeError,
    ProjectionFailureError,
    UnsupportedMeshError,
)
from .operators import (
    GridFunction,
    grid_values,
    project,
    quadrature_grid,
    quadrature_points,
)
from .schemes import symbol_increment


def gauss_radau(f, space, n_points=None):
    """Downwind-trace projection onto V_h^k of a cellwise-H1 function (1D)."""
    if space.dim != 1:
        raise UnsupportedMeshError("gauss_radau is the 1D projection")
    k = space.degree
    mesh = space.mesh
    right, _, _ = reference_tables(k)
    h = mesh.cell_sizes
    moments = project(f, space, n_points=n_points).coeffs

    # local (k+1) x (k+1) system: k moment rows plus the right-trace row;
    # in the orthonormal basis the matrix is cell-independent and lower
    # triangular with diagonal (1, ..., 1, right[k] > 0), so never singular
    a = np.zeros((k + 1, k + 1))
    a[:k, :k] = np.eye(k)
    a[k, :] = right
    rhs = np.empty((k + 1, mesh.n_cells))
    rhs[:k] = moments[:, :k].T
    rhs[k] = f(mesh.nodes[1:]) * np.sqrt(h / 2.0)
    return GridFunction(space, np.ascontiguousarray(np.linalg.solve(a, rhs).T))


def _lsz_system(space):
    """Cell-local matrix of the 2D projection conditions (uniform mesh)."""
    k = space.degree
    mesh = space.mesh
    right, left, stiff = reference_tables(k)
    jump = right - left

    def along(beta, c):
        # test mode p, trial mode a: beta c (stiff[p, a] - right[a] (right[p] - left[p]))
        return beta * c * stiff - np.outer(jump, beta * c * right)

    g = kron_sum_2d(along(mesh.beta_x, 2.0 / mesh.hx), along(mesh.beta_y, 2.0 / mesh.hy))
    # the constant test row is identically zero; the cell-average condition
    # takes its place, which in this basis pins the (0, 0) coefficient
    g[0, :] = 0.0
    g[0, 0] = 1.0
    return g


def lsz(f, space, n_points=None):
    """2D projection onto V_h^k from cell averages and weighted trace data."""
    if space.dim != 2:
        raise UnsupportedMeshError("lsz is the 2D projection")
    if not space.mesh.is_uniform:
        raise UnsupportedMeshError("lsz projection requires a uniform mesh")
    k = space.degree
    mesh = space.mesh
    quad, vals, ders = gauss_mode_table(k, quadrature_points(k, n_points))
    xq, yq, _ = quadrature_grid(space, n_points)
    right, left, _ = reference_tables(k)
    jump = right - left
    g = _lsz_system(space)
    m = space.n_modes
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    bx, by = mesh.beta_x, mesh.beta_y

    fvol = grid_values(f, (xq, yq))                               # (nx, ny, q, q)
    ytop = (np.arange(ny)[None, :, None] + 1.0) * hy
    ftop = f(xq[:, None, :], np.broadcast_to(ytop, (nx, ny, 1)))  # (nx, ny, q)
    xright = (np.arange(nx)[:, None, None] + 1.0) * hx
    frgt = f(np.broadcast_to(xright, (nx, ny, 1)), yq[None, :, :])

    # every test mode (p, q) at once, in the (k+1, k+1) tensor layout: the
    # volume term against beta . grad of the test mode, minus the top and
    # right edge terms.  One sum-factorized product with the stacked
    # [modes; derivatives] table per direction gives every volume integral:
    # blocks (D, V) and (V, D) are the two gradient terms, (V, V) the moments
    wqx = quad.weights * hx / 2.0
    wqy = quad.weights * hy / 2.0
    sxy = 2.0 / np.sqrt(hx * hy)
    m1 = k + 1
    tx = np.vstack([vals, ders * 2.0 / hx]) * wqx
    ty = np.vstack([vals, ders * 2.0 / hy]) * wqy
    vol = sum_factorized(fvol, tx, ty)
    grad_test = bx * vol[..., m1:, :m1] + by * vol[..., :m1, m1:]
    edge = np.sqrt(2.0 / hx) * np.sqrt(2.0 / hy)
    top = by * edge * (ftop @ (vals * wqx).T)[..., :, None] * jump
    rgt = bx * edge * (frgt @ (vals * wqy).T)[..., None, :] * jump[:, None]
    rhs = (sxy * grad_test - top - rgt).reshape(nx, ny, -1)[..., tensor_index(k)]
    # cell average, expressed as the L2 coefficient of the constant mode
    rhs[..., 0] = vol[..., 0, 0] * sxy
    try:
        coeffs = np.linalg.solve(g, rhs.reshape(-1, m).T).T
    except np.linalg.LinAlgError as exc:
        raise ProjectionFailureError("singular local projection system") from exc
    return GridFunction(space, coeffs.reshape(nx, ny, m))


def special_projection(f, space):
    """Dimension dispatch: gauss_radau in 1D, lsz on uniform 2D meshes."""
    if space.dim == 1:
        return gauss_radau(f, space)
    return lsz(f, space)


#: pi_star fixed point: relative update at which it stops, and its iteration cap
PI_STAR_TOL = 1e-12
PI_STAR_MAX_ITER = 200


def pi_star(problem, scheme, inner_op, tau, q):
    """Time-step-aware approximation operator of the reduced-stage schemes.

    problem (a ProblemSpec) supplies deriv(i), the i-th advective
    derivative as a callable (deriv(0) is the function itself).  inner_op
    is the inner-stage operator (the reduced one for sdA) on the space of
    the result.  The inverted stage polynomial in inner_op is solved by
    fixed-point (Neumann) iteration, which converges exactly in the
    small-time-step regime where the operator is defined.  On failure,
    CflTooLargeError carries the observed contraction: the ratio of the
    last two update norms.
    """
    alphas = scheme.alphas
    s = scheme.stages
    space = inner_op.space
    k = space.degree
    if not 1 <= q <= min(s, k + 1):
        raise ValueError(f"truncation order q={q} outside [1, min(r, k+1)]")

    def taylor_sum(x, *rest):
        acc = 0.0
        for i in range(1, q + 1):
            acc = acc + alphas[i] * tau ** (i - 1) * problem.deriv(i - 1)(x, *rest)
        return acc

    rhs = special_projection(taylor_sum, space)
    if tau > 0.0 and q < s:
        tail_seed = special_projection(problem.deriv(q), space)
        tail = alphas[s] * tail_seed
        for i in range(s - 1, q, -1):
            tail = alphas[i] * tail_seed + tau * inner_op.apply(tail)
        rhs = rhs + tau**q * tail

    # solve (I + E) v = rhs with E = sum_{i>=2} alpha_i (tau Lt)^{i-1}:
    # the increment of the stage polynomial with coefficients alpha_1..alpha_s
    if s < 2 or tau == 0.0:
        return rhs
    tail_poly = symbol_increment(alphas[1:], tau, inner_op, inner_op, np.eye(space.n_modes))
    v = rhs.copy()
    scale = max(rhs.norm(), 1e-300)
    previous = np.inf
    reason = f"still moving after {PI_STAR_MAX_ITER} iterations"
    for iteration in range(1, PI_STAR_MAX_ITER + 1):
        v_next = rhs - tail_poly.apply(v)
        delta = (v_next - v).norm()
        v = v_next
        if delta <= PI_STAR_TOL * scale:
            return v
        contraction = delta / previous
        if not delta < previous:            # also nan: the iteration diverges
            reason = f"update stopped contracting at iteration {iteration}"
            break
        previous = delta
    raise CflTooLargeError(
        f"resolvent fixed point {reason} (observed contraction {contraction})",
        contraction=contraction,
    )
