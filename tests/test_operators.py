import re

import numpy as np
import pytest

from conftest import weak_form_1d, weak_form_2d

from rkdglab.basis import (
    basis_2d_index,
    gauss_quadrature,
    legendre_modes,
    tensor_index,
    to_tensor,
)
from rkdglab.errors import IncompatibleSpacesError, UnsupportedDegreeError
from rkdglab.mesh import build_mesh_1d, build_mesh_2d
from rkdglab.operators import (
    BlockOperator,
    DGSpace,
    GridFunction,
    assemble_upwind,
    eval_grid,
    half_spectrum,
    jump_inner,
    l2_inner,
    operator_norm,
    project,
    quadrature_grid,
    quadrature_points,
    reduce_operator,
    strong_derivative,
)
from rkdglab.schemes import EvolutionMap, taylor_scheme


def perturbed_mesh(n=9, seed=5, beta=1.0):
    return build_mesh_1d(n, perturb_fraction=0.25, seed=seed, beta=beta)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_constant_is_annihilated():
    for mesh in (perturbed_mesh(), build_mesh_2d(4, 5, 1.0, 2.0)):
        for k in (0, 1, 2):
            op = assemble_upwind(mesh, k)
            const = project(lambda *xy: np.ones_like(sum(xy)), op.space)
            assert op.apply(const).norm() <= 1e-13 * const.norm()


def test_k0_is_first_order_upwind():
    mesh = build_mesh_1d(4)
    op = assemble_upwind(mesh, 0)
    rng = np.random.default_rng(0)
    u = GridFunction(op.space, rng.standard_normal((4, 1)))
    h = mesh.cell_sizes[:, None]
    expected = (np.roll(u.coeffs, 1, axis=0) - u.coeffs) / h
    assert np.abs(op.apply(u).coeffs - expected).max() <= 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_weak_form_oracle_1d(k):
    mesh = perturbed_mesh(7, seed=k + 1, beta=1.4)
    op = assemble_upwind(mesh, k)
    rng = np.random.default_rng(k)
    w = GridFunction(op.space, rng.standard_normal(op.space.shape))
    v = GridFunction(op.space, rng.standard_normal(op.space.shape))
    lhs = l2_inner(op.apply(w), v)
    rhs = weak_form_1d(mesh, k, w, v)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_weak_form_oracle_2d(k):
    mesh = build_mesh_2d(3, 4, beta_x=1.0, beta_y=2.5)
    op = assemble_upwind(mesh, k)
    rng = np.random.default_rng(10 + k)
    w = GridFunction(op.space, rng.standard_normal(op.space.shape))
    v = GridFunction(op.space, rng.standard_normal(op.space.shape))
    lhs = l2_inner(op.apply(w), v)
    rhs = weak_form_2d(mesh, k, w, v)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_sparsity_pattern():
    op1 = assemble_upwind(perturbed_mesh(), 2)
    assert set(op1.blocks) == {(0,), (-1,)}
    op2 = assemble_upwind(build_mesh_2d(4, 4), 2)
    assert set(op2.blocks) == {(0, 0), (-1, 0), (0, -1)}


def test_dense_agrees_with_matrix_free():
    for mesh, k in ((perturbed_mesh(6, seed=2), 2), (build_mesh_2d(3, 3), 1)):
        op = assemble_upwind(mesh, k)
        dense = op.as_dense()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(op.n_dofs)
        assert np.abs(dense @ x - op.matvec(x)).max() <= 1e-13 * np.abs(dense @ x).max()


def test_transpose_is_adjoint():
    for mesh, k in ((perturbed_mesh(8, seed=4), 3), (build_mesh_2d(4, 3), 2)):
        op = assemble_upwind(mesh, k)
        rng = np.random.default_rng(8)
        u = GridFunction(op.space, rng.standard_normal(op.space.shape))
        v = GridFunction(op.space, rng.standard_normal(op.space.shape))
        assert l2_inner(op.apply(u), v) == pytest.approx(l2_inner(u, op.transpose().apply(v)), rel=1e-13)


def dense_from_blocks(op):
    """Dense matrix of (A u)_c = sum_o blocks[o] u_{c+o}, by a loop over cells and offsets."""
    space = op.space
    m = space.n_modes
    counts = space.shape[:-1]
    cells = list(np.ndindex(*counts))
    dense = np.zeros((space.n_dofs, space.n_dofs))
    for i, cell in enumerate(cells):
        for off, blk in op.blocks.items():
            nbr = tuple((c + o) % n for c, o, n in zip(cell, np.atleast_1d(off), counts))
            j = cells.index(nbr)
            dense[i * m:(i + 1) * m, j * m:(j + 1) * m] += blk if blk.ndim == 2 else blk[i]
    return dense


def assert_matches_blocks(op, c):
    """apply_array agrees with the block-loop matrix, with and without a batch axis."""
    dense = dense_from_blocks(op)
    expected = (dense @ c.ravel()).reshape(c.shape)
    assert np.abs(op.apply_array(c) - expected).max() <= 1e-13 * np.abs(expected).max()
    batch = np.random.default_rng(4).standard_normal(c.shape + (3,))
    expected = (dense @ batch.reshape(-1, 3)).reshape(batch.shape)
    assert np.abs(op.apply_array(batch) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("mesh", [build_mesh_1d(7), perturbed_mesh(7, seed=6), build_mesh_2d(4, 3)],
                         ids=["uniform", "perturbed", "2d"])
def test_operator_algebra_matches_repeated_applies(mesh):
    op = assemble_upwind(mesh, 2)
    red = reduce_operator(op)
    eye = np.eye(op.space.n_modes)
    c = np.random.default_rng(9).standard_normal(op.space.shape)
    pairs = [
        (op @ red, op.apply_array(red.apply_array(c))),
        (red @ op @ op, red.apply_array(op.apply_array(op.apply_array(c)))),
        (2.5 * op + red + 3.0 * eye, 2.5 * op.apply_array(c) + red.apply_array(c) + 3.0 * c),
        (eye + 0.5 * (op @ eye), c + 0.5 * op.apply_array(c)),
    ]
    for combined, expected in pairs:
        assert np.abs(combined.apply_array(c) - expected).max() <= 1e-13 * np.abs(expected).max()
        assert_matches_blocks(combined, c)
    assert_matches_blocks(op, c)
    assert set((op @ op @ op).blocks) == (
        {(0,), (-1,), (-2,), (-3,)} if mesh.dim == 1
        else {(-a, -b) for a in range(4) for b in range(4) if a + b <= 3})


@pytest.mark.parametrize("perturb", [0.0, 0.2], ids=["uniform", "perturbed"])
def test_apply_with_wrapping_offsets(perturb):
    # on two cells the offsets 0..-3 of op @ op @ op reach each cell twice
    op = assemble_upwind(build_mesh_1d(2, perturb, seed=1), 2)
    c = np.random.default_rng(5).standard_normal(op.space.shape)
    assert_matches_blocks(op @ op @ op, c)


def test_neighbour_index_is_shared_and_read_only():
    # one index per cell grid and offset list, whatever the mesh spacing or
    # degree; the roll of the cell numbers is its definition
    for mesh_a, mesh_b in ((build_mesh_1d(7), build_mesh_1d(7, 0.2, seed=3)),
                           (build_mesh_2d(3, 4), build_mesh_2d(3, 4))):
        a = assemble_upwind(mesh_a, 1)
        b = assemble_upwind(mesh_b, 2)
        index = a._neighbour_cells()
        assert index is b._neighbour_cells() and not index.flags.writeable
        shape = a.space.shape[:-1]
        cells = np.arange(int(np.prod(shape))).reshape(shape)
        for j, off in enumerate(a.blocks):
            rolled = np.roll(cells, np.negative(off), axis=tuple(range(len(shape))))
            assert np.array_equal(index[:, j], rolled.ravel())


@pytest.mark.parametrize("mesh, offset", [
    (build_mesh_1d(6), -1), (build_mesh_1d(6), (0, -1)), (build_mesh_1d(6), (-1.0,)),
    (build_mesh_2d(3, 3), (-1,)), (build_mesh_2d(3, 3), -1),
], ids=["1d-int", "1d-pair", "1d-float", "2d-one-int", "2d-int"])
def test_block_operator_rejects_malformed_offsets(mesh, offset):
    space = DGSpace(mesh, 1)
    zero = (0,) * mesh.dim
    blk = np.eye(space.n_modes)
    with pytest.raises(ValueError, match=re.escape(repr(offset))):
        BlockOperator(space, {zero: blk, offset: blk})


def test_operator_algebra_rejects_other_spaces():
    op = assemble_upwind(build_mesh_1d(6), 1)
    other = assemble_upwind(build_mesh_1d(7), 1)
    with pytest.raises(IncompatibleSpacesError):
        op @ other
    with pytest.raises(IncompatibleSpacesError):
        op + other


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_equals_independent_low_degree_assembly():
    # rows of the reduced operator tested against the weak form with
    # degree <= k-1 test functions, entry by entry
    mesh = perturbed_mesh(5, seed=9)
    k = 2
    op = assemble_upwind(mesh, k)
    red = reduce_operator(op).as_dense()
    space = op.space
    n = space.n_dofs
    mask = np.zeros(space.shape, dtype=bool)
    mask[:, : k] = True
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        w = GridFunction(space, ej.reshape(space.shape))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = 1.0
            v = GridFunction(space, ei.reshape(space.shape))
            expected = weak_form_1d(mesh, k, w, v) if mask.ravel()[i] else 0.0
            assert abs(red[i, j] - expected) <= 1e-13 * max(1.0, abs(expected))


def test_reduce_rejects_k0():
    with pytest.raises(UnsupportedDegreeError):
        reduce_operator(assemble_upwind(build_mesh_1d(4), 0))


def test_perp_of_continuous_function_vanishes():
    # globally continuous w_h has zero jumps, so the top-mode part of L w_h is 0
    mesh = build_mesh_1d(12)
    k = 2
    space = DGSpace(mesh, k)
    w = project(lambda x: np.sin(2 * np.pi * x) ** 2, space)
    # make w continuous: project a degree-2 periodic spline instead; easiest
    # continuous member: the projection of any smooth function is not
    # continuous, so build one from nodal hat data evaluated exactly
    w = project(lambda x: 1.0 + 0.0 * x, space)  # constants are continuous
    op = assemble_upwind(mesh, k)
    assert project(op.apply(w), target="perp").norm() <= 1e-12

    # a genuinely nontrivial continuous function: piecewise linear interpolant
    nodes = mesh.nodes
    vals = np.sin(2 * np.pi * nodes)

    def hat_interp(x):
        return np.interp(np.asarray(x).ravel(), nodes, vals).reshape(np.shape(x))

    w2 = project(hat_interp, space, n_points=14)
    # the projection of a continuous pw-linear onto P^2 per cell reproduces it
    assert jump_inner(w2, w2) <= 1e-10 ** 2
    assert project(op.apply(w2), target="perp").norm() <= 1e-10


def test_norm_ordering_reduced_vs_full():
    mesh = build_mesh_1d(8)
    op = assemble_upwind(mesh, 2)
    red = reduce_operator(op)
    assert operator_norm(red, "dense_svd") <= operator_norm(op, "dense_svd") + 1e-12


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_reproduces_members():
    mesh = perturbed_mesh(6, seed=1)
    space = DGSpace(mesh, 3)
    v = space.random(4)
    assert (project(v, target="full") - v).norm() == 0.0


def test_projection_orthogonal_split():
    for mesh, k in ((perturbed_mesh(), 2), (build_mesh_2d(3, 4), 3)):
        space = DGSpace(mesh, k)
        v = space.random(6)
        lo = project(v, target="k_minus_1")
        hi = project(v, target="perp")
        assert ((lo + hi) - v).norm() <= 1e-14 * v.norm()
        assert l2_inner(lo, hi) == pytest.approx(0.0, abs=1e-14)


def test_projection_error_order():
    errs = []
    ns = (16, 32, 64, 128)
    k = 1
    for n in ns:
        space = DGSpace(build_mesh_1d(n), k)
        p = project(lambda x: np.sin(2 * np.pi * x), space)
        x, w = quadrature_grid(space, 12)
        vals = eval_grid(p, 12)
        errs.append(np.sqrt(np.sum(w * (vals - np.sin(2 * np.pi * x)) ** 2)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(ns) - 1)]
    assert abs(orders[-1] - (k + 1)) <= 0.05


def _xy_data(x, y):
    # differs in x and y, so a transposed x/y contraction shows
    return np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y) + x**2 * y


def _gauss_rule_and_modes(k, n_points):
    quad = gauss_quadrature(quadrature_points(k, n_points))
    vals, _ = legendre_modes(k, quad.nodes)
    return quad, vals


@pytest.mark.parametrize("n_points", [None, 7])
@pytest.mark.parametrize("k", range(5))
def test_sum_factorized_projection_matches_the_einsum_formula(k, n_points):
    # reference: the full quadrature contraction over every (x, y, a, b, q, r)
    mesh = build_mesh_2d(5, 3, 1.0, 2.0)
    space = DGSpace(mesh, k)
    quad, vals = _gauss_rule_and_modes(k, n_points)
    x, y, _ = quadrature_grid(space, n_points)
    fxy = _xy_data(x[:, None, :, None], y[None, :, None, :])
    tensor = np.einsum("q,r,aq,br,xyqr->xyab", quad.weights, quad.weights, vals, vals, fxy)
    tensor *= np.sqrt(mesh.hx * mesh.hy) / 2.0
    expected = tensor.reshape(mesh.nx, mesh.ny, -1)[..., tensor_index(k)]
    got = project(_xy_data, space, n_points=n_points).coeffs
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n_points", [None, 7])
@pytest.mark.parametrize("k", range(5))
def test_sum_factorized_evaluation_matches_the_einsum_formula(k, n_points):
    mesh = build_mesh_2d(5, 3, 1.0, 2.0)
    space = DGSpace(mesh, k)
    _, vals = _gauss_rule_and_modes(k, n_points)
    for u in (space.random(k + 1), project(_xy_data, space)):
        tensor = to_tensor(u.coeffs, k)
        expected = 2.0 / np.sqrt(mesh.hx * mesh.hy) * np.einsum("xyab,aq,br->xyqr", tensor, vals, vals)
        got = eval_grid(u, n_points)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# jump forms
# ---------------------------------------------------------------------------

def test_jump_quantities_vanish_for_continuous():
    mesh = build_mesh_2d(4, 4)
    space = DGSpace(mesh, 1)
    const = project(lambda x, y: np.full(np.broadcast(x, y).shape, 2.5), space)
    assert jump_inner(const, const) <= 1e-13 ** 2


@pytest.mark.parametrize("dim", [1, 2])
def test_jump_identity_random(dim):
    mesh = perturbed_mesh(9, seed=3) if dim == 1 else build_mesh_2d(4, 3, 1.0, 2.0)
    for k in (0, 1, 2):
        op = assemble_upwind(mesh, k)
        for seed in range(5):
            v = op.space.random(seed)
            lhs = jump_inner(v, v)
            rhs = -(l2_inner(op.apply(v), v) + l2_inner(op.transpose().apply(v), v))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def _skeleton_oracle(w, v):
    """<<w, v>> from point values on every cell face.

    Traces are evaluated face by face from the modes at -1 and +1 and
    integrated along 2D edges by Gauss quadrature.
    """
    space = w.space
    mesh = space.mesh
    k = space.degree
    at = {side: legendre_modes(k, np.array([float(side)]))[0][:, 0] for side in (-1, 1)}
    if space.dim == 1:
        h, n = mesh.cell_sizes, mesh.n_cells

        def face(u, i, side):
            return np.sqrt(2.0 / h[i % n]) * (u.coeffs[i % n] @ at[side])

        inner = 0.0
        for i in range(n):
            jw = face(w, i + 1, -1) - face(w, i, 1)
            jv = face(v, i + 1, -1) - face(v, i, 1)
            inner += mesh.beta * jw * jv
        return inner

    quad = gauss_quadrature(k + 2)
    vals, _ = legendre_modes(k, quad.nodes)
    ids = basis_2d_index(k)
    nx, ny = mesh.nx, mesh.ny
    sxy = 2.0 / np.sqrt(mesh.hx * mesh.hy)

    def face(u, i, j, axis, side):
        # values at the edge Gauss points of the face of cell (i, j) at side along axis
        c = u.coeffs[i % nx, j % ny]
        if axis == 0:
            return sxy * sum(c[p] * at[side][a] * vals[b] for p, (a, b) in enumerate(ids))
        return sxy * sum(c[p] * vals[a] * at[side][b] for p, (a, b) in enumerate(ids))

    inner = 0.0
    for axis, beta, length in ((0, mesh.beta_x, mesh.hy), (1, mesh.beta_y, mesh.hx)):
        wq = quad.weights * length / 2.0
        for i in range(nx):
            for j in range(ny):
                ni, nj = (i + 1, j) if axis == 0 else (i, j + 1)
                jw = face(w, ni, nj, axis, -1) - face(w, i, j, axis, 1)
                jv = face(v, ni, nj, axis, -1) - face(v, i, j, axis, 1)
                inner += beta * wq @ (jw * jv)
    return inner


@pytest.mark.parametrize("dim", [1, 2])
def test_jump_inner_matches_a_face_quadrature_oracle(dim):
    mesh = perturbed_mesh(9, seed=3, beta=1.4) if dim == 1 else build_mesh_2d(4, 3, 1.0, 2.0)
    for k in (0, 1, 2):
        space = DGSpace(mesh, k)
        w, v = space.random(2 * k), space.random(2 * k + 1)
        assert jump_inner(w, v) == pytest.approx(_skeleton_oracle(w, v), rel=1e-12, abs=1e-12)


def test_jump_hand_value_k0():
    mesh = build_mesh_1d(2)
    space = DGSpace(mesh, 0)
    # cell values (0, 1): modal coefficients scale by sqrt(h)
    u = GridFunction(space, np.array([[0.0], [np.sqrt(0.5)]]))
    assert jump_inner(u, u) == pytest.approx(2.0, rel=1e-13)


def test_jump_forms_incompatible_inputs():
    a = DGSpace(build_mesh_1d(4), 1).random(0)
    b = DGSpace(build_mesh_1d(5), 1).random(0)
    with pytest.raises(IncompatibleSpacesError):
        jump_inner(a, b)


# ---------------------------------------------------------------------------
# strong derivative
# ---------------------------------------------------------------------------

def test_strong_derivative_perp_vanishes():
    # the advective derivative of a degree-k function has degree <= k-1;
    # oracle: differentiate by quadrature projection instead of modal algebra
    mesh = perturbed_mesh(9, seed=2, beta=1.7)
    for k in (1, 2, 3):
        space = DGSpace(mesh, k)
        w = space.random(k + 5)
        quad = gauss_quadrature(k + 4)
        vals, ders = legendre_modes(k, quad.nodes)
        h = mesh.cell_sizes
        dvals = -mesh.beta * np.sqrt(2.0 / h)[:, None] * np.einsum(
            "im,mq->iq", w.coeffs, ders
        ) * (2.0 / h)[:, None]
        coeffs = np.sqrt(h / 2.0)[:, None] * np.einsum("q,mq,iq->im", quad.weights, vals, dvals)
        by_quadrature = GridFunction(space, coeffs)
        assert project(by_quadrature, target="perp").norm() <= 1e-12 * max(w.norm(), 1.0)
        assert (strong_derivative(w) - by_quadrature).norm() <= 1e-11 * max(w.norm(), 1.0)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

class _IdentityMap:
    def __init__(self, space):
        self.space = space
        self.n_dofs = space.n_dofs

    def matvec(self, x):
        return x

    def rmatvec(self, x):
        return x

    def as_dense(self):
        return np.eye(self.n_dofs)


def test_norm_of_identity():
    space = DGSpace(build_mesh_1d(5), 1)
    ident = _IdentityMap(space)
    for m in (1, 3):
        assert operator_norm(ident, "dense_svd", m=m) == pytest.approx(1.0, abs=1e-14)
        assert operator_norm(ident, "power_iteration", m=m) == pytest.approx(1.0, abs=1e-10)


def test_power_iteration_matches_dense_on_evolution_map():
    mesh = build_mesh_1d(8)
    k = 1
    op = assemble_upwind(mesh, k)
    red = reduce_operator(op)
    emap = EvolutionMap(taylor_scheme(2), op, red, tau=0.5 / 8)  # above the limit: clear gap
    dense = operator_norm(emap, "dense_svd")
    power = operator_norm(emap, "power_iteration")
    assert abs(dense - power) <= 1e-8 * dense
    symbol = operator_norm(emap, "symbol")
    assert abs(dense - symbol) <= 1e-12 * dense


@pytest.mark.parametrize("cells", [(4,), (5,), (4, 5), (5, 4)])
def test_half_spectrum_keeps_the_rfftn_frequencies(cells):
    mesh = build_mesh_1d(*cells) if len(cells) == 1 else build_mesh_2d(*cells)
    op = assemble_upwind(mesh, 1)
    kept = op.norm_symbols(half_spectrum(cells)).shape[:-2]
    assert kept == np.fft.rfftn(np.zeros(cells), axes=tuple(range(len(cells)))).shape


def test_inverse_estimate_norm_sweep():
    # || L_h || * h stays essentially constant under refinement
    k = 2
    vals = []
    for n in (16, 32, 64, 128, 256):
        op = assemble_upwind(build_mesh_1d(n), k)
        vals.append(operator_norm(op, "symbol") / n)
    for a, b in zip(vals, vals[1:]):
        assert abs(a - b) / max(a, b) < 0.10


def test_dense_cap_enforced():
    op = assemble_upwind(build_mesh_1d(64), 1)
    with pytest.raises(ValueError):
        operator_norm(op, "dense_svd", dense_cap=10)


def test_power_iteration_diagnostic_carries_last_iterate(monkeypatch):
    from rkdglab import operators
    from rkdglab.errors import PowerIterationError

    monkeypatch.setattr(operators, "POWER_MAX_ITER", 3)
    op = assemble_upwind(build_mesh_1d(32), 3)
    with pytest.raises(PowerIterationError) as info:
        operator_norm(op, "power_iteration")
    assert info.value.last_estimate is not None and info.value.last_estimate > 0
    assert info.value.last_vector.shape == (op.n_dofs,)


# ---------------------------------------------------------------------------
# lemma-scaling checks (bounded ratios under refinement)
# ---------------------------------------------------------------------------

def dense_perp_mask(space):
    mask = np.zeros(space.n_dofs)
    mask.reshape(space.shape)[..., space.top_mode_mask()] = 1.0
    return np.diag(mask)


def sup_quadratic_ratio(numer_matrix, gram, tol=1e-10):
    """sup_w (w^T numer w) / (w^T gram w) over the range of the singular gram."""
    lam, vec = np.linalg.eigh(gram)
    keep = lam > tol * lam.max()
    basis = vec[:, keep] / np.sqrt(lam[keep])
    return float(np.linalg.eigvalsh(basis.T @ numer_matrix @ basis).max())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_mode_jump_bound_ratio(k):
    # sup_w sqrt(h) ||P_perp L w|| / |w|_jump is h-independent
    vals = []
    for n in (16, 32, 64, 128):
        op = assemble_upwind(build_mesh_1d(n), k)
        dense = op.as_dense()
        gram = -(dense + dense.T)
        a = dense_perp_mask(op.space) @ dense
        vals.append(sup_quadratic_ratio((1.0 / n) * a.T @ a, gram))
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.15, f"ratio drifts {spread:.1%} across refinements: {vals}"


def test_p1_jump_domination_ratio():
    # h^4 ||L^2 w||^2 bounded by h |w|_j^2 + h^3 |L w|_j^2, ratio stable
    vals = []
    for n in (16, 32, 64, 128):
        op = assemble_upwind(build_mesh_1d(n), 1)
        dense = op.as_dense()
        gram = -(dense + dense.T)
        h = 1.0 / n
        denom = h * gram + h**3 * dense.T @ gram @ dense
        l2 = dense @ dense
        vals.append(sup_quadratic_ratio(h**4 * l2.T @ l2, denom))
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.20, f"ratio drifts {spread:.1%}: {vals}"


@pytest.mark.parametrize("indices", [(1, 1), (2, 1)])
def test_mixed_composition_bound_ratio(indices):
    # h^{|i| - i_last + 1/2} ||L^i w|| / |L^{i_last - 1} w|_jump stays put
    k = 2
    vals = []
    for n in (16, 32, 64, 128):
        op = assemble_upwind(build_mesh_1d(n), k)
        dense = op.as_dense()
        gram = -(dense + dense.T)
        perp = dense_perp_mask(op.space)
        mat = np.eye(op.space.n_dofs)
        for pos, power in enumerate(reversed(indices)):
            if pos > 0:
                mat = perp @ mat
            mat = np.linalg.matrix_power(dense, power) @ mat
        h = 1.0 / n
        expo = sum(indices) - indices[-1] + 0.5
        vals.append(sup_quadratic_ratio(h ** (2 * expo) * mat.T @ mat, gram))
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.15, f"ratio drifts {spread:.1%}: {vals}"


def test_semi_negativity_many_samples():
    for mesh, k in ((perturbed_mesh(12, seed=6), 2), (build_mesh_2d(4, 4), 1)):
        op = assemble_upwind(mesh, k)
        opt = op.transpose()
        worst = -np.inf
        for seed in range(1000):
            v = op.space.random(seed)
            val = l2_inner(op.apply(v) + opt.apply(v), v)
            worst = max(worst, val / v.norm() ** 2)
        assert worst <= 1e-11


def test_discrete_integration_by_parts():
    mesh = perturbed_mesh(10, seed=7)
    for k in (1, 2):
        op = assemble_upwind(mesh, k)
        w = op.space.random(20 + k)
        v = op.space.random(40 + k)
        pw, pv = [w], [v]
        for _ in range(4):
            pw.append(op.apply(pw[-1]))
            pv.append(op.apply(pv[-1]))
        for i in range(1, 5):
            lhs = l2_inner(pw[i], v)
            rhs = (-1.0) ** i * l2_inner(w, pv[i])
            for j in range(i):
                rhs += (-1.0) ** (j + 1) * jump_inner(pw[i - j - 1], pv[j])
            scale = max(abs(lhs), pw[i].norm() * v.norm(), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale
