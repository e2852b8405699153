"""Upwind DG operator, reductions, projections, jump forms and operator norms.

Everything is expressed in the orthonormal modal basis, so coefficient
2-norms equal L2 norms and transposes of coefficient matrices realize
L2 adjoints.  Operators on periodic meshes are block-sparse: a diagonal
block per cell plus one block per upwind neighbor.
"""
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import (
    gauss_mode_table,
    kron_sum_2d,
    reference_tables,
    sum_factorized,
    tensor_index,
    to_tensor,
)
from .errors import (
    IncompatibleSpacesError,
    PowerIterationError,
    UnsupportedDegreeError,
)


# ---------------------------------------------------------------------------
# discrete space and grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DGSpace:
    """Broken polynomial space V_h^k on a periodic mesh."""

    mesh: object        # Mesh1D or Mesh2D
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise UnsupportedDegreeError("polynomial degree must be >= 0")

    @property
    def dim(self):
        return self.mesh.dim

    @property
    def n_modes(self):
        """Polynomials of total degree <= k in dim variables."""
        return math.comb(self.degree + self.dim, self.dim)

    @property
    def shape(self):
        return self.mesh.cells + (self.n_modes,)

    @property
    def n_dofs(self):
        return int(np.prod(self.shape))

    def top_mode_mask(self):
        """Boolean mask of the total-degree-k modes (the P^{k-1} complement).

        Modes are in graded order, so these are the last n_modes minus
        dim(P^{k-1}) of them.
        """
        return np.arange(self.n_modes) >= math.comb(self.degree - 1 + self.dim, self.dim)

    def zeros(self):
        return GridFunction(self, np.zeros(self.shape))

    def random(self, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        return GridFunction(self, rng.standard_normal(self.shape))


@dataclass
class GridFunction:
    """Per-cell modal coefficients of a member of V_h^k."""

    space: DGSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != self.space.shape:
            raise IncompatibleSpacesError(
                f"coefficient shape {self.coeffs.shape} does not match space {self.space.shape}"
            )

    def norm(self):
        """L2(Omega) norm; equals the coefficient 2-norm in this basis."""
        return float(np.linalg.norm(self.coeffs))

    def copy(self):
        return GridFunction(self.space, self.coeffs.copy())

    def __add__(self, other):
        _check_same_space(self, other)
        return GridFunction(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_space(self, other)
        return GridFunction(self.space, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return GridFunction(self.space, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_space(u, v):
    if u.space != v.space:
        raise IncompatibleSpacesError("grid functions live on different discretizations")


def l2_inner(u, v):
    _check_same_space(u, v)
    return float(np.vdot(u.coeffs, v.coeffs))


# ---------------------------------------------------------------------------
# block-sparse operators
# ---------------------------------------------------------------------------

class BlockOperator:
    """Periodic block operator: (A u)_c = sum_o blocks[o] @ u_{c+o}.

    Offsets are tuples of ints, one per cell axis: (o,) in 1D and
    (ox, oy) in 2D; they add and negate element-wise.  A block value may
    be a single (m, m) matrix shared by all cells or, in 1D, an (N, m, m)
    stack of per-cell matrices.

    Operators on one space form an algebra: A @ B composes, c * A scales
    and A + B adds; an (m, m) array M in place of an operator stands for
    the operator with M as its shared offset-zero block, so A + c * eye
    adds a multiple of the identity.
    """

    # numpy defers array + op to this class's __radd__
    __array_ufunc__ = None

    def __init__(self, space, blocks):
        self.space = space
        self.blocks = dict(blocks)
        dim = space.dim
        for off in self.blocks:
            if type(off) is not tuple or len(off) != dim or set(map(type, off)) != {int}:
                raise ValueError(f"block offset {off!r} is not a {dim}-tuple of ints")

    @property
    def n_dofs(self):
        return self.space.n_dofs

    @property
    def shares_blocks(self):
        return all(b.ndim == 2 for b in self.blocks.values())

    def _operand(self, other):
        if isinstance(other, BlockOperator):
            if other.space != self.space:
                raise IncompatibleSpacesError("operator spaces differ")
            return other
        return BlockOperator(self.space, {(0,) * self.space.dim: np.asarray(other, dtype=float)})

    def __add__(self, other):
        blocks = dict(self.blocks)
        for off, blk in self._operand(other).blocks.items():
            blocks[off] = blocks[off] + blk if off in blocks else blk
        return BlockOperator(self.space, blocks)

    __radd__ = __add__

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return BlockOperator(self.space, {off: scalar * b for off, b in self.blocks.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Composition: (A @ B) u = A (B u), with block A_o B_p at offset o + p."""
        other = self._operand(other)
        nbrs = None if other.shares_blocks else self._neighbour_cells()
        blocks = {}
        for j, (o, a) in enumerate(self.blocks.items()):
            for p, b in other.blocks.items():
                if b.ndim == 3:
                    b = b.take(nbrs[:, j], axis=0)      # B_p of cell c + o
                off = tuple(map(operator.add, o, p))
                blocks[off] = blocks[off] + a @ b if off in blocks else a @ b
        return BlockOperator(self.space, blocks)

    def apply(self, u):
        if u.space != self.space:
            raise IncompatibleSpacesError("operator and operand spaces differ")
        return GridFunction(self.space, self.apply_array(u.coeffs))

    def apply_array(self, c):
        """Apply to raw coefficients; a trailing batch axis is allowed.

        One gather of the neighbour coefficients and one contraction with
        the stacked blocks: see kernel.
        """
        weights, gather, spec = self.kernel
        batch = c.shape[self.space.dim + 1:]
        rows = c.reshape((-1,) + batch).take(gather, axis=0)
        return np.einsum(spec, weights, rows).reshape(c.shape)

    def matvec(self, x):
        return self.apply_array(x.reshape(self.space.shape)).ravel()

    def rmatvec(self, x):
        return self.transpose().matvec(x)

    def transpose(self):
        """L2 adjoint (the transpose in the orthonormal basis): block -o of cell c is A_o(c-o)^T."""
        if getattr(self, "_transpose", None) is not None:
            return self._transpose
        out = BlockOperator(self.space, {tuple(-x for x in o): b for o, b in self.blocks.items()})
        nbrs = None if out.shares_blocks else out._neighbour_cells()
        for j, (off, blk) in enumerate(list(out.blocks.items())):
            if blk.ndim == 2:
                out.blocks[off] = blk.T.copy()
            else:
                out.blocks[off] = blk.take(nbrs[:, j], axis=0).transpose(0, 2, 1)
        self._transpose = out
        out._transpose = self
        return out

    @property
    def is_circulant(self):
        """True when Fourier modes of the cell grid diagonalize the operator."""
        return self.space.mesh.is_uniform and self.shares_blocks

    def symbols(self, angles):
        """Fourier symbols sum_o blocks[o] e^{i o.theta} on a uniform mesh.

        angles holds one row (theta,) in 1D or (theta_x, theta_y) in 2D
        per frequency; the result has shape (len(angles), m, m).
        """
        if not self.is_circulant:
            raise ValueError("Fourier symbols need uniform meshes with shared blocks")
        angles = np.asarray(angles, dtype=float)
        m = self.space.n_modes
        out = np.zeros((len(angles), m, m), dtype=complex)
        for off, blk in self.blocks.items():
            phase = np.prod(np.exp(1j * np.array(off) * angles), axis=1)
            out += blk[None] * phase[:, None, None]
        return out

    def norm_symbols(self, rows=...):
        """Symbols at the mesh frequencies; these diagonalize the operator.

        The stack has shape cells + (m, m): the symbol at angles
        2 pi j / n sits at cell index j.  rows indexes its cell axes (all
        of them by default), so a slice gives a view.  Formed on the
        first call and kept, as kernel is, so a CFL sweep forms them once
        per mesh.  The stack is shared and read-only.
        """
        return self._mesh_symbols[rows]

    @cached_property
    def _mesh_symbols(self):
        out = self.symbols(fft_angles(self.space)).reshape(self.space.shape + (-1,))
        out.flags.writeable = False
        return out

    @cached_property
    def kernel(self):
        """(weights, gather, spec): the blocks side by side, an operand index and a contraction.

        For coefficients c flattened over cells and modes, c.take(gather,
        axis=0) has one row per cell holding c_{cell + o} for every offset o
        in block order, so A c is the contraction of that row with the
        cell's weights: weights is (m, J m) for shared blocks and
        (cells, m, J m) for per-cell stacks, and the einsum spec carries any
        trailing batch axes.  Built on first use; the blocks must not change
        afterwards.
        """
        m = self.space.n_modes
        nbrs = self._neighbour_cells()
        gather = (nbrs[:, :, None] * m + np.arange(m)).reshape(len(nbrs), -1)
        blocks = list(self.blocks.values())
        if self.shares_blocks:
            return np.concatenate(blocks, axis=1), gather, "nj,cj...->cn..."
        stack_shape = (len(nbrs), m, m)
        weights = np.concatenate([np.broadcast_to(b, stack_shape) for b in blocks], axis=2)
        return weights, gather, "cnj,cj...->cn..."

    def _neighbour_cells(self):
        """(cells, J) flat index of cell c + o, for every cell c and every offset o in block order."""
        return _neighbour_index(self.space.shape[:-1], tuple(self.blocks))

    @cached_property
    def _ring(self):
        """shift_solver's periodic block-tridiagonal form of a 1D operator; None if not finite.

        The cells form m super-blocks of consecutive cells, at least b each
        for block bandwidth b (one of all n cells when n < 2b), padded to q
        cells: a block joins a super-block to itself or to a neighbour.
        d[j] holds the blocks within super-block j and u[j] those to j + 1
        (mod m; at m = 2, u[1]^T joins the two as well), each (m, q p, q p)
        with aliased offsets summed; pad (m, q p) marks the padding.
        """
        n, p = self.space.shape
        q = -(-n // max(n // max([1] + [abs(o) for (o,) in self.blocks]), 1))
        m = -(-n // q)
        count = n // m + (np.arange(m) < n % m)
        group = np.repeat(np.arange(m), count)
        slot = np.arange(n) - np.repeat(np.cumsum(count) - count, count)
        d, u = np.zeros((2, m, q, p, q, p))
        for ((off,), blk), to in zip(self.blocks.items(), self._neighbour_cells().T):
            within = group[to] == group
            blk = np.broadcast_to(blk, (n, p, p))
            for out, c in ((d, within), (u, ~within & (off > 0))):
                out[group[c], slot[c], :, slot[to[c]], :] += blk[c]
        if not (np.isfinite(d).all() and np.isfinite(u).all()):
            return None
        pad = np.ones((m, q, p), dtype=bool)
        pad[group, slot] = False
        return d.reshape(m, q * p, -1), u.reshape(m, q * p, -1), pad.reshape(m, -1)

    def as_dense(self):
        """Dense matrix acting on flattened coefficients (small sizes only).

        The blocks are scattered into one array: block o of cell c lands
        in block row c, block column c + o.
        """
        m = self.space.n_modes
        nbrs = self._neighbour_cells()
        cells = np.arange(len(nbrs))
        out = np.zeros((len(nbrs), m, len(nbrs), m))
        for j, blk in enumerate(self.blocks.values()):
            out[cells, :, nbrs[:, j], :] += blk
        return out.reshape(len(nbrs) * m, -1)


def max_row_sum(op):
    """||op||_inf on flattened coefficients: the largest absolute row sum of its stacked blocks.

    Where offsets alias (fewer cells than offsets) it is an upper bound.
    """
    return float(np.max(sum(np.abs(b).sum(axis=-1) for b in op.blocks.values())))


@lru_cache(maxsize=32)
def _neighbour_index(shape, offsets):
    """BlockOperator._neighbour_cells of a cell grid shape and offsets, shared, so read-only."""
    cells = np.arange(int(np.prod(shape))).reshape(shape)
    axes = tuple(range(len(shape)))
    index = np.stack([np.roll(cells, np.negative(off), axis=axes).ravel() for off in offsets],
                     axis=1)
    index.flags.writeable = False
    return index


def fft_angles(space):
    """Angles 2 pi j / n of the discrete Fourier modes of the cell grid.

    One row per frequency, first axis slowest, as numpy.fft orders them.
    """
    axes = [2.0 * np.pi * np.arange(n) / n for n in space.shape[:-1]]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def half_spectrum(cells):
    """Index of the cell axes keeping the frequencies numpy.fft.rfftn keeps, those
    with j <= n // 2 on the last axis; a real map's other symbols mirror them."""
    return (slice(None),) * (len(cells) - 1) + (slice(cells[-1] // 2 + 1),)


def dense_from_matvec(apply_array, space):
    """Assemble the dense matrix of a batch-capable coefficient map."""
    n = space.n_dofs
    chunk = 128                             # columns per apply_array call
    out = np.empty((n, n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = np.zeros((n, stop - start))
        block[np.arange(start, stop), np.arange(stop - start)] = 1.0
        cols = apply_array(block.reshape(space.shape + (stop - start,)))
        out[:, start:stop] = cols.reshape(n, stop - start)
    return out


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_upwind(mesh, k):
    """DG discretization of -(beta . grad) with upwind interface traces."""
    right, left, stiff = reference_tables(k)
    vol_minus_out = stiff - np.outer(right, right)
    inflow = np.outer(left, right)
    space = DGSpace(mesh, k)
    if mesh.dim == 1:
        h = mesh.cell_sizes
        beta = mesh.beta
        if mesh.is_uniform:
            scale = 2.0 * beta / h[0]
            blocks = {(0,): scale * vol_minus_out, (-1,): scale * inflow}
        else:
            diag = (2.0 * beta / h)[:, None, None] * vol_minus_out[None]
            hl = np.roll(h, 1)
            upw = (2.0 * beta / np.sqrt(h * hl))[:, None, None] * inflow[None]
            blocks = {(0,): diag, (-1,): upw}
        return BlockOperator(space, blocks)

    cx = 2.0 * mesh.beta_x / mesh.hx
    cy = 2.0 * mesh.beta_y / mesh.hy
    diag = kron_sum_2d(cx * vol_minus_out, cy * vol_minus_out)
    zero = np.zeros_like(inflow)
    left_blk = kron_sum_2d(cx * inflow, zero)
    bottom_blk = kron_sum_2d(zero, cy * inflow)
    return BlockOperator(space, {(0, 0): diag, (-1, 0): left_blk, (0, -1): bottom_blk})


def reduce_operator(op):
    """Drop the total-degree-k test rows: the reduced operator (I - P_perp) L."""
    space = op.space
    if space.degree == 0:
        raise UnsupportedDegreeError("reduced test space is empty for k = 0")
    mask = space.top_mode_mask()
    blocks = {}
    for off, blk in op.blocks.items():
        b = blk.copy()
        b[..., mask, :] = 0.0
        blocks[off] = b
    return BlockOperator(space, blocks)


def stage_operators(mesh, k):
    """(full, reduced): the upwind operator and its reduction (the operator itself at k = 0)."""
    full_op = assemble_upwind(mesh, k)
    return full_op, reduce_operator(full_op) if k >= 1 else full_op


# ---------------------------------------------------------------------------
# projections onto V_h^k, V_h^{k-1} and the top-degree complement
# ---------------------------------------------------------------------------

def quadrature_points(k, n_points=None):
    """Gauss points per cell direction: n_points, by default max(10, k + 4)."""
    return n_points if n_points is not None else max(10, k + 4)


def project(f, space=None, target="full", n_points=None):
    """Cellwise L2 projection onto V_h^k, masked by target to V_h^{k-1}
    ("k_minus_1") or the top-degree complement ("perp").

    f may be a callable (projected by Gauss quadrature with max(10, k+4)
    points per direction unless overridden) or a GridFunction, copied.
    """
    if isinstance(f, GridFunction):
        space = f.space if space is None else space
        if space != f.space:
            raise IncompatibleSpacesError("projection target space differs from input")
        u = f.copy()
    elif space is None:
        raise TypeError("projecting a callable requires an explicit space")
    else:
        u = _project_callable(f, space, n_points)
    if target == "full":
        return u
    mask = space.top_mode_mask()
    if target == "k_minus_1":
        u.coeffs[..., mask] = 0.0
    elif target == "perp":
        u.coeffs[..., ~mask] = 0.0
    else:
        raise ValueError(f"unknown projection target {target!r}")
    return u


def _project_callable(f, space, n_points=None):
    k = space.degree
    quad, vals, _ = gauss_mode_table(k, quadrature_points(k, n_points))
    *points, _ = quadrature_grid(space, n_points)
    mesh = space.mesh
    fx = grid_values(f, points)
    if space.dim == 1:
        h = mesh.cell_sizes
        coeffs = np.sqrt(h / 2.0)[:, None] * np.einsum("q,mq,iq->im", quad.weights, vals, fx)
        return GridFunction(space, coeffs)
    # P_x f P_y^T with the 1D projection table P = sqrt(h/2) w_q vals per direction
    weighted = vals * quad.weights
    tensor = sum_factorized(fx, np.sqrt(mesh.hx / 2.0) * weighted, np.sqrt(mesh.hy / 2.0) * weighted)
    coeffs = tensor.reshape(mesh.nx, mesh.ny, -1)[..., tensor_index(k)]
    return GridFunction(space, coeffs)


def quadrature_grid(space, n_points=None):
    """Physical quadrature points and weights: the Gauss rule of
    gauss_mode_table(k, quadrature_points(k, n_points)) mapped to every cell.

    1D: (x, w) with shape (n_cells, q).  2D: (x, y, w) with x (nx, q),
    y (ny, q) and w (nx, ny, q, q); weights include cell Jacobians.
    """
    quad, _, _ = gauss_mode_table(space.degree, quadrature_points(space.degree, n_points))
    mesh = space.mesh
    if space.dim == 1:
        h = mesh.cell_sizes
        x = mesh.nodes[:-1, None] + (quad.nodes[None, :] + 1.0) * h[:, None] / 2.0
        return x, quad.weights * (h[:, None] / 2.0)
    hx, hy = mesh.hx, mesh.hy
    x = (np.arange(mesh.nx)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hx
    y = (np.arange(mesh.ny)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hy
    w = (hx * hy / 4.0) * np.einsum("q,r->qr", quad.weights, quad.weights)
    return x, y, np.broadcast_to(w[None, None], (mesh.nx, mesh.ny) + w.shape)


def grid_values(f, points):
    """f at the points of quadrature_grid, laid out as eval_grid's values:
    (n_cells, q) in 1D and the (nx, ny, q, q) tensor grid in 2D."""
    if len(points) == 1:
        return f(*points)
    x, y = points
    return f(x[:, None, :, None], y[None, :, None, :])


def strong_derivative(u):
    """Cellwise advective derivative -(beta . grad) u_h, exact in modal form.

    The result lies in V_h^{k-1} c V_h^k, so it is returned in the same
    space with vanishing top-degree content.
    """
    space = u.space
    k = space.degree
    _, _, stiff = reference_tables(k)
    mesh = space.mesh
    if space.dim == 1:
        scale = -mesh.beta * 2.0 / mesh.cell_sizes
        return GridFunction(space, scale[:, None] * np.einsum("mn,im->in", stiff, u.coeffs))
    mat = kron_sum_2d(-mesh.beta_x * 2.0 / mesh.hx * stiff.T, -mesh.beta_y * 2.0 / mesh.hy * stiff.T)
    return GridFunction(space, np.einsum("nm,xym->xyn", mat, u.coeffs))


def eval_grid(u, n_points=None):
    """Values of a grid function at the quadrature_grid points."""
    space = u.space
    k = space.degree
    _, vals, _ = gauss_mode_table(k, quadrature_points(k, n_points))
    mesh = space.mesh
    if space.dim == 1:
        scale = np.sqrt(2.0 / mesh.cell_sizes)
        return scale[:, None] * np.einsum("im,mq->iq", u.coeffs, vals)
    # E_x s E_y^T with the 1D evaluation table E = sqrt(2/h) vals^T per direction
    return sum_factorized(to_tensor(u.coeffs, k), np.sqrt(2.0 / mesh.hx) * vals.T,
                          np.sqrt(2.0 / mesh.hy) * vals.T)


# ---------------------------------------------------------------------------
# interface traces and jump forms
# ---------------------------------------------------------------------------

def _face_traces(u):
    """[(beta, outflow, inflow), ...]: u's traces on the cell faces, per cell axis.

    Along axis d, outflow is the trace on each cell's downwind face and
    inflow the trace on its upwind face, so the jump u^+ - u^- on the
    downwind faces is np.roll(inflow, -1, axis=d) - outflow.  In 1D the
    traces are values.  In 2D they are modal coefficients of
    shape (nx, ny, k+1), scaled to physical size: the trace polynomial
    sum_a coef[a] sqrt(2/h) P~_a on an edge of length h is orthonormal
    in L2 of the edge, so edge integrals of products are dot products.
    """
    space = u.space
    mesh = space.mesh
    k = space.degree
    right, left, _ = reference_tables(k)
    if space.dim == 1:
        s = np.sqrt(2.0 / mesh.cell_sizes)
        return [(mesh.beta, s * (u.coeffs @ right), s * (u.coeffs @ left))]
    tensor = to_tensor(u.coeffs, k)
    sx = np.sqrt(2.0 / mesh.hx)
    sy = np.sqrt(2.0 / mesh.hy)
    return [(mesh.beta_x, *(np.einsum("xyab,a->xyb", tensor, t * sx) for t in (right, left))),
            (mesh.beta_y, *(np.einsum("xyab,b->xya", tensor, t * sy) for t in (right, left)))]


def jump_inner(w, v):
    """beta-weighted sum/integral of [w][v] over all interfaces."""
    _check_same_space(w, v)
    traces = enumerate(zip(_face_traces(w), _face_traces(v)))
    return float(sum(beta * np.vdot(np.roll(wi, -1, axis=d) - wo, np.roll(vi, -1, axis=d) - vo)
                     for d, ((beta, wo, wi), (_, vo, vi)) in traces))


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

#: unknowns up to which growth_excess brackets the top of S_m (Lanczos above it)
#: and operator_norm's "dense_svd" may assemble; no growth point assembles a dense matrix.
#: The spectrum, not the size, decides the faster route (bracket / Lanczos, mesh seed 0,
#: one BLAS thread, min of 3): k = 3, r = 2, cfl 0.4: 11 / 4.4 ms at 1,600 unknowns, 32 / 21
#: ms at 4,400; k = 2, r = 3, cfl 0.1: 12 / 230 ms at 768, 29 / 1,431 ms at 2,100, 51 /
#: 2,520 ms at 3,900.  The cap stays, so the 4,400-unknown point keeps its Lanczos value.
DENSE_CAP = 4096


#: power iteration: start-vector seed (Lanczos starts there too), relative
#: stopping step and iteration cap
POWER_SEED = 0
POWER_RTOL = 1e-10
POWER_MAX_ITER = 10000

#: symbol_norm: a half-spectrum symbol whose top singular value lies within
#: this relative distance of the half maximum has its mirror partner checked;
#: partners are conjugate up to rounding (their sigma_max differ by at most
#: 8.5e-15 relative on the sweep grids of r = 2..5, 1D N = 5..320, 2D N = 4..80).
SYMBOL_MIRROR_RTOL = 1e-10


def operator_norm(op, method, m=1, dense_cap=DENSE_CAP):
    """2-norm of op^m by the given method.

    "symbol" is symbol_norm on a circulant op (norm_symbols raise
    ValueError on any other op); "dense_svd" assembles op densely (allowed
    up to dense_cap unknowns); "power_iteration" runs matrix-free on
    (op^m)(op^m)^T.  stability.growth_excess takes the symbol route, and
    the other two are its cross-checks.
    """
    if m < 1:
        raise ValueError("power m must be >= 1")
    if method == "symbol":
        return symbol_norm(op, m, symbol_powers(op, half_spectrum(op.space.mesh.cells), m))

    if method == "dense_svd":
        if op.n_dofs > dense_cap:
            raise ValueError(f"dense SVD capped at {dense_cap} unknowns, got {op.n_dofs}")
        am = np.linalg.matrix_power(op.as_dense(), m)
        return float(np.linalg.svd(am, compute_uv=False)[0])

    if method == "power_iteration":
        return _power_iteration_norm(op, m)

    raise ValueError(f"unknown norm method {method!r}")


def symbol_powers(op, rows, m):
    """The m-th powers of a circulant op's norm_symbols at rows; LinAlgError if they are not
    finite (overflow), before a LAPACK call on them prints argument errors to stdout."""
    g = op.norm_symbols(rows)
    if m > 1:
        g = np.linalg.matrix_power(g, m)
    if not np.isfinite(g).all():
        raise np.linalg.LinAlgError("symbols are not finite")
    return g


def symbol_norm(op, m, half):
    """||op^m||_2 of a circulant op, from half = symbol_powers(op, half_spectrum(cells), m).

    A real op has conjugate symbols at opposite frequencies, so this is
    the half's largest top singular value once the mirror partners
    (-j mod n per axis) within SYMBOL_MIRROR_RTOL of it are checked: bit
    for bit the maximum over the full spectrum.
    """
    cells = op.space.mesh.cells
    top = np.linalg.svd(half, compute_uv=False)[..., 0]
    peak = top.max()
    near = np.nonzero(top >= peak * (1.0 - SYMBOL_MIRROR_RTOL))
    mirror = np.array([-j % n for j, n in zip(near, cells)])
    partners = symbol_powers(op, tuple(mirror[:, mirror[-1] > cells[-1] // 2]), m)
    return float(np.linalg.svd(partners, compute_uv=False)[..., 0].max(initial=peak))


def _start_vector(n):
    """The POWER_SEED standard normal draw of n entries that every Krylov iteration starts from."""
    return np.random.Generator(np.random.PCG64(POWER_SEED)).standard_normal(n)


def _power_iteration_norm(op, m):
    v = _start_vector(op.n_dofs)
    v /= np.linalg.norm(v)

    def fwd(x):
        for _ in range(m):
            x = op.matvec(x)
        return x

    def bwd(x):
        for _ in range(m):
            x = op.rmatvec(x)
        return x

    est = 0.0
    for _ in range(POWER_MAX_ITER):
        w = bwd(v)
        new_est = np.linalg.norm(w)          # = ||A^T v||, Rayleigh quotient sqrt
        z = fwd(w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        v = z / nz
        if abs(new_est - est) <= POWER_RTOL * max(new_est, 1e-300):
            return float(new_est)
        est = new_est
    raise PowerIterationError(
        f"power iteration did not reach rtol={POWER_RTOL} in {POWER_MAX_ITER} iterations",
        last_estimate=float(est),
        last_vector=v,
    )


def shift_solver(op, bound):
    """A solver of (bound * I - op) y = b on flat coefficients; None unless that matrix is
    positive definite: a solver in hand certifies every eigenvalue of op below bound.

    op must be a symmetric BlockOperator; for a 2D one the result is None.
    A = bound * I - op is periodic block tridiagonal over the super-blocks
    of BlockOperator._ring, whose padding unknowns get a unit diagonal and
    no coupling.  Block cyclic reduction (Buzbee, Golub & Nielson, SINUM
    7, 1970) eliminates the odd super-blocks of the ring at once: one
    batched np.linalg.cholesky L of their diagonal blocks, then their Schur
    complement onto the even ones, which form the next ring, until one
    block is left.  A is positive definite exactly when every pivot block
    is (Sylvester's law of inertia applied to the Schur complements), and
    one that is not makes cholesky raise: a LinAlgError, or a pivot that
    is not finite, means None.  log2(m) levels, O(N) work.

    Each level keeps inv(L) and w = inv(L) C, C the odd blocks' couplings
    to their even neighbours, so a solve retraces the levels: forward,
    z = inv(L) b_odd and b_even -= w^T z; the last block; back,
    y_odd = inv(L)^T (z - w y_even).  b maps into the ring's layout with
    zero padding.  One solve is O(N), with no factorization.
    """
    ring = op._ring if op.space.dim == 1 else None
    if ring is None or not np.isfinite(bound):
        return None
    d, u, pad = ring
    m, s, _ = d.shape
    d = np.where(pad, 1.0, bound)[..., None] * np.eye(s) - d
    u = -u
    levels = []
    try:
        while m > 1:
            h = m // 2
            factor = np.linalg.cholesky(d[1:2 * h:2])
            if not np.isfinite(factor).all():
                return None
            # odd j: w = factor^-1 (A_{j,j-1} | A_{j,j+1}); w^T w updates j -+ 1 and joins them
            inv = np.linalg.inv(factor)
            del factor          # before g: the kept levels then add nothing to the peak memory
            w = inv @ np.concatenate([u[0:2 * h:2].transpose(0, 2, 1), u[1:2 * h:2]], axis=2)
            g = w.transpose(0, 2, 1) @ w
            right = np.arange(1, h + 1) % (m - h)       # even j + 1 in the next ring
            d = d[0::2]
            d[:h] -= g[:, :s, :s]
            d[right] -= g[:, s:, s:]
            u = np.concatenate([-g[:, :s, s:], u[2 * h:]])
            levels.append((inv, w, right))
            m -= h
        # the last block: its wrap couples it to itself
        last = np.linalg.cholesky(d[0] + u[0] + u[0].T)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(last).all():
        return None

    def solve(b):
        r = np.zeros(pad.shape)
        r[~pad] = b
        zs = []
        for inv, w, right in levels:
            h = len(inv)
            z = (inv @ r[1:2 * h:2, :, None])[..., 0]
            t = (z[:, None, :] @ w)[:, 0]
            r = r[0::2]
            r[:h] -= t[:, :s]
            r[right] -= t[:, s:]
            zs.append(z)
        y = np.linalg.solve(last.T, np.linalg.solve(last, r[0]))[None]
        for (inv, w, right), z in zip(reversed(levels), reversed(zs)):
            h = len(inv)
            z = z - (w @ np.concatenate([y[:h], y[right]], axis=1)[..., None])[..., 0]
            out = np.empty((len(y) + h, s))
            out[0::2] = y
            out[1::2] = (z[:, None, :] @ inv)[:, 0]
            y = out
        return y[~pad]

    return solve


#: Lanczos: stopping residual relative to the Ritz spread, and step cap
LANCZOS_RTOL = 1e-10
LANCZOS_MAX_ITER = 1024


def top_eigenvalue(op):
    """Largest eigenvalue of a symmetric BlockOperator, matrix-free, by Lanczos.

    The Krylov basis of op from a POWER_SEED start vector is kept
    orthonormal by full reorthogonalization (two classical Gram-Schmidt
    passes per step), and the Ritz values are the eigenvalues of the
    tridiagonal T_j (Parlett, The Symmetric Eigenvalue Problem, ch. 13;
    Golub & Van Loan section 10.1).  The top Ritz value is returned once
    its residual |beta_j y_j| is at most LANCZOS_RTOL times the spread of
    the Ritz values, or when the basis spans the space.  T_j is
    diagonalized only at geometrically spaced j (16, 20, 25, ...): its
    O(j^3) cost would otherwise dominate long runs.  The basis is
    allocated once at its largest size; rows no step reaches are never
    written.  PowerIterationError after LANCZOS_MAX_ITER steps, carrying
    the top Ritz pair.
    """
    n = op.n_dofs
    w = _start_vector(n)
    b = float(np.linalg.norm(w))
    basis = np.empty((min(LANCZOS_MAX_ITER, n), n))
    alpha, beta = [], []
    check = 16
    for j in range(len(basis)):
        basis[j] = w / b
        if j:
            beta.append(b)
        w = op.matvec(basis[j])
        h = basis[:j + 1] @ w
        w -= h @ basis[:j + 1]
        c = basis[:j + 1] @ w
        w -= c @ basis[:j + 1]
        alpha.append(h[j] + c[j])
        b = float(np.linalg.norm(w))
        if j + 1 in (check, n, LANCZOS_MAX_ITER) or b == 0.0:
            theta, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if abs(b * y[-1, -1]) <= LANCZOS_RTOL * (theta[-1] - theta[0]) or j + 1 == n:
                return float(theta[-1])
            check = max(check + 1, check * 5 // 4)
    raise PowerIterationError(
        f"Lanczos did not reach a residual of {LANCZOS_RTOL} x the Ritz spread in "
        f"{LANCZOS_MAX_ITER} steps",
        last_estimate=float(theta[-1]),
        last_vector=y[:, -1] @ basis[:len(alpha)],
    )
