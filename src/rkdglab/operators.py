"""Upwind DG operator, reductions, projections, jump forms and operator norms.

Everything is expressed in the orthonormal modal basis, so coefficient
2-norms equal L2 norms and transposes of coefficient matrices realize
L2 adjoints.  Operators on periodic meshes are block-sparse: a diagonal
block per cell plus one block per upwind neighbor.
"""
from dataclasses import dataclass

import numpy as np

from .basis import PolyBasis, basis_2d_index, gauss_quadrature, legendre_modes, reference_tables
from .errors import (
    IncompatibleSpacesError,
    PowerIterationError,
    UnsupportedDegreeError,
)
from .mesh import Mesh1D, Mesh2D

DENSE_EXPORT_MAGIC = b"RKDGDNS1"


# ---------------------------------------------------------------------------
# discrete space and grid functions
# ---------------------------------------------------------------------------

class DGSpace:
    """Broken polynomial space V_h^k on a periodic mesh."""

    def __init__(self, mesh, degree):
        if degree < 0:
            raise UnsupportedDegreeError("polynomial degree must be >= 0")
        self.mesh = mesh
        self.degree = degree
        self.basis = PolyBasis(dim=mesh.dim, degree=degree)

    @property
    def dim(self):
        return self.mesh.dim

    @property
    def n_modes(self):
        return self.basis.n_modes

    @property
    def shape(self):
        if self.dim == 1:
            return (self.mesh.n_cells, self.n_modes)
        return (self.mesh.nx, self.mesh.ny, self.n_modes)

    @property
    def n_dofs(self):
        return int(np.prod(self.shape))

    def top_mode_mask(self):
        """Boolean mask of the total-degree-k modes (the P^{k-1} complement)."""
        k = self.degree
        if self.dim == 1:
            mask = np.zeros(self.n_modes, dtype=bool)
            mask[k] = True
            return mask
        return np.array([a + b == k for (a, b) in basis_2d_index(k)])

    def zeros(self):
        return GridFunction(self, np.zeros(self.shape))

    def random(self, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        return GridFunction(self, rng.standard_normal(self.shape))

    def __eq__(self, other):
        return (
            isinstance(other, DGSpace)
            and self.degree == other.degree
            and self.mesh == other.mesh
        )

    def __hash__(self):
        return hash((self.mesh, self.degree))


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

    def __neg__(self):
        return GridFunction(self.space, -self.coeffs)


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

    Offsets are ints in 1D and (ox, oy) pairs in 2D.  A block value may be
    a single (m, m) matrix shared by all cells or, in 1D, an (N, m, m)
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
        zero = 0 if self.space.dim == 1 else (0, 0)
        return BlockOperator(self.space, {zero: np.asarray(other, dtype=float)})

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
        blocks = {}
        for o, a in self.blocks.items():
            for p, b in other.blocks.items():
                if b.ndim == 3:
                    b = np.roll(b, -o, axis=0)      # B_p of cell c + o
                off = o + p if self.space.dim == 1 else (o[0] + p[0], o[1] + p[1])
                blocks[off] = blocks[off] + a @ b if off in blocks else a @ b
        return BlockOperator(self.space, blocks)

    def apply(self, u):
        if isinstance(u, GridFunction):
            if u.space != self.space:
                raise IncompatibleSpacesError("operator and operand spaces differ")
            return GridFunction(self.space, self.apply_array(u.coeffs))
        return self.apply_array(u)

    def apply_array(self, c):
        """Apply to raw coefficients; a trailing batch axis is allowed."""
        out = None
        if self.space.dim == 1:
            for off, blk in self.blocks.items():
                shifted = c if off == 0 else np.roll(c, -off, axis=0)
                term = (
                    np.einsum("nm,im...->in...", blk, shifted)
                    if blk.ndim == 2
                    else np.einsum("inm,im...->in...", blk, shifted)
                )
                out = term if out is None else out + term
        else:
            for (ox, oy), blk in self.blocks.items():
                shifted = c
                if ox:
                    shifted = np.roll(shifted, -ox, axis=0)
                if oy:
                    shifted = np.roll(shifted, -oy, axis=1)
                term = np.einsum("nm,xym...->xyn...", blk, shifted)
                out = term if out is None else out + term
        return out

    def matvec(self, x):
        return self.apply_array(x.reshape(self.space.shape)).ravel()

    def rmatvec(self, x):
        return self.transpose().matvec(x)

    def transpose(self):
        """L2 adjoint (matrix transpose in the orthonormal basis)."""
        if getattr(self, "_transpose", None) is not None:
            return self._transpose
        blocks = {}
        if self.space.dim == 1:
            for off, blk in self.blocks.items():
                if blk.ndim == 2:
                    blocks[-off] = blk.T.copy()
                else:
                    blocks[-off] = np.roll(blk.transpose(0, 2, 1), off, axis=0)
        else:
            for (ox, oy), blk in self.blocks.items():
                blocks[(-ox, -oy)] = blk.T.copy()
        out = BlockOperator(self.space, blocks)
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
            phase = np.prod(np.exp(1j * np.atleast_1d(off) * angles), axis=1)
            out += blk[None] * phase[:, None, None]
        return out

    def norm_symbols(self):
        """Symbols at the mesh frequencies; these diagonalize the operator."""
        return self.symbols(fft_angles(self.space))

    def stacked(self):
        """(weights, gather): the blocks side by side and an operand index to match.

        For coefficients c, c.take(gather) has one row per cell holding
        c_{cell + o} for every offset o in block order, so A c is the
        contraction of that row with the cell's weights: weights is
        (m, J m) for shared blocks and (cells, m, J m) for per-cell stacks.
        """
        m = self.space.n_modes
        shape = self.space.shape[:-1]
        cells = np.arange(int(np.prod(shape))).reshape(shape)
        axes = tuple(range(self.space.dim))
        nbrs = np.stack([np.roll(cells, np.negative(off), axis=axes).ravel()
                         for off in self.blocks], axis=1)
        gather = (nbrs[:, :, None] * m + np.arange(m)).reshape(len(nbrs), -1)
        blocks = list(self.blocks.values())
        if self.shares_blocks:
            return np.concatenate(blocks, axis=1), gather
        stack_shape = (len(nbrs), m, m)
        return np.concatenate([np.broadcast_to(b, stack_shape) for b in blocks], axis=2), gather

    def as_dense(self):
        """Dense matrix acting on flattened coefficients (small sizes only)."""
        return dense_from_matvec(self.apply_array, self.space)


def fft_angles(space, half=False):
    """Angles 2 pi j / n of the discrete Fourier modes of the cell grid.

    One row per frequency, first axis slowest, as numpy.fft orders them.
    half keeps only the non-negative frequencies of the last cell axis,
    the half spectrum that numpy.fft.rfftn returns.
    """
    counts = space.shape[:-1]
    axes = [2.0 * np.pi * np.arange(n) / n for n in counts]
    if half:
        axes[-1] = axes[-1][: counts[-1] // 2 + 1]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def dense_from_matvec(apply_array, space, chunk=512):
    """Assemble the dense matrix of a batch-capable coefficient map."""
    n = space.n_dofs
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

    if isinstance(mesh, Mesh1D):
        space = DGSpace(mesh, k)
        h = mesh.cell_sizes
        beta = mesh.beta
        if mesh.is_uniform:
            scale = 2.0 * beta / h[0]
            blocks = {0: scale * vol_minus_out, -1: scale * inflow}
        else:
            diag = (2.0 * beta / h)[:, None, None] * vol_minus_out[None]
            hl = np.roll(h, 1)
            upw = (2.0 * beta / np.sqrt(h * hl))[:, None, None] * inflow[None]
            blocks = {0: diag, -1: upw}
        return BlockOperator(space, blocks)

    if isinstance(mesh, Mesh2D):
        space = DGSpace(mesh, k)
        ids = basis_2d_index(k)
        nm = len(ids)
        diag = np.zeros((nm, nm))
        left_blk = np.zeros((nm, nm))
        bottom_blk = np.zeros((nm, nm))
        cx = 2.0 * mesh.beta_x / mesh.hx
        cy = 2.0 * mesh.beta_y / mesh.hy
        for p, (a, b) in enumerate(ids):
            for q, (a2, b2) in enumerate(ids):
                if b == b2:
                    diag[p, q] += cx * vol_minus_out[a, a2]
                    left_blk[p, q] += cx * inflow[a, a2]
                if a == a2:
                    diag[p, q] += cy * vol_minus_out[b, b2]
                    bottom_blk[p, q] += cy * inflow[b, b2]
        return BlockOperator(space, {(0, 0): diag, (-1, 0): left_blk, (0, -1): bottom_blk})

    raise TypeError(f"unsupported mesh type {type(mesh)!r}")


def reduce_operator(op, k=None):
    """Drop the total-degree-k test rows: the reduced operator (I - P_perp) L."""
    space = op.space
    k = space.degree if k is None else k
    if k != space.degree:
        raise UnsupportedDegreeError("reduction degree must match the operator space")
    if k == 0:
        raise UnsupportedDegreeError("reduced test space is empty for k = 0")
    mask = space.top_mode_mask()
    blocks = {}
    for off, blk in op.blocks.items():
        b = blk.copy()
        if b.ndim == 2:
            b[mask, :] = 0.0
        else:
            b[:, mask, :] = 0.0
        blocks[off] = b
    return BlockOperator(space, blocks)


# ---------------------------------------------------------------------------
# projections onto V_h^k, V_h^{k-1} and the top-degree complement
# ---------------------------------------------------------------------------

def _projection_points(space, n_points=None):
    k = space.degree
    return n_points if n_points is not None else max(10, k + 4)


def project(f, space=None, target="full", n_points=None):
    """Cellwise L2 projection.

    f may be a callable (projected by Gauss quadrature with
    max(10, k+4) points per direction unless overridden) or an existing
    GridFunction, for which the projection is a mode mask.
    """
    if isinstance(f, GridFunction):
        space = f.space if space is None else space
        if space != f.space:
            raise IncompatibleSpacesError("projection target space differs from input")
        if target == "full":
            return f.copy()
        mask = space.top_mode_mask()
        coeffs = f.coeffs.copy()
        if target == "k_minus_1":
            coeffs[..., mask] = 0.0
        elif target == "perp":
            coeffs[..., ~mask] = 0.0
        else:
            raise ValueError(f"unknown projection target {target!r}")
        return GridFunction(space, coeffs)

    if space is None:
        raise TypeError("projecting a callable requires an explicit space")
    u = _project_callable(f, space, n_points)
    if target == "full":
        return u
    return project(u, target=target)


def _project_callable(f, space, n_points=None):
    nq = _projection_points(space, n_points)
    quad = gauss_quadrature(nq)
    k = space.degree
    vals, _ = legendre_modes(k, quad.nodes)
    mesh = space.mesh
    if space.dim == 1:
        nodes, h = mesh.nodes, mesh.cell_sizes
        x = nodes[:-1, None] + (quad.nodes[None, :] + 1.0) * h[:, None] / 2.0
        fx = f(x)
        coeffs = np.sqrt(h / 2.0)[:, None] * np.einsum("q,mq,iq->im", quad.weights, vals, fx)
        return GridFunction(space, coeffs)
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    xq = (np.arange(nx)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hx
    yq = (np.arange(ny)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hy
    fxy = f(xq[:, None, :, None], yq[None, :, None, :])
    tensor = np.einsum("q,r,aq,br,xyqr->xyab", quad.weights, quad.weights, vals, vals, fxy)
    tensor *= np.sqrt(hx * hy) / 2.0
    ids = basis_2d_index(k)
    coeffs = np.stack([tensor[:, :, a, b] for (a, b) in ids], axis=-1)
    return GridFunction(space, coeffs)


def quadrature_grid(space, n_points=None):
    """Physical quadrature points and weights tiling the whole mesh.

    1D: (x, w) with shape (n_cells, q).  2D: (x, y, w) with x (nx, q),
    y (ny, q) and w (nx, ny, q, q); weights include cell Jacobians.
    """
    nq = _projection_points(space, n_points)
    quad = gauss_quadrature(nq)
    mesh = space.mesh
    if space.dim == 1:
        h = mesh.cell_sizes
        x = mesh.nodes[:-1, None] + (quad.nodes[None, :] + 1.0) * h[:, None] / 2.0
        w = np.broadcast_to(quad.weights[None, :], x.shape) * (h[:, None] / 2.0)
        return x, w
    hx, hy = mesh.hx, mesh.hy
    x = (np.arange(mesh.nx)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hx
    y = (np.arange(mesh.ny)[:, None] + (quad.nodes[None, :] + 1.0) / 2.0) * hy
    wq = quad.weights
    w = (hx * hy / 4.0) * np.einsum("q,r->qr", wq, wq)
    w = np.broadcast_to(w[None, None], (mesh.nx, mesh.ny, nq, nq))
    return x, y, w


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
    ids = basis_2d_index(k)
    nm = len(ids)
    mat = np.zeros((nm, nm))
    cx = -mesh.beta_x * 2.0 / mesh.hx
    cy = -mesh.beta_y * 2.0 / mesh.hy
    for p, (a, b) in enumerate(ids):
        for q, (a2, b2) in enumerate(ids):
            if b == b2:
                mat[p, q] += cx * stiff[a2, a]
            if a == a2:
                mat[p, q] += cy * stiff[b2, b]
    return GridFunction(space, np.einsum("nm,xym->xyn", mat, u.coeffs))


def eval_grid(u, n_points=None):
    """Values of a grid function at the quadrature_grid points."""
    space = u.space
    nq = _projection_points(space, n_points)
    quad = gauss_quadrature(nq)
    k = space.degree
    vals, _ = legendre_modes(k, quad.nodes)
    mesh = space.mesh
    if space.dim == 1:
        scale = np.sqrt(2.0 / mesh.cell_sizes)
        return scale[:, None] * np.einsum("im,mq->iq", u.coeffs, vals)
    ids = basis_2d_index(k)
    tensor = np.zeros((mesh.nx, mesh.ny, k + 1, k + 1))
    for p, (a, b) in enumerate(ids):
        tensor[:, :, a, b] = u.coeffs[:, :, p]
    scale = 2.0 / np.sqrt(mesh.hx * mesh.hy)
    return scale * np.einsum("xyab,aq,br->xyqr", tensor, vals, vals)


# ---------------------------------------------------------------------------
# interface traces and jump forms
# ---------------------------------------------------------------------------

def _traces_1d(u):
    """(right, left) traces of u on every cell, as plain values."""
    k = u.space.degree
    right, left, _ = reference_tables(k)
    h = u.space.mesh.cell_sizes
    s = np.sqrt(2.0 / h)
    return s * (u.coeffs @ right), s * (u.coeffs @ left)


def _jump_values_1d(u):
    """Jumps u^+ - u^- at every interface x_{i+1/2}, i = 0..N-1 (periodic)."""
    r, l = _traces_1d(u)
    return np.roll(l, -1) - r


def _edge_traces_2d(u):
    """Modal x/y-line traces on the four cell edges, scaled to physical size.

    Returns (top, bottom, right, left): top/bottom have shape (nx, ny, k+1)
    of x-mode coefficients; right/left of y-mode coefficients.  The trace
    polynomial on a horizontal edge is sum_a coef[a] * sqrt(2/hx) P~_a(xi),
    which is orthonormal in L2 of the edge, so edge integrals of products
    reduce to dot products of these coefficient vectors.
    """
    space = u.space
    k = space.degree
    mesh = space.mesh
    right, left, _ = reference_tables(k)
    ids = basis_2d_index(k)
    m1 = k + 1
    cx = np.zeros((space.n_modes, m1, 2))   # mode -> x-line coeffs at (top, bottom)
    cy = np.zeros((space.n_modes, m1, 2))   # mode -> y-line coeffs at (right, left)
    sy = np.sqrt(2.0 / mesh.hy)
    sx = np.sqrt(2.0 / mesh.hx)
    for p, (a, b) in enumerate(ids):
        cx[p, a, 0] = right[b] * sy
        cx[p, a, 1] = left[b] * sy
        cy[p, b, 0] = right[a] * sx
        cy[p, b, 1] = left[a] * sx
    top = np.einsum("xyp,pa->xya", u.coeffs, cx[:, :, 0])
    bottom = np.einsum("xyp,pa->xya", u.coeffs, cx[:, :, 1])
    rgt = np.einsum("xyp,pb->xyb", u.coeffs, cy[:, :, 0])
    lft = np.einsum("xyp,pb->xyb", u.coeffs, cy[:, :, 1])
    return top, bottom, rgt, lft


@dataclass(frozen=True)
class JumpForms:
    """Interface quantities: <<w, v>>, |v|_jump and the trace norm of v."""

    inner: float
    seminorm: float
    trace_norm: float


def jump_inner(w, v):
    """beta-weighted sum/integral of [w][v] over all interfaces."""
    _check_same_space(w, v)
    space = w.space
    if space.dim == 1:
        beta = space.mesh.beta
        return float(beta * np.dot(_jump_values_1d(w), _jump_values_1d(v)))
    mesh = space.mesh
    wt, wb, wr, wl = _edge_traces_2d(w)
    vt, vb, vr, vl = _edge_traces_2d(v)
    jw_h = np.roll(wb, -1, axis=1) - wt
    jv_h = np.roll(vb, -1, axis=1) - vt
    jw_v = np.roll(wl, -1, axis=0) - wr
    jv_v = np.roll(vl, -1, axis=0) - vr
    return float(mesh.beta_y * np.sum(jw_h * jv_h) + mesh.beta_x * np.sum(jw_v * jv_v))


def jump_seminorm(v):
    return float(np.sqrt(max(jump_inner(v, v), 0.0)))


def trace_norm(v):
    """beta-weighted L2 norm of both one-sided traces over the mesh skeleton."""
    space = v.space
    if space.dim == 1:
        r, l = _traces_1d(v)
        beta = space.mesh.beta
        return float(np.sqrt(beta * np.sum(r**2 + np.roll(l, -1) ** 2)))
    mesh = space.mesh
    vt, vb, vr, vl = _edge_traces_2d(v)
    sq = mesh.beta_y * (np.sum(vt**2) + np.sum(vb**2))
    sq += mesh.beta_x * (np.sum(vr**2) + np.sum(vl**2))
    return float(np.sqrt(sq))


def jump_forms(w, v):
    """All interface quantities for a pair (w, v); seminorm/trace refer to v."""
    return JumpForms(inner=jump_inner(w, v), seminorm=jump_seminorm(v), trace_norm=trace_norm(v))


# ---------------------------------------------------------------------------
# mixed compositions L^{i1} P_perp L^{i2} P_perp ... P_perp L^{i_end}
# ---------------------------------------------------------------------------

def compose_mixed(op, indices, w):
    """Apply the alternating power/top-mode-filter composition right to left."""
    if len(indices) == 0:
        raise ValueError("index vector must be non-empty")
    if any(i < 1 for i in indices):
        raise ValueError("all composition powers must be >= 1")
    if op.space.degree < 1:
        raise UnsupportedDegreeError("mixed compositions need k >= 1")
    u = w
    for pos, power in enumerate(reversed(indices)):
        if pos > 0:
            u = project(u, target="perp")
        for _ in range(power):
            u = op.apply(u)
    return u


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

def _dense_power(op, m):
    a = op.as_dense()
    return np.linalg.matrix_power(a, m) if m > 1 else a


def operator_norm(op, method="auto", m=1, seed=0, dense_cap=4096, rtol=1e-10, max_iter=10000):
    """2-norm of op^m.

    Methods: "dense_svd" assembles op densely (allowed up to dense_cap
    unknowns); "power_iteration" runs matrix-free on (op^m)(op^m)^T;
    "auto" uses exact Fourier block-diagonalization for circulant
    operators on uniform meshes, falling back to dense_svd under the cap
    and power iteration above it.
    """
    if m < 1:
        raise ValueError("power m must be >= 1")
    if method == "auto":
        sym = getattr(op, "norm_symbols", None)
        if sym is not None:
            try:
                return _symbol_norm(op, m)
            except ValueError:
                pass
        if op.n_dofs <= dense_cap:
            return operator_norm(op, "dense_svd", m=m, dense_cap=dense_cap)
        return operator_norm(op, "power_iteration", m=m, seed=seed, rtol=rtol, max_iter=max_iter)

    if method == "dense_svd":
        if op.n_dofs > dense_cap:
            raise ValueError(f"dense SVD capped at {dense_cap} unknowns, got {op.n_dofs}")
        am = _dense_power(op, m)
        return float(np.linalg.svd(am, compute_uv=False)[0])

    if method == "power_iteration":
        return _power_iteration_norm(op, m, seed, rtol, max_iter)

    raise ValueError(f"unknown norm method {method!r}")


def _symbol_norm(op, m):
    """Exact ||op^m||_2 via per-frequency SVD of the circulant symbols."""
    sym = op.norm_symbols()
    if m > 1:
        sym = np.linalg.matrix_power(sym, m)
    return float(np.linalg.svd(sym, compute_uv=False)[:, 0].max())


def _power_iteration_norm(op, m, seed, rtol, max_iter):
    n = op.n_dofs
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(n)
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
    for _ in range(max_iter):
        w = bwd(v)
        new_est = np.linalg.norm(w)          # = ||A^T v||, Rayleigh quotient sqrt
        z = fwd(w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        v = z / nz
        if abs(new_est - est) <= rtol * max(new_est, 1e-300):
            return float(new_est)
        est = new_est
    raise PowerIterationError(
        f"power iteration did not reach rtol={rtol} in {max_iter} iterations",
        last_estimate=float(est),
        last_vector=v,
    )


# ---------------------------------------------------------------------------
# dense export formats (for cross-checks with external tools)
# ---------------------------------------------------------------------------

def save_dense_text(op, path):
    """Column-major plain text: 'rows cols' line, then one value per line."""
    a = op.as_dense()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for val in a.flatten(order="F"):
            fh.write(f"{val:.17e}\n")


def save_dense_binary(op, path):
    """16-byte header (8-byte magic, uint32 rows, uint32 cols) + float64 column-major."""
    a = op.as_dense()
    with open(path, "wb") as fh:
        fh.write(DENSE_EXPORT_MAGIC)
        fh.write(np.uint32(a.shape[0]).tobytes())
        fh.write(np.uint32(a.shape[1]).tobytes())
        fh.write(a.flatten(order="F").astype("<f8").tobytes())


def load_dense_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != DENSE_EXPORT_MAGIC:
            raise ValueError("not a dense operator dump")
        rows = int(np.frombuffer(fh.read(4), dtype=np.uint32)[0])
        cols = int(np.frombuffer(fh.read(4), dtype=np.uint32)[0])
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape((rows, cols), order="F")
