"""Periodic meshes of the unit interval and unit square.

1D meshes may be randomly perturbed (interior nodes shifted by a bounded
fraction of the uniform spacing); 2D meshes are uniform Cartesian grids.
All meshes are immutable after construction.
"""
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidMeshError, InvalidPerturbationError, InvalidSpeedError


@dataclass(frozen=True)
class Mesh1D:
    """Periodic partition of [0, 1] into cells (x_{i-1/2}, x_{i+1/2})."""

    nodes: np.ndarray          # n+1 nodes, first 0.0, last 1.0
    beta: float = 1.0          # advection speed, >= 0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 3:
            raise InvalidMeshError("need at least 2 cells on a periodic mesh")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise InvalidMeshError("mesh must span [0, 1] exactly")
        if np.any(np.diff(nodes) <= 0.0):
            raise InvalidMeshError("mesh nodes must be strictly increasing")
        if self.beta < 0.0:
            raise InvalidSpeedError("upwind operator requires beta >= 0")
        nodes.setflags(write=False)

    @property
    def dim(self):
        return 1

    @property
    def n_cells(self):
        return len(self.nodes) - 1

    @property
    def cells(self):
        """Cell counts per axis: (n,)."""
        return (self.n_cells,)

    @property
    def cell_sizes(self):
        return np.diff(self.nodes)

    @cached_property
    def is_uniform(self):
        """Equal cell widths to 1e-14; decided once, the nodes never change."""
        sizes = self.cell_sizes
        return bool(np.allclose(sizes, sizes[0], rtol=0.0, atol=1e-14))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Mesh1D)
            and self.beta == other.beta
            and self.nodes.shape == other.nodes.shape
            and bool(np.array_equal(self.nodes, other.nodes))
        )

    def __hash__(self):
        return hash((self.nodes.tobytes(), self.beta))


@dataclass(frozen=True)
class Mesh2D:
    """Uniform nx-by-ny Cartesian grid of [0, 1]^2, periodic in both directions."""

    nx: int
    ny: int
    beta_x: float = 1.0
    beta_y: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidMeshError("need at least 2 cells per direction")
        if self.beta_x <= 0.0 or self.beta_y <= 0.0:
            raise InvalidSpeedError("2D upwind operator requires beta_x, beta_y > 0")

    @property
    def dim(self):
        return 2

    @property
    def hx(self):
        return 1.0 / self.nx

    @property
    def hy(self):
        return 1.0 / self.ny

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def cells(self):
        """Cell counts per axis: (nx, ny)."""
        return (self.nx, self.ny)

    @property
    def is_uniform(self):
        return True


def build_mesh_1d(n, perturb_fraction=0.0, seed=0, beta=1.0):
    """Build a periodic 1D mesh, optionally with randomly perturbed nodes.

    Interior nodes are moved from their uniform positions i/n by independent
    uniform shifts in [-perturb_fraction/n, +perturb_fraction/n]; the
    endpoints stay fixed.  Deterministic for a fixed (n, perturb_fraction,
    seed).
    """
    if n < 2:
        raise InvalidMeshError("need at least 2 cells on a periodic mesh")
    if not 0.0 <= perturb_fraction < 0.5:
        raise InvalidPerturbationError(
            "perturb_fraction must lie in [0, 0.5) so nodes cannot cross"
        )
    nodes = np.linspace(0.0, 1.0, n + 1)
    if perturb_fraction > 0.0:
        rng = np.random.Generator(np.random.PCG64(seed))
        h = 1.0 / n
        shifts = rng.uniform(-perturb_fraction * h, perturb_fraction * h, n - 1)
        nodes[1:-1] += shifts
    return Mesh1D(nodes=nodes, beta=beta)


def build_mesh_2d(nx, ny, beta_x=1.0, beta_y=1.0):
    """Build a uniform periodic 2D Cartesian mesh of [0, 1]^2."""
    return Mesh2D(nx=nx, ny=ny, beta_x=beta_x, beta_y=beta_y)


def build_mesh(dim, n, perturb=0.0, seed=0):
    """The N-cell 1D mesh build_mesh_1d(n, perturb, seed), or at dim 2 the uniform N x N grid."""
    if dim not in (1, 2):
        raise InvalidMeshError(f"meshes are 1D or 2D: dim must be 1 or 2, got {dim}")
    if dim == 1:
        return build_mesh_1d(n, perturb_fraction=perturb, seed=seed)
    if perturb:
        raise ValueError(f"2D meshes are uniform: perturb must be 0, got {perturb}")
    return build_mesh_2d(n, n)
