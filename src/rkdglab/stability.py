"""Stability diagnostics: growth metric over CFL sweeps and Fourier CFL numbers.

The growth metric is delta = max(||K^m||_2^2 - 1, 1e-16) for the one-step
evolution matrix K assembled in the orthonormal modal basis, with
tau = cfl / (dim * N).  The floor marks numerically exact
non-expansiveness; values of ||K^m||^2 - 1 below the measurement
resolution of the norm computation are snapped to the floor.
"""
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import reference_tables
from .errors import PowerIterationError
from .experiments import worker_count
from .mesh import build_mesh_1d, build_mesh_2d
from .operators import assemble_upwind, operator_norm, reduce_operator
from .schemes import EvolutionMap

DELTA_FLOOR = 1e-16
#: |norm^2 - 1| below this is indistinguishable from zero in double precision
NORM_RESOLUTION = 1e-13


@dataclass(frozen=True)
class StabilityPoint:
    scheme: str
    variant: str
    dim: int
    n: int
    m: int
    cfl: float
    delta: float
    flagged: bool = False


@dataclass(frozen=True)
class FourierSymbol:
    """Blocks of the 1D symbol: h L_h / beta at angle theta is A + B e^{-i theta}."""

    degree: int
    diag: np.ndarray
    neighbor: np.ndarray

    def at(self, thetas):
        th = np.asarray(thetas, dtype=float)
        return self.diag[None] + self.neighbor[None] * np.exp(-1j * th)[:, None, None]


def fourier_symbol(k):
    """Symbol blocks of the uniform-mesh upwind operator, h-and-beta normalized."""
    right, left, stiff = reference_tables(k)
    diag = 2.0 * (stiff - np.outer(right, right))
    neighbor = 2.0 * np.outer(left, right)
    return FourierSymbol(degree=k, diag=diag, neighbor=neighbor)


def _mesh_for(dim, n):
    return build_mesh_1d(n) if dim == 1 else build_mesh_2d(n, n)


def evolution_map(scheme, mesh, k, cfl):
    full_op = assemble_upwind(mesh, k)
    reduced_op = reduce_operator(full_op) if k >= 1 else full_op
    n = mesh.n_cells if mesh.dim == 1 else mesh.nx
    tau = cfl / (mesh.dim * n)
    return EvolutionMap(scheme, full_op, reduced_op, tau)


def delta(scheme, mesh, k, cfl, m=1, method="auto"):
    """Growth metric of the m-step evolution map at the given CFL number."""
    if m < 1:
        raise ValueError("power m must be >= 1")
    dim = mesh.dim
    n = mesh.n_cells if dim == 1 else mesh.nx
    if cfl == 0.0:
        value = DELTA_FLOOR
    else:
        emap = evolution_map(scheme, mesh, k, cfl)
        nrm = operator_norm(emap, method=method, m=m)
        excess = nrm * nrm - 1.0
        if abs(excess) < NORM_RESOLUTION:
            excess = 0.0
        value = max(excess, DELTA_FLOOR)
    return StabilityPoint(
        scheme=f"RK{scheme.order}DG{k}",
        variant=scheme.variant,
        dim=dim,
        n=n,
        m=m,
        cfl=float(cfl),
        delta=float(value),
    )


def cfl_sweep(scheme, k, dim, n_list, m, cfl_grid, workers=None):
    """Cartesian (N, cfl) sweep; rows ordered by (N, cfl), failures flagged."""
    if len(n_list) == 0 or len(cfl_grid) == 0:
        raise ValueError("sweep grids must be non-empty")
    jobs = [(n, cfl) for n in n_list for cfl in cfl_grid]

    def run(job):
        n, cfl = job
        try:
            return delta(scheme, _mesh_for(dim, n), k, cfl, m)
        except (PowerIterationError, np.linalg.LinAlgError):
            return StabilityPoint(
                scheme=f"RK{scheme.order}DG{k}", variant=scheme.variant,
                dim=dim, n=n, m=m, cfl=float(cfl), delta=math.nan, flagged=True,
            )

    nworkers = worker_count(workers)
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            points = list(pool.map(run, jobs))
    else:
        points = [run(job) for job in jobs]
    return points


@dataclass(frozen=True)
class FourierCfl:
    """Maximal stable CFL number; found=False reports 0 with a weak-stability flag."""

    value: float
    found: bool


def fourier_cfl(variant, r, k, n_theta=2048, bisect_tol=5e-4,
                growth_tol=1e-7, c_max=2.0):
    """Maximal CFL via per-angle spectral radius of the 1D amplification symbol.

    Bisection on c for max_theta rho(G(c, theta)) <= 1 + growth_tol, with
    G the stability polynomial in c*S for the standard variant and the
    reduced-inner-stage composition for the sdA variant.  The growth
    tolerance admits the slow eigenvalue drift of the weakly stable
    schemes while pinning the sharp blow-up threshold.
    """
    if k < 1 or r < 2:
        raise ValueError("Fourier CFL computed for k >= 1, r >= 2")
    sym = fourier_symbol(k)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    s_full = sym.at(thetas)
    s_red = s_full.copy()
    s_red[:, -1, :] = 0.0
    alphas = [1.0 / math.factorial(i) for i in range(r + 1)]
    m = k + 1
    eye = np.eye(m)

    def max_rho(c):
        if variant == "standard":
            g = np.broadcast_to(alphas[r] * eye, s_full.shape).copy()
            for i in range(r - 1, -1, -1):
                g = alphas[i] * eye + (c * s_full) @ g
        else:
            g = np.broadcast_to(alphas[r] * eye, s_full.shape).copy()
            for i in range(r - 1, 0, -1):
                g = alphas[i] * eye + (c * s_red) @ g
            g = eye + (c * s_full) @ g
        return float(np.abs(np.linalg.eigvals(g)).max())

    def stable(c):
        return max_rho(c) <= 1.0 + growth_tol

    lo, hi = 0.0, c_max
    if stable(hi):
        return FourierCfl(value=hi, found=True)
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    if lo < bisect_tol:
        return FourierCfl(value=0.0, found=False)
    return FourierCfl(value=lo, found=True)
