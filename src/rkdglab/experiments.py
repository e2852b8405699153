"""Convergence studies: exact-solution transport, L2 errors and EOC tables."""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowUpError
from .mesh import build_mesh
from .operators import DGSpace, eval_grid, grid_values, project, quadrature_grid, quadrature_points
from .schemes import evolve


# ---------------------------------------------------------------------------
# problems and initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Transport test problem: sin(2 pi x) or sin(2 pi (x+y)) advected at
    unit speed along each axis (the default mesh speeds) up to a final time.

    With a regularity parameter flat, the data of limited smoothness
    sin(...)^(flat - 1/3) instead.  The fractional power is read through
    the real cube root of an integer power: sin^{flat - 1/3} =
    cbrt(sin^{3 flat - 1}), which is odd or nonnegative depending on the
    parity of 3*flat - 1.
    """

    dim: int
    flat: Optional[int] = None    # regularity parameter of sin^(flat - 1/3) data; None: sin
    final_time: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"problems are 1D or 2D: dim must be 1 or 2, got {self.dim}")
        if self.flat is not None and self.flat < 2:
            raise ValueError("sinpow data needs a regularity parameter >= 2")

    @property
    def value(self):
        return self.exact(0.0)

    def exact(self, t):
        shift = self.dim * t
        if self.flat is None:
            return lambda *xy: np.sin(2.0 * np.pi * (sum(xy) - shift))
        p = 3 * self.flat - 1
        return lambda *xy: np.cbrt(np.sin(2.0 * np.pi * (sum(xy) - shift)) ** p)

    def deriv(self, i):
        """i-th advective derivative (-(1, ..., 1) . grad)^i of the initial data."""
        if i == 0:
            return self.value
        if self.flat is not None:
            raise NotImplementedError("analytic derivatives only kept for smooth data")
        amp = (-self.dim * 2.0 * np.pi) ** i
        phase = i * np.pi / 2.0
        return lambda *xy: amp * np.sin(2.0 * np.pi * sum(xy) + phase)

    def error_quadrature(self, k):
        # singular sinpow derivatives need denser error quadrature
        nq = quadrature_points(k)
        return max(16, nq) if self.flat is not None else nq


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------

def l2_error(u, problem, t, n_points=None):
    """L2 distance between a grid function and the exact solution at time t."""
    space = u.space
    nq = n_points if n_points is not None else problem.error_quadrature(space.degree)
    *points, w = quadrature_grid(space, nq)
    return _l2_distance(u, w, grid_values(problem.exact(t), points), nq)


def _l2_distance(u, w, exact, nq):
    """L2 distance between u and the exact values at the quadrature_grid(u.space, nq)
    points, whose weights are w."""
    return float(np.sqrt(np.sum(w * (eval_grid(u, nq) - exact) ** 2)))


# ---------------------------------------------------------------------------
# time step rules and table drivers
# ---------------------------------------------------------------------------

def benchmark_tau(order, dim, n):
    """Accuracy-table step sizes: 0.1/(d N), with N^(6/5) refinement at order 5."""
    if order >= 5:
        return 0.1 / (dim * float(n) ** 1.2)
    return 0.1 / (dim * n)


def resolve_timestep(rule, order, dim, n):
    if rule == "benchmark":
        return benchmark_tau(order, dim, n)
    return float(rule)


@dataclass(frozen=True)
class AccuracyRow:
    """One table row: scheme at resolution N with its error and EOC.

    A flagged row blew up, at the step of index blowup_step.
    """

    scheme: str
    variant: str
    dim: int
    n: int
    dofs: int
    l2_error: float
    eoc: Optional[float] = None
    blowup_step: Optional[int] = None

    @property
    def flagged(self):
        return self.blowup_step is not None


def _read_only(a):
    a.flags.writeable = False
    return a


def accuracy_table(schemes, problem, n_list, timestep="benchmark",
                   perturb=0.0, seed=0, n_quad=None):
    """Errors and orders over a refinement sweep, for several (scheme, k) pairs.

    schemes is a list of (SchemeSpec, k).  The initial state is the L2
    projection of the initial data.  Each N's mesh is built once, and its
    schemes share, read-only, one projected initial state per degree and
    one set of quadrature weights and final-time exact values per error
    rule; only one N's shared arrays are alive at a time.  Rows are ordered
    by (scheme, N); a blow-up is recorded as a flagged row rather than an
    exception.  A repeated N raises ValueError: its EOC would divide by
    log(N / N) = 0.
    """
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"refinement N values must be distinct, got {tuple(n_list)}")
    results = [[] for _ in schemes]     # per scheme, per N: (dofs, error, blow-up step or None)
    for n in n_list:
        mesh = build_mesh(problem.dim, n, perturb, seed)
        starts, grids = {}, {}
        for (scheme, k), out in zip(schemes, results):
            nq = n_quad if n_quad is not None else problem.error_quadrature(k)
            if k not in starts:
                starts[k] = project(problem.value, DGSpace(mesh, k), n_points=nq)
                _read_only(starts[k].coeffs)
            u0 = starts[k]
            tau = resolve_timestep(timestep, scheme.order, problem.dim, n)
            try:
                result = evolve(scheme, u0, problem.final_time, tau)
            except BlowUpError as exc:
                out.append((u0.space.n_dofs, math.nan, exc.step_index))
                continue
            if nq not in grids:
                *points, w = quadrature_grid(u0.space, nq)
                exact = grid_values(problem.exact(problem.final_time), points)
                grids[nq] = _read_only(w), _read_only(exact)
            out.append((u0.space.n_dofs, _l2_distance(result.u, *grids[nq], nq), None))

    rows = []
    for (scheme, k), per_n in zip(schemes, results):
        prev = None
        for n, (dofs, err, blowup_step) in zip(n_list, per_n):
            eoc = None
            if prev is not None and np.isfinite(err) and np.isfinite(prev[1]) and err > 0:
                eoc = math.log(prev[1] / err) / math.log(n / prev[0])
            rows.append(AccuracyRow(
                scheme=scheme.label(k),
                variant=scheme.variant,
                dim=problem.dim,
                n=n,
                dofs=dofs,
                l2_error=err,
                eoc=eoc,
                blowup_step=blowup_step,
            ))
            prev = (n, err)
    return rows


def regularity_default_time(order):
    """Long final times make the order degeneracy visible for r = 4, 5."""
    return 1.0 if order <= 3 else 500.0


def regularity_problem(order, flat_mode, final_time, dim):
    """The sinpow problem of a regularity study at order r: flat = r or r + 1
    (flat_mode "r" or "r+1"), up to final_time, by default regularity_default_time(r)."""
    if flat_mode == "r":
        flat = order
    elif flat_mode == "r+1":
        flat = order + 1
    else:
        raise ValueError(f"flat_mode must be 'r' or 'r+1', got {flat_mode!r}")
    t_end = final_time if final_time is not None else regularity_default_time(order)
    return ProblemSpec(dim=dim, flat=flat, final_time=t_end)


def regularity_study(schemes, flat_mode, n_list, final_time=None,
                     dim=1, perturb=0.0, seed=0, n_quad=None):
    """Accuracy sweep for data of limited smoothness, flat = r or r + 1.

    schemes is a list of (SchemeSpec, k = r - 1).  One accuracy_table per
    order r runs its pairs, which share the problem (flat and the default
    final time depend on r); rows are ordered by (pair, N).
    """
    if any(scheme.order != k + 1 for scheme, k in schemes):
        raise ValueError("regularity study is set up for r = k + 1 schemes")
    tables = {}
    for order in sorted({scheme.order for scheme, _ in schemes}):
        problem = regularity_problem(order, flat_mode, final_time, dim)
        tables[order] = iter(accuracy_table(
            [pair for pair in schemes if pair[0].order == order], problem, n_list,
            perturb=perturb, seed=seed, n_quad=n_quad,
        ))
    return [next(tables[scheme.order]) for scheme, _ in schemes for _n in n_list]
