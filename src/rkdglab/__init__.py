"""Upwind discontinuous Galerkin / explicit Runge-Kutta laboratory.

Linear advection on periodic meshes of the unit interval and square,
with standard and reduced-inner-stage RK time stepping, stability
diagnostics (growth metric sweeps, Fourier CFL numbers) and convergence
studies.
"""

__version__ = "0.1.0"

from .mesh import Mesh1D, Mesh2D, build_mesh_1d, build_mesh_2d
from .operators import (
    BlockOperator,
    DGSpace,
    GridFunction,
    assemble_upwind,
    jump_inner,
    l2_inner,
    operator_norm,
    project,
    reduce_operator,
)
from .projections import gauss_radau, lsz, pi_star, special_projection
from .schemes import (
    EvolutionMap,
    SchemeSpec,
    energy_coefficients,
    evolve,
    step,
    taylor_scheme,
)
from .stability import FourierCfl, StabilityPoint, cfl_sweep, delta, fourier_cfl
from .experiments import (
    AccuracyRow,
    ProblemSpec,
    accuracy_table,
    l2_error,
    benchmark_tau,
    regularity_problem,
    regularity_study,
)
