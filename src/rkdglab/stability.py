"""Stability diagnostics: growth metric over CFL sweeps and Fourier CFL numbers.

The growth metric is delta = max(||K^m||_2^2 - 1, 1e-16) for the one-step
evolution map K in the orthonormal modal basis, tau = cfl / (dim * N), read
from K's blocks or symbols, never a dense K.  The floor marks numerically
exact non-expansiveness; values of ||K^m||^2 - 1 below the measurement
resolution of the norm computation are snapped to the floor.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import build_mesh
from .operators import (
    DENSE_CAP,
    _start_vector,
    half_spectrum,
    max_row_sum,
    shift_solver,
    stage_operators,
    symbol_norm,
    symbol_powers,
    top_eigenvalue,
)
from .schemes import EvolutionMap

DELTA_FLOOR = 1e-16
#: |norm^2 - 1| below this is indistinguishable from zero in double precision
NORM_RESOLUTION = 1e-13
#: growth_excess: relative width of a certified growth bracket
BRACKET_RTOL = 1e-9
#: growth_excess: a bracket with hi <= lo (1 + INVERSE_START) runs inverse iteration
#: at its certified hi, for at most INVERSE_MAX_STEPS solves
INVERSE_START = 1e-3
INVERSE_MAX_STEPS = 32


@dataclass(frozen=True)
class StabilityPoint:
    scheme: str
    variant: str
    dim: int
    n: int
    m: int
    cfl: float
    delta: float
    #: how delta was computed (see growth_excess): "symbol", "certificate",
    #: "bracket" or "lanczos"; None for a flagged point
    route: Optional[str] = None
    #: the LinAlgError message of a flagged point
    error: Optional[str] = None

    @property
    def flagged(self):
        """Whether the point failed: its delta is nan and error says why."""
        return self.error is not None


def _point(scheme, space, m, cfl, **measured):
    """The StabilityPoint of scheme on space at (m, cfl): delta and route, or nan and error."""
    return StabilityPoint(scheme=scheme.label(space.degree), variant=scheme.variant,
                          dim=space.dim, n=space.mesh.cells[0], m=m, cfl=float(cfl), **measured)


def _step_map(scheme, operators, cfl):
    """The EvolutionMap at tau = cfl / (dim N) on the operators' mesh."""
    mesh = operators[0].space.mesh
    return EvolutionMap(scheme, *operators, cfl / (mesh.dim * mesh.cells[0]))


def evolution_map(scheme, mesh, k, cfl):
    return _step_map(scheme, stage_operators(mesh, k), cfl)


def excess_operator(emap, m=1):
    """S_m = K_m^T K_m - I as a BlockOperator, for K_m = K^m of an evolution map.

    With E_m = K_m - I, S_m = E_m + E_m^T + E_m^T E_m.  E_m is built by
    E_{j+1} = E_j + E + E E_j from the map's increment E, so I + E is
    never rounded.  S_m is symmetric with block offsets -m s .. m s for
    an s-stage scheme.
    """
    inc = emap.increment
    e_m = inc
    for _ in range(m - 1):
        e_m = e_m + inc + inc @ e_m
    e_mt = e_m.transpose()
    return e_m + e_mt + e_mt @ e_m


def growth_excess(emap, m=1):
    """(||K^m||_2^2 - 1, route) for an evolution map K.

    A circulant map forms G^m once on the half spectrum (route "symbol":
    _floor_certified, else symbol_norm).  Any other map reads the excess
    as the top eigenvalue of S_m (excess_operator), and its one certificate
    is shift_solver, a solver of bound I - S_m that exists exactly when
    bound is above that top.  First shift_solver(S_m, NORM_RESOLUTION)
    proves the excess below the resolution in O(N) (route "certificate",
    excess 0).  Failing that, up to DENSE_CAP unknowns, bisection on
    shift_solver between NORM_RESOLUTION and the Gershgorin bound of S_m,
    at geometric midpoints, down to a width of BRACKET_RTOL * hi +
    NORM_RESOLUTION: the certified upper end hi, kept with its solver, is
    the excess (route "bracket"; LinAlgError if no upper end certifies).
    Once hi <= lo (1 + INVERSE_START), inverse iteration with that solver
    raises lo to a Rayleigh quotient theta, and a quotient that stalls has
    one certificate tried at lo + width / 2; then bisection goes on.  Each
    certified hi gets at most one such phase, so the loop ends.  Above the
    cap, Lanczos on S_m (top_eigenvalue, route "lanczos";
    PowerIterationError if it does not converge).  operator_norm's
    "dense_svd" and "power_iteration" methods cross-check these routes.
    """
    if emap.is_circulant:
        g = symbol_powers(emap, half_spectrum(emap.space.mesh.cells), m)
        if _floor_certified(g):
            return 0.0, "symbol"
        nrm = symbol_norm(emap, m, g)
        return nrm * nrm - 1.0, "symbol"
    s_m = excess_operator(emap, m)
    if shift_solver(s_m, NORM_RESOLUTION) is not None:
        return 0.0, "certificate"
    if emap.n_dofs > DENSE_CAP:
        return top_eigenvalue(s_m), "lanczos"
    lo = NORM_RESOLUTION
    hi = max_row_sum(s_m)
    solve = None            # the solver of hi I - S_m, once a probe has certified hi
    refined = None          # the hi of the last inverse phase
    while hi - lo > BRACKET_RTOL * hi + NORM_RESOLUTION:
        mid = math.sqrt(lo * hi)
        if solve is not None and hi != refined and hi <= lo * (1.0 + INVERSE_START):
            refined, width = hi, BRACKET_RTOL * hi + NORM_RESOLUTION
            theta, stalled = _inverse_iteration(solve, s_m.n_dofs, hi, width)
            lo = max(lo, theta)
            if hi - lo <= width:
                break
            mid = lo + width / 2 if stalled else math.sqrt(lo * hi)
        probe = shift_solver(s_m, mid)
        if probe is not None:
            hi, solve = mid, probe
        else:
            lo = mid
    if solve is None and shift_solver(s_m, hi) is None:
        raise np.linalg.LinAlgError(f"growth bracket: its upper end {hi!r} does not certify")
    return hi, "bracket"


def _inverse_iteration(solve, n, hi, width):
    """(theta, stalled): a Rayleigh quotient of S_m by inverse iteration with solve.

    solve is the shift_solver of S_m at a certified hi, on n unknowns.
    hi I - S_m is positive definite, so the dominant eigenvector of its
    inverse is that of the top eigenvalue of S_m, which theta never exceeds
    in exact arithmetic (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    Each step is one solve y = (hi I - S_m)^-1 x from a unit x (a
    POWER_SEED start vector first); the quotient of y is hi - x.y / y.y,
    so no step needs a matvec.  stalled: theta rose by at most width / 4
    in a step; else INVERSE_MAX_STEPS ran out (theta = -inf after no step).
    """
    x = _start_vector(n)
    x /= np.linalg.norm(x)
    theta = -math.inf
    for _ in range(INVERSE_MAX_STEPS):
        y = solve(x)
        yy = float(y @ y)
        step = hi - float(x @ y) / yy
        if step - theta <= width / 4:
            return step, True
        theta, x = step, y / math.sqrt(yy)
    return theta, False


def _floor_certified(g):
    """shift_solver's floor test on a finite stack g = G^m: whether every
    (1 + NORM_RESOLUTION) I - g^H g has a Cholesky factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(
            (1.0 + NORM_RESOLUTION) * np.eye(g.shape[-1]) - np.conj(g).swapaxes(-1, -2) @ g)).all())
    except np.linalg.LinAlgError:
        return False


def _growth_point(emap, cfl, m):
    """The StabilityPoint of an evolution map at the given CFL number.

    A growth that is not finite (overflow) raises LinAlgError.
    """
    if m < 1:
        raise ValueError("power m must be >= 1")
    excess, route = growth_excess(emap, m)
    if not math.isfinite(excess):
        raise np.linalg.LinAlgError("growth is not finite")
    if abs(excess) < NORM_RESOLUTION:
        excess = 0.0
    return _point(emap.scheme, emap.space, m, cfl, delta=float(max(excess, DELTA_FLOOR)),
                  route=route)


def delta(scheme, mesh, k, cfl, m=1):
    """Growth metric of the m-step evolution map at the given CFL number."""
    return _growth_point(evolution_map(scheme, mesh, k, cfl), cfl, m)


def cfl_sweep(scheme, k, dim, n_list, m, cfl_grid):
    """Cartesian (N, cfl) sweep; rows ordered by (N, cfl), failures flagged.

    Each N builds its mesh and operators once, and the operators keep
    their Fourier symbols, so a CFL value forms only its increment and
    the growth metric: the rows are those of delta at each point.  A
    LinAlgError (overflow: _growth_point, operators.symbol_powers; or an
    uncertified growth bracket) gives a flagged nan row with its message.
    """
    if len(n_list) == 0 or len(cfl_grid) == 0:
        raise ValueError("sweep grids must be non-empty")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"sweep N values must be distinct, got {tuple(n_list)}")
    points = []
    for n in n_list:
        operators = stage_operators(build_mesh(dim, n), k)
        for cfl in cfl_grid:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    points.append(_growth_point(_step_map(scheme, operators, cfl), cfl, m))
            except np.linalg.LinAlgError as err:
                points.append(_point(scheme, operators[0].space, m, cfl, delta=math.nan,
                                     error=str(err)))
    return points


@dataclass(frozen=True)
class FourierCfl:
    """Maximal stable CFL number; 0 (not found) if none of CFL_BISECT_TOL or more is."""

    value: float

    @property
    def found(self):
        return self.value > 0


#: fourier_cfl: sampled angles (cells of the uniform mesh), bisection width,
#: admitted spectral-radius growth and the largest CFL number tried
CFL_ANGLES = 2048
CFL_BISECT_TOL = 5e-4
CFL_GROWTH_TOL = 1e-7
CFL_MAX = 2.0
#: rows of the angles in [0, pi], which decide: real operators have
#: G(2 pi - theta) = conj G(theta), of the same spectral radius
_CFL_HALF = half_spectrum((CFL_ANGLES,))
#: _spectrum_inside: the largest stack order (k + 1) that the characteristic
#: polynomial decides.  Against eigvals (sdA r = 2..8 and the mixed plans of
#: r = 3, 4; 31 values of c round each CFL number), orders 2..8 agreed on all
#: 3,781,225 rows; order 9 missed 3 of 540,175 and order 10 1,484 of 222,425
SCHUR_COHN_MAX_ORDER = 8


def _cfl_stable(scheme, k):
    """stable(c, rows): per row of _CFL_HALF, whether rho(G(c, theta)) <= 1 + CFL_GROWTH_TOL.

    G is the one-step symbol on the uniform CFL_ANGLES-cell mesh at
    tau = c h, h the step of the one map _step_map builds per search (at
    c = 1), read from the stage operators' kept symbols as cfl_sweep reads
    them.  A plan whose inner stages all read the full operator S has
    G = R(tau S) with R(z) = sum_i alpha_i z^i, whose eigenvalues
    R(tau lambda) come from the eigenvalues lambda of S, found once.  Any
    other plan's G is no polynomial in one symbol, but it is one in c:
    G(c) = I + sum_i c^i W_i, whose coefficients (that map's
    increment_coefficients) are formed once on _CFL_HALF.  Each c evaluates
    G at the rows by Horner's rule, with no matrix product, and decides it
    by _spectrum_inside.
    """
    operators = stage_operators(build_mesh(1, CFL_ANGLES), k)
    unit = _step_map(scheme, operators, 1.0)
    h = unit.tau
    if not scheme.reads_reduced:
        eigs = np.linalg.eigvals(operators[0].norm_symbols(_CFL_HALF))

        def stable(c, rows):
            g_eigs = np.polynomial.polynomial.polyval(c * h * eigs[rows], scheme.alphas)
            return np.abs(g_eigs).max(axis=1) <= 1.0 + CFL_GROWTH_TOL
        return stable

    coeffs = unit.increment_coefficients(_CFL_HALF)
    eye = np.eye(k + 1)

    def stable(c, rows):
        g = coeffs[-1][rows]
        for w in coeffs[-2::-1]:
            g = w[rows] + c * g
        return _spectrum_inside(eye + c * g, 1.0 + CFL_GROWTH_TOL)
    return stable


def _spectrum_inside(g, radius):
    """Per matrix of a stack g: whether every eigenvalue lies in |z| < radius.

    Schur-Cohn (Miller, JIMA 8, 1971; Strikwerda, ch. 4): the roots of a
    monic p lie in the unit disk iff |p(0)| < 1 and those of the monic
    multiple of (p(z) - p(0) z^deg conj(p(1 / conj z))) / z do (unscaled,
    each step squares the coefficients' scale).  p is the characteristic
    polynomial of phi(g / radius): phi(z) = (z - a) / (1 - a z) keeps the
    disk, and a = 1 - d within Frobenius distance 0 < d < 1 of I spreads the
    eigenvalues crowding round z = 1 at small c, which p's coefficients
    cannot resolve.  Stacks of order above SCHUR_COHN_MAX_ORDER are decided
    by their eigenvalues (|z| <= radius).  A matrix that is not finite, or a
    radius <= 0, is never inside.
    """
    m = g.shape[-1]
    inside = np.isfinite(g).all(axis=(-2, -1)) & (radius > 0)
    if m > SCHUR_COHN_MAX_ORDER:
        inside[inside] = np.abs(np.linalg.eigvals(g[inside])).max(axis=-1) <= radius
        return inside
    eye = np.eye(m)
    with np.errstate(all="ignore"):
        b = g / radius
        spread = np.linalg.norm(b - eye, axis=(-2, -1))
        near = inside & (spread > 0.0) & (spread < 1.0)
        a = 1.0 - spread[near][:, None, None]
        b[near] = np.linalg.solve(eye - a * b[near], b[near] - a * eye)
        # det(z I - b) = sum_j p_j z^j by Faddeev-LeVerrier: M_1 = I, M_j = b M_{j-1} + p_{m-j+1} I
        p = np.ones(g.shape[:-2] + (m + 1,), dtype=b.dtype)
        b_m = b
        for j in range(1, m + 1):
            p[..., m - j] = -np.einsum("...ii->...", b_m) / j
            if j < m:
                b_m = np.matmul(b, b_m + p[..., m - j, None, None] * eye)
        for _ in range(m):
            p0 = p[..., :1]
            inside &= np.abs(p0[..., 0]) < 1.0
            p = (p[..., 1:] - p0 * np.conj(p[..., -2::-1])) / (1.0 - np.abs(p0) ** 2)
    return inside


def fourier_cfl(scheme, k):
    """Maximal CFL via per-angle spectral radius of the 1D amplification symbol.

    Bisection on c for max_theta rho(G(c, theta)) <= 1 + CFL_GROWTH_TOL,
    with G the one-step symbol of the scheme on the uniform CFL_ANGLES-cell
    mesh at tau = c h, whose frequencies are the sampled angles.  What does
    not depend on c is formed once per search (_cfl_stable: the eigenvalues
    of the full symbol, or the coefficients of G in c), so a bisection step
    evaluates a polynomial in c and forms no symbol.  The growth tolerance
    admits the slow eigenvalue drift of the weakly stable schemes while
    pinning the sharp blow-up threshold.
    """
    if k < 1 or scheme.order < 2:
        raise ValueError("Fourier CFL computed for k >= 1, r >= 2")
    stable_rows = _cfl_stable(scheme, k)
    # the middle one of the rows that failed at the last unstable c: tested
    # alone first, it usually settles the next unstable c without the rest
    worst = None

    def stable(c):
        nonlocal worst
        if worst is not None and not stable_rows(c, worst).all():
            return False
        ok = stable_rows(c, _CFL_HALF)
        if ok.all():
            return True
        failing = np.flatnonzero(~ok)
        worst = failing[len(failing) // 2:][:1]
        return False

    lo, hi = 0.0, CFL_MAX
    if stable(hi):
        return FourierCfl(hi)
    while hi - lo > CFL_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return FourierCfl(lo if lo >= CFL_BISECT_TOL else 0.0)
