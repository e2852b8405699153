"""Explicit Runge-Kutta time stepping in Butcher and compact forms.

Canonical r-stage rth-order schemes act on linear autonomous problems as
the degree-r Taylor polynomial of the exponential, so the compact form
sums alpha_i = 1/i! powers of the (reduced) operator.  The reduced-stage
variant applies the full operator only in the final combination and the
degree-reduced operator at all inner stages.
"""
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BlowUpError, UnsupportedDegreeError
from .operators import (
    DGSpace,
    GridFunction,
    assemble_upwind,
    dense_from_matvec,
    fft_angles,
    reduce_operator,
)

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class ButcherTableau:
    """Strictly lower-triangular explicit tableau (a, b)."""

    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]

    def __post_init__(self):
        s = len(self.b)
        if len(self.a) != s:
            raise ValueError("tableau row count must equal stage count")
        for i, row in enumerate(self.a):
            if len(row) != s or any(row[j] != 0.0 for j in range(i, s)):
                raise ValueError("explicit tableau must be strictly lower triangular")

    @property
    def stages(self):
        return len(self.b)


# r-stage rth-order tableaus equivalent to the Taylor polynomial on linear
# autonomous problems: explicit midpoint, SSP3, classical RK4
BUILTIN_TABLEAUS = {
    2: ButcherTableau(a=((0.0, 0.0), (0.5, 0.0)), b=(0.0, 1.0)),
    3: ButcherTableau(
        a=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.25, 0.25, 0.0)),
        b=(1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0),
    ),
    4: ButcherTableau(
        a=(
            (0.0, 0.0, 0.0, 0.0),
            (0.5, 0.0, 0.0, 0.0),
            (0.0, 0.5, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
        ),
        b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    ),
}


@dataclass(frozen=True)
class SchemeSpec:
    """An explicit RK scheme plus its stage-space plan.

    alphas holds the compact-form coefficients (alpha_0 .. alpha_s); for
    the canonical r-stage schemes alpha_i = 1/i!.  variant selects which
    operator the inner stages use: "standard" keeps the full operator,
    "sdA" uses the degree-reduced one.  stage_plan may override the
    uniform plan with a per-inner-stage choice (True = reduced).
    """

    order: int
    stages: int
    alphas: Tuple[float, ...]
    variant: str = "standard"
    tableau: Optional[ButcherTableau] = None
    stage_plan: Optional[Tuple[bool, ...]] = None

    def __post_init__(self):
        if self.alphas[0] != 1.0 or self.alphas[1] != 1.0:
            raise ValueError("compact coefficients must start 1, 1")
        if len(self.alphas) != self.stages + 1:
            raise ValueError("need stage count + 1 compact coefficients")
        if self.variant not in ("standard", "sdA"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.stage_plan is not None and len(self.stage_plan) != self.stages:
            raise ValueError("stage plan must give one flag per stage")

    @property
    def uses_reduced_stages(self):
        return self.variant == "sdA"

    def label(self, k):
        base = f"RK{self.order}DG{k}"
        return f"sdA-{base}" if self.variant == "sdA" else base


def taylor_scheme(r, variant="standard"):
    """Canonical r-stage rth-order scheme in compact (Taylor) form."""
    if r < 1:
        raise ValueError("order must be >= 1")
    alphas = tuple(1.0 / math.factorial(i) for i in range(r + 1))
    return SchemeSpec(
        order=r,
        stages=r,
        alphas=alphas,
        variant=variant,
        tableau=BUILTIN_TABLEAUS.get(r),
    )


@dataclass(frozen=True)
class EnergyCoefficients:
    """Closed-form coefficients of the one-step RK energy identity."""

    beta: np.ndarray       # beta_0 .. beta_s, weights of tau^{2i} ||L^i w||^2
    gamma: np.ndarray      # gamma_ij, weights of tau^{i+j+1} <<L^i w, L^j w>>


def energy_coefficients(alphas):
    """Expand ||sum_i alpha_i (tau L)^i w||^2 into norm and jump terms."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas[0] != 1.0:
        raise ValueError("alpha_0 must be 1")
    s = len(alphas) - 1
    beta = np.zeros(s + 1)
    for i in range(s + 1):
        for ell in range(max(0, 2 * i - s), min(2 * i, s) + 1):
            beta[i] += alphas[ell] * alphas[2 * i - ell] * (-1.0) ** (i - ell)
    gamma = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            for ell in range(max(0, i + j + 1 - s), min(i, j) + 1):
                gamma[i, j] += (-1.0) ** (min(i, j) + 1 - ell) * alphas[ell] * alphas[i + j + 1 - ell]
    return EnergyCoefficients(beta=beta, gamma=gamma)


def _stage_flags(scheme):
    """Per-inner-stage choices, True where the stage uses the reduced operator."""
    if scheme.stage_plan is not None:
        return tuple(scheme.stage_plan)
    return (scheme.uses_reduced_stages,) * scheme.stages


def _check_degree(scheme, space):
    if space.degree == 0 and any(_stage_flags(scheme)):
        raise UnsupportedDegreeError("reduced-stage variant needs k >= 1")


def _inner_operator(scheme, full_op, reduced_op):
    """The one operator of the inner stages of a uniform stage plan.

    The plan decides, not the variant: an all-reduced plan uses the
    reduced operator even for variant "standard".
    """
    flags = set(_stage_flags(scheme))
    if len(flags) > 1:
        raise ValueError("compact form requires a uniform stage plan")
    _check_degree(scheme, full_op.space)
    return reduced_op if True in flags else full_op


def symbol_increment(alphas, tau, full, inner, eye):
    """One compact-form step minus the identity, E = G - I.

    Nested (Horner) evaluation of tau S sum_{i>=1} alpha_i (tau S_hat)^{i-1}
    with S the full operator and S_hat the inner-stage one (the reduced
    one for sdA).  S and S_hat are stacks of per-frequency (m, m) symbols
    or BlockOperators; eye is the (m, m) identity.
    """
    s = len(alphas) - 1
    v = alphas[s] * eye
    for i in range(s - 1, 0, -1):
        v = alphas[i] * eye + tau * (inner @ v)
    return tau * (full @ v)


def step(scheme, full_op, reduced_op, u, tau, form="compact"):
    """One time step of size tau.

    The Butcher form runs the staged recursion; the final combination
    always applies the full operator.  The compact form evaluates
    u + tau L sum_i alpha_i (tau L_hat)^{i-1} u with nested (Horner)
    applications, which coincides with the Butcher form for linear
    autonomous problems.
    """
    _check_degree(scheme, u.space)
    if tau == 0.0:
        return u.copy()

    if form == "butcher":
        tab = scheme.tableau
        if tab is None:
            if scheme.order > 4:
                warnings.warn(
                    "no built-in tableau above order 4; falling back to the compact form",
                    RuntimeWarning,
                )
                return step(scheme, full_op, reduced_op, u, tau, form="compact")
            raise ValueError("scheme has no tableau for Butcher-form stepping")
        inner_ops = [reduced_op if f else full_op for f in _stage_flags(scheme)]
        s = tab.stages
        stage_vals = []
        applied = []
        for i in range(s):
            ui = u.coeffs.copy()
            for j in range(i):
                if tab.a[i][j] != 0.0:
                    ui = ui + tau * tab.a[i][j] * applied[j]
            stage_vals.append(ui)
            applied.append(inner_ops[i].apply_array(ui))
        out = u.coeffs.copy()
        for i in range(s):
            if tab.b[i] != 0.0:
                out = out + tau * tab.b[i] * full_op.apply_array(stage_vals[i])
        return GridFunction(u.space, out)

    if form == "compact":
        inner = _inner_operator(scheme, full_op, reduced_op)
        alphas = scheme.alphas
        s = scheme.stages
        v = alphas[s] * u.coeffs
        for i in range(s - 1, 0, -1):
            v = alphas[i] * u.coeffs + tau * inner.apply_array(v)
        return GridFunction(u.space, u.coeffs + tau * full_op.apply_array(v))

    raise ValueError(f"unknown stepping form {form!r}")


@dataclass
class EvolveResult:
    """Final state plus stepping metadata.

    path names the route that produced u: "fourier" (one transform of the
    cell grid, powers of the per-frequency one-step symbols) or
    "stepping" (repeated one-step maps; also a zero final time).
    """

    u: GridFunction
    n_steps: int
    t_final: float
    shortened_last_step: bool
    path: str


#: frequencies whose symbols are formed and powered together, which keeps
#: the memory of the Fourier path independent of the mesh size
FREQ_CHUNK = 256


def evolve(scheme, mesh, k, u0, final_time, tau, form="compact"):
    """u0 advanced to final_time in steps of tau; the last step is shortened if needed.

    The compact form needs a uniform stage plan.  On a uniform mesh (the
    operator is block-circulant) its steps are taken in Fourier space: see
    _evolve_fourier.  Otherwise, and in any case in which stepping might
    have blown up, it steps with the fused one-step operator: see
    _evolve_fused.  The Butcher form steps through step().
    """
    space = DGSpace(mesh, k)
    if u0.space != space:
        raise ValueError("initial state does not live on the requested space")
    full_op = assemble_upwind(mesh, k)
    reduced_op = reduce_operator(full_op) if (k >= 1) else full_op
    if final_time == 0.0:
        return EvolveResult(u=u0.copy(), n_steps=0, t_final=0.0, shortened_last_step=False,
                            path="stepping")

    n_whole = int(np.floor(final_time / tau + 1e-9))
    remainder = final_time - n_whole * tau
    shortened = remainder > 1e-12 * max(final_time, 1.0)
    meta = dict(n_steps=n_whole + (1 if shortened else 0), t_final=final_time,
                shortened_last_step=shortened)

    last = remainder if shortened else None
    if form == "compact":
        inner = _inner_operator(scheme, full_op, reduced_op)
        if full_op.is_circulant:
            coeffs = _evolve_fourier(scheme.alphas, full_op, inner, u0.coeffs, tau, n_whole, last)
            if coeffs is not None and _state_ok(coeffs):
                return EvolveResult(u=GridFunction(space, coeffs), path="fourier", **meta)
        coeffs = _evolve_fused(scheme.alphas, full_op, inner, u0.coeffs, tau, n_whole, last)
        return EvolveResult(u=GridFunction(space, coeffs), path="stepping", **meta)

    u = u0
    for n in range(n_whole):
        u = step(scheme, full_op, reduced_op, u, tau, form=form)
        _check_step(u.coeffs, n + 1, False)
    if shortened:
        u = step(scheme, full_op, reduced_op, u, remainder, form=form)
        _check_step(u.coeffs, n_whole + 1, True)
    return EvolveResult(u=u, path="stepping", **meta)


def _check_step(coeffs, index, shortened):
    if not _state_ok(coeffs):
        where = "the shortened final step" if shortened else f"step {index}"
        raise BlowUpError(f"solution blew up at {where}", step_index=index)


def _evolve_fused(alphas, full_op, inner_op, coeffs, tau, n_whole, remainder):
    """Coefficients after n_whole steps of tau (and one of remainder, unless None).

    One compact-form step is the fixed map u -> u + E u, with E a block
    operator (offsets 0 .. -s in 1D) built once per step size by
    symbol_increment on the operators themselves.  With E's blocks stacked
    side by side, a step is one gather of the neighbour coefficients, one
    contraction and one add.  The identity stays out of the stacked blocks:
    folded in, the rounding of I + E would repeat identically in every step
    and add up (to 1e-13 relative over 10^4 steps, against 1e-14 here).
    Every step is checked as the stepping loop checks it.
    """
    eye = np.eye(full_op.space.n_modes)
    u = coeffs.reshape(-1, full_op.space.n_modes)
    steps = [(tau, n_whole, False)] + ([(remainder, 1, True)] if remainder is not None else [])
    index = 0
    for dt, n, shortened in steps:
        weights, gather = symbol_increment(alphas, dt, full_op, inner_op, eye).stacked()
        spec = "nj,cj->cn" if weights.ndim == 2 else "cnj,cj->cn"
        for _ in range(n):
            index += 1
            u = u + np.einsum(spec, weights, u.take(gather))
            _check_step(u, index, shortened)
    return u.reshape(full_op.space.shape)


def _evolve_fourier(alphas, full_op, inner_op, coeffs, tau, n_whole, remainder):
    """Coefficients after n_whole steps of tau (and one of remainder, unless None).

    A real FFT over the cell axes turns the block-circulant one-step map
    into one (m, m) symbol G per frequency.  G^n is applied by binary
    powering on E = G - I (squared as E <- 2E + E^2, applied as
    v <- v + E v): squaring G itself would amplify the rounding of its
    identity part n-fold and cost the fifth-order schemes their accuracy.

    Returns None unless stepping provably stays below BLOWUP_LIMIT: every
    intermediate state G^j u0 (j <= n) has 2-norm at most
    prod_i max(1, ||G^(2^i)||_F) ||u0||_2 by Parseval, so that product, the
    shortened step's factor and ||u0||_2 must stay finite and below the
    limit.  The caller then steps instead and flags exactly as stepping does.
    """
    space = full_op.space
    u_norm = float(np.linalg.norm(coeffs))
    if not u_norm < BLOWUP_LIMIT:           # also catches nan
        return None
    cell_axes = tuple(range(space.dim))
    spec = np.fft.rfftn(coeffs, axes=cell_axes)
    flat = spec.reshape(-1, space.n_modes)      # may be a copy: transform back from flat
    angles = fft_angles(space, half=True)
    eye = np.eye(space.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(flat), FREQ_CHUNK):
            chunk = slice(start, start + FREQ_CHUNK)
            full = full_op.symbols(angles[chunk])
            inner = full if inner_op is full_op else inner_op.symbols(angles[chunk])
            v = flat[chunk]
            growth = np.full(len(v), u_norm)
            steps = [(symbol_increment(alphas, tau, full, inner, eye), n_whole)]
            if remainder is not None:
                steps.append((symbol_increment(alphas, remainder, full, inner, eye), 1))
            for e, n in steps:
                while n:
                    growth *= np.maximum(1.0, np.linalg.norm(eye + e, axis=(1, 2)))
                    if not growth.max() < BLOWUP_LIMIT:
                        return None
                    if n & 1:
                        v = v + (e @ v[..., None])[..., 0]
                    n >>= 1
                    if n:
                        e = 2.0 * e + e @ e
            flat[chunk] = v
    return np.fft.irfftn(flat.reshape(spec.shape), s=space.shape[:-1], axes=cell_axes)


def _state_ok(coeffs):
    m = np.max(np.abs(coeffs))
    return np.isfinite(m) and m < BLOWUP_LIMIT


class EvolutionMap:
    """One-step map u -> u + tau L sum_i alpha_i (tau L_hat)^{i-1} u as a linear map."""

    def __init__(self, scheme, full_op, reduced_op, tau):
        self.scheme = scheme
        self.full_op = full_op
        self.reduced_op = _inner_operator(scheme, full_op, reduced_op)
        self.tau = tau
        self.space = full_op.space

    @property
    def n_dofs(self):
        return self.space.n_dofs

    def apply_array(self, c):
        alphas = self.scheme.alphas
        s = self.scheme.stages
        v = alphas[s] * c
        for i in range(s - 1, 0, -1):
            v = alphas[i] * c + self.tau * self.reduced_op.apply_array(v)
        return c + self.tau * self.full_op.apply_array(v)

    def apply(self, u):
        return GridFunction(self.space, self.apply_array(u.coeffs))

    def matvec(self, x):
        return self.apply_array(x.reshape(self.space.shape)).ravel()

    def rmatvec(self, x):
        alphas = self.scheme.alphas
        s = self.scheme.stages
        c = x.reshape(self.space.shape)
        red_t = self.reduced_op.transpose()
        w = self.tau * self.full_op.transpose().apply_array(c)
        acc = alphas[s] * w
        for i in range(s - 1, 0, -1):
            acc = alphas[i] * w + self.tau * red_t.apply_array(acc)
        return (c + acc).ravel()

    def norm_symbols(self):
        """Per-frequency symbols of the one-step map (uniform meshes)."""
        full_sym = self.full_op.norm_symbols()
        red_sym = full_sym
        if self.reduced_op is not self.full_op:
            red_sym = self.reduced_op.norm_symbols()
        eye = np.eye(full_sym.shape[-1])
        return eye + symbol_increment(self.scheme.alphas, self.tau, full_sym, red_sym, eye)

    def as_dense(self):
        return dense_from_matvec(self.apply_array, self.space)
