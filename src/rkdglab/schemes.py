"""Explicit Runge-Kutta time stepping in Butcher and compact forms.

Canonical r-stage rth-order schemes act on linear autonomous problems as
the degree-r Taylor polynomial of the exponential, so the compact form
sums alpha_i = 1/i! powers of the (reduced) operator.  The reduced-stage
variant applies the full operator only in the final combination and the
degree-reduced operator at all inner stages.
"""
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlowUpError, SteppingLimitError, UnsupportedDegreeError
from .operators import (
    GridFunction,
    dense_from_matvec,
    fft_angles,
    half_spectrum,
    max_row_sum,
    stage_operators,
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
# autonomous problems: forward Euler, explicit midpoint, SSP3, classical RK4
BUILTIN_TABLEAUS = {
    1: ButcherTableau(a=((0.0,),), b=(1.0,)),
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
    """The canonical r-stage rth-order explicit RK scheme with a stage plan.

    stage_plan holds one flag per stage, True = reduced operator.  The last
    flag is inert: the final combination reads each stage value through the
    full operator.  Derived from the two: alpha_i = 1/i! (compact form), the
    built-in tableau (None above order 4) and the variant, "standard"
    or "sdA" for uniform inner flags, else their F/R (full/reduced) letters.
    """

    order: int
    stage_plan: Tuple[bool, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.stage_plan) != self.order:
            raise ValueError("stage plan must give one flag per stage")
        object.__setattr__(self, "stage_plan", tuple(bool(f) for f in self.stage_plan))

    stages = property(lambda self: self.order)
    alphas = property(lambda self: tuple(1.0 / math.factorial(i) for i in range(self.order + 1)))
    tableau = property(lambda self: BUILTIN_TABLEAUS.get(self.order))
    #: whether an inner stage reads the reduced operator, and whether the inner stages differ
    reads_reduced = property(lambda self: any(self.stage_plan[:-1]))
    mixed = property(lambda self: len(set(self.stage_plan[:-1])) > 1)

    @property
    def variant(self):
        if self.mixed:
            return "".join("R" if flag else "F" for flag in self.stage_plan[:-1])
        return "sdA" if self.stage_plan[0] else "standard"     # r = 1 reads its one flag

    def label(self, k):
        """The CSV scheme column; the variant column names the plan."""
        return f"RK{self.order}DG{k}"


def taylor_scheme(r, variant="standard"):
    """Canonical r-stage rth-order scheme; sdA reduces every inner stage."""
    if variant not in ("standard", "sdA"):
        raise ValueError(f"unknown variant {variant!r}")
    return SchemeSpec(r, (variant == "sdA",) * r)


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


def _check_degree(scheme, space):
    """A reduced inner stage needs k >= 1."""
    if space.degree == 0 and scheme.reads_reduced:
        raise UnsupportedDegreeError("reduced-stage variant needs k >= 1")


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


def doubled_increment(e):
    """Increment of two steps, (I + E)^2 - I = 2E + E E, without forming I + E.

    e is a BlockOperator or a stack of per-frequency symbols.  Squaring
    I + E itself would round its identity part at every doubling.
    """
    return 2.0 * e + e @ e


def _butcher_increment(tableau, tau, full, stage_ops):
    """One Butcher-form step minus the identity, E = K - I, on increments V_i = U_i - I.

    V_i = tau sum_j a_ij A_j (I + V_j) and E = tau sum_i b_i S (I + V_i),
    with A_j = stage_ops[j] and S = full, operators or symbol stacks.
    I + V is never formed, V_1 = 0 adds no zero blocks, and
    the last stage's A_s (I + V_s) is never read, so it is not formed.
    """
    def through(op, v):             # op (I + v); v is None for V = 0
        return op if v is None else op + op @ v

    def total(weights, terms):      # tau sum_j w_j terms_j over the nonzero weights
        terms = [tau * w * t for w, t in zip(weights, terms) if w != 0.0]
        return sum(terms[1:], terms[0]) if terms else None

    incs, applied = [], []
    for i in range(tableau.stages):
        incs.append(total(tableau.a[i], applied))
        if i < tableau.stages - 1:
            applied.append(through(stage_ops[i], incs[i]))
    return total(tableau.b, [through(full, v) for v in incs])


def _c_terms(x):
    """{power of c: coefficient} of a _CPoly, or of a constant."""
    return x.terms if isinstance(x, _CPoly) else {0: x}


class _CPoly:
    """sum_i c^i terms[i]: a polynomial in c whose coefficients are scalars or symbol stacks.

    p + x, x + p, p * x and x @ p act as on polynomials (* and @ multiply
    the coefficients), x a polynomial or a constant.  That is all that
    symbol_increment and _butcher_increment ask: with tau = _CPoly({1: h})
    they return E(c h) by its coefficients in c.
    """

    __array_ufunc__ = None          # an ndarray operand defers to the reflected operators

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def _sum(terms):
        """The _CPoly of (power, coefficient) pairs, summed by power."""
        out = {}
        for i, x in terms:
            out[i] = out[i] + x if i in out else x
        return _CPoly(out)

    def __add__(self, other):
        return self._sum([*self.terms.items(), *_c_terms(other).items()])

    __radd__ = __add__

    def _times(self, other, times):
        return self._sum((i + j, times(x, y)) for i, x in self.terms.items()
                         for j, y in _c_terms(other).items())

    def __mul__(self, other):
        return self._times(other, lambda x, y: x * y)

    def __rmatmul__(self, other):
        return self._times(other, lambda x, y: y @ x)


def step(scheme, full_op, reduced_op, u, tau, form="compact"):
    """One time step of size tau.

    The Butcher form runs the staged recursion; the final combination
    always applies the full operator.  The compact form evaluates
    u + tau L sum_i alpha_i (tau L_hat)^{i-1} u with nested (Horner)
    applications, which coincides with the Butcher form for linear
    autonomous problems.  Both forms are the staged reference for evolve
    and EvolutionMap.  Above order 4 no tableau is built in, and the
    Butcher form raises ValueError.
    """
    _check_degree(scheme, u.space)
    if form not in ("butcher", "compact"):
        raise ValueError(f"unknown stepping form {form!r}")
    if form == "butcher" and scheme.tableau is None:
        raise ValueError(f"no built-in tableau for order {scheme.order}: use the compact form")
    if form == "compact" and scheme.mixed:
        raise ValueError("compact form requires a uniform stage plan")
    if tau == 0.0:
        return u.copy()

    if form == "butcher":
        tab = scheme.tableau
        ops = [reduced_op if flag else full_op for flag in scheme.stage_plan]
        applied, out = [], u.coeffs.copy()
        for i in range(tab.stages):
            ui = u.coeffs
            for j in range(i):
                if tab.a[i][j] != 0.0:
                    ui = ui + tau * tab.a[i][j] * applied[j]
            if i < tab.stages - 1:          # the last stage's apply is never read
                applied.append(ops[i].apply_array(ui))
            if tab.b[i] != 0.0:             # a full inner stage has applied full_op already
                reuse = i < len(applied) and ops[i] is full_op
                out = out + tau * tab.b[i] * (applied[i] if reuse else full_op.apply_array(ui))
        return GridFunction(u.space, out)

    inner = reduced_op if scheme.reads_reduced else full_op
    alphas = scheme.alphas
    s = scheme.stages
    v = alphas[s] * u.coeffs
    for i in range(s - 1, 0, -1):
        v = alphas[i] * u.coeffs + tau * inner.apply_array(v)
    return GridFunction(u.space, u.coeffs + tau * full_op.apply_array(v))


@dataclass(frozen=True)
class EvolveResult:
    """Final state plus stepping metadata.

    path names the route that produced u: "fourier" (one transform of the
    cell grid, powers of the per-frequency one-step symbols) or
    "stepping" (repeated one-step maps; also a zero final time).
    """

    u: GridFunction
    n_steps: int
    shortened_last_step: bool
    path: str


#: frequencies whose symbols are formed and powered together, which keeps
#: the memory of the Fourier path independent of the mesh size: in one chunk,
#: accuracy --dim 2 --variant both peaked at 117 MB of RSS instead of 61 MB
#: and took 1.23 s instead of 0.88 s (2-core Xeon VM, one run each)
FREQ_CHUNK = 256


#: most steps evolve steps: the largest stepped run of the tables,
#: regularity r = 5 to T = 500 on a perturbed N = 1280 mesh, takes 2.7e7.
#: A run that would step more (a perturbed mesh, or a uniform one whose
#: Fourier route declines) is refused before the first step.
MAX_STEPPED_STEPS = 10**8


def step_plan(final_time, tau):
    """(whole, remainder, shortened): how evolve reaches final_time in steps of tau.

    whole steps of tau, then, if shortened, one last step of remainder.
    final_time must be finite and >= 0, tau finite and > 0 and final_time / tau
    finite.
    """
    if not 0.0 <= final_time < math.inf:
        raise ValueError(f"final time must be finite and >= 0, got {final_time}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"time step must be finite and > 0, got {tau}")
    with np.errstate(over="ignore"):
        n_steps = final_time / tau
    if not math.isfinite(n_steps):
        raise ValueError(f"final time {final_time} is not a finite number of time steps of {tau}")
    whole = int(np.floor(n_steps + 1e-9))
    remainder = final_time - whole * tau
    return whole, remainder, remainder > 1e-12 * max(final_time, 1.0)


def evolve(scheme, u0, final_time, tau):
    """u0 advanced to final_time in steps of tau; the last step is shortened if needed.

    Every stage plan builds one EvolutionMap per step size that takes a
    step (a mixed plan needs the scheme's tableau).  On a uniform mesh
    (the operator is block-circulant) their steps are taken in Fourier
    space: see _evolve_fourier.  Otherwise, and in any case in which
    stepping might have blown up, it steps with the maps' increments: see
    _evolve_fused.  final_time and tau are checked as step_plan checks
    them.  A run that would step more than MAX_STEPPED_STEPS steps raises
    SteppingLimitError instead.
    """
    n_whole, remainder, shortened = step_plan(final_time, tau)
    full_op, reduced_op = stage_operators(u0.space.mesh, u0.space.degree)
    meta = dict(n_steps=n_whole + (1 if shortened else 0), shortened_last_step=shortened)
    sizes = ((tau, n_whole, False), (remainder, int(shortened), True))
    steps = [(EvolutionMap(scheme, full_op, reduced_op, dt), n, last) for dt, n, last in sizes if n]
    if not steps:                           # a zero final time
        return EvolveResult(u=u0.copy(), path="stepping", **meta)
    if full_op.is_circulant:
        coeffs = _evolve_fourier(steps, u0.coeffs)
        if coeffs is not None and _state_ok(coeffs):
            return EvolveResult(u=GridFunction(u0.space, coeffs), path="fourier", **meta)
    if meta["n_steps"] > MAX_STEPPED_STEPS:
        why = "; the Fourier route cannot bound their growth" if full_op.is_circulant else ""
        raise SteppingLimitError(f"{meta['n_steps']:.6g} time steps of {tau} to final time "
                                 f"{final_time} exceed the {MAX_STEPPED_STEPS} that stepping "
                                 f"takes{why}")
    coeffs = _evolve_fused(steps, u0.coeffs)
    return EvolveResult(u=GridFunction(u0.space, coeffs), path="stepping", **meta)


#: steps one kernel call of fused stepping takes (a power of 2).  Wall time of
#: `accuracy --dim 1 --r 2,3,4 --variant both --N 40,80,160 --perturb 0.15
#: --seed 7` with neighbour rows read through the window (median of 15,
#: interleaved, 2-core Xeon VM shared with other load, one BLAS thread):
#: 0.23, 0.15, 0.12 and 0.16 s at 1, 2, 4 and 8 steps.  Above 4 the O(J^2)
#: block products of the squaring (J block offsets) cost more than the
#: dispatches they save.  The printed digits of the perturbed tables depend
#: on it.
CHUNK_STEPS = 4


def _evolve_fused(steps, coeffs):
    """Coefficients after the steps [(EvolutionMap, count, shortened), ...], in order.

    One step is the fixed map u -> u + E u, with E the map's increment, a
    block operator (offsets (0,) .. (-s,) in 1D) built once per step size.  A
    step is E's BlockOperator.kernel written out: one contraction of each
    cell's row of neighbour coefficients with E's stacked blocks, and one
    add.  The identity stays out of the stacked blocks: folded in, the
    rounding of I + E would repeat identically in every step and add up
    (to 1e-13 relative over 10^4 steps, against 1e-14 here).

    In 1D every increment has the offsets 0, -1, ..., -(J - 1) in block
    order, so with the cells in reversed order the row u_c, u_{c-1}, ...,
    u_{c-J+1} of cell c is one contiguous slice, each cell's modes
    ascending as the gather lays them out.  _Stepper keeps u so, followed
    by a periodic tail as long as the largest reach J - 1 of the run (a
    chunk's, CHUNK_STEPS times a step's; the tail wraps round the mesh
    more than once when that reach is the cell count or more), and reads
    all rows of an operator as one zero-copy strided window.  A step is
    one contraction of the window with E's kernel weights (a reversed view
    of a per-cell stack), one in-place add and one refresh of the tail,
    with no gather.  A row holds the same numbers in the same order as the
    gather of E.apply_array, against the same weights, so each contraction
    sums the same products in the same order and every coefficient is
    bit-identical to the gather's.  In 2D a row is not one window, and a
    step is u += E.apply_array(u).

    A map with at least CHUNK_STEPS steps also takes them CHUNK_STEPS at a
    time, through its chunk increment E_P (see _chunk_increment), while u
    is finite and max|u| times the chunk's growth bound (_chunk_bound)
    stays below BLOWUP_LIMIT: then no state inside the chunk could have
    crossed the limit.  That check is made once per run of chunks, not
    before each chunk.  A chunk multiplies max|u| by at most
    g_P = 1 + ||E_P||_inf, rounding aside, so a check that gives the
    bound b certifies the i-th chunk after it while b g_P^i stays below
    half the limit (the other half covers the rounding of the computed
    states).  A run so takes exactly the chunks that a check before every
    chunk would take.  Once the bound fails, and for the
    count % CHUNK_STEPS steps left over, every step is taken singly and
    checked for blow-up, so the flagged step is the one stepping flags.
    """
    plan = [(emap.increment,
             _chunk_increment(emap.increment) if n >= CHUNK_STEPS else (None, None, None),
             n, shortened) for emap, n, shortened in steps]
    stepper = _Stepper(coeffs, [op for increment, (chunk, _, _), _, _ in plan
                                for op in (increment, chunk) if op is not None])
    index = 0
    for increment, (chunk, growth, g_p), n, shortened in plan:
        end = index + n
        if chunk is not None:
            advance = stepper.step_of(chunk)
            bound = math.inf                # no run certified yet: check first
            while index + CHUNK_STEPS <= end:
                bound *= g_p
                if not bound < 0.5 * BLOWUP_LIMIT:
                    bound = _chunk_bound(stepper.u, growth)
                    if not bound < BLOWUP_LIMIT:        # also nan
                        break
                advance()
                index += CHUNK_STEPS
        advance = stepper.step_of(increment)
        while index < end:
            index += 1
            advance()
            if not _state_ok(stepper.u):
                where = "the shortened final step" if shortened else f"step {index}"
                raise BlowUpError(f"solution blew up at {where}", step_index=index)
    return stepper.coeffs()


class _Stepper:
    """The state u of fused stepping, and the steps u <- u + E u of the run's operators E.

    When every operator of the run has the 1D offsets 0, -1, ..., -(J - 1)
    in block order, u is the head of a buffer that holds the cells
    reversed and then a periodic tail as long as the largest reach J - 1,
    and a step contracts a window of the buffer (see _evolve_fused).
    Otherwise u is in cell order and a step is u += E.apply_array(u).
    """

    def __init__(self, coeffs, ops):
        offsets = [list(op.blocks) for op in ops]
        if any(o != [(-j,) for j in range(len(o))] for o in offsets):
            self.buffer, self.u = None, coeffs.copy()
            return
        n = len(coeffs)
        self.buffer = np.empty((n + max(map(len, offsets)) - 1, coeffs.shape[1]))
        self.u = self.buffer[:n]
        self.u[:] = coeffs[::-1]
        total = len(self.buffer)
        self.tail = [(slice(start, min(start + n, total)), slice(0, min(n, total - start)))
                     for start in range(n, total, n)]
        self._wrap()

    def _wrap(self):
        """Copy the head's cells into the tail, round the mesh as often as it takes."""
        for dst, src in self.tail:
            self.buffer[dst] = self.buffer[src]

    def step_of(self, op):
        """The function that takes one step u <- u + op u."""
        if self.buffer is None:
            def advance():
                self.u += op.apply_array(self.u)
            return advance
        weights, _, spec = op.kernel
        if weights.ndim == 3:
            weights = weights[::-1]
        m = self.u.shape[1]
        window = sliding_window_view(self.buffer.reshape(-1), len(op.blocks) * m)[: self.u.size : m]

        def advance():
            self.u += np.einsum(spec, weights, window)
            self._wrap()
        return advance

    def coeffs(self):
        """u in cell order."""
        return self.u if self.buffer is None else self.u[::-1].copy()


def _chunk_bound(u, growth):
    """max|u| times a chunk's growth bound: below BLOWUP_LIMIT, no state of the chunk crosses it."""
    return float(np.max(np.abs(u))) * growth


def _chunk_increment(increment):
    """(E_P, growth, g_P) for P = CHUNK_STEPS: the increment K^P - I of P steps, and bounds.

    E_P is formed from E = K - I by squaring (doubled_increment), and
    growth = prod_{i=0..log2 P} (1 + ||E_{2^i}||_inf).  Every K^j with
    j <= P is a product of distinct K_{2^i} = I + E_{2^i}, so
    ||K^j||_inf <= growth: a state u whose max|u| times growth is below
    BLOWUP_LIMIT stays below it for the next P single steps.  Overflow
    while squaring gives an inf or nan growth, and so no chunk.  The last
    factor, g_P = 1 + ||E_P||_inf, bounds the growth of one chunk.
    """
    e = increment
    with np.errstate(over="ignore", invalid="ignore"):
        growth = g_p = 1.0 + max_row_sum(e)
        for _ in range(CHUNK_STEPS.bit_length() - 1):
            e = doubled_increment(e)
            g_p = 1.0 + max_row_sum(e)
            growth *= g_p
    return e, growth, g_p


def _evolve_fourier(steps, coeffs):
    """Coefficients after the steps [(EvolutionMap, count, shortened), ...], in order.

    A real FFT over the cell axes turns each block-circulant one-step map
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
    space = steps[0][0].space
    u_norm = float(np.linalg.norm(coeffs))
    if not u_norm < BLOWUP_LIMIT:           # also catches nan
        return None
    cells, cell_axes = space.shape[:-1], tuple(range(space.dim))
    spec = np.fft.rfftn(coeffs, axes=cell_axes)
    flat = spec.reshape(-1, space.n_modes)      # may be a copy: transform back from flat
    angles = fft_angles(space).reshape(cells + (-1,))[half_spectrum(cells)].reshape(-1, space.dim)
    eye = np.eye(space.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(flat), FREQ_CHUNK):
            chunk = slice(start, start + FREQ_CHUNK)
            full, reduced = steps[0][0].stage_symbols(angles[chunk])
            v = flat[chunk]
            growth = np.full(len(v), u_norm)
            for emap, n, _ in steps:
                e = emap.increment_of(full, reduced)
                while n:
                    growth *= np.maximum(1.0, np.linalg.norm(eye + e, axis=(1, 2)))
                    if not growth.max() < BLOWUP_LIMIT:
                        return None
                    if n & 1:
                        v = v + (e @ v[..., None])[..., 0]
                    n >>= 1
                    if n:
                        e = doubled_increment(e)
            flat[chunk] = v
    return np.fft.irfftn(flat.reshape(spec.shape), s=cells, axes=cell_axes)


def _state_ok(coeffs):
    m = np.max(np.abs(coeffs))
    return np.isfinite(m) and m < BLOWUP_LIMIT


class EvolutionMap:
    """One-step map u -> u + E u of any stage plan, as a linear map.

    A uniform plan gives E = tau S sum_i alpha_i (tau S_hat)^{i-1} in Horner
    form (symbol_increment), S_hat the inner stages' operator; a mixed plan
    takes the Butcher recursion of the scheme's tableau (_butcher_increment).
    """

    def __init__(self, scheme, full_op, reduced_op, tau):
        if scheme.mixed and scheme.tableau is None:
            raise ValueError("a mixed stage plan needs a tableau")
        _check_degree(scheme, full_op.space)
        self.scheme = scheme
        self.full_op = full_op
        self.reduced_op = reduced_op
        self.tau = tau
        self.space = full_op.space

    @property
    def n_dofs(self):
        return self.space.n_dofs

    @property
    def is_circulant(self):
        return self.full_op.is_circulant

    def stage_symbols(self, angles=None, rows=...):
        """(S, S_hat) as Fourier symbol stacks at angles (uniform meshes); S_hat = S if unread.

        Without angles, the rows of the operators' own symbols at the mesh
        frequencies, which they keep (BlockOperator.norm_symbols).  Only
        the inner stages read S_hat: the last flag is inert.
        """
        def symbols(op):
            return op.norm_symbols(rows) if angles is None else op.symbols(angles)

        full = symbols(self.full_op)
        return full, symbols(self.reduced_op) if self.scheme.reads_reduced else full

    def increment_of(self, full, reduced, tau=None):
        """E from the full and the reduced operator: operators or symbol stacks alike.

        tau is the map's own step unless given (a _CPoly step gives E by its
        coefficients in c).
        """
        tau = self.tau if tau is None else tau
        if self.scheme.mixed:
            ops = [reduced if flag else full for flag in self.scheme.stage_plan]
            return _butcher_increment(self.scheme.tableau, tau, full, ops)
        inner = reduced if self.scheme.reads_reduced else full
        return symbol_increment(self.scheme.alphas, tau, full, inner, np.eye(self.space.n_modes))

    @cached_property
    def increment(self):
        """E = K - I as a BlockOperator, built on the first use."""
        return self.increment_of(self.full_op, self.reduced_op)

    def apply_array(self, c):
        return c + self.increment.apply_array(c)

    def apply(self, u):
        return GridFunction(self.space, self.apply_array(u.coeffs))

    def matvec(self, x):
        return self.apply_array(x.reshape(self.space.shape)).ravel()

    def rmatvec(self, x):
        c = x.reshape(self.space.shape)
        return (c + self.increment.transpose().apply_array(c)).ravel()

    def norm_symbols(self, rows=...):
        """Per-frequency symbols of the one-step map (uniform meshes), cell axes first.

        rows indexes the cell axes, as in BlockOperator.norm_symbols.
        """
        return np.eye(self.space.n_modes) + self.increment_of(*self.stage_symbols(rows=rows))

    def increment_coefficients(self, rows=...):
        """[W_1, .., W_s]: at step c tau the increment of norm_symbols(rows) is sum_i c^i W_i.

        increment_of at the step _CPoly({1: tau}), so every plan takes the
        one recursion it takes at a numeric step.
        """
        e = self.increment_of(*self.stage_symbols(rows=rows), tau=_CPoly({1: self.tau}))
        return [e.terms[i] for i in range(1, self.scheme.stages + 1)]

    def as_dense(self):
        return dense_from_matvec(self.apply_array, self.space)
