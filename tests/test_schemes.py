import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import rkdglab

from rkdglab import schemes
from rkdglab.errors import BlowUpError, SteppingLimitError, UnsupportedDegreeError
from rkdglab.experiments import ProblemSpec, accuracy_table, benchmark_tau
from rkdglab.mesh import build_mesh_1d, build_mesh_2d
from rkdglab.operators import (
    BlockOperator,
    DGSpace,
    GridFunction,
    assemble_upwind,
    jump_inner,
    operator_norm,
    project,
    reduce_operator,
    stage_operators,
)
from rkdglab.schemes import (
    BLOWUP_LIMIT,
    BUILTIN_TABLEAUS,
    EvolutionMap,
    SchemeSpec,
    energy_coefficients,
    evolve,
    step,
    taylor_scheme,
)
from rkdglab.stability import DELTA_FLOOR, NORM_RESOLUTION, delta


def _ops(mesh, k):
    op = assemble_upwind(mesh, k)
    red = reduce_operator(op) if k >= 1 else op
    return op, red


def test_zero_step_is_identity():
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 2)
    u = op.space.random(1)
    out = step(taylor_scheme(3, "sdA"), op, red, u, 0.0)
    assert (out - u).norm() == 0.0


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("variant", ["standard", "sdA"])
def test_butcher_matches_compact(r, variant):
    mesh = build_mesh_1d(9, 0.15, seed=3)
    op, red = _ops(mesh, 2)
    scheme = taylor_scheme(r, variant)
    u = op.space.random(r)
    tau = 0.05 / 9
    a = step(scheme, op, red, u, tau, form="butcher")
    b = step(scheme, op, red, u, tau, form="compact")
    assert (a - b).norm() <= 1e-13 * u.norm()


def test_step_checks_its_arguments_before_a_zero_step():
    # a zero step returns a copy only for arguments a nonzero step takes
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 1)
    u = op.space.random(1)
    mixed = SchemeSpec(3, (True, False, True))
    for tau in (0.0, 0.1):
        with pytest.raises(ValueError, match="unknown stepping form"):
            step(taylor_scheme(2), op, red, u, tau, form="bogus")
        with pytest.raises(ValueError, match="uniform stage plan"):
            step(mixed, op, red, u, tau, form="compact")
    assert (step(mixed, op, red, u, 0.0, form="butcher") - u).norm() == 0.0


class _CountingOperator:
    """An operator that counts its apply_array calls."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def apply_array(self, c):
        self.calls += 1
        return self.op.apply_array(c)


@pytest.mark.parametrize("r, variant, applies", [
    (2, "standard", 2), (2, "sdA", 2),
    (3, "standard", 3), (3, "sdA", 5),
    (4, "standard", 4), (4, "sdA", 7),
])
def test_butcher_step_applies_the_full_operator_once_per_stage_value(r, variant, applies):
    # a full inner stage with b_i != 0 reuses its product in the final sum:
    # SSP3 and RK4 (every b_i != 0) take r applies standard and 2r - 1 sdA,
    # midpoint (b_1 = 0) takes 2
    op, red = _ops(build_mesh_1d(9, 0.15, seed=3), 2)
    full, reduced = _CountingOperator(op), _CountingOperator(red)
    u = op.space.random(r)
    got = step(taylor_scheme(r, variant), full, reduced, u, 0.01, form="butcher")
    assert full.calls + reduced.calls == applies
    assert reduced.calls == (r - 1 if variant == "sdA" else 0)
    ref = step(taylor_scheme(r, variant), op, red, u, 0.01, form="compact")
    assert (got - ref).norm() <= 1e-13 * u.norm()


def test_butcher_form_above_order_4_raises():
    # no tableau is built in above order 4: the Butcher form refuses the
    # step instead of taking another form
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 1)
    scheme = taylor_scheme(5)
    u = op.space.random(2)
    with pytest.raises(ValueError, match="no built-in tableau for order 5"):
        step(scheme, op, red, u, 1e-3, form="butcher")
    # the compact form at r = 5 is the degree-5 Taylor polynomial of the step
    term, ref = u, u
    for i in range(1, 6):
        term = op.apply(term) * (1e-3 / i)
        ref = ref + term
    b = step(scheme, op, red, u, 1e-3, form="compact")
    assert (b - ref).norm() <= 1e-14 * ref.norm()


def test_reduced_variant_rejects_k0():
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 0)
    u = op.space.random(0)
    with pytest.raises(UnsupportedDegreeError):
        step(taylor_scheme(2, "sdA"), op, red, u, 1e-3)


def test_reduced_rk2_perturbation_identity():
    # one reduced step = standard step - (tau^2/2) L P_perp L u
    mesh = build_mesh_1d(16)
    op, red = _ops(mesh, 1)
    u = op.space.random(11)
    tau = 0.1 / 16
    lhs = step(taylor_scheme(2, "sdA"), op, red, u, tau)
    rhs = step(taylor_scheme(2), op, op, u, tau) - (tau**2 / 2.0) * op.apply(
        project(op.apply(u), target="perp")
    )
    assert (lhs - rhs).norm() <= 1e-12 * u.norm()


def test_energy_coefficients_closed_forms():
    c2 = energy_coefficients((1.0, 1.0, 0.5))
    assert np.allclose(c2.beta, [1.0, 0.0, 0.25], atol=0.0)
    assert np.allclose(c2.gamma, [[-1.0, -0.5], [-0.5, -0.5]], atol=0.0)
    c3 = energy_coefficients((1.0, 1.0, 0.5, 1.0 / 6.0))
    assert c3.beta[1] == pytest.approx(0.0, abs=1e-15)
    assert c3.beta[2] == pytest.approx(-1.0 / 12.0)  # first nonzero at (r+1)/2
    with pytest.raises(ValueError):
        energy_coefficients((2.0, 1.0))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_energy_identity_numerical(r):
    mesh = build_mesh_1d(16)
    k = 1
    op, _ = _ops(mesh, k)
    tau = 0.1 / 16
    u = op.space.random(5 + r)
    powers = [u]
    for _ in range(r):
        powers.append(op.apply(powers[-1]))
    emap = EvolutionMap(taylor_scheme(r), op, op, tau)
    lhs = emap.apply(u).norm() ** 2
    coeff = energy_coefficients(taylor_scheme(r).alphas)
    rhs = sum(coeff.beta[i] * tau ** (2 * i) * powers[i].norm() ** 2 for i in range(r + 1))
    rhs += sum(
        coeff.gamma[i, j] * tau ** (i + j + 1) * jump_inner(powers[i], powers[j])
        for i in range(r)
        for j in range(r)
    )
    assert abs(lhs - rhs) <= 1e-10 * u.norm() ** 2


def test_evolve_zero_time_and_composition():
    mesh = build_mesh_1d(10)
    k = 1
    space = DGSpace(mesh, k)
    u0 = project(lambda x: np.sin(2 * np.pi * x), space)
    scheme = taylor_scheme(2)
    assert (evolve(scheme, u0, 0.0, 0.01).u - u0).norm() == 0.0

    tau = 0.005
    two = evolve(scheme, u0, 2 * tau, tau)
    op, red = _ops(mesh, k)
    manual = step(scheme, op, red, step(scheme, op, red, u0, tau), tau)
    assert (two.u - manual).norm() <= 1e-14 * u0.norm()
    assert two.n_steps == 2 and not two.shortened_last_step


def test_evolve_shortens_last_step():
    mesh = build_mesh_1d(8)
    space = DGSpace(mesh, 1)
    u0 = project(lambda x: np.sin(2 * np.pi * x), space)
    res = evolve(taylor_scheme(2), u0, 0.0105, 0.002)
    assert res.shortened_last_step
    assert res.n_steps == 6


@pytest.mark.parametrize("perturb", [0.0, 0.2], ids=["uniform", "perturbed"])
def test_evolve_rejects_bad_time_input(perturb):
    # in a child process under a timeout: a negative final time once made the
    # Fourier route loop forever and the stepping route return u0
    code = textwrap.dedent(f"""
        import numpy as np
        from rkdglab import DGSpace, build_mesh_1d, evolve, project, taylor_scheme
        mesh = build_mesh_1d(8, {perturb})
        u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, 1))
        cases = [(-1.0, 0.01), (float("nan"), 0.01), (float("inf"), 0.01),
                 (1.0, 0.0), (1.0, -0.01), (1.0, float("nan")), (1.0, float("inf"))]
        for final_time, tau in cases:
            try:
                evolve(taylor_scheme(2), u0, final_time, tau)
                print("returned")
            except ValueError:
                print("ValueError")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rkdglab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError"] * 7


@pytest.mark.parametrize("final_time, tau", [(1e300, 1e-300), (1.0, 1e-320)])
def test_evolve_rejects_a_step_count_that_is_not_finite(final_time, tau):
    mesh = build_mesh_1d(8)
    u0 = DGSpace(mesh, 1).zeros()
    message = f"final time {final_time} is not a finite number of time steps of {tau}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve(taylor_scheme(2), u0, final_time, tau)


def test_step_plan_rejects_an_infinite_time_step():
    # step_plan(1.0, inf) once planned no step, and evolve returned u0
    with pytest.raises(ValueError, match="time step must be finite and > 0, got inf"):
        schemes.step_plan(1.0, math.inf)


def test_evolve_refuses_more_steps_than_it_can_step_before_the_first(monkeypatch):
    def stepping(*args):
        raise AssertionError("stepping started")

    monkeypatch.setattr(schemes, "_evolve_fused", stepping)
    mesh = build_mesh_1d(8, perturb_fraction=0.2, seed=1)
    u0 = DGSpace(mesh, 1).zeros()
    # 8e10 steps of 0.0125, and one step more than the bound
    for final_time in (1e9, (schemes.MAX_STEPPED_STEPS + 0.5) * 0.0125):
        with pytest.raises(ValueError, match="that stepping takes"):
            evolve(taylor_scheme(2), u0, final_time, 0.0125)
    # at the bound, stepping starts; a uniform mesh takes Fourier steps
    with pytest.raises(AssertionError, match="stepping started"):
        evolve(taylor_scheme(2), u0, schemes.MAX_STEPPED_STEPS * 0.0125, 0.0125)
    uniform = build_mesh_1d(8)
    res = evolve(taylor_scheme(2), DGSpace(uniform, 1).zeros(), 1e9, 0.0125)
    assert res.path == "fourier" and res.n_steps == 80_000_000_000


def test_evolve_refuses_too_many_steps_where_the_fourier_route_declines(monkeypatch):
    # a uniform mesh steps when the Fourier route declines; its step count
    # is capped as a perturbed mesh's is, before the first step
    def stepping(*args):
        raise AssertionError("stepping started")

    declined = []
    real = schemes._evolve_fourier

    def fourier(*args):
        out = real(*args)
        declined.append(out is None)
        return out

    monkeypatch.setattr(schemes, "_evolve_fused", stepping)
    monkeypatch.setattr(schemes, "_evolve_fourier", fourier)
    uniform = build_mesh_1d(4)
    u0 = DGSpace(uniform, 1).random(1)
    with pytest.raises(SteppingLimitError,
                       match="1e[+]300 time steps of 1e-300 .* that stepping takes; "
                             "the Fourier route cannot bound their growth"):
        evolve(taylor_scheme(2), u0, 1.0, 1e-300)
    assert declined == [True]


def test_evolve_detects_blowup_above_cfl_limit():
    # reduced-stage third-order scheme above its stability threshold
    mesh = build_mesh_1d(64)
    k = 2
    space = DGSpace(mesh, k)
    u0 = project(lambda x: np.sin(2 * np.pi * x), space)
    tau = 0.3 / 64  # above the 0.191 limit
    try:
        res = evolve(taylor_scheme(3, "sdA"), u0, 2000 * tau, tau)
        grew = res.u.norm() > 10.0 * u0.norm()
    except BlowUpError as exc:
        grew = True
        assert exc.step_index is not None
    assert grew


@pytest.mark.parametrize("k", [2, 3])
def test_monotone_stability_random_states(k):
    # third-order stepping at a tenth of the stability limit never expands
    mesh = build_mesh_1d(16)
    op, red = _ops(mesh, k)
    tau = 0.1 * 0.191 / 16
    for variant in ("standard", "sdA"):
        scheme = taylor_scheme(3, variant)
        for seed in range(500):
            u = op.space.random(seed)
            assert step(scheme, op, red, u, tau).norm() <= u.norm() * (1.0 + 1e-12)


@pytest.mark.parametrize("variant", ["standard", "sdA"])
def test_two_step_stability_fourth_order(variant):
    # strong(2): the two-step map is non-expansive while one step may not be
    mesh = build_mesh_1d(16)
    k = 3
    op, red = _ops(mesh, k)
    scheme = taylor_scheme(4, variant)
    emap = EvolutionMap(scheme, op, red, tau=0.05 / 16)
    one = operator_norm(emap, "symbol", m=1)
    two = operator_norm(emap, "symbol", m=2)
    assert two <= 1.0 + 1e-10
    assert one > 1.0  # the single step genuinely expands at this step size


def test_symbol_norm_refuses_a_perturbed_map_without_a_dense_matrix(monkeypatch):
    emap = EvolutionMap(taylor_scheme(3), *_ops(build_mesh_1d(8, 0.2, seed=1), 2), tau=0.1 / 8)
    assert not emap.is_circulant

    def no_dense(self):
        raise AssertionError("dense matrix built for the symbol norm")

    monkeypatch.setattr(EvolutionMap, "as_dense", no_dense)
    with pytest.raises(ValueError, match="Fourier symbols need uniform meshes"):
        operator_norm(emap, "symbol")


def test_auto_is_not_a_norm_method():
    emap = EvolutionMap(taylor_scheme(3), *_ops(build_mesh_1d(8), 2), tau=0.1 / 8)
    with pytest.raises(ValueError, match="unknown norm method 'auto'"):
        operator_norm(emap, "auto")


def test_symbol_norm_errors_reach_the_caller(monkeypatch):
    def broken_symbols(self, rows=...):
        raise ValueError("symbol failure")

    monkeypatch.setattr(EvolutionMap, "norm_symbols", broken_symbols)
    uniform = EvolutionMap(taylor_scheme(3), *_ops(build_mesh_1d(8), 2), tau=0.1 / 8)
    with pytest.raises(ValueError, match="symbol failure"):
        operator_norm(uniform, "symbol")


def test_all_builtin_tableaus_match_compact():
    mesh = build_mesh_1d(7, 0.2, seed=8)
    op, red = _ops(mesh, 3)
    u = op.space.random(9)
    for r in BUILTIN_TABLEAUS:
        for variant in ("standard", "sdA"):
            scheme = taylor_scheme(r, variant)
            a = step(scheme, op, red, u, 0.003, form="butcher")
            b = step(scheme, op, red, u, 0.003, form="compact")
            assert (a - b).norm() <= 1e-12 * u.norm()


def test_stage_plan_general_mixing():
    # a mixed per-stage plan runs in Butcher form and differs from both
    # uniform plans
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 2)
    u = op.space.random(14)
    tau = 0.05 / 8
    mixed = SchemeSpec(3, (True, False, True))
    out_mixed = step(mixed, op, red, u, tau, form="butcher")
    out_std = step(taylor_scheme(3), op, red, u, tau, form="butcher")
    out_sda = step(taylor_scheme(3, "sdA"), op, red, u, tau, form="butcher")
    assert (out_mixed - out_std).norm() > 0.0
    assert (out_mixed - out_sda).norm() > 0.0
    with pytest.raises(ValueError):
        step(mixed, op, red, u, tau, form="compact")


def test_keykey_energy_gap_ratio():
    # ||reduced-step w||^2 - ||standard-step w||^2 controlled by jump terms,
    # with a proportionality that stays put across one octave of refinement
    k = 2
    r = 3
    lam = 0.1
    sups = []
    for n in (16, 32, 64):
        mesh = build_mesh_1d(n)
        op, red = _ops(mesh, k)
        tau = lam / n
        k_std = EvolutionMap(taylor_scheme(r), op, op, tau).as_dense()
        k_sda = EvolutionMap(taylor_scheme(r, "sdA"), op, red, tau).as_dense()
        dense = op.as_dense()
        gram = -(dense + dense.T)
        denom = np.zeros_like(gram)
        mat = np.eye(len(gram))
        for i in range(2 * r - 1):
            denom += tau ** (2 * i + 1) * mat.T @ gram @ mat
            mat = dense @ mat
        denom *= lam
        numer = k_sda.T @ k_sda - k_std.T @ k_std
        lamd, vec = np.linalg.eigh(denom)
        keep = lamd > 1e-11 * lamd.max()
        basis = vec[:, keep] / np.sqrt(lamd[keep])
        sups.append(float(np.linalg.eigvalsh(basis.T @ numer @ basis).max()))
    spread = (max(sups) - min(sups)) / max(abs(s) for s in sups)
    assert spread < 0.25, f"energy-gap ratio drifts {spread:.1%}: {sups}"


# ---------------------------------------------------------------------------
# Fourier-space evolution on uniform meshes vs. a plain stepping loop
# ---------------------------------------------------------------------------

def _stepping_loop(scheme, mesh, k, u0, final_time, tau, form="compact"):
    """(final state, None) or (None, index of the flagged step), stepping only."""
    op, red = _ops(mesh, k)
    n = int(np.floor(final_time / tau + 1e-9))
    rem = final_time - n * tau
    taus = [tau] * n + ([rem] if rem > 1e-12 * max(final_time, 1.0) else [])
    u = u0
    for index, dt in enumerate(taus, start=1):
        u = step(scheme, op, red, u, dt, form=form)
        peak = np.max(np.abs(u.coeffs))
        if not (np.isfinite(peak) and peak < BLOWUP_LIMIT):
            return None, index
    return u, None


def _evolve_outcome(*args, **kwargs):
    try:
        return evolve(*args, **kwargs).u, None
    except BlowUpError as exc:
        return None, exc.step_index


@pytest.fixture
def step_calls(monkeypatch):
    """Counts the step() calls evolve makes (the test's own loop is not counted)."""
    calls = []
    real = schemes.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(schemes, "step", counted)
    return calls


def _uniform_mesh(dim, n):
    return build_mesh_1d(n) if dim == 1 else build_mesh_2d(n, n)


@pytest.mark.parametrize("shortened", [False, True])
@pytest.mark.parametrize("variant", ["standard", "sdA"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [1, 2])
def test_fourier_evolve_matches_stepping(dim, r, variant, shortened, step_calls):
    n = 11 if dim == 1 else 5          # odd cell counts: the half spectrum has no Nyquist row
    mesh = _uniform_mesh(dim, n)
    k = r - 1
    scheme = taylor_scheme(r, variant)
    u0 = DGSpace(mesh, k).random(10 * r + dim)
    tau = benchmark_tau(r, dim, n)
    final_time = (30.4 if shortened else 30) * tau
    res = evolve(scheme, u0, final_time, tau)
    assert res.path == "fourier" and len(step_calls) == 0
    assert res.shortened_last_step == shortened
    assert res.n_steps == 30 + shortened
    ref, flagged = _stepping_loop(scheme, mesh, k, u0, final_time, tau)
    assert flagged is None
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()


def test_fourier_evolve_matches_stepping_over_ten_thousand_steps(step_calls):
    mesh = build_mesh_1d(320)
    k = 4
    scheme = taylor_scheme(5, "sdA")
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    tau = benchmark_tau(5, 1, 320)
    res = evolve(scheme, u0, 1.0, tau)
    assert res.path == "fourier" and len(step_calls) == 0
    assert res.n_steps >= 10_000 and res.shortened_last_step
    ref, _ = _stepping_loop(scheme, mesh, k, u0, 1.0, tau)
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()


def test_perturbed_meshes_and_butcher_form_still_step(step_calls):
    scheme = taylor_scheme(3, "sdA")
    k = 2
    tau = 0.01
    perturbed = build_mesh_1d(12, 0.15, seed=3)
    u0 = DGSpace(perturbed, k).random(4)
    res = evolve(scheme, u0, 0.105, tau)
    # the fused one-step operator steps without step(); it sums the same
    # terms in another order, so agreement is to rounding, not bitwise
    assert res.path == "stepping" and len(step_calls) == 0 and res.n_steps == 11
    ref, _ = _stepping_loop(scheme, perturbed, k, u0, 0.105, tau)
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()

    # a mixed stage plan takes the same routes through its EvolutionMap (the
    # Butcher recursion), with no step() call, and agrees with the
    # Butcher-form stepping loop to rounding
    mixed = SchemeSpec(3, (True, False, True))
    uniform = build_mesh_1d(12)
    for mesh, path in ((uniform, "fourier"), (perturbed, "stepping")):
        u0 = DGSpace(mesh, k).random(5)
        res = evolve(mixed, u0, 0.105, tau)
        assert res.path == path and len(step_calls) == 0 and res.n_steps == 11
        ref, _ = _stepping_loop(mixed, mesh, k, u0, 0.105, tau, form="butcher")
        assert (res.u - ref).norm() <= 1e-12 * ref.norm()
    u0 = DGSpace(uniform, k).random(5)
    assert evolve(scheme, u0, 0.0, tau).path == "stepping"


@pytest.mark.parametrize("r", [5])
def test_mixed_plan_without_tableau_fails_before_stepping(r, step_calls):
    # no tableau is built in above order 4
    mixed = SchemeSpec(r, (True, False) + (True,) * (r - 2))
    mesh = build_mesh_1d(8)
    u0 = DGSpace(mesh, r - 1).random(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="needs a tableau"):
            evolve(mixed, u0, 0.05, 0.01)
    assert len(step_calls) == 0


def test_fourier_evolve_keeps_unsupported_degree_error():
    mesh = build_mesh_1d(8)
    u0 = DGSpace(mesh, 0).random(0)
    with pytest.raises(UnsupportedDegreeError):
        evolve(taylor_scheme(2, "sdA"), u0, 0.01, 1e-3)


# ---------------------------------------------------------------------------
# the fused one-step operator (meshes without a Fourier route) vs. stepping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shortened", [False, True])
@pytest.mark.parametrize("variant", ["standard", "sdA"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_fused_evolve_matches_stepping(r, variant, shortened, step_calls):
    mesh = build_mesh_1d(11, 0.15, seed=r)
    k = r - 1
    scheme = taylor_scheme(r, variant)
    u0 = DGSpace(mesh, k).random(10 * r)
    tau = benchmark_tau(r, 1, 11)
    final_time = (30.4 if shortened else 30) * tau
    res = evolve(scheme, u0, final_time, tau)
    assert res.path == "stepping" and len(step_calls) == 0
    assert res.shortened_last_step == shortened
    assert res.n_steps == 30 + shortened
    ref, flagged = _stepping_loop(scheme, mesh, k, u0, final_time, tau)
    assert flagged is None
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()


def test_fused_evolve_matches_stepping_over_ten_thousand_steps(step_calls):
    mesh = build_mesh_1d(320, 0.15, seed=7)
    k = 4
    scheme = taylor_scheme(5, "sdA")
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    tau = benchmark_tau(5, 1, 320)
    res = evolve(scheme, u0, 1.0, tau)
    assert res.path == "stepping" and len(step_calls) == 0
    assert res.n_steps >= 10_000 and res.shortened_last_step
    ref, _ = _stepping_loop(scheme, mesh, k, u0, 1.0, tau)
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()


@pytest.mark.parametrize("variant", ["standard", "sdA"])
def test_fused_evolve_is_the_2d_fourier_fallback(variant, step_calls, monkeypatch):
    monkeypatch.setattr(schemes, "_evolve_fourier", lambda *args: None)
    mesh = build_mesh_2d(5, 4)
    k = 2
    scheme = taylor_scheme(3, variant)
    u0 = DGSpace(mesh, k).random(7)
    tau = benchmark_tau(3, 2, 5)
    res = evolve(scheme, u0, 20.4 * tau, tau)
    assert res.path == "stepping" and len(step_calls) == 0 and res.n_steps == 21
    ref, flagged = _stepping_loop(scheme, mesh, k, u0, 20.4 * tau, tau)
    assert flagged is None
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()


def test_fused_evolve_blowup_parity_with_stepping():
    k = 2
    sda3 = taylor_scheme(3, "sdA")
    mesh = build_mesh_1d(64, 0.15, seed=2)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    tau = 0.3 / 64
    got = _evolve_outcome(sda3, u0, 2000 * tau, tau)
    ref = _stepping_loop(sda3, mesh, k, u0, 2000 * tau, tau)
    assert got[0] is None and got[1] == ref[1] is not None

    bad = u0.copy()
    bad.coeffs[5, 1] = np.nan
    assert _evolve_outcome(sda3, bad, 10 * tau, tau) == (None, 1)
    assert _stepping_loop(sda3, mesh, k, bad, 10 * tau, tau) == (None, 1)

    u0 = DGSpace(mesh, 0).random(0)
    with pytest.raises(UnsupportedDegreeError):
        evolve(taylor_scheme(2, "sdA"), u0, 0.01, 1e-3)


# ---------------------------------------------------------------------------
# fused stepping in chunks of CHUNK_STEPS steps vs. single steps
# ---------------------------------------------------------------------------

KERNEL_SPECS = ("nj,cj...->cn...", "cnj,cj...->cn...")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the block-kernel contractions (one per single step or chunk) while patched."""
    calls = []
    real = np.einsum

    def counted(spec, *operands, **kwargs):
        if spec in KERNEL_SPECS:
            calls.append(1)
        return real(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return calls


#: (scheme, stepping-loop form): uniform plans against compact steps, mixed
#: plans against Butcher steps
CHUNK_SCHEMES = {
    "standard-r3": (taylor_scheme(3), "compact"),
    "sdA-r4": (taylor_scheme(4, "sdA"), "compact"),
    "mixed-r3": (SchemeSpec(3, (True, False, True)), "butcher"),
    "mixed-r4": (SchemeSpec(4, (False, True, False, True)), "butcher"),
}


def _check_chunked_against_stepping(scheme, form, mesh, n_x, kernel_calls):
    k = scheme.order - 1
    u0 = DGSpace(mesh, k).random(3)
    tau = benchmark_tau(scheme.order, mesh.dim, n_x)
    p = schemes.CHUNK_STEPS
    for n in range(1, 10):
        for shortened in (False, True):
            final_time = (n + 0.4 if shortened else n) * tau
            del kernel_calls[:]
            res = evolve(scheme, u0, final_time, tau)
            assert len(kernel_calls) == n // p + n % p + shortened, (n, shortened)
            assert res.path == "stepping" and res.n_steps == n + shortened
            ref, flagged = _stepping_loop(scheme, mesh, k, u0, final_time, tau, form=form)
            assert flagged is None
            assert (res.u - ref).norm() <= 1e-12 * ref.norm(), (n, shortened)


@pytest.mark.parametrize("name", CHUNK_SCHEMES)
def test_chunked_fused_evolve_matches_stepping_on_perturbed_meshes(name, kernel_calls):
    scheme, form = CHUNK_SCHEMES[name]
    _check_chunked_against_stepping(scheme, form, build_mesh_1d(11, 0.15, seed=6), 11, kernel_calls)


@pytest.mark.parametrize("name", ["standard-r3", "mixed-r3"])
def test_chunked_fused_evolve_matches_stepping_in_2d(name, kernel_calls, monkeypatch):
    monkeypatch.setattr(schemes, "_evolve_fourier", lambda *args: None)
    scheme, form = CHUNK_SCHEMES[name]
    _check_chunked_against_stepping(scheme, form, build_mesh_2d(5, 4), 5, kernel_calls)


@pytest.mark.parametrize("cfl, scale, residue", [
    (0.4, 1.0, 0), (0.35, 1e6, 1), (0.3, 1.0, 2), (0.35, 1.0, 3),
])
def test_chunked_fused_evolve_flags_the_step_stepping_flags(cfl, scale, residue, kernel_calls):
    # unstable steps whose first crossing of BLOWUP_LIMIT falls at each
    # residue mod CHUNK_STEPS: chunks are taken while the bound allows, then
    # single steps find the crossing stepping finds
    k = 2
    sda3 = taylor_scheme(3, "sdA")
    mesh = build_mesh_1d(16, 0.15, seed=2)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k)) * scale
    tau = cfl / 16
    got = _evolve_outcome(sda3, u0, 3000 * tau, tau)
    chunked_calls = len(kernel_calls)
    ref = _stepping_loop(sda3, mesh, k, u0, 3000 * tau, tau)
    assert ref[1] % schemes.CHUNK_STEPS == residue
    assert got[0] is None and got[1] == ref[1]
    assert chunked_calls < ref[1]           # some steps were taken as chunks


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("name", CHUNK_SCHEMES)
def test_chunk_growth_bounds_every_power_within_the_chunk(name, n):
    # ||K^j||_inf for j <= CHUNK_STEPS, from the dense one-step matrix,
    # never exceeds the product bound of the chunk rule; at n = 4 the
    # offsets of the chunk increment alias
    scheme, _ = CHUNK_SCHEMES[name]
    mesh = build_mesh_1d(n, 0.15, seed=n)
    op, red = _ops(mesh, scheme.order - 1)
    for cfl in (0.05, 0.4):
        emap = EvolutionMap(scheme, op, red, cfl / n)
        chunk, growth, _ = schemes._chunk_increment(emap.increment)
        dense = emap.as_dense()
        power = np.eye(len(dense))
        norms = []
        for _ in range(schemes.CHUNK_STEPS):
            power = dense @ power
            norms.append(np.abs(power).sum(axis=1).max())
        assert max(norms) <= growth
        assert np.abs(chunk.as_dense() + np.eye(len(dense)) - power).max() <= 1e-13 * norms[-1]


def _fused_checking_every_chunk(scheme, mesh, k, u0, final_time, tau):
    """(coeffs, None) or (None, flagged step): fused stepping with the chunk check before every chunk.

    The same chunks and steps as evolve's fused stepping, each applied by
    the increment's apply_array (a gather of the neighbour rows), so the
    coefficients must agree bit for bit.
    """
    whole, remainder, shortened = schemes.step_plan(final_time, tau)
    op, red = stage_operators(mesh, k)
    p = schemes.CHUNK_STEPS
    u = u0.coeffs
    index = 0
    for dt, n in ((tau, whole), (remainder, int(shortened))):
        if not n:
            continue
        increment = EvolutionMap(scheme, op, red, dt).increment
        end = index + n
        if n >= p:
            chunk, growth, _ = schemes._chunk_increment(increment)
            while index + p <= end and np.max(np.abs(u)) * growth < BLOWUP_LIMIT:
                u = u + chunk.apply_array(u)
                index += p
        while index < end:
            index += 1
            u = u + increment.apply_array(u)
            peak = np.max(np.abs(u))
            if not (np.isfinite(peak) and peak < BLOWUP_LIMIT):
                return None, index
    return u, None


@pytest.fixture
def chunk_checks(monkeypatch):
    """Counts the chunk checks (schemes._chunk_bound) fused stepping makes."""
    calls = []
    real = schemes._chunk_bound

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(schemes, "_chunk_bound", counted)
    return calls


@pytest.mark.parametrize("cfl", [None, 0.4])
@pytest.mark.parametrize("variant", ["standard", "sdA"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_fused_evolve_is_the_loop_that_checks_every_chunk_bit_for_bit(r, variant, cfl,
                                                                      chunk_checks):
    # 1203.4 steps: the bound of a stable run expires many times; at cfl 0.4
    # some schemes blow up, after runs of unchecked chunks
    n = 16
    mesh = build_mesh_1d(n, 0.15, seed=r)
    k = r - 1
    scheme = taylor_scheme(r, variant)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    tau = benchmark_tau(r, 1, n) if cfl is None else cfl / n
    final_time = 1203.4 * tau
    got = _evolve_outcome(scheme, u0, final_time, tau)
    ref = _fused_checking_every_chunk(scheme, mesh, k, u0, final_time, tau)
    assert got[1] == ref[1]
    if ref[1] is None:
        assert np.array_equal(got[0].coeffs, ref[0])
        assert 1 < len(chunk_checks) < 1203 // schemes.CHUNK_STEPS
    if cfl is None:
        assert ref[1] is None


def test_fused_evolve_checks_once_per_run_on_the_perturbed_accuracy_table(chunk_checks,
                                                                          monkeypatch):
    # the benchmark's perturbed table: 4,200 chunks in 18 maps, each of
    # which a check before every chunk would check.  A chunk is a step
    # that _Stepper takes with a chunk increment.
    chunk_ops = []
    real_increment = schemes._chunk_increment

    def recorded(increment):
        chunk, growth, g_p = real_increment(increment)
        chunk_ops.append(chunk)
        return chunk, growth, g_p

    chunks = []
    real_step_of = schemes._Stepper.step_of

    def counted_step_of(stepper, op):
        advance = real_step_of(stepper, op)
        if not any(op is chunk for chunk in chunk_ops):
            return advance

        def counted():
            chunks.append(1)
            advance()
        return counted

    monkeypatch.setattr(schemes, "_chunk_increment", recorded)
    monkeypatch.setattr(schemes._Stepper, "step_of", counted_step_of)
    pairs = [(taylor_scheme(r, v), r - 1) for v in ("standard", "sdA") for r in (2, 3, 4)]
    rows = accuracy_table(pairs, ProblemSpec(dim=1, final_time=1.0), (40, 80, 160),
                          perturb=0.15, seed=5)
    assert not any(row.flagged for row in rows)
    assert len(chunk_ops) == 18 and len(chunks) == 4200
    # one check per run: each map starts a run, and a run averages 19 chunks
    assert len(chunk_ops) <= len(chunk_checks) < len(chunks) / 10


#: the window tests' stage plans: r = 2..5 in both variants, and a mixed plan
WINDOW_SCHEMES = {f"{v}-r{r}": taylor_scheme(r, v) for r in (2, 3, 4, 5) for v in ("standard", "sdA")}
WINDOW_SCHEMES["mixed-r3"] = SchemeSpec(3, (True, False, True))


def _check_window_against_gather(scheme, mesh, n):
    """Fused stepping equals the apply_array loop bit for bit, stable and blowing up."""
    k = scheme.order - 1
    u0 = project(lambda *x: np.sin(2 * np.pi * sum(x)), DGSpace(mesh, k))
    tau = benchmark_tau(scheme.order, mesh.dim, n)
    # 403.4 steps: runs of unchecked chunks, single steps and a shortened last step
    got = _evolve_outcome(scheme, u0, 403.4 * tau, tau)
    ref = _fused_checking_every_chunk(scheme, mesh, k, u0, 403.4 * tau, tau)
    assert got[1] is None and ref[1] is None
    assert np.array_equal(got[0].coeffs, ref[0])
    # at cfl 0.4 every plan here blows up, at the same step
    got = _evolve_outcome(scheme, u0, 1203.4 * 0.4 / n, 0.4 / n)
    ref = _fused_checking_every_chunk(scheme, mesh, k, u0, 1203.4 * 0.4 / n, 0.4 / n)
    assert got[0] is None and got[1] == ref[1] is not None


def _window_reaches(scheme, mesh):
    """The reach J - 1 of a one-step increment and of its chunk increment.

    That is the reach of a window row when the offsets run 0, -1, ...,
    -(J - 1) in block order, else None (no window).
    """
    op, red = stage_operators(mesh, scheme.order - 1)
    increment = EvolutionMap(scheme, op, red, 0.01).increment

    def reach(e):
        offsets = list(e.blocks)
        return len(offsets) - 1 if offsets == [(-j,) for j in range(len(offsets))] else None
    return reach(increment), reach(schemes._chunk_increment(increment)[0])


@pytest.mark.parametrize("n", [2, 3, 5, 16])
@pytest.mark.parametrize("name", WINDOW_SCHEMES)
def test_window_stepping_is_the_gather_bit_for_bit(name, n):
    # a chunk reaches 4 r cells: the periodic tail wraps round the mesh more
    # than once at N = 2, 3 and 5 (and at 16 for r = 4, 5), not at all below
    scheme = WINDOW_SCHEMES[name]
    mesh = build_mesh_1d(n, 0.15, seed=n)
    r = scheme.order
    assert _window_reaches(scheme, mesh) == (r, schemes.CHUNK_STEPS * r)
    _check_window_against_gather(scheme, mesh, n)


@pytest.mark.parametrize("name", ["standard-r3", "sdA-r4", "mixed-r3"])
@pytest.mark.parametrize("dim", [1, 2])
def test_fourier_fallback_stepping_is_the_gather_bit_for_bit(dim, name, monkeypatch):
    # uniform meshes step when the Fourier route declines: shared blocks,
    # through the window in 1D and through the gather in 2D
    monkeypatch.setattr(schemes, "_evolve_fourier", lambda *args: None)
    scheme = WINDOW_SCHEMES[name]
    mesh = build_mesh_1d(5) if dim == 1 else build_mesh_2d(5, 4)
    r = scheme.order
    expected = (r, schemes.CHUNK_STEPS * r) if dim == 1 else (None, None)
    assert _window_reaches(scheme, mesh) == expected
    _check_window_against_gather(scheme, mesh, 5)


def test_stepping_applies_the_gather_only_where_no_window_fits(monkeypatch):
    # bit for bit the gather of apply_array is the window's equal, but a step
    # through it costs about 20 % more: perturbed 1D meshes never take it,
    # even where the periodic tail wraps round the mesh
    real_apply = BlockOperator.apply_array

    def refused(op, c):
        raise AssertionError("a 1D step gathered its neighbour rows")

    monkeypatch.setattr(BlockOperator, "apply_array", refused)
    for n in (2, 3, 5, 16):
        mesh = build_mesh_1d(n, 0.15, seed=n)
        for scheme in WINDOW_SCHEMES.values():
            k = scheme.order - 1
            u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
            tau = benchmark_tau(scheme.order, 1, n)
            assert evolve(scheme, u0, 43.4 * tau, tau).path == "stepping"
    # in 2D every chunk and step of a declined Fourier route applies the
    # increments: 9.4 steps are 2 chunks, 1 single step and the shortened one
    applies = []

    def counted(op, c):
        applies.append(1)
        return real_apply(op, c)

    monkeypatch.setattr(BlockOperator, "apply_array", counted)
    monkeypatch.setattr(schemes, "_evolve_fourier", lambda *args: None)
    mesh = build_mesh_2d(5, 4)
    u0 = DGSpace(mesh, 2).random(3)
    tau = benchmark_tau(3, 2, 5)
    assert evolve(taylor_scheme(3), u0, 9.4 * tau, tau).path == "stepping"
    assert len(applies) == 4


# ---------------------------------------------------------------------------
# EvolutionMap (growth metric) vs. the staged compact step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["standard", "sdA"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [1, 2])
def test_evolution_map_matches_compact_step(dim, r, variant):
    n = 9 if dim == 1 else 4
    mesh = build_mesh_1d(n, 0.15, seed=r) if dim == 1 else build_mesh_2d(n, n)
    k = r - 1
    op, red = _ops(mesh, k)
    scheme = taylor_scheme(r, variant)
    tau = 0.1 / (dim * n)
    emap = EvolutionMap(scheme, op, red, tau)
    us = [op.space.random(seed) for seed in range(3)]
    refs = [step(scheme, op, red, u, tau).coeffs for u in us]
    batch = emap.apply_array(np.stack([u.coeffs for u in us], axis=-1))
    for j, (u, ref) in enumerate(zip(us, refs)):
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(emap.apply_array(u.coeffs) - ref) <= 1e-12 * scale
        assert np.linalg.norm(batch[..., j] - ref) <= 1e-12 * scale
    x = us[0].coeffs.ravel()
    expected = emap.as_dense().T @ x
    assert np.linalg.norm(emap.rmatvec(x) - expected) <= 1e-12 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# a scheme is its order and its stage plan
# ---------------------------------------------------------------------------

def test_a_uniform_plan_is_its_variant():
    # a scheme built from its plan is the scheme of that variant, and its
    # rows say so
    planned = SchemeSpec(3, (True,) * 3)
    assert planned == taylor_scheme(3, "sdA") and planned.variant == "sdA"
    assert SchemeSpec(3, [True, True, False]) == SchemeSpec(3, (True, True, False))
    assert SchemeSpec(3, (True, True, False)).variant == "sdA"      # the last flag is inert
    assert SchemeSpec(3, (False,) * 3) == taylor_scheme(3)
    problem = ProblemSpec(dim=1, final_time=0.05)
    (row,) = accuracy_table([(planned, 2)], problem, (8,))
    assert (row.scheme, row.variant) == ("RK3DG2", "sdA")
    point = delta(planned, build_mesh_1d(8), 2, 0.1)
    assert (point.scheme, point.variant) == ("RK3DG2", "sdA")


def test_scheme_values_derive_from_order_and_plan():
    for r in range(1, 7):
        scheme = SchemeSpec(r, (False,) * r)
        assert scheme.stages == r
        assert scheme.alphas == tuple(1.0 / math.factorial(i) for i in range(r + 1))
        assert scheme.tableau is BUILTIN_TABLEAUS.get(r)
        assert scheme.label(r - 1) == f"RK{r}DG{r - 1}"
    assert SchemeSpec(3, (True, False, True)).variant == "RF"
    assert SchemeSpec(4, (False, True, False, True)).variant == "FRF"
    assert SchemeSpec(4, (True, True, False, False)).variant == "RRF"
    assert taylor_scheme(1, "sdA").variant == "sdA"                 # r = 1 reads its one flag


@pytest.mark.parametrize("order, plan", [(0, ()), (-1, ()), (3, (True,)), (2, (True,) * 3)])
def test_bad_order_or_flag_count_raises(order, plan):
    with pytest.raises(ValueError):
        SchemeSpec(order, plan)


def test_taylor_scheme_validates_its_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        taylor_scheme(3, "RF")
    with pytest.raises(ValueError, match="order"):
        taylor_scheme(0)


def test_all_reduced_stage_plan_rejects_k0():
    planned = SchemeSpec(3, (True,) * 3)
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 0)
    u = op.space.random(0)
    for form in ("compact", "butcher"):
        with pytest.raises(UnsupportedDegreeError):
            step(planned, op, red, u, 1e-3, form=form)
    with pytest.raises(UnsupportedDegreeError):
        evolve(planned, u, 0.01, 1e-3)
    with pytest.raises(UnsupportedDegreeError):
        EvolutionMap(planned, op, red, 1e-3)


@pytest.mark.parametrize("plan, reduced_inner", [
    ((False, False, True), False), ((True, False, False), True), ((False, True, False), True),
])
def test_only_a_reduced_inner_stage_needs_k1(plan, reduced_inner):
    # the last flag is inert, so a plan reduced only there is the standard
    # scheme and steps at k = 0
    scheme = SchemeSpec(3, plan)
    mesh = build_mesh_1d(8, 0.15, seed=1)
    op, red = _ops(mesh, 0)
    u = op.space.random(0)
    if reduced_inner:
        with pytest.raises(UnsupportedDegreeError):
            evolve(scheme, u, 0.01, 1e-3)
        with pytest.raises(UnsupportedDegreeError):
            EvolutionMap(scheme, op, red, 1e-3)
        return
    standard = taylor_scheme(3)
    for form in ("compact", "butcher"):
        got = step(scheme, op, red, u, 1e-3, form=form)
        assert (got - step(standard, op, red, u, 1e-3, form=form)).norm() == 0.0
    got = evolve(scheme, u, 0.0105, 1e-3)
    assert (got.u - evolve(standard, u, 0.0105, 1e-3).u).norm() == 0.0


def test_first_order_sda_is_forward_euler_at_k0():
    # one stage, read only through the full operator: the sdA variant has
    # no inner stage, so at k = 0 it is forward Euler, bit for bit the
    # standard scheme, and keeps the variant it was asked for
    sda1 = taylor_scheme(1, "sdA")
    assert sda1.label(0) == "RK1DG0" and sda1.variant == "sdA"
    for mesh in (build_mesh_1d(8), build_mesh_1d(8, 0.15, seed=1)):
        op, red = _ops(mesh, 0)
        u = op.space.random(2)
        tau = 1e-3
        euler = u + tau * op.apply(u)
        assert (step(sda1, op, red, u, tau) - euler).norm() == 0.0
        got = evolve(sda1, u, 0.0105, tau)
        ref = evolve(taylor_scheme(1), u, 0.0105, tau)
        assert got.path == ref.path and (got.u - ref.u).norm() == 0.0


def test_forward_euler_has_a_butcher_tableau():
    # the one-stage tableau is forward Euler: the Butcher form equals the
    # compact form, for both variants, instead of raising
    assert BUILTIN_TABLEAUS[1] == schemes.ButcherTableau(a=((0.0,),), b=(1.0,))
    for mesh, k in ((build_mesh_1d(8), 1), (build_mesh_1d(8, 0.15, seed=1), 2)):
        op, red = _ops(mesh, k)
        u = op.space.random(3)
        for variant in ("standard", "sdA"):
            scheme = taylor_scheme(1, variant)
            got = step(scheme, op, red, u, 1e-3, form="butcher")
            assert np.array_equal(got.coeffs, step(scheme, op, red, u, 1e-3).coeffs)


def test_inert_last_flag_forms_no_reduced_symbols(monkeypatch):
    # the plan (F, F, R) steps as the standard scheme: its reduced
    # operator's symbols are never read, so they are never formed
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 2)
    calls = []
    real = type(red).symbols

    def counted(self, angles):
        calls.append(self is red)
        return real(self, angles)

    monkeypatch.setattr(type(red), "symbols", counted)
    planned = EvolutionMap(SchemeSpec(3, (False, False, True)), op, red, 0.01)
    ref = EvolutionMap(taylor_scheme(3), op, red, 0.01)
    assert np.array_equal(planned.norm_symbols(), ref.norm_symbols())
    full, reduced = planned.stage_symbols(np.zeros((3, 1)))
    assert reduced is full
    assert calls.count(True) == 0 and calls.count(False) > 0
    EvolutionMap(taylor_scheme(3, "sdA"), op, red, 0.01).norm_symbols()
    assert calls.count(True) == 1


def test_blowup_parity_with_stepping():
    k = 2
    sda3 = taylor_scheme(3, "sdA")
    # the unstable case of test_evolve_detects_blowup_above_cfl_limit
    mesh = build_mesh_1d(64)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    tau = 0.3 / 64
    got = _evolve_outcome(sda3, u0, 2000 * tau, tau)
    ref = _stepping_loop(sda3, mesh, k, u0, 2000 * tau, tau)
    assert got[0] is None and got[1] == ref[1] is not None

    # a non-finite initial state is flagged at the first step
    bad = u0.copy()
    bad.coeffs[5, 1] = np.nan
    assert _evolve_outcome(sda3, bad, 10 * tau, tau) == (None, 1)
    assert _stepping_loop(sda3, mesh, k, bad, 10 * tau, tau) == (None, 1)

    # above the 0.191 limit but with bounded growth: the Fourier route is
    # taken and, like stepping, does not flag
    mesh = build_mesh_1d(40)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    res = evolve(sda3, u0, 1.0, 0.22 / 40)
    assert res.path == "fourier" and res.u.norm() > 10.0 * u0.norm()
    assert _stepping_loop(sda3, mesh, k, u0, 1.0, 0.22 / 40)[1] is None


def test_accuracy_table_blowup_parity(monkeypatch):
    # fixed tau = 0.015 is cfl 0.3 at N=20 and 0.6 at N=40, above the r=3 limits
    problem = ProblemSpec(dim=1, final_time=1.0)
    pairs = [(taylor_scheme(3, v), 2) for v in ("standard", "sdA")]
    fourier = accuracy_table(pairs, problem, (20, 40), timestep=0.015)
    monkeypatch.setattr(schemes, "_evolve_fourier", lambda *args: None)
    stepped = accuracy_table(pairs, problem, (20, 40), timestep=0.015)
    assert [r.flagged for r in fourier] == [r.flagged for r in stepped]
    assert any(r.flagged for r in fourier) and not all(r.flagged for r in fourier)
    for a, b in zip(fourier, stepped):
        assert a.l2_error == b.l2_error or (np.isnan(a.l2_error) and np.isnan(b.l2_error))
    for scheme, k in pairs:
        for n in (20, 40):
            mesh = build_mesh_1d(n)
            u0 = project(problem.value, DGSpace(mesh, k))
            got = _evolve_outcome(scheme, u0, 1.0, 0.015)
            ref = _stepping_loop(scheme, mesh, k, u0, 1.0, 0.015)
            assert got[1] == ref[1]


# ---------------------------------------------------------------------------
# mixed stage plans: EvolutionMap's Butcher recursion vs. the staged step
# ---------------------------------------------------------------------------

#: two plans per order; at r = 2 the last flag is inert, so both are uniform
MIXED_PLANS = [
    (2, (True, False)), (2, (False, True)),
    (3, (True, False, True)), (3, (False, True, False)),
    (4, (True, False, True, True)), (4, (False, True, False, True)),
]
MESH_KINDS = ["uniform", "perturbed", "2d"]


def _mesh_of(kind):
    if kind == "2d":
        return build_mesh_2d(3, 4)
    return build_mesh_1d(9) if kind == "uniform" else build_mesh_1d(9, 0.15, seed=5)


def _dense_butcher_step(scheme, op, red, tau):
    """Dense matrix of Butcher-form step(), one unit vector at a time."""
    space = op.space
    cols = [step(scheme, op, red, GridFunction(space, e.reshape(space.shape)), tau,
                 form="butcher").coeffs.ravel() for e in np.eye(space.n_dofs)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("r, plan", MIXED_PLANS)
@pytest.mark.parametrize("kind", MESH_KINDS)
def test_mixed_plan_map_is_the_dense_butcher_step(kind, r, plan):
    mesh = _mesh_of(kind)
    op, red = _ops(mesh, r - 1)
    scheme = SchemeSpec(r, plan)
    tau = 0.2 / (mesh.dim * 9)
    emap = EvolutionMap(scheme, op, red, tau)
    assert np.abs(emap.as_dense() - _dense_butcher_step(scheme, op, red, tau)).max() <= 1e-13
    # no zero blocks: in 1D the increment keeps offsets 0 .. -s
    blocks = emap.increment.blocks
    assert all(np.any(b) for b in blocks.values())
    if mesh.dim == 1:
        assert sorted(blocks) == [(o,) for o in range(-r, 1)]


@pytest.mark.parametrize("r, plan", MIXED_PLANS)
@pytest.mark.parametrize("kind", MESH_KINDS)
def test_mixed_plan_evolve_matches_the_butcher_stepping_loop(kind, r, plan, step_calls):
    mesh = _mesh_of(kind)
    k = r - 1
    scheme = SchemeSpec(r, plan)
    u0 = DGSpace(mesh, k).random(3 * r)
    tau = benchmark_tau(r, mesh.dim, 9)
    res = evolve(scheme, u0, 30.4 * tau, tau)
    assert res.path == ("stepping" if kind == "perturbed" else "fourier")
    assert len(step_calls) == 0 and res.n_steps == 31
    ref, flagged = _stepping_loop(scheme, mesh, k, u0, 30.4 * tau, tau, form="butcher")
    assert flagged is None
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()


@pytest.mark.parametrize("r, plan", MIXED_PLANS)
def test_mixed_plan_delta_is_the_top_singular_value_of_the_step(r, plan):
    # symbols on uniform meshes; on the perturbed one the floor certificate
    # (below the cfl limit; a fourth-order step expands at every cfl) and
    # the certified bracket
    scheme = SchemeSpec(r, plan)
    routes = set()
    for kind in MESH_KINDS:
        mesh = _mesh_of(kind)
        op, red = _ops(mesh, r - 1)
        for cfl in (0.05, 0.2, 0.3):
            point = delta(scheme, mesh, r - 1, cfl)
            tau = cfl / (mesh.dim * (mesh.n_cells if mesh.dim == 1 else mesh.nx))
            top = np.linalg.svd(_dense_butcher_step(scheme, op, red, tau), compute_uv=False)[0]
            excess = top * top - 1.0
            ref = max(0.0 if abs(excess) < NORM_RESOLUTION else excess, DELTA_FLOOR)
            assert abs(point.delta - ref) <= 1e-6 * abs(ref) + 1e-12, (kind, cfl)
            routes.add(point.route)
    assert routes == {"symbol", "bracket"} | ({"certificate"} if r < 4 else set())


@pytest.mark.parametrize("r, plan", [(3, (True, False, True)), (3, (True, True, True)),
                                     (4, (False, True, False, True)), (4, (True,) * 4)])
def test_plans_differing_in_the_last_flag_step_identically(r, plan):
    # the final combination reads every stage through the full operator,
    # so the last stage's operator is never applied
    other = SchemeSpec(r, plan[:-1] + (not plan[-1],))
    scheme = SchemeSpec(r, plan)
    for mesh in (build_mesh_1d(9), build_mesh_1d(9, 0.15, seed=5)):
        op, red = _ops(mesh, r - 1)
        u = op.space.random(r)
        forms = ("butcher", "compact") if len(set(plan[:-1])) == 1 else ("butcher",)
        for form in forms:
            assert np.array_equal(step(scheme, op, red, u, 0.02, form=form).coeffs,
                                  step(other, op, red, u, 0.02, form=form).coeffs)
        got, ref = (EvolutionMap(s, op, red, 0.02) for s in (scheme, other))
        assert np.array_equal(got.apply_array(u.coeffs), ref.apply_array(u.coeffs))
        if mesh.is_uniform:
            assert np.array_equal(got.norm_symbols(), ref.norm_symbols())


def test_a_step_size_that_takes_no_step_builds_no_map(monkeypatch):
    calls = []
    real = schemes.symbol_increment

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(schemes, "symbol_increment", counted)
    for mesh in (build_mesh_1d(12), build_mesh_1d(12, 0.15, seed=3), build_mesh_2d(4, 4)):
        del calls[:]
        u0 = DGSpace(mesh, 2).random(1)
        res = evolve(taylor_scheme(3), u0, 0.004, 0.01)
        assert res.n_steps == 1 and res.shortened_last_step and len(calls) == 1


@pytest.mark.parametrize("r, plan", MIXED_PLANS[2:])
def test_mixed_plan_recursion_is_the_taylor_polynomial_down_to_tiny_steps(r, plan):
    # with the full operator in every stage, a mixed plan's Butcher
    # recursion and Horner's evaluation give the same Taylor polynomial;
    # an identity rounded into the increment would err by eps / (tau |L|)
    mesh = build_mesh_1d(9, 0.15, seed=5)
    op, _ = _ops(mesh, r - 1)
    for tau in (1e-2, 1e-5, 1e-8):
        got = EvolutionMap(SchemeSpec(r, plan), op, op, tau).increment.as_dense()
        ref = EvolutionMap(taylor_scheme(r), op, op, tau).increment.as_dense()
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), tau
