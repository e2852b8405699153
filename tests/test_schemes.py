import numpy as np
import pytest

from rkdglab import schemes
from rkdglab.errors import BlowUpError, UnsupportedDegreeError
from rkdglab.experiments import ProblemSpec, accuracy_table, benchmark_tau
from rkdglab.mesh import build_mesh_1d, build_mesh_2d
from rkdglab.operators import (
    DGSpace,
    assemble_upwind,
    jump_inner,
    operator_norm,
    project,
    reduce_operator,
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


def test_butcher_fallback_above_order_4():
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 1)
    scheme = taylor_scheme(5)
    u = op.space.random(2)
    with pytest.warns(RuntimeWarning):
        a = step(scheme, op, red, u, 1e-3, form="butcher")
    b = step(scheme, op, red, u, 1e-3, form="compact")
    assert (a - b).norm() == 0.0


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
    assert (evolve(scheme, mesh, k, u0, 0.0, 0.01).u - u0).norm() == 0.0

    tau = 0.005
    two = evolve(scheme, mesh, k, u0, 2 * tau, tau)
    op, red = _ops(mesh, k)
    manual = step(scheme, op, red, step(scheme, op, red, u0, tau), tau)
    assert (two.u - manual).norm() <= 1e-14 * u0.norm()
    assert two.n_steps == 2 and not two.shortened_last_step


def test_evolve_shortens_last_step():
    mesh = build_mesh_1d(8)
    space = DGSpace(mesh, 1)
    u0 = project(lambda x: np.sin(2 * np.pi * x), space)
    res = evolve(taylor_scheme(2), mesh, 1, u0, 0.0105, 0.002)
    assert res.shortened_last_step
    assert res.n_steps == 6


def test_evolve_detects_blowup_above_cfl_limit():
    # reduced-stage third-order scheme above its stability threshold
    mesh = build_mesh_1d(64)
    k = 2
    space = DGSpace(mesh, k)
    u0 = project(lambda x: np.sin(2 * np.pi * x), space)
    tau = 0.3 / 64  # above the 0.191 limit
    try:
        res = evolve(taylor_scheme(3, "sdA"), mesh, k, u0, 2000 * tau, tau)
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
    one = operator_norm(emap, "auto", m=1)
    two = operator_norm(emap, "auto", m=2)
    assert two <= 1.0 + 1e-10
    assert one > 1.0  # the single step genuinely expands at this step size


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
    mixed = SchemeSpec(
        order=3, stages=3, alphas=taylor_scheme(3).alphas, variant="sdA",
        tableau=BUILTIN_TABLEAUS[3], stage_plan=(True, False, True),
    )
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

def _stepping_loop(scheme, mesh, k, u0, final_time, tau):
    """(final state, None) or (None, index of the flagged step), stepping only."""
    op, red = _ops(mesh, k)
    n = int(np.floor(final_time / tau + 1e-9))
    rem = final_time - n * tau
    taus = [tau] * n + ([rem] if rem > 1e-12 * max(final_time, 1.0) else [])
    u = u0
    for index, dt in enumerate(taus, start=1):
        u = step(scheme, op, red, u, dt)
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
    res = evolve(scheme, mesh, k, u0, final_time, tau)
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
    res = evolve(scheme, mesh, k, u0, 1.0, tau)
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
    res = evolve(scheme, perturbed, k, u0, 0.105, tau)
    # the fused one-step operator steps without step(); it sums the same
    # terms in another order, so agreement is to rounding, not bitwise
    assert res.path == "stepping" and len(step_calls) == 0 and res.n_steps == 11
    ref, _ = _stepping_loop(scheme, perturbed, k, u0, 0.105, tau)
    assert (res.u - ref).norm() <= 1e-12 * ref.norm()

    del step_calls[:]
    uniform = build_mesh_1d(12)
    u0 = DGSpace(uniform, k).random(5)
    res = evolve(scheme, uniform, k, u0, 0.1, tau, form="butcher")
    assert res.path == "stepping" and len(step_calls) == res.n_steps == 10

    mixed = SchemeSpec(
        order=3, stages=3, alphas=scheme.alphas, variant="sdA",
        tableau=BUILTIN_TABLEAUS[3], stage_plan=(True, False, True),
    )
    assert evolve(mixed, uniform, k, u0, 0.1, tau, form="butcher").path == "stepping"
    assert evolve(scheme, uniform, k, u0, 0.0, tau).path == "stepping"


def test_fourier_evolve_keeps_unsupported_degree_error():
    mesh = build_mesh_1d(8)
    u0 = DGSpace(mesh, 0).random(0)
    with pytest.raises(UnsupportedDegreeError):
        evolve(taylor_scheme(2, "sdA"), mesh, 0, u0, 0.01, 1e-3)


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
    res = evolve(scheme, mesh, k, u0, final_time, tau)
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
    res = evolve(scheme, mesh, k, u0, 1.0, tau)
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
    res = evolve(scheme, mesh, k, u0, 20.4 * tau, tau)
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
    got = _evolve_outcome(sda3, mesh, k, u0, 2000 * tau, tau)
    ref = _stepping_loop(sda3, mesh, k, u0, 2000 * tau, tau)
    assert got[0] is None and got[1] == ref[1] is not None

    bad = u0.copy()
    bad.coeffs[5, 1] = np.nan
    assert _evolve_outcome(sda3, mesh, k, bad, 10 * tau, tau) == (None, 1)
    assert _stepping_loop(sda3, mesh, k, bad, 10 * tau, tau) == (None, 1)

    u0 = DGSpace(mesh, 0).random(0)
    with pytest.raises(UnsupportedDegreeError):
        evolve(taylor_scheme(2, "sdA"), mesh, 0, u0, 0.01, 1e-3)


# ---------------------------------------------------------------------------
# a uniform stage plan, not the variant, picks the inner-stage operator
# ---------------------------------------------------------------------------

def _planned(variant, flag):
    base = taylor_scheme(3, variant)
    return SchemeSpec(order=3, stages=3, alphas=base.alphas, variant=variant,
                      tableau=base.tableau, stage_plan=(flag,) * 3)


@pytest.mark.parametrize("flag, same_as", [(True, "sdA"), (False, "standard")])
def test_uniform_stage_plan_overrides_the_variant(flag, same_as):
    other = "standard" if same_as == "sdA" else "sdA"
    planned = _planned(other, flag)
    reference = taylor_scheme(3, same_as)
    k = 2
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, k)
    u = op.space.random(3)
    tau = 0.05
    for form in ("compact", "butcher"):
        got = step(planned, op, red, u, tau, form=form)
        assert (got - step(reference, op, red, u, tau, form=form)).norm() == 0.0
    compact = step(planned, op, red, u, tau, form="compact")
    butcher = step(planned, op, red, u, tau, form="butcher")
    assert (compact - butcher).norm() <= 1e-13 * u.norm()
    emap = EvolutionMap(planned, op, red, tau)
    assert np.array_equal(emap.apply_array(u.coeffs),
                          EvolutionMap(reference, op, red, tau).apply_array(u.coeffs))
    for mesh in (build_mesh_1d(12), build_mesh_1d(12, 0.15, seed=3)):
        u0 = DGSpace(mesh, k).random(6)
        got = evolve(planned, mesh, k, u0, 0.105, 0.01)
        ref = evolve(reference, mesh, k, u0, 0.105, 0.01)
        assert got.path == ref.path and (got.u - ref.u).norm() == 0.0


def test_all_reduced_stage_plan_rejects_k0():
    planned = _planned("standard", True)
    mesh = build_mesh_1d(8)
    op, red = _ops(mesh, 0)
    u = op.space.random(0)
    for form in ("compact", "butcher"):
        with pytest.raises(UnsupportedDegreeError):
            step(planned, op, red, u, 1e-3, form=form)
    with pytest.raises(UnsupportedDegreeError):
        evolve(planned, mesh, 0, u, 0.01, 1e-3)
    with pytest.raises(UnsupportedDegreeError):
        EvolutionMap(planned, op, red, 1e-3)


def test_blowup_parity_with_stepping():
    k = 2
    sda3 = taylor_scheme(3, "sdA")
    # the unstable case of test_evolve_detects_blowup_above_cfl_limit
    mesh = build_mesh_1d(64)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    tau = 0.3 / 64
    got = _evolve_outcome(sda3, mesh, k, u0, 2000 * tau, tau)
    ref = _stepping_loop(sda3, mesh, k, u0, 2000 * tau, tau)
    assert got[0] is None and got[1] == ref[1] is not None

    # a non-finite initial state is flagged at the first step
    bad = u0.copy()
    bad.coeffs[5, 1] = np.nan
    assert _evolve_outcome(sda3, mesh, k, bad, 10 * tau, tau) == (None, 1)
    assert _stepping_loop(sda3, mesh, k, bad, 10 * tau, tau) == (None, 1)

    # above the 0.191 limit but with bounded growth: the Fourier route is
    # taken and, like stepping, does not flag
    mesh = build_mesh_1d(40)
    u0 = project(lambda x: np.sin(2 * np.pi * x), DGSpace(mesh, k))
    res = evolve(sda3, mesh, k, u0, 1.0, 0.22 / 40)
    assert res.path == "fourier" and res.u.norm() > 10.0 * u0.norm()
    assert _stepping_loop(sda3, mesh, k, u0, 1.0, 0.22 / 40)[1] is None


def test_accuracy_table_blowup_parity(monkeypatch):
    # fixed tau = 0.015 is cfl 0.3 at N=20 and 0.6 at N=40, above the r=3 limits
    problem = ProblemSpec(dim=1, ic="sin", final_time=1.0)
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
            u0 = project(problem.field().value, DGSpace(mesh, k))
            got = _evolve_outcome(scheme, mesh, k, u0, 1.0, 0.015)
            ref = _stepping_loop(scheme, mesh, k, u0, 1.0, 0.015)
            assert got[1] == ref[1]
