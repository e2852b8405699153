import numpy as np
import pytest

from rkdglab import experiments, schemes
from rkdglab.cli import main
from rkdglab.errors import BlowUpError, InvalidMeshError
from rkdglab.experiments import (
    ProblemSpec,
    accuracy_table,
    l2_error,
    benchmark_tau,
    regularity_problem,
    regularity_study,
    resolve_timestep,
)
from rkdglab.mesh import build_mesh, build_mesh_1d
from rkdglab.operators import DGSpace, eval_grid, project, quadrature_grid
from rkdglab.schemes import evolve, evolve_group, taylor_scheme

# spot values measured once from this implementation and frozen as
# regression guards (uniform meshes, projection initialization)
FROZEN_1D = {
    ("standard", 2, 1, 20): 4.6747422599e-03,
    ("standard", 2, 1, 40): 1.1016496936e-03,
    ("sdA", 2, 1, 20): 3.8613291094e-03,
    ("standard", 3, 2, 40): 1.3394466061e-05,
    ("sdA", 3, 2, 40): 1.0062158080e-05,
}
FROZEN_2D = {
    ("standard", 2, 1, 20): 1.6923962391e-02,
    ("sdA", 2, 1, 20): 1.5000897096e-02,
}


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(dim=1, flat=1)
    ProblemSpec(dim=2)
    for dim in (0, 3):
        with pytest.raises(ValueError, match=f"dim must be 1 or 2, got {dim}"):
            ProblemSpec(dim=dim)
    # past the constructor, a 3D problem still must not run on the 2D mesh
    spec = ProblemSpec(dim=2, final_time=0.1)
    object.__setattr__(spec, "dim", 3)
    with pytest.raises(InvalidMeshError, match="dim must be 1 or 2, got 3"):
        accuracy_table([(taylor_scheme(2), 1)], spec, (4, 8))


def test_sine_derivative_registry():
    f = ProblemSpec(dim=1)
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(f.deriv(0)(x), np.sin(2 * np.pi * x))
    assert np.allclose(f.deriv(1)(x), -2 * np.pi * np.cos(2 * np.pi * x))
    assert np.allclose(f.deriv(2)(x), -((2 * np.pi) ** 2) * np.sin(2 * np.pi * x))
    g = ProblemSpec(dim=2)
    y = x[::-1].copy()
    assert np.allclose(g.deriv(1)(x, y), -4 * np.pi * np.cos(2 * np.pi * (x + y)))
    with pytest.raises(NotImplementedError):
        ProblemSpec(dim=1, flat=2).deriv(1)


def test_l2_error_of_projected_exact_solution():
    problem = ProblemSpec(dim=1, final_time=0.25)
    mesh = build_mesh_1d(64)
    space = DGSpace(mesh, 1)
    exact = problem.exact(0.25)
    u = project(exact, space)
    err = l2_error(u, problem, 0.25)
    # matches an independent quadrature of the projection error
    x, w = quadrature_grid(space, 16)
    ref = np.sqrt(np.sum(w * (eval_grid(u, 16) - exact(x)) ** 2))
    assert err == pytest.approx(ref, rel=1e-12)
    assert 1e-5 < err < 1e-2  # O(h^2) ballpark


def test_quadrature_error_for_polynomial_member():
    # projecting a degree <= k polynomial reproduces it; quadrature error norm
    # of the reconstruction is at roundoff
    mesh = build_mesh_1d(16)
    space = DGSpace(mesh, 2)
    poly = lambda x: 0.5 - 1.3 * x + 0.75 * x**2
    u = project(poly, space)
    x, w = quadrature_grid(space, 12)
    resid = np.sqrt(np.sum(w * (eval_grid(u, 12) - poly(x)) ** 2))
    assert resid <= 1e-13


def test_quadrature_refinement_agreement():
    problem = ProblemSpec(dim=1, final_time=1.0)
    rows = accuracy_table([(taylor_scheme(2), 1)], problem, (40,))
    mesh = build_mesh_1d(40)
    space = DGSpace(mesh, 1)
    from rkdglab.schemes import evolve

    u0 = project(problem.value, space)
    u = evolve(taylor_scheme(2), u0, 1.0, benchmark_tau(2, 1, 40)).u
    e10 = l2_error(u, problem, 1.0, n_points=10)
    e14 = l2_error(u, problem, 1.0, n_points=14)
    assert abs(e10 - e14) <= 1e-3 * e14
    assert rows[0].l2_error == pytest.approx(e10, rel=1e-6)


def test_benchmark_tau_rule():
    assert benchmark_tau(2, 1, 20) == pytest.approx(0.1 / 20)
    assert benchmark_tau(4, 2, 40) == pytest.approx(0.1 / 80)
    assert benchmark_tau(5, 1, 40) == pytest.approx(0.1 / 40**1.2)


def test_accuracy_table_regression_1d():
    problem = ProblemSpec(dim=1, final_time=1.0)
    schemes = [
        (taylor_scheme(2), 1), (taylor_scheme(2, "sdA"), 1),
        (taylor_scheme(3), 2), (taylor_scheme(3, "sdA"), 2),
    ]
    rows = accuracy_table(schemes, problem, (20, 40))
    got = {(r.variant, int(r.scheme[2]), int(r.scheme[-1]), r.n): r for r in rows}
    for key, frozen in FROZEN_1D.items():
        assert got[key].l2_error == pytest.approx(frozen, rel=5e-3)
    assert got[("standard", 2, 1, 40)].eoc == pytest.approx(2.085, abs=0.02)
    assert got[("standard", 3, 2, 40)].eoc == pytest.approx(3.001, abs=0.02)


def test_accuracy_table_regression_2d():
    problem = ProblemSpec(dim=2, final_time=1.0)
    schemes = [(taylor_scheme(2), 1), (taylor_scheme(2, "sdA"), 1)]
    rows = accuracy_table(schemes, problem, (10, 20))
    got = {(r.variant, 2, 1, r.n): r for r in rows}
    for key, frozen in FROZEN_2D.items():
        assert got[key].l2_error == pytest.approx(frozen, rel=5e-3)


def test_reduced_variant_error_close_to_standard():
    # reduced-stage errors stay within a modest factor of the standard ones
    problem = ProblemSpec(dim=1, final_time=1.0)
    schemes = [(taylor_scheme(2), 1), (taylor_scheme(2, "sdA"), 1)]
    rows = accuracy_table(schemes, problem, (20, 40))
    std = {r.n: r.l2_error for r in rows if r.variant == "standard"}
    sda = {r.n: r.l2_error for r in rows if r.variant == "sdA"}
    for n in (20, 40):
        assert sda[n] <= 1.6 * std[n]


def test_zero_speed_solution_is_stationary():
    mesh = build_mesh_1d(20, beta=0.0)
    for r, k in ((2, 1), (3, 2)):
        u0 = project(ProblemSpec(dim=1).value, DGSpace(mesh, k))
        u = evolve(taylor_scheme(r), u0, 1.0, benchmark_tau(r, 1, 20)).u
        assert (u - u0).norm() <= 1e-12


def test_regularity_study_validation_and_smoke():
    with pytest.raises(ValueError):
        regularity_study([(taylor_scheme(3), 1)], "r", (20,))
    with pytest.raises(ValueError):
        regularity_study([(taylor_scheme(2), 1)], "bogus", (20,))
    rows = regularity_study([(taylor_scheme(2), 1)], "r", (40, 80), final_time=1.0)
    assert len(rows) == 2
    assert rows[1].eoc is not None and 1.0 < rows[1].eoc < 2.2


def test_regularity_study_returns_interleaved_pairs_in_pair_order():
    # RK2 and RK3 run separate tables (their flat differs); rows still follow the pairs
    pairs = [(taylor_scheme(3, "sdA"), 2), (taylor_scheme(2), 1), (taylor_scheme(3), 2)]
    rows = regularity_study(pairs, "r", (8, 16), final_time=0.1, perturb=0.15, seed=7)
    assert [(row.scheme, row.variant, row.n) for row in rows] == [
        ("RK3DG2", "sdA", 8), ("RK3DG2", "sdA", 16), ("RK2DG1", "standard", 8),
        ("RK2DG1", "standard", 16), ("RK3DG2", "standard", 8), ("RK3DG2", "standard", 16)]
    for i, pair in enumerate(pairs):
        alone = regularity_study([pair], "r", (8, 16), final_time=0.1, perturb=0.15, seed=7)
        assert rows[2 * i: 2 * i + 2] == alone


@pytest.mark.parametrize("where", [0, 1, 2])
def test_regularity_pair_without_k_of_r_minus_1_is_a_value_error_before_any_row(
        where, monkeypatch):
    monkeypatch.setattr(experiments, "evolve_group", None)
    pairs = [(taylor_scheme(2), 1), (taylor_scheme(3, "sdA"), 2)]
    pairs.insert(where, (taylor_scheme(3), 1))
    with pytest.raises(ValueError, match="r = k \\+ 1"):
        regularity_study(pairs, "r", (8, 16), final_time=0.1)


@pytest.mark.parametrize("dim", [1, 2])
def test_repeated_n_is_a_value_error_before_any_row(dim, monkeypatch):
    # its EOC would divide by log(N / N) = 0
    monkeypatch.setattr(experiments, "evolve_group", None)
    with pytest.raises(ValueError, match=r"distinct, got \(4, 4\)"):
        accuracy_table([(taylor_scheme(2), 1)], ProblemSpec(dim=dim), (4, 4))
    with pytest.raises(ValueError, match=r"distinct, got \(8, 16, 8\)"):
        regularity_study([(taylor_scheme(2), 1)], "r", (8, 16, 8), final_time=0.1, dim=dim)


def test_blown_up_row_keeps_the_step_index():
    problem = ProblemSpec(dim=1, final_time=20.0)
    scheme = taylor_scheme(3)
    (row,) = accuracy_table([(scheme, 2)], problem, (8,), timestep=0.5)
    mesh = build_mesh_1d(8)
    u0 = project(problem.value, DGSpace(mesh, 2))
    with pytest.raises(BlowUpError) as info:
        evolve(scheme, u0, 20.0, 0.5)
    assert row.flagged and np.isnan(row.l2_error)
    assert row.blowup_step == info.value.step_index == 4
    (fine,) = accuracy_table([(scheme, 2)], problem, (8,), timestep=0.01)
    assert not fine.flagged and fine.blowup_step is None


def test_perturbed_mesh_rows_are_seeded():
    problem = ProblemSpec(dim=1, final_time=1.0)
    a = accuracy_table([(taylor_scheme(2), 1)], problem, (20,), perturb=0.15, seed=7)
    b = accuracy_table([(taylor_scheme(2), 1)], problem, (20,), perturb=0.15, seed=7)
    c = accuracy_table([(taylor_scheme(2), 1)], problem, (20,), perturb=0.15, seed=8)
    assert a[0].l2_error == b[0].l2_error
    assert a[0].l2_error != c[0].l2_error
    # 2D meshes are uniform: a perturbation would be silently dropped
    problem_2d = ProblemSpec(dim=2, final_time=1.0)
    with pytest.raises(ValueError, match="perturb must be 0"):
        accuracy_table([(taylor_scheme(2), 1)], problem_2d, (4,), perturb=0.15)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_standard_error_sits_at_the_gauss_radau_ratio(k):
    # Yang & Shu (SINUM 2012): the upwind DG error of smooth transport is
    # sqrt((4k+4)/(2k+1)) times the L2-projection error of the exact
    # solution.  k = 1 is left out: its RK2 time error dominates there.
    problem = ProblemSpec(dim=1, final_time=1.0)
    mesh = build_mesh_1d(80)
    space = DGSpace(mesh, k)
    nq = problem.error_quadrature(k)
    u0 = project(problem.value, space, n_points=nq)
    res = evolve(taylor_scheme(k + 1), u0, 1.0, benchmark_tau(k + 1, 1, 80))
    best = project(problem.exact(1.0), space, n_points=nq)
    ratio = l2_error(res.u, problem, 1.0) / l2_error(best, problem, 1.0)
    assert ratio == pytest.approx(np.sqrt((4 * k + 4) / (2 * k + 1)), rel=0.01)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_smooth_eoc_reaches_design_order_1d(r):
    problem = ProblemSpec(dim=1, final_time=1.0)
    for variant in ("standard", "sdA"):
        rows = accuracy_table([(taylor_scheme(r, variant), r - 1)], problem, (80, 160, 320))
        assert abs(rows[-1].eoc - r) <= 0.05, f"{variant} r={r}: {rows[-1].eoc}"


def test_smooth_eoc_reaches_design_order_2d():
    problem = ProblemSpec(dim=2, final_time=1.0)
    rows = accuracy_table([(taylor_scheme(3, "sdA"), 2)], problem, (20, 40, 80))
    assert abs(rows[-1].eoc - 3) <= 0.05


# ---------------------------------------------------------------------------
# accuracy_table shares the mesh, u0 and exact values across schemes
# ---------------------------------------------------------------------------

def _rows_one_at_a_time(schemes, problem, n_list, timestep="benchmark", perturb=0.0, seed=0):
    """(scheme, variant, N, dofs, error, blow-up step) per row: a fresh mesh,
    projection, evolve and l2_error for every (scheme, N)."""
    out = []
    for scheme, k in schemes:
        for n in n_list:
            mesh = build_mesh(problem.dim, n, perturb, seed)
            space = DGSpace(mesh, k)
            nq = problem.error_quadrature(k)
            u0 = project(problem.value, space, n_points=nq)
            tau = resolve_timestep(timestep, scheme.order, problem.dim, n)
            try:
                res = evolve(scheme, u0, problem.final_time, tau)
                err, step = l2_error(res.u, problem, problem.final_time, n_points=nq), None
            except BlowUpError as exc:
                err, step = float("nan"), exc.step_index
            out.append((scheme.label(k), scheme.variant, n, space.n_dofs, err, step))
    return out


@pytest.mark.parametrize("schemes, problem, n_list, options", [
    ([(taylor_scheme(r, v), r - 1) for v in ("standard", "sdA") for r in (2, 3, 4)],
     ProblemSpec(dim=1), (8, 16), {}),
    ([(taylor_scheme(r, v), r - 1) for v in ("standard", "sdA") for r in (2, 3)],
     ProblemSpec(dim=1), (8, 16), dict(perturb=0.15, seed=7)),
    ([(taylor_scheme(3, v), 2) for v in ("standard", "sdA")],
     ProblemSpec(dim=2), (4, 8), {}),
    ([(taylor_scheme(3, v), 2) for v in ("standard", "sdA")],
     ProblemSpec(dim=1, flat=3, final_time=0.25), (16, 32), {}),
    # the first scheme blows up at both N; the second shares its u0 and,
    # at N = 8, does not
    ([(taylor_scheme(3, v), 2) for v in ("standard", "sdA")],
     ProblemSpec(dim=1, final_time=2.0), (8, 16), dict(timestep=0.5)),
], ids=["1d-uniform", "1d-perturbed", "2d", "sinpow", "first-blows-up"])
def test_accuracy_table_rows_equal_rows_run_one_at_a_time(schemes, problem, n_list, options):
    rows = accuracy_table(schemes, problem, n_list, **options)
    got = [(r.scheme, r.variant, r.n, r.dofs, r.l2_error, r.blowup_step) for r in rows]
    assert repr(got) == repr(_rows_one_at_a_time(schemes, problem, n_list, **options))
    if options.get("timestep") == 0.5:
        assert [r.flagged for r in rows] == [True, True, False, True]


def test_accuracy_table_sets_up_each_mesh_degree_and_error_rule_once(monkeypatch):
    counts = {"mesh": [], "project": [], "exact": []}

    def counting(key, fn, tag):
        def wrapper(*args, **kwargs):
            counts[key].append(tag(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "build_mesh",
                        counting("mesh", experiments.build_mesh, lambda dim, n, *a: n))
    monkeypatch.setattr(experiments, "project",
                        counting("project", experiments.project,
                                 lambda f, space, *a: (space.mesh.n_cells, space.degree)))
    monkeypatch.setattr(experiments, "grid_values",
                        counting("exact", experiments.grid_values, lambda f, points: points[0].shape))
    # degrees 1, 2 and 7 (error rules of 10, 10 and 11 points), two schemes each
    schemes = [(taylor_scheme(r, v), k) for v in ("standard", "sdA") for r, k in ((2, 1), (3, 2), (3, 7))]
    problem = ProblemSpec(dim=1, final_time=0.1)
    rows = accuracy_table(schemes, problem, (8, 16))
    assert not any(r.flagged for r in rows)
    assert counts["mesh"] == [8, 16]
    assert counts["project"] == [(8, 1), (8, 2), (8, 7), (16, 1), (16, 2), (16, 7)]
    assert counts["exact"] == [(8, 10), (8, 11), (16, 10), (16, 11)]


def test_accuracy_table_shares_read_only_arrays(monkeypatch):
    seen = []

    def evolve_writing(group, u0, *args):
        with pytest.raises(ValueError, match="read-only"):
            u0.coeffs[0, 0] = 0.0
        seen.append("u0")
        return evolve_group(group, u0, *args)

    def distance_writing(u, w, exact, nq):
        with pytest.raises(ValueError, match="read-only"):
            exact[0] = 0.0
        seen.append("exact")
        return distance(u, w, exact, nq)

    distance = experiments._l2_distance
    monkeypatch.setattr(experiments, "evolve_group", evolve_writing)
    monkeypatch.setattr(experiments, "_l2_distance", distance_writing)
    schemes = [(taylor_scheme(2, v), 1) for v in ("standard", "sdA")]
    for dim in (1, 2):
        seen.clear()
        accuracy_table(schemes, ProblemSpec(dim=dim, final_time=0.1), (4,))
        assert seen == ["u0", "exact", "exact"]     # the pair shares (k, tau): one group


def test_a_table_assembles_the_operators_once_per_n_and_degree(monkeypatch, capsys):
    # each N's variant pair shares (k, tau): one evolve_group, one assembly
    calls = []
    real = schemes.stage_operators

    def counted(mesh, k):
        calls.append((mesh.n_cells, k))
        return real(mesh, k)

    monkeypatch.setattr(schemes, "stage_operators", counted)
    assert main("accuracy --r 2,3,4 --variant both --N 40,80,160 --perturb 0.15".split()) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4 + 18
    assert sorted(calls) == sorted((n, k) for n in (40, 80, 160) for k in (1, 2, 3))


def test_regularity_problem_sets_flat_and_default_time_from_the_order():
    assert regularity_problem(3, "r", None, 1) == ProblemSpec(dim=1, flat=3,
                                                               final_time=1.0)
    assert regularity_problem(4, "r+1", None, 2) == ProblemSpec(dim=2, flat=5,
                                                                 final_time=500.0)
    assert regularity_problem(2, "r", 0.25, 1).final_time == 0.25
    with pytest.raises(ValueError, match="flat_mode"):
        regularity_problem(2, "bogus", None, 1)
