import itertools
import sys

import numpy as np
import pytest

from rkdglab import operators, stability
from rkdglab.cli import DEFAULT_CFL_GRID
from rkdglab.errors import InvalidMeshError, PowerIterationError, UnsupportedDegreeError
from rkdglab.mesh import build_mesh, build_mesh_1d, build_mesh_2d
from rkdglab.operators import (
    BlockOperator,
    DGSpace,
    assemble_upwind,
    operator_norm,
    shift_solver,
    top_eigenvalue,
)
from rkdglab.stability import (
    BRACKET_RTOL,
    DELTA_FLOOR,
    NORM_RESOLUTION,
    cfl_sweep,
    delta,
    evolution_map,
    excess_operator,
    fourier_cfl,
)
from rkdglab.schemes import EvolutionMap, SchemeSpec, taylor_scheme


def test_delta_identity_floor():
    pt = delta(taylor_scheme(2), build_mesh_1d(16), 1, 0.0, 1)
    assert pt.delta == DELTA_FLOOR


def test_delta_monotone_scheme_at_floor():
    pt = delta(taylor_scheme(3, "sdA"), build_mesh_1d(32), 2, 0.10, 1)
    assert pt.delta == DELTA_FLOOR


def test_delta_strong2_pattern():
    mesh = build_mesh_1d(32)
    scheme = taylor_scheme(4)
    one = delta(scheme, mesh, 3, 0.05, 1)
    two = delta(scheme, mesh, 3, 0.05, 2)
    assert one.delta > DELTA_FLOOR
    assert two.delta == DELTA_FLOOR


def _delta_by_norm(scheme, mesh, k, cfl, m, method):
    """delta's value from operator_norm's cross-check method, with its snap and floor."""
    nrm = operator_norm(evolution_map(scheme, mesh, k, cfl), method, m=m)
    excess = nrm * nrm - 1.0
    return max(0.0 if abs(excess) < NORM_RESOLUTION else excess, DELTA_FLOOR)


def test_delta_methods_agree():
    mesh = build_mesh_1d(8)
    scheme = taylor_scheme(2)
    auto = delta(scheme, mesh, 1, 0.5, 1).delta
    dense = _delta_by_norm(scheme, mesh, 1, 0.5, 1, "dense_svd")
    power = _delta_by_norm(scheme, mesh, 1, 0.5, 1, "power_iteration")
    assert auto == pytest.approx(dense, rel=1e-12)
    assert auto == pytest.approx(power, rel=1e-7)
    mesh2 = build_mesh_2d(4, 4)
    a2 = delta(scheme, mesh2, 1, 0.6, 1).delta
    d2 = _delta_by_norm(scheme, mesh2, 1, 0.6, 1, "dense_svd")
    assert a2 == pytest.approx(d2, rel=1e-12)


def test_cfl_sweep_single_point_and_order():
    scheme = taylor_scheme(3, "sdA")
    single = cfl_sweep(scheme, 2, 1, (32,), 1, (0.10,))
    assert len(single) == 1
    assert single[0].delta == delta(scheme, build_mesh_1d(32), 2, 0.10, 1).delta
    pts = cfl_sweep(scheme, 2, 1, (16, 32), 1, (0.05, 0.10))
    assert [(p.n, p.cfl) for p in pts] == [(16, 0.05), (16, 0.10), (32, 0.05), (32, 0.10)]
    with pytest.raises(ValueError):
        cfl_sweep(scheme, 2, 1, (), 1, (0.1,))
    with pytest.raises(ValueError, match="distinct"):
        cfl_sweep(scheme, 2, 1, (16, 32, 16), 1, (0.1,))
    # a dimension other than 1 or 2 has no mesh: it must not fall through to the 2D one
    with pytest.raises(InvalidMeshError, match="dim must be 1 or 2, got 3"):
        cfl_sweep(taylor_scheme(2), 1, 3, (4,), 1, (0.1,))


def test_cfl_sweep_flags_numerical_failures_only(monkeypatch):
    with pytest.raises(UnsupportedDegreeError):
        cfl_sweep(taylor_scheme(2, "sdA"), 0, 1, (8,), 1, (0.1,))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(stability, "growth_excess", fail)
    (point,) = cfl_sweep(taylor_scheme(2), 1, 1, (8,), 1, (0.1,))
    assert point.flagged and np.isnan(point.delta)


@pytest.mark.parametrize("excess", [np.nan, np.inf])
def test_a_growth_that_is_not_finite_is_flagged_as_a_failure(excess, monkeypatch):
    monkeypatch.setattr(stability, "growth_excess", lambda emap, m: (excess, "symbol"))
    with pytest.raises(np.linalg.LinAlgError, match="growth is not finite"):
        delta(taylor_scheme(2), build_mesh_1d(8), 1, 0.1)
    (point,) = cfl_sweep(taylor_scheme(2), 1, 1, (8,), 1, (0.1,))
    assert point.flagged and np.isnan(point.delta) and point.route is None


@pytest.mark.parametrize("r, cfl, m", [(2, 1e80, 2), (3, 1e150, 1), (4, 1e100, 1)])
def test_symbol_norm_refuses_symbols_that_are_not_finite_before_the_svd(r, cfl, m, monkeypatch):
    # these symbols (or their m-th powers) overflow; handed to the SVD,
    # they make LAPACK print argument errors to stdout
    emap = evolution_map(taylor_scheme(r), build_mesh_1d(4), r - 1, cfl)
    lapack_inputs = []

    def recorded(real):
        def call(a, *args, **kwargs):
            lapack_inputs.append(np.isfinite(a).all())
            return real(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", recorded(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "cholesky", recorded(np.linalg.cholesky))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            operator_norm(emap, "symbol", m=m)
        (point,) = cfl_sweep(taylor_scheme(r), r - 1, 1, (4,), m, (cfl,))
    assert point.flagged
    assert all(lapack_inputs)


@pytest.mark.parametrize("dim", [1, 2])
def test_cfl_sweep_builds_each_mesh_once(dim, monkeypatch):
    # one mesh, one pair of operators and one set of their symbols per N,
    # and every row is the one delta computes on its own
    counts = {"mesh": 0, "assemble": 0, "symbols": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(stability, "build_mesh", counted("mesh", stability.build_mesh))
    monkeypatch.setattr(operators, "assemble_upwind", counted("assemble", operators.assemble_upwind))
    monkeypatch.setattr(BlockOperator, "symbols", counted("symbols", BlockOperator.symbols))
    n_list, grid = (8, 12), (0.05, 0.2, 0.35)
    for scheme in (taylor_scheme(3), taylor_scheme(3, "sdA")):
        counts.update(mesh=0, assemble=0, symbols=0)
        points = cfl_sweep(scheme, 2, dim, n_list, 2, grid)
        per_mesh_symbols = 2 if scheme.variant == "sdA" else 1
        assert counts == {"mesh": 2, "assemble": 2, "symbols": 2 * per_mesh_symbols}
        singles = [delta(scheme, build_mesh(dim, n), 2, cfl, 2)
                   for n in n_list for cfl in grid]
        assert [repr(p) for p in points] == [repr(p) for p in singles]


def test_weak_stability_slopes():
    # quadratic-stage scheme with k=2: growth ~ cfl^4; fifth-order with k=4: ~ cfl^6
    cfls = np.geomspace(0.01, 0.05, 6)
    for r, k, expo, tol in ((2, 2, 4.0, 0.5), (5, 4, 6.0, 0.7)):
        ds = [delta(taylor_scheme(r), build_mesh_1d(32), k, c, 1).delta for c in cfls]
        slope = np.polyfit(np.log(cfls), np.log(ds), 1)[0]
        assert abs(slope - expo) <= tol, f"r={r} k={k}: slope {slope}"


def test_delta_monotone_in_cfl_beyond_threshold():
    scheme = taylor_scheme(3)
    grid = np.linspace(0.05, 0.45, 9)
    ds = [delta(scheme, build_mesh_1d(32), 2, c, 1).delta for c in grid]
    started = False
    for a, b in zip(ds, ds[1:]):
        if a > DELTA_FLOOR:
            started = True
        if started:
            assert b >= a * (1.0 - 1e-12)


def test_delta_curves_similar_across_n():
    scheme = taylor_scheme(2)
    k = 1
    for cfl in (0.35, 0.4, 0.45):
        vals = [delta(scheme, build_mesh_1d(n), k, cfl, 1).delta for n in (16, 32, 64)]
        if all(v > DELTA_FLOOR for v in vals):
            assert max(vals) <= 3.0 * min(vals)


def test_symbol_annihilates_constants_at_zero_angle():
    for k in (1, 3):
        s0 = assemble_upwind(build_mesh_1d(16), k).symbols([[0.0]])[0]
        const = np.zeros(k + 1)
        const[0] = 1.0
        assert np.abs(s0 @ const).max() <= 1e-13


def test_fourier_cfl_table_spot_values(cfl_family):
    assert cfl_family[("sdA", 2)].value == pytest.approx(0.333, abs=0.005)
    assert cfl_family[("standard", 4)].value == pytest.approx(0.145, abs=0.005)
    assert cfl_family[("sdA", 3)].value == pytest.approx(0.191, abs=0.005)


#: Fourier CFL numbers for r = 2..8, k = r - 1, frozen as printed by repr
FROZEN_CFL = {
    "standard": ("0.3330078125", "0.20947265625", "0.14501953125", "0.115234375",
                 "0.09375", "0.08056640625", "0.06982421875"),
    "sdA": ("0.3330078125", "0.19091796875", "0.126953125", "0.1044921875",
            "0.08544921875", "0.076171875", "0.064453125"),
}


@pytest.mark.parametrize("variant", ["standard", "sdA"])
def test_fourier_cfl_frozen_table(variant, cfl_family):
    values = tuple(repr(cfl_family[(variant, r)].value) for r in range(2, 9))
    assert values == FROZEN_CFL[variant]


def test_fourier_cfl_variants_agree_at_second_order(cfl_family):
    a = cfl_family[("standard", 2)]
    b = cfl_family[("sdA", 2)]
    assert a.found and b.found
    assert abs(a.value - b.value) <= 5e-4 * 2  # within bisection tolerance


def test_fourier_cfl_stops_at_its_cap(monkeypatch):
    # no Taylor scheme is stable up to CFL_MAX = 2; below RK2's 1/3 the cap
    # is stable, and the first test settles the search
    monkeypatch.setattr(stability, "CFL_MAX", 0.05)
    assert fourier_cfl(taylor_scheme(2), 1) == stability.FourierCfl(0.05)


def _eigvals_per_round_radii(scheme, k, c):
    """Spectral radii of the one-step symbol G at the sampled angles of [0, pi], G formed at c."""
    op, red = operators.stage_operators(build_mesh_1d(stability.CFL_ANGLES), k)
    angles = operators.fft_angles(op.space)[: stability.CFL_ANGLES // 2 + 1]
    emap = EvolutionMap(scheme, op, red, c / stability.CFL_ANGLES)
    g = np.eye(k + 1) + emap.increment_of(op.symbols(angles), red.symbols(angles))
    return np.abs(np.linalg.eigvals(g)).max(axis=1)


#: (scheme, CFL number) of every plan whose decisions are checked against eigvals
_DECISION_CASES = ([(taylor_scheme(r, v), float(FROZEN_CFL[v][r - 2]))
                    for v in ("standard", "sdA") for r in range(2, 9)]
                   + [(SchemeSpec(3, (False, True, False)), 0.2197265625),
                      (SchemeSpec(3, (True, False, False)), 0.23828125)])


@pytest.mark.parametrize("scheme, cfl", _DECISION_CASES,
                         ids=[f"{s.variant}-r{s.order}" for s, _ in _DECISION_CASES])
def test_eigen_once_radii_match_per_round_eigvals(scheme, cfl):
    # a standard plan decides from the full symbol's eigenvalues, found
    # once, any other plan from G(c) evaluated on its coefficients in c; the
    # per-round eigenvalues of G, formed from symbols at explicit angles,
    # are the reference, on both sides of the CFL number
    k = scheme.order - 1
    stable = stability._cfl_stable(scheme, k)
    decided = []
    for c in (0.05, 0.2, 0.35, 1.0, 2.0, cfl, cfl + 5e-4):
        ref = _eigvals_per_round_radii(scheme, k, c) <= 1.0 + stability.CFL_GROWTH_TOL
        got = stable(c, stability._CFL_HALF)
        assert got.shape == (stability.CFL_ANGLES // 2 + 1,)
        assert np.array_equal(got, ref), c
        decided.append(got.all())
    assert decided[-2:] == [True, False]


@pytest.mark.parametrize("scheme", [
    taylor_scheme(3),
    taylor_scheme(3, "sdA"),
    SchemeSpec(3, (False, True, False)),
], ids=["standard", "sdA", "mixed"])
def test_fourier_cfl_eigvals_calls(scheme, monkeypatch):
    # one eigvals call per search on a plan with full inner stages; none on
    # any other plan, whose rounds decide by the Schur-Cohn test
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    assert fourier_cfl(scheme, 2).found
    if scheme.variant == "standard":
        assert calls == [(stability.CFL_ANGLES // 2 + 1, 3, 3)]
    else:
        assert calls == []


def _eigvals_decision(g):
    return np.abs(np.linalg.eigvals(g)).max(axis=1) <= 1.0 + stability.CFL_GROWTH_TOL


@pytest.mark.parametrize("scheme, k", [(taylor_scheme(r, "sdA"), r - 1) for r in range(2, 9)]
                         + [(SchemeSpec(3, (False, True, False)), 2),
                            (SchemeSpec(3, (True, False, False)), 2),
                            (taylor_scheme(2, "sdA"), 6)]
                         + [(taylor_scheme(2, "sdA"), k) for k in (9, 10)]
                         + [(taylor_scheme(3, "sdA"), 13),
                            (SchemeSpec(3, (False, True, False)), 12)],
                         ids=[f"sdA-r{r}" for r in range(2, 9)] + ["FR-r3", "RF-r3", "sdA-r2-k6",
                              "sdA-r2-k9", "sdA-r2-k10", "sdA-r3-k13", "FR-r3-k12"])
def test_schur_cohn_decision_is_the_eigvals_decision(scheme, k):
    # every row of every round agrees with the eigenvalues of G, on 25 values
    # of c up to twice the CFL number and at 5e-4 and 1e-3 either side of it;
    # stacks of order k + 1 on both sides of SCHUR_COHN_MAX_ORDER
    cfl = fourier_cfl(scheme, k).value
    ops = operators.stage_operators(build_mesh_1d(stability.CFL_ANGLES), k)
    grid = np.concatenate([np.linspace(2 * cfl / 25, 2 * cfl, 25),
                           cfl + np.array([-1e-3, -5e-4, 5e-4, 1e-3])])
    both = set()
    for c in grid:
        g = stability._step_map(scheme, ops, c).norm_symbols(stability._CFL_HALF)
        got = stability._spectrum_inside(g, 1.0 + stability.CFL_GROWTH_TOL)
        assert np.array_equal(got, _eigvals_decision(g)), c
        both.add(bool(got.all()))
    assert both == {True, False}


#: (r, k, CFL number) of sdA as a search deciding every round by eigvals finds it
_EIGVALS_CFL = [(2, 6, 0.0068359375), (2, 7, 0.00537109375), (2, 10, 0.0029296875),
                (2, 11, 0.00244140625), (2, 12, 0.001953125), (2, 13, 0.001953125),
                (2, 14, 0.00146484375), (2, 15, 0.00146484375), (2, 16, 0.00146484375),
                (3, 13, 0.015625), (4, 12, 0.01904296875), (5, 12, 0.01708984375)]


@pytest.mark.parametrize("r, k, cfl", _EIGVALS_CFL,
                         ids=[f"{k}-{cfl}" if r == 2 else f"r{r}-{k}-{cfl}" for r, k, cfl in _EIGVALS_CFL])
def test_fourier_cfl_resolves_eigenvalues_crowding_round_one(r, k, cfl):
    # at high degree sdA is stable only at small c, where the eigenvalues of
    # G crowd round z = 1; these are the numbers an eigvals search finds
    assert fourier_cfl(taylor_scheme(r, "sdA"), k) == stability.FourierCfl(value=cfl)


def test_schur_cohn_rejects_rows_that_are_not_finite_and_radii_not_above_zero():
    # on stacks of order 4 (Schur-Cohn) and 13 (above SCHUR_COHN_MAX_ORDER), each
    # at a stable c
    scheme = taylor_scheme(4, "sdA")
    for k, c in ((3, 0.1), (12, 0.01)):
        ops = operators.stage_operators(build_mesh_1d(stability.CFL_ANGLES), k)
        g = stability._step_map(scheme, ops, c).norm_symbols(stability._CFL_HALF).copy()
        g[3, 0, 1] = np.inf
        g[7, 2, 2] = np.nan
        g[11, 1, 0] = -np.inf
        got = stability._spectrum_inside(g, 1.0 + stability.CFL_GROWTH_TOL)
        finite = np.isfinite(g).all(axis=(1, 2))
        assert not got[~finite].any() and got[finite].all()
        assert np.array_equal(got[finite], _eigvals_decision(g[finite]))
        for radius in (0.0, -1.0, -np.inf):
            assert not stability._spectrum_inside(g[finite], radius).any()


#: every plan of r = 3 and 4 whose inner stages read the reduced operator
_REDUCED_PLANS = [SchemeSpec(r, flags + (False,)) for r in (3, 4)
                  for flags in itertools.product((False, True), repeat=r - 1) if any(flags)]


@pytest.mark.parametrize("scheme", _REDUCED_PLANS, ids=[s.variant for s in _REDUCED_PLANS])
def test_fourier_cfl_reads_g_from_the_kept_symbols(scheme, monkeypatch):
    # a plan with reduced inner stages forms the coefficients of G(c) in c
    # once per search, from symbols each operator forms once, through the one
    # map that _step_map builds at c = 1; no round builds a map or reads
    # EvolutionMap.norm_symbols
    k = scheme.order - 1
    built, read, formed, stacks = [], [], [], []
    init, symbols = EvolutionMap.__init__, BlockOperator.symbols
    coefficients = EvolutionMap.increment_coefficients

    def counted_init(self, scheme, full_op, reduced_op, tau):
        built.append(tau)
        init(self, scheme, full_op, reduced_op, tau)

    def counted_symbols(self, angles):
        formed.append(id(self))
        return symbols(self, angles)

    def counted_coefficients(self, rows=...):
        stacks.append(self.tau)
        return coefficients(self, rows)

    with monkeypatch.context() as patch:
        patch.setattr(EvolutionMap, "__init__", counted_init)
        patch.setattr(EvolutionMap, "norm_symbols", lambda self, rows=...: read.append(rows))
        patch.setattr(BlockOperator, "symbols", counted_symbols)
        patch.setattr(EvolutionMap, "increment_coefficients", counted_coefficients)
        assert fourier_cfl(scheme, k).found
    assert built == stacks == [1.0 / stability.CFL_ANGLES]
    assert read == []
    assert len(formed) == len(set(formed)) == 2
    # the G(c) that decides a round is the map's kept one-step symbol
    ops = operators.stage_operators(build_mesh_1d(stability.CFL_ANGLES), k)
    stable = stability._cfl_stable(scheme, k)
    decided = []
    monkeypatch.setattr(stability, "_spectrum_inside", lambda g, radius: decided.append(g))
    for c in (0.01, 0.1, 0.5, 2.0):
        stable(c, stability._CFL_HALF)
        ref = stability._step_map(scheme, ops, c).norm_symbols(stability._CFL_HALF)
        err = np.abs(decided[-1] - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert err.max() <= 1e-13, c


def _full_spectrum_tops(op, m):
    """sigma_max of every symbol's m-th power over the full spectrum: the symbol route's reference."""
    return np.linalg.svd(np.linalg.matrix_power(op.norm_symbols(), m), compute_uv=False)[..., 0]


@pytest.mark.parametrize("dim, n", [(1, 5), (1, 16), (2, 4), (2, 5)])
def test_half_spectrum_symbol_norm_is_the_full_spectrum_norm(dim, n):
    # repr-equal over the default CFL grid; the half spectrum alone misses
    # the last bit at some points, which the mirror recheck restores
    mesh = build_mesh(dim, n)
    misses = 0
    for r in (2, 3, 4, 5):
        ops = operators.stage_operators(mesh, r - 1)
        for m in (1, 2):
            top = _full_spectrum_tops(ops[0], m)
            assert repr(operator_norm(ops[0], "symbol", m=m)) == repr(float(top.max()))
            for variant in ("standard", "sdA"):
                for cfl in DEFAULT_CFL_GRID:
                    emap = stability._step_map(taylor_scheme(r, variant), ops, cfl)
                    top = _full_spectrum_tops(emap, m)
                    got = operator_norm(emap, "symbol", m=m)
                    assert repr(got) == repr(float(top.max())), (r, variant, m, cfl)
                    misses += top[..., : n // 2 + 1].max() != got
    assert misses > 0


@pytest.mark.parametrize("dim, n", [(1, 5), (1, 16), (2, 4), (2, 5)])
def test_symbol_floor_certificate_keeps_the_svd_delta(dim, n):
    # the certificate holds exactly where the SVD route prints the floor, and
    # the printed delta is the SVD route's, repr for repr; each mesh has
    # points on both sides of the certificate
    mesh = build_mesh(dim, n)
    certified = set()
    for r in (2, 3, 4, 5):
        ops = operators.stage_operators(mesh, r - 1)
        for m in (1, 2):
            for variant in ("standard", "sdA"):
                scheme = taylor_scheme(r, variant)
                for cfl in DEFAULT_CFL_GRID:
                    emap = stability._step_map(scheme, ops, cfl)
                    g = operators.symbol_powers(emap, operators.half_spectrum(mesh.cells), m)
                    floor = stability._floor_certified(g)
                    point = stability._growth_point(emap, cfl, m)
                    svd = _delta_by_norm(scheme, mesh, r - 1, cfl, m, "symbol")
                    assert repr(point.delta) == repr(svd), (r, variant, m, cfl)
                    assert point.route == "symbol"
                    assert floor == (svd == DELTA_FLOOR), (r, variant, m, cfl)
                    certified.add(floor)
    assert certified == {True, False}


@pytest.mark.parametrize("dim", [1, 2])
def test_a_uniform_growth_point_forms_its_symbol_stack_once(dim, monkeypatch):
    # a certified point reads the map's symbols once, the half spectrum; any
    # other point reads them once more, for the mirror partners alone.  At
    # m = 2 each stack read is raised to its power once, the half stack too
    mesh = build_mesh(dim, 8)
    half = operators.half_spectrum(mesh.cells)
    ops = operators.stage_operators(mesh, 2)
    reads, powers, certified = [], [], []
    norm_symbols, matrix_power, floor = (EvolutionMap.norm_symbols, np.linalg.matrix_power,
                                         stability._floor_certified)

    def counted_norm_symbols(self, rows=...):
        reads.append(rows)
        return norm_symbols(self, rows)

    def counted_power(a, n):
        powers.append(a.shape[:-2])
        return matrix_power(a, n)

    def recorded_floor(g):
        certified.append(floor(g))
        return certified[-1]

    monkeypatch.setattr(EvolutionMap, "norm_symbols", counted_norm_symbols)
    monkeypatch.setattr(np.linalg, "matrix_power", counted_power)
    monkeypatch.setattr(stability, "_floor_certified", recorded_floor)
    seen = set()
    for m in (1, 2):
        for variant in ("standard", "sdA"):
            for cfl in DEFAULT_CFL_GRID:
                for record in (reads, powers, certified):
                    record.clear()
                stability._growth_point(stability._step_map(taylor_scheme(3, variant), ops, cfl),
                                        cfl, m)
                assert len(certified) == 1
                assert reads[0] == half
                assert len(reads) == (1 if certified[0] else 2)
                assert len(powers) == (m - 1) * len(reads)
                assert powers[:m - 1] == [mesh.cells[:-1] + (8 // 2 + 1,)] * (m - 1)
                seen.add(certified[0])
    assert seen == {True, False}


def test_fourier_cfl_rejects_k0():
    with pytest.raises(ValueError):
        fourier_cfl(taylor_scheme(2), 0)


def test_fourier_cfl_reports_flag_when_nothing_is_stable(monkeypatch):
    # with an unsatisfiable growth threshold the search reports 0, flagged
    monkeypatch.setattr(stability, "CFL_GROWTH_TOL", -1.0)
    res = fourier_cfl(taylor_scheme(2), 1)
    assert res.value == 0.0 and not res.found


# ---------------------------------------------------------------------------
# growth metric routes on perturbed meshes
# ---------------------------------------------------------------------------

def _no_dense(self):
    raise AssertionError("dense matrix assembled")


@pytest.mark.parametrize("m", [1, 2])
def test_growth_routes_agree_with_dense_svd_on_perturbed_meshes(m):
    # the cfl grid straddles the floor: both the certificate and the bracket
    # route are taken, and both match the dense SVD of K^m
    routes = set()
    for r, k, variant in ((3, 2, "standard"), (4, 3, "sdA")):
        scheme = taylor_scheme(r, variant)
        for seed in (4, 9):
            mesh = build_mesh_1d(24, 0.15, seed=seed)
            for cfl in (0.05, 0.1, 0.15, 0.2):
                got = delta(scheme, mesh, k, cfl, m)
                ref = _delta_by_norm(scheme, mesh, k, cfl, m, "dense_svd")
                assert abs(got.delta - ref) <= 1e-6 * ref + 1e-12, (r, seed, cfl)
                routes.add(got.route)
    assert routes == {"certificate", "bracket"}


#: the benchmark's two perturbed-mesh points below the cap: (N, k, r, variant) at cfl 0.1
BRACKET_POINTS = [(256, 2, 3, "standard"), (200, 3, 4, "sdA")]


def _count_factorizations(monkeypatch, limit=100):
    """Count shift_solver calls, from stability or from a wrapper in operators; raise past
    limit, so a bracket that does not end fails."""
    calls = []
    factor = operators.shift_solver

    def counted(op, bound):
        calls.append(bound)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} factorizations")
        return factor(op, bound)

    monkeypatch.setattr(operators, "shift_solver", counted)
    monkeypatch.setattr(stability, "shift_solver", counted)
    return calls


def _holds_the_top(point, top):
    return top - 1e-15 <= point.delta <= top + BRACKET_RTOL * top + NORM_RESOLUTION + 1e-15


@pytest.mark.parametrize("n, k, r, variant", BRACKET_POINTS)
def test_bracket_route_holds_the_top_eigenvalue(n, k, r, variant, monkeypatch):
    # bisection on certificates, then inverse iteration at a certified
    # shift, builds no dense matrix; the pin is eigvalsh of the dense S_1.
    # The cost pin: bisection alone made 35-36 factorizations per point, and
    # the inverse phase solves with the solver its certified shift kept
    scheme = taylor_scheme(r, variant)
    meshes = [build_mesh_1d(n, 0.15, seed=seed) for seed in range(6)]
    tops = [np.linalg.eigvalsh(excess_operator(evolution_map(scheme, mesh, k, 0.1)).as_dense())[-1]
            for mesh in meshes]
    monkeypatch.setattr(BlockOperator, "as_dense", _no_dense)
    monkeypatch.setattr(EvolutionMap, "as_dense", _no_dense)
    calls = _count_factorizations(monkeypatch)
    for seed, (mesh, top) in enumerate(zip(meshes, tops)):
        calls.clear()
        point = delta(scheme, mesh, k, 0.1)
        assert point.route == "bracket", seed
        assert _holds_the_top(point, top), seed
        assert len(calls) <= 17, (seed, len(calls))
        assert len(set(calls)) == len(calls), (seed, calls)


_inverse_iteration = stability._inverse_iteration


def _low_stalled_quotient(solve, n, hi, width):
    # a quotient that stalls 1e-6 below the top: its certificate at
    # lo + width / 2 fails, and bisection has to go on
    theta, _ = _inverse_iteration(solve, n, hi, width)
    return theta * (1.0 - 1e-6), True


@pytest.mark.parametrize("fallback", ["no inverse steps", "low stalled quotient"])
def test_bracket_without_inverse_iteration_still_holds_the_top(fallback, monkeypatch):
    # the bench points (mesh seed 0) and the meshes of
    # test_growth_routes_agree_with_dense_svd_on_perturbed_meshes
    cases = [(taylor_scheme(r, variant), build_mesh_1d(n, 0.15, seed=0), k, 0.1, 1)
             for n, k, r, variant in BRACKET_POINTS]
    cases += [(taylor_scheme(r, variant), build_mesh_1d(24, 0.15, seed=seed), k, cfl, m)
              for r, k, variant in ((3, 2, "standard"), (4, 3, "sdA")) for seed in (4, 9)
              for cfl in (0.05, 0.1, 0.15, 0.2) for m in (1, 2)]
    if fallback == "no inverse steps":
        monkeypatch.setattr(stability, "INVERSE_MAX_STEPS", 0)
    else:
        monkeypatch.setattr(stability, "_inverse_iteration", _low_stalled_quotient)
    calls = _count_factorizations(monkeypatch)
    brackets = 0
    for scheme, mesh, k, cfl, m in cases:
        emap = evolution_map(scheme, mesh, k, cfl)
        top = np.linalg.eigvalsh(excess_operator(emap, m).as_dense())[-1]
        calls.clear()
        point = delta(scheme, mesh, k, cfl, m)
        if point.route == "bracket":
            brackets += 1
            assert _holds_the_top(point, top), (mesh.cells, k, cfl, m)
        else:
            assert point.route == "certificate" and top < NORM_RESOLUTION
    assert brackets >= 2 + 16


def test_excess_operator_is_the_gram_excess_of_the_m_step_map():
    emap = evolution_map(taylor_scheme(3, "sdA"), build_mesh_1d(12, 0.2, seed=3), 2, 0.2)
    k = emap.as_dense()
    for m in (1, 2, 3):
        km = np.linalg.matrix_power(k, m)
        excess = excess_operator(emap, m)
        assert sorted(excess.blocks) == [(o,) for o in range(-3 * m, 3 * m + 1)]
        assert np.abs(excess.as_dense() - (km.T @ km - np.eye(len(k)))).max() <= 1e-12


#: (cells, modes, block bandwidth b) of random symmetric operators: n = 2b + 1,
#: n < 2b + 1 (a ring of two super-blocks at n = 2b, one dense block below),
#: b = 0, the primes 37, 41 and 1009, and between them rings of odd and of even
#: size at every level of the reduction
CERTIFICATE_CASES = [(5, 2, 2), (7, 2, 3), (4, 2, 2), (3, 1, 2), (6, 2, 0), (11, 4, 0), (9, 3, 1),
                     (16, 1, 3), (20, 3, 2), (24, 1, 1), (13, 1, 0), (37, 2, 3), (41, 3, 2),
                     (41, 4, 1), (700, 1, 1), (1009, 1, 2)]


def _certificate_operators():
    """(op, dense, top) for each of CERTIFICATE_CASES."""
    rng = np.random.Generator(np.random.PCG64(5))
    for n, p, b in CERTIFICATE_CASES:
        space = DGSpace(build_mesh_1d(n, 0.2, seed=n), p - 1)
        e = BlockOperator(space, {(-j,): 0.3 * rng.standard_normal((n, p, p)) for j in range(b + 1)})
        sym = e + e.transpose() + e.transpose() @ e
        dense = sym.as_dense()
        yield sym, dense, np.linalg.eigvalsh(dense)[-1]


def _dense_cholesky_passes(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def test_certificate_brackets_the_top_eigenvalue():
    # each decision at top -+ 1e-9 is that of the dense Cholesky of bound I - op
    parities = set()
    for (n, p, b), (sym, dense, top) in zip(CERTIFICATE_CASES, _certificate_operators()):
        for bound, certified in ((top - 1e-9, False), (top + 1e-9, True)):
            assert _dense_cholesky_passes(bound * np.eye(n * p) - dense) == certified
            # shifted by top + 1 the bound is negative; the padding keeps its unit diagonal
            for shift in (0.0, top + 1.0):
                solve = shift_solver(sym + -shift * np.eye(p), bound - shift)
                assert (solve is not None) == certified, (n, p, b)
        # ring sizes level by level: each level halves the ring, rounding up
        size, level = sym._ring[0].shape[0], 0
        while size > 1:
            parities.add((level, size % 2))
            size, level = size - size // 2, level + 1
    deepest = max(level for level, _ in parities)
    assert parities >= {(level, parity) for level in range(deepest) for parity in (0, 1)}


def test_shift_solver_is_the_dense_solve():
    # rings of one and two super-blocks, padding and the periodic wrap: the
    # solve of (bound I - op) y = b retraces the certificate's reduction
    rng = np.random.Generator(np.random.PCG64(7))
    for (n, p, b), (sym, dense, top) in zip(CERTIFICATE_CASES, _certificate_operators()):
        rhs = rng.standard_normal(n * p)
        ref = np.linalg.solve((top + 1.0) * np.eye(n * p) - dense, rhs)
        # shifted by top + 1 the bound is 0; the padding keeps its unit diagonal
        for shift in (0.0, top + 1.0):
            got = shift_solver(sym + -shift * np.eye(p), top + 1.0 - shift)(rhs)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), (n, p, b, shift)
        assert shift_solver(sym, top - 1e-9) is None


def test_certificate_sees_the_periodic_wrap():
    # T + T^T for the cyclic shift T has top eigenvalue 2 (the constants);
    # without the wrap it would be a path graph, 2 cos(pi / 51) < 1.999
    space = DGSpace(build_mesh_1d(50), 0)
    shift = BlockOperator(space, {(1,): np.ones((1, 1))})
    sym = shift + shift.transpose()
    assert shift_solver(sym, 1.999) is None
    assert shift_solver(sym, 2.0 + 1e-9) is not None
    # a band too wide for the mesh sums its aliased offsets: (T + T^T)^2 on
    # 4 cells has eigenvalues 4, 0, 4, 0; 2D operators are never certified
    narrow = BlockOperator(DGSpace(build_mesh_1d(4), 0), {(1,): np.ones((1, 1)), (-1,): np.ones((1, 1))})
    assert shift_solver(narrow @ narrow, 100.0) is not None
    assert shift_solver(narrow @ narrow, 4.0 - 1e-9) is None
    assert shift_solver(assemble_upwind(build_mesh_2d(4, 4), 1), 100.0) is None


def test_known_failure_point_certifies_the_floor(monkeypatch):
    # 4,200 dofs, above the dense cap: power iteration never converged here
    monkeypatch.setattr(BlockOperator, "as_dense", _no_dense)
    monkeypatch.setattr(EvolutionMap, "as_dense", _no_dense)
    scheme = taylor_scheme(3)
    for seed in range(16):
        point = delta(scheme, build_mesh_1d(1400, 0.15, seed=seed), 2, 0.05)
        assert point.delta == DELTA_FLOOR and point.route == "certificate", seed


def test_growth_above_the_cap_falls_back_to_lanczos(monkeypatch):
    # 4,400 dofs and an expanding map: the certificate fails, no dense
    # matrix is built; the pin is np.linalg.eigvalsh of the dense S_1
    # (test_lanczos_matches_dense_eigenvalues_above_the_cap regenerates it)
    monkeypatch.setattr(BlockOperator, "as_dense", _no_dense)
    monkeypatch.setattr(EvolutionMap, "as_dense", _no_dense)
    point = delta(taylor_scheme(2), build_mesh_1d(1100, 0.15, seed=0), 3, 0.4)
    assert point.route == "lanczos"
    assert point.delta == pytest.approx(1131.7880461780637, rel=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
def test_lanczos_matches_dense_eigenvalues_above_the_cap(seed):
    # about 14 s per seed: a dense eigvalsh of 4,400 unknowns
    emap = evolution_map(taylor_scheme(2), build_mesh_1d(1100, 0.15, seed=seed), 3, 0.4)
    s_1 = excess_operator(emap)
    dense = np.linalg.eigvalsh(s_1.as_dense())[-1]
    print(f"N=1100 k=3 r=2 cfl=0.4 mesh seed {seed}: dense top eigenvalue {float(dense)!r}")
    assert top_eigenvalue(s_1) == pytest.approx(dense, rel=1e-12)


def test_lanczos_matches_eigvalsh_on_random_symmetric_operators():
    # the operators of test_certificate_brackets_the_top_eigenvalue, whose
    # Krylov spaces fill the space, and a perturbed-mesh S_1 of 1,200
    # unknowns, where the residual test stops Lanczos long before that
    rng = np.random.Generator(np.random.PCG64(5))
    for n, p, s in ((5, 2, 2), (7, 2, 3), (9, 3, 1), (16, 1, 3), (20, 3, 2)):
        space = DGSpace(build_mesh_1d(n, 0.2, seed=n), p - 1)
        e = BlockOperator(space, {(-j,): 0.3 * rng.standard_normal((n, p, p)) for j in range(s + 1)})
        sym = e + e.transpose() + e.transpose() @ e
        top = np.linalg.eigvalsh(sym.as_dense())[-1]
        assert top_eigenvalue(sym) == pytest.approx(top, rel=1e-12, abs=1e-14), (n, p, s)
    emap = evolution_map(taylor_scheme(3), build_mesh_1d(400, 0.15, seed=2), 2, 0.3)
    s_1 = excess_operator(emap)
    assert top_eigenvalue(s_1) == pytest.approx(np.linalg.eigvalsh(s_1.as_dense())[-1], rel=1e-12)


def test_lanczos_runs_under_a_profiler():
    # the Krylov basis grows in place past 16 vectors; a profiler's reference
    # to the bound method must not stop it, nor change a bit of the result
    emap = evolution_map(taylor_scheme(3), build_mesh_1d(400, 0.15, seed=2), 2, 0.3)
    s_1 = excess_operator(emap)
    plain = top_eigenvalue(s_1)
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        profiled = top_eigenvalue(s_1)
    finally:
        sys.setprofile(previous)
    assert profiled == plain


def test_lanczos_failure_names_lanczos_and_keeps_the_ritz_pair(monkeypatch):
    monkeypatch.setattr(operators, "LANCZOS_MAX_ITER", 3)
    emap = evolution_map(taylor_scheme(3), build_mesh_1d(400, 0.15, seed=2), 2, 0.3)
    with pytest.raises(PowerIterationError, match="Lanczos") as info:
        top_eigenvalue(excess_operator(emap))
    assert np.isfinite(info.value.last_estimate)
    assert info.value.last_vector.shape == (emap.n_dofs,)
    assert np.linalg.norm(info.value.last_vector) == pytest.approx(1.0)


def test_stability_point_records_its_route():
    scheme = taylor_scheme(2)
    assert delta(scheme, build_mesh_1d(8), 1, 0.5).route == "symbol"
    assert delta(scheme, build_mesh_2d(4, 4), 1, 0.0).route == "symbol"
    perturbed = build_mesh_1d(8, 0.2, seed=1)
    assert delta(scheme, perturbed, 1, 0.1).route == "certificate"
    assert delta(scheme, perturbed, 1, 0.5).route == "bracket"


def test_linalg_error_in_the_certificate_means_not_certified(monkeypatch):
    monkeypatch.setattr(stability, "build_mesh", lambda dim, n: build_mesh_1d(n, 0.15, seed=4))
    scheme = taylor_scheme(3)
    clean = cfl_sweep(scheme, 2, 1, (24,), 1, (0.05, 0.15))
    assert [p.route for p in clean] == ["certificate", "bracket"]

    def broken(a):
        raise np.linalg.LinAlgError("factorization failed")

    # no certificate passes, so no bracket gets a certified upper end
    monkeypatch.setattr(np.linalg, "cholesky", broken)
    patched = cfl_sweep(scheme, 2, 1, (24,), 1, (0.05, 0.15))
    assert all(p.flagged and np.isnan(p.delta) and p.route is None for p in patched)
    assert all(p.error.startswith("growth bracket") for p in patched)
    with pytest.raises(np.linalg.LinAlgError, match="growth bracket"):
        delta(scheme, build_mesh_1d(24, 0.15, seed=4), 2, 0.15)
