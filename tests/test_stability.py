import numpy as np
import pytest

from rkdglab import stability
from rkdglab.errors import PowerIterationError, UnsupportedDegreeError
from rkdglab.mesh import build_mesh_1d, build_mesh_2d
from rkdglab.operators import assemble_upwind
from rkdglab.stability import (
    DELTA_FLOOR,
    cfl_sweep,
    delta,
    fourier_cfl,
)
from rkdglab.schemes import taylor_scheme


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


def test_delta_methods_agree():
    mesh = build_mesh_1d(8)
    scheme = taylor_scheme(2)
    auto = delta(scheme, mesh, 1, 0.5, 1, method="auto").delta
    dense = delta(scheme, mesh, 1, 0.5, 1, method="dense_svd").delta
    power = delta(scheme, mesh, 1, 0.5, 1, method="power_iteration").delta
    assert auto == pytest.approx(dense, rel=1e-12)
    assert auto == pytest.approx(power, rel=1e-7)
    mesh2 = build_mesh_2d(4, 4)
    a2 = delta(scheme, mesh2, 1, 0.6, 1, method="auto").delta
    d2 = delta(scheme, mesh2, 1, 0.6, 1, method="dense_svd").delta
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


def test_cfl_sweep_flags_numerical_failures_only(monkeypatch):
    with pytest.raises(UnsupportedDegreeError):
        cfl_sweep(taylor_scheme(2, "sdA"), 0, 1, (8,), 1, (0.1,))

    def fail(*args, **kwargs):
        raise PowerIterationError("no convergence")

    monkeypatch.setattr(stability, "delta", fail)
    (point,) = cfl_sweep(taylor_scheme(2), 1, 1, (8,), 1, (0.1,))
    assert point.flagged and np.isnan(point.delta)


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


def test_fourier_cfl_rejects_k0():
    with pytest.raises(ValueError):
        fourier_cfl("standard", 2, 0)


def test_fourier_cfl_reports_flag_when_nothing_is_stable():
    # with an unsatisfiable growth threshold the search reports 0, flagged
    res = fourier_cfl("standard", 2, 1, growth_tol=-1.0)
    assert res.value == 0.0 and not res.found
