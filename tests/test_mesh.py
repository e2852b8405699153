import numpy as np
import pytest

from rkdglab.errors import InvalidMeshError, InvalidPerturbationError, InvalidSpeedError
from rkdglab.mesh import Mesh1D, build_mesh, build_mesh_1d, build_mesh_2d
from rkdglab.operators import DGSpace


def test_uniform_nodes():
    mesh = build_mesh_1d(4)
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0.0)
    assert mesh.is_uniform
    assert mesh.cells == (4,)


def test_perturbed_nodes_stay_close_to_uniform():
    mesh = build_mesh_1d(40, perturb_fraction=0.15, seed=7)
    uniform = np.linspace(0.0, 1.0, 41)
    assert np.abs(mesh.nodes - uniform).max() <= 0.15 / 40 + 1e-15
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    assert not mesh.is_uniform


def test_perturbation_determinism():
    a = build_mesh_1d(33, 0.3, seed=123)
    b = build_mesh_1d(33, 0.3, seed=123)
    assert np.array_equal(a.nodes, b.nodes)
    c = build_mesh_1d(33, 0.3, seed=124)
    assert not np.array_equal(a.nodes, c.nodes)


@pytest.mark.parametrize("seed", [0, 1, 17, 2024])
@pytest.mark.parametrize("frac", [0.0, 0.15, 0.49])
def test_cell_sizes_partition_unit_interval(seed, frac):
    mesh = build_mesh_1d(25, frac, seed=seed)
    assert abs(mesh.cell_sizes.sum() - 1.0) <= 1e-14
    assert mesh.cell_sizes.min() > 0.0


def test_mesh_1d_rejects_degenerate():
    with pytest.raises(InvalidMeshError):
        build_mesh_1d(1)
    with pytest.raises(InvalidPerturbationError):
        build_mesh_1d(10, perturb_fraction=0.5)
    with pytest.raises(InvalidSpeedError):
        build_mesh_1d(4, beta=-1.0)


def test_mesh_2d_basic():
    mesh = build_mesh_2d(2, 2)
    assert mesh.hx == 0.5 and mesh.hy == 0.5
    assert build_mesh_2d(3, 5).cells == (3, 5)
    assert build_mesh_2d(20, 20).n_cells == 400


def test_mesh_2d_rejects_bad_speeds():
    with pytest.raises(InvalidSpeedError):
        build_mesh_2d(4, 4, 1.0, -1.0)
    with pytest.raises(InvalidSpeedError):
        build_mesh_2d(4, 4, 0.0, 1.0)
    with pytest.raises(InvalidMeshError):
        build_mesh_2d(1, 4)


def test_build_mesh_is_the_1d_or_the_square_mesh():
    assert build_mesh(1, 12) == build_mesh_1d(12)
    assert build_mesh(1, 12, 0.2, 5) == build_mesh_1d(12, perturb_fraction=0.2, seed=5)
    assert build_mesh(2, 6) == build_mesh_2d(6, 6)
    with pytest.raises(ValueError, match="2D meshes are uniform: perturb must be 0, got 0.1"):
        build_mesh(2, 6, 0.1)
    for dim in (0, 3):
        with pytest.raises(InvalidMeshError, match=f"dim must be 1 or 2, got {dim}"):
            build_mesh(dim, 6)


def test_mesh_equality_and_hash():
    a = build_mesh_1d(8, 0.1, seed=1)
    b = build_mesh_1d(8, 0.1, seed=1)
    assert a == b and hash(a) == hash(b)
    assert a == a and a is not b
    assert a != build_mesh_1d(8, 0.1, seed=2)
    # spaces compare by value too: equal but distinct meshes give equal spaces
    assert DGSpace(a, 2) == DGSpace(b, 2) and hash(DGSpace(a, 2)) == hash(DGSpace(b, 2))
    assert DGSpace(a, 2) != DGSpace(a, 3) and DGSpace(a, 2) != DGSpace(build_mesh_1d(8), 2)


def test_is_uniform_is_decided_once_per_mesh(monkeypatch):
    calls = []
    real = np.allclose

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "allclose", counted)
    nudged = np.linspace(0.0, 1.0, 9)
    nudged[4] += 1e-13
    cases = [
        (build_mesh_1d(16), True),
        (build_mesh_1d(16, 0.15, seed=3), False),
        (Mesh1D(np.arange(9) / 8.0), True),            # equal widths, built by hand
        (Mesh1D(np.linspace(0.0, 1.0, 4)), True),       # widths 1/3 up to rounding
        (Mesh1D(nudged), False),
    ]
    for mesh, uniform in cases:
        del calls[:]
        assert [mesh.is_uniform for _ in range(3)] == [uniform] * 3
        assert len(calls) == 1
