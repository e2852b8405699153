import numpy as np
import pytest

from rkdglab.basis import basis_2d_index, gauss_quadrature, kron_sum_2d, legendre_modes, to_tensor


def test_mode_values_closed_forms():
    vals, _ = legendre_modes(1, 1.0)
    assert vals[0] == pytest.approx(np.sqrt(0.5))
    assert vals[1] == pytest.approx(np.sqrt(1.5))
    vals2, _ = legendre_modes(2, 0.0)
    assert vals2[2] == pytest.approx(np.sqrt(2.5) * (-0.5))


def test_mode_domain_check():
    with pytest.raises(ValueError):
        legendre_modes(2, 1.5)
    with pytest.raises(ValueError):
        legendre_modes(-1, 0.0)


def test_gauss_rules():
    q1 = gauss_quadrature(1)
    assert np.allclose(q1.nodes, [0.0]) and np.allclose(q1.weights, [2.0])
    q2 = gauss_quadrature(2)
    assert np.allclose(np.sort(q2.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(q2.weights, [1.0, 1.0])
    q5 = gauss_quadrature(5)
    assert abs(np.sum(q5.weights * q5.nodes**8) - 2.0 / 9.0) <= 1e-14
    with pytest.raises(ValueError):
        gauss_quadrature(0)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_weights_sum_to_two_and_exactness(n):
    q = gauss_quadrature(n)
    assert abs(q.weights.sum() - 2.0) <= 1e-14
    # exact for monomials up to degree 2n - 1
    for p in range(2 * n):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        assert abs(np.sum(q.weights * q.nodes**p) - exact) <= 1e-13


def test_gram_matrix_identity_1d():
    q = gauss_quadrature(10)
    for k in (0, 2, 4, 7):
        vals, _ = legendre_modes(k, q.nodes)
        gram = np.einsum("q,mq,nq->mn", q.weights, vals, vals)
        assert np.abs(gram - np.eye(k + 1)).max() <= 1e-13


def test_gram_matrix_identity_2d():
    q = gauss_quadrature(8)
    for k in (1, 3, 4):
        ids = basis_2d_index(k)
        vals, _ = legendre_modes(k, q.nodes)
        modes = np.stack([np.outer(vals[a], vals[b]).ravel() for (a, b) in ids])
        w2 = np.outer(q.weights, q.weights).ravel()
        gram = np.einsum("q,mq,nq->mn", w2, modes, modes)
        assert np.abs(gram - np.eye(len(ids))).max() <= 1e-12


def test_2d_index_ordering():
    assert list(basis_2d_index(1)) == [(0, 0), (1, 0), (0, 1)]
    assert len(basis_2d_index(4)) == 15
    for k in range(6):
        ids = basis_2d_index(k)
        assert len(ids) == (k + 1) * (k + 2) // 2
        assert sorted(set(ids)) == sorted(ids)
        assert all(a + b <= k and a >= 0 and b >= 0 for (a, b) in ids)


@pytest.mark.parametrize("k", range(5))
def test_2d_embedding_matches_mode_loops(k):
    rng = np.random.default_rng(20 + k)
    a, b = rng.standard_normal((2, k + 1, k + 1))
    ids = basis_2d_index(k)
    expected = np.zeros((len(ids), len(ids)))
    for p, (a1, b1) in enumerate(ids):
        for q, (a2, b2) in enumerate(ids):
            if b1 == b2:
                expected[p, q] += a[a1, a2]
            if a1 == a2:
                expected[p, q] += b[b1, b2]
    assert np.array_equal(kron_sum_2d(a, b), expected)

    coeffs = rng.standard_normal((3, 2, len(ids)))
    tensor = to_tensor(coeffs, k)
    for p, (a1, b1) in enumerate(ids):
        assert np.array_equal(tensor[:, :, a1, b1], coeffs[:, :, p])
    assert np.count_nonzero(tensor) == coeffs.size


def test_derivative_reduces_degree():
    # d/dx of a degree-k expansion has no degree-k content
    q = gauss_quadrature(12)
    for k in (1, 3, 5):
        vals, ders = legendre_modes(k, q.nodes)
        rng = np.random.default_rng(k)
        c = rng.standard_normal(k + 1)
        du = np.einsum("m,mq->q", c, ders)
        top = np.sum(q.weights * du * vals[k])
        assert abs(top) <= 1e-13 * max(1.0, np.abs(c).max())
