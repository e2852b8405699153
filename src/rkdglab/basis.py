"""Orthonormal Legendre modal bases and Gauss-Legendre quadrature.

The 1D reference modes are Legendre polynomials on [-1, 1] scaled to unit
L2 norm there; on a physical cell of width h an extra 1/sqrt(h/2) factor
makes every mode unit-norm on its cell, so coefficient 2-norms equal L2
norms of the reconstructed functions.
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule on [-1, 1]; exact for degree <= 2*n_points - 1."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def gauss_quadrature(n_points):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    if n_points < 1:
        raise ValueError("quadrature needs at least one point")
    nodes, weights = leggauss(n_points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Quadrature(nodes=nodes, weights=weights)


def legendre_modes(k, x_ref):
    """Orthonormal Legendre values and derivatives at reference points.

    Returns arrays of shape (k+1,) + shape(x_ref).  Mode m is
    sqrt((2m+1)/2) * P_m, which has unit L2 norm on [-1, 1].
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x_ref, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("reference coordinate outside [-1, 1]")
    vals = np.zeros((k + 1,) + x.shape)
    ders = np.zeros_like(vals)
    vals[0] = 1.0
    if k >= 1:
        vals[1] = x
        ders[1] = 1.0
    for n in range(1, k):
        vals[n + 1] = ((2 * n + 1) * x * vals[n] - n * vals[n - 1]) / (n + 1)
        ders[n + 1] = ders[n - 1] + (2 * n + 1) * vals[n]
    scale = np.sqrt((2.0 * np.arange(k + 1) + 1.0) / 2.0)
    shape = (k + 1,) + (1,) * x.ndim
    return vals * scale.reshape(shape), ders * scale.reshape(shape)


@lru_cache(maxsize=64)
def gauss_mode_table(k, n_points):
    """(quad, vals, ders): the n_points Gauss rule and the modes at its nodes.

    vals and ders are the cached, read-only legendre_modes(k, quad.nodes),
    each of shape (k+1, n_points): the one 1D table every quadrature
    contraction reads, in each direction of a 2D cell.
    """
    quad = gauss_quadrature(n_points)
    vals, ders = legendre_modes(k, quad.nodes)
    vals.setflags(write=False)
    ders.setflags(write=False)
    return quad, vals, ders


def sum_factorized(t, a, b):
    """a t b^T over the last two axes of t: sum_{q,r} a[i, q] t[..., q, r] b[j, r].

    The tensor-product contraction taken one direction at a time: one
    matrix product over every row of t along the last axis, then a batch of
    small ones along the other.  Returns shape t.shape[:-2] + (len(a), len(b)).
    """
    lead, (q, r) = t.shape[:-2], t.shape[-2:]
    tb = (t.reshape(-1, r) @ b.T).reshape(-1, q, len(b))
    return (a @ tb).reshape(lead + (len(a), len(b)))


@lru_cache(maxsize=64)
def basis_2d_index(k):
    """Graded-lexicographic ordering of the 2D modes {(a, b): a+b <= k}."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return tuple((tot - b, b) for tot in range(k + 1) for b in range(tot + 1))


@lru_cache(maxsize=64)
def tensor_index(k):
    """Positions a (k+1) + b of the 2D modes (a, b) in the flattened (k+1, k+1) tensor.

    Coefficients go to the tensor layout by t[..., tensor_index(k)] = c on
    zeros of shape (..., (k+1)**2), and back by t.reshape(..., -1)[..., tensor_index(k)].
    """
    idx = np.array([a * (k + 1) + b for a, b in basis_2d_index(k)])
    idx.setflags(write=False)
    return idx


def to_tensor(coeffs, k):
    """2D modal coefficients (..., n_modes) as a (..., k+1, k+1) tensor, zero above degree k."""
    out = np.zeros(coeffs.shape[:-1] + ((k + 1) ** 2,))
    out[..., tensor_index(k)] = coeffs
    return out.reshape(coeffs.shape[:-1] + (k + 1, k + 1))


@lru_cache(maxsize=64)
def _kron_sum_pattern(k):
    ia, ib = np.array(basis_2d_index(k)).T
    return np.ix_(ia, ia), np.ix_(ib, ib), ib[:, None] == ib, ia[:, None] == ia


def kron_sum_2d(a, b):
    """A (x) I + I (x) B on the total-degree modes, for 1D (k+1, k+1) tables A and B.

    Entry (p, q) for modes p = (a, b), q = (a', b') is
    A[a, a'] [b = b'] + B[b, b'] [a = a']: A acts along x, B along y.
    """
    pairs_a, pairs_b, same_b, same_a = _kron_sum_pattern(len(a) - 1)
    return a[pairs_a] * same_b + b[pairs_b] * same_a


@lru_cache(maxsize=64)
def reference_tables(k):
    """Cached endpoint traces and stiffness of the orthonormal 1D modes.

    Returns (right, left, stiffness) where stiffness[n, m] integrates
    mode_m * mode_n' over [-1, 1].
    """
    m = k + 1
    scale = np.sqrt((2.0 * np.arange(m) + 1.0) / 2.0)
    right = scale.copy()                       # P_m(1) = 1
    left = scale * (-1.0) ** np.arange(m)      # P_m(-1) = (-1)^m
    stiff = np.zeros((m, m))
    for n in range(m):
        for j in range(n):
            if (n - j) % 2 == 1:
                stiff[n, j] = np.sqrt((2 * j + 1) * (2 * n + 1))
    for a in (right, left, stiff):
        a.setflags(write=False)
    return right, left, stiff
