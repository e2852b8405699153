"""Shared quadrature oracles, independent of the block-operator assembly,
and values shared between tests."""
import numpy as np
import pytest

from rkdglab.basis import basis_2d_index, gauss_quadrature, legendre_modes
from rkdglab.schemes import taylor_scheme
from rkdglab.stability import fourier_cfl


@pytest.fixture(scope="session")
def cfl_family():
    """fourier_cfl at k = r - 1 for r = 2..8 and both variants, computed once."""
    return {(variant, r): fourier_cfl(taylor_scheme(r, variant), r - 1)
            for variant in ("standard", "sdA") for r in range(2, 9)}


def eval_cellwise_1d(mesh, k, coeffs, ref_points):
    """Values of the modal expansion at reference points, per cell."""
    vals, _ = legendre_modes(k, ref_points)
    scale = np.sqrt(2.0 / mesh.cell_sizes)
    return scale[:, None] * np.einsum("im,mq->iq", coeffs, vals)


def weak_form_1d(mesh, k, w, v, n_points=None):
    """Quadrature evaluation of the upwind weak form <L w, v>."""
    nq = n_points or (k + 3)
    quad = gauss_quadrature(nq)
    vals, ders = legendre_modes(k, quad.nodes)
    right = legendre_modes(k, np.array([1.0]))[0][:, 0]
    left = legendre_modes(k, np.array([-1.0]))[0][:, 0]
    h = mesh.cell_sizes
    beta = mesh.beta
    n = mesh.n_cells
    total = 0.0
    for i in range(n):
        wv = np.sqrt(2.0 / h[i]) * (w.coeffs[i] @ vals)
        dv = np.sqrt(2.0 / h[i]) * (v.coeffs[i] @ ders) * (2.0 / h[i])
        total += beta * (h[i] / 2.0) * np.sum(quad.weights * wv * dv)
    for i in range(n):
        ip = (i + 1) % n
        w_minus = np.sqrt(2.0 / h[i]) * (w.coeffs[i] @ right)
        v_minus = np.sqrt(2.0 / h[i]) * (v.coeffs[i] @ right)
        v_plus = np.sqrt(2.0 / h[ip]) * (v.coeffs[ip] @ left)
        total -= beta * (w_minus * v_minus - w_minus * v_plus)
    return total


def weak_form_2d(mesh, k, w, v, n_points=None):
    """Quadrature evaluation of the 2D upwind weak form <L w, v>."""
    nq = n_points or (k + 3)
    quad = gauss_quadrature(nq)
    vals, ders = legendre_modes(k, quad.nodes)
    right = legendre_modes(k, np.array([1.0]))[0][:, 0]
    left = legendre_modes(k, np.array([-1.0]))[0][:, 0]
    ids = basis_2d_index(k)
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    bx, by = mesh.beta_x, mesh.beta_y
    sxy = 2.0 / np.sqrt(hx * hy)

    def tensor(c):
        out = np.zeros((nx, ny, k + 1, k + 1))
        for p, (a, b) in enumerate(ids):
            out[:, :, a, b] = c[:, :, p]
        return out

    tw, tv = tensor(w.coeffs), tensor(v.coeffs)
    w_vol = sxy * np.einsum("xyab,aq,br->xyqr", tw, vals, vals)
    vx = sxy * (2.0 / hx) * np.einsum("xyab,aq,br->xyqr", tv, ders, vals)
    vy = sxy * (2.0 / hy) * np.einsum("xyab,aq,br->xyqr", tv, vals, ders)
    wq2 = np.einsum("q,r->qr", quad.weights, quad.weights) * (hx * hy / 4.0)
    total = np.sum(wq2 * w_vol * (bx * vx + by * vy))

    # traces: shape (nx, ny, q) line values on each edge, from inside the cell
    def line_x(c, side):
        edge = right if side == "top" else left
        return sxy * np.einsum("xyab,aq,b->xyq", c, vals, edge) * 1.0

    def line_y(c, side):
        edge = right if side == "right" else left
        return sxy * np.einsum("xyab,a,bq->xyq", c, edge, vals)

    w_top = line_x(tw, "top")
    v_top = line_x(tv, "top")
    v_bot = line_x(tv, "bottom")
    w_rgt = line_y(tw, "right")
    v_rgt = line_y(tv, "right")
    v_lft = line_y(tv, "left")
    wx = quad.weights * hx / 2.0
    wy = quad.weights * hy / 2.0
    # y-direction fluxes: upwind value from below
    total -= by * np.einsum("q,xyq->", wx, w_top * v_top)
    total += by * np.einsum("q,xyq->", wx, w_top * np.roll(v_bot, -1, axis=1))
    # x-direction fluxes: upwind value from the left
    total -= bx * np.einsum("q,xyq->", wy, w_rgt * v_rgt)
    total += bx * np.einsum("q,xyq->", wy, w_rgt * np.roll(v_lft, -1, axis=0))
    return float(total)
