"""Numeric quadrature of the image function over the Gaussian joint
density: the tests' reference for the closed-form edge responses of
qiul.imaging.

A transmission mask T(x_o) is the list of (lo, hi, weight) pieces on
which the integrand is smooth: T = 1 on [lo, hi] where weight is None,
T = weight(x_o) there otherwise, and T = 0 off the pieces.
Gauss-Legendre converges spectrally only between the kinks of T, so each
piece is integrated on its own.
"""

import functools
import math

import numpy as np

from qiul.biphoton import gaussian_quadratic_form, joint_density_gaussian
from qiul.imaging import Profile1D

OPEN = [(-math.inf, math.inf, None)]


def edge(x0=0.0):
    """0 left of x0, 1 from x0 on."""
    return [(x0, math.inf, None)]


def double_slit(d, s):
    """Two unit slits of width s centered at +-d/2."""
    return [(-d / 2 - s / 2, -d / 2 + s / 2, None), (d / 2 - s / 2, d / 2 + s / 2, None)]


def sampled(grid, samples):
    """Linear interpolation of samples on grid, 0 outside: one weighted
    piece per grid segment."""
    grid = np.asarray(grid, dtype=float)
    weight = functools.partial(np.interp, xp=grid, fp=samples, left=0.0, right=0.0)
    return [(g0, g1, weight) for g0, g1 in zip(grid[:-1], grid[1:])]


def point_image(params, setup, x0, grid):
    """G(x_c) of a point object at x0, up to scale: the joint density
    along x_u = x0 / M_u, which needs no quadrature."""
    return joint_density_gaussian(params, np.asarray(grid) / setup.m_d, x0 / setup.m_u)


_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


def _integrate(params, setup, mask, x_c, n_nodes):
    """int dx_o P(x_c/M_d, x_o/M_u) T(x_o) by Gauss-Legendre on each
    piece of the mask, clipped to the conditional-density window of +-8
    widths. A weighted piece gets nodes in proportion to the widths it
    covers, from 17 up to n_nodes."""
    q = gaussian_quadratic_form(params)
    x_d = x_c / setup.m_d
    mu_o = setup.m_u * (-q.a_du / q.a_uu) * x_d  # conditional center in object coords
    sigma_o = setup.m_u / math.sqrt(q.a_uu)
    lo = mu_o - 8.0 * sigma_o
    hi = mu_o + 8.0 * sigma_o

    total = np.zeros_like(x_c)
    for piece_lo, piece_hi, weight in mask:
        n_piece = n_nodes
        if weight is not None:
            base = 9.0 + 8.0 * (piece_hi - piece_lo) / sigma_o
            n_piece = min(n_nodes, max(17, int(base * n_nodes / 257.0) | 1))
        nodes, weights = _gauss_legendre(n_piece)
        a = np.maximum(lo, piece_lo)
        span = np.maximum(np.minimum(hi, piece_hi) - a, 0.0)
        # map nodes to each interval; (n_x, n_piece)
        xo = a[:, None] + (nodes[None, :] + 1.0) * 0.5 * span[:, None]
        integrand = joint_density_gaussian(params, x_d[:, None], xo / setup.m_u)
        if weight is not None:
            integrand = integrand * weight(xo)
        total = total + 0.5 * span * (integrand @ weights)
    return total


def _doubled(params, setup, mask, x_c, n_nodes, scale=None):
    """The integral at 2 n_nodes - 1 nodes, asserted to move by at most
    1e-8 of scale (default: its own maximum) from the n_nodes one."""
    coarse = _integrate(params, setup, mask, x_c, n_nodes)
    fine = _integrate(params, setup, mask, x_c, 2 * n_nodes - 1)
    scale = float(np.max(fine)) if scale is None else scale
    err = np.max(np.abs(fine - coarse))
    assert err <= 1e-8 * scale, (
        f"node doubling changes the integral by {err:.3g} (> 1e-8 * {scale:.3g})")
    return fine


def image_function_numeric(params, setup, mask, grid, n_nodes=257):
    """Amplitude image G(x_c), normalized so that the open aperture gives
    the x_d marginal with peak 1 (the edge response then equals
    g_esf / 2)."""
    x = np.asarray(grid, dtype=float)
    peak = float(_integrate(params, setup, OPEN, np.zeros(1), n_nodes)[0])
    return Profile1D(x, _doubled(params, setup, mask, x, n_nodes, peak) / peak, kind="g")


def visibility_numeric(params, setup, mask, grid, n_nodes=257):
    """Visibility V(x_c): the ratio of the T-weighted to the unweighted
    integral of the joint density at each camera position."""
    x = np.asarray(grid, dtype=float)
    den = _doubled(params, setup, OPEN, x, n_nodes)
    num = _doubled(params, setup, mask, x, n_nodes, float(np.max(den)))
    return Profile1D(x, np.clip(num / den, 0.0, 1.0), kind="v")
