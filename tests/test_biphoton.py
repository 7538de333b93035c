import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson

from qiul.biphoton import (
    correlation_coefficient,
    gaussian_quadratic_form,
    joint_density_gaussian,
)
from qiul.core import singular_waist
from qiul.imaging import Profile1D
from qiul.spreads import half_width_1e

from conftest import make_params

mp.mp.dps = 50


def oracle_coefficients(L, w):
    """Quadratic-form coefficients evaluated independently in arbitrary
    precision."""
    ld, lu = mp.mpf("730e-9"), mp.mpf("910e-9")
    L, w = mp.mpf(L), mp.mpf(w)
    pump = 2 / (w**2 * (ld + lu) ** 2)
    pm = 4 * mp.pi / (L * (ld + lu))
    return (
        float(lu**2 * pump + pm),
        float(ld**2 * pump + pm),
        float(ld * lu * pump - pm),
    )


def sinc_density(params, n_grid=129, n_quad=None):
    """Reference model: the per-axis joint density (1/m^2) of (x_d, x_u)
    with the exact sinc phase matching, on a symmetric grid spanning 6.5
    Gaussian-model 1/e marginal widths on both axes, normalized to unit
    trapezoidal integral. Returns (grid, values).

    The momentum amplitude P(q_d+q_u) sinc(...) is separable in the
    rotated coordinates Q = q_d + q_u and R = lambda_d q_d - lambda_u q_u,
    so the 2D transform is an analytic Gaussian factor in
    zeta = (lambda_u x_d + lambda_d x_u) / (lambda_d + lambda_u) times
    g(eta) = 2 int_0^{r_max} sinc(a R^2) cos(R eta) dR,
    a = L lambda_p / (8 pi lambda_d lambda_u), eta = (x_d - x_u) /
    (lambda_d + lambda_u), taken as a zero-padded FFT cosine transform.
    Both are asserted: the FFT reaches the largest eta on the grid, and
    doubling the quadrature resolution changes the density by at most
    1e-3 in integrated absolute difference."""
    lsum = params.lambda_d + params.lambda_u
    a = params.crystal_length * params.lambda_p / (
        8.0 * math.pi * params.lambda_d * params.lambda_u
    )
    q = gaussian_quadratic_form(params)
    half = 6.5 * max(math.sqrt(q.a_uu / q.det), math.sqrt(q.a_dd / q.det))
    grid = np.linspace(-half, half, n_grid)

    eta_max = 2.0 * half / lsum
    # cover the sinc main-lobe decay and the outermost stationary point
    # eta/(2a) of the oscillatory integrand
    r_max = max(10.0 * math.sqrt(2.0 * math.pi / a), 1.5 * eta_max / (2.0 * a))
    if n_quad is None:
        rate = max(2.0 * a * r_max, eta_max)  # fastest local phase rate
        n_quad = max(8193, int(r_max * rate * 8.0 / math.pi) | 1)

    zeta = (params.lambda_u * grid[:, None] + params.lambda_d * grid[None, :]) / lsum
    pump = np.exp(-(zeta**2) / params.pump_waist**2)
    # x_d[i] - x_u[j] depends on i - j only: 2 n_grid - 1 values of |eta|
    eta = (grid - grid[0]) / lsum
    eta = np.concatenate([eta[:0:-1], eta])
    idx = np.arange(n_grid)
    offsets = idx[:, None] - idx[None, :] + (n_grid - 1)

    def density(nq):
        r = np.linspace(0.0, r_max, nq)
        dr = r[1] - r[0]
        h = np.sinc(a * r**2 / np.pi)
        h[0] *= 0.5
        h[-1] *= 0.5  # trapezoid end weights
        # pad so the FFT frequency grid covers eta and resolves g's
        # structure (scale sqrt(a)) for the interpolation
        d_eta = min(math.sqrt(a) / 32.0, math.pi / (4.0 * dr))
        n_fft = 1 << max(
            math.ceil(math.log2(2.0 * math.pi / (dr * d_eta))),
            math.ceil(math.log2((eta[-1] * dr / math.pi + 1.0) * nq)),
            math.ceil(math.log2(2 * nq)),
        )
        spectrum = np.fft.rfft(h, n=n_fft)
        eta_grid = 2.0 * math.pi * np.arange(spectrum.size) / (n_fft * dr)
        assert eta[-1] <= eta_grid[-1], "quadrature step too coarse for the FFT to reach eta"
        g = np.interp(eta, eta_grid, 2.0 * dr * spectrum.real)
        values = (pump * g[offsets]) ** 2
        return values / np.trapezoid(np.trapezoid(values, grid, axis=1), grid)

    coarse, values = density(n_quad), density(2 * n_quad + 1)
    diff = np.trapezoid(np.trapezoid(np.abs(coarse - values), grid, axis=1), grid)
    assert diff <= 1e-3, f"sinc density not converged: doubling quadrature changes it by {diff:.3g}"
    return grid, values


def moment_correlation(grid, values):
    """Pearson correlation of (x_d, x_u) from a density sampled on
    grid x grid, by trapezoidal moments."""

    def integrate(f):
        return np.trapezoid(np.trapezoid(f, grid, axis=1), grid)

    xd = grid[:, None]
    xu = grid[None, :]
    z = integrate(values)
    md = integrate(values * xd) / z
    mu = integrate(values * xu) / z
    vd = integrate(values * (xd - md) ** 2) / z
    vu = integrate(values * (xu - mu) ** 2) / z
    cov = integrate(values * (xd - md) * (xu - mu)) / z
    return float(cov / math.sqrt(vd * vu))


class TestQuadraticForm:
    def test_matches_arbitrary_precision_oracle(self):
        q = gaussian_quadratic_form(make_params(10e-3, 50e-6))
        a_dd, a_uu, a_du = oracle_coefficients("10e-3", "50e-6")
        assert q.a_dd == pytest.approx(a_dd, rel=1e-12)
        assert q.a_uu == pytest.approx(a_uu, rel=1e-12)
        assert q.a_du == pytest.approx(a_du, rel=1e-12)

    def test_cross_term_vanishes_at_singular_waist(self):
        p = make_params(5e-3, 100e-6)
        q = gaussian_quadratic_form(p.with_waist(singular_waist(p)))
        assert abs(q.a_du) < 1e-9 * q.a_dd

    def test_large_waist_limit(self):
        p = make_params(2e-3, 0.5)
        q = gaussian_quadratic_form(p)
        limit = 4.0 * math.pi / (p.crystal_length * (p.lambda_d + p.lambda_u))
        assert q.a_dd == pytest.approx(limit, rel=1e-5)

    def test_norm_matches_numeric_integration(self):
        p = make_params(2e-3, 142e-6)
        q = gaussian_quadratic_form(p)
        det = q.a_dd * q.a_uu - q.a_du**2
        wd = math.sqrt(q.a_uu / det)
        wu = math.sqrt(q.a_dd / det)
        xd = np.linspace(-8 * wd, 8 * wd, 2049)
        xu = np.linspace(-8 * wu, 8 * wu, 2049)
        dens = joint_density_gaussian(p, xd[:, None], xu[None, :])
        integral = simpson(simpson(dens, x=xu, axis=1), x=xd)
        assert integral == pytest.approx(1.0, rel=1e-9)


class TestGaussianDensity:
    def test_maximum_at_origin_equals_norm(self, params):
        q = gaussian_quadratic_form(params)
        assert joint_density_gaussian(params, 0.0, 0.0) == pytest.approx(q.norm, rel=1e-14)

    def test_point_symmetry(self, params, rng):
        pts = rng.normal(scale=3e-5, size=(50, 2))
        a = joint_density_gaussian(params, pts[:, 0], pts[:, 1])
        b = joint_density_gaussian(params, -pts[:, 0], -pts[:, 1])
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_factorizes_at_singular_waist(self):
        p = make_params(2e-3, 100e-6)
        p = p.with_waist(singular_waist(p))
        q = gaussian_quadratic_form(p)
        grid = np.linspace(-3 / math.sqrt(q.a_dd), 3 / math.sqrt(q.a_dd), 21)
        dens = joint_density_gaussian(p, grid[:, None], grid[None, :])
        outer = (
            joint_density_gaussian(p, grid, np.zeros_like(grid))[:, None]
            * joint_density_gaussian(p, np.zeros_like(grid), grid)[None, :]
            / joint_density_gaussian(p, 0.0, 0.0)
        )
        np.testing.assert_allclose(dens, outer, rtol=1e-10)

    def test_conditional_width_identity(self, params):
        # 1/e half-width of the x_d slice at x_u = 0 equals 1/sqrt(a_dd)
        q = gaussian_quadratic_form(params)
        x = np.linspace(-5 / math.sqrt(q.a_dd), 5 / math.sqrt(q.a_dd), 4097)
        slice_d = joint_density_gaussian(params, x, np.zeros_like(x))
        width = half_width_1e(Profile1D(grid=x, values=slice_d / slice_d.max())).width
        assert width == pytest.approx(1.0 / math.sqrt(q.a_dd), rel=1e-6)


class TestCorrelation:
    def test_zero_at_singular_waist(self):
        p = make_params(5e-3, 100e-6)
        corr = correlation_coefficient(p.with_waist(singular_waist(p)))
        assert abs(corr) < 1e-9

    def test_plane_wave_limit(self):
        assert correlation_coefficient(make_params(2e-3, 0.5)) > 0.999999

    def test_reference_point_against_monte_carlo(self):
        # sample via eigendecomposition of the quadratic form (a route
        # independent of the closed-form correlation expression)
        p = make_params(2e-3, 142e-6)
        corr = correlation_coefficient(p)
        assert 0.9 < corr < 1.0
        q = gaussian_quadratic_form(p)
        m = np.array([[q.a_dd, q.a_du], [q.a_du, q.a_uu]])
        cov = np.linalg.inv(2.0 * m)
        evals, evecs = np.linalg.eigh(cov)
        rng = np.random.default_rng(7)
        n = 2_000_000
        z = rng.standard_normal((n, 2))
        samples = z * np.sqrt(evals) @ evecs.T
        mc = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        se = (1.0 - corr**2) / math.sqrt(n)
        assert abs(corr - mc) < 3.0 * se

    def test_strictly_increasing_above_singular_waist(self):
        p = make_params(5e-3, 100e-6)
        w_sing = singular_waist(p)
        ladder = w_sing * np.logspace(math.log10(1.05), 2, 25)
        values = [correlation_coefficient(p.with_waist(float(w))) for w in ladder]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    def test_negative_below_singular_waist(self):
        p = make_params(5e-3, 100e-6)
        assert correlation_coefficient(p.with_waist(0.5 * singular_waist(p))) < 0.0


class TestSincDensity:
    def test_unit_integral_and_symmetry(self):
        grid, values = sinc_density(make_params(2e-3, 142e-6), n_grid=97)
        integral = np.trapezoid(np.trapezoid(values, grid, axis=1), grid)
        assert integral == pytest.approx(1.0, rel=1e-6)
        np.testing.assert_allclose(values, values[::-1, ::-1], rtol=1e-10)

    def test_conditional_width_close_to_gaussian_model(self):
        # documents the sinc-vs-Gaussian approximation gap (not equality)
        p = make_params(5e-3, 308e-6)
        grid, values = sinc_density(p, n_grid=257)
        q = gaussian_quadratic_form(p)
        i0 = int(np.argmin(np.abs(grid)))
        slice_d = values[:, i0]
        width = half_width_1e(Profile1D(grid=grid, values=slice_d / slice_d.max())).width
        assert width == pytest.approx(1.0 / math.sqrt(q.a_dd), rel=0.15)

    def test_coarse_quadrature_rejected(self):
        with pytest.raises(AssertionError, match="quadrature"):
            sinc_density(make_params(5e-3, 308e-6), n_grid=97, n_quad=64)

    def test_correlation_weaker_than_gaussian_model(self):
        p = make_params(10e-3, 50e-6)
        assert 0.0 < moment_correlation(*sinc_density(p, n_grid=129)) < correlation_coefficient(p)

    def test_min_abs_correlation_scan(self):
        # the sinc-model correlation magnitude is smaller near the
        # Gaussian-model singular waist than at twice it, without
        # asserting that it reaches zero
        p = make_params(2e-3, 142e-6)
        w_sing = singular_waist(p)

        def abs_corr(scale):
            return abs(moment_correlation(*sinc_density(p.with_waist(scale * w_sing), n_grid=65)))

        assert min(abs_corr(s) for s in (0.8, 1.0, 1.25)) < abs_corr(2.0)

    def test_gaussian_grid_sinc_correlation_consistency(self):
        # moment-based correlation of the sampled gaussian density agrees
        # with the closed form
        p = make_params(5e-3, 60e-6)
        q = gaussian_quadratic_form(p)
        half = 8.0 * max(math.sqrt(q.a_uu / q.det), math.sqrt(q.a_dd / q.det))
        grid = np.linspace(-half, half, 257)
        values = joint_density_gaussian(p, grid[:, None], grid[None, :])
        assert moment_correlation(grid, values) == pytest.approx(correlation_coefficient(p), abs=1e-4)
