import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson

from qiul.biphoton import (
    correlation_coefficient,
    export_density_csv,
    gaussian_quadratic_form,
    joint_density_gaussian,
    gaussian_density_grid,
    joint_density_sinc_1d,
    min_abs_correlation_scan,
    sinc_correlation,
)
from qiul.core import singular_waist
from qiul.errors import GridTooCoarse
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
        d = joint_density_sinc_1d(make_params(2e-3, 142e-6), n_grid=97)
        integral = np.trapezoid(np.trapezoid(d.values, d.grid_u, axis=1), d.grid_d)
        assert integral == pytest.approx(1.0, rel=1e-6)
        np.testing.assert_allclose(d.values, d.values[::-1, ::-1], rtol=1e-10)
        assert d.model == "sinc_numeric"

    def test_conditional_width_close_to_gaussian_model(self):
        # documents the sinc-vs-Gaussian approximation gap (not equality)
        p = make_params(5e-3, 308e-6)
        d = joint_density_sinc_1d(p, n_grid=257)
        q = gaussian_quadratic_form(p)
        i0 = int(np.argmin(np.abs(d.grid_u)))
        slice_d = d.values[:, i0]
        width = half_width_1e(Profile1D(grid=d.grid_d, values=slice_d / slice_d.max())).width
        assert width == pytest.approx(1.0 / math.sqrt(q.a_dd), rel=0.15)

    def test_coarse_quadrature_rejected(self):
        with pytest.raises(GridTooCoarse):
            joint_density_sinc_1d(make_params(5e-3, 308e-6), n_grid=97, n_quad=64)

    def test_correlation_weaker_than_gaussian_model(self):
        p = make_params(10e-3, 50e-6)
        d = joint_density_sinc_1d(p, n_grid=129)
        assert 0.0 < sinc_correlation(d) < correlation_coefficient(p)

    def test_csv_export(self, tmp_path):
        d = joint_density_sinc_1d(make_params(2e-3, 142e-6), n_grid=33)
        path = tmp_path / "density.csv"
        export_density_csv(d, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# x_d_m:")
        assert lines[1] == "# model=sinc_numeric"
        data = np.loadtxt(path, delimiter=",")
        np.testing.assert_allclose(data, d.values, rtol=1e-15)

    def test_min_abs_correlation_scan(self):
        # reports where the sinc-model correlation magnitude is smallest
        # near the Gaussian-model singular waist, without asserting zero
        p = make_params(2e-3, 142e-6)
        w_sing = singular_waist(p)
        waists = w_sing * np.array([0.8, 1.0, 1.25, 2.0])
        best_w, best_c = min_abs_correlation_scan(p, waists, n_grid=65)
        assert best_w in waists
        assert best_c < abs(sinc_correlation(joint_density_sinc_1d(p.with_waist(2.0 * w_sing), n_grid=65)))

    def test_gaussian_grid_matches_pointwise_density(self):
        p = make_params(2e-3, 142e-6)
        d = gaussian_density_grid(p, n_grid=97)
        assert d.model == "gaussian"
        integral = np.trapezoid(np.trapezoid(d.values, d.grid_u, axis=1), d.grid_d)
        assert integral == pytest.approx(1.0, rel=1e-12)
        direct = joint_density_gaussian(p, d.grid_d[:, None], d.grid_u[None, :])
        mask = direct > 1e-30 * direct.max()  # corners underflow to 0.0
        ratio = d.values[mask] / direct[mask]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_gaussian_grid_sinc_correlation_consistency(self):
        # moment-based correlation of the sampled gaussian density agrees
        # with the closed form
        p = make_params(5e-3, 60e-6)
        d = gaussian_density_grid(p, n_grid=257, span_widths=8.0)
        assert sinc_correlation(d) == pytest.approx(correlation_coefficient(p), abs=1e-4)
