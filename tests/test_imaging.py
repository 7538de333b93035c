import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qiul.core import OpticalSetup, singular_waist
from qiul.errors import SeparableState
from qiul.imaging import (
    Profile1D,
    g_esf,
    g_esf_derivative,
    g_psf,
    read_profile_csv,
    v_esf,
    v_psf,
    write_profile_csv,
)
from qiul.spreads import spread_g_psf_closed, spread_v_closed

from conftest import make_params
from quadrature import (OPEN, double_slit, edge, image_function_numeric, point_image, sampled,
                        visibility_numeric)

CSTEP = 1e-20


def complex_step_derivative(f, x):
    return np.imag(f(x + 1j * CSTEP)) / CSTEP


class TestPsfs:
    def test_g_psf_peak(self, params, setup):
        assert g_psf(params, setup, 0.0) == 1.0

    def test_g_psf_one_over_e_at_closed_form_spread(self, setup):
        p = make_params(10e-3, 50e-6)
        rho = setup.m_d * spread_g_psf_closed(p)
        assert g_psf(p, setup, rho) == pytest.approx(1.0 / math.e, rel=1e-12)
        assert spread_g_psf_closed(p) * 1e6 == pytest.approx(31.4, abs=0.1)

    def test_v_psf_peak_and_spread(self, setup):
        p = make_params(10e-3, 50e-6)
        assert v_psf(p, setup, 0.0) == 1.0
        rho = setup.m_d * spread_v_closed(p)
        assert v_psf(p, setup, rho) == pytest.approx(1.0 / math.e, rel=1e-12)
        assert spread_v_closed(p) * 1e6 == pytest.approx(53.5, abs=0.2)

    def test_v_psf_separable_state(self, setup):
        p = make_params(5e-3, 100e-6)
        with pytest.raises(SeparableState):
            v_psf(p.with_waist(singular_waist(p)), setup, 1e-5)


class TestEsfs:
    def test_v_esf_half_at_edge_image(self, params, setup):
        x_o = 37e-6
        assert v_esf(params, setup, setup.m_u * x_o, x_o) == pytest.approx(0.5, abs=1e-14)

    def test_v_esf_limits(self, params, setup):
        # above the singular waist the open side is +x
        assert v_esf(params, setup, 5e-3) == pytest.approx(1.0, abs=1e-12)
        assert v_esf(params, setup, -5e-3) == pytest.approx(0.0, abs=1e-12)

    def test_g_esf_erf_factor_limits(self, setup):
        p = make_params(2e-3, 308e-6)
        k_width = setup.m_d * math.sqrt(
            (p.lambda_d**2 * p.crystal_length
             + 2 * math.pi * p.pump_waist**2 * (p.lambda_d + p.lambda_u))
            / (4 * math.pi * (p.lambda_d + p.lambda_u))
        )
        # blocked side decays to zero well inside the envelope
        assert g_esf(p, setup, -0.8 * k_width) < 1e-3
        # open side: erf factor tends to 2 before the envelope
        envelope = math.exp(-(0.8 * k_width / setup.m_d) ** 2
                            * 4 * math.pi * (p.lambda_d + p.lambda_u)
                            / (p.lambda_d**2 * p.crystal_length
                               + 2 * math.pi * p.pump_waist**2 * (p.lambda_d + p.lambda_u)))
        assert g_esf(p, setup, 0.8 * k_width) == pytest.approx(2.0 * envelope, rel=1e-6)

    def test_g_esf_at_singular_waist_is_pure_envelope(self, setup):
        p = make_params(5e-3, 100e-6)
        p = p.with_waist(singular_waist(p))
        width = setup.m_d * math.sqrt(p.lambda_d * p.crystal_length / (4.0 * math.pi))
        ratio = g_esf(p, setup, width) / g_esf(p, setup, 0.0)
        assert ratio == pytest.approx(1.0 / math.e, rel=1e-9)

    def test_derivative_identity_visibility(self, setup):
        p = make_params(5e-3, 214e-6)
        x = np.linspace(-3e-4, 3e-4, 1024)
        deriv = complex_step_derivative(lambda z: v_esf(p, setup, z), x)
        deriv0 = complex_step_derivative(lambda z: v_esf(p, setup, z), np.array([0.0]))[0]
        np.testing.assert_allclose(deriv / deriv0, v_psf(p, setup, x), atol=1e-12)

    def test_non_isoplanatism_of_amplitude(self, setup):
        # strongly focused pump: ESF derivative differs from the PSF
        p = make_params(10e-3, 50e-6)
        x = np.linspace(-4e-4, 4e-4, 1024)
        deriv = g_esf_derivative(p, setup, x)
        deviation = np.max(np.abs(deriv / np.max(deriv) - g_psf(p, setup, x)))
        assert deviation > 1e-3

    def test_amplitude_becomes_isoplanatic_for_large_waists(self, setup):
        # the skew of d/dx_c G_ESF decays like (w_sing / w_p)^2; the
        # deviation from G_PSF falls below 1e-3 around 250 w_sing
        p = make_params(10e-3, 50e-6)
        w_sing = singular_waist(p)

        def deviation(ratio):
            pl = p.with_waist(ratio * w_sing)
            x = np.linspace(-4e-4, 4e-4, 2048)
            deriv = g_esf_derivative(pl, setup, x)
            return np.max(np.abs(deriv / np.max(deriv) - g_psf(pl, setup, x)))

        ladder = [deviation(r) for r in (50, 100, 200, 400)]
        assert all(a > b for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] < 1e-3

    def test_g_esf_derivative_matches_complex_step(self, setup):
        p = make_params(5e-3, 142e-6)
        x = np.linspace(-3e-4, 3e-4, 257)
        analytic = g_esf_derivative(p, setup, x, x_tilde_o=11e-6)
        numeric = complex_step_derivative(lambda z: g_esf(p, setup, z, 11e-6), x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-12, atol=1e-12 * np.max(np.abs(analytic)))

    @given(delta=st.floats(min_value=-1e-4, max_value=1e-4))
    @settings(max_examples=30, deadline=None)
    def test_v_esf_shift_covariance(self, delta):
        # the edge offset enters only through (x_c - M_u x_o~) / M_d
        p = make_params(5e-3, 214e-6)
        s = OpticalSetup()
        x = np.linspace(-2e-4, 2e-4, 64)
        shifted = v_esf(p, s, x, delta)
        reference = v_esf(p, s, x - s.m_u * delta, 0.0)
        np.testing.assert_allclose(shifted, reference, rtol=0, atol=1e-12)


class TestNumericRoutes:
    @pytest.mark.parametrize("L, w", [(2e-3, 142e-6), (5e-3, 214e-6), (10e-3, 50e-6)])
    def test_edge_matches_closed_forms(self, setup, L, w):
        p = make_params(L, w)
        width = setup.m_d * max(spread_v_closed(p), spread_g_psf_closed(p))
        x = np.linspace(-4 * width, 4 * width, 512)
        t = edge(0.0)

        g_num = image_function_numeric(p, setup, t, x)
        g_closed = g_esf(p, setup, x)
        np.testing.assert_allclose(
            g_num.values / np.max(g_num.values), g_closed / np.max(g_closed), atol=1e-6
        )

        v_num = visibility_numeric(p, setup, t, x)
        np.testing.assert_allclose(v_num.values, v_esf(p, setup, x), atol=1e-6)

    def test_open_aperture(self, params, setup):
        x = np.linspace(-2e-4, 2e-4, 201)
        g = image_function_numeric(params, setup, OPEN, x)
        assert np.max(g.values) == pytest.approx(1.0, rel=1e-9)
        v = visibility_numeric(params, setup, OPEN, x)
        np.testing.assert_allclose(v.values, 1.0, atol=1e-12)

    def test_opaque_aperture_visibility_zero(self, params, setup):
        x = np.linspace(-1e-4, 1e-4, 64)
        t = sampled(np.linspace(-1e-3, 1e-3, 32), np.zeros(32))
        v = visibility_numeric(params, setup, t, x)
        np.testing.assert_allclose(v.values, 0.0, atol=1e-12)

    def test_uniform_half_transmission(self, params, setup):
        x = np.linspace(-1e-4, 1e-4, 64)
        t = sampled(np.linspace(-5e-3, 5e-3, 64), np.full(64, 0.5))
        v = visibility_numeric(params, setup, t, x)
        np.testing.assert_allclose(v.values, 0.5, atol=1e-9)

    def test_point_object_reproduces_g_psf(self, params, setup):
        x = np.linspace(-2e-4, 2e-4, 301)
        g = point_image(params, setup, 0.0, x)
        np.testing.assert_allclose(g / np.max(g), g_psf(params, setup, x), rtol=1e-9)

    def test_double_slit_lobe_distance(self, setup):
        # large pump waist: lobes separated by (M_d / M_u) x object distance
        p = make_params(2e-3, 308e-6)
        d_obj = 133e-6
        t = double_slit(d_obj, 30e-6)
        expected = setup.m_d / setup.m_u * d_obj
        x = np.linspace(-1.2 * expected, 1.2 * expected, 2001)
        g = image_function_numeric(p, setup, t, x)
        v = g.values
        mid = len(x) // 2
        i = int(np.argmax(v[:mid]))
        j = mid + int(np.argmax(v[mid:]))
        assert v[mid] < 0.8 * min(v[i], v[j])  # two-lobed
        lobe_distance = x[j] - x[i]
        assert lobe_distance == pytest.approx(expected, rel=0.02)

    def test_visibility_bounded_for_random_masks(self, params, setup, rng):
        x = np.linspace(-2e-4, 2e-4, 128)
        for _ in range(10):
            t_grid = np.linspace(-4e-4, 4e-4, 48)
            t = sampled(t_grid, rng.uniform(0.0, 1.0, 48))
            v = visibility_numeric(params, setup, t, x)
            assert v.values.min() >= 0.0
            assert v.values.max() <= 1.0 + 1e-9

    def test_quadrature_convergence_guard(self, params, setup):
        x = np.linspace(-2e-4, 2e-4, 32)
        with pytest.raises(AssertionError, match="node doubling"):
            image_function_numeric(params, setup, edge(0.0), x, n_nodes=3)


class TestProfile1D:
    def test_uniform_grid_required(self):
        with pytest.raises(ValueError):
            Profile1D(grid=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 2e-6], [0.0, 1e-6, np.inf], [-np.inf, 1e-6, 2e-6]],
                             ids=["nan", "inf-last", "-inf-first"])
    def test_non_finite_grid_rejected(self, grid):
        # inf - inf is NaN and inf > inf is false, so neither the increasing
        # nor the uniformity check sees these grids
        with pytest.raises(ValueError, match="grid must be finite"):
            Profile1D(grid=np.array(grid), values=np.zeros(3))

    def test_visibility_bounds_enforced(self):
        with pytest.raises(ValueError):
            Profile1D(grid=np.linspace(0, 1, 4), values=np.array([0.0, 0.5, 1.2, 1.0]), kind="v")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4000), plane=st.sampled_from(["camera", "object"]),
           pitch=st.floats(1e-9, 1e-2))
    def test_csv_matches_savetxt(self, data, n, plane, pitch):
        values = data.draw(hnp.arrays(np.float64, n, elements=st.floats(width=64) | st.sampled_from(
            [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, 1e308, -1e308])))
        profile = Profile1D(grid=(np.arange(n) - (n - 1) / 2.0) * pitch, values=values, plane=plane)
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = Path(tmp) / "profile.csv", Path(tmp) / "oracle.csv"
            write_profile_csv(profile, path)
            np.savetxt(oracle, np.column_stack([profile.grid, profile.values]), delimiter=",",
                       fmt="%.17g", header=f"plane={plane}\nx_c_m, value")
            assert path.read_bytes() == oracle.read_bytes()
            if np.isfinite(values).all():
                back = read_profile_csv(path)
                assert back.plane == plane
                assert back.grid.tobytes() == profile.grid.tobytes()
                assert back.values.tobytes() == profile.values.tobytes()

    def test_csv_round_trip(self, tmp_path, params, setup):
        x = np.linspace(-1e-4, 1e-4, 33)
        profile = Profile1D(grid=x, values=v_esf(params, setup, x), plane="camera", kind="v")
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        back = read_profile_csv(path)
        assert back.plane == "camera"
        np.testing.assert_array_equal(back.grid, profile.grid)
        np.testing.assert_array_equal(back.values, profile.values)
