import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erf

from qiul.core import OpticalSetup, singular_waist
from qiul.errors import MultiPeak, NoCrossing, RangeNotSpanned, SeparableState
from qiul.imaging import Profile1D, g_esf_derivative, g_psf, v_esf, v_psf
from qiul.spreads import (
    SEPARABLE_MARKER,
    half_width_1e,
    knife_edge_width_2476,
    lsf_from_esf,
    min_resolvable_distance,
    spread_g_esf_numeric,
    spread_g_psf_closed,
    spread_ratio,
    spread_v_closed,
    theory_sweep_rows,
    write_sweep_csv,
)

from conftest import make_params

mp.mp.dps = 50
LD, LU = mp.mpf("730e-9"), mp.mpf("910e-9")


def oracle_spread_g_psf(L, w) -> float:
    L, w = mp.mpf(L), mp.mpf(w)
    lead = mp.sqrt(L * (LD + LU) / (4 * mp.pi))
    return float(lead / mp.sqrt(1 + LU**2 * L / (2 * mp.pi * w**2 * (LD + LU))))


def oracle_spread_v(L, w) -> float:
    L, w = mp.mpf(L), mp.mpf(w)
    lead = mp.sqrt(L * (LD + LU) / (4 * mp.pi))
    t = 2 * mp.pi * w**2 * (LD + LU)
    return float(lead * t * mp.sqrt(1 + LD**2 * L / t) / (t - LD * LU * L))


def gaussian_profile(width=1.0, n=1024, span=4.0):
    x = np.linspace(-span * width, span * width, n)
    return Profile1D(grid=x, values=np.exp(-((x / width) ** 2)))


class TestHalfWidth1e:
    def test_exact_gaussian(self):
        result = half_width_1e(gaussian_profile(width=3.7e-5))
        assert result.width == pytest.approx(3.7e-5, rel=1e-3)
        assert result.method == "one_over_e"
        assert result.interpolation_error_estimate < 1e-3 * result.width

    def test_constant_profile_has_no_crossing(self):
        x = np.linspace(0, 1, 64)
        with pytest.raises(NoCrossing):
            half_width_1e(Profile1D(grid=x, values=np.ones(64)))

    def test_two_peaks_rejected(self):
        x = np.linspace(-4, 4, 512)
        values = np.exp(-((x - 1.5) ** 2)) + np.exp(-((x + 1.5) ** 2))
        with pytest.raises(MultiPeak):
            half_width_1e(Profile1D(grid=x, values=values))

    def test_asymmetric_derivative_profile_stable_under_refinement(self, setup):
        p = make_params(10e-3, 50e-6)

        def width(n):
            x = np.linspace(-6e-4, 6e-4, n)
            deriv = g_esf_derivative(p, setup, x)
            profile = Profile1D(grid=x, values=deriv / np.max(deriv))
            return half_width_1e(profile).width

        assert width(1024) == pytest.approx(width(10240), rel=5e-3)

    def test_magnification_adjustment(self):
        result = half_width_1e(gaussian_profile(width=1e-4))
        adjusted = result.magnification_adjusted(2.67)
        assert adjusted.plane == "magnification_adjusted"
        assert result.width / adjusted.width == pytest.approx(2.67, rel=1e-9)


class TestKnifeEdge:
    def test_ideal_visibility_edge(self, setup):
        p = make_params(5e-3, 214e-6)
        delta_c = setup.m_d * spread_v_closed(p)
        x = np.linspace(-6 * delta_c, 6 * delta_c, 4096)
        profile = Profile1D(grid=x, values=v_esf(p, setup, x), kind="v")
        width = knife_edge_width_2476(profile).width
        # independent root-finding oracle for 2 erfinv(0.52)
        factor = 2.0 * brentq(lambda u: erf(u) - 0.52, 0.0, 1.0, xtol=1e-14)
        assert width == pytest.approx(factor * delta_c, rel=1e-4)
        assert abs(width / delta_c - 1.0) < 5e-3  # transferability to the 1/e width

    def test_step_function(self):
        x = np.linspace(0, 1, 101)
        values = (x >= 0.5).astype(float)
        width = knife_edge_width_2476(Profile1D(grid=x, values=values)).width
        assert width <= x[1] - x[0]

    def test_descending_edge_same_width(self, setup):
        p = make_params(5e-3, 214e-6)
        x = np.linspace(-2e-4, 2e-4, 1024)
        up = Profile1D(grid=x, values=v_esf(p, setup, x), kind="v")
        down = Profile1D(grid=x, values=v_esf(p, setup, x)[::-1], kind="v")
        assert knife_edge_width_2476(up).width == pytest.approx(
            knife_edge_width_2476(down).width, rel=1e-12
        )

    def test_range_not_spanned(self):
        x = np.linspace(0, 1, 64)
        with pytest.raises(RangeNotSpanned):
            knife_edge_width_2476(Profile1D(grid=x, values=0.5 + 0.1 * x))


class TestLsfFromEsf:
    def test_linear_ramp(self):
        x = np.linspace(0, 1, 64)
        lsf = lsf_from_esf(Profile1D(grid=x, values=2.0 * x))
        np.testing.assert_allclose(lsf.values, 1.0, atol=1e-12)

    def test_matches_v_psf(self, setup):
        p = make_params(5e-3, 214e-6)
        x = np.linspace(-3e-4, 3e-4, 1024)
        esf = Profile1D(grid=x, values=v_esf(p, setup, x), kind="v")
        lsf = lsf_from_esf(esf)
        np.testing.assert_allclose(lsf.values, v_psf(p, setup, x), atol=1e-4)

    def test_noisy_peak_location(self, setup):
        p = make_params(5e-3, 214e-6)
        delta_c = setup.m_d * spread_v_closed(p)
        x = np.linspace(-4 * delta_c, 4 * delta_c, 25)
        clean = v_esf(p, setup, x)
        clean_peak = int(np.argmax(lsf_from_esf(Profile1D(grid=x, values=clean)).values))
        rng = np.random.default_rng(42)
        for _ in range(100):
            noisy = clean + rng.normal(0.0, 0.01, size=x.size)
            lsf = lsf_from_esf(Profile1D(grid=x, values=noisy))
            assert abs(int(np.argmax(lsf.values)) - clean_peak) <= 2


class TestClosedFormSpreads:
    def test_g_psf_spread_large_waist(self):
        got = spread_g_psf_closed(make_params(2e-3, 1.0))
        assert got == pytest.approx(oracle_spread_g_psf("2e-3", "1.0"), rel=1e-12)
        assert got * 1e6 == pytest.approx(16.2, abs=0.1)

    def test_g_psf_spread_focused(self):
        got = spread_g_psf_closed(make_params(10e-3, 50e-6))
        assert got == pytest.approx(oracle_spread_g_psf("10e-3", "50e-6"), rel=1e-12)
        assert got * 1e6 == pytest.approx(31.4, abs=0.1)

    def test_g_psf_spread_consistent_with_sampled_profile(self, setup):
        p = make_params(5e-3, 142e-6)
        expected_c = setup.m_d * spread_g_psf_closed(p)
        x = np.linspace(-4 * expected_c, 4 * expected_c, 8192)
        width = half_width_1e(Profile1D(grid=x, values=g_psf(p, setup, x))).width
        assert width == pytest.approx(expected_c, rel=2e-3)

    def test_v_spread_large_waist(self):
        got = spread_v_closed(make_params(5e-3, 1.0))
        assert got == pytest.approx(oracle_spread_v("5e-3", "1.0"), rel=1e-12)
        assert got * 1e6 == pytest.approx(25.5, abs=0.1)

    def test_v_spread_focused(self):
        got = spread_v_closed(make_params(10e-3, 50e-6))
        assert got == pytest.approx(oracle_spread_v("10e-3", "50e-6"), rel=1e-12)
        assert got * 1e6 == pytest.approx(53.5, abs=0.2)

    def test_v_spread_diverges_at_singularity(self):
        p = make_params(5e-3, 100e-6)
        w_sing = singular_waist(p)
        near = spread_v_closed(p.with_waist(1.01 * w_sing))
        limit = math.sqrt(p.crystal_length * (p.lambda_d + p.lambda_u) / (4 * math.pi))
        assert near > 10.0 * limit

    def test_v_spread_separable_state(self):
        p = make_params(5e-3, 100e-6)
        w_sing = singular_waist(p)
        with pytest.raises(SeparableState):
            spread_v_closed(p.with_waist(w_sing))
        with pytest.raises(SeparableState):
            spread_v_closed(p.with_waist(0.5 * w_sing))

    def test_v_spread_below_singularity_flag(self):
        p = make_params(5e-3, 100e-6)
        w_sing = singular_waist(p)
        value = spread_v_closed(p.with_waist(0.5 * w_sing), below_singularity=True)
        assert value > 0
        with pytest.raises(SeparableState):
            spread_v_closed(p.with_waist(w_sing), below_singularity=True)

    def test_v_spread_at_least_g_spread(self):
        p = make_params(5e-3, 100e-6)
        w_sing = singular_waist(p)
        for r in np.logspace(math.log10(1.05), 3, 20):
            pr = p.with_waist(float(r * w_sing))
            assert spread_v_closed(pr) >= spread_g_psf_closed(pr)

    def test_v_spread_sqrt_length_scaling(self):
        ratio = spread_v_closed(make_params(8e-3, 1e-2)) / spread_v_closed(make_params(2e-3, 1e-2))
        assert ratio == pytest.approx(2.0, rel=5e-3)

    def test_wavelength_swap_keeps_leading_term(self):
        p = make_params(5e-3, 10e-3)
        from qiul.core import SourceParams

        swapped = SourceParams(
            lambda_p=p.lambda_p, lambda_d=p.lambda_u, lambda_u=p.lambda_d,
            crystal_length=p.crystal_length, pump_waist=p.pump_waist,
        )
        assert spread_v_closed(p) == pytest.approx(spread_v_closed(swapped), rel=1e-4)


class TestEsfDerivativeSpread:
    def test_large_waist_matches_visibility_spread(self):
        p = make_params(5e-3, 100e-6)
        p = p.with_waist(100.0 * singular_waist(p))
        assert spread_g_esf_numeric(p) == pytest.approx(spread_v_closed(p), rel=0.01)

    def test_at_singular_waist_scales_with_detected_beam_size(self):
        # With a constant erf factor the profile is the derivative of the
        # Gaussian envelope, -2kx exp(-kx^2). Root-finding oracle for the
        # symmetric 1/e crossing half-distance of that shape (in units of
        # the envelope width sqrt(lambda_d L / 4 pi)): ~0.6695, not 1.0.
        level = (1.0 / math.sqrt(2.0)) * math.exp(-1.5)
        f = lambda u: u * math.exp(-(u**2)) - level
        u1 = brentq(f, 1e-9, 1.0 / math.sqrt(2.0), xtol=1e-14)
        u2 = brentq(f, 1.0 / math.sqrt(2.0), 10.0, xtol=1e-14)
        factor = 0.5 * (u2 - u1)
        p = make_params(5e-3, 100e-6)
        p = p.with_waist(singular_waist(p))
        envelope = math.sqrt(p.lambda_d * p.crystal_length / (4.0 * math.pi))
        assert spread_g_esf_numeric(p) == pytest.approx(factor * envelope, rel=1e-3)

    def test_matches_root_finding_reference(self):
        # Root-finding oracle: the peak where the complex-step slope of
        # the derivative vanishes, then its two 1/e crossings, bracketed
        # on a coarse grid.
        p = make_params(10e-3, 50e-6)
        unit = OpticalSetup(m_d=1.0, m_u=1.0, m_d_i=1.0, m_u_i=1.0, m_d_c=1.0)
        f = lambda x: g_esf_derivative(p, unit, x)
        x = np.linspace(-2e-4, 2e-4, 2001)
        d = f(x)
        i = int(np.argmax(d))
        h = 1e-20 * x[-1]
        x_peak = brentq(lambda t: f(complex(t, h)).imag / h, x[i - 1], x[i + 1], xtol=1e-19)
        level = f(x_peak) / math.e
        j = int(np.nonzero(d[: i + 1] < level)[0][-1])
        m = i + int(np.nonzero(d[i:] < level)[0][0])
        x_left = brentq(lambda t: f(t) - level, x[j], x[j + 1], xtol=1e-19)
        x_right = brentq(lambda t: f(t) - level, x[m - 1], x[m], xtol=1e-19)
        assert spread_g_esf_numeric(p) == pytest.approx(0.5 * (x_right - x_left), rel=1e-5)

    def test_no_positive_maximum_raises_before_dividing(self):
        # the derivative underflows to zero everywhere on the window
        p = make_params(1e-3, 142e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoCrossing):
                spread_g_esf_numeric(p, x_tilde_o=3e-3)


class TestSpreadRatio:
    def test_limits(self):
        p = make_params(5e-3, 100e-6)
        w_sing = singular_waist(p)
        assert 0.97 <= spread_ratio(p.with_waist(100.0 * w_sing)) <= 1.0
        assert spread_ratio(p.with_waist(1.05 * w_sing)) < 0.3

    def test_magnification_invariance(self):
        p = make_params(5e-3, 214e-6)
        s1 = OpticalSetup()
        s2 = OpticalSetup(m_d=2 * 2.67, m_u=3.0, m_d_i=2.0, m_u_i=3.0, m_d_c=2.67)
        assert spread_ratio(p, s1) == spread_ratio(p, s2)

    def test_bounded_and_increasing(self):
        p = make_params(2e-3, 100e-6)
        w_sing = singular_waist(p)
        ladder = w_sing * np.logspace(math.log10(1.05), 2, 12)
        values = [spread_ratio(p.with_waist(float(w))) for w in ladder]
        assert all(0 < v <= 1.05 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))


class TestMinResolvableDistance:
    def test_reference_value(self):
        got = min_resolvable_distance(make_params(2e-3, 1e-2), m_u=1.0)
        expected = float(0.7 * mp.sqrt(2 * mp.pi) * mp.mpf(oracle_spread_v("2e-3", "1e-2")))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got * 1e6 == pytest.approx(28.4, abs=0.2)

    def test_linear_in_undetected_magnification(self, params):
        assert min_resolvable_distance(params, 2.0) == pytest.approx(
            2.0 * min_resolvable_distance(params, 1.0), rel=1e-12
        )

    def test_chain_identity(self, params, setup):
        # 0.7 sqrt(2 pi) (M_u / M_d) * camera-plane visibility spread
        camera = setup.m_d * spread_v_closed(params)
        expected = 0.7 * math.sqrt(2 * math.pi) * (setup.m_u / setup.m_d) * camera
        assert min_resolvable_distance(params, setup.m_u) == pytest.approx(expected, rel=1e-12)


class TestSweep:
    def test_reference_grid(self, setup, tmp_path):
        base = make_params()
        rows = theory_sweep_rows(base, [2e-3, 5e-3, 10e-3], [50e-6, 142e-6, 214e-6, 308e-6], setup)
        assert len(rows) == 12
        assert all(not isinstance(r["spread_v_m"], str) for r in rows)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "L_m,w_p_m,spread_v_m,spread_g_psf_m,spread_g_esf_m,ratio,w_sing_m,d_min_m"

    def test_separable_rows_marked(self, setup):
        base = make_params()
        rows = theory_sweep_rows(base, [10e-3], [10e-6, 25.4e-6, 100e-6], setup)
        by_waist = {round(r["w_p_m"] * 1e6, 1): r for r in rows}
        assert by_waist[10.0]["spread_v_m"] == SEPARABLE_MARKER
        # 25.4 um sits inside the divergence band of w_sing(10 mm)
        assert by_waist[25.4]["spread_v_m"] == SEPARABLE_MARKER
        assert by_waist[100.0]["spread_v_m"] != SEPARABLE_MARKER

    def test_input_order_invariance(self, setup, tmp_path):
        base = make_params()
        a = theory_sweep_rows(base, [10e-3, 2e-3], [308e-6, 50e-6], setup)
        b = theory_sweep_rows(base, [2e-3, 10e-3], [50e-6, 308e-6], setup)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, pa)
        write_sweep_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
