import json
import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import erf

from qiul import core
from qiul.core import OpticalSetup, singular_waist
from qiul.errors import (
    MultiPeak,
    NoCrossing,
    NonPositiveParameter,
    RangeNotSpanned,
    SeparableState,
    ThinCrystalRegime,
)
from qiul.imaging import (
    Profile1D,
    _unit_g_esf_derivative,
    esf_slope_coefficient,
    g_envelope_coefficient,
    g_esf_derivative,
    g_psf,
    v_esf,
    v_psf,
)
from qiul.pipeline import simulate_edge
from qiul.spreads import (
    SEPARABLE_MARKER,
    _g_esf_slope,
    _g_esf_widths,
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

from conftest import LAMBDA_D, LAMBDA_U, make_params

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


def oracle_spread_g_esf(k, c, x_tilde_o) -> float:
    """1/e half-width of the unit-magnification amplitude ESF derivative
    at 50 digits for the given coefficients: the peak where the
    derivative's slope vanishes, then its two 1/e crossings, each
    bracketed on a 401-point grid."""
    k, c, x_tilde_o = mp.mpf(k), mp.mpf(c), mp.mpf(x_tilde_o)

    def f(x):
        u = c * (x - x_tilde_o)
        return mp.exp(-k * x**2) * (-2 * k * x * mp.erfc(u) - 2 * c / mp.sqrt(mp.pi) * mp.exp(-u**2))

    span = 8 / mp.sqrt(k + c * c) + abs(x_tilde_o)
    xs = [span * (t - 200) / 200 for t in range(401)]
    fs = [f(x) for x in xs]
    i = max(range(len(fs)), key=fs.__getitem__)
    x_peak = mp.findroot(lambda x: mp.diff(f, x), (xs[i - 1], xs[i + 1]), solver="anderson")
    level = f(x_peak) / mp.e
    j = max(t for t in range(i + 1) if fs[t] < level)
    m = min(t for t in range(i, len(fs)) if fs[t] < level)
    left = mp.findroot(lambda x: f(x) - level, (xs[j], xs[j + 1]), solver="anderson")
    right = mp.findroot(lambda x: f(x) - level, (xs[m - 1], xs[m]), solver="anderson")
    return float((right - left) / 2)


def gaussian_profile(width=1.0, n=1024, span=4.0):
    x = np.linspace(-span * width, span * width, n)
    return Profile1D(grid=x, values=np.exp(-((x / width) ** 2)))


class TestHalfWidth1e:
    def test_exact_gaussian(self):
        result = half_width_1e(gaussian_profile(width=3.7e-5))
        assert result.width == pytest.approx(3.7e-5, rel=1e-3)
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

    @pytest.mark.parametrize("length", [2e-3, 5e-3, 10e-3])
    @pytest.mark.parametrize("waist_ratio", [0.3, 0.5, 1.01, 1.5, 3.0, 100.0])
    def test_coefficient_forms_match_high_precision_reference(self, length, waist_ratio):
        # 1/sqrt(k + c^2) and 1/|c| against the 50-digit expanded formulas,
        # above the singular waist and, as 1/|c| itself, under it
        p = make_params(length, 100e-6)
        p = p.with_waist(waist_ratio * singular_waist(p))
        L, w = mp.mpf(p.crystal_length), mp.mpf(p.pump_waist)
        assert spread_g_psf_closed(p) == pytest.approx(oracle_spread_g_psf(L, w), rel=1e-13)
        got = spread_v_closed(p) if waist_ratio > 1.0 else 1.0 / abs(esf_slope_coefficient(p))
        assert got == pytest.approx(abs(oracle_spread_v(L, w)), rel=1e-13)

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


class TestEsfDerivativeSolver:
    @pytest.mark.parametrize("length", [2e-3, 10e-3])
    @pytest.mark.parametrize("waist_ratio", [0.5, 1.001, 100.0])
    @pytest.mark.parametrize("offset", [0.0, 0.3, -0.7])
    def test_matches_high_precision_reference(self, length, waist_ratio, offset):
        # waists below, just above and far above the singular waist;
        # offsets in units of the envelope width 1/sqrt(k)
        p = make_params(length, 100e-6)
        p = p.with_waist(waist_ratio * singular_waist(p))
        k, c = g_envelope_coefficient(p), esf_slope_coefficient(p)
        x_tilde_o = offset / math.sqrt(k)
        expected = oracle_spread_g_esf(k, c, x_tilde_o)
        assert spread_g_esf_numeric(p, x_tilde_o) == pytest.approx(expected, rel=1e-12)

    def test_sweep_rows_match_single_row_calls(self, setup):
        # batched solves for the sweep (150 rows, more than one block),
        # one solve per call: a shared stopping rule must not shift any row
        base = make_params()
        lengths = [2e-3, 5e-3, 10e-3]
        waists = list(np.geomspace(20e-6, 2e-3, 50))
        rows = theory_sweep_rows(base, lengths, waists, setup)
        for row in rows:
            p = base.with_crystal_length(row["L_m"]).with_waist(row["w_p_m"])
            assert row["spread_g_esf_m"] == pytest.approx(spread_g_esf_numeric(p), rel=1e-13)

    def test_slope_matches_complex_step(self):
        p = make_params(5e-3, 142e-6)
        k, c = g_envelope_coefficient(p), esf_slope_coefficient(p)
        x = np.linspace(-3e-4, 3e-4, 257)
        h = 1e-20
        numeric = np.imag(_unit_g_esf_derivative(k, c, x + 1j * h, 11e-6)) / h
        analytic = _g_esf_slope(k, c, x, 11e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(analytic)))

    def test_second_maximum_above_half_raises(self):
        # an edge left of the envelope lobe adds a second maximum above
        # half the peak
        p = make_params(10e-3, 308e-6)
        with pytest.raises(MultiPeak):
            spread_g_esf_numeric(p, x_tilde_o=-1.5 / math.sqrt(g_envelope_coefficient(p)))

    def test_no_positive_maximum_raises_before_dividing_in_a_batch(self):
        # the derivative underflows to zero everywhere for the middle row
        p = make_params(1e-3, 142e-6)
        k, c = g_envelope_coefficient(p), esf_slope_coefficient(p)
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            with pytest.raises(NoCrossing):
                spread_g_esf_numeric(p, x_tilde_o=3e-3)
            with pytest.raises(NoCrossing):
                _g_esf_widths(k, c, [0.0, 3e-3, 1e-5])

    def test_batch_raises_for_its_first_failing_row(self):
        p = make_params(10e-3, 308e-6)
        k, c = g_envelope_coefficient(p), esf_slope_coefficient(p)
        multi_peak = -1.5 / math.sqrt(k)
        with pytest.raises(MultiPeak):
            _g_esf_widths(k, c, [0.0, multi_peak, 3e-2])
        with pytest.raises(NoCrossing):
            _g_esf_widths(k, c, [0.0, 3e-2, multi_peak])


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

    def test_rows_equal_one_row_library_calls(self):
        setup = OpticalSetup(m_d=2 * 2.67, m_u=3.0, m_d_i=2.0, m_u_i=3.0, m_d_c=2.67)
        base = make_params()
        w_sing = singular_waist(base.with_crystal_length(10e-3))
        # the last waist lies in the marker band at 10 mm
        rows = theory_sweep_rows(base, [2e-3, 10e-3], [50e-6, 142e-6, 1.0005 * w_sing], setup)
        assert sum(row["spread_v_m"] == SEPARABLE_MARKER for row in rows) == 1
        for row in rows:
            p = replace(base, crystal_length=row["L_m"], pump_waist=row["w_p_m"])
            assert row["spread_g_psf_m"] == spread_g_psf_closed(p)
            assert row["w_sing_m"] == singular_waist(p)
            assert row["spread_g_esf_m"] == spread_g_esf_numeric(p)
            if row["spread_v_m"] != SEPARABLE_MARKER:
                assert row["spread_v_m"] == spread_v_closed(p)
                assert row["d_min_m"] == min_resolvable_distance(p, setup.m_u)

    @pytest.mark.parametrize("waist_ratio", [1.0005, 12.0])
    def test_simulate_edge_reports_the_sweep_row(self, tmp_path, waist_ratio):
        # 1.0005 w_sing lies in the marker band: the comparison carries the
        # SeparableState marker there, as sweep.csv does
        setup = OpticalSetup(m_d=2.67, m_u=1.5, m_d_i=1.0, m_u_i=1.5, m_d_c=2.67)
        base = make_params(5e-3, 100e-6)
        w = waist_ratio * singular_waist(base)
        simulate_edge(base.with_waist(w), setup, tmp_path, rows=4, cols=256, pixel_pitch=2e-6)
        theory = json.loads((tmp_path / "comparison.json").read_text())["theory_adjusted"]
        rows = theory_sweep_rows(base, [2e-3, 5e-3], [50e-6, w, 308e-6], setup)
        (row,) = [r for r in rows if r["L_m"] == 5e-3 and r["w_p_m"] == w]
        assert theory == {key: row[key] for key in
                          ("spread_g_psf_m", "spread_g_esf_m", "w_sing_m", "spread_v_m", "d_min_m")}
        assert (theory["spread_v_m"] == SEPARABLE_MARKER) == (waist_ratio < 1.001)


# waists whose float power w**2 (libm pow) and product w*w round apart: a
# sweep that squared by one and a one-row call by the other would differ
POW_AND_PRODUCT_DIFFER = [
    w for w in np.random.default_rng(7).uniform(20e-6, 2e-3, 20000).tolist() if w**2 != w * w
][:16]


@st.composite
def sweep_grids(draw):
    lengths = draw(st.lists(st.floats(1e-3, 10e-3), min_size=1, max_size=3))
    waists = draw(st.lists(st.floats(20e-6, 2e-3), max_size=5))
    if POW_AND_PRODUCT_DIFFER:
        waists += draw(st.lists(st.sampled_from(POW_AND_PRODUCT_DIFFER), min_size=1, max_size=3))
    return lengths, waists


class TestSweepIsOneRowCalls:
    def test_grid_has_waists_where_power_and_product_differ(self):
        # the property below is vacuous for the squares without them
        assert len(POW_AND_PRODUCT_DIFFER) >= 8

    @settings(max_examples=40, deadline=None)
    @given(grid=sweep_grids(), m_u=st.sampled_from([1.0, 3.0]))
    def test_every_value_equals_its_one_row_call(self, grid, m_u):
        lengths, waists = grid
        setup = OpticalSetup(m_d=2.67 * m_u, m_u=m_u, m_d_i=m_u, m_u_i=m_u, m_d_c=2.67)
        base = make_params()
        rows = theory_sweep_rows(base, lengths, waists, setup)
        assert [(r["L_m"], r["w_p_m"]) for r in rows] == [
            (L, w) for L in sorted(set(lengths)) for w in sorted(set(waists))
        ]
        for row in rows:
            p = replace(base, crystal_length=row["L_m"], pump_waist=row["w_p_m"])
            assert row["spread_g_psf_m"] == spread_g_psf_closed(p)
            assert row["w_sing_m"] == singular_waist(p)
            assert row["spread_g_esf_m"] == spread_g_esf_numeric(p)
            if row["spread_v_m"] == SEPARABLE_MARKER:
                assert row["ratio"] == row["d_min_m"] == SEPARABLE_MARKER
                assert row["w_p_m"] <= row["w_sing_m"] * (1.0 + 1e-3)
            else:
                assert row["spread_v_m"] == spread_v_closed(p)
                assert row["ratio"] == row["spread_g_esf_m"] / spread_v_closed(p)
                assert row["d_min_m"] == min_resolvable_distance(p, m_u)

    def test_validates_each_length_and_waist_once(self, monkeypatch, setup):
        calls = []

        def counting(params):
            calls.append(params)
            return validate_params(params)

        base = make_params()
        validate_params = core.validate_params
        monkeypatch.setattr(core, "validate_params", counting)
        waists = list(np.geomspace(20e-6, 2e-3, 400))
        rows = theory_sweep_rows(base, [2e-3, 5e-3, 10e-3, 5e-3], waists + waists[:7], setup)
        assert len(rows) == 3 * 400
        assert len(calls) == 3 + 400

    @pytest.mark.parametrize("lengths, waists, error", [
        ([2e-3, 5e-3], [142e-6, 0.0], NonPositiveParameter),
        ([2e-3, 99.0 * (LAMBDA_D + LAMBDA_U)], [142e-6], ThinCrystalRegime),
        ([2e-3], [142e-6, 1e200], ArithmeticError),
        ([2e-3], [1e-200, 142e-6], ArithmeticError),
    ], ids=["zero-waist", "thin-crystal", "waist-squared-overflows", "slope-squared-overflows"])
    def test_library_call_raises_without_caller_error_state(self, setup, lengths, waists, error):
        assert np.geterr()["over"] == "warn"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                theory_sweep_rows(make_params(), lengths, waists, setup)

    @pytest.mark.parametrize("waist", [1e154, 1e200, 1e-200])
    def test_one_row_coefficients_outside_float_range_raise(self, waist):
        # 1e154 m: w_p^2 fits a float, 2 pi w_p^2 (ld + lu) does not
        p = make_params(2e-3, waist)
        for one_row in (g_envelope_coefficient, esf_slope_coefficient, spread_g_psf_closed):
            with pytest.raises(OverflowError):
                one_row(p)
