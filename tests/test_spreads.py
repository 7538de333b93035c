import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import erf

from qiul import cli, core, spreads
from qiul.core import OpticalSetup, singular_waist
from qiul.errors import (
    MultiPeak,
    NoCrossing,
    NonPositiveParameter,
    NotConverged,
    RangeNotSpanned,
    SeparableState,
    ThinCrystalRegime,
    raise_float_errors,
)
from qiul.imaging import (
    Profile1D,
    _edge_coefficients,
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
    SWEEP_COLUMNS,
    _SOLVE_ROWS,
    _SCALE_DOWN,
    _SCALE_UP,
    _WRITE_ROWS,
    _format_12e_cells,
    _g_esf_terms,
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

from conftest import LAMBDA_D, LAMBDA_U, make_params, oracle_w

mp.mp.dps = 50
LD, LU = mp.mpf("730e-9"), mp.mpf("910e-9")
# r log-spaced over +-1e-6..1e6, and r = 0
SCAN_R = np.concatenate([-np.geomspace(1e-6, 1e6, 241), [0.0], np.geomspace(1e-6, 1e6, 241)])
# r of the benchmark's sweep shape: 3 lengths x 20um:2mm:log400
_K, _C = _edge_coefficients(LAMBDA_D, LAMBDA_U, np.array([1.7e-3, 4.4e-3, 8.9e-3])[:, None],
                            np.geomspace(20e-6, 2e-3, 400))
BENCH_R = (_C / np.sqrt(_K)).ravel()
# the columns that diverge at the singular waist: NaN there, which
# sweep.csv writes as SEPARABLE_MARKER
DIVERGING = ("spread_v_m", "ratio", "d_min_m")


def marked(row: dict) -> dict:
    """row with each NaN of a diverging column replaced by SEPARABLE_MARKER."""
    return {name: SEPARABLE_MARKER if name in DIVERGING and isinstance(v, float) and math.isnan(v)
            else v for name, v in row.items()}


def sweep_rows(*args) -> list[dict]:
    """theory_sweep_rows(*args) as one dict per row, the marker in the
    diverging columns of separable rows."""
    columns = theory_sweep_rows(*args)
    return [marked(dict(zip(SWEEP_COLUMNS, values)))
            for values in zip(*(columns[name].tolist() for name in SWEEP_COLUMNS))]


def sweep_columns(rows: list[dict]) -> dict:
    """Row dicts as the float columns that write_sweep_csv takes, NaN
    where a row holds the marker."""
    return {name: np.array([math.nan if row[name] == SEPARABLE_MARKER else row[name] for row in rows],
                           dtype=float) for name in SWEEP_COLUMNS}


def first_difference(text: str, expected: str) -> str | None:
    """The first line where text and expected differ, or None where they
    are equal: a failing comparison of long texts reports one line."""
    for i, (got, want) in enumerate(itertools.zip_longest(text.splitlines(keepends=True),
                                                          expected.splitlines(keepends=True))):
        if got != want:
            return f"line {i + 1}: {got!r} != {want!r}"
    return None


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


@pytest.mark.parametrize("extract, values", [
    (half_width_1e, [0.0, 1.0, 0.0]), (knife_edge_width_2476, [0.0, 0.5, 1.0])],
    ids=["half_width_1e", "knife_edge_width_2476"])
def test_fewer_than_three_samples_refused(extract, values):
    # _crossing's slope estimate reads samples k and k + 2, which a
    # two-sample profile does not have
    with np.errstate(all="raise"):
        assert extract(Profile1D(grid=np.arange(3.0), values=np.array(values))).width > 0
        with pytest.raises(ValueError, match="at least 3 samples"):
            extract(Profile1D(grid=np.arange(2.0), values=np.array([0.0, 1.0])))


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

class TestEsfDerivativeSolver:
    # r = c / sqrt(k): 0, the ends of the sweep's usual range, the widened
    # window's edge (+-2.47) and the old window's limit (5.236), out to 1e4
    R_VALUES = [0.0, *(sign * r for r in (1e-3, 0.1, 0.5, 1.0, 2.47, 3.0, 5.236, 10.0, 100.0,
                                          1e3, 1e4) for sign in (-1.0, 1.0))]

    @pytest.mark.parametrize("r", R_VALUES + BENCH_R[50::100].tolist())
    def test_w_matches_high_precision_reference(self, r):
        # largest measured deviation over these r, 12 of them from the
        # benchmark's sweep: 2.2e-16
        assert _g_esf_widths(r)[0] == pytest.approx(oracle_w(r), rel=1e-15)

    @pytest.mark.parametrize("length", [2e-3, 10e-3])
    @pytest.mark.parametrize("waist_ratio", [0.05, 0.5, 1.001, 100.0])
    def test_matches_high_precision_reference(self, length, waist_ratio):
        # waists far below (where the old window missed the lobe), below,
        # just above and far above the singular waist
        p = make_params(length, 100e-6)
        p = p.with_waist(waist_ratio * singular_waist(p))
        k, c = g_envelope_coefficient(p), esf_slope_coefficient(p)
        expected = oracle_w(c / math.sqrt(k)) / math.sqrt(k)
        assert spread_g_esf_numeric(p) == pytest.approx(expected, rel=3e-14)

    def test_one_window_holds_one_lobe_for_every_r(self):
        # the claim the solver rests on: on a fine grid over its window,
        # merged with one over the spike's 8 / sqrt(1 + r^2) around s = 0,
        # F has one local maximum above half its peak and falls below 1/e
        # of it on both sides, for r log-spaced over 1e-6..1e6 on each side
        r = np.concatenate([-np.geomspace(1e-6, 1e6, 120), [0.0], np.geomspace(1e-6, 1e6, 120)])
        spike = 8.0 / np.sqrt(1.0 + r * r)
        span = np.maximum(spike, np.where(r > 0, 3.0, 0.0))
        # 2001 and 2000 points: the two grids share no interior point
        s = np.sort(np.concatenate([span[:, None] * np.linspace(-1.0, 1.0, 2001),
                                    spike[:, None] * np.linspace(-1.0, 1.0, 2000)], axis=1), axis=1)
        f = _unit_g_esf_derivative(1.0, r[:, None], s, 0.0)
        peak = f.max(axis=1)[:, None]
        interior = f[:, 1:-1]
        n_max = np.count_nonzero((interior > f[:, :-2]) & (interior >= f[:, 2:]) & (interior > peak / 2),
                                 axis=1)
        i = np.argmax(f, axis=1)[:, None]
        below = f < peak / math.e
        columns = np.arange(s.shape[1])
        assert np.all(n_max == 1)
        assert np.all(np.any(below & (columns < i), axis=1))
        assert np.all(np.any(below & (columns > i), axis=1))

    def test_sweep_rows_match_single_row_calls(self, setup):
        # one solve over the sweep's 150 rows, one per call: a shared
        # stopping rule must not shift any row
        base = make_params()
        lengths = [2e-3, 5e-3, 10e-3]
        waists = list(np.geomspace(20e-6, 2e-3, 50))
        rows = sweep_rows(base, lengths, waists, setup)
        for row in rows:
            p = base.with_crystal_length(row["L_m"]).with_waist(row["w_p_m"])
            assert row["spread_g_esf_m"] == pytest.approx(spread_g_esf_numeric(p), rel=1e-13)

    def test_1200_row_sweep_equals_single_row_calls(self, setup):
        # one solve covers all 3 x 400 rows: every width is bit for bit
        # its one-row call
        base = make_params()
        waists = list(np.geomspace(20e-6, 2e-3, 400))
        rows = sweep_rows(base, [2e-3, 5e-3, 10e-3], waists, setup)
        assert len(rows) == 1200
        for row in rows:
            p = base.with_crystal_length(row["L_m"]).with_waist(row["w_p_m"])
            assert row["spread_g_esf_m"] == spread_g_esf_numeric(p)

    @pytest.mark.parametrize("n_rows", [1, 128, 129, 1200])
    def test_one_peak_solve_and_one_crossing_solve_per_call(self, monkeypatch, n_rows):
        sizes = []
        newton = spreads._newton

        def counting(fn, a, *args):
            sizes.append(a.size)
            return newton(fn, a, *args)

        monkeypatch.setattr(spreads, "_newton", counting)
        _g_esf_widths(-np.geomspace(0.01, 100.0, n_rows))
        assert sizes == [n_rows, 2 * n_rows]

    def test_brackets_hold_the_peak_and_one_crossing_each(self, monkeypatch):
        # what the solver rests on, over r log-spaced in +-1e-6..1e6, r = 0
        # and |r| of 1e-17 and 1e-300: F' >= 0 at the left end of the peak
        # bracket and <= 0 at its right end; F - peak/e < 0 at both window
        # ends and changes sign exactly once on each crossing bracket, on a
        # fine grid merged with one over the spike's 8 / sqrt(1 + r^2)
        # around s = 0; each Newton start lies in its bracket
        brackets = []
        newton = spreads._newton

        def recording(fn, a, b, x, xtol):
            root = newton(fn, a, b, x, xtol)
            brackets.append((fn, a, b, x, root))
            return root

        monkeypatch.setattr(spreads, "_newton", recording)
        r = np.concatenate([SCAN_R, [-1e-17, 1e-17, -1e-300, 1e-300]])
        _g_esf_widths(r)
        (slope, lo, hi, start, s_peak), (crossing, near, ends, starts, _) = brackets
        f_lo, f_hi = _g_esf_terms(r, lo)[0], _g_esf_terms(r, hi)[0]
        assert np.all(f_lo >= 0) and np.all(f_hi <= 0)
        assert np.all(lo < hi)
        assert np.all((lo <= start) & (start <= hi))
        np.testing.assert_array_equal(slope(lo)[0], f_lo)
        np.testing.assert_array_equal(slope(hi)[0], f_hi)

        level = _unit_g_esf_derivative(1.0, r, s_peak, 0.0) / math.e
        r2, level2 = np.tile(r, 2), np.tile(level, 2)
        f_near = _unit_g_esf_derivative(1.0, r2, near, 0.0) - level2
        f_ends = _unit_g_esf_derivative(1.0, r2, ends, 0.0) - level2
        assert np.all(f_near > 0) and np.all(f_ends < 0)
        assert np.all((starts - near) * (starts - ends) < 0)
        np.testing.assert_array_equal(near, np.tile(s_peak, 2))
        np.testing.assert_array_equal(crossing(ends)[0], f_ends)
        spike = 8.0 / np.sqrt(1.0 + r2 * r2)
        for rows in np.array_split(np.arange(r2.size), 8):
            a, b = near[rows, None], ends[rows, None]
            s = np.concatenate([a + (b - a) * np.linspace(0.0, 1.0, 2001),
                                np.clip(spike[rows, None] * np.linspace(-1.0, 1.0, 2000),
                                        np.minimum(a, b), np.maximum(a, b))], axis=1)
            s.sort(axis=1)
            above = _unit_g_esf_derivative(1.0, r2[rows, None], s, 0.0) > level2[rows, None]
            assert np.all(np.count_nonzero(above[:, 1:] != above[:, :-1], axis=1) == 1)

    @pytest.mark.parametrize("name, peak_steps, crossing_steps", [
        # measured: 5 and 4 on the benchmark's sweep shape (at each of 40
        # lengths in 1..10 mm too), 6 and 7 on the scan; each bound is
        # one step above its measured value
        ("bench", 6, 5), ("scan", 7, 8)], ids=["bench", "scan"])
    def test_newton_step_budget(self, monkeypatch, name, peak_steps, crossing_steps):
        steps = []
        newton = spreads._newton

        def counting(fn, *args):
            steps.append(0)

            def counted(x):
                steps[-1] += 1
                return fn(x)

            return newton(counted, *args)

        monkeypatch.setattr(spreads, "_newton", counting)
        _g_esf_widths(BENCH_R if name == "bench" else SCAN_R)
        assert len(steps) == 2
        assert steps[0] <= peak_steps and steps[1] <= crossing_steps

    def test_newton_bisects_where_its_step_would_not_be_finite(self):
        # f = 1e10 (1 - x^2) on [0, 2], root 1: f' vanishes at the start 0,
        # and at the start 5e-324 f / f' overflows
        fn = lambda x: (1e10 * (1.0 - x * x), -2e10 * x)
        with raise_float_errors():
            roots = spreads._newton(fn, np.zeros(2), np.full(2, 2.0), np.array([0.0, 5e-324]),
                                    np.full(2, 1e-14))
        np.testing.assert_allclose(roots, 1.0, rtol=1e-14)

    def test_newton_reports_the_rows_it_could_not_finish(self):
        # a tolerance of -1 is never met: that row is still stepping after
        # the step budget, beside a row frozen at its root
        fn = lambda x: (1.0 - x * x, -2.0 * x)
        with np.errstate(all="raise"), pytest.raises(NotConverged) as error:
            spreads._newton(fn, np.zeros(2), np.full(2, 2.0), np.full(2, 0.5),
                            np.array([1e-14, -1.0]))
        assert "left 1 rows after 100 steps" in str(error.value)

    def test_rows_past_one_chunk_are_solved_in_two(self, monkeypatch):
        # one row more than a chunk: a second peak solve and crossing solve
        # for that row alone, and every width is bit for bit its one-row call
        sizes = []
        newton = spreads._newton

        def counting(fn, a, *args):
            sizes.append(a.size)
            return newton(fn, a, *args)

        monkeypatch.setattr(spreads, "_newton", counting)
        r = np.linspace(-100.0, 10.0, _SOLVE_ROWS + 1)
        widths = _g_esf_widths(r)
        assert sizes == [_SOLVE_ROWS, 2 * _SOLVE_ROWS, 1, 2]
        monkeypatch.undo()
        for r_row, width in zip(r, widths):
            assert width == _g_esf_widths(r_row)[0]

    def test_terms_match_complex_step(self):
        # F' and F'' against the complex-step derivatives of F and of F',
        # the peak solve's pair scaled by 1 / (1 + r^2); F - level against
        # imaging's F
        p = make_params(5e-3, 142e-6)
        k, c = g_envelope_coefficient(p), esf_slope_coefficient(p)
        r, s = c / math.sqrt(k), np.linspace(-3.0, 3.0, 257)
        h = 1e-20
        f = _unit_g_esf_derivative(1.0, r, s, 0.0)
        slope = np.imag(_unit_g_esf_derivative(1.0, r, s + 1j * h, 0.0)) / h
        curvature = np.imag(_g_esf_terms(r, s + 1j * h, 0.0)[1]) / h
        level_pair, peak_pair = _g_esf_terms(r, s, 0.25), _g_esf_terms(r, s)
        for analytic, numeric in ((level_pair[1], slope), ((1.0 + r * r) * peak_pair[0], slope),
                                  ((1.0 + r * r) * peak_pair[1], curvature)):
            np.testing.assert_allclose(analytic, numeric, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(analytic)))
        np.testing.assert_array_equal(level_pair[0], f - 0.25)

    def test_sweep_row_far_below_the_singular_waist_is_solved(self, setup):
        # 2 um lies below ~0.094 w_sing only at L = 10 mm, whose rows come
        # after two of 2,200 rows each: row 4,400 is in the second chunk,
        # and its width is W(r) / sqrt(k)
        waists = [2e-6, *np.geomspace(20e-6, 2e-3, 2199)]
        columns = theory_sweep_rows(make_params(), [2e-3, 5e-3, 10e-3], waists, setup)
        assert np.all(np.isfinite(columns["spread_g_esf_m"]))
        assert (columns["L_m"][4400], columns["w_p_m"][4400]) == (10e-3, 2e-6)
        k, c = _edge_coefficients(LAMBDA_D, LAMBDA_U, 10e-3, 2e-6)
        expected = oracle_w(c / math.sqrt(k)) / math.sqrt(k)
        assert columns["spread_g_esf_m"][4400] == pytest.approx(expected, rel=3e-14)


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

    def test_sweep_ratio_depends_only_on_the_waist_ratio(self, setup):
        # ratio = |r| W(r), and r = sqrt(ld lu) / (ld + lu) (1/rho - rho)
        # for rho = w_p / w_sing: equal at every L for a given rho, and
        # strictly increasing in rho
        rho = np.geomspace(1.002, 1e3, 400)
        base = make_params()
        ratios = []
        for length in (0.5e-3, 2e-3, 10e-3, 50e-3):
            w_sing = singular_waist(base.with_crystal_length(length))
            ratios.append(theory_sweep_rows(base, [length], list(rho * w_sing), setup)["ratio"])
        ratios = np.array(ratios, dtype=float)
        # largest measured spread across L: 1.8e-14 relative at rho = 1.002,
        # where w_p's rounding moves r by ~1/(rho - 1/rho) times as much
        np.testing.assert_allclose(ratios, np.broadcast_to(ratios[0], ratios.shape), rtol=5e-14)
        assert np.all(np.diff(ratios, axis=1) > 0)


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
    @settings(max_examples=60, deadline=None)
    @given(length=st.floats(math.log10(100.0 * (LAMBDA_D + LAMBDA_U)), math.log10(50e-3)),
           rho=st.floats(-3.0, 3.0))
    # with other starts, a Newton step taken without its guard overflowed here
    @example(length=-2.0, rho=-1.5)
    def test_every_row_is_finite_and_positive_or_marked(self, length, rho):
        # L log-uniform from the thin-crystal limit 100 (ld + lu) to 50 mm,
        # w_p / w_sing log-uniform over 1e-3..1e3, far below the ~0.094
        # where a window of +-8 / sqrt(k + c^2) alone missed the lobe
        base = make_params().with_crystal_length(10.0**length)
        waist = 10.0**rho * singular_waist(base)
        columns = theory_sweep_rows(base, [base.crystal_length], [waist], OpticalSetup())
        for name in SWEEP_COLUMNS:
            (value,) = columns[name].tolist()
            separable = name in DIVERGING and math.isnan(value)
            assert separable or (math.isfinite(value) and value > 0), name
        assert math.isnan(columns["ratio"][0]) == (waist <= singular_waist(base) * 1.001)

    def test_reference_grid(self, setup, tmp_path):
        base = make_params()
        columns = theory_sweep_rows(base, [2e-3, 5e-3, 10e-3], [50e-6, 142e-6, 214e-6, 308e-6],
                                    setup)
        assert tuple(columns) == SWEEP_COLUMNS
        assert all(column.shape == (12,) for column in columns.values())
        assert [columns[name].dtype for name in SWEEP_COLUMNS] == [np.float64] * len(SWEEP_COLUMNS)
        assert all(not isinstance(v, str) for v in columns["spread_v_m"])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(columns, path)
        header = path.read_text().splitlines()[0]
        assert header == "L_m,w_p_m,spread_v_m,spread_g_psf_m,spread_g_esf_m,ratio,w_sing_m,d_min_m"

    def test_large_sweep_memory(self, setup, tmp_path):
        # 10 x 3,000 rows, marker rows among them: the columns hold at most
        # 200 B a row, and writing them stays within a bounded peak. A small
        # sweep first loads what the sweep imports, so only the sweep is traced.
        base = make_params()
        lengths = list(np.geomspace(1e-3, 10e-3, 10))
        waists = list(np.geomspace(5e-6, 5e-3, 3000))
        write_sweep_csv(theory_sweep_rows(base, lengths[:2], waists[:10], setup), tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            columns = theory_sweep_rows(base, lengths, waists, setup)
            held = tracemalloc.get_traced_memory()[0]
            write_sweep_csv(columns, tmp_path / "sweep.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 200 * len(lengths) * len(waists)
        assert peak <= 10e6

    @pytest.mark.parametrize("lengths, waists", [
        ([1.7e-3, 4.4e-3, 8.9e-3], "20um:2mm:log400"),
        (list(np.geomspace(1e-3, 10e-3, 10)), list(np.geomspace(5e-6, 5e-3, 3000))),
    ], ids=["3x400", "10x3000-with-markers"])
    def test_sweep_csv_equals_per_cell_formatting(self, setup, tmp_path, lengths, waists):
        if isinstance(waists, str):
            waists = cli.parse_length_list(waists)
        base = make_params()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(theory_sweep_rows(base, lengths, waists, setup), path)
        assert first_difference(path.read_text(encoding="utf-8"),
                                per_cell_sweep_csv(sweep_rows(base, lengths, waists, setup))) is None

    def test_separable_rows_marked(self, setup):
        base = make_params()
        rows = sweep_rows(base, [10e-3], [10e-6, 25.4e-6, 100e-6], setup)
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
        rows = sweep_rows(base, [2e-3, 10e-3], [50e-6, 142e-6, 1.0005 * w_sing], setup)
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
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        theory = comparison["theory_adjusted"]
        rows = sweep_rows(base, [2e-3, 5e-3], [50e-6, w, 308e-6], setup)
        (row,) = [r for r in rows if r["L_m"] == 5e-3 and r["w_p_m"] == w]
        assert theory == {key: row[key] for key in
                          ("spread_g_psf_m", "spread_g_esf_m", "w_sing_m", "spread_v_m", "d_min_m")}
        assert (theory["spread_v_m"] == SEPARABLE_MARKER) == (waist_ratio < 1.001)
        # no visibility error against the marker; the amplitude one stays
        for key in ("delta_v_relative_error", "v_knife_relative_error"):
            assert (comparison[key] is None) == (waist_ratio < 1.001), key
        assert comparison["delta_g_esf_relative_error"] is not None


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
        rows = sweep_rows(base, lengths, waists, setup)
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
        # validate_params runs once per distinct L; a waist is checked by
        # the one rule that reads it, once per distinct w_p
        calls, waist_checks = [], []
        validate_params = core.validate_params
        check_positive_length = spreads.check_positive_length

        def counting(params):
            calls.append(params)
            return validate_params(params)

        def checking(name, value):
            waist_checks.append((name, value))
            return check_positive_length(name, value)

        base = make_params()
        monkeypatch.setattr(core, "validate_params", counting)
        monkeypatch.setattr(spreads, "check_positive_length", checking)
        waists = list(np.geomspace(20e-6, 2e-3, 400))
        rows = sweep_rows(base, [2e-3, 5e-3, 10e-3, 5e-3], waists + waists[:7], setup)
        assert len(rows) == 3 * 400
        assert [p.crystal_length for p in calls] == [2e-3, 5e-3, 10e-3]
        assert waist_checks == [("pump_waist", w) for w in waists]

    @pytest.mark.parametrize("waist", [0.0, -1e-4, math.inf, math.nan])
    def test_invalid_waist_raises_as_its_params_would(self, setup, waist):
        base = make_params()
        with pytest.raises(NonPositiveParameter) as expected:
            replace(base, pump_waist=waist)
        with pytest.raises(NonPositiveParameter) as got:
            theory_sweep_rows(base, [2e-3, 5e-3], [142e-6, waist], setup)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

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


def per_cell_sweep_csv(rows) -> str:
    """write_sweep_csv's text formatted one cell at a time, NaN in a
    diverging column as the marker."""
    return "".join(
        ",".join(v if isinstance(v, str) else format(v, ".12e") for v in cells) + "\n"
        for cells in [SWEEP_COLUMNS] + [[marked(row)[name] for name in SWEEP_COLUMNS] for row in rows]
    )


@st.composite
def sweep_csv_rows(draw):
    # L_m, w_p_m and w_sing_m drawn from a small pool, so values repeat
    # across rows and columns; the pool always holds 0.0 and -0.0, which
    # are equal but print differently
    pool = [0.0, -0.0] + draw(st.lists(st.floats(), max_size=4))
    shared = st.sampled_from(pool)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = {name: draw(st.floats()) for name in SWEEP_COLUMNS}
        row.update(L_m=draw(shared), w_p_m=draw(shared), w_sing_m=draw(shared))
        if draw(st.booleans()):
            row.update(spread_v_m=SEPARABLE_MARKER, ratio=SEPARABLE_MARKER, d_min_m=SEPARABLE_MARKER)
        rows.append(row)
    return rows


def _csv_row(L, w, w_sing, marked=False):
    row = dict(zip(SWEEP_COLUMNS, (L, w, 1.5e-5, 2e-5, 1.75e-5, 0.75, w_sing, 6.6e-5)))
    if marked:
        row.update(spread_v_m=SEPARABLE_MARKER, ratio=SEPARABLE_MARKER, d_min_m=SEPARABLE_MARKER)
    return row


# (value, its %.12e text, whether _format_12e_cells gives it): exact ties
# round half to even, a carry into the next decade, the neighbours of a
# power of ten that log10 misplaces, the ends of the kernel's range and
# of the float range, signed zeros and non-finite values
NAMED_CELLS = [
    (1234567890122.5, "1.234567890122e+12", False),
    (1234567890123.5, "1.234567890124e+12", False),
    (9.9999999999996e-4, "1.000000000000e-03", True),
    (math.nextafter(1e-3, 0.0), "1.000000000000e-03", None),
    (1e-3, "1.000000000000e-03", None),
    (math.nextafter(1e-3, 1.0), "1.000000000000e-03", None),
    (1e-10, "1.000000000000e-10", None),
    (1e22, "1.000000000000e+22", True),
    (1e23, "1.000000000000e+23", None),
    (1e101, "1.000000000000e+101", False),
    (5e-324, "4.940656458412e-324", False),
    (1.7976931348623157e308, "1.797693134862e+308", False),
    (0.0, "0.000000000000e+00", False),
    (-0.0, "-0.000000000000e+00", False),
    (-1.5e-5, "-1.500000000000e-05", False),
    (math.nan, "nan", False),
    (math.inf, "inf", False),
    (-math.inf, "-inf", False),
]


def cells_as_rows(values) -> list[dict]:
    """values as the cells of consecutive rows, the last row padded with 1e-3."""
    n = len(SWEEP_COLUMNS)
    values = list(values)
    values += [1e-3] * (-len(values) % n)
    return [dict(zip(SWEEP_COLUMNS, values[i:i + n])) for i in range(0, len(values), n)]


class TestWriteSweepCsv:
    @settings(max_examples=150, deadline=None)
    @given(rows=sweep_csv_rows())
    @example(rows=[_csv_row(0.0, 0.0, 0.0), _csv_row(-0.0, -0.0, -0.0),
                   _csv_row(0.0, -0.0, 0.0, marked=True), _csv_row(2e-3, 2e-3, 0.0),
                   _csv_row(2e-3, -0.0, 2e-3)])
    # more rows than one write holds, marker rows on both sides of the split
    @example(rows=[_csv_row(2e-3, 1e-6 * (n + 1), 1.1e-5, marked=n % 997 == 0 or n == _WRITE_ROWS)
                   for n in range(_WRITE_ROWS + 3)])
    # non-finite values in unmarked columns, and marker rows next to rows
    # of cells the kernel leaves to format()
    @example(rows=[_csv_row(math.nan, math.inf, -math.inf), _csv_row(2e-3, 1e-5, 1e-5, marked=True),
                   dict(zip(SWEEP_COLUMNS, (math.nan, -math.inf, math.inf, math.nan, -1.5e-5,
                                            math.inf, -0.0, math.nan))),
                   _csv_row(-2e-3, 1234567890122.5, 1e101, marked=True)])
    @example(rows=cells_as_rows(v for v, _, _ in NAMED_CELLS))
    def test_text_equals_per_cell_formatting(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "sweep.csv"
        write_sweep_csv(sweep_columns(rows), path)
        assert first_difference(path.read_text(encoding="utf-8"), per_cell_sweep_csv(rows)) is None

    def test_writes_under_raising_float_errors(self, tmp_path):
        # cli.main runs the writer under raise_float_errors
        rows = [_csv_row(v, -v, v) for v, _, _ in NAMED_CELLS]
        rows += [_csv_row(v, 1e-5, v, marked=True) for v in (math.nan, 1e308, -1e-300)]
        path = tmp_path / "sweep.csv"
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            write_sweep_csv(sweep_columns(rows), path)
        assert path.read_text(encoding="utf-8") == per_cell_sweep_csv(rows)


def kernel_mismatches(values: np.ndarray) -> tuple[int, list]:
    """The number of cells _format_12e_cells gives, and those among them
    whose text differs from format(v, ".12e")."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        exact, text = _format_12e_cells(values)
    assert exact.shape == values.shape and text.shape == (values.size, 18)
    return int(exact.sum()), [
        (v, row.tobytes()) for v, row in zip(values[exact].tolist(), text[exact])
        if row.tobytes().decode("ascii") != format(v, ".12e")]


class TestFormat12eCells:
    def test_scale_tables_are_exact_powers_of_ten(self):
        assert [float(10**k) for k in range(22, -1, -1)] + [1.0] * 22 == _SCALE_UP.tolist()
        assert [1.0] * 22 + [float(10**k) for k in range(23)] == _SCALE_DOWN.tolist()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=64))
    def test_exact_cells_equal_format(self, values):
        assert kernel_mismatches(np.array(values))[1] == []

    def test_seeded_log_uniform_values(self):
        # over the whole float range, both signs; then over the kernel's
        # range, where it leaves under 1% of the cells to format()
        rng = np.random.default_rng(29)
        n = 100_000
        whole = np.exp(rng.uniform(math.log(5e-324), math.log(1.7976931348623157e308), n))
        n_exact, wrong = kernel_mismatches(whole * rng.choice([-1.0, 1.0], n))
        assert wrong == [] and n_exact > 1000
        n_exact, wrong = kernel_mismatches(np.exp(rng.uniform(math.log(1e-10), math.log(1e35), n)))
        assert wrong == [] and n_exact >= 0.99 * n

    @pytest.mark.parametrize("value, text, exact", NAMED_CELLS, ids=[repr(v) for v, _, _ in NAMED_CELLS])
    def test_named_values(self, value, text, exact):
        assert format(value, ".12e") == text
        n_exact, wrong = kernel_mismatches(np.array([value]))
        assert wrong == []
        if exact is not None:
            assert n_exact == exact
