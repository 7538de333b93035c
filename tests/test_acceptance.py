"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 4's large-waist clause is asserted at its stated threshold
and is expected to fail: the skew of the amplitude ESF derivative decays
as (w_sing / w_p)^2 with a ~59.5 prefactor for the 730/910 nm pair, so
the deviation from the PSF at w_p = 100 w_sing is ~5.9e-3, crossing
1e-3 only near 244 w_sing (see README).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from qiul.core import OpticalSetup, SourceParams, singular_waist
from qiul.biphoton import correlation_coefficient
from qiul.dpsh import NoiseModel, demodulate, synthesize_stack
from qiul.fitting import fit_double_slit
from qiul.imaging import (
    Profile1D,
    g_envelope_coefficient,
    g_esf,
    g_esf_derivative,
    g_psf,
    v_esf,
    v_psf,
)
from qiul.pipeline import simulate_edge
from qiul.spreads import (
    knife_edge_width_2476,
    spread_g_psf_closed,
    spread_ratio,
    spread_v_closed,
)

from conftest import CRYSTAL_LENGTHS, PARAM_GRID, PUMP_WAISTS, make_params
from quadrature import edge, image_function_numeric, visibility_numeric

mp.mp.dps = 50
SETUP = OpticalSetup()


def report(number: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:2d} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_large_waist_limit():
    """spread_v at w_p = 10 mm matches sqrt(L(ld+lu)/4pi) within 0.1%."""
    ld, lu = mp.mpf("730e-9"), mp.mpf("910e-9")
    worst = 0.0
    values_um = []
    for L in CRYSTAL_LENGTHS:
        limit = float(mp.sqrt(mp.mpf(L) * (ld + lu) / (4 * mp.pi)))
        got = spread_v_closed(make_params(L, 10e-3))
        worst = max(worst, abs(got / limit - 1.0))
        values_um.append(round(got * 1e6, 1))
    ok = worst < 1e-3 and values_um == [16.2, 25.5, 36.1]
    report(1, ok, f"large-waist limits {values_um} um, worst dev {worst:.2e}")


def test_criterion_02_separability_point():
    """Correlation crosses zero at the singular waist (1e-6 bracketing)."""
    ok = True
    sings_um = []
    for L in CRYSTAL_LENGTHS:
        p = make_params(L, 100e-6)
        w_sing = singular_waist(p)
        sings_um.append(round(w_sing * 1e6, 1))
        below = correlation_coefficient(p.with_waist(w_sing * (1 - 1e-6)))
        above = correlation_coefficient(p.with_waist(w_sing * (1 + 1e-6)))
        ok = ok and below < 0 < above
    ok = ok and sings_um == [11.4, 18.0, 25.4]
    report(2, ok, f"correlation sign change at w_sing = {sings_um} um")


def test_criterion_03_visibility_derivative_identity():
    """Normalized d/dx_c V_ESF equals V_PSF to 1e-10 on 1024 points for
    12 random valid parameter tuples."""
    rng = np.random.default_rng(314159)
    worst = 0.0
    h = 1e-20
    for _ in range(12):
        ld = rng.uniform(600e-9, 800e-9)
        lu = rng.uniform(850e-9, 1000e-9)
        lp = 1.0 / (1.0 / ld + 1.0 / lu)
        L = rng.uniform(1e-3, 10e-3)
        p = SourceParams(lp, ld, lu, L, 1e-4)
        p = p.with_waist(singular_waist(p) * 10 ** rng.uniform(0.2, 1.5))
        width = SETUP.m_d * spread_v_closed(p)
        x = np.linspace(-4 * width, 4 * width, 1024)
        deriv = np.imag(v_esf(p, SETUP, x + 1j * h)) / h
        deriv0 = np.imag(v_esf(p, SETUP, 0.0 + 1j * h)) / h
        worst = max(worst, float(np.max(np.abs(deriv / deriv0 - v_psf(p, SETUP, x)))))
    report(3, worst < 1e-10, f"max pointwise deviation {worst:.2e} (12 tuples)")


def test_criterion_04_non_isoplanatism():
    """Normalized d/dx_c G_ESF far from G_PSF at (10 mm, 50 um), close at
    100 w_sing. The second clause's threshold is not attainable by the
    model (true deviation ~5.9e-3 there, see module docstring); it is
    asserted as stated and fails honestly."""

    def deviation(p):
        x = np.linspace(-4e-4, 4e-4, 1024)
        deriv = g_esf_derivative(p, SETUP, x)
        return float(np.max(np.abs(deriv / np.max(deriv) - g_psf(p, SETUP, x))))

    p_small = make_params(10e-3, 50e-6)
    dev_small = deviation(p_small)
    dev_large = deviation(p_small.with_waist(100.0 * singular_waist(p_small)))
    ok = dev_small > 1e-3 and dev_large < 1e-3
    report(4, ok, f"deviation {dev_small:.2e} at 50 um (need > 1e-3), "
                  f"{dev_large:.2e} at 100 w_sing (need < 1e-3)")


def test_criterion_05_closed_form_vs_quadrature():
    """Edge-object quadrature matches g_esf / v_esf to 1e-6 on 512
    points over the reference parameter grid."""
    worst = 0.0
    for L, w in PARAM_GRID:
        p = make_params(L, w)
        width = SETUP.m_d * max(spread_v_closed(p), spread_g_psf_closed(p))
        x = np.linspace(-4 * width, 4 * width, 512)
        g_num = image_function_numeric(p, SETUP, edge(0.0), x).values
        g_ref = g_esf(p, SETUP, x)
        worst = max(worst, float(np.max(np.abs(g_num / g_num.max() - g_ref / g_ref.max()))))
        v_num = visibility_numeric(p, SETUP, edge(0.0), x).values
        worst = max(worst, float(np.max(np.abs(v_num - v_esf(p, SETUP, x)))))
    report(5, worst < 1e-6, f"max closed-vs-quadrature deviation {worst:.2e} (12 tuples)")


def test_criterion_06_knife_edge_consistency():
    """24/76 knife-edge width of V_ESF equals M_d spread_v within 0.5%
    wherever w_p > 1.2 w_sing."""
    worst = 0.0
    n_checked = 0
    for L, w in PARAM_GRID:
        p = make_params(L, w)
        if w <= 1.2 * singular_waist(p):
            continue
        n_checked += 1
        delta_c = SETUP.m_d * spread_v_closed(p)
        x = np.linspace(-6 * delta_c, 6 * delta_c, 4096)
        profile = Profile1D(grid=x, values=v_esf(p, SETUP, x), kind="v")
        width = knife_edge_width_2476(profile).width
        worst = max(worst, abs(width / delta_c - 1.0))
    ok = worst < 5e-3 and n_checked == 12
    report(6, ok, f"knife-edge vs 1/e spread: worst {worst:.2e} over {n_checked} tuples")


def test_criterion_07_ratio_behavior():
    """Spread ratio tends to 1 for large waists, collapses near the
    singularity, and is magnification independent."""
    ok = True
    details = []
    for L in CRYSTAL_LENGTHS:
        p = make_params(L, 100e-6)
        w_sing = singular_waist(p)
        high = spread_ratio(p.with_waist(100.0 * w_sing))
        low = spread_ratio(p.with_waist(1.05 * w_sing))
        details.append(f"L={L * 1e3:.0f}mm: {high:.3f}/{low:.3f}")
        ok = ok and abs(high - 1.0) < 0.03 and low < 0.3
    p = make_params(5e-3, 214e-6)
    doubled = OpticalSetup(m_d=5.34, m_u=2.0, m_d_i=2.0, m_u_i=2.0, m_d_c=2.67)
    ok = ok and spread_ratio(p, SETUP) == pytest.approx(spread_ratio(p, doubled), rel=1e-12)
    report(7, ok, "ratio at 100/1.05 w_sing: " + ", ".join(details))


def test_criterion_08_dpsh_exactness():
    """Noiseless stacks with 3, 4, and 16 steps demodulate to machine
    precision."""
    rng = np.random.default_rng(7)
    shape = (9, 11)
    b = rng.uniform(500.0, 2000.0, shape)
    from qiul.dpsh import SceneModel

    scene = SceneModel(
        background=b,
        modulation=b * rng.uniform(0.05, 1.0, shape),
        phase_map=rng.uniform(-math.pi, math.pi, shape),
    )
    worst = 0.0
    for n in (3, 4, 16):
        phases = 2.0 * math.pi * np.arange(n) / n
        result = demodulate(synthesize_stack(scene, phases))
        worst = max(worst, float(np.max(np.abs(result.g_image / (2 * scene.modulation) - 1))))
        worst = max(worst, float(np.max(np.abs(result.b_image / scene.background - 1))))
        dphi = np.angle(np.exp(1j * (result.phase_image - scene.phase_map)))
        worst = max(worst, float(np.max(np.abs(dphi))))
    report(8, worst < 1e-10, f"worst relative demodulation error {worst:.2e} (N = 3, 4, 16)")


def _edge_sim_geometry(p):
    env_c = SETUP.m_d / math.sqrt(g_envelope_coefficient(p))
    dv_c = SETUP.m_d * spread_v_closed(p)
    pitch = dv_c / 30.0
    cols = int(min(4096, max(1024, 10.0 * max(env_c, dv_c) / pitch)))
    return pitch, cols


def test_criterion_09_end_to_end_round_trip(tmp_path):
    """simulate-edge recovers M_d to 1e-4 and the adjusted visibility
    spread to 0.5% noiselessly on the full grid; M_d within 2% over 20
    seeds at 1% read noise with 16 phases."""
    worst_md = worst_dv = 0.0
    for i, (L, w) in enumerate(PARAM_GRID):
        p = make_params(L, w)
        pitch, cols = _edge_sim_geometry(p)
        res = simulate_edge(p, SETUP, tmp_path / f"clean_{i}", n_phases=4, seed=0,
                            rows=16, cols=cols, pixel_pitch=pitch)
        worst_md = max(worst_md, res["comparison"]["m_d_relative_error"])
        worst_dv = max(worst_dv, res["comparison"]["delta_v_relative_error"])
    ok = worst_md < 1e-4 and worst_dv < 5e-3

    p = make_params(5e-3, 214e-6)
    pitch, cols = _edge_sim_geometry(p)
    worst_noisy = 0.0
    for seed in range(20):
        res = simulate_edge(p, SETUP, tmp_path / f"noisy_{seed}", n_phases=16, seed=seed,
                            noise=NoiseModel(read_sigma=100.0), rows=16, cols=cols,
                            pixel_pitch=pitch)
        m_d = res["analysis"]["m_d_avg"]
        err = abs(m_d - SETUP.m_d) / SETUP.m_d if m_d is not None else math.inf
        worst_noisy = max(worst_noisy, err)
    ok = ok and worst_noisy < 0.02
    report(9, ok, f"noiseless worst M_d err {worst_md:.1e}, dV err {worst_dv:.1e}; "
                  f"noisy worst M_d err {worst_noisy:.1e} (20 seeds)")


def test_criterion_10_double_slit_magnification():
    """Two-slit fit returns 2.67 for a 355 um separation over a 133 um
    object and propagates the +-23 um tolerance to >= 17%."""
    x = np.linspace(-6e-4, 6e-4, 801)
    sep = 2.67 * 133e-6
    y = (
        0.02
        + np.exp(-(((x + sep / 2) / 5e-5) ** 2))
        + np.exp(-(((x - sep / 2) / 5e-5) ** 2))
    )
    m = fit_double_slit(Profile1D(grid=x, values=y), slit_distance_object=133e-6,
                        object_tolerance=23e-6)
    rel_unc = m.uncertainty / m.magnification
    ok = abs(m.magnification - 2.67) < 1e-4 and rel_unc >= 0.17
    report(10, ok, f"magnification {m.magnification:.5f}, relative uncertainty {rel_unc:.3f}")


def test_criterion_11_monotone_degradation():
    """spread_v strictly decreasing in w_p on a 50-point log ladder from
    1.05 to 100 w_sing for each crystal length."""
    ok = True
    for L in CRYSTAL_LENGTHS:
        p = make_params(L, 100e-6)
        w_sing = singular_waist(p)
        ladder = w_sing * np.logspace(math.log10(1.05), 2.0, 50)
        values = [spread_v_closed(p.with_waist(float(w))) for w in ladder]
        ok = ok and all(a > b for a, b in zip(values, values[1:]))
    report(11, ok, "visibility spread strictly decreasing on 50-point ladders (3 lengths)")
