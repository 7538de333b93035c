import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.special import erfc

from qiul import fitting
from qiul.core import DEFAULT_M_D_C, OpticalSetup, singular_waist
from qiul.errors import NotConverged, PeaksNotResolved, ValidationError
from qiul.fitting import (
    fit_double_slit,
    fit_edge_profiles,
    least_squares_fit,
)
from qiul.imaging import Profile1D, _coefficients, g_esf, v_esf

from conftest import PARAM_GRID, make_params


def make_edge_profiles(params, m_d, x_tilde_o=0.0, n=1024, span=None, noise=0.0, rng=None):
    setup = OpticalSetup(m_d=m_d, m_d_i=1.0, m_d_c=m_d)
    if span is None:
        span = 6.0 * m_d * 1e-4
    x = np.linspace(-span, span, n)
    g = g_esf(params, setup, x, x_tilde_o)
    v = v_esf(params, setup, x, x_tilde_o)
    if noise:
        g = g + rng.normal(0.0, noise * np.max(g), size=n)
        v = np.clip(v + rng.normal(0.0, noise, size=n), 0.0, 1.0)
    g_profile = Profile1D(grid=x, values=np.maximum(g, 0.0), plane="camera", kind="g")
    v_profile = Profile1D(grid=x, values=v, plane="camera", kind="v")
    return g_profile, v_profile


@pytest.fixture
def fit_counts(monkeypatch):
    """(model evaluations, Jacobian evaluations, iterations) of every
    least_squares_fit call that the fitting module makes, in call order."""
    counts = []

    def counting_fit(model, *args, jacobian, **kwargs):
        calls = {"model": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapped(x, p):
                calls[name] += 1
                return fn(x, p)
            return wrapped

        fit = least_squares_fit(counted("model", model), *args,
                                jacobian=counted("jacobian", jacobian), **kwargs)
        counts.append((calls["model"], calls["jacobian"], fit.iterations))
        return fit

    monkeypatch.setattr(fitting, "least_squares_fit", counting_fit)
    return counts


JACOBIAN_REL_STEP = 1e-6


def _central_difference(residual, theta: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of residual at theta, with the step
    JACOBIAN_REL_STEP * max(|theta_i|, scale_i) for parameter i: the
    oracle for the analytic Jacobians."""
    cols = []
    for i in range(theta.size):
        h = JACOBIAN_REL_STEP * max(abs(theta[i]), scale[i])
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        cols.append((residual(tp) - residual(tm)) / (2.0 * h))
    return np.column_stack(cols)


def central_difference(model, x, params, scale):
    """The central-difference oracle _central_difference of model at
    params, the step h set by max(|param|, scale) per parameter, as a
    dict of columns keyed by parameter name like the analytic Jacobians;
    and per column the roundoff floor 10 eps max|model| / h, below which
    the difference quotient resolves nothing."""
    names = tuple(params)
    theta = np.array([params[k] for k in names])
    scale = np.asarray(scale, dtype=float)
    jac = _central_difference(lambda t: model(x, dict(zip(names, t))), theta, scale)
    steps = JACOBIAN_REL_STEP * np.maximum(np.abs(theta), scale)
    floor = 10.0 * np.finfo(float).eps * np.max(np.abs(model(x, params))) / steps
    return dict(zip(names, jac.T)), dict(zip(names, floor))


def assert_jacobian_matches(analytic, numeric, rtol=1e-6):
    # column by column, relative to the column's largest entry (samples
    # where a derivative crosses zero carry no relative error of their
    # own), plus the oracle's roundoff floor, which only tells where a
    # column is all but zero, as an edge far outside the grid makes it
    columns, floor = numeric
    assert analytic.keys() == columns.keys()
    for name, column in columns.items():
        assert analytic[name].shape == column.shape, name
        error = np.max(np.abs(analytic[name] - column))
        assert error <= rtol * np.max(np.abs(column)) + floor[name], (name, error)


def gaussian_jacobian(x, p):
    """Columns d/d(mu, width) of exp(-((x - mu) / width)^2)."""
    z = (x - p["mu"]) / p["width"]
    d_mu = 2.0 * np.exp(-(z**2)) * z / p["width"]
    return {"mu": d_mu, "width": d_mu * z}


class TestLeastSquaresEngine:
    def test_exact_linear(self):
        x = np.linspace(0.0, 5.0, 32)
        data = Profile1D(grid=x, values=2.0 * x)
        fit = least_squares_fit(lambda xv, p: p["a"] * xv, data, init={"a": 0.7},
                                jacobian=lambda xv, p: {"a": xv})
        assert fit.parameters["a"] == pytest.approx(2.0, abs=1e-12)

    def test_exact_gaussian(self):
        x = np.linspace(-6.0, 6.0, 301)
        truth = {"mu": 0.3, "width": 1.7}
        model = lambda xv, p: np.exp(-(((xv - p["mu"]) / p["width"]) ** 2))
        data = Profile1D(grid=x, values=model(x, truth))
        fit = least_squares_fit(model, data, init={"mu": 0.0, "width": 1.0},
                                jacobian=gaussian_jacobian)
        assert fit.parameters["mu"] == pytest.approx(0.3, abs=1e-8)
        assert fit.parameters["width"] == pytest.approx(1.7, abs=1e-8)

    def test_gaussian_noise_bias(self):
        x = np.linspace(-6.0, 6.0, 301)
        truth = {"mu": 0.3, "width": 1.7}
        model = lambda xv, p: np.exp(-(((xv - p["mu"]) / p["width"]) ** 2))
        clean = model(x, truth)
        rng = np.random.default_rng(11)
        mus, widths = [], []
        for _ in range(100):
            data = Profile1D(grid=x, values=clean + rng.normal(0, 0.01, x.size))
            fit = least_squares_fit(model, data, init={"mu": 0.1, "width": 1.2},
                                    jacobian=gaussian_jacobian)
            mus.append(fit.parameters["mu"])
            widths.append(fit.parameters["width"])
        assert abs(np.mean(mus) - 0.3) < 1e-3 * 1.7  # bias below 0.1% of scale
        assert abs(np.mean(widths) - 1.7) < 1e-3 * 1.7

    def test_init_outside_bounds_rejected(self):
        x = np.linspace(0, 1, 16)
        data = Profile1D(grid=x, values=x)
        with pytest.raises(ValueError):
            least_squares_fit(
                lambda xv, p: p["a"] * xv, data, init={"a": -2.0}, bounds={"a": (0.0, 1.0)},
                jacobian=lambda xv, p: {"a": xv},
            )

    def test_jacobian_of_wrong_shape_rejected(self):
        x = np.linspace(0, 1, 16)
        data = Profile1D(grid=x, values=2.0 * x)
        with pytest.raises(ValueError, match="shape"):
            least_squares_fit(lambda xv, p: p["a"] * xv, data, init={"a": 1.0},
                              jacobian=lambda xv, p: {"a": xv[:-1]})

    def test_jacobian_columns_follow_names_not_order(self):
        # the columns come back in another order than init's; the engine
        # places each by its parameter name
        x = np.linspace(0, 1, 16)
        data = Profile1D(grid=x, values=2.0 * x + 0.5)
        fit = least_squares_fit(
            lambda xv, p: p["a"] * xv + p["b"], data, init={"b": 0.0, "a": 1.0},
            jacobian=lambda xv, p: {"a": xv, "b": np.ones_like(xv)})
        assert fit.parameters == pytest.approx({"b": 0.5, "a": 2.0}, rel=1e-9)

    def test_not_converged_carries_last_parameters(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        x = np.linspace(-6.0, 6.0, 301)
        model = lambda xv, p: np.exp(-(((xv - p["mu"]) / p["width"]) ** 2))
        data = Profile1D(grid=x, values=model(x, {"mu": 0.3, "width": 1.7}))
        with pytest.raises(NotConverged, match="within 1 iterations") as info:
            least_squares_fit(model, data, init={"mu": 0.0, "width": 1.0},
                              jacobian=gaussian_jacobian)
        last = info.value.parameters
        assert list(last) == ["mu", "width"]
        assert last != {"mu": 0.0, "width": 1.0}  # the one iteration moved them

    def test_covariance_scales_with_noise(self):
        x = np.linspace(-4, 4, 200)
        model = lambda xv, p: p["amp"] * np.exp(-(xv**2))
        rng = np.random.default_rng(5)
        data = Profile1D(grid=x, values=model(x, {"amp": 3.0}) + rng.normal(0, 0.05, x.size))
        fit = least_squares_fit(model, data, init={"amp": 1.0},
                                jacobian=lambda xv, p: {"amp": np.exp(-(xv**2))})
        assert fit.covariance[0, 0] > 0
        assert math.sqrt(fit.covariance[0, 0]) < 0.05  # well constrained


class TestEdgeProfileFits:
    def test_round_trip_reference_magnification(self):
        params = make_params(5e-3, 214e-6)
        g_profile, v_profile = make_edge_profiles(params, m_d=2.67)
        est = fit_edge_profiles(g_profile, v_profile, params)
        assert est.m_d_from_g == pytest.approx(2.67, abs=1e-6)
        assert est.m_d_from_v == pytest.approx(2.67, abs=1e-6)
        # self-consistent data: the two magnifications coincide
        assert abs(est.m_d_from_g / est.m_d_from_v - 1.0) < 1e-6
        assert est.gate_passed
        assert est.gate_ratio_deviation < 1e-6
        assert est.m_d_avg == pytest.approx(2.67, abs=1e-6)

    def test_recovers_other_magnification_from_default_init(self):
        params = make_params(5e-3, 214e-6)
        g_profile, v_profile = make_edge_profiles(params, m_d=3.0)
        est = fit_edge_profiles(g_profile, v_profile, params)
        assert est.m_d_from_g == pytest.approx(3.0, abs=1e-4)
        assert est.m_d_from_v == pytest.approx(3.0, abs=1e-4)

    def test_recovers_edge_offset(self):
        params = make_params(5e-3, 214e-6)
        g_profile, v_profile = make_edge_profiles(params, m_d=2.67, x_tilde_o=40e-6)
        est = fit_edge_profiles(g_profile, v_profile, params)
        assert est.v_fit.parameters["m_u_x_o"] == pytest.approx(40e-6, rel=1e-4)
        assert est.g_fit.parameters["m_u_x_o"] == pytest.approx(40e-6, rel=1e-3)
        assert est.gate_passed

    def test_constant_visibility_gives_no_estimate(self):
        params = make_params(5e-3, 214e-6)
        g_profile, _ = make_edge_profiles(params, m_d=2.67)
        flat = Profile1D(grid=g_profile.grid, values=np.full(g_profile.grid.size, 0.5), kind="v")
        try:
            est = fit_edge_profiles(g_profile, flat, params)
        except NotConverged:
            return
        assert not est.gate_passed
        assert est.m_d_avg is None

    def test_scale_equivariance(self):
        params = make_params(5e-3, 214e-6)
        scale = 3.0
        g1, v1 = make_edge_profiles(params, m_d=2.67)
        g2, v2 = make_edge_profiles(params, m_d=2.67 * scale, span=scale * 6.0 * 2.67 * 1e-4)
        est1 = fit_edge_profiles(g1, v1, params)
        est2 = fit_edge_profiles(g2, v2, params)
        assert est2.m_d_from_v / est1.m_d_from_v == pytest.approx(scale, rel=1e-6)
        assert est2.m_d_from_g / est1.m_d_from_g == pytest.approx(scale, rel=1e-6)

    def test_gate_deviation_monotone_in_width_distortion(self):
        params = make_params(5e-3, 214e-6)
        g_profile, v_profile = make_edge_profiles(params, m_d=2.67)
        deviations = []
        for eps in (0.0, 0.1, 0.2, 0.3):
            stretched = Profile1D(
                grid=v_profile.grid,
                values=np.interp(
                    v_profile.grid / (1.0 + eps), v_profile.grid, v_profile.values
                ),
                kind="v",
            )
            est = fit_edge_profiles(g_profile, stretched, params)
            deviations.append(est.gate_ratio_deviation)
        assert all(a < b for a, b in zip(deviations, deviations[1:]))

    def test_model_evaluations_pinned(self, fit_counts):
        # the initial residual and one trial step per iteration; one
        # analytic Jacobian per iteration plus the one for the covariance
        params = make_params(5e-3, 214e-6)
        g_profile, v_profile = make_edge_profiles(params, m_d=2.67, x_tilde_o=40e-6)
        fit_edge_profiles(g_profile, v_profile, params)
        assert fit_counts == [(5, 5, 4), (5, 5, 4)]

    @pytest.mark.parametrize("stretch", [1.05, 1.2])
    def test_gate_is_magnification_agreement(self, stretch):
        # with the edge at the origin the spreads cancel: the deviation is
        # how far the two fitted magnifications disagree
        params = make_params(5e-3, 214e-6)
        span = 6.0 * 2.67 * 1e-4
        g_profile, _ = make_edge_profiles(params, m_d=2.67, span=span)
        _, v_profile = make_edge_profiles(params, m_d=2.67 * stretch, span=span)
        est = fit_edge_profiles(g_profile, v_profile, params)
        assert est.gate_ratio_deviation == pytest.approx(1.0 - 1.0 / stretch, abs=1e-6)
        assert est.gate_passed == (stretch < 1.1)

    def test_below_singularity_gate_fails_but_fits_report(self):
        p = make_params(10e-3, 50e-6)
        p = p.with_waist(0.7 * singular_waist(p))
        g_profile, v_profile = make_edge_profiles(p, m_d=2.67, span=3e-3)
        est = fit_edge_profiles(g_profile, v_profile, p)
        assert not est.gate_passed
        assert est.m_d_avg is None


class TestDoubleSlit:
    @staticmethod
    def two_gauss_profile(separation=355.11e-6, width=50e-6, offset=0.03, n=601,
                          noise=0.0, rng=None):
        x = np.linspace(-6e-4, 6e-4, n)
        y = (
            offset
            + np.exp(-(((x + separation / 2) / width) ** 2))
            + np.exp(-(((x - separation / 2) / width) ** 2))
        )
        if noise:
            y = y + rng.normal(0.0, noise * y.max(), size=n)
        return Profile1D(grid=x, values=y, plane="camera")

    def test_reference_magnification(self):
        # 133 um object slits imaged 2.67x apart
        profile = self.two_gauss_profile(separation=2.67 * 133e-6)
        m = fit_double_slit(profile, slit_distance_object=133e-6)
        assert m.magnification == pytest.approx(2.67, abs=1e-6)
        assert m.peak_distance_camera == pytest.approx(2.67 * 133e-6, rel=1e-8)
        # object tolerance dominates the uncertainty: 23/133 ~ 17%
        assert m.uncertainty / m.magnification >= 23.0 / 133.0 - 1e-9

    def test_overlapping_peaks_rejected(self):
        profile = self.two_gauss_profile(separation=60e-6, width=80e-6)
        with pytest.raises(PeaksNotResolved):
            fit_double_slit(profile)

    def test_single_peak_rejected(self):
        x = np.linspace(-5e-4, 5e-4, 301)
        profile = Profile1D(grid=x, values=np.exp(-((x / 1e-4) ** 2)))
        with pytest.raises(PeaksNotResolved):
            fit_double_slit(profile)

    def test_model_evaluations_pinned(self, fit_counts):
        # the initial residual and one trial step per iteration; one
        # analytic Jacobian per iteration plus the one for the covariance
        profile = self.two_gauss_profile(noise=0.02, rng=np.random.default_rng(17))
        fit_double_slit(profile, slit_distance_object=133e-6)
        assert fit_counts == [(6, 6, 5)]

    def test_noise_bias_below_one_percent(self):
        rng = np.random.default_rng(17)
        estimates = []
        for _ in range(100):
            profile = self.two_gauss_profile(noise=0.02, rng=rng)
            m = fit_double_slit(profile, slit_distance_object=133e-6)
            estimates.append(m.magnification)
        truth = 355.11e-6 / 133e-6
        assert abs(np.mean(estimates) - truth) / truth < 0.01

    def test_object_plane_profile_rejected(self):
        profile = self.two_gauss_profile()
        with pytest.raises(ValidationError, match="plane=object"):
            fit_double_slit(Profile1D(profile.grid, profile.values, plane="object"))

    @staticmethod
    def bench_profile(m, n, seed):
        """The benchmark's two-slit profile: 133 um * m apart, 1/e width
        50 um * m / 2.67, a 2% offset and 1% additive noise; with its
        true parameters."""
        sep, width = m * 133e-6, 50e-6 * m / 2.67
        x = np.linspace(-2.0 * sep, 2.0 * sep, n)
        truth = {"offset": 0.02, "amp1": 1.0, "mu1": -sep / 2, "width1": width,
                 "amp2": 1.0, "mu2": sep / 2, "width2": width}
        y = fitting._two_slit_models()[0](x, truth)
        y = y + np.random.default_rng(seed).normal(0.0, 0.01, n)
        return Profile1D(grid=x, values=y, plane="camera"), truth

    BENCH_CASES = [(m, n, seed) for seed, (m, n) in enumerate(
        (m, n) for m in np.linspace(1.5, 4.0, 6) for n in (801, 2401, 4001))]

    def test_start_widths_at_the_half_maximum(self, monkeypatch):
        # each width starts within 25% of the true one (a quarter of the
        # peak distance is 1.78x it), and the fit takes no more steps
        # than from a quarter of the peak distance
        starts = []

        def spy(model, data, init, bounds, *, jacobian):
            starts.append((model, data, init, bounds, jacobian))
            return least_squares_fit(model, data, init, bounds, jacobian=jacobian)

        monkeypatch.setattr(fitting, "least_squares_fit", spy)
        for m, n, seed in self.BENCH_CASES:
            profile, truth = self.bench_profile(m, n, seed)
            fit = fit_double_slit(profile).fit
            model, data, init, bounds, jacobian = starts.pop()
            for name in ("width1", "width2"):
                assert abs(init[name] / truth[name] - 1.0) < 0.25, (m, n, name)
            quarter = (init["mu2"] - init["mu1"]) / 4.0
            former = least_squares_fit(model, data, {**init, "width1": quarter, "width2": quarter},
                                       bounds, jacobian=jacobian)
            assert fit.iterations <= former.iterations, (m, n)

    @staticmethod
    def reference_magnification(profile, start, slit_distance):
        # scipy's MINPACK Levenberg-Marquardt to its tightest tolerances,
        # in micrometres so that every parameter is of order one
        x = profile.grid * 1e6
        names = ("offset", "amp1", "mu1", "width1", "amp2", "mu2", "width2")
        unit = [1e6 if name[:2] in ("mu", "wi") else 1.0 for name in names]

        def residual(t):
            offset, a1, m1, w1, a2, m2, w2 = t
            return (offset + a1 * np.exp(-(((x - m1) / w1) ** 2))
                    + a2 * np.exp(-(((x - m2) / w2) ** 2)) - profile.values)

        t = least_squares(residual, [start[k] * u for k, u in zip(names, unit)], method="lm",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15).x
        return abs(t[5] - t[2]) * 1e-6 / slit_distance

    def test_magnification_matches_a_reference_fit(self):
        cases = [self.bench_profile(m, n, seed) for m, n, seed in self.BENCH_CASES]
        sep = 355.11e-6
        truth = {"offset": 0.03, "amp1": 1.0, "mu1": -sep / 2, "width1": 50e-6,
                 "amp2": 1.0, "mu2": sep / 2, "width2": 50e-6}
        cases.append((self.two_gauss_profile(), truth))
        cases.append((self.two_gauss_profile(noise=0.02, rng=np.random.default_rng(17)), truth))
        for profile, start in cases:
            m = fit_double_slit(profile, slit_distance_object=133e-6).magnification
            reference = self.reference_magnification(profile, start, 133e-6)
            assert abs(m / reference - 1.0) < 1e-9


class TestAnalyticJacobians:
    """Each model's analytic Jacobian against the central-difference
    oracle, to 1e-6 of each column's largest entry."""

    SLIT_GRID = np.linspace(-6e-4, 6e-4, 601)
    EDGE_GRID = np.linspace(-1.6e-3, 1.6e-3, 1024)

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(0.0, 0.1),
        amps=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
        mus=st.tuples(st.floats(-3e-4, -5e-5), st.floats(5e-5, 3e-4)),
        widths=st.tuples(st.floats(2e-5, 1e-4), st.floats(2e-5, 1e-4)),
    )
    def test_two_slit(self, offset, amps, mus, widths):
        p = {"offset": offset, "amp1": amps[0], "mu1": mus[0], "width1": widths[0],
             "amp2": amps[1], "mu2": mus[1], "width2": widths[1]}
        x = self.SLIT_GRID
        scale = [1.0, 1.0, 3.5e-4, 5e-5, 1.0, 3.5e-4, 5e-5]
        model, jacobian = fitting._two_slit_models()
        assert_jacobian_matches(jacobian(x, p), central_difference(model, x, p, scale))

    def test_two_slit_shared_evaluation_equals_a_fresh_one(self):
        # the pair shares its last (z_n, exp(-z_n^2)): evaluated again at
        # the same point, after each of mu1, width1, mu2 and width2
        # moves, with new amplitudes only (a hit), on a new grid and back
        # at the first point, every model and Jacobian column equals a
        # fresh pair's, bit for bit
        p = {"offset": 0.02, "amp1": 1.1, "mu1": -1.7e-4, "width1": 5e-5,
             "amp2": 0.9, "mu2": 1.8e-4, "width2": 4.5e-5}
        points = [p, p]
        for name, value in (("mu1", -1.6e-4), ("width1", 6e-5), ("mu2", 1.7e-4),
                            ("width2", 5.5e-5), ("amp1", 0.4), ("offset", 0.1)):
            points.append({**points[-1], name: value})
        grid = np.linspace(-5e-4, 5e-4, 401)
        model, jacobian = fitting._two_slit_models()
        for x, params in [(self.SLIT_GRID, q) for q in points] + [(grid, p), (self.SLIT_GRID, p)]:
            fresh_model, fresh_jacobian = fitting._two_slit_models()
            np.testing.assert_array_equal(model(x, params), fresh_model(x, params))
            expected = fresh_jacobian(x, params)
            columns = jacobian(x, params)
            assert columns.keys() == expected.keys()
            for name, column in expected.items():
                np.testing.assert_array_equal(columns[name], column)

    @staticmethod
    def edge_models(length, waist):
        return fitting._edge_models(*_coefficients(make_params(length, waist)))

    @settings(max_examples=30, deadline=None)
    @given(source=st.sampled_from(PARAM_GRID), m_d=st.floats(1.5, 4.0),
           shift=st.floats(-2e-4, 2e-4))
    def test_v_edge(self, source, m_d, shift):
        _, _, v_model, v_jacobian = self.edge_models(*source)
        p = {"m_d": m_d, "m_u_x_o": shift}
        x = self.EDGE_GRID
        scale = [DEFAULT_M_D_C, 1.6e-4]
        assert_jacobian_matches(v_jacobian(x, p), central_difference(v_model, x, p, scale))

    @staticmethod
    def erfc_g_model(length, waist):
        """The peak-normalized amplitude model with its edge factor as
        erfc(c u): on the dark side 1 - erf(c u) cancels (1.3e-14 at
        c u = 5.45) to rounding far above the oracle's floor."""
        k, c = _coefficients(make_params(length, waist))

        def g_model(x, p):
            raw = np.exp(-k * (x / p["m_d"]) ** 2) * erfc(c * ((x - p["m_u_x_o"]) / p["m_d"]))
            return raw / np.max(raw)
        return g_model

    @settings(max_examples=30, deadline=None)
    @given(source=st.sampled_from(PARAM_GRID), m_d=st.floats(1.5, 4.0),
           shift=st.floats(-2e-4, 2e-4), window=st.sampled_from(["all", "left", "right"]))
    @example(source=(2e-3, 50e-6), m_d=1.5, shift=2e-4, window="all")
    @example(source=(2e-3, 50e-6), m_d=1.5, shift=2e-4, window="left")
    def test_g_edge(self, source, m_d, shift, window):
        # the peak-normalized model, differentiated at its fixed peak
        # sample; "left" and "right" end the grid at the peak, so that it
        # is the last or the first sample. The oracle differentiates the
        # same model written with erfc (erfc_g_model).
        g_model, g_jacobian, _, _ = self.edge_models(*source)
        p = {"m_d": m_d, "m_u_x_o": shift}
        x = self.EDGE_GRID
        i = int(np.argmax(g_model(x, p)))
        x = {"all": x, "left": x[: i + 1], "right": x[i:]}[window]
        if x.size < 3:
            return  # the peak lies at the end of the full grid already
        peak = int(np.argmax(g_model(x, p)))
        assert peak == {"all": i, "left": x.size - 1, "right": 0}[window]
        scale = [DEFAULT_M_D_C, 1.6e-4]
        assert_jacobian_matches(g_jacobian(x, p),
                                central_difference(self.erfc_g_model(*source), x, p, scale))

    def test_edge_models_are_the_closed_forms(self):
        params = make_params(5e-3, 214e-6)
        g_model, _, v_model, _ = fitting._edge_models(*_coefficients(params))
        setup = OpticalSetup(m_d=2.9, m_d_i=1.0, m_d_c=2.9)
        x = self.EDGE_GRID
        p = {"m_d": 2.9, "m_u_x_o": 30e-6}
        raw = g_esf(params, setup, x, 30e-6)
        assert np.array_equal(g_model(x, p), raw / np.max(raw))
        assert np.array_equal(v_model(x, p), v_esf(params, setup, x, 30e-6))
