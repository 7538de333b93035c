import json
import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qiul.dpsh
import qiul.fitting
import qiul.imaging
import qiul.pipeline
import qiul.spreads
from qiul.core import OpticalSetup, singular_waist
from qiul.dpsh import NoiseModel
from qiul.errors import ToolkitError, ValidationError
from qiul.imaging import Profile1D, g_envelope_coefficient
from qiul.pipeline import analyze_stack, build_edge_scene, simulate_edge
from qiul.spreads import KNIFE_EDGE_FACTOR, spread_v_closed

from conftest import make_params


def two_slit_profile() -> Profile1D:
    x = np.linspace(-6e-4, 6e-4, 601)
    y = 0.02 + np.exp(-(((x + 1.8e-4) / 5e-5) ** 2)) + np.exp(-(((x - 1.8e-4) / 5e-5) ** 2))
    return Profile1D(grid=x, values=y)


class TestFloatingPointErrors:
    """The library entry points fail on float64 overflow, division by zero
    and invalid operations the way the CLI does (FloatingPointError),
    whatever the caller's numpy error state."""

    @pytest.mark.parametrize("module, inner, call", [
        (qiul.pipeline, "_demodulate_frames", lambda out: simulate_edge(
            make_params(), OpticalSetup(), out, rows=4, cols=64)),
        (qiul.spreads, "_g_esf_widths", lambda out: qiul.spreads.theory_sweep_rows(
            make_params(), [2e-3], [142e-6], OpticalSetup())),
        (qiul.fitting, "least_squares_fit", lambda out: qiul.fitting.fit_double_slit(
            two_slit_profile())),
    ], ids=["simulate_edge", "theory_sweep_rows", "fit_double_slit"])
    def test_inner_calls_raise_on_float_errors(self, tmp_path, monkeypatch, module, inner, call):
        seen = []
        original = getattr(module, inner)

        def spy(*args, **kwargs):
            seen.append(np.geterr())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, inner, spy)
        with np.errstate(all="ignore"):
            call(tmp_path)
        assert seen and all(
            (e["over"], e["divide"], e["invalid"]) == ("raise",) * 3 for e in seen
        )

    def test_overflowing_frame_pixel_raises(self, tmp_path):
        params = make_params(5e-3, 214e-6)
        simulate_edge(params, OpticalSetup(), tmp_path / "sim", rows=12, cols=256,
                      pixel_pitch=2e-6)
        path = tmp_path / "sim" / "frames.npy"
        values = np.load(path, allow_pickle=False)
        values[1, 6, 100] = 1e300
        np.save(path, values)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(FloatingPointError):
                analyze_stack(tmp_path / "sim" / "manifest.json", params, tmp_path / "ana")
            # the caller's error state is restored afterwards
            assert np.geterr()["over"] == "ignore"

    def test_overflowing_scene_raises(self, tmp_path):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(FloatingPointError):
                simulate_edge(make_params(5e-3, 214e-6), OpticalSetup(), tmp_path, rows=12,
                              cols=256, pixel_pitch=2e-6, background=1e300)


class TestEdgeScene:
    @pytest.mark.parametrize("background", [-1.0, 0.0, math.nan, math.inf])
    def test_background_must_be_positive_and_finite(self, background):
        with pytest.raises(ValidationError, match="background"):
            build_edge_scene(make_params(), OpticalSetup(), 4, 64, 6.5e-6, background)


class TestSimulateEdge:
    def test_analyses_the_synthesized_stack(self, tmp_path, monkeypatch):
        # the stack it saves is not read back: load_stack serves analyze_stack only
        def no_reload(*args, **kwargs):
            raise AssertionError("simulate_edge called load_stack")

        monkeypatch.setattr("qiul.pipeline.load_stack", no_reload)
        result = simulate_edge(make_params(5e-3, 214e-6), OpticalSetup(), tmp_path, rows=12,
                               cols=256, pixel_pitch=2e-6)
        assert result["analysis"]["gate"]["passed"]
        assert (tmp_path / "manifest.json").exists()

    def test_edge_commands_hold_one_stack_sized_array(self, tmp_path, monkeypatch):
        # synthesis renders in place in the frames, simulate_edge drops its
        # scene once they are rendered, and demodulation forms its residual
        # in the frames and the visibility in a coefficient row; each
        # synthesis worker also holds one frame-sized noise draw, so the
        # worker count is pinned to two
        monkeypatch.setattr(qiul.dpsh, "_usable_cpus", lambda: 2)
        params = make_params(5e-3, 214e-6)
        qiul.imaging.erf(0.0)  # scipy's one-off import is not part of either peak
        stack_bytes = 16 * 16 * 2048 * 8
        tracemalloc.start()
        try:
            simulate_edge(params, OpticalSetup(), tmp_path / "sim", n_phases=16, rows=16,
                          cols=2048, pixel_pitch=2e-6, noise=NoiseModel(read_sigma=100.0, shot=True))
            simulate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            analyze_stack(tmp_path / "sim" / "manifest.json", params, tmp_path / "ana")
            analyze_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simulate_peak <= 1.45 * stack_bytes
        assert analyze_peak <= 1.40 * stack_bytes

    @settings(max_examples=60, deadline=None)
    @given(length=st.floats(1e-3, 10e-3), log_waist_ratio=st.floats(math.log(1.05), math.log(20.0)),
           cols=st.sampled_from([256, 512, 1024, 2048]),
           log_pitch=st.floats(math.log(1e-6), math.log(20e-6)), offset_fraction=st.floats(-1.0, 1.0))
    def test_gate_passes_only_on_the_true_magnification(self, length, log_waist_ratio, cols,
                                                        log_pitch, offset_fraction):
        # noiseless data: whenever the two fits agree and both edges lie in
        # the beam window, their magnification is the true one; the offset
        # stays within half the image width over M_d
        params = make_params(length, 1.0)
        params = params.with_waist(math.exp(log_waist_ratio) * singular_waist(params))
        pitch = math.exp(log_pitch)
        setup = OpticalSetup()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                result = simulate_edge(params, setup, tmp, n_phases=4, rows=4, cols=cols,
                                       pixel_pitch=pitch,
                                       x_tilde_o=offset_fraction * cols * pitch / (2.0 * setup.m_d))
            except (ToolkitError, ArithmeticError):
                return
        analysis = result["analysis"]
        if analysis["gate"]["passed"]:
            assert abs(analysis["m_d_avg"] - setup.m_d) <= 1e-12


class TestReturnedDictsAreTheJsonWritten:
    @pytest.mark.parametrize("params, setup, kwargs, pinned", [
        (make_params(5e-3, 214e-6), OpticalSetup(),
         dict(rows=12, cols=256, pixel_pitch=2e-6, n_phases=4, seed=5,
              noise=NoiseModel(read_sigma=100.0, shot=True)),
         lambda analysis: analysis["gate"]["passed"]),
        # test_cli's test_gate_fails_edge_outside_beam_window: the deviation is "inf"
        (make_params(0.0034394590617580615, 0.00018188514218936237), OpticalSetup(),
         dict(cols=2048, pixel_pitch=1.3022839461649018e-05, x_tilde_o=-0.003383019184727057),
         lambda analysis: analysis["gate"]["ratio_deviation"] == "inf"),
        # a config line m_d_c = 2e-3: the amplitude fit has no covariance
        (make_params(), OpticalSetup(m_d=2e-3, m_d_c=2e-3), dict(rows=2, cols=64, n_phases=3),
         lambda analysis: analysis["fits"]["g"]["covariance"] is None),
    ], ids=["noisy", "gate-failing", "null-covariance"])
    def test_simulate_and_analyze_return_what_they_write(self, tmp_path, params, setup, kwargs,
                                                         pinned):
        def written(path):
            return json.loads(path.read_text(encoding="utf-8"))

        sim, ana = tmp_path / "sim", tmp_path / "ana"
        result = simulate_edge(params, setup, sim, **kwargs)
        assert pinned(result["analysis"])
        assert result["analysis"] == written(sim / "analysis.json")
        assert result["comparison"] == written(sim / "comparison.json")
        analysis = analyze_stack(sim / "manifest.json", params, ana)
        assert analysis == written(ana / "analysis.json") == result["analysis"]


class TestComparisonErrors:
    def test_knife_factor(self):
        from scipy.special import erfinv

        assert KNIFE_EDGE_FACTOR == 2.0 * erfinv(0.52)

    @pytest.mark.parametrize("length", [2e-3, 5e-3, 10e-3])
    @pytest.mark.parametrize("waist", [50e-6, 142e-6, 214e-6, 308e-6])
    def test_noiseless_spreads_match_theory(self, tmp_path, length, waist):
        # the benchmark's edge geometry without noise: a pitch of a thirtieth
        # of the camera-plane visibility spread and ten widths of columns.
        # Measured worst errors: 6.5e-4, 1.1e-3 and 2.6e-2 for the knife
        # edge at 10 mm / 50 um, whose edge is not an erf
        params, setup = make_params(length, waist), OpticalSetup()
        spread = setup.m_d * spread_v_closed(params)
        envelope = setup.m_d / math.sqrt(g_envelope_coefficient(params))
        pitch = spread / 30.0
        cols = int(min(4096, max(1024, 10.0 * max(envelope, spread) / pitch)))
        comparison = simulate_edge(params, setup, tmp_path, n_phases=4, rows=4, cols=cols,
                                   pixel_pitch=pitch)["comparison"]
        assert comparison["delta_v_relative_error"] < 1e-3
        assert comparison["delta_g_esf_relative_error"] < 2e-3
        assert comparison["v_knife_relative_error"] < 3e-2
