"""End-to-end synthetic edge experiment and stack analysis.

simulate_edge builds a camera scene whose amplitude and visibility
images follow the closed-form edge responses, renders a phase-stepped
interferogram stack, saves it, and runs on it exactly the same analysis
path that analyze_stack applies to a stack loaded from disk: demodulation,
max-row selection, spread extraction, and the two-parameter magnification
fits. The `.npy` round trip of float64 frames is lossless, so re-analyzing
the saved stack writes byte-identical output; a test pins this.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import OpticalSetup, SourceParams
from .dpsh import (
    DEFAULT_PIXEL_PITCH,
    MIN_COLUMNS,
    NoiseModel,
    SceneModel,
    _demodulate_frames,
    load_stack,
    pixel_centers,
    save_stack,
    select_max_row,
    synthesize_stack,
)
from .errors import ImageTooSmall, NonPositiveParameter, NumericalError, raise_float_errors
from .fitting import GATE_THRESHOLD, MagnificationEstimate, fit_edge_profiles
from .imaging import Profile1D, _coefficients, _esf_factors, write_profile_csv
from .spreads import (SEPARABLE_MARKER, half_width_1e, knife_edge_width_2476, lsf_from_esf,
                      theory_sweep_rows)

__all__ = ["build_edge_scene", "simulate_edge", "analyze_stack", "ANALYSIS_SCHEMA"]

ANALYSIS_SCHEMA = "qiul.analysis/2"
BEAM_WINDOW_FLOOR = 0.02


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_json(data: dict, path) -> None:
    Path(path).write_text(
        json.dumps(_jsonify(data), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def build_edge_scene(
    params: SourceParams,
    setup: OpticalSetup,
    rows: int,
    cols: int,
    pixel_pitch: float,
    background: float,
    x_tilde_o: float = 0.0,
) -> SceneModel:
    """Scene whose demodulated amplitude row is proportional to the
    closed-form edge response and whose visibility row equals the
    visibility edge response: B = B0 Gy(y) E(x), A = B V_esf(x)."""
    if rows < 1 or cols < MIN_COLUMNS:
        raise ImageTooSmall(f"image of {rows} x {cols} pixels is too small (need >= 1 x {MIN_COLUMNS})")
    if not (math.isfinite(background) and background > 0):
        raise NonPositiveParameter(f"background must be a positive finite count, got {background!r}")
    if not (math.isfinite(pixel_pitch) and pixel_pitch >= sys.float_info.min):
        raise NonPositiveParameter(f"pixel pitch must be a finite length of at least "
                                   f"{sys.float_info.min!r} m, got {pixel_pitch!r}")
    x = pixel_centers(cols, pixel_pitch)
    y = pixel_centers(rows, pixel_pitch)
    envelope, edge_factor = _esf_factors(*_coefficients(params), x, setup.m_u * x_tilde_o, setup.m_d)
    beam_y = np.exp(-((y / (rows * pixel_pitch / 4.0)) ** 2))
    b = background * np.outer(beam_y, envelope)
    a = b * (0.5 * edge_factor)
    return SceneModel(background=b, modulation=a, phase_map=0.0)


def _spread_or_error(extract) -> dict:
    try:
        result = extract()
        return {
            "width_m": result.width,
            "interpolation_error_m": result.interpolation_error_estimate,
        }
    except NumericalError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _fit_to_dict(fit) -> dict:
    """A fit as JSON; the covariance is null where J^T J could not be inverted."""
    return {
        "parameters": dict(fit.parameters),
        "covariance": fit.covariance if np.isfinite(fit.covariance).all() else None,
        "residual_rms": fit.residual_rms,
        "iterations": fit.iterations,
    }


def _analyze(stack, params: SourceParams, out: Path) -> tuple[dict, MagnificationEstimate]:
    # safe to demodulate in the frames, which end up holding the squared
    # residual: both callers own them (simulate_edge has saved them,
    # analyze_stack has just loaded them), and only their shape is read below
    demod = _demodulate_frames(stack.frames, stack.phases)
    row, g_full = select_max_row(demod.g_image, stack.pixel_pitch)
    # visibility is A/B: outside the beam the background estimate carries
    # no signal and v is noise, so restrict both profiles to the window
    # where the fitted background stays above a fraction of its peak
    b_row = demod.b_image[row]
    inside = np.nonzero(b_row >= BEAM_WINDOW_FLOOR * np.nanmax(b_row))[0]
    lo, hi = (int(inside[0]), int(inside[-1]) + 1) if inside.size >= 8 else (0, b_row.size)
    g_profile = Profile1D(grid=g_full.grid[lo:hi], values=g_full.values[lo:hi],
                          plane="camera", kind="g")
    # demodulate clips v to [0, 1]; its NaN pixels (no positive background) count as 0
    v_profile = Profile1D(grid=g_profile.grid, values=np.nan_to_num(demod.v_image[row, lo:hi]),
                          plane="camera", kind="v")

    spreads = {
        "v_lsf_one_over_e": _spread_or_error(lambda: half_width_1e(lsf_from_esf(v_profile))),
        "v_knife_24_76": _spread_or_error(lambda: knife_edge_width_2476(v_profile)),
        "g_derivative_one_over_e": _spread_or_error(
            lambda: half_width_1e(lsf_from_esf(g_profile))
        ),
    }

    estimate = fit_edge_profiles(g_profile, v_profile, params)
    adjusted = None
    if estimate.gate_passed and "width_m" in spreads["v_lsf_one_over_e"]:
        m = estimate.m_d_avg
        adjusted = {
            "delta_v_m": spreads["v_lsf_one_over_e"]["width_m"] / m,
            "delta_g_esf_m": (
                spreads["g_derivative_one_over_e"]["width_m"] / m
                if "width_m" in spreads["g_derivative_one_over_e"]
                else None
            ),
        }

    analysis = {
        "schema": ANALYSIS_SCHEMA,
        "source": {
            "lambda_p_m": params.lambda_p,
            "lambda_d_m": params.lambda_d,
            "lambda_u_m": params.lambda_u,
            "crystal_length_m": params.crystal_length,
            "pump_waist_m": params.pump_waist,
        },
        "stack": {
            "n_phases": int(stack.phases.size),
            "pixel_pitch_m": stack.pixel_pitch,
            "noise": stack.noise_meta,
            "shape": list(stack.frames.shape[1:]),
        },
        "demodulation": {
            "residual_rms_counts": demod.residual_rms,
            "n_invalid_pixels": demod.n_invalid,
        },
        "row": {
            "index": row,
            "y_m": pixel_centers(demod.g_image.shape[0], stack.pixel_pitch)[row],
            "column_window": [lo, hi],
        },
        "spreads_camera": spreads,
        "fits": {"g": _fit_to_dict(estimate.g_fit), "v": _fit_to_dict(estimate.v_fit)},
        "gate": {
            "ratio_deviation": estimate.gate_ratio_deviation,
            "passed": estimate.gate_passed,
            "threshold": GATE_THRESHOLD,
        },
        "m_d_from_g": estimate.m_d_from_g,
        "m_d_from_v": estimate.m_d_from_v,
        "m_d_avg": estimate.m_d_avg,
        "spreads_adjusted": adjusted,
    }

    np.save(out / "g_image.npy", demod.g_image)
    np.save(out / "v_image.npy", demod.v_image)
    np.save(out / "phase_image.npy", demod.phase_image)
    write_profile_csv(g_profile, out / "g_profile.csv")
    write_profile_csv(v_profile, out / "v_profile.csv")
    write_json(analysis, out / "analysis.json")
    return analysis, estimate


@raise_float_errors()
def analyze_stack(manifest_path, params: SourceParams, out_dir) -> dict:
    """Demodulate a stack from disk and run row selection, spread
    extraction, and the magnification fits. Needs only the source
    parameters (wavelengths, crystal length, pump waist); magnifications
    are estimated, never assumed. Float64 overflow, division by zero or
    an invalid operation raises FloatingPointError."""
    stack = load_stack(manifest_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    analysis, _ = _analyze(stack, params, out)
    return analysis


@raise_float_errors()
def simulate_edge(
    params: SourceParams,
    setup: OpticalSetup,
    out_dir,
    n_phases: int = 4,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
    rows: int = 48,
    cols: int = 1024,
    pixel_pitch: float = DEFAULT_PIXEL_PITCH,
    background: float = 1e4,
    x_tilde_o: float = 0.0,
) -> dict:
    """Synthesize an edge measurement, save the stack, analyze the
    synthesized stack, and emit a measured-vs-theory comparison. Returns
    {"analysis": ..., "comparison": ...}. Float64 overflow, division by
    zero or an invalid operation raises FloatingPointError. The theory
    row is computed before anything is written, so its failure leaves
    no files behind."""
    scene = build_edge_scene(params, setup, rows, cols, pixel_pitch, background, x_tilde_o)
    sweep = theory_sweep_rows(params, [params.crystal_length], [params.pump_waist], setup)
    theory = {key: sweep[key].item(0) for key in
              ("spread_g_psf_m", "spread_g_esf_m", "w_sing_m", "spread_v_m", "d_min_m")}
    theory = {key: SEPARABLE_MARKER if math.isnan(v) else v for key, v in theory.items()}
    out = Path(out_dir)
    phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    stack = synthesize_stack(scene, phases, noise=noise, seed=seed, pixel_pitch=pixel_pitch)
    del scene  # its two frame-sized arrays are not read again
    save_stack(stack, out)
    analysis, estimate = _analyze(stack, params, out)

    measured_v = analysis["spreads_camera"]["v_lsf_one_over_e"].get("width_m")
    comparison = {
        "true_m_d": setup.m_d,
        "true_m_u": setup.m_u,
        "estimated_m_d_avg": estimate.m_d_avg,
        "m_d_relative_error": (
            abs(estimate.m_d_avg - setup.m_d) / setup.m_d
            if estimate.m_d_avg is not None else None
        ),
        "theory_adjusted": theory,
        "measured_camera": analysis["spreads_camera"],
        "measured_delta_v_m": (
            measured_v / setup.m_d if measured_v is not None else None
        ),
        "delta_v_relative_error": (
            abs(measured_v / setup.m_d / theory["spread_v_m"] - 1.0)
            if measured_v is not None and not isinstance(theory["spread_v_m"], str)
            else None
        ),
    }
    write_json(comparison, out / "comparison.json")
    return {"analysis": analysis, "comparison": comparison}
