"""Nonlinear least-squares engine and the model fits used for
magnification estimation.

The edge fits treat the source parameters (wavelengths, crystal length,
pump waist) as known and fit only the detected-arm magnification M_d and
the lumped edge offset M_u * x_tilde_o, separately on the amplitude and
the visibility profile. The two magnifications are averaged only when
they agree to within 10% once the amplitude fit's edge offset is taken
into account (the quality gate, the paper's spread-ratio test with the
visibility spread cancelled); otherwise the averaged estimate is
withheld while both fits remain reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_M_D_C, SourceParams
from .errors import (
    NonPositiveParameter,
    NotConverged,
    PeaksNotResolved,
    RangeNotSpanned,
    SeparableState,
    SingularNormalEquations,
    TooFewSamples,
)
from .imaging import Profile1D, _coefficients, _esf_factors
from .spreads import _g_esf_widths, spread_v_closed

__all__ = [
    "FitResult",
    "MagnificationEstimate",
    "MagnificationMeasurement",
    "least_squares_fit",
    "fit_edge_profiles",
    "fit_double_slit",
]

GATE_THRESHOLD = 0.10
SLIT_DISTANCE_DEFAULT = 133e-6
SLIT_DISTANCE_TOLERANCE = 23e-6

MAX_ITERATIONS = 200
STEP_TOL = 1e-10
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Local least-squares minimizer with Gauss-Newton covariance
    estimate (residual variance times (J^T J)^-1)."""

    parameters: dict[str, float]
    covariance: np.ndarray
    residual_rms: float
    iterations: int


@dataclass(frozen=True)
class MagnificationEstimate:
    """Detected-arm magnifications from the two edge fits with the
    quality-gate diagnostics; m_d_avg is None when the gate failed."""

    m_d_from_g: float
    m_d_from_v: float
    m_d_avg: float | None
    gate_passed: bool
    gate_ratio_deviation: float
    g_fit: FitResult
    v_fit: FitResult


@dataclass(frozen=True)
class MagnificationMeasurement:
    """Two-slit magnification: camera-plane peak distance over the known
    object-plane slit distance, with the fit covariance and the object
    manufacturing tolerance propagated in quadrature."""

    peak_distance_camera: float
    slit_distance_object: float
    magnification: float
    uncertainty: float
    fit: FitResult


def least_squares_fit(
    model,
    data: Profile1D,
    init: dict[str, float],
    bounds: dict[str, tuple[float, float]] | None = None,
    *,
    jacobian,
) -> FitResult:
    """Levenberg-damped Gauss-Newton minimization of
    sum (model(x, params) - y)^2.

    jacobian(x, params) returns the model's analytic Jacobian as a dict
    from each parameter name to its column d model / d param over x; the
    engine stacks the columns in init order.

    Converges when the relative step norm drops below 1e-10 or the
    relative residual change below 1e-12; raises TooFewSamples below
    n_par + 2 samples, NotConverged (carrying the last parameters) after
    200 iterations and, if damping cannot make the normal equations
    solvable, SingularNormalEquations."""
    names = tuple(init)
    n_par = len(names)
    x = data.grid
    y = data.values
    if y.size < n_par + 2:
        raise TooFewSamples(f"need >= {n_par + 2} data points for {n_par} parameters")
    bounds = bounds or {}
    lo = np.array([bounds.get(k, (-np.inf, np.inf))[0] for k in names])
    hi = np.array([bounds.get(k, (-np.inf, np.inf))[1] for k in names])
    theta = np.array([float(init[k]) for k in names])
    if np.any(theta < lo) or np.any(theta > hi):
        raise ValueError("initial parameters outside bounds")

    def residual(t: np.ndarray) -> np.ndarray:
        return model(x, dict(zip(names, t))) - y

    def jacobian_at(t: np.ndarray) -> np.ndarray:
        columns = jacobian(x, dict(zip(names, t)))
        jac = np.column_stack([np.asarray(columns[k], dtype=float) for k in names])
        if jac.shape != (y.size, n_par):
            raise ValueError(f"jacobian has shape {jac.shape}, need {(y.size, n_par)}")
        return jac

    r = residual(theta)
    ssr = float(r @ r)
    lam = 1e-3
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = jacobian_at(theta)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        damping = np.diag(np.maximum(np.diag(jtj), 1e-300))
        for _ in range(40):
            try:
                step = np.linalg.solve(jtj + lam * damping, -jtr)
            except np.linalg.LinAlgError:
                step = np.full(n_par, np.nan)  # singular: damp harder, as for a non-finite step
            if np.all(np.isfinite(step)):
                candidate = np.clip(theta + step, lo, hi)
                r_new = residual(candidate)
                ssr_new = float(r_new @ r_new)
                if np.isfinite(ssr_new) and ssr_new <= ssr:
                    break
            lam *= 10.0
        else:
            if lam > 1e30:
                raise SingularNormalEquations("damping exhausted without a solvable step")
            # no improving step found: stay in place, which converges below
            candidate, r_new, ssr_new = theta, r, ssr

        step_norm = float(np.linalg.norm(candidate - theta))
        theta_norm = float(np.linalg.norm(theta)) + 1e-300
        rel_change = abs(ssr - ssr_new) / max(ssr, 1e-300)
        theta, r, ssr = candidate, r_new, ssr_new
        lam = max(lam / 10.0, 1e-12)
        if step_norm <= STEP_TOL * theta_norm or rel_change <= RESIDUAL_TOL:
            break
    else:
        raise NotConverged(f"no convergence within {MAX_ITERATIONS} iterations (SSR {ssr:.3g})",
                           parameters=dict(zip(names, map(float, theta))))

    jac = jacobian_at(theta)
    jtj = jac.T @ jac
    dof = max(y.size - n_par, 1)
    sigma2 = ssr / dof
    try:
        cov = sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((n_par, n_par), np.nan)
    return FitResult(
        parameters=dict(zip(names, map(float, theta))),
        covariance=cov,
        residual_rms=math.sqrt(ssr / y.size),
        iterations=iterations,
    )


# -- edge-profile magnification fits ------------------------------------------


def _extremal_slope_position(profile: Profile1D) -> float:
    # initialization heuristic: boxcar-smooth so noise spikes do not
    # masquerade as the edge transition
    window = max(3, profile.values.size // 32) | 1
    smooth = np.convolve(profile.values, np.ones(window) / window, mode="same")
    slope = np.gradient(smooth, profile.grid)
    interior = slice(window, -window) if profile.values.size > 3 * window else slice(None)
    offset = window if profile.values.size > 3 * window else 0
    return float(profile.grid[offset + int(np.argmax(np.abs(slope[interior])))])


def _edge_models(k: float, c: float):
    """(g_model, g_jacobian, v_model, v_jacobian) of the two edge fits.

    The models are g_esf, peak-normalized, and v_esf at M_u = 1, where
    the edge offset is the lumped shift M_u x_tilde_o, evaluated from the
    coefficients (k, c) so that a fit computes them once. The amplitude
    Jacobian holds the peak sample i fixed: (d raw - g d raw[i]) / raw[i]."""
    slope = 2.0 / math.sqrt(math.pi) * c

    def factors(x, p):
        return _esf_factors(k, c, x, p["m_u_x_o"], p["m_d"])

    def edge_derivatives(x, p):
        # d/dM_d and d/d(M_u x_tilde_o) of the edge factor 1 - erf(c u),
        # u = (x_c - M_u x_tilde_o) / M_d
        u = (x - p["m_u_x_o"]) / p["m_d"]
        d_shift = slope * np.exp(-((c * u) ** 2)) / p["m_d"]
        return d_shift * u, d_shift

    def v_model(x, p):
        return 0.5 * factors(x, p)[1]

    def v_jacobian(x, p):
        d_m_d, d_shift = edge_derivatives(x, p)
        return {"m_d": 0.5 * d_m_d, "m_u_x_o": 0.5 * d_shift}

    def g_model(x, p):
        envelope, edge_factor = factors(x, p)
        raw = envelope * edge_factor
        peak = np.max(raw)
        if not peak > 0:
            return raw
        return raw / peak

    def g_jacobian(x, p):
        envelope, edge_factor = factors(x, p)
        raw = envelope * edge_factor
        d_m_d, d_shift = edge_derivatives(x, p)
        d_raw = {"m_d": envelope * (2.0 * k * x**2 / p["m_d"] ** 3 * edge_factor + d_m_d),
                 "m_u_x_o": envelope * d_shift}
        i = int(np.argmax(raw))
        if not raw[i] > 0:
            return d_raw
        return {name: (d - raw / raw[i] * d[i]) / raw[i] for name, d in d_raw.items()}

    return g_model, g_jacobian, v_model, v_jacobian


def fit_edge_profiles(
    g_profile: Profile1D,
    v_profile: Profile1D,
    params: SourceParams,
) -> MagnificationEstimate:
    """Two-parameter fits {M_d, M_u x_tilde_o} of the closed-form edge
    responses to measured amplitude and visibility camera profiles from
    the same row (the amplitude profile is compared peak-normalized),
    both started at M_d = DEFAULT_M_D_C.

    The gate compares the measured camera-plane spread ratio
    M_g s_g(x_g / M_g) / (M_v s_v) with the theory ratio s_g(0) / s_v,
    where s_g(x) is the amplitude-ESF spread at edge offset x and x_g the
    fitted amplitude edge offset. s_v cancels: the deviation
    |M_g s_g(x_g / M_g) / (M_v s_g(0)) - 1| is how far the two fitted
    magnifications disagree once the amplitude fit's edge offset is taken
    into account, and the averaged M_d is reported only when it stays
    below GATE_THRESHOLD. At or below the singular waist the gate fails
    with deviation inf (the fits are still reported). An amplitude
    profile without a positive maximum raises RangeNotSpanned."""
    g_peak = np.max(g_profile.values)
    if not g_peak > 0:
        raise RangeNotSpanned("amplitude profile has no positive maximum")
    k, c = _coefficients(params)
    g_model, g_jacobian, v_model, v_jacobian = _edge_models(k, c)

    def fit_one(name, model, jacobian, profile):
        span = float(profile.grid[-1] - profile.grid[0])
        try:
            return least_squares_fit(
                model, profile,
                init={"m_d": DEFAULT_M_D_C, "m_u_x_o": _extremal_slope_position(profile)},
                bounds={
                    "m_d": (1e-3, 1e3),
                    "m_u_x_o": (profile.grid[0] - span, profile.grid[-1] + span),
                },
                jacobian=jacobian,
            )
        except NotConverged as exc:
            last = ", ".join(f"{k} = {v:.6g}" for k, v in exc.parameters.items())
            raise NotConverged(f"{name} edge fit: {exc}; last {last}",
                               parameters=exc.parameters) from exc

    g_fit = fit_one("amplitude (g)", g_model, g_jacobian,
                    Profile1D(g_profile.grid, g_profile.values / g_peak, g_profile.plane))
    v_fit = fit_one("visibility (v)", v_model, v_jacobian, v_profile)
    m_d_g = g_fit.parameters["m_d"]
    m_d_v = v_fit.parameters["m_d"]

    try:
        spread_v_closed(params)  # the separability test
    except SeparableState:
        deviation = float("inf")
    else:
        # s_g at x_tilde_o = 0 and at the fitted edge offset, from one two-row solve
        spread_g, spread_g_fitted = _g_esf_widths(
            k, c, [0.0, g_fit.parameters["m_u_x_o"] / m_d_g]
        ).tolist()
        deviation = abs(m_d_g * spread_g_fitted / (m_d_v * spread_g) - 1.0)
    passed = deviation < GATE_THRESHOLD

    return MagnificationEstimate(
        m_d_from_g=m_d_g,
        m_d_from_v=m_d_v,
        m_d_avg=0.5 * (m_d_g + m_d_v) if passed else None,
        gate_passed=passed,
        gate_ratio_deviation=deviation,
        g_fit=g_fit,
        v_fit=v_fit,
    )


# -- two-slit magnification measurement ---------------------------------------


def _two_peak_candidates(values: np.ndarray) -> tuple[int, int]:
    # boxcar-smooth for peak finding only, so noise spikes do not pose
    # as slit images; the fit itself runs on the raw data
    window = max(3, values.size // 64) | 1
    kernel = np.ones(window) / window
    smooth = np.convolve(values, kernel, mode="same")
    interior = smooth[1:-1]
    is_max = (interior > smooth[:-2]) & (interior >= smooth[2:])
    idx = np.nonzero(is_max)[0] + 1
    if idx.size < 2:
        raise PeaksNotResolved(f"found {idx.size} local maxima, need 2")
    order = idx[np.argsort(smooth[idx])[::-1]]
    first = int(order[0])
    # second slit: the tallest remaining maximum separated from the first
    # by a valley below 80% of the lower peak
    for candidate in order[1:]:
        i, j = sorted((first, int(candidate)))
        valley = float(np.min(smooth[i : j + 1]))
        if valley < 0.8 * min(smooth[i], smooth[j]):
            return i, j
    raise PeaksNotResolved("no second maximum separated by a valley below 80% of the lower peak")


def _unit_gaussian(x, p, n: str):
    # z = (x - mu_n) / width_n and exp(-z^2), peak n of the two-slit model
    z = (x - p["mu" + n]) / p["width" + n]
    return z, np.exp(-(z**2))


def _two_gaussians(x, p):
    """offset + amp1 exp(-((x - mu1) / width1)^2) + amp2 exp(-((x - mu2) / width2)^2)"""
    return (p["offset"] + p["amp1"] * _unit_gaussian(x, p, "1")[1]
            + p["amp2"] * _unit_gaussian(x, p, "2")[1])


def _two_gaussians_jacobian(x, p):
    """Columns d/d(offset, amp1, mu1, width1, amp2, mu2, width2) of _two_gaussians."""
    cols = {"offset": np.ones_like(x)}
    for n in ("1", "2"):
        z, e = _unit_gaussian(x, p, n)
        d_mu = 2.0 * p["amp" + n] * e * z / p["width" + n]
        cols.update({"amp" + n: e, "mu" + n: d_mu, "width" + n: d_mu * z})
    return cols


def fit_double_slit(
    profile: Profile1D,
    slit_distance_object: float = SLIT_DISTANCE_DEFAULT,
    object_tolerance: float = SLIT_DISTANCE_TOLERANCE,
) -> MagnificationMeasurement:
    """Two-Gaussian-plus-offset fit of a two-slit camera profile; the
    magnification is the fitted peak distance over the object-plane slit
    distance, its uncertainty the quadrature sum of the fit covariance
    and the object tolerance terms; OverflowError if either is not finite."""
    if not 0 < slit_distance_object < math.inf:
        raise NonPositiveParameter(f"slit distance must be a positive finite length, "
                                   f"got {slit_distance_object!r}")
    if not 0 <= object_tolerance < math.inf:
        raise NonPositiveParameter(f"slit tolerance must be a finite length >= 0, "
                                   f"got {object_tolerance!r}")
    x = profile.grid
    y = profile.values
    i, j = _two_peak_candidates(y)
    offset0 = float(np.min(y))
    sep0 = float(x[j] - x[i])

    init = {
        "offset": offset0,
        "amp1": float(y[i] - offset0),
        "mu1": float(x[i]),
        "width1": sep0 / 4.0,
        "amp2": float(y[j] - offset0),
        "mu2": float(x[j]),
        "width2": sep0 / 4.0,
    }
    span = float(x[-1] - x[0])
    bounds = {
        "width1": (profile.step / 10.0, span),
        "width2": (profile.step / 10.0, span),
        "mu1": (x[0], x[-1]),
        "mu2": (x[0], x[-1]),
    }
    try:
        fit = least_squares_fit(_two_gaussians, profile, init=init, bounds=bounds,
                                jacobian=_two_gaussians_jacobian)
    except FloatingPointError as exc:  # raised only under np.errstate, as in cli.main
        raise FloatingPointError(f"two-slit fit: {exc} on a profile grid step of "
                                 f"{profile.step:.3g} m") from exc

    mu1, mu2 = fit.parameters["mu1"], fit.parameters["mu2"]
    distance = abs(mu2 - mu1)
    if distance < profile.step:
        raise PeaksNotResolved("fitted peaks collapse onto each other")
    names = list(fit.parameters)
    i1, i2 = names.index("mu1"), names.index("mu2")
    var_d = fit.covariance[i1, i1] + fit.covariance[i2, i2] - 2.0 * fit.covariance[i1, i2]
    var_d = max(float(var_d), 0.0)
    magnification = distance / slit_distance_object
    try:
        rel = math.sqrt(var_d / distance**2 + (object_tolerance / slit_distance_object) ** 2)
    except OverflowError:  # a float ** 2 beyond the float64 range
        rel = math.inf
    uncertainty = magnification * rel
    if not math.isfinite(magnification):
        raise OverflowError(f"magnification {magnification!r} is not finite")
    if not math.isfinite(uncertainty):
        raise OverflowError(f"uncertainty {uncertainty!r} of magnification "
                            f"{magnification!r} is not finite")
    return MagnificationMeasurement(
        peak_distance_camera=distance,
        slit_distance_object=slit_distance_object,
        magnification=magnification,
        uncertainty=uncertainty,
        fit=fit,
    )
