"""Biphoton joint probability density in the crystal image plane.

Two models of the transverse position correlations of an SPDC pair,
reduced to one transverse dimension per axis (the Gaussian form is
separable in x and y, so per-axis treatment is exact for it):

* closed-form Gaussian approximation of the phase-matching function,
  giving the quadratic form exp{-(a_dd x_d^2 + a_uu x_u^2 + 2 a_du x_d x_u)};
* a numeric model with the exact sinc phase matching, evaluated by a
  Fourier transform of the momentum amplitude and offered as a
  desk-scale cross-check of the Gaussian approximation.

The off-diagonal coefficient a_du vanishes exactly at the singular
pump waist, where the state factorizes and all spatial correlations
between detected and undetected photons are lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SourceParams
from .errors import GridTooCoarse

__all__ = [
    "QuadraticForm2",
    "Density2D",
    "gaussian_quadratic_form",
    "joint_density_gaussian",
    "gaussian_density_grid",
    "correlation_coefficient",
    "joint_density_sinc_1d",
    "sinc_correlation",
    "min_abs_correlation_scan",
    "export_density_csv",
]


@dataclass(frozen=True)
class QuadraticForm2:
    """Exponent coefficients (1/m^2) of the per-axis Gaussian density
    norm * exp{-(a_dd x_d^2 + a_uu x_u^2 + 2 a_du x_d x_u)} and its
    analytic normalization norm = sqrt(a_dd a_uu - a_du^2) / pi."""

    a_dd: float
    a_uu: float
    a_du: float

    def __post_init__(self):
        if not (self.a_dd > 0 and self.a_uu > 0 and self.det > 0):
            raise ValueError("quadratic form must be positive definite")

    @property
    def det(self) -> float:
        """Determinant a_dd a_uu - a_du^2 (1/m^4)."""
        return self.a_dd * self.a_uu - self.a_du**2

    @property
    def norm(self) -> float:
        return math.sqrt(self.det) / math.pi


@dataclass(frozen=True)
class Density2D:
    """Joint density sampled on uniform (x_d, x_u) grids, normalized to
    unit trapezoidal integral. model is 'gaussian' or 'sinc_numeric'."""

    grid_d: np.ndarray
    grid_u: np.ndarray
    values: np.ndarray
    model: str


def gaussian_quadratic_form(params: SourceParams) -> QuadraticForm2:
    lsum = params.lambda_d + params.lambda_u
    pump = 2.0 / (params.pump_waist**2 * lsum**2)
    pm = 4.0 * math.pi / (params.crystal_length * lsum)
    a_dd = params.lambda_u**2 * pump + pm
    a_uu = params.lambda_d**2 * pump + pm
    a_du = params.lambda_d * params.lambda_u * pump - pm
    return QuadraticForm2(a_dd=a_dd, a_uu=a_uu, a_du=a_du)


def joint_density_gaussian(params: SourceParams, x_d, x_u):
    """Per-axis joint probability density (1/m^2) of detected and
    undetected transverse positions in the crystal plane. Broadcasts
    over array inputs."""
    q = gaussian_quadratic_form(params)
    x_d = np.asarray(x_d, dtype=float)
    x_u = np.asarray(x_u, dtype=float)
    expo = q.a_dd * x_d**2 + q.a_uu * x_u**2 + 2.0 * q.a_du * x_d * x_u
    out = q.norm * np.exp(-expo)
    return out if out.ndim else float(out)


def correlation_coefficient(params: SourceParams) -> float:
    """Pearson correlation of (x_d, x_u) under the Gaussian density:
    -a_du / sqrt(a_dd a_uu). Crosses zero at the singular waist and
    tends to +1 in the plane-wave pump limit."""
    q = gaussian_quadratic_form(params)
    return -q.a_du / math.sqrt(q.a_dd * q.a_uu)


def gaussian_density_grid(
    params: SourceParams, n_grid: int = 129, span_widths: float = 6.5
) -> Density2D:
    """Gaussian-model density sampled on symmetric (x_d, x_u) grids
    spanning span_widths marginal 1/e widths, renormalized to unit
    trapezoidal integral (same conventions as the sinc model)."""
    q = gaussian_quadratic_form(params)
    half = span_widths * max(math.sqrt(q.a_uu / q.det), math.sqrt(q.a_dd / q.det))
    grid = np.linspace(-half, half, n_grid)
    values = joint_density_gaussian(params, grid[:, None], grid[None, :])
    z = np.trapezoid(np.trapezoid(values, grid, axis=1), grid)
    return Density2D(grid_d=grid, grid_u=grid.copy(), values=values / z, model="gaussian")


# -- exact sinc phase matching (numeric, 1D transverse) ----------------------


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x)/x with the removable singularity filled in
    out = np.ones_like(x)
    nz = np.abs(x) > 1e-300
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def _sinc_axis_amplitude(eta: np.ndarray, a: float, n_samples: int, r_max: float) -> np.ndarray:
    """g(eta) = 2 int_0^{r_max} sinc(a R^2) cos(R eta) dR via a
    zero-padded FFT cosine transform, linearly interpolated at the
    requested eta (eta and R are the dimensionless rotated coordinates
    of the position/momentum transform; g is even in eta)."""
    eta = np.abs(np.asarray(eta, dtype=float))
    r = np.linspace(0.0, r_max, n_samples)
    dr = r[1] - r[0]
    h = _sinc(a * r**2)
    h[0] *= 0.5
    h[-1] *= 0.5  # trapezoid end weights
    eta_max = float(eta.max()) if eta.size else 0.0
    # pad so the FFT frequency grid covers eta_max and resolves g's
    # structure (characteristic scale sqrt(a)) for interpolation
    d_eta = min(math.sqrt(a) / 32.0, math.pi / (4.0 * dr))
    n_fft = 1 << max(
        int(math.ceil(math.log2(2.0 * math.pi / (dr * d_eta)))),
        int(math.ceil(math.log2((eta_max * dr / math.pi + 1.0) * n_samples))),
        int(math.ceil(math.log2(2 * n_samples))),
    )
    spectrum = np.fft.rfft(h, n=n_fft)
    eta_grid = 2.0 * math.pi * np.arange(spectrum.size) / (n_fft * dr)
    g_grid = 2.0 * dr * spectrum.real
    if eta_max > eta_grid[-1]:
        raise GridTooCoarse("FFT frequency grid does not cover the requested eta range")
    return np.interp(eta, eta_grid, g_grid)


def joint_density_sinc_1d(
    params: SourceParams,
    n_grid: int = 129,
    n_quad: int | None = None,
) -> Density2D:
    """Joint density with the exact sinc phase-matching function.

    The momentum amplitude P(q_d+q_u) sinc(...) is separable in the
    rotated coordinates Q = q_d + q_u and R = lambda_d q_d - lambda_u q_u,
    so the 2D transform reduces to an analytic Gaussian factor times a
    1D cosine transform of sinc(a R^2), a = L lambda_p / (8 pi ld lu).

    The (x_d, x_u) grid spans 6.5 times the Gaussian-model 1/e marginal
    widths. Doubling the quadrature resolution must change the
    normalized density by less than 1e-3 in integrated absolute
    difference, else GridTooCoarse is raised.
    """
    if n_grid < 16:
        raise ValueError("n_grid too small")
    lsum = params.lambda_d + params.lambda_u
    a = params.crystal_length * params.lambda_p / (
        8.0 * math.pi * params.lambda_d * params.lambda_u
    )

    q = gaussian_quadratic_form(params)
    # 1/e half-widths of the Gaussian-model marginals
    width_d = math.sqrt(q.a_uu / q.det)
    width_u = math.sqrt(q.a_dd / q.det)
    half = 6.5 * max(width_d, width_u)
    grid = np.linspace(-half, half, n_grid)

    eta_max = 2.0 * half / lsum
    # cover the sinc main-lobe decay and the outermost stationary point
    # eta/(2a) of the oscillatory integrand
    r_max = max(10.0 * math.sqrt(2.0 * math.pi / a), 1.5 * eta_max / (2.0 * a))
    if n_quad is None:
        rate = max(2.0 * a * r_max, eta_max)  # fastest local phase rate
        n_quad = max(8193, int(r_max * rate * 8.0 / math.pi) | 1)

    xd = grid[:, None]
    xu = grid[None, :]
    zeta = (params.lambda_u * xd + params.lambda_d * xu) / lsum  # pump-factor coordinate (m)
    # eta depends on x_d - x_u only: 2n-1 distinct values on a uniform grid
    eta_unique = (grid - grid[0]) / lsum  # 0 .. 2*half, n_grid values
    eta_all = np.concatenate([-eta_unique[:0:-1], eta_unique])  # ascending

    def density_for(nq: int) -> np.ndarray:
        g = _sinc_axis_amplitude(np.abs(eta_all), a, nq, r_max)
        # index differences: x_d[i]-x_u[j] = (i-j)*dx -> offset i-j
        idx = np.arange(n_grid)
        offs = idx[:, None] - idx[None, :] + (n_grid - 1)
        g2 = g[offs]
        amp = np.exp(-(zeta**2) / params.pump_waist**2) * g2
        dens = amp**2
        z = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        return dens / z

    dens = density_for(n_quad)
    dens2 = density_for(2 * n_quad + 1)
    diff = np.trapezoid(np.trapezoid(np.abs(dens - dens2), grid, axis=1), grid)
    if diff > 1e-3:
        raise GridTooCoarse(
            f"sinc density not converged: doubling quadrature changes it by {diff:.3g} "
            f"(> 1e-3); increase n_quad"
        )
    return Density2D(grid_d=grid, grid_u=grid.copy(), values=dens2, model="sinc_numeric")


def sinc_correlation(density: Density2D) -> float:
    """Pearson correlation of (x_d, x_u) from a sampled density via
    trapezoidal moments."""
    gd, gu, v = density.grid_d, density.grid_u, density.values

    def integrate(f):
        return np.trapezoid(np.trapezoid(f, gu, axis=1), gd)

    xd = gd[:, None]
    xu = gu[None, :]
    z = integrate(v)
    md = integrate(v * xd) / z
    mu = integrate(v * xu) / z
    vd = integrate(v * (xd - md) ** 2) / z
    vu = integrate(v * (xu - mu) ** 2) / z
    cov = integrate(v * (xd - md) * (xu - mu)) / z
    return float(cov / math.sqrt(vd * vu))


def min_abs_correlation_scan(
    params: SourceParams, waists: np.ndarray, **density_kwargs
) -> tuple[float, float]:
    """Scan pump waists and report (waist, |corr|) at the minimum of the
    sinc-model correlation magnitude. The Gaussian model crosses zero
    exactly at the singular waist; whether the sinc model reaches zero
    is left to the data."""
    best = (float("nan"), float("inf"))
    for w in np.asarray(waists, dtype=float):
        dens = joint_density_sinc_1d(params.with_waist(float(w)), **density_kwargs)
        c = abs(sinc_correlation(dens))
        if c < best[1]:
            best = (float(w), c)
    return best


def export_density_csv(density: Density2D, path) -> None:
    """Write the density matrix as CSV with a two-line header carrying
    the axis ranges and the model tag."""
    gd, gu = density.grid_d, density.grid_u
    header = (
        f"x_d_m: {gd[0]:.17g} {gd[-1]:.17g} n={gd.size}; "
        f"x_u_m: {gu[0]:.17g} {gu[-1]:.17g} n={gu.size}\n"
        f"model={density.model}"
    )
    np.savetxt(path, density.values, delimiter=",", fmt="%.17g", header=header)
