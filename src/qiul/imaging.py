"""Image function and visibility in the camera plane.

Closed-form point- and edge-spread expressions for the amplitude image
G and the visibility image V, plus numeric quadrature over the joint
density for arbitrary transmission profiles.

Conventions:
* the edge blocks the left side: T(x_o) = 1 for x_o >= edge position;
* camera coordinate x_c maps to the detected-photon crystal coordinate
  via x_c / M_d, object coordinate x_o to the undetected one via
  x_o / M_u;
* the closed-form ESFs carry the edge offset only through the
  combination (x_c - M_u * x_tilde_o) / M_d, with M_u * x_tilde_o acting
  as a single lumped shift parameter (the fit parameter used for
  magnification estimation);
* the separability point w_p = w_sing makes the visibility constant:
  v_psf raises SeparableState there, v_esf degrades to 1/2.

The G expressions are normalized to peak 1 for the PSF; the ESF scale
is a convention (see image_function_numeric for the numeric one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .biphoton import gaussian_quadratic_form
from .core import OpticalSetup, SourceParams, singular_waist
from .errors import QuadratureNotConverged, SchemaError, SeparableState

__all__ = [
    "Profile1D",
    "TransmissionProfile",
    "g_psf",
    "v_psf",
    "g_esf",
    "v_esf",
    "g_esf_derivative",
    "esf_slope_coefficient",
    "g_envelope_coefficient",
    "image_function_numeric",
    "visibility_numeric",
    "read_profile_csv",
    "write_profile_csv",
]

SEPARABLE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Profile1D:
    """Uniformly sampled 1D signal on a physical coordinate grid.

    plane: 'camera' or 'object'. kind: 'g' (non-negative intensity),
    'v' (bounded to [0, 1]), or None for derived signals such as LSFs.
    """

    grid: np.ndarray
    values: np.ndarray
    plane: str = "camera"
    kind: str | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != values.shape:
            raise ValueError("grid and values must be matching 1D arrays (>= 2 samples)")
        steps = np.diff(grid)
        if np.any(steps <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-9 * np.max(np.abs(steps)):
            raise ValueError("grid must be uniform")
        if self.plane not in ("camera", "object"):
            raise ValueError(f"unknown plane tag {self.plane!r}")
        if self.kind == "v" and (values.min() < -1e-9 or values.max() > 1.0 + 1e-9):
            raise ValueError("visibility profile out of [0, 1]")
        if self.kind == "g" and values.min() < -1e-9:
            raise ValueError("intensity profile must be non-negative")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def write_profile_csv(profile: Profile1D, path) -> None:
    np.savetxt(
        path,
        np.column_stack([profile.grid, profile.values]),
        delimiter=",",
        fmt="%.17g",
        header=f"plane={profile.plane}\nx_c_m, value",
    )


def read_profile_csv(path, kind: str | None = None) -> Profile1D:
    plane = "camera"
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") and "plane=" in line:
                plane = line.split("plane=", 1)[1].strip()
            if not line.startswith("#"):
                break
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return Profile1D(grid=data[:, 0], values=data[:, 1], plane=plane, kind=kind)
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"{path}: not a profile CSV ({exc})") from exc


@dataclass(frozen=True)
class TransmissionProfile:
    """Object transmission T(x_o) in [0, 1].

    kinds: 'point' (delta at x0), 'edge' (0 left of x0, 1 right),
    'double_slit' (two unit slits of width `slit_width` centered at
    +-`center_distance`/2), 'sampled' (linear interpolation of values
    on a grid, 0 outside)."""

    kind: str
    x0: float = 0.0
    center_distance: float = 0.0
    slit_width: float = 0.0
    grid: np.ndarray | None = None
    samples: np.ndarray | None = None

    @staticmethod
    def point(x0: float = 0.0) -> "TransmissionProfile":
        return TransmissionProfile(kind="point", x0=x0)

    @staticmethod
    def edge(x0: float = 0.0) -> "TransmissionProfile":
        return TransmissionProfile(kind="edge", x0=x0)

    @staticmethod
    def open_aperture() -> "TransmissionProfile":
        return TransmissionProfile(kind="open")

    @staticmethod
    def double_slit(center_distance: float, slit_width: float) -> "TransmissionProfile":
        if not (0 < slit_width < center_distance):
            raise ValueError("need 0 < slit_width < center_distance")
        return TransmissionProfile(
            kind="double_slit", center_distance=center_distance, slit_width=slit_width
        )

    @staticmethod
    def sampled(grid, samples) -> "TransmissionProfile":
        grid = np.asarray(grid, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if grid.ndim != 1 or grid.shape != samples.shape or grid.size < 2:
            raise ValueError("sampled transmission needs matching 1D grid/values")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("sampled grid must be strictly increasing")
        steps = np.diff(grid)
        if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
            raise ValueError("sampled grid must be uniform")
        if samples.min() < 0 or samples.max() > 1:
            raise ValueError("transmission values must lie in [0, 1]")
        return TransmissionProfile(kind="sampled", grid=grid, samples=samples)

    def __call__(self, x_o: np.ndarray) -> np.ndarray:
        x_o = np.asarray(x_o, dtype=float)
        if self.kind == "open":
            return np.ones_like(x_o)
        if self.kind == "edge":
            return (x_o >= self.x0).astype(float)
        if self.kind == "double_slit":
            d, s = self.center_distance, self.slit_width
            left = np.abs(x_o + d / 2) <= s / 2
            right = np.abs(x_o - d / 2) <= s / 2
            return (left | right).astype(float)
        if self.kind == "sampled":
            return np.interp(x_o, self.grid, self.samples, left=0.0, right=0.0)
        raise ValueError(f"transmission kind {self.kind!r} has no pointwise values")


# -- closed forms -------------------------------------------------------------

def _as_array(x):
    """Preserve complex dtype (complex-step differentiation support)."""
    arr = np.asarray(x)
    if not np.iscomplexobj(arr):
        arr = arr.astype(float)
    return arr



def g_envelope_coefficient(params: SourceParams) -> float:
    """Coefficient k of the ESF Gaussian envelope exp{-k x_c^2 / M_d^2}:
    k = 4 pi (ld+lu) / (ld^2 L + 2 pi w_p^2 (ld+lu))."""
    lsum = params.lambda_d + params.lambda_u
    return 4.0 * math.pi * lsum / (
        params.lambda_d**2 * params.crystal_length + 2.0 * math.pi * params.pump_waist**2 * lsum
    )


def esf_slope_coefficient(params: SourceParams) -> float:
    """Coefficient c of the ESF erf argument c (x_c - M_u x_o~) / M_d:

    c = sqrt(2) (ld lu L - 2 pi w_p^2 (ld+lu))
        / (sqrt((ld^2 L + 2 pi w_p^2 (ld+lu)) L) w_p (ld+lu))

    Negative above the singular waist, zero at it. c^2 equals the
    exponent coefficient of v_psf, which is the derivative identity
    d/dx_c V_ESF (normalized) = V_PSF."""
    lsum = params.lambda_d + params.lambda_u
    tw = 2.0 * math.pi * params.pump_waist**2 * lsum
    num = math.sqrt(2.0) * (params.lambda_d * params.lambda_u * params.crystal_length - tw)
    den = (
        math.sqrt((params.lambda_d**2 * params.crystal_length + tw) * params.crystal_length)
        * params.pump_waist
        * lsum
    )
    return num / den


def g_psf(params: SourceParams, setup: OpticalSetup, rho_c):
    """Amplitude-image point spread function (peak 1 at rho_c = 0)."""
    q = gaussian_quadratic_form(params)
    rho = _as_array(rho_c)
    out = np.exp(-q.a_dd * rho**2 / setup.m_d**2)
    return out if out.ndim else out.item()


def _require_not_separable(params: SourceParams) -> None:
    w_sing = singular_waist(params)
    if abs(params.pump_waist - w_sing) / w_sing < SEPARABLE_REL_TOL:
        raise SeparableState(
            f"pump waist {params.pump_waist:.6g} m at the separability point "
            f"{w_sing:.6g} m: visibility is constant and carries no spread"
        )


def v_psf(params: SourceParams, setup: OpticalSetup, rho_c):
    """Visibility point spread function (peak 1 at rho_c = 0).

    Raises SeparableState at the singular waist where the visibility
    becomes constant and the spread is undefined."""
    _require_not_separable(params)
    lsum = params.lambda_d + params.lambda_u
    L = params.crystal_length
    w2 = params.pump_waist**2
    tw = 2.0 * math.pi * w2 * lsum
    coeff = 2.0 * (tw - params.lambda_d * params.lambda_u * L) ** 2 / (
        2.0 * math.pi * w2**2 * lsum**3 * L + w2 * params.lambda_d**2 * lsum**2 * L**2
    )
    rho = _as_array(rho_c)
    out = np.exp(-coeff * rho**2 / setup.m_d**2)
    return out if out.ndim else out.item()


def g_esf(params: SourceParams, setup: OpticalSetup, x_c, x_tilde_o: float = 0.0):
    """Amplitude-image edge response: Gaussian envelope times
    [1 - erf{c (x_c - M_u x_o~) / M_d}]. Ranges over (0, ~2) times the
    envelope; the absolute scale is a convention."""
    k = g_envelope_coefficient(params)
    c = esf_slope_coefficient(params)
    x = _as_array(x_c)
    u = (x - setup.m_u * x_tilde_o) / setup.m_d
    out = np.exp(-k * (x / setup.m_d) ** 2) * (1.0 - erf(c * u))
    return out if out.ndim else out.item()


def v_esf(params: SourceParams, setup: OpticalSetup, x_c, x_tilde_o: float = 0.0):
    """Visibility edge response (1/2)[1 - erf{c (x_c - M_u x_o~) / M_d}],
    bounded to [0, 1]. At the singular waist c = 0 and the response is
    the constant 1/2."""
    c = esf_slope_coefficient(params)
    x = _as_array(x_c)
    u = (x - setup.m_u * x_tilde_o) / setup.m_d
    out = 0.5 * (1.0 - erf(c * u))
    return out if out.ndim else out.item()


def g_esf_derivative(params: SourceParams, setup: OpticalSetup, x_c, x_tilde_o: float = 0.0):
    """Analytic d/dx_c of g_esf (signed; not a classical LSF because the
    system is not isoplanatic in the amplitude image)."""
    k = g_envelope_coefficient(params)
    c = esf_slope_coefficient(params)
    x = _as_array(x_c)
    m_d = setup.m_d
    u = (x - setup.m_u * x_tilde_o) / m_d
    env = np.exp(-k * (x / m_d) ** 2)
    erf_term = 1.0 - erf(c * u)
    gauss = np.exp(-(c * u) ** 2)
    out = env * (
        -2.0 * k * x / m_d**2 * erf_term - (2.0 * c / (math.sqrt(math.pi) * m_d)) * gauss
    )
    return out if out.ndim else out.item()


# -- numeric quadrature over the joint density --------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _integrate_t_weighted(
    params: SourceParams,
    setup: OpticalSetup,
    t: TransmissionProfile | None,
    x_c: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """int dx_o P(x_c/M_d, x_o/M_u) T(x_o) by Gauss-Legendre over the
    conditional-density window of +-8 widths (t = None means T == 1)."""
    q = gaussian_quadratic_form(params)
    x_d = x_c / setup.m_d
    mu_o = setup.m_u * (-q.a_du / q.a_uu) * x_d  # conditional center in object coords
    sigma_o = setup.m_u / math.sqrt(q.a_uu)
    lo = mu_o - 8.0 * sigma_o
    hi = mu_o + 8.0 * sigma_o

    # split the domain so every piece has a smooth integrand (Gauss-
    # Legendre converges spectrally only between the kinks of T)
    if t is not None and t.kind == "edge":
        pieces = [(np.maximum(lo, t.x0), hi, None, n_nodes)]
    elif t is not None and t.kind == "double_slit":
        d, s = t.center_distance, t.slit_width
        pieces = [
            (np.maximum(lo, -d / 2 - s / 2), np.minimum(hi, -d / 2 + s / 2), None, n_nodes),
            (np.maximum(lo, d / 2 - s / 2), np.minimum(hi, d / 2 + s / 2), None, n_nodes),
        ]
    elif t is not None and t.kind == "sampled":
        pieces = []
        for g0, g1 in zip(t.grid[:-1], t.grid[1:]):
            base = 9.0 + 8.0 * (g1 - g0) / sigma_o  # widths covered per segment
            per_segment = min(n_nodes, max(17, int(base * n_nodes / 257.0) | 1))
            pieces.append((np.maximum(lo, g0), np.minimum(hi, g1), t, per_segment))
    else:  # open aperture / None
        pieces = [(lo, hi, None, n_nodes)]

    total = np.zeros_like(x_c)
    for a, b, weight, n_piece in pieces:
        nodes, weights = _gauss_legendre(n_piece)
        span = np.maximum(b - a, 0.0)
        # map nodes to each interval; (n_x, n_piece)
        xo = a[:, None] + (nodes[None, :] + 1.0) * 0.5 * span[:, None]
        expo = (
            q.a_dd * x_d[:, None] ** 2
            + q.a_uu * (xo / setup.m_u) ** 2
            + 2.0 * q.a_du * x_d[:, None] * (xo / setup.m_u)
        )
        integrand = q.norm * np.exp(-expo)
        if weight is not None:
            integrand = integrand * weight(xo)
        total = total + 0.5 * span * (integrand @ weights)
    return total


def _open_aperture_peak(params: SourceParams, setup: OpticalSetup, n_nodes: int) -> float:
    return float(
        _integrate_t_weighted(params, setup, None, np.zeros(1), n_nodes)[0]
    )


def _converged_pair(f_lo: np.ndarray, f_hi: np.ndarray, scale: float) -> None:
    err = np.max(np.abs(f_hi - f_lo))
    if err > 1e-8 * scale:
        raise QuadratureNotConverged(
            f"node doubling changes the integral by {err:.3g} (> 1e-8 * {scale:.3g})"
        )


def image_function_numeric(
    params: SourceParams,
    setup: OpticalSetup,
    t: TransmissionProfile,
    grid: np.ndarray,
    n_nodes: int = 257,
) -> Profile1D:
    """Amplitude image G(x_c) for an arbitrary transmission profile,
    normalized so that a fully open aperture gives the x_d marginal
    with peak 1 (the edge response then equals g_esf / 2).

    Gauss-Legendre with n_nodes over +-8 conditional widths,
    convergence-checked by node doubling to 1e-8 of the peak."""
    x = np.asarray(grid, dtype=float)
    peak = _open_aperture_peak(params, setup, n_nodes)
    if t.kind == "point":
        vals2 = _point_image(params, setup, t.x0, x)
    else:
        vals = _integrate_t_weighted(params, setup, t, x, n_nodes)
        vals2 = _integrate_t_weighted(params, setup, t, x, 2 * n_nodes - 1)
        _converged_pair(vals, vals2, peak)
    return Profile1D(grid=x, values=vals2 / peak, plane="camera", kind="g")


def _point_image(params: SourceParams, setup: OpticalSetup, x0: float, x_c: np.ndarray):
    q = gaussian_quadratic_form(params)
    x_d = x_c / setup.m_d
    x_u = x0 / setup.m_u
    return q.norm * np.exp(
        -(q.a_dd * x_d**2 + q.a_uu * x_u**2 + 2.0 * q.a_du * x_d * x_u)
    )


def visibility_numeric(
    params: SourceParams,
    setup: OpticalSetup,
    t: TransmissionProfile,
    grid: np.ndarray,
    n_nodes: int = 257,
) -> Profile1D:
    """Visibility V(x_c): ratio of the T-weighted to the unweighted
    integral of the joint density at each camera position."""
    x = np.asarray(grid, dtype=float)
    if t.kind == "point":
        raise ValueError("visibility of a point object is a ratio of deltas; use g/v PSFs")
    num = _integrate_t_weighted(params, setup, t, x, n_nodes)
    num2 = _integrate_t_weighted(params, setup, t, x, 2 * n_nodes - 1)
    den = _integrate_t_weighted(params, setup, None, x, n_nodes)
    den2 = _integrate_t_weighted(params, setup, None, x, 2 * n_nodes - 1)
    _converged_pair(num, num2, float(np.max(den2)))
    _converged_pair(den, den2, float(np.max(den2)))
    vals = np.clip(num2 / den2, 0.0, 1.0)
    return Profile1D(grid=x, values=vals, plane="camera", kind="v")
