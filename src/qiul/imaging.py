"""Image function and visibility in the camera plane.

Closed-form point- and edge-spread expressions for the amplitude image
G and the visibility image V; numeric quadrature over the joint density
is the tests' reference for them (tests/quadrature.py).

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
is a convention (the quadrature's edge response is g_esf / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OpticalSetup, SourceParams, singular_waist
from .errors import SchemaError, SeparableState

__all__ = [
    "Profile1D",
    "g_psf",
    "v_psf",
    "g_esf",
    "v_esf",
    "g_esf_derivative",
    "esf_slope_coefficient",
    "g_envelope_coefficient",
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
        if not np.isfinite(grid).all():  # values may be NaN (demodulated pixels), the grid not
            raise ValueError("grid must be finite")
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
    """Write `# plane=<plane>` and `# x_c_m, value` lines, then one
    `grid,value` row per sample in `%.17g`, which round-trips every
    float64; the file is formatted as one string and written at once."""
    rows = np.column_stack([profile.grid, profile.values]).ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# plane={profile.plane}\n# x_c_m, value\n"
                 + ("%.17g,%.17g\n" * profile.grid.size) % tuple(rows))


def read_profile_csv(path) -> Profile1D:
    """Read a profile written by write_profile_csv. A file without data
    rows or without two numeric columns, or whose grid or values hold NaN
    or +-inf, raises SchemaError naming the file; the finiteness check on
    the values lives here and not in Profile1D, whose demodulated
    profiles may carry invalid (NaN) pixels."""
    plane = "camera"
    try:  # UnicodeDecodeError, from a file that is not UTF-8 text, is a ValueError
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") and "plane=" in line:
                    plane = line.split("plane=", 1)[1].strip()
                if line.split("#", 1)[0].strip():  # what loadtxt reads as data
                    break
            else:
                raise ValueError("no data rows")
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        grid, values = data[:, 0], data[:, 1]
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        return Profile1D(grid=grid, values=values, plane=plane)
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"{path}: not a profile CSV ({exc})") from exc


# -- closed forms -------------------------------------------------------------

def erf(x):
    """scipy.special.erf, imported on the first call so that importing
    qiul, and the commands that evaluate no edge response, do not load
    scipy; later calls find the module in sys.modules."""
    from scipy.special import erf

    return erf(x)


def _as_array(x):
    """Preserve complex dtype (complex-step differentiation support)."""
    arr = np.asarray(x)
    if not np.iscomplexobj(arr):
        arr = arr.astype(float)
    return arr


def _edge_coefficients(lambda_d, lambda_u, crystal_length, pump_waist):
    """(k, c) of g_envelope_coefficient and esf_slope_coefficient. L and
    w_p may be arrays, which broadcast to one (k, c) per element; squares
    are products, which round alike for one element and for many."""
    lsum = lambda_d + lambda_u
    tw = 2.0 * math.pi * (pump_waist * pump_waist) * lsum
    den = lambda_d * lambda_d * crystal_length + tw
    sqrt = np.sqrt if isinstance(den, np.ndarray) else math.sqrt  # one row stays a float
    c = math.sqrt(2.0) * (lambda_d * lambda_u * crystal_length - tw) / (
        sqrt(den * crystal_length) * pump_waist * lsum)
    return 4.0 * math.pi * lsum / den, c


def _coefficients(params: SourceParams) -> tuple[float, float]:
    """(k, c) of one parameter set. Float products overflow without an
    error, so a w_p^2 or c^2 outside the float range raises here."""
    k, c = _edge_coefficients(params.lambda_d, params.lambda_u, params.crystal_length,
                              params.pump_waist)
    if not math.isfinite(c * c):
        raise OverflowError(f"edge coefficients of {params} leave the float range")
    return k, c


def g_envelope_coefficient(params: SourceParams) -> float:
    """Coefficient k of the ESF Gaussian envelope exp{-k x_c^2 / M_d^2}:
    k = 4 pi (ld+lu) / (ld^2 L + 2 pi w_p^2 (ld+lu)), one formula with c."""
    return _coefficients(params)[0]


def esf_slope_coefficient(params: SourceParams) -> float:
    """Coefficient c of the ESF erf argument c (x_c - M_u x_o~) / M_d:

    c = sqrt(2) (ld lu L - 2 pi w_p^2 (ld+lu))
        / (sqrt((ld^2 L + 2 pi w_p^2 (ld+lu)) L) w_p (ld+lu))

    Negative above the singular waist, zero at it. v_psf is
    exp{-c^2 rho_c^2 / M_d^2} by construction, so d/dx_c V_ESF
    (normalized) = V_PSF holds exactly. With k = g_envelope_coefficient,
    (k, c), one formula also evaluated over the grid of a theory sweep,
    is the whole closed-form image model: a_dd = k + c^2, the amplitude
    spread is 1/sqrt(k + c^2) and the visibility spread 1/|c|."""
    return _coefficients(params)[1]


def _gaussian_psf(coeff: float, setup: OpticalSetup, rho_c):
    """exp{-coeff rho_c^2 / M_d^2}, peak 1 at rho_c = 0."""
    rho = _as_array(rho_c)
    out = np.exp(-coeff * rho**2 / setup.m_d**2)
    return out if out.ndim else out.item()


def g_psf(params: SourceParams, setup: OpticalSetup, rho_c):
    """Amplitude-image point spread function exp{-(k + c^2) rho_c^2 / M_d^2}
    (peak 1 at rho_c = 0); k + c^2 is the detected-position coefficient
    a_dd of biphoton.gaussian_quadratic_form."""
    k, c = _coefficients(params)
    return _gaussian_psf(k + c * c, setup, rho_c)


def v_psf(params: SourceParams, setup: OpticalSetup, rho_c):
    """Visibility point spread function exp{-c^2 rho_c^2 / M_d^2} (peak 1
    at rho_c = 0), the normalized derivative of v_esf by construction.

    Raises SeparableState at the singular waist where the visibility
    becomes constant and the spread is undefined."""
    w_sing = singular_waist(params)
    if abs(params.pump_waist - w_sing) / w_sing < SEPARABLE_REL_TOL:
        raise SeparableState(
            f"pump waist {params.pump_waist:.6g} m at the separability point "
            f"{w_sing:.6g} m: visibility is constant and carries no spread"
        )
    c = esf_slope_coefficient(params)
    return _gaussian_psf(c * c, setup, rho_c)


def g_esf(params: SourceParams, setup: OpticalSetup, x_c, x_tilde_o: float = 0.0):
    """Amplitude-image edge response: Gaussian envelope times
    [1 - erf{c (x_c - M_u x_o~) / M_d}]. Ranges over (0, ~2) times the
    envelope; the absolute scale is a convention."""
    envelope, edge_factor = _esf_factors(*_coefficients(params), _as_array(x_c),
                                         setup.m_u * x_tilde_o, setup.m_d)
    out = envelope * edge_factor
    return out if out.ndim else out.item()


def v_esf(params: SourceParams, setup: OpticalSetup, x_c, x_tilde_o: float = 0.0):
    """Visibility edge response (1/2)[1 - erf{c (x_c - M_u x_o~) / M_d}],
    bounded to [0, 1]. At the singular waist c = 0 and the response is
    the constant 1/2."""
    _, edge_factor = _esf_factors(*_coefficients(params), _as_array(x_c),
                                  setup.m_u * x_tilde_o, setup.m_d)
    out = 0.5 * edge_factor
    return out if out.ndim else out.item()


def g_esf_derivative(params: SourceParams, setup: OpticalSetup, x_c, x_tilde_o: float = 0.0):
    """Analytic d/dx_c of g_esf (signed; not a classical LSF because the
    system is not isoplanatic in the amplitude image)."""
    m_d = setup.m_d
    out = _unit_g_esf_derivative(*_coefficients(params), _as_array(x_c) / m_d,
                                 setup.m_u * x_tilde_o / m_d) / m_d
    return out if out.ndim else out.item()


def _esf_factors(k, c, x, shift, m_d):
    """(envelope, edge factor) of the edge responses at camera positions
    x in terms of the coefficients k and c: exp{-k x^2 / M_d^2} and
    1 - erf{c (x - shift) / M_d}, where shift = M_u x_o~. g_esf is their
    product and v_esf half the edge factor."""
    u = (x - shift) / m_d
    return np.exp(-k * (x / m_d) ** 2), 1.0 - erf(c * u)


def _unit_g_esf_derivative(k, c, x, x_tilde_o):
    """g_esf_derivative at unit magnification in terms of the coefficients
    k = g_envelope_coefficient and c = esf_slope_coefficient; every
    argument broadcasts, so one call can evaluate many (k, c, x_tilde_o)
    rows."""
    cu = c * (x - x_tilde_o)
    return np.exp(-k * x**2) * (
        -2.0 * k * x * (1.0 - erf(cu)) - (2.0 / math.sqrt(math.pi)) * c * np.exp(-(cu**2))
    )
