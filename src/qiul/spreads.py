"""Resolution metrics: 1/e and knife-edge widths, LSF extraction,
closed-form spreads, the magnification-independent spread ratio, and
the minimum resolvable object distance.

Width conventions: the 1/e spread of a peaked profile is half the
distance between the two 1/e-of-maximum crossings bracketing the peak
(symmetric definition; reduces to the usual Gaussian 1/e half-width).
The knife-edge width of an edge profile is the full distance between
the 24%- and 76%-of-maximum crossings, which for an erf edge equals
2 erfinv(0.52) ~ 0.9989 times the underlying 1/e half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import OpticalSetup, SourceParams, singular_waist
from .errors import MultiPeak, NoCrossing, RangeNotSpanned, SeparableState
from .imaging import Profile1D, esf_slope_coefficient, g_envelope_coefficient, g_esf_derivative

__all__ = [
    "SpreadResult",
    "half_width_1e",
    "knife_edge_width_2476",
    "lsf_from_esf",
    "spread_g_psf_closed",
    "spread_v_closed",
    "spread_g_esf_numeric",
    "spread_ratio",
    "min_resolvable_distance",
    "theory_sweep_rows",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
    "SEPARABLE_MARKER",
]

_UNIT_SETUP = OpticalSetup(m_d=1.0, m_u=1.0, m_d_i=1.0, m_u_i=1.0, m_d_c=1.0)


@dataclass(frozen=True)
class SpreadResult:
    """Extracted width with method/plane metadata and a linear-
    interpolation error estimate (same units as width)."""

    width: float
    method: str
    plane: str = "camera"
    interpolation_error_estimate: float = 0.0

    def __post_init__(self):
        if not (self.width >= 0 and math.isfinite(self.width)):
            raise ValueError(f"width must be finite and >= 0, got {self.width}")

    def magnification_adjusted(self, m_d: float) -> "SpreadResult":
        return replace(
            self,
            width=self.width / m_d,
            interpolation_error_estimate=self.interpolation_error_estimate / m_d,
            plane="magnification_adjusted",
        )


def _crossing(x: np.ndarray, v: np.ndarray, i: int, j: int, level: float) -> tuple[float, float]:
    """Linear interpolation of the level crossing between samples i and j
    (j = i +- 1). Returns (position, error estimate)."""
    x0, x1 = x[i], x[j]
    y0, y1 = v[i], v[j]
    pos = x0 + (level - y0) * (x1 - x0) / (y1 - y0)
    # error estimate: grid spacing times the local slope ratio (change of
    # slope across the crossing segment relative to the segment slope)
    h = abs(x1 - x0)
    s_in = (y1 - y0) / (x1 - x0)
    k = min(max(min(i, j) - 1, 0), len(v) - 3)
    s_adj = (v[k + 2] - v[k]) / (x[k + 2] - x[k])
    err = h * abs(s_adj - s_in) / (8.0 * max(abs(s_in), 1e-300))
    return float(pos), float(err)


def _half_width_1e_arrays(x: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    i_max = int(np.argmax(v))
    peak = v[i_max]
    if not (peak > 0 and np.isfinite(peak)):
        raise NoCrossing("profile has no positive finite maximum")
    interior = v[1:-1]
    local_max = (interior > v[:-2]) & (interior > v[2:]) & (interior > 0.5 * peak)
    if int(np.count_nonzero(local_max)) > 1:
        raise MultiPeak(f"{int(np.count_nonzero(local_max))} local maxima above half maximum")
    level = peak / math.e

    below_left = np.nonzero(v[: i_max + 1] < level)[0]
    if below_left.size == 0:
        raise NoCrossing("profile never decays to 1/e of its maximum on the left")
    i = int(below_left[-1])
    x_left, e_left = _crossing(x, v, i, i + 1, level)

    below_right = np.nonzero(v[i_max:] < level)[0]
    if below_right.size == 0:
        raise NoCrossing("profile never decays to 1/e of its maximum on the right")
    j = i_max + int(below_right[0])
    x_right, e_right = _crossing(x, v, j - 1, j, level)

    return 0.5 * (x_right - x_left), 0.5 * (e_left + e_right)


def half_width_1e(profile: Profile1D) -> SpreadResult:
    """Half the distance between the left and right 1/e-of-maximum
    crossings around the (unique) peak, crossings located by linear
    interpolation."""
    width, err = _half_width_1e_arrays(profile.grid, profile.values)
    return SpreadResult(
        width=width, method="one_over_e", plane=profile.plane,
        interpolation_error_estimate=err,
    )


def knife_edge_width_2476(esf: Profile1D) -> SpreadResult:
    """Distance between the 24%- and 76%-of-maximum crossings of a
    monotone-trend edge profile (either orientation)."""
    v = esf.values
    x = esf.grid
    n = max(2, v.size // 10)
    if np.mean(v[-n:]) < np.mean(v[:n]):  # descending edge: mirror it
        v = v[::-1].copy()
    peak = float(np.max(v))
    if peak <= 0:
        raise RangeNotSpanned("edge profile has no positive maximum")
    lo_level, hi_level = 0.24 * peak, 0.76 * peak
    if float(np.min(v)) > lo_level:
        raise RangeNotSpanned("edge profile never falls below 24% of its maximum")

    above_lo = np.nonzero(v >= lo_level)[0]
    i = int(above_lo[0])
    if i == 0:
        raise RangeNotSpanned("edge profile starts above 24% of its maximum")
    x_lo, e_lo = _crossing(x, v, i - 1, i, lo_level)
    above_hi = np.nonzero(v >= hi_level)[0]
    j = int(above_hi[0])
    x_hi, e_hi = _crossing(x, v, j - 1, j, hi_level)

    return SpreadResult(
        width=abs(x_hi - x_lo), method="knife_24_76", plane=esf.plane,
        interpolation_error_estimate=e_lo + e_hi,
    )


def lsf_from_esf(esf: Profile1D) -> Profile1D:
    """Line spread function as the central finite difference of the ESF
    (one-sided at the ends), normalized so the extremum is +1. Raises
    RangeNotSpanned for a flat profile."""
    if esf.grid.size < 5:
        raise ValueError("need at least 5 samples to differentiate")
    deriv = np.gradient(esf.values, esf.grid)
    extremum = deriv[int(np.argmax(np.abs(deriv)))]
    if extremum == 0:
        raise RangeNotSpanned("flat profile has no line spread function")
    return Profile1D(grid=esf.grid, values=deriv / extremum, plane=esf.plane, kind=None)


# -- closed-form magnification-adjusted spreads -------------------------------


def spread_g_psf_closed(params: SourceParams) -> float:
    """1/e half-width of the amplitude PSF, magnification adjusted:
    sqrt(L(ld+lu)/(4 pi)) / sqrt(1 + lu^2 L / (2 pi w_p^2 (ld+lu)))."""
    lsum = params.lambda_d + params.lambda_u
    lead = math.sqrt(params.crystal_length * lsum / (4.0 * math.pi))
    corr = 1.0 + params.lambda_u**2 * params.crystal_length / (
        2.0 * math.pi * params.pump_waist**2 * lsum
    )
    return lead / math.sqrt(corr)


def spread_v_closed(params: SourceParams, below_singularity: bool = False) -> float:
    """1/e half-width of the visibility PSF, magnification adjusted.

    Diverges at the singular waist; restricted to w_p > w_sing unless
    below_singularity is set, in which case the branch below the
    singularity is returned with positive sign (paraxial assumptions
    are questionable there)."""
    w_sing = singular_waist(params)
    if not below_singularity and params.pump_waist <= w_sing * (1.0 + 1e-9):
        raise SeparableState(
            f"pump waist {params.pump_waist:.6g} m at or below the singular waist "
            f"{w_sing:.6g} m: visibility spread diverges"
        )
    if below_singularity and abs(params.pump_waist - w_sing) <= w_sing * 1e-9:
        raise SeparableState("visibility spread diverges at the singular waist")
    lsum = params.lambda_d + params.lambda_u
    L = params.crystal_length
    lead = math.sqrt(L * lsum / (4.0 * math.pi))
    tw = 2.0 * math.pi * params.pump_waist**2 * lsum
    value = (
        lead * tw * math.sqrt(1.0 + params.lambda_d**2 * L / tw)
        / (tw - params.lambda_d * params.lambda_u * L)
    )
    return abs(value)


def spread_g_esf_numeric(params: SourceParams, x_tilde_o: float = 0.0) -> float:
    """Magnification-adjusted 1/e half-width (symmetric crossing
    definition) of the peak-normalized derivative of the amplitude edge
    response, on an adaptive grid refined until the doubling change is
    below 5e-4 relative. Evaluated at unit magnification, hence
    independent of the setup magnifications. Raises NoCrossing when the
    derivative has no positive finite maximum."""
    k = g_envelope_coefficient(params)
    c = esf_slope_coefficient(params)
    span = 8.0 / math.sqrt(k + c * c) + abs(x_tilde_o)
    n = 4097
    previous = None
    while True:
        x = np.linspace(-span, span, n)
        deriv = g_esf_derivative(params, _UNIT_SETUP, x, x_tilde_o)
        peak = np.max(deriv)
        if not (peak > 0 and np.isfinite(peak)):
            raise NoCrossing("ESF derivative has no positive finite maximum")
        width, _ = _half_width_1e_arrays(x, deriv / peak)
        if previous is not None and abs(width - previous) <= 5e-4 * width:
            return width
        if n > 1 << 20:
            return width
        previous = width
        n = 2 * n - 1


def spread_ratio(params: SourceParams, setup: OpticalSetup | None = None) -> float:
    """Ratio of the amplitude ESF-derivative spread to the visibility
    spread; magnification independent by construction. Approaches 1 for
    large pump waists and collapses near the singular waist where the
    visibility spread diverges."""
    return spread_g_esf_numeric(params) / spread_v_closed(params)


def min_resolvable_distance(params: SourceParams, m_u: float = 1.0) -> float:
    """Minimum resolvable object distance 0.7 sqrt(2 pi) M_u Delta_V."""
    if not m_u > 0:
        raise ValueError("m_u must be > 0")
    return 0.7 * math.sqrt(2.0 * math.pi) * m_u * spread_v_closed(params)


# -- parameter sweeps ---------------------------------------------------------

SWEEP_COLUMNS = (
    "L_m", "w_p_m", "spread_v_m", "spread_g_psf_m", "spread_g_esf_m",
    "ratio", "w_sing_m", "d_min_m",
)
SEPARABLE_MARKER = "SeparableState"


def theory_sweep_rows(
    base: SourceParams,
    lengths: list[float],
    waists: list[float],
    setup: OpticalSetup,
) -> list[dict]:
    """One row per (L, w_p) pair, sorted by the pair. Waists at or below
    the singular waist carry the SeparableState marker in the columns
    that diverge there."""
    rows = []
    for L in sorted(set(float(v) for v in lengths)):
        for w in sorted(set(float(v) for v in waists)):
            p = base.with_crystal_length(L).with_waist(w)
            w_sing = singular_waist(p)
            row = {
                "L_m": L,
                "w_p_m": w,
                "spread_g_psf_m": spread_g_psf_closed(p),
                "spread_g_esf_m": spread_g_esf_numeric(p),
                "w_sing_m": w_sing,
            }
            # the visibility spread diverges like (1 - w_sing^2/w_p^2)^-1;
            # within 0.1% of the singularity the value is meaningless, so
            # such rows carry the marker as well
            if w > w_sing * (1.0 + 1e-3):
                sv = spread_v_closed(p)
                row["spread_v_m"] = sv
                row["ratio"] = row["spread_g_esf_m"] / sv
                row["d_min_m"] = min_resolvable_distance(p, setup.m_u)
            else:
                row["spread_v_m"] = SEPARABLE_MARKER
                row["ratio"] = SEPARABLE_MARKER
                row["d_min_m"] = SEPARABLE_MARKER
            rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in SWEEP_COLUMNS:
                value = row[col]
                cells.append(value if isinstance(value, str) else format(value, ".12e"))
            fh.write(",".join(cells) + "\n")
