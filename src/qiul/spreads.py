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
from .errors import MultiPeak, NoCrossing, NotConverged, RangeNotSpanned, SeparableState
from .imaging import (
    Profile1D,
    _coefficients,
    _edge_coefficients,
    _unit_g_esf_derivative,
    erf,
    esf_slope_coefficient,
)

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

@dataclass(frozen=True)
class SpreadResult:
    """Extracted width with a linear-interpolation error estimate (same
    units as width)."""

    width: float
    interpolation_error_estimate: float = 0.0

    def __post_init__(self):
        if not (self.width >= 0 and math.isfinite(self.width)):
            raise ValueError(f"width must be finite and >= 0, got {self.width}")


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


def half_width_1e(profile: Profile1D) -> SpreadResult:
    """Half the distance between the left and right 1/e-of-maximum
    crossings around the (unique) peak, crossings located by linear
    interpolation."""
    x = profile.grid
    v = profile.values
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

    return SpreadResult(width=0.5 * (x_right - x_left),
                        interpolation_error_estimate=0.5 * (e_left + e_right))


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

    return SpreadResult(width=abs(x_hi - x_lo), interpolation_error_estimate=e_lo + e_hi)


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
    1/sqrt(k + c^2) for k = g_envelope_coefficient and
    c = esf_slope_coefficient (g_psf's exponent coefficient)."""
    k, c = _coefficients(params)
    return 1.0 / math.sqrt(k + c * c)


def spread_v_closed(params: SourceParams) -> float:
    """1/e half-width of the visibility PSF, magnification adjusted:
    1/|c| for c = esf_slope_coefficient (v_psf's exponent is c^2).

    Defined only above the singular waist: c = 0 at w_sing, where the
    spread diverges, so any w_p <= w_sing (1 + 1e-9) raises
    SeparableState."""
    w_sing = singular_waist(params)
    if params.pump_waist <= w_sing * (1.0 + 1e-9):
        raise SeparableState(
            f"pump waist {params.pump_waist:.6g} m at or below the singular waist "
            f"{w_sing:.6g} m: visibility spread diverges"
        )
    return 1.0 / abs(esf_slope_coefficient(params))


def spread_g_esf_numeric(params: SourceParams, x_tilde_o: float = 0.0) -> float:
    """Magnification-adjusted 1/e half-width (symmetric crossing
    definition) of the peak-normalized derivative of the amplitude edge
    response, solved to roundoff on the analytic derivative (see
    _g_esf_widths). Evaluated at unit magnification, hence independent
    of the setup magnifications. Raises NoCrossing when the derivative
    has no positive finite maximum or does not fall to 1/e of it on
    both sides, and MultiPeak when it has more than one local maximum
    above half maximum."""
    return float(_g_esf_widths(*_coefficients(params), x_tilde_o)[0])


_COARSE_GRID = np.linspace(-1.0, 1.0, 65)  # in units of the span
_ZOOM_GRID = np.linspace(0.0, 1.0, 129)  # in units of the zoom window
_ZOOM_COLUMNS = np.arange(_ZOOM_GRID.size)
_XTOL = 1e-14  # of the bracketing span
_MAX_ITERATIONS = 100
_BLOCK_ROWS = 128


def _g_esf_slope(k, c, x, x_tilde_o):
    """d/dx of imaging._unit_g_esf_derivative; zero at its peak."""
    cu = c * (x - x_tilde_o)
    return np.exp(-k * x**2) * (
        2.0 * k * (2.0 * k * x**2 - 1.0) * (1.0 - erf(cu))
        + (4.0 / math.sqrt(math.pi)) * c * (2.0 * k * x + c * cu) * np.exp(-(cu**2))
    )


def _illinois(fn, a, b, fa, fb, xtol):
    """Root of fn(rows, x) in each bracket [a, b] (fa, fb of opposite
    sign, or one of them zero) by Illinois regula falsi. A row stops
    when its step is at most its xtol or it hits the root exactly."""
    root = b.copy()
    rows = np.arange(b.size)
    for _ in range(_MAX_ITERATIONS):
        if rows.size == 0:
            return root
        x = b - fb * (b - a) / (fb - fa)
        fx = fn(rows, x)
        flip = (fx > 0) != (fb > 0)
        a = np.where(flip, b, a)
        fa = np.where(flip, fb, 0.5 * fa)
        done = (np.abs(x - b) <= xtol) | (fx == 0)
        b, fb = x, fx
        if done.any():
            root[rows[done]] = x[done]
            keep = ~done
            rows, a, b, fa, fb, xtol = (v[keep] for v in (rows, a, b, fa, fb, xtol))
    raise NotConverged(f"Illinois solve took more than {_MAX_ITERATIONS} steps")


def _g_esf_widths(k, c, x_tilde_o) -> np.ndarray:
    """1/e half-widths of the unit-magnification amplitude ESF derivative
    f = imaging._unit_g_esf_derivative, one per row of the broadcast
    (k, c, x_tilde_o) arrays.

    A coarse grid over +-(8 / sqrt(k + c^2) + |x_tilde_o|) finds the
    window where f exceeds a quarter of its peak; a zoom grid over that
    window carries the checks of half_width_1e and brackets the peak and
    both crossings. Illinois regula falsi then solves f' = 0 for the
    peak and f = peak/e for the two crossings nearest it, to 1e-14 of
    the span. Rows are solved together, in blocks that keep the grids
    small. The first failing row raises NoCrossing (no positive finite
    maximum, or no 1/e crossing on one side) or MultiPeak (more than one
    local maximum above half maximum)."""
    k, c, x_tilde_o = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                            for v in (k, c, x_tilde_o)))
    widths = np.empty(k.size)
    for start in range(0, k.size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        widths[block] = _g_esf_block_widths(k[block], c[block], x_tilde_o[block])
    return widths


def _g_esf_block_widths(k, c, x_tilde_o) -> np.ndarray:
    """_g_esf_widths for one block of rows (1-d arrays of equal length)."""
    n_rows = k.size
    on_row = np.arange(n_rows)
    kc, cc, xc = k[:, None], c[:, None], x_tilde_o[:, None]
    span = 8.0 / np.sqrt(k + c * c) + np.abs(x_tilde_o)
    xtol = _XTOL * span

    x = span[:, None] * _COARSE_GRID
    f = _unit_g_esf_derivative(kc, cc, x, xc)
    coarse_peak = np.max(f, axis=1)
    no_peak = ~((coarse_peak > 0) & np.isfinite(coarse_peak))
    # zoom window: one coarse step beyond the outermost samples above a
    # quarter of the peak, so both of its ends lie below 1/e of the peak
    high = f >= 0.25 * coarse_peak[:, None]
    last = _COARSE_GRID.size - 1
    first = np.maximum(np.argmax(high, axis=1) - 1, 0)
    final = np.minimum(last - np.argmax(high[:, ::-1], axis=1) + 1, last)
    lo = x[on_row, first]
    x = lo[:, None] + (x[on_row, final] - lo)[:, None] * _ZOOM_GRID
    f = _unit_g_esf_derivative(kc, cc, x, xc)

    i = np.argmax(f, axis=1)
    grid_peak = f[on_row, i]
    interior = f[:, 1:-1]
    n_max = np.count_nonzero(
        (interior > f[:, :-2]) & (interior > f[:, 2:]) & (interior > 0.5 * grid_peak[:, None]),
        axis=1,
    )
    below = f < grid_peak[:, None] / math.e
    no_left = ~np.any(below & (_ZOOM_COLUMNS <= i[:, None]), axis=1)
    no_right = ~np.any(below & (_ZOOM_COLUMNS >= i[:, None]), axis=1)
    bad = no_peak | (n_max > 1) | no_left | no_right
    if bad.any():
        r = int(np.argmax(bad))
        if no_peak[r]:
            raise NoCrossing("ESF derivative has no positive finite maximum")
        if n_max[r] > 1:
            raise MultiPeak(f"{n_max[r]} local maxima above half maximum")
        side = "left" if no_left[r] else "right"
        raise NoCrossing(f"ESF derivative never decays to 1/e of its maximum on the {side}")

    lo, hi = x[on_row, i - 1], x[on_row, i + 1]
    s_lo = _g_esf_slope(k, c, lo, x_tilde_o)
    s_hi = _g_esf_slope(k, c, hi, x_tilde_o)
    if not np.all((s_lo > 0) & (s_hi < 0)):
        raise MultiPeak("ESF derivative maximum is not isolated between two grid points")
    x_peak = _illinois(lambda q, t: _g_esf_slope(k[q], c[q], t, x_tilde_o[q]),
                       lo, hi, s_lo, s_hi, xtol)
    peak = np.maximum(_unit_g_esf_derivative(k, c, x_peak, x_tilde_o), grid_peak)
    level = peak / math.e

    # the crossings nearest the peak: right of the last grid point below
    # the level on its left, left of the first one on its right
    below = f < level[:, None]
    j = _ZOOM_GRID.size - 1 - np.argmax((below & (_ZOOM_COLUMNS <= i[:, None]))[:, ::-1], axis=1)
    m = np.argmax(below & (_ZOOM_COLUMNS >= i[:, None]), axis=1)
    row = np.concatenate([on_row, on_row])
    below_col = np.concatenate([j, m])
    above_col = np.concatenate([j + 1, m - 1])
    crossings = _illinois(
        lambda q, t: _unit_g_esf_derivative(k[row[q]], c[row[q]], t, x_tilde_o[row[q]])
        - level[row[q]],
        x[row, below_col], x[row, above_col],
        f[row, below_col] - level[row], f[row, above_col] - level[row], xtol[row],
    )
    return 0.5 * (crossings[n_rows:] - crossings[:n_rows])


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
    return _d_min(spread_v_closed(params), m_u)


def _d_min(spread_v: float, m_u: float) -> float:
    return 0.7 * math.sqrt(2.0 * math.pi) * m_u * spread_v


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
    that diverge there. Each distinct L and w_p is validated once (the
    thin-crystal check reads only L). k and c come from the one-row
    formula evaluated once over the grid, so every value equals its
    one-row library call by construction (spread_g_psf_closed,
    spread_v_closed, spread_g_esf_numeric, singular_waist,
    min_resolvable_distance at setup.m_u)."""
    lengths = sorted(set(float(v) for v in lengths))
    waists = sorted(set(float(v) for v in waists))
    w_sings = [singular_waist(replace(base, crystal_length=L)) for L in lengths]
    for w in waists:
        replace(base, pump_waist=w)  # raises for an invalid w_p
    grid_l, grid_w = (a.ravel() for a in np.meshgrid(lengths, waists, indexing="ij"))
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # as one-row calls do
        k, c = _edge_coefficients(base.lambda_d, base.lambda_u, grid_l, grid_w)
        spread_g_psf = 1.0 / np.sqrt(k + c * c)
    rows = []
    pairs = ((L, w_sing, w) for L, w_sing in zip(lengths, w_sings) for w in waists)
    for (L, w_sing, w), psf, c_row, width in zip(
        pairs, spread_g_psf.tolist(), c.tolist(), _g_esf_widths(k, c, 0.0).tolist()
    ):
        # the visibility spread diverges like (1 - w_sing^2/w_p^2)^-1: within
        # 0.1% of the singularity the value is meaningless, so mark it too
        if w > w_sing * (1.0 + 1e-3):
            spread_v = 1.0 / abs(c_row)
            ratio, d_min = width / spread_v, _d_min(spread_v, setup.m_u)
        else:
            spread_v = ratio = d_min = SEPARABLE_MARKER
        rows.append(dict(zip(SWEEP_COLUMNS, (L, w, spread_v, psf, width, ratio, w_sing, d_min))))
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
