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

from .core import OpticalSetup, SourceParams, check_positive_length, singular_waist
from .errors import (
    MultiPeak,
    NoCrossing,
    NotConverged,
    NumericalError,
    RangeNotSpanned,
    SeparableState,
    raise_float_errors,
)
from .imaging import (
    SEPARABLE_REL_TOL,
    Profile1D,
    _coefficients,
    _edge_coefficients,
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
    x, v = profile.grid, profile.values
    if v.size < 3:
        raise ValueError("need at least 3 samples to locate a crossing")
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
    x, v = esf.grid, esf.values
    if v.size < 3:
        raise ValueError("need at least 3 samples to locate a crossing")
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
    spread diverges, so any w_p <= w_sing (1 + SEPARABLE_REL_TOL)
    raises SeparableState."""
    w_sing = singular_waist(params)
    if params.pump_waist <= w_sing * (1.0 + SEPARABLE_REL_TOL):
        raise SeparableState(
            f"pump waist {params.pump_waist:.6g} m at or below the singular waist "
            f"{w_sing:.6g} m: visibility spread diverges"
        )
    return 1.0 / abs(esf_slope_coefficient(params))


def spread_g_esf_numeric(params: SourceParams) -> float:
    """Magnification-adjusted 1/e half-width (symmetric crossing
    definition) of the peak-normalized derivative of the amplitude edge
    response: W(r) / sqrt(k) for r = c / sqrt(k), W solved to roundoff
    by _g_esf_widths. Evaluated at unit magnification, hence independent
    of the setup magnifications."""
    k, c = _coefficients(params)
    root_k = math.sqrt(k)
    return float(_g_esf_widths(c / root_k)[0]) / root_k


_XTOL = 1e-14  # of the window
_MAX_ITERATIONS = 100
_SOLVE_ROWS = 4096  # bounds a solve: 100,000 sweep rows peak at 64 MB ru_maxrss, 100 MB unchunked
_WRITE_ROWS = 1024  # sweep.csv rows per write: bounds the text held at once
# F(s; 0) peaks at s = -1/sqrt(2). Rounded up, 2 s^2 - 1 is +2.2e-16 at
# s = -_LOBE_OUT, so F' > 0 there for every r < 0; rounded down, it is
# -2.2e-16 at s = -_LOBE_IN, so F' < 0 there for every r > 0, however small
_LOBE_OUT = math.sqrt(0.5)
_LOBE_IN = 1.0 / math.sqrt(2.0)
_TWO_OVER_ROOT_PI = 2.0 / math.sqrt(math.pi)


def _g_esf_terms(r, s, level=None):
    """(F', F'') / (1 + r^2) of F(s; r) = imaging._unit_g_esf_derivative(1,
    r, s, 0), or (F - level, F') where a level is given, from one erf and
    two exps. The scale leaves the peak and each Newton step as they are,
    and keeps F''(0) ~ r^3 finite wherever r^2 is."""
    rs, s2, r2 = r * s, s * s, r * r
    a = 1.0 - erf(rs)
    h = _TWO_OVER_ROOT_PI * r * np.exp(-(rs * rs))
    g = np.exp(-s2)
    if level is not None:
        return (g * (-2.0 * s * a - h) - level,
                g * (2.0 * (2.0 * s2 - 1.0) * a + 2.0 * s * (2.0 + r2) * h))
    w = 1.0 / (1.0 + r2)
    return (g * (2.0 * (2.0 * s2 - 1.0) * a * w + 2.0 * s * (1.0 + w) * h),
            g * (4.0 * s * (3.0 - 2.0 * s2) * a * w + (2.0 + 4.0 * w - 4.0 * s2 * (w + 2.0 + r2)) * h))


def _newton(fn, a, b, x, xtol):
    """Root of f in each bracket between a and b, where fn(x) gives
    (f, f') at x and f(a) >= 0 >= f(b) (a lies on either side of b):
    Newton's method from x inside the bracket, safeguarded as Numerical
    Recipes' rtsafe. Each step moves the end of the bracket whose sign
    f(x) has to x, then takes the Newton step where it lands inside the
    bracket and bisects it elsewhere; |f| < |f'| (bracket width) is
    tested first, so no division overflows or divides by zero. Every row
    is stepped each time; one whose step was at most its xtol (a Newton
    step from a root is 0) keeps that iterate while the others go on."""
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_MAX_ITERATIONS):
        f, d = fn(x)
        above = f > 0
        a, b = np.where(above, x, a), np.where(above, b, x)
        newton = np.abs(f) < np.abs(d) * np.abs(b - a)
        t = x - np.where(newton, f, 0.0) / np.where(newton, d, 1.0)
        t = np.where(newton & ((t - a) * (t - b) <= 0.0), t, 0.5 * (a + b))
        step = np.abs(t - x)
        x = np.where(done, x, t)
        done |= step <= xtol
        if done.all():
            return x
    step, xtol = step[~done], xtol[~done]
    raise NotConverged(f"Newton solve left {step.size} rows after {_MAX_ITERATIONS} steps; "
                       f"largest last step {np.max(step / xtol):.3g} times its tolerance")


def _g_esf_widths(r) -> np.ndarray:
    """W(r), one per element of r: the 1/e half-width of
    F(s; r) = e^{-s^2} [-2s (1 - erf(rs)) - (2/sqrt(pi)) r e^{-r^2 s^2}],
    which is imaging._unit_g_esf_derivative at k = 1, c = r and no
    offset. With s = sqrt(k) x the derivative at (k, c) is sqrt(k) F, so
    its half-width is W(c / sqrt(k)) / sqrt(k).

    For every r, F has one local maximum above half its peak and falls
    below 1/e of it on both sides within the window +-8 / sqrt(1 + r^2),
    widened to +-3 for r > 0 (a test scans r over -1e6..1e6): the window
    holds a spike of width ~1/|r| at s = 0 for r << 0, and the lobe near
    s = -1/sqrt(2) that +-8 / sqrt(1 + r^2) alone misses for r > 5.2.
    Brackets placed by r, which a test checks over the same scan, hold
    the peak and the crossings, so no grid is evaluated. Safeguarded
    Newton steps (_newton) solve F' = 0 for the peak and F = peak/e for
    the two crossings, down to steps of 1e-14 of the window (W then lies
    within 4.4e-16 of a 50-digit reference on the benchmark's sweeps).
    The rows are solved in chunks of _SOLVE_ROWS, one solve for the
    peaks and one for the crossings per chunk, so the values held by a
    solve stay bounded; each row's solve is independent of the other
    rows, so the chunking does not change any width."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    widths = np.empty(r.size)
    for start in range(0, r.size, _SOLVE_ROWS):
        chunk = slice(start, start + _SOLVE_ROWS)
        widths[chunk] = _g_esf_chunk_widths(r[chunk])
    return widths


def _g_esf_chunk_widths(r) -> np.ndarray:
    """_g_esf_widths for one chunk of rows (a 1-d array). F'(0) = -2 for
    every r, and F' > 0 at -1.5 for r >= 0 and at -min(1/sqrt(2), 1/|r|)
    for r < 0, so [lo, hi] brackets the peak; for r > 0, F' < 0 already
    at -1/sqrt(2), which narrows the bracket to [-1.5, -1/sqrt(2)]. F
    falls from the peak to below peak/e at both window ends, once on
    each side, so [-span, s_peak] and [s_peak, span] bracket the
    crossings (F < 0 for s > 0 when r > 0). Each solve starts from an
    estimate of its root within its bracket."""
    span = np.maximum(8.0 / np.sqrt(1.0 + r * r), np.where(r > 0, 3.0, 0.0))
    xtol = _XTOL * span
    lo = np.where(r < 0, -np.minimum(_LOBE_OUT, 1.0 / np.maximum(-r, 1.0)), -1.5)
    hi = np.where(r > 0, -_LOBE_IN, 0.0)
    # the peak starts at the zero of F' expanded to first order about
    # s = 0, -1 / ((2/sqrt(pi)) |r| (3 + r^2)), where the peak lies for
    # r << 0; the added sqrt(2) moves it to -1/sqrt(2), the peak of
    # F(s; 0), as r -> 0, and there for r > 0
    q = np.maximum(-r, 0.0)  # |r| for r < 0
    m = np.minimum(q, 1e100)  # m^3 stays finite, and the start within [lo, 0]
    start = -1.0 / (math.sqrt(2.0) + _TWO_OVER_ROOT_PI * m * (3.0 + m * m))
    s_peak = _newton(lambda s: _g_esf_terms(r, s), lo, hi, start, xtol)
    peak = _g_esf_terms(r, s_peak, 0.0)[0]
    level = peak / math.e

    # the left crossings, then the right ones, started where those of
    # F(s; 0) lie, 1/1.26 and 1/1.835 from its peak, and of the spike,
    # 1/|r| from it
    r2, level2 = np.tile(r, 2), np.tile(level, 2)
    crossings = _newton(
        lambda s: _g_esf_terms(r2, s, level2), np.tile(s_peak, 2),
        np.concatenate([-span, span]),
        np.concatenate([s_peak - 1.0 / np.hypot(1.26, q), s_peak + 1.0 / np.hypot(1.835, q)]),
        np.tile(xtol, 2))
    return 0.5 * (crossings[r.size:] - crossings[:r.size])


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
# the columns that diverge at w_sing: NaN there, written as SEPARABLE_MARKER
_DIVERGING = np.isin(SWEEP_COLUMNS, ("spread_v_m", "ratio", "d_min_m"))


@raise_float_errors()
def theory_sweep_rows(
    base: SourceParams,
    lengths: list[float],
    waists: list[float],
    setup: OpticalSetup,
) -> dict[str, np.ndarray]:
    """The sweep as columns: SWEEP_COLUMNS -> a 1-d float64 array with
    one value per (L, w_p) pair, the pairs sorted. spread_v_m, ratio and
    d_min_m, which diverge at the singular waist w_sing, are NaN at
    waists at or below w_sing (1 + 1e-3), where write_sweep_csv writes
    the SeparableState marker. Each distinct L is validated
    once with base (validate_params; the thin-crystal check reads only
    L), and each distinct w_p once by core.check_positive_length, the
    only check that reads it. k and c come from the one-row formula
    evaluated once over the grid, and every other column is computed
    as an array over the grid, so every number equals its one-row
    library call (spread_g_psf_closed, spread_v_closed,
    spread_g_esf_numeric, singular_waist, min_resolvable_distance at
    setup.m_u); between w_sing (1 + SEPARABLE_REL_TOL) and
    w_sing (1 + 1e-3) NaN stands where spread_v_closed returns a
    number. A width that is not finite raises NumericalError naming its
    L and w_p."""
    lengths = sorted(set(float(v) for v in lengths))
    waists = sorted(set(float(v) for v in waists))
    w_sings = [singular_waist(replace(base, crystal_length=L)) for L in lengths]
    for w in waists:
        check_positive_length("pump_waist", w)
    grid_l, grid_w = (a.ravel() for a in np.meshgrid(lengths, waists, indexing="ij"))
    k, c = _edge_coefficients(base.lambda_d, base.lambda_u, grid_l, grid_w)
    root_k = np.sqrt(k)
    widths = _g_esf_widths(c / root_k) / root_k
    bad = np.flatnonzero(~np.isfinite(widths))
    if bad.size:
        raise NumericalError(f"L = {grid_l[bad[0]]:.6g} m, w_p = {grid_w[bad[0]]:.6g} m: "
                             f"amplitude spread {widths[bad[0]]} is not finite")
    w_sing = np.repeat(w_sings, len(waists))
    # the visibility spread diverges like (1 - w_sing^2/w_p^2)^-1: within
    # 0.1% of the singularity the value is meaningless, so mark it too
    finite = grid_w > w_sing * (1.0 + 1e-3)
    spread_v = np.divide(1.0, np.abs(c), out=np.full(c.shape, np.nan), where=finite)
    return dict(zip(SWEEP_COLUMNS, (
        grid_l, grid_w, spread_v, 1.0 / np.sqrt(k + c * c), widths, widths / spread_v, w_sing,
        _d_min(spread_v, setup.m_u))))


# %.12e of x > 0 is d.dddddddddddde+XX, 18 bytes for a 2-digit exponent.
# A cell of write_sweep_csv's buffer is 21 bytes: its text, which is at
# most 20 ("-d.dddddddddddde+XXX"), then the separator in the last byte;
# row n of _CELL_MASKS selects a cell of n text bytes and its separator.
_CELL_BYTES = 18
_TEXT_BYTES = 20
_CELL_MASKS = np.arange(_TEXT_BYTES + 1) < np.arange(_TEXT_BYTES + 1)[:, None]
_CELL_MASKS[:, -1] = True
_MARKER_BYTES = np.frombuffer(SEPARABLE_MARKER.encode("ascii"), dtype=np.uint8)
_SEPARATORS = np.array([ord(",")] * (len(SWEEP_COLUMNS) - 1) + [ord("\n")], dtype=np.uint8)
# x 10^(12 - e) = x * _SCALE_UP[e + 10] / _SCALE_DOWN[e + 10] for
# -10 <= e <= 34: one factor is 1, the other an exact double (<= 1e22)
_SCALE_UP = 10.0 ** np.maximum(22 - np.arange(45), 0)
_SCALE_DOWN = 10.0 ** np.maximum(np.arange(45) - 22, 0)


def _ascii_words(*columns) -> np.ndarray:
    """The rows of the broadcast byte columns, 4 ASCII bytes a row, as
    one uint32 each."""
    return np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8).view(np.uint32).ravel()


# a cell's text as 5 words, 20 bytes of which the first 2 are dropped:
# "..d." "dddd" "dddd" "dddd" "e+XX". _WORDS holds each word: the 4
# digits of 0..9999, then "..d." for d = 0..9 from _LEAD_WORD, then
# "e-10" to "e+35" from _EXPONENT_WORD - 10
_EXPONENTS = np.arange(-10, 36)
_WORDS = np.concatenate([
    _ascii_words(*np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")),
    _ascii_words(0, 0, np.arange(10) + ord("0"), ord(".")),
    _ascii_words(ord("e"), np.where(_EXPONENTS < 0, ord("-"), ord("+")),
                 np.abs(_EXPONENTS) // 10 + ord("0"), np.abs(_EXPONENTS) % 10 + ord("0")),
])
_LEAD_WORD, _EXPONENT_WORD = 10_000, 10_020


def _format_12e_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format(v, ".12e") of each float of values as ASCII bytes: a mask of
    the cells given exactly, and an (n, 18) uint8 array, one row per
    cell, that holds their text (and is undefined in the other rows).

    For x > 0, e = floor(log10 x) clipped to -10..34, so that
    |12 - e| <= 22, and m = x 10^(12 - e) in one correctly rounded
    multiplication or division. The digits are rint(m), carried into the
    next decade when that is 10^13. A cell is exact unless x <= 0 or is
    not finite, m falls outside [1e12, 1e13) (e was clipped, or log10 is
    one off next to a power of ten), or m is a half-integer (an
    ambiguous rounding); write_sweep_csv gives the argument. The digits
    are split by exact float arithmetic on integers below 2^53 and
    looked up 4 at a time in _WORDS. No step raises or warns under
    np.errstate(all="raise")."""
    positive = (values > 0) & (values < np.inf)
    x = np.where(positive, values, 1.0)
    e = np.clip(np.floor(np.log10(x)), -10, 34)
    decade = (e + 10).astype(np.intp)
    m = x * _SCALE_UP[decade] / _SCALE_DOWN[decade]
    digits = np.rint(m)
    exact = positive & (m >= 1e12) & (m < 1e13) & (np.abs(m - digits) < 0.5)
    digits[~exact] = 1e12  # keeps the lookups of the other cells in range
    carry = digits == 1e13
    digits[carry] = 1e12
    # the leading digit, then the first 5, 9 and all 13 digits
    lead, head, body = (np.floor(digits / divisor) for divisor in (1e12, 1e8, 1e4))
    words = np.empty((values.size, 5), dtype=np.intp)
    words[:, 0] = lead + _LEAD_WORD
    words[:, 1] = head - 1e4 * lead
    words[:, 2] = body - 1e4 * head
    words[:, 3] = digits - 1e4 * body
    words[:, 4] = e + carry + _EXPONENT_WORD
    return exact, _WORDS[words].view(np.uint8)[:, 2:]


def write_sweep_csv(columns: dict[str, np.ndarray], path) -> None:
    """One line per row of theory_sweep_rows' columns, every number as
    %.12e and SEPARABLE_MARKER for each NaN of spread_v_m, ratio and
    d_min_m, written as ASCII bytes a block of _WRITE_ROWS rows at a time.

    A block's cells, row by row, are formatted by one numpy kernel,
    _format_12e_cells, which is exact for every cell it marks. For
    x > 0 and |p| <= 22, with p = 12 - floor(log10 x), 10^|p| is an
    exact double, so m = x 10^p (x / 10^-p for p < 0) is one correctly
    rounded operation. Rounding is monotone and every half-integer below
    2^52 is a double, so unless m is itself a half-integer, m lies on the
    same side of each half-integer as x 10^p does: for m in
    [1e12, 1e13), rint(m) is x 10^p rounded to 13 digits, which is what
    the correctly rounded %.12e prints. The other cells, under 1% of a
    model sweep, are formatted with format(v, ".12e"): zero, negative,
    NaN and infinite values, values outside 1e-10..1e35 (3-digit
    exponents among them), log10 one off next to a power of ten, and
    half-integer m, exact ties among them; a NaN outside the diverging
    columns among them. Marker cells get SEPARABLE_MARKER. Each cell is
    written with its separator into a row of a (cells, 21) uint8 buffer,
    and one boolean-mask select over the buffer gives the block's bytes.
    The text equals format(v, ".12e") cell by cell."""
    n_rows = len(columns["L_m"])
    with open(path, "wb") as fh:
        fh.write((",".join(SWEEP_COLUMNS) + "\n").encode("ascii"))
        for start in range(0, n_rows, _WRITE_ROWS):
            stop = min(start + _WRITE_ROWS, n_rows)
            values = np.column_stack([columns[name][start:stop] for name in SWEEP_COLUMNS])
            marked, values = (np.isnan(values) & _DIVERGING).ravel(), values.ravel()
            exact, text = _format_12e_cells(values)
            buffer = np.empty((values.size, _TEXT_BYTES + 1), dtype=np.uint8)
            buffer[:, :_CELL_BYTES] = text
            buffer.reshape(stop - start, len(SWEEP_COLUMNS), -1)[:, :, -1] = _SEPARATORS
            lengths = np.full(values.size, _CELL_BYTES)
            fallback = np.flatnonzero(~exact & ~marked)
            cells = [format(v, ".12e").encode("ascii") for v in values[fallback].tolist()]
            buffer[fallback, :_TEXT_BYTES] = np.array(cells, dtype=f"S{_TEXT_BYTES}").view(
                np.uint8).reshape(-1, _TEXT_BYTES)
            lengths[fallback] = [len(cell) for cell in cells]
            buffer[marked, :_MARKER_BYTES.size] = _MARKER_BYTES
            lengths[marked] = _MARKER_BYTES.size
            fh.write(buffer[np.take(_CELL_MASKS, lengths, axis=0)])
