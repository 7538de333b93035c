"""Command-line front end.

Subcommands:
  theory-sweep    closed-form and numeric spreads over an (L, w_p) grid -> CSV
  simulate-edge   synthetic edge measurement end to end -> stack + analysis
  analyze-stack   demodulate and analyze a stack manifest -> analysis JSON
  magnification   two-slit magnification from a profile CSV -> JSON

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
4 I/O error. All commands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .core import load_config, parse_dimensionless, parse_length
from .dpsh import NoiseModel
from .errors import (NonPositiveParameter, NumericalError, SchemaError, ToolkitError, TooFewPhases,
                     ValidationError, raise_float_errors)
from .fitting import fit_double_slit
from .imaging import read_profile_csv
from .pipeline import analyze_stack, simulate_edge, write_json
from .spreads import theory_sweep_rows, write_sweep_csv

DEFAULT_LENGTHS = "2mm,5mm,10mm"
DEFAULT_WAISTS = "50um,142um,214um,308um"
# most points of a 'start:stop:logN' range: far above any sweep the model
# needs; the rows of a sweep are bounded by MAX_SWEEP_ROWS
MAX_RANGE_POINTS = 10_000
# most rows of one theory-sweep (distinct lengths x distinct waists); a
# sweep this size peaks at 64 MB resident (ru_maxrss, 10 x 10,000 rows)
MAX_SWEEP_ROWS = 100_000
# most pixels of one simulate-edge stack (phases x rows x cols), 2 GiB of
# float64. Above its start-up, a run peaked at 2.7x its stack's bytes
# with 3 phases and 1.3x with 16 (ru_maxrss, 3 x 256 x 8192 and
# 16 x 64 x 8192 pixels), so a run at this bound would peak near 3 to 6 GB
MAX_STACK_PIXELS = 2**28
# most phase steps of one simulate-edge stack, far above the 3 to 64 of
# any measurement; each step is one synthesis task and one frame
MAX_PHASES = 4096


def parse_length_list(text: str) -> list[float]:
    """Comma list of lengths ('2mm,5mm,10mm') or a log-spaced range
    'start:stop:logN' ('50um:400um:log50') of 2 to MAX_RANGE_POINTS
    points, 0 < start < stop < inf; an empty list is a SchemaError."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("log") or not parts[2][3:].isdecimal():
            raise SchemaError(f"range syntax is start:stop:logN, got {text!r}")
        start, stop = parse_length(parts[0]), parse_length(parts[1])
        count = parts[2][3:].lstrip("0") or "0"
        # digits counted first: int() refuses a string of over 4,300 digits
        if len(count) > len(str(MAX_RANGE_POINTS)) or int(count) > MAX_RANGE_POINTS:
            raise SchemaError(f"a range has at most {MAX_RANGE_POINTS} points, got {text!r}")
        n = int(count)
        if n < 2 or not 0 < start < stop < np.inf:
            raise SchemaError(f"bad range {text!r}")
        return [float(v) for v in np.geomspace(start, stop, n)]
    lengths = [parse_length(part) for part in text.split(",") if part.strip()]
    if not lengths:
        raise SchemaError(f"no lengths in {text!r}")
    return lengths


def parse_noise(text: str | None, background: float) -> NoiseModel:
    """'read:0.01,shot:on' -> read sigma of 1% of the background level
    plus Poisson shot noise."""
    if not text or text == "none":
        return NoiseModel()
    read_rel = 0.0
    shot = False
    for part in text.split(","):
        key, _, value = part.strip().partition(":")
        if key == "read":
            read_rel = parse_dimensionless(value)
            if read_rel < 0:
                raise SchemaError("read noise fraction must be >= 0")
        elif key == "shot":
            if value not in ("on", "off"):
                raise SchemaError(f"shot noise must be on/off, got {value!r}")
            shot = value == "on"
        else:
            raise SchemaError(f"unknown noise component {key!r}")
    return NoiseModel(read_sigma=read_rel * background, shot=shot)


def _cmd_theory_sweep(args) -> int:
    params, setup = load_config(args.config)
    lengths = parse_length_list(args.lengths)
    waists = parse_length_list(args.waists)
    n_lengths, n_waists = np.unique(lengths).size, np.unique(waists).size
    if n_lengths * n_waists > MAX_SWEEP_ROWS:
        raise SchemaError(f"a sweep has at most {MAX_SWEEP_ROWS} rows, got {n_lengths} "
                          f"distinct lengths x {n_waists} distinct waists")
    sweep = theory_sweep_rows(params, lengths, waists, setup)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    write_sweep_csv(sweep, path)
    print(f"wrote {len(sweep['L_m'])} rows to {path}")
    return 0


def _cmd_simulate_edge(args) -> int:
    params, setup = load_config(args.config)
    noise = parse_noise(args.noise, args.background)
    if args.phases < 3:
        raise TooFewPhases(f"need >= 3 phase steps, got {args.phases}")
    if args.phases > MAX_PHASES:
        raise SchemaError(f"a stack has at most {MAX_PHASES} phase steps, got {args.phases}")
    if args.phases * args.rows * args.cols > MAX_STACK_PIXELS:
        raise SchemaError(f"a stack has at most {MAX_STACK_PIXELS} pixels, got {args.phases} "
                          f"phases x {args.rows} rows x {args.cols} columns")
    if args.seed < 0:
        raise NonPositiveParameter(f"seed must be a non-negative integer, got {args.seed!r}")
    result = simulate_edge(
        params,
        setup,
        args.out,
        n_phases=args.phases,
        noise=noise,
        seed=args.seed,
        rows=args.rows,
        cols=args.cols,
        pixel_pitch=parse_length(args.pitch),
        background=args.background,
        x_tilde_o=parse_length(args.edge_offset),
    )
    gate = result["analysis"]["gate"]
    m_d = result["analysis"]["m_d_avg"]
    print(
        f"wrote stack and analysis to {args.out}; gate "
        f"{'passed' if gate['passed'] else 'FAILED'}"
        + (f", M_d = {m_d:.6g}" if m_d is not None else "")
    )
    return 0


def _cmd_analyze_stack(args) -> int:
    params, _ = load_config(args.config)
    analysis = analyze_stack(args.manifest, params, args.out)
    print(f"wrote analysis to {Path(args.out) / 'analysis.json'}; "
          f"gate {'passed' if analysis['gate']['passed'] else 'FAILED'}")
    return 0


def _cmd_magnification(args) -> int:
    profile = read_profile_csv(args.profile)
    measurement = fit_double_slit(
        profile,
        slit_distance_object=parse_length(args.slit_distance),
        object_tolerance=parse_length(args.slit_tolerance),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "peak_distance_camera_m": measurement.peak_distance_camera,
        "slit_distance_object_m": measurement.slit_distance_object,
        "magnification": measurement.magnification,
        "uncertainty": measurement.uncertainty,
        "relative_uncertainty": measurement.uncertainty / measurement.magnification,
        "fit": {
            "parameters": measurement.fit.parameters,
            "residual_rms": measurement.fit.residual_rms,
            "iterations": measurement.fit.iterations,
        },
    }
    path = out / "magnification.json"
    write_json(report, path)
    print(
        f"magnification {measurement.magnification:.4g} "
        f"+- {measurement.uncertainty:.2g} -> {path}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="qiul",
        description="Near-field quantum imaging with undetected light: "
        "theory curves, synthetic edge pipelines, and stack analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("theory-sweep", help="spread model over an (L, w_p) grid")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--lengths", default=DEFAULT_LENGTHS)
    sweep.add_argument("--waists", default=DEFAULT_WAISTS)
    sweep.set_defaults(func=_cmd_theory_sweep)

    sim = sub.add_parser("simulate-edge", help="synthetic edge measurement end to end")
    sim.add_argument("--config", default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--phases", type=int, default=4)
    sim.add_argument("--noise", default="none", help="e.g. read:0.01,shot:on")
    sim.add_argument("--rows", type=int, default=48)
    sim.add_argument("--cols", type=int, default=1024)
    sim.add_argument("--pitch", default="6.5um")
    sim.add_argument("--background", type=float, default=1e4)
    sim.add_argument("--edge-offset", default="0m", help="object-plane edge offset")
    sim.set_defaults(func=_cmd_simulate_edge)

    ana = sub.add_parser("analyze-stack", help="analyze a stack manifest")
    ana.add_argument("--manifest", required=True)
    ana.add_argument("--config", default=None)
    ana.add_argument("--out", required=True)
    ana.set_defaults(func=_cmd_analyze_stack)

    mag = sub.add_parser("magnification", help="two-slit magnification from a profile CSV")
    mag.add_argument("--profile", required=True)
    mag.add_argument("--slit-distance", default="133um")
    mag.add_argument("--slit-tolerance", default="23um")
    mag.add_argument("--out", required=True)
    mag.set_defaults(func=_cmd_magnification)
    return parser


@raise_float_errors()
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a FloatingPointError, or Python float arithmetic's OverflowError
        # or ZeroDivisionError, means the input lies outside what the
        # model can represent: exit 3
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ToolkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
