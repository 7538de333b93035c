"""Source parameters, optical setup, key-value config files, and the
JSON writer of every output file.

All lengths are SI meters internally; unit suffixes (nm/um/mm/...) are
handled only when reading key-value config files. The closed-form model
assumes collinear phase matching with energy conservation
1/lambda_p = 1/lambda_d + 1/lambda_u and a crystal much longer than the
down-converted wavelengths.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (
    EnergyConservationViolated,
    NonPositiveParameter,
    SchemaError,
    ThinCrystalRegime,
)

# crystal-to-camera magnification of the reference setup: f3/f2 = 200/75
DEFAULT_M_D_C = 2.67

ENERGY_REL_TOL = 0.01
THIN_CRYSTAL_FACTOR = 100.0


@dataclass(frozen=True)
class SourceParams:
    """SPDC source parameters (SI meters).

    lambda_p/lambda_d/lambda_u: pump, detected, undetected wavelengths;
    crystal_length: nonlinear crystal length L; pump_waist: pump beam
    waist w_p at the crystal center.

    Every instance is valid: constructing one with invalid values
    (directly, or through dataclasses.replace, with_waist or
    with_crystal_length) raises a typed ValidationError.
    """

    lambda_p: float
    lambda_d: float
    lambda_u: float
    crystal_length: float
    pump_waist: float

    def __post_init__(self):
        validate_params(self)

    def with_waist(self, pump_waist: float) -> "SourceParams":
        return replace(self, pump_waist=pump_waist)

    def with_crystal_length(self, crystal_length: float) -> "SourceParams":
        return replace(self, crystal_length=crystal_length)


@dataclass(frozen=True)
class OpticalSetup:
    """Arm magnifications. m_d = m_d_i * m_d_c (inside interferometer
    times crystal-to-camera leg); the undetected arm has no camera leg,
    so m_u = m_u_i. Either equation off by more than 1e-12 relative
    raises SchemaError."""

    m_d: float = DEFAULT_M_D_C
    m_u: float = 1.0
    m_d_i: float = 1.0
    m_u_i: float = 1.0
    m_d_c: float = DEFAULT_M_D_C

    def __post_init__(self):
        for name in ("m_d", "m_u", "m_d_i", "m_u_i", "m_d_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise NonPositiveParameter(f"{name} must be finite and > 0, got {value}")
        for name, value, rule, expected in (
            ("m_d", self.m_d, "m_d_i * m_d_c", self.m_d_i * self.m_d_c),
            ("m_u", self.m_u, "m_u_i", self.m_u_i),
        ):
            if abs(value - expected) > 1e-12 * abs(expected):
                raise SchemaError(f"{name} = {value} inconsistent with {rule} = {expected}")


def check_positive_length(name: str, value) -> None:
    """Raise NonPositiveParameter unless value is a positive finite int or
    float; the rule validate_params applies to each SourceParams field."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise NonPositiveParameter(f"{name} must be a positive finite length, got {value!r}")


def validate_params(raw: SourceParams) -> SourceParams:
    """Check positivity, energy conservation, and the long-crystal
    regime; returns the input unchanged when valid, else raises a typed
    ValidationError. SourceParams runs this check on construction."""
    for name in ("lambda_p", "lambda_d", "lambda_u", "crystal_length", "pump_waist"):
        check_positive_length(name, getattr(raw, name))
    rel = abs(1.0 / raw.lambda_p - (1.0 / raw.lambda_d + 1.0 / raw.lambda_u)) * raw.lambda_p
    if rel > ENERGY_REL_TOL:
        raise EnergyConservationViolated(
            f"1/lambda_p != 1/lambda_d + 1/lambda_u (relative error {rel:.3g} > {ENERGY_REL_TOL})"
        )
    lsum = raw.lambda_d + raw.lambda_u
    if raw.crystal_length < THIN_CRYSTAL_FACTOR * lsum:
        raise ThinCrystalRegime(
            f"crystal_length {raw.crystal_length:.3g} m below {THIN_CRYSTAL_FACTOR:g}*(lambda_d+lambda_u) "
            f"= {THIN_CRYSTAL_FACTOR * lsum:.3g} m; closed-form model invalid"
        )
    return raw


def singular_waist(params: SourceParams) -> float:
    """Pump waist at which the Gaussian-approximated biphoton state
    factorizes: w_sing = sqrt(ld lu L / (2 pi (ld + lu)))."""
    return math.sqrt(
        params.lambda_d * params.lambda_u * params.crystal_length
        / (2.0 * math.pi * (params.lambda_d + params.lambda_u))
    )


# -- key-value config files -------------------------------------------------

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}
_VALUE_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")

_LENGTH_KEYS = ("lambda_p", "lambda_d", "lambda_u", "crystal_length", "pump_waist")
_MAG_KEYS = ("m_d", "m_u", "m_d_i", "m_u_i", "m_d_c")

DEFAULT_CONFIG = {
    "lambda_p": 405e-9,
    "lambda_d": 730e-9,
    "lambda_u": 910e-9,
    "crystal_length": 2e-3,
    "pump_waist": 142e-6,
    "m_d_i": 1.0,
    "m_u_i": 1.0,
    "m_d_c": DEFAULT_M_D_C,
}


def _number_and_unit(text: str) -> tuple[float, str]:
    m = _VALUE_RE.match(text)
    if not m:
        raise SchemaError(f"cannot parse value {text!r}")
    try:
        return float(m.group(1)), m.group(2)
    except ValueError as exc:
        raise SchemaError(f"cannot parse number in {text!r}") from exc


def parse_length(text: str) -> float:
    """Parse a length with an optional unit suffix ('142um', '2mm',
    '1.5e-3m', plain numbers are meters)."""
    number, unit = _number_and_unit(text)
    if unit == "":
        return number
    if unit not in _LENGTH_UNITS:
        raise SchemaError(f"unknown length unit {unit!r} in {text!r}")
    return number * _LENGTH_UNITS[unit]


def parse_dimensionless(text: str) -> float:
    number, unit = _number_and_unit(text)
    if unit != "":
        raise SchemaError(f"expected a plain number, got {text!r}")
    return number


def load_config(path=None) -> tuple[SourceParams, OpticalSetup]:
    """Read a `key = value` config file (UTF-8, '#'/';' comments) and
    return validated source parameters and optical setup. Missing keys,
    and every key when no path is given, take the reference defaults; a
    file that sets only one of m_u and m_u_i sets both."""
    values = dict(DEFAULT_CONFIG)
    explicit = {}
    lines = []
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not a UTF-8 text file ({exc})") from exc
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _LENGTH_KEYS:
            explicit[key] = parse_length(value)
        elif key in _MAG_KEYS:
            explicit[key] = parse_dimensionless(value)
        else:
            raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
    values.update(explicit)
    params = SourceParams(**{key: values[key] for key in _LENGTH_KEYS})
    m_d_i = values["m_d_i"]
    m_d_c = values["m_d_c"]
    m_u_i = explicit.get("m_u_i", explicit.get("m_u", values["m_u_i"]))
    setup = OpticalSetup(
        m_d=explicit.get("m_d", m_d_i * m_d_c),
        m_u=explicit.get("m_u", m_u_i),
        m_d_i=m_d_i,
        m_u_i=m_u_i,
        m_d_c=m_d_c,
    )
    return params, setup


def write_json(data: dict, path) -> None:
    """Write JSON-native data as UTF-8 text: indented, keys sorted, one
    final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
