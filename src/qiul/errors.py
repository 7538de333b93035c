"""Exception hierarchy; the package raises every leaf class.

Grouped by how the CLI maps them to exit codes: validation problems
(bad parameters, bad files, schema violations) exit with 2, numerical
failures (non-convergence, degenerate extraction) with 3, I/O with 4.
"""

import numpy as np


def raise_float_errors() -> np.errstate:
    """The float-error policy of every entry point: float64 overflow,
    division by zero or an invalid operation (inf - inf) raises
    FloatingPointError, not a warning followed by meaningless numbers.

    Each call returns a fresh np.errstate, for `@raise_float_errors()` or
    `with raise_float_errors():`; one instance can be entered only once."""
    return np.errstate(over="raise", divide="raise", invalid="raise")


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ToolkitError):
    """Rejected input: parameters, profiles, or file contents."""


class NumericalError(ToolkitError):
    """A numerical procedure failed or is undefined for the input."""


# -- parameter validation -------------------------------------------------

class NonPositiveParameter(ValidationError):
    pass


class EnergyConservationViolated(ValidationError):
    pass


class ThinCrystalRegime(ValidationError):
    """Crystal too short for the closed-form model (L < 100 (lambda_d + lambda_u))."""


# -- physics-domain restrictions ------------------------------------------

class SeparableState(NumericalError):
    """Pump waist at/below the separability point: visibility carries no
    spatial information and the visibility spread is undefined."""


# -- numerics --------------------------------------------------------------

class _WithParameters(NumericalError):
    """A numerical error that carries parameter values as parameters."""

    def __init__(self, message, parameters=None):
        super().__init__(message)
        self.parameters = parameters


class NotConverged(_WithParameters):
    """An iteration stopped before its tolerance; parameters holds the
    fit engine's last parameter values (None from other solvers)."""


class SingularNormalEquations(_WithParameters):
    """Damping could not make the normal equations solvable; parameters
    holds the fit engine's last parameter values."""


# -- profile / width extraction --------------------------------------------

class NoCrossing(NumericalError):
    """Profile never decays to the requested level on one side."""


class MultiPeak(NumericalError):
    """More than one local maximum above half the profile maximum."""


class RangeNotSpanned(NumericalError):
    """Edge profile does not span both threshold levels."""


class PeaksNotResolved(NumericalError):
    """Two-slit profile lacks two separated maxima."""


class TooFewSamples(ValidationError, ValueError):
    """Profile has fewer samples than a fit of its parameters needs."""


# -- interferogram stacks ---------------------------------------------------

class TooFewPhases(ValidationError):
    pass


class DegeneratePhases(NumericalError):
    """Phase list yields a rank-deficient demodulation system."""


class ImageTooSmall(ValidationError, ValueError):
    """Requested synthetic image has too few rows or columns."""


# -- file formats ------------------------------------------------------------

class SchemaError(ValidationError):
    """Config or manifest file does not match the expected schema."""


class CorruptFrame(ToolkitError):
    """The frames file named by a stack manifest is missing or unreadable."""

    def __init__(self, path, reason=""):
        self.path = str(path)
        msg = f"corrupt or missing frames file: {self.path}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)
