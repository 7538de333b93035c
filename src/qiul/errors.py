"""Exception hierarchy.

Grouped by how the CLI maps them to exit codes: validation problems
(bad parameters, bad files, schema violations) exit with 2, numerical
failures (non-convergence, degenerate extraction) with 3, I/O with 4.
"""


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

class GridTooCoarse(NumericalError):
    pass


class QuadratureNotConverged(NumericalError):
    pass


class NotConverged(NumericalError):
    """An iteration stopped before its tolerance; parameters holds the
    fit engine's last parameter values (None from other solvers)."""

    def __init__(self, message, parameters=None):
        super().__init__(message)
        self.parameters = parameters


class SingularNormalEquations(NumericalError):
    pass


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
    """A frame file referenced by a stack manifest is missing or unreadable."""

    def __init__(self, path, reason=""):
        self.path = str(path)
        msg = f"corrupt or missing frame file: {self.path}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)
