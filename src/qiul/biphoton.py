"""Biphoton joint probability density in the crystal image plane, in the
closed-form Gaussian approximation of the phase matching: per transverse
axis (the Gaussian form is separable in x and y), the quadratic form
exp{-(a_dd x_d^2 + a_uu x_u^2 + 2 a_du x_d x_u)}. The tests check it
against the exact sinc phase matching. a_du vanishes at the singular pump
waist, where the state factorizes and all spatial correlations between
detected and undetected photons are lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SourceParams

__all__ = [
    "QuadraticForm2",
    "gaussian_quadratic_form",
    "joint_density_gaussian",
    "correlation_coefficient",
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

