"""Toolkit for near-field quantum imaging with undetected light (QIUL).

Simulates and analyses a nonlinear-interferometer imaging scheme that
exploits position correlations of photon pairs from spontaneous
parametric down-conversion: closed-form point/edge spread functions for
amplitude and visibility images, digital phase-shifting holography
synthesis and demodulation, resolution-spread extraction, and
nonlinear-fit magnification estimation.
"""

from .core import OpticalSetup, SourceParams, singular_waist, validate_params
from .biphoton import (
    QuadraticForm2,
    correlation_coefficient,
    gaussian_quadratic_form,
    joint_density_gaussian,
)
from .imaging import (
    Profile1D,
    g_esf,
    g_psf,
    v_esf,
    v_psf,
)
from .spreads import (
    SpreadResult,
    half_width_1e,
    knife_edge_width_2476,
    lsf_from_esf,
    min_resolvable_distance,
    spread_g_esf_numeric,
    spread_g_psf_closed,
    spread_ratio,
    spread_v_closed,
)
from .dpsh import (
    DemodulationResult,
    InterferogramStack,
    NoiseModel,
    SceneModel,
    demodulate,
    select_max_row,
    synthesize_stack,
)
from .fitting import (
    FitResult,
    MagnificationEstimate,
    MagnificationMeasurement,
    fit_double_slit,
    fit_edge_profiles,
    least_squares_fit,
)

__version__ = "0.1.0"
