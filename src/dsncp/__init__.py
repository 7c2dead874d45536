"""Determinantal shot noise Cox processes.

Cluster point processes whose cluster centres form a determinantal point
process (Gaussian or Ginibre kernel) or a Poisson process (Thomas), with
Gaussian dispersal around the centres. The package covers exact simulation,
closed-form and empirical summary statistics, minimum-contrast fitting, and
global envelope goodness-of-fit tests, plus a command line front end.
"""

from .cluster import Extension, Family, ModelParams, sample_model
from .core import (
    Disc,
    ExistenceError,
    InsufficientPointsError,
    ParameterError,
    PointPattern,
    Rect,
    RejectionBoundError,
    RngStream,
    UnsupportedWindowError,
    Window,
    shift_intersection_area,
)
from .dpp import (
    GaussianDpp,
    GinibreDpp,
    gaussian_dpp_spectrum,
    ginibre_spectrum,
    max_admissible_beta,
    most_repulsive_intensity,
    nth_order_intensity,
    sample_dpp,
    validate_dpp_params,
)
from .summaries import (
    F_hat,
    G_hat,
    J_hat,
    K_hat,
    K_theoretical,
    SummaryCurve,
    default_grid,
    pcf_crossover_radius,
    pcf_hat,
    pcf_theoretical,
)

__version__ = "0.1.0"

__all__ = [
    "Disc",
    "ExistenceError",
    "Extension",
    "F_hat",
    "Family",
    "G_hat",
    "GaussianDpp",
    "GinibreDpp",
    "InsufficientPointsError",
    "J_hat",
    "K_hat",
    "K_theoretical",
    "ModelParams",
    "ParameterError",
    "PointPattern",
    "Rect",
    "RejectionBoundError",
    "RngStream",
    "SummaryCurve",
    "UnsupportedWindowError",
    "Window",
    "default_grid",
    "gaussian_dpp_spectrum",
    "ginibre_spectrum",
    "max_admissible_beta",
    "most_repulsive_intensity",
    "nth_order_intensity",
    "pcf_crossover_radius",
    "pcf_hat",
    "pcf_theoretical",
    "sample_dpp",
    "sample_model",
    "shift_intersection_area",
    "validate_dpp_params",
    "__version__",
]
