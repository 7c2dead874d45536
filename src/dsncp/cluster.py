"""Simulation of Thomas and DPP-Thomas cluster processes.

All three models scatter Poisson(gamma)-sized clusters of isotropic Gaussian
offspring (sd alpha) around unobserved centres of intensity rho_Y; they
differ in the centre process: homogeneous Poisson (Thomas) or a determinantal
process with Gaussian or Ginibre kernel. Centres are sampled on a window
extended by a margin so that clusters centred just outside the window still
contribute their points inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    Disc,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    Window,
    check_positive,
)
from .dpp import (
    DppSpectrum,
    GaussianDpp,
    GinibreDpp,
    GinibreParams,
    gaussian_dpp_spectrum,
    ginibre_spectrum,
    most_repulsive_intensity,
    sample_dpp,
    validate_dpp_params,
)


class Family(str, Enum):
    THOMAS = "thomas"
    GAUSSIAN = "gaussian-dpp-thomas"
    GINIBRE = "ginibre-dpp-thomas"

    @property
    def is_dpp(self) -> bool:
        return self is not Family.THOMAS


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one cluster model.

    gamma: mean offspring per cluster; alpha: offspring standard deviation;
    rho_Y: centre intensity; beta: DPP kernel scale (None for Thomas).
    """

    family: Family
    gamma: float
    alpha: float
    rho_Y: float
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        for name in ("gamma", "alpha", "rho_Y"):
            check_positive(name, getattr(self, name))
        if self.family.is_dpp:
            if self.beta is None:
                raise ParameterError(f"{self.family.value} requires beta")
            validate_dpp_params(self.dpp_family())
        elif self.beta is not None:
            raise ParameterError("beta is not a Thomas parameter")

    @classmethod
    def most_repulsive(cls, family: Family | str, gamma: float, alpha: float,
                       beta: float) -> "ModelParams":
        """Construct with rho_Y = 1/(pi beta^2), saturating the existence
        bound. For the Thomas family beta only sets rho_Y and is not stored.
        """
        family = Family(family)
        rho = most_repulsive_intensity(beta)
        return cls(family, gamma, alpha, rho,
                   beta=beta if family.is_dpp else None)

    def dpp_family(self) -> GaussianDpp | GinibreDpp:
        if self.family is Family.GAUSSIAN:
            return GaussianDpp(self.rho_Y, self.beta)
        if self.family is Family.GINIBRE:
            return GinibreDpp(self.rho_Y, self.beta)
        raise ParameterError("Thomas model has no DPP kernel")

    @property
    def rho_X(self) -> float:
        return self.gamma * self.rho_Y


@dataclass(frozen=True)
class Extension:
    """Margin added on all sides of the window before sampling centres."""

    margin: float

    def __post_init__(self):
        if not 0.0 <= self.margin < math.inf:
            raise ParameterError(
                f"margin must be finite and >= 0, got {self.margin}")


def default_extension(m: ModelParams) -> Extension:
    """Four offspring standard deviations: clusters centred further out
    contribute negligibly."""
    return Extension(4.0 * m.alpha)


@lru_cache(maxsize=64)
def centre_spectrum(m: ModelParams, w: Window, ext: Extension) -> DppSpectrum:
    """The spectrum DPP centres are drawn from, built once per model.

    Its domain covers the extended window: the extended rectangle (or an
    extended disc's bounding rectangle) for the Gaussian kernel; for
    Ginibre, whose spectrum lives on a disc, the origin-centred disc of the
    extended window's circumradius.
    """
    w_ext = w.grow(ext.margin)
    if m.family is Family.GAUSSIAN:
        rect = w_ext if isinstance(w_ext, Rect) else w_ext.bounding_rect
        return gaussian_dpp_spectrum(m.dpp_family(), rect)
    if m.family is Family.GINIBRE:
        return ginibre_spectrum(GinibreParams.from_family(m.dpp_family()),
                                w_ext.circumradius)
    raise ParameterError(
        "the Thomas centre process has no spectral decomposition")


def sample_centres(m: ModelParams, w: Window, ext: Extension,
                   rng: RngStream) -> PointPattern:
    """Draw the (unobserved) centre process on the extended window.

    Thomas centres are homogeneous Poisson. DPP centres are sampled from
    ``centre_spectrum`` on its covering domain and then restricted.
    """
    w_ext = w.grow(ext.margin)
    gen = rng.generator
    if m.family is Family.THOMAS:
        n = gen.poisson(m.rho_Y * w_ext.area)
        return PointPattern(w_ext.sample_uniform(int(n), gen), w_ext)
    pat = sample_dpp(centre_spectrum(m, w, ext), rng)
    if m.family is Family.GAUSSIAN:
        return pat.restrict(w_ext)
    cx, cy = w_ext.center
    # the kernel is motion-invariant, so sampling on a centred disc and
    # shifting is the same as sampling around the window centre
    return PointPattern(pat.points + np.array([cx, cy]),
                        Disc(cx, cy, w_ext.circumradius)).restrict(w_ext)


# The largest expected centre count rho_Y |W_ext| and point count
# rho_X |W_ext| that sample_model draws, W_ext the extended window. A draw
# at the point limit holds a few arrays of 1e7 coordinate pairs (160 MB
# each); the largest models the tests and benchmark draw stay below 1e4.
# The limits are fixed here, not read from the machine, so whether a model
# is refused does not depend on where it runs.
MAX_EXPECTED_CENTRES = 1e7
MAX_EXPECTED_POINTS = 1e7


def _check_size(m: ModelParams, w_ext: Window) -> None:
    """Refuse a model whose expected centre or point count on ``w_ext``
    exceeds its limit, naming the quantity, its value and the limit."""
    for name, value, limit in (
            ("centre count rho_Y |W_ext|", m.rho_Y * w_ext.area,
             MAX_EXPECTED_CENTRES),
            ("point count rho_X |W_ext|", m.rho_X * w_ext.area,
             MAX_EXPECTED_POINTS)):
        if not value <= limit:
            raise ParameterError(
                f"expected {name} is {value:.6g}, above the limit {limit:.6g}")


def sample_model(m: ModelParams, w: Window, ext: Extension | None = None,
                 rng: RngStream | None = None) -> PointPattern:
    """Simulate the cluster process on ``w``.

    Centres are drawn on the extended window (default margin 4*alpha),
    cluster sizes in centre order, then all offspring displacements in one
    draw; the union is clipped to ``w``. Deterministic given the stream.
    A model expected to draw more than ``MAX_EXPECTED_CENTRES`` centres or
    ``MAX_EXPECTED_POINTS`` points on the extended window is refused with
    a ParameterError before anything is drawn.
    """
    if ext is None:
        ext = default_extension(m)
    if rng is None:
        raise ParameterError("an RngStream is required")
    _check_size(m, w.grow(ext.margin))
    centres = sample_centres(m, w, ext, rng)
    gen = rng.generator
    sizes = gen.poisson(m.gamma, centres.n) if centres.n else np.zeros(0, int)
    total = int(sizes.sum())
    offsets = gen.normal(0.0, m.alpha, (total, 2))
    pts = np.repeat(centres.points, sizes, axis=0) + offsets
    keep = w.contains(pts) if total else np.zeros(0, dtype=bool)
    return PointPattern(pts[keep], w)
