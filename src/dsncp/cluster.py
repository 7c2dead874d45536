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
)


class Family(str, Enum):
    THOMAS = "thomas"
    GAUSSIAN = "gaussian-dpp-thomas"
    GINIBRE = "ginibre-dpp-thomas"

    @classmethod
    def _missing_(cls, value):
        # Family(value) raises this in place of Enum's bare ValueError
        raise ParameterError(f"unknown family {value!r}; choose one of "
                             f"{[f.value for f in cls]}")

    @property
    def is_dpp(self) -> bool:
        return self is not Family.THOMAS

    @property
    def kernel(self) -> type[GaussianDpp] | type[GinibreDpp] | None:
        """The centres' DPP kernel class; None for Thomas."""
        if self is Family.GAUSSIAN:
            return GaussianDpp
        return GinibreDpp if self is Family.GINIBRE else None


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one cluster model.

    gamma: mean offspring per cluster; alpha: offspring standard deviation;
    rho_Y: centre intensity; beta: DPP kernel scale (None for Thomas).
    A DPP model builds its kernel once, here, so a (rho_Y, beta) pair that
    defines no DPP raises ExistenceError on construction.
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
        kernel = None
        if self.family.is_dpp:
            if self.beta is None:
                raise ParameterError(f"{self.family.value} requires beta")
            kernel = self.family.kernel(self.rho_Y, self.beta)
        elif self.beta is not None:
            raise ParameterError("beta is not a Thomas parameter")
        object.__setattr__(self, "_kernel", kernel)

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
        if self._kernel is None:
            raise ParameterError("Thomas model has no DPP kernel")
        return self._kernel

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


def _dpp_domain(m: ModelParams, w_ext: Window) -> Window:
    """The compact domain a DPP model's centres are drawn on, covering the
    centre window ``w_ext``: the rectangle, or a disc's bounding rectangle,
    for the Gaussian kernel; the origin-centred disc of ``w_ext``'s
    circumradius for Ginibre, whose spectrum lives on a disc."""
    if m.family is Family.GAUSSIAN:
        return w_ext if isinstance(w_ext, Rect) else w_ext.bounding_rect
    if m.family is Family.GINIBRE:
        return Disc(0.0, 0.0, w_ext.circumradius)
    raise ParameterError(
        "the Thomas centre process has no spectral decomposition")


@lru_cache(maxsize=64)
def centre_spectrum(m: ModelParams, w_ext: Window) -> DppSpectrum:
    """The spectrum DPP centres are drawn from, built once per model and
    centre window ``w_ext`` (from ``centre_window``) on ``_dpp_domain``."""
    domain = _dpp_domain(m, w_ext)
    if m.family is Family.GAUSSIAN:
        return gaussian_dpp_spectrum(m.dpp_family(), domain)
    return ginibre_spectrum(GinibreParams.from_family(m.dpp_family()),
                            domain.radius)


def sample_centres(m: ModelParams, w_ext: Window,
                   rng: RngStream) -> PointPattern:
    """Draw the (unobserved) centre process on the centre window ``w_ext``:
    homogeneous Poisson for Thomas; for a DPP, a draw from
    ``centre_spectrum`` on its covering domain, restricted to ``w_ext``."""
    gen = rng.generator
    if m.family is Family.THOMAS:
        n = gen.poisson(m.rho_Y * w_ext.area)
        return PointPattern(w_ext.sample_uniform(int(n), gen), w_ext)
    pts = sample_dpp(centre_spectrum(m, w_ext), rng).points
    if m.family is Family.GINIBRE:
        # the kernel is motion-invariant, so sampling on a centred disc and
        # shifting is the same as sampling around the window centre
        pts = pts + np.array(w_ext.center)
    return PointPattern(pts[w_ext.contains(pts)], w_ext)


# The largest expected centre count rho_Y |W_ext| and point count
# rho_X |W_ext| that sample_model draws, W_ext the extended window. A draw
# at the point limit holds a few arrays of 1e7 coordinate pairs (160 MB
# each); the largest models the tests and benchmark draw stay below 1e4.
# The limits are fixed here, not read from the machine, so whether a model
# is refused does not depend on where it runs.
MAX_EXPECTED_CENTRES = 1e7
MAX_EXPECTED_POINTS = 1e7
# The largest expected rank E k = rho_Y |D| of a DPP centre draw, D its
# domain (``_dpp_domain``). The sampler holds a k x k frame and a pool of
# n = min(k, 4096) proposals, each with its row and coefficients:
# b (k^2 + 2 n k) bytes, with b = 8 for the Gaussian kernel's real rows and
# b = 16 for Ginibre's complex ones. It deflates only when the pool runs
# out, so it drops the rows and coefficients first, and the complement of
# the frame's j rows (``dpp._complement``) then holds the frame, a k x j
# copy of those rows as Householder reflectors, and the k - j complement
# rows with one product or copy of them: b (k^2 + k j + 2 k (k - j)) bytes,
# j about (1 - exp(-n/k)) k at the first deflation; later spaces are
# smaller. The arrays peak at about 3.4 times the frame up to k = 4096 (the
# pool), and at this limit at about 2.6 GiB for Ginibre and 1.3 GiB for the
# Gaussian kernel (the deflation). A draw costs about k^3 log k, or k^3
# once it deflates; the tests draw k up to 600.
MAX_EXPECTED_RANK = 8192


def centre_window(m: ModelParams, w: Window,
                  ext: Extension | None = None) -> Window:
    """``w`` grown by ``ext`` (default ``default_extension(m)``), the window
    centres are drawn on. A model expected to draw more centres or points
    on it, or a DPP of higher rank on its domain, than the limit is refused
    with a ParameterError naming the quantity, its value and the limit."""
    w_ext = w.grow((default_extension(m) if ext is None else ext).margin)
    rank = m.rho_Y * _dpp_domain(m, w_ext).area if m.family.is_dpp else 0.0
    for name, value, limit in (
            ("centre count rho_Y |W_ext|", m.rho_Y * w_ext.area,
             MAX_EXPECTED_CENTRES),
            ("point count rho_X |W_ext|", m.rho_X * w_ext.area,
             MAX_EXPECTED_POINTS),
            ("DPP rank rho_Y |D| on its domain D", rank, MAX_EXPECTED_RANK)):
        if not value <= limit:
            raise ParameterError(
                f"expected {name} is {value:.6g}, above the limit {limit:.6g}")
    return w_ext


def sample_model(m: ModelParams, w: Window, ext: Extension | None = None,
                 rng: RngStream | None = None) -> PointPattern:
    """Simulate the cluster process on ``w``.

    Centres are drawn on the extended window (default margin 4*alpha),
    cluster sizes in centre order, then all offspring displacements in one
    draw; the union is clipped to ``w``. Deterministic given the stream. A
    model too large to draw (``centre_window``) is refused before any draw.
    """
    if rng is None:
        raise ParameterError("an RngStream is required")
    centres = sample_centres(m, centre_window(m, w, ext), rng)
    gen = rng.generator
    sizes = gen.poisson(m.gamma, centres.n)
    offsets = gen.normal(0.0, m.alpha, (int(sizes.sum()), 2))
    pts = np.repeat(centres.points, sizes, axis=0) + offsets
    return PointPattern(pts[w.contains(pts)], w)
