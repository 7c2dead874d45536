"""Minimum-contrast parameter estimation from the empirical K function.

The contrast is integral_{r_min}^{r_max} |K_hat(r)^q - K_model(r)^q|^p dr,
minimized over (alpha, beta) for the DPP families, with the centre
intensity pinned to the most repulsive choice rho_Y = 1/(pi beta^2), and
over (alpha, rho_Y) for Thomas. gamma is then recovered from the observed
count: gamma_hat = n / (|W| rho_Y_hat).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cluster import Family, ModelParams
from .dpp import most_repulsive_intensity
from .core import (
    InsufficientPointsError,
    ParameterError,
    PointPattern,
)
from .summaries import K_hat, K_theoretical, SummaryCurve

_PENALTY = 1e12


@dataclass(frozen=True)
class ContrastOptions:
    """Controls for the contrast integral and the parameter search box."""

    r_min: float
    r_max: float
    q: float = 0.25
    p: float = 2.0
    grid_size: int = 513
    alpha_bounds: tuple[float, float] | None = None
    beta_bounds: tuple[float, float] | None = None
    rho_bounds: tuple[float, float] | None = None
    max_iter: int = 600

    def __post_init__(self):
        if not 0.0 <= self.r_min < self.r_max:
            raise ParameterError(
                f"need 0 <= r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if not self.q > 0:
            raise ParameterError(f"q must be > 0, got {self.q}")
        if not self.p >= 1:
            raise ParameterError(f"p must be >= 1, got {self.p}")
        if self.grid_size < 64:
            raise ParameterError(f"grid_size must be >= 64, got {self.grid_size}")
        for name in ("alpha_bounds", "beta_bounds", "rho_bounds"):
            b = getattr(self, name)
            if b is None:
                continue
            if len(b) != 2 or not 0 < b[0] < b[1]:
                raise ParameterError(f"{name} must satisfy 0 < lo < hi, got {b}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")

    @classmethod
    def for_window(cls, w, **overrides) -> "ContrastOptions":
        """Defaults tied to the window: fit over [0, shorter side / 4]."""
        overrides.setdefault("r_min", 0.0)
        overrides.setdefault("r_max", w.short_side / 4.0)
        return cls(**overrides)

    def grid(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.grid_size)

    def resolved_alpha_bounds(self) -> tuple[float, float]:
        return self.alpha_bounds or (self.r_max / 1000.0, self.r_max)

    def resolved_beta_bounds(self) -> tuple[float, float]:
        return self.beta_bounds or (self.r_max / 1000.0, 4.0 * self.r_max)

    def resolved_rho_bounds(self, p: PointPattern) -> tuple[float, float]:
        area = p.window.area
        return self.rho_bounds or (1.0 / area, 10.0 * p.n / area)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k in ("alpha_bounds", "beta_bounds", "rho_bounds"):
            if d[k] is not None:
                d[k] = list(d[k])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ContrastOptions":
        d = dict(d)
        for k in ("alpha_bounds", "beta_bounds", "rho_bounds"):
            if d.get(k) is not None:
                d[k] = tuple(d[k])
        return cls(**d)


@dataclass(frozen=True)
class FitResult:
    family: Family
    alpha: float
    beta: float | None
    rho_Y: float
    gamma: float
    objective: float
    converged: bool
    options: ContrastOptions

    def model(self) -> ModelParams:
        return ModelParams(family=self.family, gamma=self.gamma,
                           alpha=self.alpha, rho_Y=self.rho_Y, beta=self.beta)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "alpha": self.alpha,
            "beta": self.beta,
            "rhoY": self.rho_Y,
            "gamma": self.gamma,
            "objective": self.objective,
            "converged": self.converged,
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        return cls(family=Family(d["family"]), alpha=d["alpha"],
                   beta=d["beta"], rho_Y=d["rhoY"], gamma=d["gamma"],
                   objective=d["objective"], converged=d["converged"],
                   options=ContrastOptions.from_dict(d["options"]))


def estimate_gamma(p: PointPattern, rho_Y: float) -> float:
    """Offspring mean per cluster implied by the observed count."""
    if p.n < 1:
        raise InsufficientPointsError("gamma needs at least one point")
    if not rho_Y > 0:
        raise ParameterError(f"rho_Y must be > 0, got {rho_Y}")
    return p.n / (p.window.area * rho_Y)


def _model_from(family: Family, alpha: float, second: float) -> ModelParams:
    if family is Family.THOMAS:
        return ModelParams(family=family, gamma=1.0, alpha=alpha, rho_Y=second)
    return ModelParams.most_repulsive(family=family, gamma=1.0, alpha=alpha,
                                      beta=second)


def _on_grid(k_hat: SummaryCurve, grid: np.ndarray) -> np.ndarray:
    """The curve's values on ``grid``, interpolated when the grids differ."""
    if k_hat.r.size == grid.size and np.array_equal(k_hat.r, grid):
        return k_hat.values
    if k_hat.r.size < 2 or k_hat.r[0] > grid[0] or k_hat.r[-1] < grid[-1]:
        raise ParameterError("empirical curve does not cover the contrast range")
    return np.interp(grid, k_hat.r, k_hat.values)


def _contrast(emp_q: np.ndarray, m: ModelParams, opts: ContrastOptions,
              grid: np.ndarray) -> float:
    """Trapezoid integral of |emp_q - K_model^q|^p over ``grid``."""
    theo = K_theoretical(m, grid)
    f = np.abs(emp_q - theo ** opts.q) ** opts.p
    return float((np.diff(grid) * (f[1:] + f[:-1]) / 2.0).sum())


def _log_starts(bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    return np.linspace(lo, hi, 5)[1:4]


def min_contrast_fit(p: PointPattern, family: Family | str,
                     options: ContrastOptions | None = None,
                     k_hat: SummaryCurve | None = None) -> FitResult:
    """Fit one family by minimum contrast on the empirical K function.

    Nelder-Mead in log parameter space from a 3 x 3 grid of starts; the
    reported convergence flag reflects the winning run (relative simplex
    diameter below 1e-6). Ties on the objective prefer smaller alpha.
    """
    # imported on first use: only fitting needs it, and loading it with the
    # package would add about 0.15 s to every dsncp process
    from scipy import optimize

    family = Family(family)
    if p.n < 2:
        raise InsufficientPointsError(f"fitting needs n >= 2, got n={p.n}")
    opts = options or ContrastOptions.for_window(p.window)
    grid = opts.grid()
    if k_hat is None:
        k_hat = K_hat(p, grid)
    emp_q = _on_grid(k_hat, grid) ** opts.q

    a_bounds = opts.resolved_alpha_bounds()
    if family is Family.THOMAS:
        s_bounds = opts.resolved_rho_bounds(p)
    else:
        s_bounds = opts.resolved_beta_bounds()
    log_lo = np.log([a_bounds[0], s_bounds[0]])
    log_hi = np.log([a_bounds[1], s_bounds[1]])

    def objective(theta):
        excess = np.maximum(0.0, log_lo - theta) + np.maximum(0.0, theta - log_hi)
        if excess.any():
            return _PENALTY * (1.0 + float(excess.sum()))
        alpha, second = np.exp(theta)
        return _contrast(emp_q, _model_from(family, alpha, second), opts, grid)

    runs = []
    for a0 in _log_starts(a_bounds):
        for s0 in _log_starts(s_bounds):
            res = optimize.minimize(
                objective, np.array([a0, s0]), method="Nelder-Mead",
                options={"xatol": 1e-6, "fatol": 1e-12,
                         "maxiter": opts.max_iter, "maxfev": 2 * opts.max_iter})
            runs.append(res)
    best = min(runs, key=lambda r: (r.fun, float(np.exp(r.x[0]))))
    alpha, second = (float(v) for v in np.exp(best.x))
    if family is Family.THOMAS:
        beta, rho_Y = None, second
    else:
        # most_repulsive_intensity, not a bare 1/(pi beta^2): the latter can
        # round one ulp above the existence bound and the result would then
        # fail validation when turned back into a model
        beta, rho_Y = second, most_repulsive_intensity(second)
    return FitResult(family=family, alpha=alpha, beta=beta, rho_Y=rho_Y,
                     gamma=estimate_gamma(p, rho_Y), objective=float(best.fun),
                     converged=bool(best.success), options=opts)
