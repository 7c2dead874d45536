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
from numbers import Real

import numpy as np

from .cluster import Family, ModelParams
from .dpp import most_repulsive_intensity
from .core import (
    InsufficientPointsError,
    ParameterError,
    PointPattern,
)
from .summaries import DEFAULT_GRID_SIZE, K_hat, _K_closed_form, default_grid

_PENALTY = 1e12


@dataclass(frozen=True)
class ContrastOptions:
    """Controls for the contrast integral and the optimizer: the six
    values ``dsncp fit`` sets by flag."""

    r_min: float
    r_max: float
    q: float = 0.25
    p: float = 2.0
    grid_size: int = DEFAULT_GRID_SIZE
    max_iter: int = 600

    def __post_init__(self):
        if not 0.0 <= self.r_min < self.r_max < math.inf:
            raise ParameterError("need finite 0 <= r_min < r_max, got "
                                 f"[{self.r_min}, {self.r_max}]")
        if not 0 < self.q < math.inf:
            raise ParameterError(f"q must be finite and > 0, got {self.q}")
        if not 1 <= self.p < math.inf:
            raise ParameterError(f"p must be finite and >= 1, got {self.p}")
        if self.grid_size < 64:
            raise ParameterError(f"grid_size must be >= 64, got {self.grid_size}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")

    @classmethod
    def for_window(cls, w, **overrides) -> "ContrastOptions":
        """Defaults tied to the window: fit over ``default_grid(w)``."""
        grid = default_grid(w)
        return cls(**{"r_min": float(grid[0]), "r_max": float(grid[-1]),
                      **overrides})

    def grid(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.grid_size)


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
            "options": dataclasses.asdict(self.options),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        """The fit ``to_dict`` wrote. A field of the wrong type raises
        ParameterError; the values are checked when ``model()`` runs."""
        for key in ("alpha", "beta", "rhoY", "gamma", "objective"):
            v = d[key]
            if not (key == "beta" and v is None) and (
                    isinstance(v, bool) or not isinstance(v, Real)):
                raise ParameterError(f"{key} must be a number, got {v!r}")
        if not isinstance(opts := d["options"], dict):
            raise ParameterError(f"options must be an object, got {opts!r}")
        # fit files written while the search box was an option hold it as null
        opts = dict(opts)
        for key in ("alpha_bounds", "beta_bounds", "rho_bounds"):
            if (v := opts.pop(key, None)) is not None:
                raise ParameterError(f"options.{key} is no longer an option, "
                                     f"got {v!r}")
        return cls(family=Family(d["family"]), alpha=d["alpha"],
                   beta=d["beta"], rho_Y=d["rhoY"], gamma=d["gamma"],
                   objective=d["objective"], converged=d["converged"],
                   options=ContrastOptions(**opts))


def estimate_gamma(p: PointPattern, rho_Y: float) -> float:
    """Offspring mean per cluster implied by the observed count."""
    if p.n < 1:
        raise InsufficientPointsError("gamma needs at least one point")
    if not rho_Y > 0:
        raise ParameterError(f"rho_Y must be > 0, got {rho_Y}")
    return p.n / (p.window.area * rho_Y)


def _contrast(emp_q: np.ndarray, theo: np.ndarray, opts: ContrastOptions,
              grid: np.ndarray) -> float:
    """Trapezoid integral of |emp_q - theo^q|^p over ``grid``, theo the
    model's K there."""
    f = np.abs(emp_q - theo ** opts.q) ** opts.p
    return float((np.diff(grid) * (f[1:] + f[:-1]) / 2.0).sum())


def _log_starts(bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    return np.linspace(lo, hi, 5)[1:4]


def min_contrast_fit(p: PointPattern, family: Family | str,
                     options: ContrastOptions | None = None) -> FitResult:
    """Fit one family by minimum contrast on the empirical K function.

    Nelder-Mead in log parameter space from a 3 x 3 grid of starts, the
    interior points of a log-spaced 5 x 5 grid over the search box: alpha in
    [r_max/1000, r_max], and beta in [r_max/1000, 4 r_max] or, for Thomas,
    rho_Y in [1/|W|, 10 n/|W|]. The reported convergence flag reflects the
    winning run (relative simplex diameter below 1e-6). Ties on the
    objective prefer smaller alpha.
    """
    # imported on first use: only fitting needs it, and loading it with the
    # package would add about 0.15 s to every dsncp process
    from scipy import optimize

    family = Family(family)
    if p.n < 2:
        raise InsufficientPointsError(f"fitting needs n >= 2, got n={p.n}")
    opts = options or ContrastOptions.for_window(p.window)
    grid = opts.grid()
    emp_q = K_hat(p, grid).values ** opts.q

    a_bounds = (opts.r_max / 1000.0, opts.r_max)
    # the one rule from the second parameter to its box and (beta, rho_Y, s^2)
    kernel = family.kernel
    if kernel is None:  # it is rho_Y
        area = p.window.area
        s_bounds = (1.0 / area, 10.0 * p.n / area)

        def params(second):
            return None, second, None
    else:  # it is beta, of the most repulsive model
        s_bounds = (opts.r_max / 1000.0, 4.0 * opts.r_max)

        def params(second):
            return (second, most_repulsive_intensity(second),
                    kernel.range_sq_at(second))
    log_lo = np.log([a_bounds[0], s_bounds[0]])
    log_hi = np.log([a_bounds[1], s_bounds[1]])

    def objective(theta):
        excess = np.maximum(0.0, log_lo - theta) + np.maximum(0.0, theta - log_hi)
        if excess.any():
            return _PENALTY * (1.0 + float(excess.sum()))
        alpha, second = np.exp(theta)
        theo = _K_closed_form(grid, alpha, *params(second)[1:])
        return _contrast(emp_q, theo, opts, grid)

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
    beta, rho_Y, _ = params(second)
    return FitResult(family=family, alpha=alpha, beta=beta, rho_Y=rho_Y,
                     gamma=estimate_gamma(p, rho_Y), objective=float(best.fun),
                     converged=bool(best.success), options=opts)
