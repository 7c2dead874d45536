"""Second-order and distance-based summaries, theoretical and empirical.

Closed forms (pair correlation, Ripley's K, the pcf crossover radius) exist
for all three cluster families on the plane; the two DPP kernels enter them
only through the range s^2 of their squared correlation exp(-|y|^2/s^2).
The empirical side provides a translation-corrected K estimator, an
Epanechnikov-kernel pair correlation estimator, and border-corrected F/G/J
estimators; these are the inputs to minimum-contrast fitting and envelope
testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cluster import ModelParams
from .core import (
    InsufficientPointsError,
    ParameterError,
    PointPattern,
    Rect,
    Window,
)

STATISTICS = ("F", "G", "J", "K", "pcf")


@dataclass(frozen=True)
class SummaryCurve:
    """A summary statistic evaluated on a grid of distances."""

    r: np.ndarray
    values: np.ndarray
    statistic: str
    kind: str
    warning: str | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or v.shape != r.shape:
            raise ParameterError("r and values must be 1-D and equal length")
        _check_grid(r)
        if self.statistic not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.statistic!r}")
        if self.kind not in ("theoretical", "empirical"):
            raise ParameterError(f"unknown kind {self.kind!r}")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)


def default_grid(w: Window) -> np.ndarray:
    """513 distances from 0 to a quarter of the shorter window side."""
    return np.linspace(0.0, w.short_side / 4.0, 513)


def pcf_theoretical(m: ModelParams, r):
    """Pair correlation function of the model at distance(s) r.

    The Thomas pcf is 1 plus the cluster term; a DPP family subtracts the
    repulsion term s^2/v * exp(-r^2/v), v = 4 alpha^2 + s^2, with s^2 the
    kernel's ``range_sq``. Vectorized over r.
    """
    r = np.asarray(r, dtype=float)
    a2 = 4.0 * m.alpha ** 2
    out = 1.0 + np.exp(-r * r / a2) / (math.pi * a2 * m.rho_Y)
    if m.family.is_dpp:
        s2 = m.dpp_family().range_sq
        v = a2 + s2
        out = out - s2 / v * np.exp(-r * r / v)
    return float(out) if np.ndim(out) == 0 else out


def K_theoretical(m: ModelParams, r):
    """Ripley's K function of the model at distance(s) r: the integral of
    ``pcf_theoretical`` over the disc of radius r. Vectorized."""
    r = np.asarray(r, dtype=float)
    a2 = 4.0 * m.alpha ** 2
    out = math.pi * r ** 2 - np.expm1(-r * r / a2) / m.rho_Y
    if m.family.is_dpp:
        s2 = m.dpp_family().range_sq
        out = out + math.pi * s2 * np.expm1(-r * r / (a2 + s2))
    return float(out) if np.ndim(out) == 0 else out


def pcf_crossover_radius(m: ModelParams) -> float:
    """The radius r* where the DSNCP pcf crosses 1.

    Below r* the process looks clustered (g > 1), beyond it repulsive
    (g < 1). Thomas processes never cross (g > 1 everywhere).
    """
    if not m.family.is_dpp:
        raise ParameterError(
            "the Thomas pcf exceeds 1 everywhere; no crossover exists")
    a2 = 4.0 * m.alpha ** 2
    s2 = m.dpp_family().range_sq
    v = a2 + s2
    arg = m.rho_Y * 4.0 * math.pi * m.alpha ** 2 * s2 / v
    if not 0.0 < arg < 1.0:
        raise ParameterError(
            f"degenerate parameters: crossover log argument {arg} not in (0,1)")
    r_sq = math.log(arg) / (1.0 / v - 1.0 / a2)
    return math.sqrt(r_sq)


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1:
        raise ParameterError("grid must be 1-D")
    if g.size and (np.any(g < 0) or np.any(np.diff(g) <= 0)):
        raise ParameterError("grid must be nonnegative, strictly increasing")
    return g


def _translation_pairs(p: PointPattern, rmax: float):
    """Distances and translation weights of the point pairs within rmax.

    Each unordered pair stands for its two ordered pairs, which share the
    lag length, so it weighs 2 / gamma_W(h), gamma_W the window's set
    covariance. Pairs with gamma_W(h) = 0 (opposite edges) are dropped.
    """
    # the tree rounds distances its own way: search a hair wider, then
    # keep hypot(h) <= rmax exactly
    ij = cKDTree(p.points).query_pairs(rmax * (1.0 + 1e-9),
                                       output_type="ndarray")
    h = p.points[ij[:, 0]] - p.points[ij[:, 1]]
    d = np.hypot(h[:, 0], h[:, 1])
    cov = p.window.set_covariance(h)
    keep = (d <= rmax) & (cov > 0.0)
    return d[keep], 2.0 / cov[keep]


def K_hat(p: PointPattern, grid) -> SummaryCurve:
    """Translation-corrected empirical K function.

    K_hat(r) = |W|^2/(n(n-1)) * sum over ordered pairs of
    1[dist <= r] / area(W intersect W shifted by the pair difference).
    """
    if p.n < 2:
        raise InsufficientPointsError(f"K_hat needs n >= 2, got n={p.n}")
    grid = _check_grid(grid)
    if grid.size == 0:
        return SummaryCurve(grid, np.zeros(0), "K", "empirical")
    d, wgt = _translation_pairs(p, float(grid[-1]))
    idx = np.searchsorted(grid, d, side="left")
    hist = np.bincount(idx, weights=wgt, minlength=grid.size)
    vals = np.cumsum(hist) * p.window.area ** 2 / (p.n * (p.n - 1))
    return SummaryCurve(grid, vals, "K", "empirical")


def default_pcf_bandwidth(p: PointPattern) -> float:
    return 0.15 / math.sqrt(p.n / p.window.area)


def pcf_hat(p: PointPattern, grid, bandwidth: float | None = None) -> SummaryCurve:
    """Kernel (Epanechnikov) estimate of the pair correlation function,
    translation-corrected. The grid must start above bandwidth/2."""
    if p.n < 2:
        raise InsufficientPointsError(f"pcf_hat needs n >= 2, got n={p.n}")
    grid = _check_grid(grid)
    b = default_pcf_bandwidth(p) if bandwidth is None else float(bandwidth)
    if not b > 0:
        raise ParameterError(f"bandwidth must be > 0, got {b}")
    if grid.size == 0:
        return SummaryCurve(grid, np.zeros(0), "pcf", "empirical")
    if grid[0] <= b / 2.0:
        raise ParameterError(
            f"grid must start above bandwidth/2 = {b / 2}, got {grid[0]}")
    d, wgt = _translation_pairs(p, float(grid[-1]) + b)
    order = np.argsort(d)
    d, wgt = d[order], wgt[order]
    # k_b(r-d) = 0.75/b * (1 - (r-d)^2/b^2), support |r-d| <= b, summed
    # over each grid point's own window of pairs: every term is
    # nonnegative, so no term is larger than the sum it builds
    lo = np.searchsorted(d, grid - b, side="left")
    hi = np.searchsorted(d, grid + b, side="right")
    ksum = 0.75 / b * np.array([
        wgt[i:j] @ (1.0 - ((r - d[i:j]) / b) ** 2)
        for r, i, j in zip(grid, lo, hi)])
    vals = ksum * p.window.area ** 2 / (2 * math.pi * grid * p.n * (p.n - 1))
    return SummaryCurve(grid, vals, "pcf", "empirical")


def _test_lattice(w: Window) -> np.ndarray:
    """Regular lattice of test points covering the window (cell centres)."""
    h = w.short_side / 128.0
    rect = w if isinstance(w, Rect) else w.bounding_rect
    nx = max(1, int(math.floor((rect.xmax - rect.xmin) / h)))
    ny = max(1, int(math.floor((rect.ymax - rect.ymin) / h)))
    xs = rect.xmin + (np.arange(nx) + 0.5) * h
    ys = rect.ymin + (np.arange(ny) + 0.5) * h
    lattice = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys)])
    if not isinstance(w, Rect):
        lattice = lattice[w.contains(lattice)]
    return lattice


def _border_corrected_fraction(dist: np.ndarray, bdist: np.ndarray,
                               grid: np.ndarray) -> np.ndarray:
    """For each r: among reference points with boundary distance >= r, the
    fraction whose measured distance is <= r (NaN when none qualify).

    A point counts at r_k exactly when d_idx <= k <= b_idx, one interval of
    grid indices, so a difference array (+1 at d_idx, -1 at b_idx + 1) and
    one cumulative sum give every numerator: O(len + grid) in all.
    """
    g = grid.size
    b_idx = np.searchsorted(grid, bdist, side="right") - 1  # bdist >= r_k iff k <= b_idx
    d_idx = np.searchsorted(grid, dist, side="left")        # dist <= r_k iff k >= d_idx
    eligible = np.cumsum(np.bincount(b_idx[b_idx >= 0], minlength=g)[::-1])[::-1]
    hit = d_idx <= b_idx
    num = np.cumsum(np.bincount(d_idx[hit], minlength=g + 1)
                    - np.bincount(b_idx[hit] + 1, minlength=g + 1))[:g]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(eligible > 0, num / eligible, np.nan)


def F_hat(p: PointPattern, grid) -> SummaryCurve:
    """Border-corrected empty-space function over a 128-per-side lattice."""
    grid = _check_grid(grid)
    lattice = _test_lattice(p.window)
    if p.n:
        dist, _ = cKDTree(p.points).query(lattice)
    else:
        dist = np.full(lattice.shape[0], np.inf)
    bdist = p.window.boundary_distance(lattice)
    vals = _border_corrected_fraction(dist, bdist, grid)
    return SummaryCurve(grid, vals, "F", "empirical")


def G_hat(p: PointPattern, grid) -> SummaryCurve:
    """Border-corrected nearest-neighbour distance distribution."""
    if p.n < 2:
        raise InsufficientPointsError(f"G_hat needs n >= 2, got n={p.n}")
    grid = _check_grid(grid)
    dist, _ = cKDTree(p.points).query(p.points, k=2)
    bdist = p.window.boundary_distance(p.points)
    vals = _border_corrected_fraction(dist[:, 1], bdist, grid)
    return SummaryCurve(grid, vals, "G", "empirical")


def j_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """J = (1-G)/(1-F) where F and G are finite and F < 1, NaN elsewhere."""
    ok = np.isfinite(f) & np.isfinite(g) & (f < 1.0)
    out = np.full(f.shape, np.nan)
    out[ok] = (1.0 - g[ok]) / (1.0 - f[ok])
    return out


def J_hat(p: PointPattern, grid) -> SummaryCurve:
    """J = (1-G)/(1-F), kept only where F_hat is defined and < 1."""
    grid = _check_grid(grid)
    vals = j_values(F_hat(p, grid).values, G_hat(p, grid).values)
    valid = np.isfinite(vals)
    warning = None
    if not valid.any():
        warning = "J undefined on the whole grid (F_hat saturates)"
    return SummaryCurve(grid[valid], vals[valid], "J", "empirical",
                        warning=warning)
