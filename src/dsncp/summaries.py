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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or v.shape != r.shape:
            raise ParameterError("r and values must be 1-D and equal length")
        _check_grid(r)
        if self.statistic not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.statistic!r}")
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


def _grid_index(grid: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(grid, x, side)`` for a sorted ``grid`` and ``x``
    without NaN, at a fraction of its cost on a uniform grid (``linspace``,
    as every grid the pipeline builds is).

    The candidate index is arithmetic: ceil((x - g0) / step) for ``left``,
    floor(...) + 1 for ``right``, clipped to [0, g] before the integer cast
    (so inf maps to g). It is then checked against the grid's own values,
    and a candidate that is off moves one place toward the right index.
    On a uniform grid rounding leaves few candidates off, each by one; a
    value still unresolved after the move (on a grid far from uniform)
    takes ``searchsorted``. So the result is exact on every sorted grid.
    """
    g = grid.size
    step = (grid[-1] - grid[0]) / (g - 1) if g > 1 else 0.0
    if not 0.0 < step < math.inf:
        return np.searchsorted(grid, x, side=side)
    t = (x - grid[0]) / step
    cand = np.ceil(t) if side == "left" else np.floor(t) + 1.0
    i = np.clip(cand, 0, g, out=cand).astype(np.intp)
    # i is right iff below[i] < x <= above[i] (left side; <= and < for
    # right); the NaN ends never compare true, so 0 and g never move out
    below = np.concatenate(([np.nan], grid))
    above = np.concatenate((grid, [np.nan]))
    high, low = ((np.greater_equal, np.less) if side == "left"
                 else (np.greater, np.less_equal))
    up = low(above[i], x)
    moved = np.flatnonzero(up | high(below[i], x))
    if moved.size:
        j = i[moved] + np.where(up[moved], 1, -1)
        xm = x[moved]
        off = high(below[j], xm) | low(above[j], xm)
        j[off] = np.searchsorted(grid, xm[off], side=side)
        i[moved] = j
    return i


def _translation_pairs(p: PointPattern, rmax: float):
    """Distances and translation weights of the point pairs within rmax.

    Each unordered pair stands for its two ordered pairs, which share the
    lag length, so it weighs 2 / gamma_W(h), gamma_W the window's set
    covariance. Pairs with gamma_W(h) = 0 (opposite edges) are dropped.
    """
    # the tree rounds distances its own way: search a hair wider, then
    # keep hypot(h) <= rmax exactly
    ij = p.tree.query_pairs(rmax * (1.0 + 1e-9), output_type="ndarray")
    h = p.points[ij[:, 0]] - p.points[ij[:, 1]]
    d = np.hypot(h[:, 0], h[:, 1])
    cov = p.window.set_covariance(h)
    keep = (d <= rmax) & (cov > 0.0)
    return d[keep], 2.0 / cov[keep]


def K_hat(p: PointPattern, grid) -> SummaryCurve:
    """Translation-corrected empirical K function.

    K_hat(r) = |W|^2/(n(n-1)) * sum over ordered pairs of
    1[dist <= r] / area(W intersect W shifted by the pair difference).

    The pattern keeps its last curve, keyed by the grid's float64 bytes, as
    it keeps its k-d tree ``p.tree``: a second call on the same pattern and
    grid returns that (read-only) curve, so every fit of one pattern shares
    one pair search, and any other grid recomputes and replaces it.
    """
    if p.n < 2:
        raise InsufficientPointsError(f"K_hat needs n >= 2, got n={p.n}")
    grid = _check_grid(grid)
    key = grid.tobytes()
    last = vars(p).get("_K_hat")
    if last is not None and last[0] == key:
        return last[1]
    if grid.size == 0:
        return SummaryCurve(grid, np.zeros(0), "K")
    d, wgt = _translation_pairs(p, float(grid[-1]))
    idx = _grid_index(grid, d, "left")
    hist = np.bincount(idx, weights=wgt, minlength=grid.size)
    vals = np.cumsum(hist) * p.window.area ** 2 / (p.n * (p.n - 1))
    curve = SummaryCurve(grid, vals, "K")
    vars(p)["_K_hat"] = (key, curve)
    return curve


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
        return SummaryCurve(grid, np.zeros(0), "pcf")
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
    return SummaryCurve(grid, vals, "pcf")


class _Lattice(NamedTuple):
    """F's test lattice: the centres of square cells of side ``h`` tiling the
    window's bounding rectangle from its lower left corner, kept where they
    lie in the window. ``points`` are the kept centres, ``flat`` their
    indices ``iy * xs.size + ix`` on the grid of cells and ``bdist`` their
    boundary distances."""

    h: float
    xs: np.ndarray
    ys: np.ndarray
    points: np.ndarray
    flat: np.ndarray
    bdist: np.ndarray


@lru_cache(maxsize=16)
def _lattice(w: Window) -> _Lattice:
    """The test lattice of ``w``, 128 cells along its short side (or
    diameter); every array is read-only."""
    h = w.short_side / 128.0
    rect = w if isinstance(w, Rect) else w.bounding_rect
    nx = max(1, int(math.floor((rect.xmax - rect.xmin) / h)))
    ny = max(1, int(math.floor((rect.ymax - rect.ymin) / h)))
    xs = rect.xmin + (np.arange(nx) + 0.5) * h
    ys = rect.ymin + (np.arange(ny) + 0.5) * h
    points = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys)])
    flat = np.flatnonzero(w.contains(points))
    points = points[flat]
    bdist = w.boundary_distance(points)
    for a in (xs, ys, points, flat, bdist):
        a.setflags(write=False)
    return _Lattice(h, xs, ys, points, flat, bdist)


# stencil entries formed at once, in multiples of the lattice's grid size
_SCATTER_BLOCK = 16


def _lattice_distances(p: PointPattern, lat: _Lattice) -> np.ndarray:
    """Distance from each lattice point to the nearest point of ``p``, equal
    bit for bit to ``cKDTree(p.points).query(lat.points)[0]``.

    Each data point writes ``dx*dx + dy*dy`` (the tree's own formula) onto
    the lattice points of a square stencil of half-width w cells around
    the lattice point nearest to it, and each lattice point keeps the
    least. The stencil has w = ceil(sqrt(2.3 |W| / (pi n)) / h), so w h
    covers about 90% of a Poisson pattern's empty space, and is clipped to
    the grid per axis. It reaches every lattice point within (w + 1/2) h
    of its data point along both axes, so a least value at most (w h)^2 is
    the exact nearest squared distance. Only the lattice points above it
    are queried, with the pattern's own k-d tree ``p.tree``, which G and K
    share. The scatter is one ``np.minimum.at`` per block of points,
    which is fast from numpy 1.25 on; each entry's cell index is its
    point's first stencil cell plus the stencil's fixed offset.
    """
    n, points = p.n, p.points
    if n == 0:
        return np.full(lat.points.shape[0], np.inf)
    h, xs, ys = lat.h, lat.xs, lat.ys
    nx, ny = xs.size, ys.size
    w = math.ceil(math.sqrt(2.3 * p.window.area / (math.pi * n)) / h)
    wx, wy = min(2 * w + 1, nx), min(2 * w + 1, ny)
    # first stencil column and row of each point: its nearest lattice
    # point's minus w, shifted to keep the stencil on the grid
    cx = np.floor((points[:, 0] - xs[0]) / h + 0.5)
    cy = np.floor((points[:, 1] - ys[0]) / h + 0.5)
    x0 = np.clip(cx - w, 0, nx - wx).astype(np.intp)
    y0 = np.clip(cy - w, 0, ny - wy).astype(np.intp)
    base = y0 * nx + x0
    off = ((np.arange(wy) * nx)[:, None] + np.arange(wx)).ravel()
    best = np.full(nx * ny, np.inf)
    block = max(1, _SCATTER_BLOCK * nx * ny // (wx * wy))
    for s in range(0, n, block):
        sx = x0[s:s + block, None] + np.arange(wx)
        sy = y0[s:s + block, None] + np.arange(wy)
        dx = xs[sx] - points[s:s + block, 0, None]
        dy = ys[sy] - points[s:s + block, 1, None]
        d2 = (dx * dx)[:, None, :] + (dy * dy)[:, :, None]
        cell = base[s:s + block, None] + off
        np.minimum.at(best, cell.ravel(), d2.ravel())
    d2 = best[lat.flat]
    dist = np.sqrt(d2)
    rest = np.flatnonzero(d2 > (w * h) ** 2)
    if rest.size:
        dist[rest] = p.tree.query(lat.points[rest])[0]
    return dist


class _Eligibility(NamedTuple):
    """Which reference points are eligible at which radius: a point with
    boundary distance b is eligible at r_k exactly when k <= ``b_idx``, and
    ``counts[k]`` points are eligible at r_k."""

    b_idx: np.ndarray
    counts: np.ndarray


def _eligibility(bdist: np.ndarray, grid: np.ndarray) -> _Eligibility:
    """The eligibility of reference points with boundary distances
    ``bdist`` on ``grid``."""
    b_idx = _grid_index(grid, bdist, "right") - 1  # bdist >= r_k iff k <= b_idx
    counts = np.cumsum(np.bincount(b_idx[b_idx >= 0],
                                   minlength=grid.size)[::-1])[::-1]
    return _Eligibility(b_idx, counts)


@lru_cache(maxsize=16)
def _lattice_eligibility(w: Window, grid_bytes: bytes) -> _Eligibility:
    """The eligibility of ``w``'s test lattice on the grid whose float64
    bytes are ``grid_bytes``: it depends on the window and the grid only,
    so every F curve on them shares it. Both arrays are read-only."""
    elig = _eligibility(_lattice(w).bdist, np.frombuffer(grid_bytes))
    for a in elig:
        a.setflags(write=False)
    return elig


def _border_corrected_fraction(dist: np.ndarray, elig: _Eligibility,
                               grid: np.ndarray) -> np.ndarray:
    """For each r: among reference points eligible at r (boundary distance
    >= r), the fraction whose measured distance is <= r (NaN when none
    qualify).

    A point counts at r_k exactly when d_idx <= k <= b_idx, one interval of
    grid indices, so a difference array (+1 at d_idx, -1 at b_idx + 1) and
    one cumulative sum give every numerator: O(len + grid) in all.
    """
    g = grid.size
    b_idx, eligible = elig
    d_idx = _grid_index(grid, dist, "left")  # dist <= r_k iff k >= d_idx
    hit = d_idx <= b_idx
    num = np.cumsum(np.bincount(d_idx[hit], minlength=g + 1)
                    - np.bincount(b_idx[hit] + 1, minlength=g + 1))[:g]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(eligible > 0, num / eligible, np.nan)


def F_hat(p: PointPattern, grid) -> SummaryCurve:
    """Border-corrected empty-space function.

    The reference points are the cell centres of a square lattice with 128
    cells along the window's short side (its diameter for a disc), kept
    where they lie in the window. Their distances to the pattern are exact,
    equal bit for bit to a k-d tree query: each data point scatters its
    squared distance onto a stencil of nearby lattice points, a least value
    within the stencils' reach is the true one, and only the lattice points
    beyond it are queried, with the pattern's shared k-d tree ``p.tree``
    (see ``_lattice_distances``). Which lattice points are eligible at
    which radius depends on the window and grid only, so it is computed
    once per window and grid and cached (``_lattice_eligibility``).
    """
    grid = _check_grid(grid)
    lat = _lattice(p.window)
    dist = _lattice_distances(p, lat)
    elig = _lattice_eligibility(p.window, grid.tobytes())
    vals = _border_corrected_fraction(dist, elig, grid)
    return SummaryCurve(grid, vals, "F")


def G_hat(p: PointPattern, grid) -> SummaryCurve:
    """Border-corrected nearest-neighbour distance distribution.

    The nearest-neighbour distances come from the pattern's shared k-d tree
    ``p.tree``, which F and K reuse. The reference points are the data
    themselves, so their eligibility is computed afresh for each pattern.
    """
    if p.n < 2:
        raise InsufficientPointsError(f"G_hat needs n >= 2, got n={p.n}")
    grid = _check_grid(grid)
    dist, _ = p.tree.query(p.points, k=2)
    elig = _eligibility(p.window.boundary_distance(p.points), grid)
    vals = _border_corrected_fraction(dist[:, 1], elig, grid)
    return SummaryCurve(grid, vals, "G")


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
    return SummaryCurve(grid[valid], vals[valid], "J")
