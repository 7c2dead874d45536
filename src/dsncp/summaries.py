"""Second-order and distance-based summaries, theoretical and empirical.

Closed forms (pair correlation, Ripley's K, the pcf crossover radius) exist
for all three cluster families on the plane; the two DPP kernels enter them
only through the range s^2 of their squared correlation exp(-|y|^2/s^2).
The empirical side provides a translation-corrected K estimator, an
Epanechnikov-kernel pair correlation estimator, and border-corrected F/G/J
estimators; these are the inputs to minimum-contrast fitting and envelope
testing.

K and pcf take their pairs, distances and translation weights from one
routine (``_translation_pairs``) and never sort them: K counts them into
grid cells, and pcf sums its kernel over distance bins
(``_epanechnikov_sum``), to a few ulps of an exactly rounded sum.
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
    s2 = m.dpp_family().range_sq if m.family.is_dpp else None
    out = _K_closed_form(np.asarray(r, dtype=float), m.alpha, m.rho_Y, s2)
    return float(out) if np.ndim(out) == 0 else out


def _K_closed_form(r: np.ndarray, alpha: float, rho_Y: float,
                   s2: float | None):
    """K at the distances r for offspring sd alpha and centre intensity
    rho_Y, with the DPP repulsion term of range_sq s2 (None for Thomas).
    The contrast fit calls it directly, with no model per evaluation."""
    a2 = 4.0 * alpha ** 2
    out = math.pi * r ** 2 - np.expm1(-r * r / a2) / rho_Y
    if s2 is not None:
        out = out + math.pi * s2 * np.expm1(-r * r / (a2 + s2))
    return out


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
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ParameterError(f"grid values must be finite, got {g[bad[0]]}")
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
    h = np.take(p.points, ij[:, 0], axis=0) - np.take(p.points, ij[:, 1], axis=0)
    d = np.hypot(h[:, 0], h[:, 1])
    cov = p.window.set_covariance(h)
    keep = (d <= rmax) & (cov > 0.0)
    if not keep.all():
        d, cov = d[keep], cov[keep]
    return d, 2.0 / cov


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
    translation-corrected. The grid must start above bandwidth/2.

    g_hat(r) = |W|^2 / (2 pi r n(n-1)) * sum over ordered pairs of
    k_b(r - dist) / area(W intersect W shifted by the pair difference),
    with k_b(t) = 0.75/b * max(0, 1 - t^2/b^2). The sum over the pairs
    within b of each grid point is formed in distance bins, with no sort
    of the pairs (``_epanechnikov_sum``); it matches the exactly rounded
    sum of its terms to about 1e-15 relative.
    """
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
    reach = float(grid[-1]) + b
    if not math.isfinite(reach):
        raise ParameterError(
            f"grid end {grid[-1]} plus bandwidth {b} is not finite")
    d, wgt = _translation_pairs(p, reach)
    ksum = 0.75 / b * _epanechnikov_sum(d, wgt, grid, b)
    vals = ksum * p.window.area ** 2 / (2 * math.pi * grid * p.n * (p.n - 1))
    return SummaryCurve(grid, vals, "pcf")


# pcf_hat's distance bins per bandwidth, and how many bins on either side
# of a support edge are summed pair by pair
_PCF_BINS = 128
_PCF_EDGE = 2


def _epanechnikov_sum(d: np.ndarray, wgt: np.ndarray, grid: np.ndarray,
                      b: float) -> np.ndarray:
    """sum_k wgt_k max(0, 1 - ((r - d_k)/b)^2) at each point r of an
    increasing grid, for distances 0 <= d_k <= reach = grid[-1] + b,
    without sorting the pairs.

    The pairs go into bins of width h = b/128, widened to reach/(pairs +
    grid points) when that is larger, so there are never more bins than
    pairs and grid points together. For a grid point r, let lo and hi be
    the bins of r - b and r + b. A bin from lo + 3 to hi - 3 lies wholly
    inside the kernel's support, where the kernel is a quadratic in d; it
    adds S0 (b - t)(b + t) + 2 t S1 - S2, over b^2, with t = r - c, c the
    bin's centre and S_m = sum wgt (d - c)^m over its pairs. The pairs in
    the bins within two of lo or of hi are summed term by term, and every
    other bin lies outside the support. The bins for which r is an edge
    come from ``searchsorted`` of each bin index among the grid points'
    lo and hi, so the work is O(pairs + grid x 2 x 128) plus the pairs in
    edge bins. Every term of a bin's sum is at most that bin's own sum and
    r - c, d - c are exact in most cases (Sterbenz), so the result matches
    an exactly rounded sum of the pair terms to a few ulps.
    """
    g = grid.size
    reach = grid[-1] + b
    h = max(b / _PCF_BINS, reach / (d.size + g))
    inv = 1.0 / h  # d <= reach, so d * inv <= reach * inv: every q < nbins
    nbins = int(reach * inv) + 1
    centre = (np.arange(nbins) + 0.5) * h
    q = (d * inv).astype(np.intp)
    e = d - centre[q]
    we = wgt * e
    s0 = np.bincount(q, wgt, nbins)
    s1 = np.bincount(q, we, nbins)
    s2 = np.bincount(q, we * e, nbins)
    lo = np.floor((grid - b) * inv).astype(np.intp)
    hi = np.floor((grid + b) * inv).astype(np.intp)
    # the bins wholly inside each grid point's support: grid point j has
    # count[j] of them, first[j] onwards
    first = np.maximum(lo + _PCF_EDGE + 1, 0)
    count = np.maximum(hi - _PCF_EDGE - first, 0)
    j = np.repeat(np.arange(g), count)
    f = first[j] + np.arange(j.size) - np.repeat(np.cumsum(count) - count, count)
    t = grid[j] - centre[f]
    inner = s0[f] * ((b - t) * (b + t)) + 2.0 * t * s1[f] - s2[f]
    total = np.bincount(j, inner, g) / b / b  # b * b may underflow
    # the grid points to which each bin is an edge bin, as two ranges:
    # those with hi within two of it, then those with lo within two of it;
    # a grid point in both (its support spans few bins) is kept in the
    # second. Grid points before the first range have the bin beyond r + b
    # and those after the second beyond r - b.
    bins = np.arange(nbins)
    hi0 = np.searchsorted(hi, bins - _PCF_EDGE, "left")
    lo0 = np.searchsorted(lo, bins - _PCF_EDGE, "left")
    hi1 = np.minimum(np.searchsorted(hi, bins + _PCF_EDGE, "right"), lo0)
    lo1 = np.searchsorted(lo, bins + _PCF_EDGE, "right")
    near = np.flatnonzero(((hi1 > hi0) | (lo1 > lo0))[q])
    q, d, wgt = q[near], d[near], wgt[near]
    for start, stop in ((hi0, hi1), (lo0, lo1)):
        # a bin is an edge bin to few grid points: step through them
        count = stop - start
        for o in range(int(count.max())):
            k = np.flatnonzero(count[q] > o)
            i = start[q[k]] + o
            u = (grid[i] - d[k]) / b
            # at a tiny b, u * u of a pair a few bins away may be inf: its
            # term is 0 all the same
            with np.errstate(over="ignore"):
                term = np.maximum(0.0, 1.0 - u * u)
            total += np.bincount(i, wgt[k] * term, g)
    return total


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
