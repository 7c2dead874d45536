"""Reference computations the benchmark checks dsncp's outputs against.

Each one reaches its result by a different route from the package: brute
force distances instead of k-d trees and 2-D histograms, a k-d tree pair
search with a direct kernel sum instead of dense pair blocks and prefix
sums, closed forms derived afresh instead of the package's formulas.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree


def nearest_distances(queries: np.ndarray, points: np.ndarray,
                      exclude_self: bool = False) -> np.ndarray:
    """Distance from each query to its nearest point, by brute force.

    With ``exclude_self`` the queries are the points themselves and each
    point's distance to itself is skipped.
    """
    out = np.empty(len(queries))
    px, py = points[:, 0], points[:, 1]
    step = max(1, 1_000_000 // max(len(points), 1))
    for s in range(0, len(queries), step):
        q = queries[s:s + step]
        dx = q[:, 0:1] - px
        d2 = dx * dx
        dy = np.subtract(q[:, 1:2], py, out=dx)
        d2 += dy * dy
        if exclude_self:
            d2[np.arange(len(q)), np.arange(s, s + len(q))] = np.inf
        out[s:s + step] = np.sqrt(d2.min(axis=1))
    return out


def rect_boundary_distance(points: np.ndarray, xmin, xmax, ymin, ymax):
    x, y = points[:, 0], points[:, 1]
    return np.minimum.reduce([x - xmin, xmax - x, y - ymin, ymax - y])


def border_fraction(dist: np.ndarray, bdist: np.ndarray,
                    r: np.ndarray) -> np.ndarray:
    """Reduced-sample estimate at each r: among references at least r from
    the border, the share whose distance is at most r (NaN if none)."""
    out = np.full(r.size, np.nan)
    for k, rk in enumerate(r):
        eligible = bdist >= rk
        m = int(eligible.sum())
        if m:
            out[k] = np.count_nonzero(dist[eligible] <= rk) / m
    return out


def lattice(xmin, xmax, ymin, ymax, per_side: int = 128) -> np.ndarray:
    """Cell centres of a square lattice with ``per_side`` cells along the
    shorter side, the test points of dsncp's empty-space function."""
    h = min(xmax - xmin, ymax - ymin) / per_side
    nx = max(1, int(math.floor((xmax - xmin) / h)))
    ny = max(1, int(math.floor((ymax - ymin) / h)))
    xs = xmin + (np.arange(nx) + 0.5) * h
    ys = ymin + (np.arange(ny) + 0.5) * h
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack((gx.ravel(), gy.ravel()))


def f_g_j(points: np.ndarray, rect: tuple, r: np.ndarray):
    """Border-corrected F, G and J = (1 - G)/(1 - F) on a rectangle.

    J is NaN wherever F or G is undefined or F = 1.
    """
    test = lattice(*rect)
    f = border_fraction(nearest_distances(test, points),
                        rect_boundary_distance(test, *rect), r)
    g = border_fraction(nearest_distances(points, points, exclude_self=True),
                        rect_boundary_distance(points, *rect), r)
    j = np.full(r.size, np.nan)
    ok = np.isfinite(f) & np.isfinite(g) & (f < 1.0)
    j[ok] = (1.0 - g[ok]) / (1.0 - f[ok])
    return f, g, j


def translation_pairs(points: np.ndarray, rect: tuple, rmax: float):
    """Distances and translation weights 1/|W cap (W + h)| of the unordered
    pairs at most ``rmax`` apart, found by a k-d tree pair search."""
    pairs = cKDTree(points).query_pairs(rmax, output_type="ndarray")
    h = np.abs(points[pairs[:, 0]] - points[pairs[:, 1]])
    lx, ly = rect[1] - rect[0], rect[3] - rect[2]
    return np.hypot(h[:, 0], h[:, 1]), 1.0 / ((lx - h[:, 0]) * (ly - h[:, 1]))


def k_translation(points: np.ndarray, rect: tuple, r: np.ndarray):
    """Translation-corrected K: |W|^2/(n(n-1)) times the weighted count of
    ordered pairs within each r."""
    n = len(points)
    area = (rect[1] - rect[0]) * (rect[3] - rect[2])
    d, w = translation_pairs(points, rect, float(r[-1]))
    order = np.argsort(d)
    cum = np.concatenate(([0.0], np.cumsum(w[order])))
    within = np.searchsorted(d[order], r, side="right")
    return 2.0 * cum[within] * area ** 2 / (n * (n - 1))


def pcf_translation(points: np.ndarray, rect: tuple, r: np.ndarray,
                    bandwidth: float):
    """Translation-corrected pcf with the Epanechnikov kernel, summed
    directly over the pairs within one bandwidth of each r."""
    n = len(points)
    area = (rect[1] - rect[0]) * (rect[3] - rect[2])
    d, w = translation_pairs(points, rect, float(r[-1]) + bandwidth)
    order = np.argsort(d)
    d, w = d[order], w[order]
    lo = np.searchsorted(d, r - bandwidth, side="left")
    hi = np.searchsorted(d, r + bandwidth, side="right")
    out = np.empty(r.size)
    for k, rk in enumerate(r):
        u = (rk - d[lo[k]:hi[k]]) / bandwidth
        kern = 0.75 / bandwidth * np.maximum(0.0, 1.0 - u * u)
        out[k] = 2.0 * np.dot(kern, w[lo[k]:hi[k]])
    return out * area ** 2 / (2.0 * math.pi * r * n * (n - 1))


def thomas_contrast(r: np.ndarray, k_emp: np.ndarray, rho_y: float,
                    alpha: float, q: float = 0.25, p: float = 2.0) -> float:
    """Minimum-contrast objective of a Thomas model against an empirical K:
    the trapezoid rule on |K_emp^q - K^q|^p, with
    K(r) = pi r^2 + (1 - exp(-r^2/(4 alpha^2)))/rho_Y."""
    k = math.pi * r * r + -np.expm1(-r * r / (4.0 * alpha * alpha)) / rho_y
    f = np.abs(k_emp ** q - k ** q) ** p
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(r)))


def pcf_minus_one(family: str, alpha: float, rho_y: float,
                  beta: float | None, r):
    """g(r) - 1 of a Thomas-type cluster process with Poisson (``thomas``)
    or determinantal (``gaussian``, ``ginibre``) centres.

    Two offspring of one cluster differ by N(0, 2 alpha^2 I), which gives
    the cluster term. Offspring of two centres are correlated like the
    centres, smoothed by the same law: the centres' g - 1 is
    -exp(-r^2/c) with c = beta^2/2 (Gaussian kernel) or beta^2 (Ginibre),
    and the smoothing turns it into -c/(c + 4 alpha^2) exp(-r^2/(c + 4 alpha^2)).
    """
    r = np.asarray(r, dtype=float)
    s = 4.0 * alpha * alpha
    out = np.exp(-r * r / s) / (math.pi * s * rho_y)
    if family != "thomas":
        c = beta * beta / 2.0 if family == "gaussian" else beta * beta
        out = out - c / (c + s) * np.exp(-r * r / (c + s))
    return out


def count_variance(rho_x: float, lx: float, ly: float, g_minus_one,
                   reach: float) -> float:
    """Var N(W) = rho |W| + rho^2 * integral of |W cap (W + h)| (g(h) - 1) dh
    on an lx x ly rectangle, by quadrature in polar coordinates.

    ``g_minus_one`` takes an array of distances; it must be negligible
    beyond ``reach``.
    """
    reach = min(reach, math.hypot(lx, ly))
    r = np.linspace(0.0, reach, 4001)
    theta = np.linspace(0.0, 0.5 * math.pi, 721)
    cov = (np.maximum(0.0, lx - np.outer(r, np.cos(theta)))
           * np.maximum(0.0, ly - np.outer(r, np.sin(theta))))
    ring = 4.0 * np.trapezoid(cov, theta, axis=1)  # the four quadrants agree
    excess = np.trapezoid(r * g_minus_one(r) * ring, r)
    return rho_x * lx * ly + rho_x * rho_x * excess
