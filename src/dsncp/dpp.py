"""Determinantal point processes: kernels, spectra, and exact sampling.

Two stationary kernel families on the plane are supported, both with
intensity ``rho_Y`` and scale ``beta``:

* Gaussian:  r(u, v) = rho_Y * exp(-||(u - v)/beta||^2)
* Ginibre:   r(u, v) = rho_Y * exp((u*conj(v) - |u|^2/2 - |v|^2/2)/beta^2),
  points read as complex numbers (the scaled Ginibre ensemble).

Either process exists iff beta <= 1/sqrt(pi * rho_Y); equality is the most
repulsive case. Sampling goes through a spectral decomposition on a compact
domain (Fourier basis on a rectangle for the Gaussian kernel, the explicit
Laguerre-type basis on a disc for Ginibre) followed by the standard
projection algorithm (Lavancier, Moller & Rubak 2015, Alg. 1):
Bernoulli-select k eigenfunctions, then draw the k points one by one, the
j-th from the residual density ||v(x)||^2 - sum_{l<j} |<v(x), e_l>|^2
(v the selected basis row, e_l the orthonormalised rows of the points
already drawn), by exact rejection against the uniform law.

The rejection step keeps a pool of pending proposals. Uniform proposals
are drawn in batches, each projected once against the frame e_0, ...,
e_{j-1} built so far; when a point is accepted, its row joins the frame and
every pending residual drops by |<v, e_j>|^2, so a pending residual is
always the current step's. A proposal leaves the pool when it is tested,
whether accepted or not, and the proposals still untested are i.i.d.
uniform and independent of every point and uniform drawn so far. Testing
them at a later step is therefore the same rejection sampler as testing
fresh ones, and the output law is exact. A draw costs O(k^2) per tested
proposal instead of a fresh batch and a full re-projection at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    Disc,
    ExistenceError,
    ParameterError,
    PointPattern,
    Rect,
    RejectionBoundError,
    RngStream,
    Window,
    check_positive,
)


@dataclass(frozen=True)
class GaussianDpp:
    rho_Y: float
    beta: float

    def __post_init__(self):
        check_positive("rho_Y", self.rho_Y)
        check_positive("beta", self.beta)

    @property
    def range_sq(self) -> float:
        """s^2 in |C(0, y)|^2 / rho_Y^2 = exp(-|y|^2 / s^2): beta^2 / 2."""
        return self.beta ** 2 / 2.0


@dataclass(frozen=True)
class GinibreDpp:
    rho_Y: float
    beta: float

    def __post_init__(self):
        check_positive("rho_Y", self.rho_Y)
        check_positive("beta", self.beta)

    @property
    def range_sq(self) -> float:
        """s^2 in |C(0, y)|^2 / rho_Y^2 = exp(-|y|^2 / s^2): beta^2."""
        return self.beta ** 2


DppFamily = Union[GaussianDpp, GinibreDpp]


def max_admissible_beta(rho_Y: float) -> float:
    """Largest kernel range at which a DPP with intensity rho_Y exists."""
    check_positive("rho_Y", rho_Y)
    return 1.0 / math.sqrt(math.pi * rho_Y)


def most_repulsive_intensity(beta: float) -> float:
    """The intensity saturating the existence bound at scale beta.

    The returned value is guaranteed to satisfy
    ``max_admissible_beta(result) >= beta``, lowering 1/(pi beta^2) by a
    few ulps when rounding would otherwise break the round trip.
    """
    check_positive("beta", beta)
    rho = 1.0 / (math.pi * beta * beta)
    while 1.0 / math.sqrt(math.pi * rho) < beta:
        rho = float(np.nextafter(rho, 0.0))
    return rho


def validate_dpp_params(family: DppFamily) -> None:
    """Raise ExistenceError unless the (rho_Y, beta) pair admits a DPP.

    The admissible region is exactly beta <= max_admissible_beta(rho_Y):
    equality (the most repulsive case) is accepted and any beta above it,
    even by one ulp, is rejected.
    """
    bmax = max_admissible_beta(family.rho_Y)
    if family.beta > bmax:
        raise ExistenceError(
            f"no DPP exists with rho_Y={family.rho_Y}, beta={family.beta}: "
            f"beta must be <= {bmax!r}",
            max_beta=bmax,
        )


def kernel_correlation_modulus_sq(family: DppFamily, y) -> np.ndarray | float:
    """Squared modulus of the normalized kernel at lag ``y``:
    exp(-|y|^2 / s^2), s^2 the family's ``range_sq``. Accepts a single lag
    vector or an array of them (last axis = coordinates).
    """
    y = np.asarray(y, dtype=float)
    out = np.exp(-np.sum(y * y, axis=-1) / family.range_sq)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class GinibreParams:
    """Variation-independent Ginibre parametrization.

    ``nu`` in (0, 1] is the thinning level, ``lam`` the intensity. The
    (rho_Y, beta) kernel corresponds to nu = rho_Y*pi*beta^2, lam = rho_Y.
    """

    nu: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ParameterError(f"nu must be in (0, 1], got {self.nu}")
        if not self.lam > 0:
            raise ParameterError(f"lam must be > 0, got {self.lam}")

    @classmethod
    def from_family(cls, family: GinibreDpp) -> "GinibreParams":
        validate_dpp_params(family)
        nu = min(family.rho_Y * math.pi * family.beta ** 2, 1.0)
        return cls(nu=nu, lam=family.rho_Y)

    @property
    def beta(self) -> float:
        return math.sqrt(self.nu / (self.lam * math.pi))

    @property
    def rho_Y(self) -> float:
        return self.lam


class _FourierBasis:
    """Orthonormal complex exponentials on a rectangle, indexed by integer
    frequency pairs."""

    def __init__(self, rect: Rect, freqs: np.ndarray):
        self.rect = rect
        self.freqs = freqs  # (m, 2) integers
        lx, ly = rect.side_lengths
        self._inv_sides = np.array([1.0 / lx, 1.0 / ly])
        self._origin = np.array([rect.xmin, rect.ymin])
        self._amp = 1.0 / math.sqrt(rect.area)

    def matrix(self, points: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        f = self.freqs if idx is None else self.freqs[idx]
        rel = (np.asarray(points, dtype=float) - self._origin) * self._inv_sides
        phase = 2.0 * math.pi * (rel @ f.T)
        return self._amp * np.exp(1j * phase)

    def sup_sq_bound(self, idx: np.ndarray) -> float:
        # each |phi|^2 is exactly 1/area, so the sup is exact
        return len(idx) / self.rect.area


class _GinibreBasis:
    """Disc-normalized eigenfunctions of the scaled Ginibre kernel.

    phi_i(u) ~ u^{i-1} exp(-lam*pi*|u|^2/(2 nu)) up to normalization;
    all magnitudes are accumulated in log space because (i-1)! overflows
    double precision near i = 171.
    """

    def __init__(self, disc: Disc, nu: float, lam: float, log_p: np.ndarray):
        self.disc = disc
        self.coef = lam * math.pi / nu  # exp(-coef |u|^2 / 2) radial decay
        i = np.arange(1, log_p.size + 1, dtype=float)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(i[:-1]))))
        self.log_norms = (0.5 * math.log(lam)
                          + 0.5 * (i - 1.0) * math.log(lam * math.pi)
                          - 0.5 * log_fact
                          - 0.5 * i * math.log(nu)
                          - 0.5 * log_p)

    def _log_radial_sq(self, r2: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """log |phi_i|^2 at squared radii r2, for the selected indices."""
        k = idx.astype(float)  # powers i-1
        with np.errstate(divide="ignore", invalid="ignore"):
            logr = 0.5 * np.log(r2)
            pw = logr[:, None] * k[None, :]
        # 0 * (-inf) at the origin for i=1; the power term is exactly 0 there
        pw = np.where(np.isnan(pw), 0.0, pw)
        return 2.0 * (self.log_norms[idx] + pw) - self.coef * r2[:, None]

    def matrix(self, points: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        if idx is None:
            idx = np.arange(self.log_norms.size)
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        z = (pts[:, 0] - self.disc.cx) + 1j * (pts[:, 1] - self.disc.cy)
        r2 = (z * z.conj()).real
        log_mod = 0.5 * self._log_radial_sq(r2, idx)
        phase = np.angle(z)[:, None] * idx.astype(float)[None, :]
        return np.exp(log_mod + 1j * phase)

    def sup_sq_bound(self, idx: np.ndarray) -> float:
        # sum_i |phi_i(u)|^2 is radial; maximize on a fine radial grid
        s = np.linspace(0.0, self.disc.radius, 4097)
        total = np.exp(self._log_radial_sq(s * s, idx)).sum(axis=1)
        return float(total.max())


@dataclass(frozen=True)
class DppSpectrum:
    """Truncated spectral decomposition of a DPP kernel on a compact domain.

    ``eigenvalues`` lie in (0, 1]; their sum approximates the expected point
    count on the domain, short by ``truncation_error``.
    """

    domain: Window
    eigenvalues: np.ndarray
    basis: object
    truncation_error: float

    def __post_init__(self):
        xi = np.asarray(self.eigenvalues, dtype=float)
        xi.setflags(write=False)
        object.__setattr__(self, "eigenvalues", xi)
        if xi.size and not (np.all(xi > 0) and np.all(xi <= 1.0)):
            raise ParameterError("eigenvalues must lie in (0, 1]")


def _poisson_survival(t: float) -> np.ndarray:
    """P(Poisson(t) >= i) for i = 1, 2, ..., far into the tail.

    Identical to the regularized gamma CDF at integer shapes; computed for
    all shapes at once via a reverse cumulative sum of log-space pmf values,
    which keeps relative precision in the deep tail.
    """
    j_max = int(t + 15.0 * math.sqrt(t) + 60.0)
    j = np.arange(j_max + 1, dtype=float)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(j[1:]))))
    with np.errstate(divide="ignore"):
        log_pmf = j * math.log(t) - t - log_fact
    pmf = np.exp(log_pmf)
    # survival S[i] = sum_{j >= i} pmf_j; summing tail-first is stable
    s = np.cumsum(pmf[::-1])[::-1]
    return s[1:]


def ginibre_spectrum(p: GinibreParams, r: float) -> DppSpectrum:
    """Spectral decomposition of the (nu, lam) Ginibre kernel on b(0, r),
    r > 0.

    Eigenvalues are nu * P(i, lam*pi*r^2/nu) for i = 1, 2, ..., truncated at
    the first one below 1e-12 of the leading eigenvalue, which is always
    kept. The disc is centred at the origin; shift points externally if
    needed.
    """
    disc = Disc(0.0, 0.0, r)
    t = p.lam * math.pi * r * r / p.nu
    surv = _poisson_survival(t)
    xi = p.nu * surv
    keep = int(np.searchsorted(-xi, -1e-12 * xi[0], side="right"))
    expected = p.lam * math.pi * r * r
    xi = xi[:keep]
    log_p = np.log(surv[:keep])
    basis = _GinibreBasis(disc, p.nu, p.lam, log_p)
    return DppSpectrum(disc, np.minimum(xi, 1.0), basis,
                       truncation_error=expected - float(xi.sum()))


def gaussian_dpp_spectrum(family: GaussianDpp, rect: Rect) -> DppSpectrum:
    """Fourier-basis spectral approximation of the Gaussian kernel on a
    rectangle.

    Eigenvalue at integer frequency k: rho_Y*pi*beta^2 *
    exp(-pi^2 beta^2 ||(k1/L1, k2/L2)||^2); eigenfunctions are the matching
    complex exponentials. Frequencies with eigenvalue below 1e-12 of the
    leading one are dropped and accounted for in ``truncation_error``.
    """
    if not isinstance(rect, Rect):
        raise ParameterError("gaussian_dpp_spectrum needs a Rect domain")
    validate_dpp_params(family)
    rho, beta = family.rho_Y, family.beta
    l1, l2 = rect.side_lengths
    top = rho * math.pi * beta * beta
    tol = 1e-12 * top
    expected = rho * rect.area
    if tol == 0.0:
        # the leading eigenvalue underflows the cutoff: nothing to sample
        return DppSpectrum(rect, np.zeros(0),
                           _FourierBasis(rect, np.zeros((0, 2), dtype=int)),
                           truncation_error=expected)
    # xi >= tol  <=>  ||(k1/L1, k2/L2)|| <= sqrt(log(top/tol))/(pi beta)
    reach = math.sqrt(math.log(top / tol)) / (math.pi * beta)
    k1 = np.arange(-math.ceil(reach * l1), math.ceil(reach * l1) + 1)
    k2 = np.arange(-math.ceil(reach * l2), math.ceil(reach * l2) + 1)
    e1 = (math.pi * beta / l1) ** 2 * k1 ** 2
    e2 = (math.pi * beta / l2) ** 2 * k2 ** 2
    xi = top * np.exp(-(e1[:, None] + e2[None, :]))
    mask = xi >= tol
    ii, jj = np.nonzero(mask)
    freqs = np.column_stack((k1[ii], k2[jj])).astype(int)
    vals = xi[mask]
    # descending eigenvalue order, frequency pair as deterministic tie-break
    order = np.lexsort((freqs[:, 1], freqs[:, 0], -vals))
    freqs, vals = freqs[order], vals[order]
    return DppSpectrum(rect, np.minimum(vals, 1.0), _FourierBasis(rect, freqs),
                       truncation_error=expected - float(vals.sum()))


def sample_dpp(spec: DppSpectrum, rng: RngStream) -> PointPattern:
    """Draw one realization of the DPP with the given spectrum.

    Eigen-indices are kept independently with probability xi_i, drawn
    first from ``rng``; the kept projection kernel of rank k is then
    sampled point by point from residual densities via exact rejection
    against the uniform law, with the dominating bound a fine-grid maximum
    of the total eigenfunction mass times a 1.1 safety factor. Proposals
    come in batches sized for about one acceptance at the current step
    (at most 4096); those not yet tested stay pending, with their residual
    densities lowered as each accepted point joins the orthonormal frame,
    and are tested at later steps, which keeps the law exact (see the
    module docstring). A fresh batch whose residual exceeds the bound
    aborts the draw and restarts it with 1.5 times the observed value, up
    to four tries, so the output law is never truncated.
    """
    gen = rng.generator
    m = spec.eigenvalues.size
    if m == 0:
        return PointPattern(np.zeros((0, 2)), spec.domain)
    idx = np.flatnonzero(gen.random(m) < spec.eigenvalues)
    k = idx.size
    if k == 0:
        return PointPattern(np.zeros((0, 2)), spec.domain)
    bound = 1.1 * spec.basis.sup_sq_bound(idx)
    last_err: RejectionBoundError | None = None
    for _ in range(4):
        try:
            pts = _sample_projection(spec, idx, bound, gen)
            return PointPattern(pts, spec.domain)
        except RejectionBoundError as err:
            bound = 1.5 * err.observed
            last_err = err
    raise last_err


def _sample_projection(spec: DppSpectrum, idx: np.ndarray, bound: float,
                       gen: np.random.Generator) -> np.ndarray:
    k = idx.size
    basis = spec.basis
    domain = spec.domain
    frame = np.zeros((k, k), dtype=complex)  # rows e_0, ..., e_{j-1}
    pts = np.empty((k, 2))
    # pending proposals: point, basis row v, residual density at step j
    pool_x = np.empty((0, 2))
    pool_v = np.empty((0, k), dtype=complex)
    pool_r = np.empty(0)
    for j in range(k):
        while True:
            if not pool_r.size:
                # about one acceptance expected: the residual integrates
                # to k - j against a uniform proposal of mass bound * |D|
                size = min(math.ceil(bound * domain.area / (k - j)), 4096)
                pool_x = domain.sample_uniform(size, gen)
                pool_v = basis.matrix(pool_x, idx)
                pool_r = np.einsum("ij,ij->i", pool_v.real, pool_v.real) \
                    + np.einsum("ij,ij->i", pool_v.imag, pool_v.imag)
                if j:
                    coef = frame[:j] @ pool_v.conj().T
                    pool_r -= np.einsum("ij,ij->j", coef.real, coef.real) \
                        + np.einsum("ij,ij->j", coef.imag, coef.imag)
                # residuals only fall as the frame grows, so checking
                # fresh proposals covers every later test of them
                worst = float(pool_r.max())
                if worst > bound:
                    raise RejectionBoundError(
                        f"residual density {worst} exceeded rejection bound "
                        f"{bound}", observed=worst)
            hits = np.flatnonzero(gen.random(pool_r.size) * bound < pool_r)
            if not hits.size:
                pool_r = pool_r[:0]
                continue
            h = hits[0]
            x, new_vec = pool_x[h], pool_v[h]
            rest = slice(h + 1, None)
            pool_x, pool_v, pool_r = pool_x[rest], pool_v[rest], pool_r[rest]
            if j:
                e = frame[:j]
                new_vec = new_vec - (e @ new_vec.conj()).conj() @ e
                # second pass makes the Gram-Schmidt numerically safe
                new_vec = new_vec - (e @ new_vec.conj()).conj() @ e
            norm = np.linalg.norm(new_vec)
            if norm < 1e-12:
                # accepted into an already-exhausted direction (pure
                # rounding artifact, probability ~0); propose again
                continue
            pts[j] = x
            frame[j] = new_vec / norm
            if pool_r.size:
                coef = pool_v @ frame[j].conj()
                pool_r -= coef.real * coef.real + coef.imag * coef.imag
            break
    return pts


def nth_order_intensity(family: DppFamily, points) -> float:
    """n-th order product intensity det{c(u_i, u_j)} of the DPP.

    ``points`` is a sequence of n planar points, 1 <= n <= 12. The Ginibre
    kernel is complex; the determinant's imaginary part must vanish up to
    rounding and is checked against 1e-9 of the natural scale.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if not 1 <= n <= 12:
        raise ParameterError(f"need 1 <= n <= 12 points, got {n}")
    c = kernel_matrix(family, pts)
    if isinstance(family, GaussianDpp):
        return float(np.linalg.det(c))
    det = complex(np.linalg.det(c))
    scale = max(abs(det), family.rho_Y ** n)
    if abs(det.imag) > 1e-9 * scale:
        raise ArithmeticError(
            f"determinant imaginary part {det.imag} exceeds tolerance "
            f"(scale {scale})")
    return det.real


def kernel_matrix(family: DppFamily, points) -> np.ndarray:
    """Kernel Gram matrix c(u_i, u_j) for a set of points.

    Real for the Gaussian family, complex for Ginibre.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rho, beta = family.rho_Y, family.beta
    if isinstance(family, GaussianDpp):
        diff = pts[:, None, :] - pts[None, :, :]
        return rho * np.exp(-np.sum(diff * diff, axis=-1) / beta ** 2)
    if isinstance(family, GinibreDpp):
        z = (pts[:, 0] + 1j * pts[:, 1]) / beta
        sq = (z * z.conj()).real
        expo = (z[:, None] * z.conj()[None, :]
                - 0.5 * sq[:, None] - 0.5 * sq[None, :])
        return rho * np.exp(expo)
    raise ParameterError(f"unknown DPP family: {family!r}")

