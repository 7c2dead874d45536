"""Determinantal point processes: kernels, spectra, and exact sampling.

Two stationary kernel families on the plane are supported, both with
intensity ``rho_Y`` and scale ``beta``:

* Gaussian:  r(u, v) = rho_Y * exp(-||(u - v)/beta||^2)
* Ginibre:   r(u, v) = rho_Y * exp((u*conj(v) - |u|^2/2 - |v|^2/2)/beta^2),
  points read as complex numbers (the scaled Ginibre ensemble).

Either process exists iff beta <= 1/sqrt(pi * rho_Y); equality is the most
repulsive case. Sampling goes through a spectral decomposition on a compact
domain (a real trigonometric basis on a rectangle for the Gaussian kernel,
the explicit Laguerre-type basis on a disc for Ginibre) followed by the
standard projection algorithm (Lavancier, Moller & Rubak 2015, Alg. 1):
Bernoulli-select k eigenfunctions, then draw the k points one by one, the
j-th from the residual density ||v(x)||^2 - sum_{l<j} |<v(x), e_l>|^2
(v the selected basis row, e_l the orthonormalised rows of the points
already drawn). Each step is an exact rejection sampler whose proposal is
the kernel's own diagonal ||v(x)||^2 / k (the chain rule of Hough,
Krishnapur, Peres & Virag 2006; Gautier, Bardenet & Valko 2019): a
proposal x with uniform u is accepted when u ||v(x)||^2 is below its
residual, which never exceeds ||v(x)||^2, so no bound is needed. Either
diagonal is the equal mixture of the selected |phi_i|^2: on the rectangle
that is uniform for the constant and for a frequency pair whose cos and sin
are both selected (cos^2 + sin^2 = 1), and a cos^2 or sin^2 law along the
phase for a split pair, one member selected without the other; on the disc
it is one radial law per selected eigenfunction. A step that tests more than
64 + 60 k/(k - j) proposals, which a valid draw does with probability below
e^-60, raises RuntimeError: only a basis whose rows are not orthonormal
gets there, and it would otherwise propose forever.

The rejection step keeps a pool of pending proposals. They are drawn, with
their uniforms, in batches of min(k, 4096): at step j the diagonal accepts
(k - j)/k of its proposals on average, so a batch holds about as many
acceptances as there are points left to draw, and the batch that ends a
draw leaves few proposals untested. Each batch is projected once against
the frame e_0, ..., e_{j-1} built so far, and each proposal keeps its
coefficients; when a point is accepted, its row joins the frame, every
pending proposal gains its coefficient on it and its residual drops by
that coefficient's squared modulus, so a pending residual is always the
current step's. A proposal leaves the pool when it is tested, whether
accepted or not, and the proposals still untested, with their uniforms,
are i.i.d. and independent of every point drawn so far. Testing them at a
later step is therefore the same rejection sampler as testing fresh ones,
and the output law is exact: the batch size moves the random stream, not
the law.

An accepted row is orthogonalised against the frame from its kept
coefficients in one pass; a second pass runs only when the first removed
more than half its squared norm ("twice is enough"). The frame holds the
conjugates of the e_l, so a coefficient block is the plain product
frame @ v with no conjugate copy of the pool; moduli, and hence residuals,
are unchanged. A step that accepts a point whose row is left with less
than 1e-12 of its norm proposes again: a rounding artifact of probability
about 0, judged relative to the proposal's own ||v||, so that a window of
any size (where ||v||^2 is about k/|D|) draws alike.

The sampler runs in the rows' arithmetic: real for the trigonometric basis,
complex for Ginibre. The Gaussian kernel's eigenvalue at frequency f is
that at -f, so the cos and sin of a pair span what exp(+-2 pi i f.t) do, and
the truncated kernel is the same; real rows halve the frame's bytes and
quarter a product's flops.

Late steps test many proposals (about k/(k - j) per point), each projected
on all j frame rows, so the frame deflates, only between batches: when a
batch runs out and the frame is not empty, in a space of ``_DEFLATE_RANK``
(192) or more dimensions, one Householder QR of the frame's rows gives C,
orthonormal rows spanning their complement: the last columns of its Q,
formed without Q (``_complement``). The sampler then works in C's
coordinates: P <- C P (P is not formed before the first deflation), the
frame and the kept coefficients restart empty, and the next batch enters
as a = P v, so ||a||^2 is v's residual against every row drawn so far; the
second-pass threshold compares against it. This is a change of basis
between batches, with nothing pending: the proposals, uniforms and bounds
u ||v||^2 are the undeflated sampler's, so the law is the same chain rule,
and seeded draws agree with an undeflated run up to rounding. A batch of n
proposals accepts about 1 - exp(-n/k) of the points left, so each deflation
shrinks the space by a fixed factor, and a draw costs O(k^3).

A batch's rows v come from per-point tables of powers, with no
transcendental function per entry: w^f = w^(f mod 16) w^(16 floor(f/16)),
each factor gathered from a table formed by recurrence, so an entry costs
two gathers and a product, and carries about 16 + f/16 roundings. The
trigonometric basis takes w = exp(2 pi i t) on each axis, formed once per
point from t and its angle in double-double (a negative frequency is the
conjugate of its positive one); one complex product per selected pair
gives its cos as the real part and its sin as the imaginary part. Ginibre
takes w = z / 2^e, with the modulus carried in the tables and
exp(log norm - coef |z|^2 / 2) split, per point and block of 16, into a
power of two and a factor near 1; its second table holds only the blocks
the selection uses, each from its base-16 digits, so a sparse selection far
into the spectrum costs what a dense one does (see ``_GinibreBasis.rows``).
On the tested spectra both stay within 3.1e-14 of the formulas up to index
720, relative to the entry for Ginibre and to the pair's modulus
sqrt(2/|D|) for a cos or sin. The rows fill one n x k block per draw,
reused by every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, gammaln

from .core import (
    Disc,
    ExistenceError,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    Window,
    check_positive,
)


@dataclass(frozen=True)
class _DppKernel:
    """A stationary kernel of intensity ``rho_Y`` and scale ``beta`` that
    defines a DPP: constructing one with beta above
    ``max_admissible_beta(rho_Y)``, even by one ulp, raises ExistenceError.
    Equality, the most repulsive case, is accepted."""

    rho_Y: float
    beta: float

    def __post_init__(self):
        bmax = max_admissible_beta(self.rho_Y)  # checks rho_Y first
        check_positive("beta", self.beta)
        if self.beta > bmax:
            raise ExistenceError(
                f"no DPP exists with rho_Y={self.rho_Y}, beta={self.beta}: "
                f"beta must be <= {bmax!r}",
                max_beta=bmax,
            )

    @classmethod
    def range_sq_at(cls, beta: float) -> float:
        """s^2 in |C(0, y)|^2 / rho_Y^2 = exp(-|y|^2 / s^2) at scale beta."""
        return beta ** 2 * cls.range_share

    @property
    def range_sq(self) -> float:
        """s^2 at this kernel's beta."""
        return self.range_sq_at(self.beta)


class GaussianDpp(_DppKernel):
    range_share = 0.5  # range_sq / beta^2


class GinibreDpp(_DppKernel):
    range_share = 1.0  # range_sq / beta^2


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
        """The (nu, lam) of ``family``, refusing a nu that underflows."""
        nu = min(family.rho_Y * math.pi * family.beta ** 2, 1.0)
        if nu < np.finfo(float).tiny:
            raise ParameterError(
                f"Ginibre kernel at rho_Y {family.rho_Y:.6g}, beta "
                f"{family.beta:.6g} underflows: nu = rho_Y pi beta^2 = {nu:.6g}")
        return cls(nu=nu, lam=family.rho_Y)


# Double-double arithmetic for the per-point quantities of the basis rows:
# each pair (hi, lo) holds hi + lo exactly, so the roundings of a sum or a
# product are kept instead of lost.
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for doubles
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
_LN2_HI = 6.93147180369123816490e-01  # low 21 bits zero: k * hi is exact
_LN2_LO = 1.90821492927058770002e-10  # for |k| < 2^21
_INV_LN2 = 1.4426950408889634


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# A power w^f is the product of two table entries, w^(f mod 16) and
# w^(16 floor(f / 16)), each formed by recurrence, so it carries about
# 16 + f/16 roundings and costs one product per row entry.
_BLOCK = 16


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """The point-major (n, count) table of w^0, ..., w^(count - 1), each
    power the previous one times w."""
    out = np.empty((w.size, count), dtype=complex)
    out[:, 0] = 1.0
    if count > 1:
        out[:, 1] = w
    for s in range(2, count):
        np.multiply(out[:, s - 1], w, out=out[:, s])
    return out


def _digit_powers(base: np.ndarray, ms: np.ndarray):
    """base^m for each entry of base and each m in ms, as (n, len(ms))
    mantissas and integer log2 exponents, for |base| in (0, 1] or 0.

    Only the powers asked for are formed, however sparse: the j-th base-16
    digit of m picks base^(16^j d) from a 16-entry table of powers of
    base^(16^j), which is kept as a mantissa in [1/2, 1) times an exact
    power of two. A power is one product per digit, and its roundings
    grow as with a recurrence, about m of them."""
    n = base.size
    out = np.ones((n, ms.size), dtype=complex)
    exps = np.zeros((n, ms.size), dtype=np.int64)
    scale = np.zeros(n, dtype=np.int64)  # base^(16^j) = b 2^scale
    b, rest = base, ms
    while True:
        e = np.frexp(np.abs(b))[1]
        b = np.ldexp(b.real, -e) + 1j * np.ldexp(b.imag, -e)
        scale += e
        d = rest % _BLOCK
        table = _powers(b, _BLOCK)
        out *= table[:, d]
        exps += np.multiply.outer(scale, d)
        rest = rest // _BLOCK
        if not rest.any():
            return out, exps
        b = table[:, -1] * b
        scale *= _BLOCK


def _gather_product(a: np.ndarray, ia: np.ndarray, b: np.ndarray,
                    ib: np.ndarray, out: np.ndarray | None = None,
                    scale: np.ndarray | None = None,
                    part: np.ndarray | None = None) -> np.ndarray:
    """out[p, j] = a[p, ia[j]] * b[p, ib[j]] (* scale[j]), an (n, k) block,
    filled in place when ``out`` is given. With ``part``, out is instead
    the real block out[p, j] = R[p, part[j]], R the products' real and
    imaginary parts side by side (column 2 q + 1 the imaginary part of
    product q). It goes in blocks of rows whose scratch, 2^15 complex
    entries in all, stays in cache, so no n x k temporary is made."""
    n, k = a.shape[0], ia.size
    if out is None:
        out = (np.empty((n, k), dtype=complex) if part is None
               else np.empty((n, part.size)))
    step = max(1, (2 ** 15 if part is None else 2 ** 14) // k)
    tmp = np.empty((min(step, n), k), dtype=complex)
    prod = None if part is None else np.empty_like(tmp)
    for p in range(0, n, step):
        t = tmp[:min(step, n - p)]
        blk = out[p:p + step] if part is None else prod[:len(t)]
        np.take(a[p:p + step], ia, axis=1, out=blk, mode="clip")
        blk *= np.take(b[p:p + step], ib, axis=1, out=t, mode="clip")
        if scale is not None:
            blk *= scale
        if part is not None:
            np.take(blk.view(float), part, axis=1, out=out[p:p + step],
                    mode="clip")
    return out


class _TrigBasis:
    """Orthonormal real trigonometric functions on a rectangle.

    Function i is sqrt(2/|D|) cos(2 pi f.t), or sqrt(2/|D|) sin(2 pi f.t)
    where ``sine[i]``, for the integer frequency pair f = ``freqs[i]`` and
    t = ((x - x0)/L1, (y - y0)/L2); the pair (0, 0) is the constant
    1/sqrt(|D|). A pair and its negative give the same two functions up to
    sign, so a basis holds at most one of them (the spectrum takes the half
    plane f1 > 0 or f1 = 0 <= f2)."""

    dtype = float

    def __init__(self, rect: Rect, freqs: np.ndarray, sine: np.ndarray):
        self.rect = rect
        self.freqs = freqs  # (m, 2) integers
        self.sine = sine  # (m,) booleans
        self._sides = np.array(rect.side_lengths)
        self._origin = np.array([rect.xmin, rect.ymin])
        self._amp = math.sqrt(2.0 / rect.area)
        self._const = 1.0 / math.sqrt(rect.area)

    def _pairs(self, idx: np.ndarray):
        """The selection's frequency pairs: each function's pair as an
        integer key, 0 for the constant and shared by a cos and a sin of
        one pair, and the unique keys' first positions, inverse and counts."""
        f = self.freqs[idx]
        key = f[:, 0] * (2 * np.abs(f[:, 1]).max(initial=0) + 1) + f[:, 1]
        return (key,) + np.unique(key, return_index=True, return_inverse=True,
                                  return_counts=True)[1:]

    def _phase_tables(self, pts: np.ndarray, tops) -> list[np.ndarray]:
        """For each axis, the (n, 2 top + 1) table whose column top + f
        holds exp(2 pi i f t), t = (x - x0)/L on that axis. t and its angle
        are formed in double-double and reduced to [-pi, pi], so the one
        exp(i angle) per point and axis is within about an ulp; a negative
        frequency is the conjugate of its positive one."""
        d, d_lo = _two_sum(pts, -self._origin)
        t = d / self._sides
        p, p_lo = _two_prod(t, self._sides)
        t_lo = ((d - p) - p_lo + d_lo) / self._sides
        t -= np.rint(t)
        ang, ang_lo = _two_prod(_TWO_PI[0], t)
        ang_lo += _TWO_PI[0] * t_lo + _TWO_PI[1] * t
        c, s = np.cos(ang.T), np.sin(ang.T)
        ang_lo = ang_lo.T
        w = np.empty(c.shape, dtype=complex)  # (2, n): both axes at once
        np.subtract(c, s * ang_lo, out=w.real)
        np.add(s, c * ang_lo, out=w.imag)
        w = w.ravel()
        small = _powers(w, _BLOCK)
        big = _powers(small[:, -1] * w, max(tops) // _BLOCK + 1)
        tables = []
        for axis, top in enumerate(tops):
            rows = slice(axis * len(pts), (axis + 1) * len(pts))
            f = np.arange(top + 1)
            table = np.empty((len(pts), 2 * top + 1), dtype=complex)
            _gather_product(small[rows], f % _BLOCK, big[rows], f // _BLOCK,
                            table[:, top:])
            np.conjugate(table[:, top + 1:][:, ::-1], out=table[:, :top])
            tables.append(table)
        return tables

    def rows(self, idx: np.ndarray):
        """Points -> the real (n, k) rows of the selection ``idx``: for each
        frequency pair it uses, sqrt(2/|D|) exp(2 pi i f.t), one gather from
        a phase table on each axis and their product, whose real part is
        the pair's cos and whose imaginary part is its sin."""
        key, first, inv, _ = self._pairs(idx)
        f = self.freqs[idx[first]]
        tops = np.abs(f).max(axis=0, initial=0)
        ix, iy = f[:, 0] + tops[0], f[:, 1] + tops[1]
        part = 2 * inv + self.sine[idx]
        const = np.flatnonzero(key == 0)

        def build(points: np.ndarray, out: np.ndarray | None = None):
            pts = np.asarray(points, dtype=float).reshape(-1, 2)
            tx, ty = self._phase_tables(pts, tops)
            tx *= self._amp
            out = _gather_product(tx, ix, ty, iy, out, part=part)
            out[:, const] = self._const
            return out
        return build

    def propose(self, idx: np.ndarray, n: int,
                gen: np.random.Generator) -> np.ndarray:
        """n draws from sum_{i in idx} phi_i^2 / k: a function i uniform on
        ``idx``, then a point from phi_i^2.

        The constant, and a pair whose cos and sin are both in ``idx``
        (cos^2 + sin^2 = 1), are uniform, so a uniform point serves them.
        A split member, whose partner is not in ``idx``, has the law
        (2/|D|) cos^2(2 pi s), s = f.t mod 1 its phase (for a sin, s less a
        quarter turn): uniform on each level set of s, with s of density
        2 cos^2(2 pi s). So its uniform point t is slid along an axis a with
        f_a != 0 by ((s' - f.t) mod 1)/f_a, which moves the level set of s
        onto that of s' as a translation, for s' drawn from that density:
        the angle phi, seen from the origin, of a uniform point of the
        disc of radius 1 about (1, 0) has density cos^2(phi) / (pi/2) on
        (-pi/2, pi/2), and s' = phi/(2 pi), plus half a turn half of the
        time. With no split member the proposals are the uniform points."""
        pts = self.rect.sample_uniform(n, gen)
        key, _, inv, count = self._pairs(idx)
        split = (count[inv] == 1) & (key != 0)
        if not split.any():
            return pts
        pick = gen.integers(idx.size, size=n)
        j = np.flatnonzero(split[pick])
        i = idx[pick[j]]
        u = gen.random((3, j.size))
        r, angle = np.sqrt(u[0]), (2.0 * math.pi) * u[1]
        s = (np.arctan2(r * np.sin(angle), 1.0 + r * np.cos(angle))
             / (2.0 * math.pi) + 0.5 * np.floor(2.0 * u[2])
             + 0.25 * self.sine[i])
        f = self.freqs[i]
        t = (pts[j] - self._origin) / self._sides
        a = (f[:, 0] == 0).astype(int)  # an axis where f is not 0
        at = np.arange(j.size), a
        slide = np.mod(s - (t * f).sum(axis=1), 1.0) / f[at]
        t[at] = np.mod(t[at] + slide, 1.0)
        pts[j] = self._origin + self._sides * t
        return pts


class _GinibreBasis:
    """Disc-normalized eigenfunctions of the scaled Ginibre kernel.

    phi_i(u) ~ u^{i-1} exp(-lam*pi*|u|^2/(2 nu)) up to normalization;
    all magnitudes are accumulated in log space because (i-1)! overflows
    double precision near i = 171. ``mass`` holds P(i, t), t = coef r^2,
    the regularized lower incomplete gamma function: the share of
    |u^{i-1} exp(-coef |u|^2 / 2)|^2's integral over the plane that falls
    in the disc.
    """

    dtype = complex

    def __init__(self, disc: Disc, nu: float, lam: float, mass: np.ndarray):
        self.disc = disc
        self.coef = lam * math.pi / nu  # exp(-coef |u|^2 / 2) radial decay
        self.mass = mass
        i = np.arange(1, mass.size + 1, dtype=float)
        self.log_norms = (0.5 * math.log(lam)
                          + 0.5 * (i - 1.0) * math.log(lam * math.pi)
                          - 0.5 * gammaln(i)  # log (i - 1)!
                          - 0.5 * i * math.log(nu)
                          - 0.5 * np.log(mass))

    def rows(self, idx: np.ndarray):
        """Points -> the (n, k) rows of ``idx``:
        z^i exp(log_norm_i - coef |z|^2 / 2), z the point less the centre.

        Write i = 16 m + s, let lam_m be the largest log norm in block m,
        and z = zeta 2^e with |zeta| in [1/2, 1), both parts scaled
        exactly. An entry is the product of three factors:
        - zeta^s 2^(e s - b), from a table over s < 16;
        - zeta^(16 m) 2^(16 m e + b) exp(lam_m - coef |z|^2 / 2), from a
          table over the selection's blocks (``_digit_powers``), where the
          exponential is split in double-double into 2^q e^r with q an
          integer and |r| <= ln 2 / 2, so the power of two is exact;
        - exp(log_norm_i - lam_m), in (0, 1], one scale per column.
        So no entry goes through a logarithm or an exponent near 700. The
        bias b = 15 max(e, 0) + 1 keeps the first factor at most 1/2 and
        the second above twice any entry of its block, so neither
        underflows where a row entry does not. The disc centre is set
        explicitly: only i = 0 is non-zero there.
        """
        lo = idx % _BLOCK
        blocks, hi = np.unique(idx // _BLOCK, return_inverse=True)
        # the largest log norm of each block in use, so each column's
        # scale exp(log_norm_i - lam) is at most 1
        ends = np.minimum(_BLOCK * (blocks + 1), self.log_norms.size)
        lam = np.array([self.log_norms[_BLOCK * m:end].max()
                        for m, end in zip(blocks, ends)])
        scale = np.exp(self.log_norms[idx] - lam[hi])
        half_coef = 0.5 * self.coef
        centre_row = np.where(idx == 0, math.exp(self.log_norms[0]), 0.0)

        def build(points: np.ndarray, out: np.ndarray | None = None):
            pts = np.asarray(points, dtype=float).reshape(-1, 2)
            dx = pts[:, 0] - self.disc.cx
            dy = pts[:, 1] - self.disc.cy
            e = np.frexp(np.hypot(dx, dy))[1]
            zeta = np.empty(len(pts), dtype=complex)
            np.ldexp(dx, -e, out=zeta.real)
            np.ldexp(dy, -e, out=zeta.imag)
            small = _powers(zeta, _BLOCK)
            big, shift = _digit_powers(small[:, -1] * zeta, blocks)
            # coef |z|^2 / 2 and lam less it, in double-double
            x2, x2_lo = _two_prod(dx, dx)
            y2, y2_lo = _two_prod(dy, dy)
            r2, r2_lo = _two_sum(x2, y2)
            h, h_lo = _two_prod(half_coef, r2)
            h_lo += half_coef * (r2_lo + x2_lo + y2_lo)
            d, d_lo = _two_sum(lam, -h[:, None])
            d_lo -= h_lo[:, None]
            q = np.rint(d * _INV_LN2)
            r = (d - q * _LN2_HI) + (d_lo - q * _LN2_LO)
            bias = 15 * np.maximum(e, 0) + 1
            shift += np.multiply.outer(e, _BLOCK * blocks)
            shift += q.astype(np.int64)
            shift += bias[:, None]
            big *= np.exp(r)
            np.ldexp(big.real, shift, out=big.real)
            np.ldexp(big.imag, shift, out=big.imag)
            ex = np.multiply.outer(e, np.arange(_BLOCK)) - bias[:, None]
            np.ldexp(small.real, ex, out=small.real)
            np.ldexp(small.imag, ex, out=small.imag)
            out = _gather_product(small, lo, big, hi, out, scale)
            out[(dx == 0) & (dy == 0)] = centre_row
            return out
        return build

    def propose(self, idx: np.ndarray, n: int,
                gen: np.random.Generator) -> np.ndarray:
        """n draws from the equal mixture of the unit-mass densities
        |phi_{i+1}(u)|^2 ~ |u|^{2i} exp(-coef |u|^2), i in ``idx`` (which
        counts from 0): an index i uniform on ``idx``, a uniform angle, and
        coef |u|^2 from Gamma(i + 1, 1) truncated at t, by inverse CDF on
        its truncated mass P(i + 1, t)."""
        i = idx[gen.integers(idx.size, size=n)]
        theta = gen.random(n) * (2.0 * math.pi)
        t = self.coef * self.disc.radius ** 2
        # clipped at t so that rounding never leaves the disc
        sq = np.minimum(gammaincinv(i + 1.0, gen.random(n) * self.mass[i]), t)
        s = np.sqrt(sq / self.coef)
        return np.column_stack((self.disc.cx + s * np.cos(theta),
                                self.disc.cy + s * np.sin(theta)))


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


# The most candidate eigenvalues a spectrum builder computes before it
# truncates: the Gaussian frequency box (2 K1 + 1)(2 K2 + 1), scanned a
# block of rows at a time, of which about pi/4 is kept at about 44 bytes a
# term (about 700 MB at the limit), and the Ginibre term count (the tests
# and benchmark build at most 113 569 and 233 388). Fixed like
# cluster.MAX_EXPECTED_CENTRES.
MAX_SPECTRUM_TERMS = 2e7


def _poisson_survival(t: float, j_max: int) -> np.ndarray:
    """P(Poisson(t) >= i) for i = 1, 2, ..., j_max.

    Identical to the regularized gamma CDF at integer shapes; computed for
    all shapes at once via a reverse cumulative sum of log-space pmf values,
    which keeps relative precision in the deep tail.
    """
    j = np.arange(j_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_pmf = j * math.log(t) - t - gammaln(j + 1.0)
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
    needed. More than ``MAX_SPECTRUM_TERMS`` terms are refused before any
    is computed.
    """
    disc = Disc(0.0, 0.0, r)
    t = p.lam * math.pi * r * r / p.nu
    # terms far into the Poisson(t) tail, in floats so a huge t gives inf
    terms = t + 15.0 * math.sqrt(t) + 60.0
    if not terms <= MAX_SPECTRUM_TERMS:
        raise ParameterError(
            f"Ginibre spectrum needs {terms:.6g} terms at beta "
            f"{math.sqrt(p.nu / (p.lam * math.pi)):.6g}, above the limit "
            f"{MAX_SPECTRUM_TERMS:.6g} terms")
    surv = _poisson_survival(t, int(terms))
    xi = p.nu * surv
    keep = int(np.searchsorted(-xi, -1e-12 * xi[0], side="right"))
    expected = p.lam * math.pi * r * r
    xi = xi[:keep]
    basis = _GinibreBasis(disc, p.nu, p.lam, surv[:keep].copy())
    return DppSpectrum(disc, np.minimum(xi, 1.0), basis,
                       truncation_error=expected - float(xi.sum()))


def gaussian_dpp_spectrum(family: GaussianDpp, rect: Rect) -> DppSpectrum:
    """Trigonometric-basis spectral approximation of the Gaussian kernel on
    a rectangle.

    Eigenvalue at integer frequency k: rho_Y*pi*beta^2 *
    exp(-pi^2 beta^2 ||(k1/L1, k2/L2)||^2), the same at k and -k. Its
    eigenfunctions are the constant at k = 0 and, for each k of the half
    plane k1 > 0 or k1 = 0 < k2, the cos and the sin of 2 pi k.t, in that
    order (see ``_TrigBasis``): so the eigenvalues are those of the complex
    exponentials at every k, as a multiset. Frequencies with eigenvalue
    below 1e-12 of the leading one are dropped and accounted for in
    ``truncation_error``. A frequency box over ``MAX_SPECTRUM_TERMS`` is
    refused; below it, the box is scanned a block of k1 rows at a time, so
    memory grows with the terms kept.
    """
    if not isinstance(rect, Rect):
        raise ParameterError("gaussian_dpp_spectrum needs a Rect domain")
    rho, beta = family.rho_Y, family.beta
    l1, l2 = rect.side_lengths
    top = rho * math.pi * beta * beta
    tol = 1e-12 * top
    expected = rho * rect.area
    if tol == 0.0:
        # the cutoff underflows: an empty spectrum only if rho_Y |D| < 1e-12
        if not expected < 1e-12:
            raise ParameterError(
                f"Gaussian spectrum at rho_Y {rho:.6g}, beta {beta:.6g} "
                f"underflows, yet its expected count is {expected:.6g}")
        return DppSpectrum(rect, np.zeros(0),
                           _TrigBasis(rect, np.zeros((0, 2), dtype=int),
                                      np.zeros(0, dtype=bool)),
                           truncation_error=expected)
    # xi >= tol  <=>  ||(k1/L1, k2/L2)|| <= sqrt(log(top/tol))/(pi beta)
    reach = math.sqrt(math.log(top / tol)) / (math.pi * beta)
    # the box |k_i| <= ceil(reach L_i), in floats so a huge reach gives inf
    n1, n2 = (2.0 * float(np.ceil(reach * l)) + 1.0 for l in (l1, l2))
    if not n1 * n2 <= MAX_SPECTRUM_TERMS:
        raise ParameterError(
            f"Gaussian frequency box is {n1:.6g} x {n2:.6g} at beta "
            f"{beta:.6g}, above the limit {MAX_SPECTRUM_TERMS:.6g} frequencies")
    k2 = np.arange(int(n2), dtype=int) - int(n2) // 2
    e2 = (math.pi * beta / l2) ** 2 * k2 ** 2
    kept = []  # the half plane's terms, from blocks of about 2^16 entries
    step = max(1, 2 ** 16 // k2.size)
    for lo in range(0, int(n1) // 2 + 1, step):
        k1 = np.arange(lo, min(lo + step, int(n1) // 2 + 1), dtype=int)
        e1 = (math.pi * beta / l1) ** 2 * k1 ** 2
        xi = top * np.exp(-(e1[:, None] + e2[None, :]))
        mask = xi >= tol
        if lo == 0:
            mask[0, k2 < 0] = False  # the half plane
        ii, jj = np.nonzero(mask)
        kept.append((k1[ii], k2[jj], xi[mask]))
    f1, f2, vals = (np.concatenate(c) for c in zip(*kept))
    # descending eigenvalue order, frequency pair as deterministic
    # tie-break: the constant, whose eigenvalue is the largest and whose
    # pair (0, 0) the least, comes first
    order = np.lexsort((f2, f1, -vals))
    pairs, vals = np.column_stack((f1, f2))[order], vals[order]
    del kept, f1, f2, order
    # every pair twice, its cos and then its sin, but the constant once
    freqs = np.repeat(pairs, 2, axis=0)[1:]
    vals = np.repeat(vals, 2)[1:]
    sine = np.zeros(vals.size, dtype=bool)
    sine[2::2] = True
    del pairs
    return DppSpectrum(rect, np.minimum(vals, 1.0), _TrigBasis(rect, freqs, sine),
                       truncation_error=expected - float(vals.sum()))


def sample_dpp(spec: DppSpectrum, rng: RngStream) -> PointPattern:
    """Draw one realization of the DPP with the given spectrum.

    Eigen-indices are kept independently with probability xi_i, drawn
    first from ``rng``: one trial per eigenfunction, so the cos and the sin
    of a frequency pair are kept or dropped apart. The kept projection
    kernel of rank k is then sampled point by point by exact rejection
    against its own diagonal ||v(x)||^2 / k, which dominates every step's
    residual density, so the draw needs no bound and never restarts; it
    runs in real arithmetic for the Gaussian kernel's trigonometric basis
    and in complex arithmetic for Ginibre. Proposals come in batches of
    min(k, 4096) with their uniforms, their basis rows formed from tables
    of powers into one block reused by every batch, and untested ones stay
    pending across steps with the coefficients they gained. Between
    batches, while 192 or more dimensions are left, the sampler moves into
    the complement of the accepted rows by one QR (see the module
    docstring), so later proposals are not projected on every row drawn.
    """
    gen = rng.generator
    idx = np.flatnonzero(gen.random(spec.eigenvalues.size) < spec.eigenvalues)
    return PointPattern(_sample_projection(spec.basis, idx, gen), spec.domain)


# A batch that runs out in a space of at least this many dimensions
# deflates the frame (see the module docstring); in smaller spaces a QR and
# the product into P cost about what they save.
_DEFLATE_RANK = 192

# Step j of a valid draw accepts a proposal with probability (k - j)/k, so
# it tests more than 64 + 60 k/(k - j) proposals with probability below
# e^-60. A basis whose rows are not orthonormal leaves a direction no
# proposal can fill and would propose forever; past this bound the step
# raises instead.
_PROPOSAL_FLOOR = 64
_PROPOSAL_FACTOR = 60


def _sq_norms(a: np.ndarray, subscripts: str = "ij,ij->i") -> np.ndarray:
    """Squared norms of the rows of a block, or with other subscripts of
    its columns ("ij,ij->j") or entries ("i,i->i"); of a complex block, as
    re^2 + im^2."""
    if a.dtype != complex:
        return np.einsum(subscripts, a, a)
    return (np.einsum(subscripts, a.real, a.real)
            + np.einsum(subscripts, a.imag, a.imag))


# Householder reflectors applied at once by ``_complement``, a block at a
# time, as LAPACK's blocked routines do.
_WY_BLOCK = 64


def _complement(f: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the complement of the r x jj block ``f``'s
    orthonormal columns (jj < r): the last r - jj columns of the complete Q
    of its Householder QR, Q = H_1 ... H_jj with H_i = I - tau_i v_i v_i^*,
    formed as Q [0; I] without Q. Each block of reflectors acts at once as
    I - V T V^*, T^-1 = diag(1/tau) + the part of V^* V above its diagonal
    (the compact WY form), so this is LAPACK's unmqr in numpy's own BLAS:
    forming all r columns of Q, which numpy's complete QR does, takes about
    twice the time."""
    r, jj = f.shape
    h, tau = np.linalg.qr(f, mode="raw")  # the reflectors below h.T's diagonal
    x = np.eye(r, r - jj, -jj, dtype=f.dtype)
    for lo in range((jj - 1) // _WY_BLOCK * _WY_BLOCK, -1, -_WY_BLOCK):
        hi = min(lo + _WY_BLOCK, jj)
        v = np.tril(h.T[lo:, lo:hi], -1)
        np.fill_diagonal(v, 1.0)
        t_inv = np.triu(v.conj().T @ v, 1)
        np.fill_diagonal(t_inv, 1.0 / tau[lo:hi])
        x[lo:] -= v @ np.linalg.solve(t_inv, v.conj().T @ x[lo:])
    return np.ascontiguousarray(x.T)


def _sample_projection(basis, idx: np.ndarray,
                       gen: np.random.Generator) -> np.ndarray:
    k = idx.size
    rows = basis.rows(idx)
    size = min(k, 4096)
    dtype = basis.dtype  # of the rows, and so of every block below
    # conjugates of the orthonormal rows e_0, ..., e_{jj-1} of the frame in
    # the current space's coordinates, and each pending proposal's
    # coefficients <e_l, a> = (frame @ a)_l, l < jj
    frame = np.empty((k, k), dtype=dtype)
    coef = np.empty((k, size), dtype=dtype)
    batch = None  # every batch's rows, in turn, in one block
    pts = np.empty((k, 2))
    proj = None  # P, orthonormal rows spanning the current space; None is I
    r, jj = k, 0  # the current space's dimension and the frame's rows in it
    # the pending proposals are those from start on, with their
    # coordinates a = v @ P.T and squared norms asq = ||a||^2
    start, test = 0, np.empty(0)
    for j in range(k):
        tested = 0
        bound = _PROPOSAL_FLOOR + _PROPOSAL_FACTOR * k / (k - j)
        while True:
            if start == len(test):
                a = c = None  # nothing is pending; c is a view of coef
                if jj and r >= _DEFLATE_RANK:
                    # C spans the frame's complement, where the frame
                    # restarts. No rows or coefficients are held through
                    # the QR, nor the old frame (e views it) after it.
                    coef = batch = e = None
                    comp = _complement(frame[:jj].T)
                    proj = comp if proj is None else comp @ proj
                    r, jj = r - jj, 0
                    frame = np.empty((r, r), dtype=dtype)
                    coef = np.empty((r, size), dtype=dtype)
                x = basis.propose(idx, size, gen)
                a = batch = rows(x, batch)
                sq = _sq_norms(a)
                test = gen.random(size) * sq
                if proj is not None:
                    a = a @ proj.T
                asq = sq if proj is None else _sq_norms(a)
                c = np.matmul(frame[:jj], a.T, out=coef[:jj])
                res = asq - _sq_norms(c, "ij,ij->j")
                start = 0
            hit = test[start:] < res[start:]
            h = start + int(hit.argmax())
            if not hit[h - start]:
                tested += len(test) - start
                if tested > bound:
                    raise RuntimeError(
                        f"DPP draw stuck at step {j} of k={k}: {tested} "
                        f"proposals tested; the basis rows are not "
                        f"orthonormal")
                start = len(test)
                continue
            tested += h + 1 - start
            start = h + 1
            # the conjugate of a's component off the frame, from its kept
            # coefficients; a second pass only if the first lost over half
            # the squared norm
            e = frame[:jj]
            u = a[h].conj() - coef[:jj, h].conj() @ e
            usq = np.vdot(u, u).real
            if usq < 0.5 * asq[h]:
                u -= (e @ u.conj()).conj() @ e
                usq = np.vdot(u, u).real
            if usq < 1e-24 * sq[h]:
                # accepted into an already-exhausted direction (pure
                # rounding artifact, probability ~0); propose again
                continue
            pts[j] = x[h]
            np.divide(u, math.sqrt(usq), out=frame[jj])
            if start < len(test):
                c = np.matmul(a[start:], frame[jj], out=coef[jj, start:len(test)])
                res[start:] -= _sq_norms(c, "i,i->i")
            jj += 1
            break
    return pts


def nth_order_intensity(family: GaussianDpp | GinibreDpp, points) -> float:
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


def kernel_matrix(family: GaussianDpp | GinibreDpp, points) -> np.ndarray:
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

