import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import chisquare, kstest

from dsncp import dpp
from dsncp.core import (
    Disc,
    ExistenceError,
    ParameterError,
    Rect,
    RngStream,
)
from dsncp.dpp import (
    DppSpectrum,
    GaussianDpp,
    GinibreDpp,
    GinibreParams,
    gaussian_dpp_spectrum,
    ginibre_spectrum,
    kernel_matrix,
    max_admissible_beta,
    most_repulsive_intensity,
    nth_order_intensity,
    sample_dpp,
    _FourierBasis,
    _GinibreBasis,
)


class TestValidation:
    def test_standard_ginibre_boundary_ok(self):
        GinibreDpp(rho_Y=1 / math.pi, beta=1.0)

    def test_just_past_boundary_rejected_with_max_beta(self):
        with pytest.raises(ExistenceError) as exc:
            GaussianDpp(rho_Y=1 / math.pi, beta=1.01)
        assert exc.value.max_beta == pytest.approx(1.0, rel=1e-12)

    def test_most_repulsive_from_intensity_ok(self):
        rho = 30.0
        GinibreDpp(rho_Y=rho, beta=math.sqrt(1 / (30 * math.pi)))
        assert max_admissible_beta(rho) == pytest.approx(0.10301, abs=1e-5)

    def test_round_trip_most_repulsive(self):
        # intensity computed from beta must validate at any beta
        for beta in (0.05, 0.3, 1.0, 4.0):
            rho = most_repulsive_intensity(beta)
            GaussianDpp(rho, beta)
            GinibreDpp(rho, beta)

    def test_rejects_exactly_past_bound(self):
        rho = 2.7
        bmax = max_admissible_beta(rho)
        GaussianDpp(rho, bmax)
        with pytest.raises(ExistenceError):
            GaussianDpp(rho, bmax * 1.0001)

    def test_field_positivity(self):
        with pytest.raises(ParameterError):
            GaussianDpp(rho_Y=0.0, beta=1.0)
        with pytest.raises(ParameterError):
            GinibreDpp(rho_Y=1.0, beta=-1.0)

    def test_ginibre_params_domain(self):
        with pytest.raises(ParameterError):
            GinibreParams(nu=0.0, lam=1.0)
        with pytest.raises(ParameterError):
            GinibreParams(nu=1.2, lam=1.0)
        p = GinibreParams.from_family(GinibreDpp(rho_Y=1 / math.pi, beta=1.0))
        assert p.nu == pytest.approx(1.0)
        assert p.lam == pytest.approx(1 / math.pi)
        # nu = rho_Y pi beta^2 maps back to beta = 1
        assert math.sqrt(p.nu / (p.lam * math.pi)) == pytest.approx(1.0)


def _correlation_sq(fam, y) -> float:
    """|C(0, y)|^2 / rho_Y^2 = exp(-|y|^2 / s^2), s^2 the family's range_sq."""
    return math.exp(-(y[0] ** 2 + y[1] ** 2) / fam.range_sq)


class TestKernelCorrelation:
    def test_zero_lag(self):
        # two points at one place: the pair intensity vanishes
        for fam in (GaussianDpp(0.1, 1.0), GinibreDpp(0.1, 1.0)):
            u = np.array([0.3, -0.2])
            assert nth_order_intensity(fam, [u, u]) == pytest.approx(
                0.0, abs=1e-15)

    def test_frozen_values(self):
        for fam, lag, want in ((GaussianDpp(0.01, 2.0), [2.0, 0.0], -2.0),
                               (GinibreDpp(0.01, 2.0), [0.0, 2.0], -1.0)):
            pair = nth_order_intensity(fam, [[0.5, 0.5], np.add([0.5, 0.5], lag)])
            assert pair == pytest.approx(
                fam.rho_Y ** 2 * (1.0 - math.exp(want)), rel=1e-14)

    def test_pair_intensity_consistency(self):
        # det-based second order intensity / rho^2 == 1 - |r|^2/rho^2
        gen = RngStream(17, 0).generator
        for fam in (GaussianDpp(0.7, 0.6), GinibreDpp(1.3, 0.4)):
            for _ in range(50):
                u, v = gen.normal(0.0, 1.0, (2, 2))
                lhs = nth_order_intensity(fam, [u, v]) / fam.rho_Y ** 2
                rhs = 1.0 - _correlation_sq(fam, u - v)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_range_sq(self):
        assert GaussianDpp(0.01, 0.3).range_sq == 0.3 ** 2 / 2.0
        assert GinibreDpp(0.01, 0.3).range_sq == 0.3 ** 2

    def test_vectorized_lags(self):
        # one row of the kernel matrix holds the correlation at every lag
        lags = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0], [-0.3, 0.4]])
        for fam in (GaussianDpp(1.0, 0.5), GinibreDpp(1.0, 0.5)):
            row = kernel_matrix(fam, lags)[0]
            got = np.abs(row) ** 2 / fam.rho_Y ** 2
            want = [_correlation_sq(fam, y) for y in lags]
            assert got[0] == 1.0
            np.testing.assert_allclose(got, want, rtol=1e-14)


class TestGinibreSpectrum:
    def test_leading_eigenvalue(self):
        spec = ginibre_spectrum(GinibreParams(1.0, 1 / math.pi), r=1.0)
        assert spec.eigenvalues[0] == pytest.approx(1.0 - math.exp(-1.0),
                                                    rel=1e-12)

    def test_eigenvalue_sum_is_expected_count(self):
        spec = ginibre_spectrum(GinibreParams(1.0, 1 / math.pi), r=5.0)
        assert spec.eigenvalues.sum() == pytest.approx(25.0, abs=1e-9)
        assert 0 <= spec.truncation_error < 1e-9

    def test_eigenvalues_decreasing_and_bounded(self):
        p = GinibreParams(0.6, 3.0)
        spec = ginibre_spectrum(p, r=2.0)
        xi = spec.eigenvalues
        assert np.all(xi[:-1] >= xi[1:])
        assert np.all(xi <= p.nu + 1e-15)
        assert np.all(xi > 0)

    def test_matches_gamma_cdf_oracle(self):
        p = GinibreParams(0.8, 2.0)
        r = 1.7
        t = p.lam * math.pi * r * r / p.nu
        spec = ginibre_spectrum(p, r)
        for i in (1, 2, 5, 10, len(spec.eigenvalues)):
            assert spec.eigenvalues[i - 1] == pytest.approx(
                p.nu * gammainc(float(i), t), rel=1e-10), i

    def test_truncation_threshold_respected(self):
        # the cutoff is 1e-12 of the leading eigenvalue: the first dropped
        # one, nu * P(m + 1, t), falls below it and the last kept does not
        p = GinibreParams(1.0, 1 / math.pi)
        r = 3.0
        spec = ginibre_spectrum(p, r)
        xi = spec.eigenvalues
        m = len(xi)
        assert xi[-1] >= 1e-12 * xi[0]
        assert p.nu * gammainc(float(m + 1), r * r) < 1e-12 * xi[0]
        assert spec.truncation_error == pytest.approx(r * r - xi.sum(),
                                                      abs=1e-12)
        with pytest.raises(ParameterError):
            ginibre_spectrum(p, r=-1.0)

    def test_eigenfunctions_orthonormal_on_disc(self):
        # radial Gauss-Legendre x exact angular integration oracle
        p = GinibreParams(0.9, 1.1)
        r = 2.3
        spec = ginibre_spectrum(p, r)
        m = min(len(spec.eigenvalues), 40)
        nodes, weights = np.polynomial.legendre.leggauss(240)
        s = 0.5 * r * (nodes + 1.0)
        w = 0.5 * r * weights
        pts = np.column_stack((s, np.zeros_like(s)))
        vals = spec.basis.rows(np.arange(m))(pts)  # (nodes, m); radial part
        mods = np.abs(vals) ** 2
        # angular integral of phi_i conj(phi_j) vanishes unless i = j
        diag = 2.0 * math.pi * np.sum(w[:, None] * s[:, None] * mods, axis=0)
        assert np.allclose(diag, 1.0, atol=1e-9)

    def test_eigenfunction_small_index_formula(self):
        p = GinibreParams(0.7, 0.9)
        r = 1.4
        t = p.lam * math.pi * r * r / p.nu
        spec = ginibre_spectrum(p, r)
        u = complex(0.31, -0.52)
        for i in (1, 2, 3, 7):
            raw = (math.sqrt(p.lam) * (p.lam * math.pi) ** ((i - 1) / 2)
                   / math.sqrt(math.factorial(i - 1) * p.nu ** i)
                   * math.exp(-p.lam * math.pi * abs(u) ** 2 / (2 * p.nu))
                   * u ** (i - 1))
            expect = raw / math.sqrt(gammainc(float(i), t))
            got = spec.basis.rows(np.array([i - 1]))(
                np.array([[u.real, u.imag]]))[0, 0]
            assert got == pytest.approx(expect, rel=1e-10), i

    def test_large_count_stability(self):
        # several hundred eigenvalues, log-space path must not overflow
        p = GinibreParams(1.0, 50.0)
        spec = ginibre_spectrum(p, r=1.5)
        assert len(spec.eigenvalues) > 300
        assert spec.eigenvalues.sum() == pytest.approx(
            50 * math.pi * 1.5 ** 2, abs=1e-6)
        val = spec.basis.rows(np.array([250]))(np.array([[0.7, 0.2]]))[0, 0]
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestGaussianSpectrum:
    def test_boundary_top_eigenvalue_saturates(self):
        rect = Rect(0.0, 5.0, 0.0, 5.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(1 / math.pi, 1.0), rect)
        assert spec.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(spec.eigenvalues <= 1.0)

    def test_eigenvalue_sum_matches_expected_count(self):
        rect = Rect(0.0, 20.0, 0.0, 20.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(1 / (4 * math.pi), 2.0), rect)
        assert spec.eigenvalues.sum() == pytest.approx(400 / (4 * math.pi),
                                                       rel=1e-9)
        assert spec.eigenvalues.sum() == pytest.approx(31.831, abs=1e-3)
        assert 0 <= spec.truncation_error < 1e-8

    def test_explicit_eigenvalue_formula(self):
        rho, beta = 0.05, 1.2
        rect = Rect(-3.0, 9.0, 2.0, 10.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(rho, beta), rect)
        freqs = spec.basis.freqs
        l1, l2 = rect.side_lengths
        expect = (rho * math.pi * beta ** 2
                  * np.exp(-math.pi ** 2 * beta ** 2
                           * ((freqs[:, 0] / l1) ** 2 + (freqs[:, 1] / l2) ** 2)))
        assert np.allclose(spec.eigenvalues, expect, rtol=1e-12)
        assert spec.eigenvalues[0] == pytest.approx(rho * math.pi * beta ** 2)

    def test_small_beta_spectrum_flattens(self):
        rect = Rect(0.0, 1.0, 0.0, 1.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(10.0, 0.01), rect)
        top = 10 * math.pi * 1e-4
        assert spec.eigenvalues[0] == pytest.approx(top, rel=1e-12)
        assert spec.eigenvalues.sum() == pytest.approx(10.0, rel=1e-9)

    def test_existence_violation_propagates(self):
        with pytest.raises(ExistenceError):
            gaussian_dpp_spectrum(GaussianDpp(1.0, 1.0), Rect(0, 1, 0, 1))

    def test_fourier_orthonormality(self):
        rect = Rect(0.0, 2.0, 0.0, 3.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(0.2, 0.8), rect)
        # |phi_k|^2 == 1/area everywhere; cross products integrate to 0 by
        # exactness of the trapezoid rule for complex exponentials
        pts = rect.sample_uniform(64, RngStream(1, 0).generator)
        mat = spec.basis.rows(np.arange(min(10, len(spec.eigenvalues))))(pts)
        assert np.allclose(np.abs(mat) ** 2, 1.0 / rect.area, rtol=1e-12)


def _count_moments(spec: DppSpectrum, reps: int, seed: int):
    root = RngStream(seed, 0)
    counts = np.array([sample_dpp(spec, root.substream(i)).n
                       for i in range(reps)])
    return counts.mean(), counts.var(ddof=1), counts


class TestSampler:
    def test_empty_spectrum_gives_empty_pattern(self):
        # rho_Y * pi * beta^2 underflows to 0, or to a subnormal whose
        # 1e-12 cutoff underflows to 0: no eigenvalue is kept
        rect = Rect(0.0, 1.0, 0.0, 1.0)
        for beta in (1e-20, 1.5e-12):
            spec = gaussian_dpp_spectrum(GaussianDpp(1e-300, beta), rect)
            assert len(spec.eigenvalues) == 0
            p = sample_dpp(spec, RngStream(0, 0))
            assert p.n == 0
            assert p.window is rect

    def test_determinism(self):
        spec = ginibre_spectrum(GinibreParams(1.0, 1 / math.pi), r=4.0)
        a = sample_dpp(spec, RngStream(5, 3))
        b = sample_dpp(spec, RngStream(5, 3))
        assert np.array_equal(a.points, b.points)
        c = sample_dpp(spec, RngStream(5, 4))
        assert not np.array_equal(a.points, c.points)

    def test_points_inside_domain(self):
        spec = ginibre_spectrum(GinibreParams(0.9, 2.0), r=2.0)
        for i in range(5):
            p = sample_dpp(spec, RngStream(21, i))
            assert np.all(Disc(0, 0, 2.0).contains(p.points))

    @pytest.mark.slow
    def test_ginibre_count_moments(self):
        spec = ginibre_spectrum(GinibreParams(1.0, 1 / math.pi), r=5.0)
        xi = spec.eigenvalues
        mean_th = xi.sum()
        var_th = float((xi * (1 - xi)).sum())
        mean, var, counts = _count_moments(spec, 400, seed=101)
        se_mean = math.sqrt(var_th / len(counts))
        assert abs(mean - mean_th) <= 3 * se_mean
        # SE of the sample variance of a sum of independent Bernoullis,
        # approximated via the observed fourth moment
        m4 = np.mean((counts - counts.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var ** 2, 0.0) / len(counts))
        assert abs(var - var_th) <= 3 * se_var + 1e-9

    @pytest.mark.slow
    def test_gaussian_count_mean(self):
        rect = Rect(0.0, 20.0, 0.0, 20.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(1 / (4 * math.pi), 2.0), rect)
        xi = spec.eigenvalues
        mean, var, counts = _count_moments(spec, 300, seed=7)
        se = math.sqrt(float((xi * (1 - xi)).sum()) / len(counts))
        assert abs(mean - xi.sum()) <= 3 * se

    @pytest.mark.slow
    def test_repulsion_short_range(self):
        # nearest-neighbour distances of a most-repulsive Ginibre sample are
        # stochastically larger than under Poisson with the same intensity
        from scipy.spatial import cKDTree

        spec = ginibre_spectrum(GinibreParams(1.0, 1 / math.pi), r=5.0)
        root = RngStream(303, 0)
        nn = []
        for i in range(60):
            p = sample_dpp(spec, root.substream(i))
            if p.n > 1:
                d, _ = cKDTree(p.points).query(p.points, k=2)
                nn.extend(d[:, 1])
        # Poisson(1/pi) mean NN distance is 1/(2 sqrt(rho)) = 0.886;
        # Ginibre repulsion pushes it up by a clear margin
        assert np.mean(nn) > 1.0


def _selection(spec, rng):
    """The eigen-indices ``sample_dpp`` keeps: its first draws from rng."""
    xi = spec.eigenvalues
    return np.flatnonzero(rng.generator.random(xi.size) < xi)


@st.composite
def small_spectra(draw):
    """A Fourier spectrum on a random rectangle or a Ginibre spectrum on a
    random disc, with at most a few dozen eigenfunctions."""
    if draw(st.booleans()):
        x0 = draw(st.floats(-5.0, 5.0))
        y0 = draw(st.floats(-5.0, 5.0))
        rect = Rect(x0, x0 + draw(st.floats(0.2, 3.0)),
                    y0, y0 + draw(st.floats(0.2, 3.0)))
        pairs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              min_size=1, max_size=12, unique=True))
        xi = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pairs),
                           max_size=len(pairs)))
        return DppSpectrum(rect, np.array(xi),
                           _FourierBasis(rect, np.array(pairs)), 0.0)
    nu = draw(st.floats(0.2, 1.0))
    lam = draw(st.floats(0.5, 20.0))
    r = draw(st.floats(0.2, 1.5))
    if lam * math.pi * r * r / nu > 30.0:
        r = math.sqrt(30.0 * nu / (lam * math.pi))
    return ginibre_spectrum(GinibreParams(nu, lam), r)


def _forced_deflation():
    """The sampler deflating as often as it can: whenever a batch runs out
    and the frame is not empty."""
    return mock.patch.object(dpp, "_DEFLATE_RANK", 1)


def _all_ones(k):
    """A rank-k projection spectrum: the k Fourier frequencies nearest 0 on
    the unit square, each with eigenvalue 1."""
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    grid = np.array([(a, b) for a in range(-15, 16) for b in range(-15, 16)])
    freqs = grid[np.argsort((grid ** 2).sum(axis=1), kind="stable")][:k]
    return DppSpectrum(rect, np.ones(k), _FourierBasis(rect, freqs), 0.0)


def _deflation_count(spec, rng):
    """How many times ``sample_dpp`` deflates its frame in one draw: one
    complete QR each."""
    qr = np.linalg.qr
    with mock.patch.object(np.linalg, "qr", side_effect=qr) as spy:
        sample_dpp(spec, rng)
    return spy.call_count


def _check_full_rank_k_point_set(spec, seed):
    idx = _selection(spec, RngStream(seed, 1))
    p = sample_dpp(spec, RngStream(seed, 1))
    assert p.n == idx.size
    assert np.all(spec.domain.contains(p.points))
    if idx.size:
        v = spec.basis.rows(idx)(p.points)
        assert np.linalg.matrix_rank(v) == idx.size
    again = sample_dpp(spec, RngStream(seed, 1))
    assert np.array_equal(p.points, again.points)


def _check_fourier_projection_law(seed):
    # all-ones spectrum on S = {s in Z^2 : |s|^2 < 10}: for q != 0,
    # E[|sum_i exp(2 pi i q.x_i)|^2] - k = -#{(s, t) in S^2 : s - t = q}
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    freqs = np.array([(a, b) for a in range(-3, 4) for b in range(-3, 4)
                      if a * a + b * b < 10])
    k = len(freqs)
    assert k == 29
    spec = DppSpectrum(rect, np.ones(k), _FourierBasis(rect, freqs), 0.0)
    qs = np.array([(1, 0), (0, 1), (1, 1), (2, 1), (3, 0), (5, 2)])
    diffs = freqs[:, None, :] - freqs[None, :, :]
    n_q = np.array([np.all(diffs == q, axis=-1).sum() for q in qs])
    root = RngStream(seed, 0)
    reps = 2000
    stat = np.empty((reps, qs.shape[0]))
    for i in range(reps):
        x = sample_dpp(spec, root.substream(i)).points
        assert x.shape == (k, 2)
        stat[i] = np.abs(np.exp(2j * math.pi * x @ qs.T).sum(axis=0)) ** 2 - k
    dev = stat + n_q
    z = dev.mean(axis=0) / (dev.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.all(np.abs(z) <= 4.0), z
    # jointly: Hotelling's T^2 is about chi^2 with 6 degrees of freedom,
    # and 27.86 is its 1e-4 upper quantile. A sampler that tests pending
    # proposals against stale residuals shifts all six means the same
    # way and reads T^2 = 35-56 at seeds 7, 11-14.
    mean = dev.mean(axis=0)
    t2 = reps * mean @ np.linalg.solve(np.cov(dev, rowvar=False), mean)
    assert t2 <= 27.86, (t2, z)


def _child_env() -> dict:
    """The environment of a child python that imports this dsncp."""
    src = str(Path(dpp.__file__).parent.parent)
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestProjectionSampler:
    """The sequential step, seen apart from the Bernoulli selection: a
    projection DPP of rank k has exactly k points."""

    @given(spec=small_spectra(), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_draw_is_a_full_rank_k_point_set(self, spec, seed):
        _check_full_rank_k_point_set(spec, seed)

    @given(spec=small_spectra(), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_deflating_draw_is_a_full_rank_k_point_set(self, spec, seed):
        with _forced_deflation():
            _check_full_rank_k_point_set(spec, seed)

    @pytest.mark.slow
    def test_fourier_projection_law(self):
        _check_fourier_projection_law(seed=7)

    @pytest.mark.slow
    def test_deflating_fourier_projection_law(self):
        # k = 29 never deflates under the default rule; forced, its 2000
        # draws deflate 1-5 times each, 3 on average
        with _forced_deflation():
            _check_fourier_projection_law(seed=7)

    def test_deflation_counts(self):
        assert _deflation_count(_all_ones(29), RngStream(3, 0)) == 0
        with _forced_deflation():
            assert _deflation_count(_all_ones(29), RngStream(3, 0)) == 4
        # a rank of 191 stays below the rule; 192 and 400 deflate at the
        # first refill (to 77 and 149 dimensions), and 600 at the first two
        # (600 -> 214 -> 73)
        assert _deflation_count(_all_ones(191), RngStream(3, 0)) == 0
        assert _deflation_count(_all_ones(192), RngStream(3, 0)) == 1
        assert _deflation_count(_all_ones(400), RngStream(3, 0)) == 1
        assert _deflation_count(_all_ones(600), RngStream(3, 0)) == 2

    @pytest.mark.parametrize("family", ["gaussian", "ginibre"])
    def test_deflation_keeps_the_draw(self, family):
        # the proposals, uniforms and tests are the same and a deflation
        # leaves no proposal pending, so a draw that deflates accepts the
        # same proposals as one that never does (these ranks are below the
        # default rule), up to rounding in the residuals
        if family == "gaussian":
            spec = gaussian_dpp_spectrum(GaussianDpp(105.36, 0.05),
                                         Rect(0.0, 1.0, 0.0, 1.0))
        else:
            spec = ginibre_spectrum(GinibreParams(1.0, 35.32), r=0.8)
        for seed in range(4):
            never = sample_dpp(spec, RngStream(seed, 0)).points
            with mock.patch.object(dpp, "_DEFLATE_RANK", 16):
                wide = sample_dpp(spec, RngStream(seed, 0)).points
            with _forced_deflation():
                forced = sample_dpp(spec, RngStream(seed, 0)).points
            assert never.shape[0] > 40
            assert np.array_equal(wide, never)
            assert np.array_equal(forced, never)

    @pytest.mark.parametrize("family", ["gaussian", "ginibre"])
    def test_default_deflation_keeps_the_draw(self, family):
        # ranks from 192 to 300 deflate under the default rule, and draw
        # the points, and use the stream, of a sampler that never does
        if family == "gaussian":
            spec = gaussian_dpp_spectrum(
                GaussianDpp(250.0, max_admissible_beta(250.0)),
                Rect(0.0, 1.0, 0.0, 1.0))
        else:
            spec = ginibre_spectrum(GinibreParams(1.0, 35.32), r=1.5)

        def draw(rng):
            return sample_dpp(spec, rng).points, rng.generator.random()
        for seed in range(4):
            k = _selection(spec, RngStream(seed, 0)).size
            assert 192 <= k <= 300
            assert _deflation_count(spec, RngStream(seed, 0)) >= 1
            default = draw(RngStream(seed, 0))
            with mock.patch.object(dpp, "_DEFLATE_RANK", k + 1):
                assert _deflation_count(spec, RngStream(seed, 0)) == 0
                never = draw(RngStream(seed, 0))
            assert np.array_equal(default[0], never[0])
            assert default[1] == never[1]

    @pytest.mark.parametrize("family", ["fourier", "ginibre"])
    def test_memory_peak_at_k_600(self, family):
        # the most memory one draw's arrays hold at once, in frames of
        # 16 k^2 bytes (the k x k complex frame): the pool's rows and
        # coefficients beside the frame, or at the first deflation the frame
        # with its QR factors, about 3.4 (see cluster.MAX_EXPECTED_RANK)
        k = 600
        if family == "fourier":
            basis = _all_ones(k).basis
        else:
            basis = ginibre_spectrum(GinibreParams(1.0, 35.32), r=2.5).basis
        for seed in range(3):
            tracemalloc.start()
            try:
                dpp._sample_projection(basis, np.arange(k),
                                       np.random.default_rng(seed))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * 16 * k * k, peak / (16 * k * k)

    def test_large_window_draw_scales_exactly(self):
        # the unit square and the square scaled by 2^44, with rho_Y 2^-88
        # and beta 2^44: every float of the draw scales by a power of two,
        # so the points do too, to the bit. There ||v||^2 = k/|D| is about
        # 1e-24, below any absolute guard on a row's norm, so the draw runs
        # in a child that cannot hang this process.
        script = (
            "import math\n"
            "import numpy as np\n"
            "from dsncp.core import Rect, RngStream\n"
            "from dsncp.dpp import GaussianDpp, gaussian_dpp_spectrum, "
            "sample_dpp\n"
            "rho, s = 100.0, 2.0 ** 44\n"
            "beta = 0.9 / math.sqrt(math.pi * rho)\n"
            "unit, big = (sample_dpp(gaussian_dpp_spectrum(\n"
            "    GaussianDpp(rho / (c * c), beta * c), Rect(0.0, c, 0.0, c)),\n"
            "    RngStream(5, 0)).points for c in (1.0, s))\n"
            "assert unit.shape[0] > 60, unit.shape\n"
            "assert np.array_equal(big, s * unit)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_rank_deficient_basis_raises(self):
        # a Fourier basis of k = 20 whose second column copies its first
        # spans 19 dimensions, so the last step can never accept; the draw
        # runs in a child whose timeout catches a sampler that hangs
        script = (
            "import numpy as np\n"
            "from dsncp.core import Rect, RngStream\n"
            "from dsncp.dpp import DppSpectrum, _FourierBasis, sample_dpp\n"
            "rect = Rect(0.0, 1.0, 0.0, 1.0)\n"
            "freqs = [(a, b) for a in range(-2, 3) for b in range(-2, 2)]\n"
            "freqs[1] = freqs[0]\n"
            "spec = DppSpectrum(rect, np.ones(20),\n"
            "                   _FourierBasis(rect, np.array(freqs)), 0.0)\n"
            "sample_dpp(spec, RngStream(3, 0))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 1
        assert re.search(r"RuntimeError: DPP draw stuck at step 19 of "
                         r"k=20: \d+ proposals tested", proc.stderr), \
            proc.stderr


def _fourier_direct(basis, pts, idx):
    """exp(2 pi i (k1 (x - x0) / L1 + k2 (y - y0) / L2)) / sqrt(|D|).

    Each axis's phase k (x - x0) / L is reduced mod 1 in exact rational
    arithmetic and only then rounded, so an entry is within about 1e-15 of
    the formula; a phase formed in doubles would be off by about 1e-16
    |phase|, 5e-14 at the frequencies below."""
    rect = basis.rect
    freqs = basis.freqs[idx]
    turns = []
    for axis, (x0, side) in enumerate(zip((rect.xmin, rect.ymin),
                                          rect.side_lengths)):
        ks, inv = np.unique(freqs[:, axis], return_inverse=True)
        table = np.empty((len(pts), ks.size))
        for a, x in enumerate(pts[:, axis]):
            t = (Fraction(x) - Fraction(x0)) / Fraction(side)
            for b, k in enumerate(ks):
                q = int(k) * t
                table[a, b] = float(q - round(q))
        turns.append(table[:, inv])
    phase = turns[0] + turns[1]
    phase -= np.rint(phase)
    return np.exp(2j * math.pi * phase) / math.sqrt(rect.area)


def _ginibre_direct(basis, pts, idx):
    """norm_i * exp(-coef |u|^2 / 2) * u^i, one entry at a time in 40-digit
    decimal arithmetic from the same doubles, rounded once. A double u ** i
    is off by up to i ulps (CPython takes i > 100 through atan2, 3.6e-13 at
    the strip spectrum's rim), and a subnormal power loses its digits."""
    out = np.empty((len(pts), len(idx)), dtype=complex)
    with localcontext() as ctx:
        ctx.prec = 40
        norms = [Decimal(basis.log_norms[i]).exp() for i in idx]
        for a, (x, y) in enumerate(pts):
            ux, uy = Decimal(x - basis.disc.cx), Decimal(y - basis.disc.cy)
            decay = (-Decimal(basis.coef) * (ux * ux + uy * uy) / 2).exp()
            powers, re, im = [], Decimal(1), Decimal(0)
            for _ in range(int(max(idx)) + 1):
                powers.append((re, im))
                re, im = re * ux - im * uy, re * uy + im * ux
            for b, i in enumerate(idx):
                re, im = powers[i]
                f = norms[b] * decay
                out[a, b] = complex(float(f * re), float(f * im))
    return out


def _rel_err(got, want, floor=None):
    """Largest entrywise relative error. Zeros must match exactly, or with
    ``floor``, only entries whose reference is at least ``floor`` in
    modulus are compared."""
    if floor is None:
        keep = want != 0
        assert np.array_equal(got[~keep], want[~keep])
    else:
        keep = np.abs(want) >= floor
    return float(np.max(np.abs(got - want)[keep] / np.abs(want)[keep]))


def _strip_spectrum():
    """``dpp-large-k``'s Ginibre spectrum: the whiteoak most-repulsive fit
    on the disc around the 4 x 0.25 strip, extended by four offspring
    standard deviations."""
    gin = GinibreDpp(35.32, max_admissible_beta(35.32))
    strip = Rect(0.0, 4.0, 0.0, 0.25).grow(0.2)
    return ginibre_spectrum(GinibreParams.from_family(gin), strip.circumradius)


def _disc_points(r, seed):
    """60 points uniform on b(0, r), the centre, where only i = 0 is non-zero,
    and two on the rim."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, 60)
    rad = r * np.sqrt(rng.random(60))
    pts = np.column_stack((rad * np.cos(theta), rad * np.sin(theta)))
    return np.vstack((pts, [[0.0, 0.0], [r * math.cos(2.0), r * math.sin(2.0)],
                            [-r, 0.0]]))


class TestBasisRows:
    """The sampler's rows against the formulas written out entry by entry."""

    def _selections(self, m, seed):
        rng = np.random.default_rng(seed)
        yield np.arange(m)
        for _ in range(3):
            yield np.flatnonzero(rng.random(m) < 0.4)

    @pytest.mark.parametrize("rect,rho,beta", [
        (Rect(0.0, 1.0, 0.0, 1.0), 105.36, 0.05),
        (Rect(-3.0, 9.0, 2.0, 10.0), 0.05, 1.2),
        pytest.param(Rect(-0.12, 2.12, -0.12, 2.12), 105.36,
                     max_admissible_beta(105.36), id="dpp-large-k"),
    ])
    def test_fourier_rows(self, rect, rho, beta):
        # the builder's exp(2 pi i t) is within about an ulp, and a power f
        # adds about 16 + f/16 roundings; the spectra reach f = 70
        spec = gaussian_dpp_spectrum(GaussianDpp(rho, beta), rect)
        pts = rect.sample_uniform(60, np.random.default_rng(1))
        pts = np.vstack((pts, [[rect.xmin, rect.ymin], [rect.xmax, rect.ymax]]))
        for idx in self._selections(spec.eigenvalues.size, 2):
            got = spec.basis.rows(idx)(pts)
            assert _rel_err(got, _fourier_direct(spec.basis, pts, idx)) <= 1e-13

    @pytest.mark.parametrize("nu,lam,r", [(0.7, 0.9, 1.4), (1.0, 35.32, 0.8),
                                          (0.6, 20.0, 1.0)])
    def test_ginibre_rows(self, nu, lam, r):
        spec = ginibre_spectrum(GinibreParams(nu, lam), r)
        pts = _disc_points(r, 4)
        for idx in self._selections(spec.eigenvalues.size, 5):
            got = spec.basis.rows(idx)(pts)
            assert _rel_err(got, _ginibre_direct(spec.basis, pts, idx)) <= 1e-13
        centre = spec.basis.rows(np.arange(3))(np.zeros((1, 2)))[0]
        assert centre[0] == math.exp(spec.basis.log_norms[0])
        assert np.all(centre[1:] == 0)

    def test_ginibre_rows_large_k(self):
        # dpp-large-k's strip spectrum, 721 terms, where entries reach
        # index 720 on the rim and fall below the smallest normal double
        # near the centre; those are left out, as their digits are lost
        spec = _strip_spectrum()
        assert spec.eigenvalues.size == 721
        pts = _disc_points(spec.domain.radius, 4)
        for idx in self._selections(spec.eigenvalues.size, 5):
            got = spec.basis.rows(idx)(pts)
            want = _ginibre_direct(spec.basis, pts, idx)
            tiny = np.finfo(float).tiny
            assert np.count_nonzero(np.abs(want) >= tiny) > 0.5 * want.size
            assert _rel_err(got, want, floor=tiny) <= 1e-13

    def test_ginibre_rows_high_index(self):
        # a sparse selection of a 4475-term spectrum (nu = 0.01), past index
        # 4096, where a power goes through three base-16 digits; a double
        # evaluation of u^i carries about i roundings, so the bound grows
        # by 1e-16 per index
        spec = ginibre_spectrum(GinibreParams(0.01, 20.0), 0.8)
        m = spec.eigenvalues.size
        rng = np.random.default_rng(3)
        idx = np.unique(np.concatenate(([0, 1, 15, 16, 255, 256, 4095, 4096,
                                         m - 1], rng.integers(0, m, 40))))
        theta = rng.uniform(0.0, 2.0 * math.pi, 30)
        rad = 0.8 * np.sqrt(rng.uniform(0.8, 1.0, 30))  # where i > 4096 lives
        pts = np.column_stack((rad * np.cos(theta), rad * np.sin(theta)))
        got = spec.basis.rows(idx)(pts)
        want = _ginibre_direct(spec.basis, pts, idx)
        keep = np.abs(want) >= np.finfo(float).tiny
        assert np.count_nonzero(keep[:, idx > 4096]) > 30
        err = np.abs(got - want) / np.where(keep, np.abs(want), 1.0)
        assert np.all(err[keep] <= np.broadcast_to(1e-13 + 1e-16 * idx,
                                                   err.shape)[keep])

    def test_ginibre_rows_at_the_centre_raise_nothing(self):
        # no log(0), no 0 * inf and no underflow at or off the centre
        spec = ginibre_spectrum(GinibreParams(0.7, 0.9), 1.4)
        idx = np.arange(spec.eigenvalues.size)
        with np.errstate(all="raise"):
            got = spec.basis.rows(idx)(_disc_points(1.4, 4))
        assert got[60, 0] == math.exp(spec.basis.log_norms[0])
        assert np.all(got[60, 1:] == 0)

    def test_ginibre_index_250(self):
        spec = ginibre_spectrum(GinibreParams(1.0, 50.0), r=1.5)
        pts = np.array([[0.7, 0.2], [1.5, 0.0], [-0.3, 1.1], [0.0, 0.0]])
        idx = np.array([250])
        got = spec.basis.rows(idx)(pts)
        assert _rel_err(got, _ginibre_direct(spec.basis, pts, idx)) <= 1e-13

    @pytest.mark.parametrize("nu,lam,r", [(1.0, 50.0, 1.5), (0.7, 30.0, 2.0)])
    def test_ginibre_log_norms(self, nu, lam, r):
        # log of sqrt(lam (lam pi)^(i-1) / ((i-1)! nu^i P(i, t))) for the
        # i-th eigenfunction, to a few ulps of its largest term
        spec = ginibre_spectrum(GinibreParams(nu, lam), r)
        t = lam * math.pi * r * r / nu
        for i in (250, 490):
            terms = (0.5 * math.log(lam), 0.5 * (i - 1) * math.log(lam * math.pi),
                     -0.5 * math.lgamma(i), -0.5 * i * math.log(nu),
                     -0.5 * math.log(gammainc(float(i), t)))
            ulp = math.ulp(max(abs(x) for x in terms))
            assert abs(spec.basis.log_norms[i - 1] - math.fsum(terms)) <= 4 * ulp, i

    @pytest.mark.parametrize("nu,lam,r", [(0.7, 0.9, 1.4), (1.0, 35.32, 0.8),
                                          (0.6, 20.0, 1.0)])
    def test_ginibre_proposal_radii(self, nu, lam, r):
        # with the index fixed at i (from 0), coef |u|^2 of a proposal is
        # Gamma(i + 1, 1) truncated at t = coef r^2, whose CDF is
        # P(i + 1, x) / P(i + 1, t); the last kept index is the one furthest
        # into the Poisson tail
        spec = ginibre_spectrum(GinibreParams(nu, lam), r)
        basis, m = spec.basis, spec.eigenvalues.size
        t = basis.coef * r * r
        gen = np.random.default_rng(8)
        for i in sorted({0, 1, 2, m // 2, m - 1}):
            pts = basis.propose(np.array([i]), 4000, gen)
            assert np.all(spec.domain.contains(pts))
            x = basis.coef * (pts * pts).sum(axis=1)
            cdf = lambda y: gammainc(i + 1.0, y) / gammainc(i + 1.0, t)
            assert kstest(x, cdf).pvalue > 1e-3, (i, m)

    @pytest.mark.parametrize("family", ["gaussian", "ginibre"])
    def test_interleaved_draws_repeat(self, family):
        # nothing built for one selection may serve another: seed A, then
        # seed B (another selection of the same size, whose arrays may land
        # where A's were freed), then A again, all from one spectrum, must
        # each equal the draw from a freshly built spectrum
        def build():
            if family == "gaussian":
                return gaussian_dpp_spectrum(GaussianDpp(105.36, 0.05),
                                             Rect(0.0, 1.0, 0.0, 1.0))
            return ginibre_spectrum(GinibreParams(1.0, 35.32), r=0.8)

        spec = build()
        a = _selection(spec, RngStream(1, 0))
        b = next(seed for seed in range(2, 500)
                 if (sel := _selection(spec, RngStream(seed, 0))).size == a.size
                 and not np.array_equal(sel, a))
        fresh = {seed: sample_dpp(build(), RngStream(seed, 0)).points.tobytes()
                 for seed in (1, b)}
        assert fresh[1] != fresh[b]
        draws = [sample_dpp(spec, RngStream(seed, 0)).points.tobytes()
                 for seed in (1, b, 1)]
        assert draws == [fresh[1], fresh[b], fresh[1]]


class TestProposal:
    @pytest.mark.parametrize("basis", [_FourierBasis, _GinibreBasis])
    def test_sample_dpp_proposes_from_the_diagonal(self, basis):
        # the share of proposals in each cell against the integral of
        # ||v(x)||^2 / k over it: a quarter of the rectangle each, where
        # ||v||^2 = k/|D|; on 8 annuli x 4 sectors of the disc, from the
        # rows the sampler tests, by Gauss-Legendre in the radius (||v||^2
        # is radial, so the angle integrates exactly)
        if basis is _FourierBasis:
            spec = gaussian_dpp_spectrum(GaussianDpp(20.0, 0.1),
                                         Rect(0.0, 2.0, 0.0, 1.0))
        else:
            spec = ginibre_spectrum(GinibreParams(1.0, 20.0), r=1.0)
        idx = _selection(spec, RngStream(3, 0))
        k, rows = idx.size, spec.basis.rows(idx)
        pts = spec.basis.propose(idx, 40000, np.random.default_rng(9))
        if basis is _FourierBasis:
            rect = spec.domain
            cx, cy = (rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2
            cell = 2 * (pts[:, 0] > cx) + (pts[:, 1] > cy)
            expect = np.full(4, 0.25)
        else:
            r = spec.domain.radius
            edges = np.linspace(0.0, r, 9)
            s = np.hypot(pts[:, 0], pts[:, 1])
            theta = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
            cell = (4 * np.minimum(np.searchsorted(edges, s) - 1, 7)
                    + np.minimum((theta // (math.pi / 2)).astype(int), 3))
            nodes, weights = np.polynomial.legendre.leggauss(40)
            ring = np.empty(8)
            for a in range(8):
                lo, hi = edges[a], edges[a + 1]
                rad = lo + (hi - lo) * (nodes + 1) / 2
                v = rows(np.column_stack((rad, np.zeros_like(rad))))
                mass = (np.abs(v) ** 2).sum(axis=1)
                ring[a] = math.pi * (hi - lo) * np.sum(weights * mass * rad)
            expect = np.repeat(ring / (4 * k), 4)
        assert expect.sum() == pytest.approx(1.0, rel=1e-9)
        counts = np.bincount(cell, minlength=expect.size)
        assert chisquare(counts, expect * len(pts)).pvalue > 1e-3


class TestNthOrderIntensity:
    def test_first_order_is_intensity(self):
        fam = GinibreDpp(2.5, 0.3)
        assert nth_order_intensity(fam, [(0.4, -0.2)]) == pytest.approx(2.5)

    def test_coincident_points_vanish(self):
        for fam in (GaussianDpp(1.5, 0.4), GinibreDpp(1.5, 0.4)):
            val = nth_order_intensity(fam, [(0.3, 0.1), (0.3, 0.1)])
            assert val == pytest.approx(0.0, abs=1e-9 * 1.5 ** 2)

    def test_ginibre_hand_pair(self):
        fam = GinibreDpp(1 / math.pi, 1.0)
        val = nth_order_intensity(fam, [(0.0, 0.0), (1.0, 0.0)])
        expect = (1 / math.pi) ** 2 * (1.0 - math.exp(-1.0))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_gaussian_hand_pair(self):
        # rho^2 (1 - exp(-2 d^2 / beta^2)), 2 d^2 / beta^2 = 0.72 / 0.5625
        fam = GaussianDpp(0.5, 0.75)
        d = 0.6
        val = nth_order_intensity(fam, [(0.0, 0.0), (d, 0.0)])
        expect = 0.25 * (1.0 - math.exp(-1.28))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_range_validation(self):
        fam = GaussianDpp(1.0, 0.1)
        with pytest.raises(ParameterError):
            nth_order_intensity(fam, np.zeros((0, 2)))
        with pytest.raises(ParameterError):
            nth_order_intensity(fam, np.random.default_rng(0).normal(size=(13, 2)))

    def test_isometry_invariance_ginibre(self):
        fam = GinibreDpp(1 / math.pi, 1.0)
        gen = RngStream(23, 0).generator
        for n in (2, 3, 5):
            for _ in range(20):
                pts = gen.normal(0.0, 1.0, (n, 2))
                theta = gen.uniform(0, 2 * math.pi)
                rot = np.array([[math.cos(theta), -math.sin(theta)],
                                [math.sin(theta), math.cos(theta)]])
                shift = gen.normal(0.0, 2.0, 2)
                moved = pts @ rot.T + shift
                a = nth_order_intensity(fam, pts)
                b = nth_order_intensity(fam, moved)
                assert b == pytest.approx(a, rel=1e-9, abs=1e-300)

    def test_translation_invariance_gaussian(self):
        fam = GaussianDpp(0.8, 0.5)
        gen = RngStream(29, 0).generator
        pts = gen.normal(0.0, 0.4, (4, 2))
        a = nth_order_intensity(fam, pts)
        b = nth_order_intensity(fam, pts + np.array([3.7, -1.2]))
        assert b == pytest.approx(a, rel=1e-9)

    def test_thinning_scaling_kernel_identity(self):
        # (nu, lam) Ginibre kernel == (p/beta)^2 c_standard(u/beta, v/beta)
        # with p = sqrt(nu), beta = sqrt(nu/(lam pi))
        nu, lam = 0.63, 4.2
        beta = math.sqrt(nu / (lam * math.pi))
        fam = GinibreDpp(rho_Y=lam, beta=beta)
        std = GinibreDpp(rho_Y=1 / math.pi, beta=1.0)
        gen = RngStream(31, 0).generator
        pts = gen.normal(0.0, 0.3, (6, 2))
        lhs = kernel_matrix(fam, pts)
        rhs = (nu / beta ** 2) * kernel_matrix(std, pts / beta)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_nonnegative_on_random_configs(self):
        gen = RngStream(37, 0).generator
        for fam in (GaussianDpp(1.0, 0.3), GinibreDpp(1.0, 0.3)):
            for n in (2, 4, 8):
                pts = gen.normal(0.0, 1.0, (n, 2))
                assert nth_order_intensity(fam, pts) >= -1e-9
