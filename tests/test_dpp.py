import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

import dsncp.dpp
from dsncp.core import (
    Disc,
    ExistenceError,
    ParameterError,
    Rect,
    RejectionBoundError,
    RngStream,
)
from dsncp.dpp import (
    DppSpectrum,
    GaussianDpp,
    GinibreDpp,
    GinibreParams,
    gaussian_dpp_spectrum,
    ginibre_spectrum,
    kernel_correlation_modulus_sq,
    kernel_matrix,
    max_admissible_beta,
    most_repulsive_intensity,
    nth_order_intensity,
    sample_dpp,
    validate_dpp_params,
    _FourierBasis,
    _GinibreBasis,
    _sample_projection,
)


class TestValidation:
    def test_standard_ginibre_boundary_ok(self):
        validate_dpp_params(GinibreDpp(rho_Y=1 / math.pi, beta=1.0))

    def test_just_past_boundary_rejected_with_max_beta(self):
        with pytest.raises(ExistenceError) as exc:
            validate_dpp_params(GaussianDpp(rho_Y=1 / math.pi, beta=1.01))
        assert exc.value.max_beta == pytest.approx(1.0, rel=1e-12)

    def test_most_repulsive_from_intensity_ok(self):
        rho = 30.0
        validate_dpp_params(GinibreDpp(rho_Y=rho, beta=math.sqrt(1 / (30 * math.pi))))
        assert max_admissible_beta(rho) == pytest.approx(0.10301, abs=1e-5)

    def test_round_trip_most_repulsive(self):
        # intensity computed from beta must validate at any beta
        for beta in (0.05, 0.3, 1.0, 4.0):
            rho = most_repulsive_intensity(beta)
            validate_dpp_params(GaussianDpp(rho, beta))
            validate_dpp_params(GinibreDpp(rho, beta))

    def test_rejects_exactly_past_bound(self):
        rho = 2.7
        bmax = max_admissible_beta(rho)
        validate_dpp_params(GaussianDpp(rho, bmax))
        with pytest.raises(ExistenceError):
            validate_dpp_params(GaussianDpp(rho, bmax * 1.0001))

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
        assert p.beta == pytest.approx(1.0)


class TestKernelCorrelation:
    def test_zero_lag(self):
        for fam in (GaussianDpp(0.1, 1.0), GinibreDpp(0.1, 1.0)):
            assert kernel_correlation_modulus_sq(fam, [0.0, 0.0]) == 1.0

    def test_frozen_values(self):
        assert kernel_correlation_modulus_sq(
            GaussianDpp(0.01, 2.0), [2.0, 0.0]) == pytest.approx(
            math.exp(-2.0), rel=1e-14)
        assert kernel_correlation_modulus_sq(
            GinibreDpp(0.01, 2.0), [0.0, 2.0]) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_pair_intensity_consistency(self):
        # det-based second order intensity / rho^2 == 1 - |r|^2/rho^2
        gen = RngStream(17, 0).generator
        for fam in (GaussianDpp(0.7, 0.6), GinibreDpp(1.3, 0.4)):
            for _ in range(50):
                u, v = gen.normal(0.0, 1.0, (2, 2))
                lhs = nth_order_intensity(fam, [u, v]) / fam.rho_Y ** 2
                rhs = 1.0 - kernel_correlation_modulus_sq(fam, u - v)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_range_sq(self):
        assert GaussianDpp(0.01, 0.3).range_sq == 0.3 ** 2 / 2.0
        assert GinibreDpp(0.01, 0.3).range_sq == 0.3 ** 2

    def test_vectorized_lags(self):
        fam = GaussianDpp(1.0, 0.5)
        lags = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
        vals = kernel_correlation_modulus_sq(fam, lags)
        assert vals.shape == (3,)
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(math.exp(-2.0), rel=1e-14)


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
        vals = spec.basis.matrix(pts, np.arange(m))  # (nodes, m); radial part
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
            got = spec.basis.matrix(np.array([[u.real, u.imag]]),
                                    np.array([i - 1]))[0, 0]
            assert got == pytest.approx(expect, rel=1e-10), i

    def test_large_count_stability(self):
        # several hundred eigenvalues, log-space path must not overflow
        p = GinibreParams(1.0, 50.0)
        spec = ginibre_spectrum(p, r=1.5)
        assert len(spec.eigenvalues) > 300
        assert spec.eigenvalues.sum() == pytest.approx(
            50 * math.pi * 1.5 ** 2, abs=1e-6)
        val = spec.basis.matrix(np.array([[0.7, 0.2]]), np.array([250]))[0, 0]
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
        mat = spec.basis.matrix(pts, np.arange(min(10, len(spec.eigenvalues))))
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


class TestProjectionSampler:
    """The sequential step, seen apart from the Bernoulli selection: a
    projection DPP of rank k has exactly k points."""

    @given(spec=small_spectra(), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_draw_is_a_full_rank_k_point_set(self, spec, seed):
        idx = _selection(spec, RngStream(seed, 1))
        p = sample_dpp(spec, RngStream(seed, 1))
        assert p.n == idx.size
        assert np.all(spec.domain.contains(p.points))
        if idx.size:
            v = spec.basis.matrix(p.points, idx)
            assert np.linalg.matrix_rank(v) == idx.size
        again = sample_dpp(spec, RngStream(seed, 1))
        assert np.array_equal(p.points, again.points)

    @pytest.mark.slow
    def test_fourier_projection_law(self):
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
        root = RngStream(7, 0)
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


class TestRejectionBound:
    def test_bound_below_density_raises_with_observed(self):
        rect = Rect(0.0, 2.0, 0.0, 1.0)
        spec = gaussian_dpp_spectrum(GaussianDpp(20.0, 0.1), rect)
        idx = np.arange(spec.eigenvalues.size)
        # each |phi_i|^2 is 1/|D|, so the first residual is k/|D| everywhere
        bound = 0.5 * idx.size / rect.area
        with pytest.raises(RejectionBoundError) as err:
            _sample_projection(spec, idx, bound, np.random.default_rng(0))
        assert err.value.observed > bound

    @pytest.mark.parametrize("basis", [_FourierBasis, _GinibreBasis])
    def test_sample_dpp_restarts_after_a_low_bound(self, basis, monkeypatch):
        if basis is _FourierBasis:
            spec = gaussian_dpp_spectrum(GaussianDpp(20.0, 0.1),
                                         Rect(0.0, 2.0, 0.0, 1.0))
        else:
            spec = ginibre_spectrum(GinibreParams(1.0, 20.0), r=1.0)
        true_bound = basis.sup_sq_bound
        monkeypatch.setattr(basis, "sup_sq_bound",
                            lambda self, idx: 0.2 * true_bound(self, idx))
        calls = []
        sample = dsncp.dpp._sample_projection

        def spy(*args):
            calls.append(args[2])
            return sample(*args)

        monkeypatch.setattr(dsncp.dpp, "_sample_projection", spy)
        idx = _selection(spec, RngStream(3, 0))
        p = sample_dpp(spec, RngStream(3, 0))
        assert p.n == idx.size
        assert len(calls) >= 2
        assert calls[1] > calls[0]


class TestNthOrderIntensity:
    def test_first_order_is_intensity(self):
        fam = GinibreDpp(2.5, 0.3)
        assert nth_order_intensity(fam, [(0.4, -0.2)]) == pytest.approx(2.5)

    def test_coincident_points_vanish(self):
        for fam in (GaussianDpp(1.5, 0.7), GinibreDpp(1.5, 0.4)):
            val = nth_order_intensity(fam, [(0.3, 0.1), (0.3, 0.1)])
            assert val == pytest.approx(0.0, abs=1e-9 * 1.5 ** 2)

    def test_ginibre_hand_pair(self):
        fam = GinibreDpp(1 / math.pi, 1.0)
        val = nth_order_intensity(fam, [(0.0, 0.0), (1.0, 0.0)])
        expect = (1 / math.pi) ** 2 * (1.0 - math.exp(-1.0))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_gaussian_hand_pair(self):
        fam = GaussianDpp(0.5, 2.0)
        d = 1.3
        val = nth_order_intensity(fam, [(0.0, 0.0), (d, 0.0)])
        expect = 0.25 * (1.0 - math.exp(-2.0 * d * d / 4.0))
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
