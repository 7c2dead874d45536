"""Tests for theoretical and empirical summary statistics.

The closed-form pcf is checked against a direct numerical convolution:
the within-cluster kernel q = k_alpha * k_alpha~ is a centred Gaussian
density, so g(x) = 1 + q(x)/rho_Y - (q * R_beta)(x) with the last term
evaluated by 2-D quadrature. K is checked by integrating 2*pi*s*g(s).
Estimators are checked against brute-force reimplementations and CSR
Monte Carlo.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import cKDTree

from dsncp.cli import main as cli_main
from dsncp.cluster import (
    Family,
    ModelParams,
    centre_spectrum,
    default_extension,
    sample_model,
)
from dsncp.core import (
    Disc,
    InsufficientPointsError,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    csv_text,
)
from dsncp.dpp import max_admissible_beta, most_repulsive_intensity
from dsncp.envelope import (
    STUDY_CSV_HEADER,
    EnvelopeResult,
    StudyConfig,
    StudyRow,
    resume_study,
)
from dsncp.summaries import (
    F_hat,
    G_hat,
    J_hat,
    K_hat,
    K_theoretical,
    SummaryCurve,
    _border_corrected_fraction,
    _eligibility,
    _grid_index,
    _lattice,
    _lattice_distances,
    _lattice_eligibility,
    _translation_pairs,
    default_grid,
    default_pcf_bandwidth,
    pcf_crossover_radius,
    pcf_hat,
    pcf_theoretical,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
DISC = Disc(0.5, 0.5, 0.5)


def _read_csv(path, header):
    """The rows of a CSV with the given header, each cell read by float."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _assert_same_bits(got, want):
    """Equal element by element, -0.0 apart from 0.0 and NaN equal to NaN."""
    assert [repr(float(v)) for v in np.ravel(got)] == \
        [repr(float(v)) for v in np.ravel(want)]


def ordered_pair_sum(pts, w, kernel):
    """Brute-force sum over ordered pairs i != j of kernel(d_ij) divided by
    the window's overlap with its translate by the pair difference. The
    overlap is written out here, apart from ``set_covariance``: the
    rectangle's product of side gaps, the disc's lens area."""
    total = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            dx = abs(pts[i, 0] - pts[j, 0])
            dy = abs(pts[i, 1] - pts[j, 1])
            d = math.hypot(dx, dy)
            if isinstance(w, Rect):
                lx, ly = w.side_lengths
                area = (lx - dx) * (ly - dy)
            else:
                rad = w.radius
                area = (2.0 * rad * rad * math.acos(d / (2.0 * rad))
                        - d / 2.0 * math.sqrt(4.0 * rad * rad - d * d))
            total = total + kernel(d) / area
    return total


def q_density(r, alpha):
    """k_alpha convolved with its reflection: N(0, 2 alpha^2 I) density."""
    s2 = 2.0 * alpha ** 2
    return math.exp(-r * r / (2.0 * s2)) / (2.0 * math.pi * s2)


def kernel_R(y, family, beta):
    rate = 2.0 if family is Family.GAUSSIAN else 1.0
    return math.exp(-rate * (y[0] ** 2 + y[1] ** 2) / beta ** 2)


def pcf_oracle(r, m):
    """Eq-by-quadrature pcf: convolve q with R_beta numerically."""
    if m.family is Family.THOMAS:
        conv = 0.0
    else:
        lim = 6.0 * m.beta + 4.0 * m.alpha + r

        def integrand(y2, y1):
            return q_density(math.hypot(r - y1, -y2), m.alpha) \
                * kernel_R((y1, y2), m.family, m.beta)

        conv, err = integrate.dblquad(integrand, -lim, lim, -lim, lim,
                                      epsabs=1e-11, epsrel=1e-11)
        assert err < 1e-9
    return 1.0 + q_density(r, m.alpha) / m.rho_Y - conv


class TestClosedForms:
    def test_q_is_really_the_self_convolution(self):
        # q was written down analytically; confirm it equals the literal
        # 2-D convolution of k_alpha with itself at a few offsets
        alpha = 0.7
        for r in (0.0, 0.4, 1.3):
            def integrand(y2, y1):
                k1 = math.exp(-(y1 ** 2 + y2 ** 2) / (2 * alpha ** 2)) \
                    / (2 * math.pi * alpha ** 2)
                k2 = math.exp(-((y1 - r) ** 2 + y2 ** 2) / (2 * alpha ** 2)) \
                    / (2 * math.pi * alpha ** 2)
                return k1 * k2
            val, err = integrate.dblquad(integrand, -8, 9, -8, 8,
                                         epsabs=1e-12, epsrel=1e-12)
            assert abs(val - q_density(r, alpha)) < 1e-10

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_pcf_matches_convolution_quadrature(self, family, beta):
        rho = 1.0 / (math.pi * beta ** 2)
        if family is Family.THOMAS:
            m = ModelParams(family=family, gamma=1.0 / rho, alpha=1.0,
                            rho_Y=rho)
        else:
            m = ModelParams.most_repulsive(family, gamma=1.0 / rho,
                                           alpha=1.0, beta=beta)
        for r in (0.1, 0.8, 2.0, 5.0):
            got = pcf_theoretical(m, r)
            want = pcf_oracle(r, m)
            assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("family", list(Family))
    def test_K_is_integral_of_pcf(self, family):
        kwargs = dict(family=family, gamma=4.0 * math.pi, alpha=1.0,
                      rho_Y=1.0 / (4.0 * math.pi))
        if family is not Family.THOMAS:
            kwargs["beta"] = 2.0
        m = ModelParams(**kwargs)
        for r in (0.5, 1.0, 2.0, 4.0, 8.0):
            want, err = integrate.quad(
                lambda s: 2.0 * math.pi * s * pcf_theoretical(m, s),
                0.0, r, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert err < 1e-9
            got = K_theoretical(m, r)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_pcf_spot_values_at_zero(self):
        # alpha=1, beta=2, rho_Y = 1/(4 pi): g(0) = 5/3 (Gaussian), 3/2 (Ginibre)
        rho = 1.0 / (4.0 * math.pi)
        gau = ModelParams(family="gaussian-dpp-thomas", gamma=1.0, alpha=1.0,
                          rho_Y=rho, beta=2.0)
        gin = ModelParams(family="ginibre-dpp-thomas", gamma=1.0, alpha=1.0,
                          rho_Y=rho, beta=2.0)
        assert abs(pcf_theoretical(gau, 0.0) - 5.0 / 3.0) < 1e-10
        assert abs(pcf_theoretical(gin, 0.0) - 1.5) < 1e-10

    def test_K_minus_pi_r_sq_asymptote(self):
        rho = 1.0 / (4.0 * math.pi)
        gau = ModelParams(family="gaussian-dpp-thomas", gamma=1.0, alpha=1.0,
                          rho_Y=rho, beta=2.0)
        gin = ModelParams(family="ginibre-dpp-thomas", gamma=1.0, alpha=1.0,
                          rho_Y=rho, beta=2.0)
        r = 60.0
        assert abs(K_theoretical(gau, r) - math.pi * r * r
                   - 2.0 * math.pi) < 1e-10
        # the most-repulsive Ginibre asymptote 1/rho_Y - pi beta^2 vanishes
        assert abs(K_theoretical(gin, r) - math.pi * r * r) < 1e-10

    def test_crossover_gaussian_spot_value(self):
        m = ModelParams(family="gaussian-dpp-thomas", gamma=1.0, alpha=1.0,
                        rho_Y=1.0 / (4.0 * math.pi), beta=2.0)
        assert abs(pcf_crossover_radius(m)
                   - math.sqrt(12.0 * math.log(3.0))) < 1e-12

    @pytest.mark.parametrize("family,beta", [
        ("gaussian-dpp-thomas", 2.0), ("gaussian-dpp-thomas", 3.5),
        ("ginibre-dpp-thomas", 2.0), ("ginibre-dpp-thomas", 4.0),
    ])
    def test_pcf_equals_one_at_crossover(self, family, beta):
        m = ModelParams.most_repulsive(family, gamma=2.0, alpha=1.0,
                                       beta=beta)
        rstar = pcf_crossover_radius(m)
        assert abs(pcf_theoretical(m, rstar) - 1.0) < 1e-12
        # clustered below, repulsive above
        assert pcf_theoretical(m, 0.5 * rstar) > 1.0
        assert pcf_theoretical(m, 1.5 * rstar) < 1.0

    def test_crossover_rejects_thomas(self):
        m = ModelParams(family="thomas", gamma=1.0, alpha=1.0, rho_Y=0.1)
        with pytest.raises(ParameterError):
            pcf_crossover_radius(m)

    def test_thomas_pcf_always_above_one(self):
        m = ModelParams(family="thomas", gamma=1.0, alpha=0.5, rho_Y=2.0)
        r = np.linspace(0.0, 10.0, 200)
        g = pcf_theoretical(m, r)
        assert np.all(g >= 1.0)  # tail rounds to 1.0 in doubles
        assert np.all(g[r < 3.0] > 1.0)

    def test_K_derivative_matches_pcf(self):
        # dK/dr = 2 pi r g(r)
        for family, beta in [("thomas", None),
                             ("gaussian-dpp-thomas", 2.0),
                             ("ginibre-dpp-thomas", 3.0)]:
            if beta is None:
                m = ModelParams(family=family, gamma=3.0, alpha=0.8,
                                rho_Y=0.05)
            else:
                m = ModelParams.most_repulsive(family, gamma=3.0, alpha=0.8,
                                               beta=beta)
            for r in (0.3, 1.0, 2.5, 5.0):
                h = 1e-5
                fd = (K_theoretical(m, r + h) - K_theoretical(m, r - h)) / (2 * h)
                want = 2.0 * math.pi * r * pcf_theoretical(m, r)
                assert abs(fd - want) <= 1e-6 * abs(want)

    def test_family_ordering_of_K(self):
        # shared rho_Y, alpha, beta: Ginibre repels hardest, Thomas not at all
        r = np.linspace(0.0, 8.0, 400)
        beta, rho = 2.5, 1.0 / (math.pi * 2.5 ** 2)
        tho = ModelParams(family="thomas", gamma=1.0, alpha=1.0, rho_Y=rho)
        gau = ModelParams(family="gaussian-dpp-thomas", gamma=1.0, alpha=1.0,
                          rho_Y=rho, beta=beta)
        gin = ModelParams(family="ginibre-dpp-thomas", gamma=1.0, alpha=1.0,
                          rho_Y=rho, beta=beta)
        k_t = K_theoretical(tho, r)
        k_ga = K_theoretical(gau, r)
        k_gi = K_theoretical(gin, r)
        assert np.all(k_gi <= k_ga + 1e-12)
        assert np.all(k_ga <= k_t + 1e-12)
        assert np.all(pcf_theoretical(gin, r) <= pcf_theoretical(gau, r) + 1e-12)

    def test_small_alpha_limit_is_dpp_pcf(self):
        # alpha -> 0 collapses clusters onto centres: g -> 1 - R_beta
        r = np.linspace(0.5, 3.0, 7)
        for family, rate in [("gaussian-dpp-thomas", 2.0),
                             ("ginibre-dpp-thomas", 1.0)]:
            m = ModelParams(family=family, gamma=1.0, alpha=1e-4,
                            rho_Y=1.0 / (4.0 * math.pi), beta=2.0)
            want = 1.0 - np.exp(-rate * r ** 2 / m.beta ** 2)
            got = pcf_theoretical(m, r)
            assert np.all(np.abs(got - want) <= 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(log_rho=st.floats(-2.0, 3.0), fill=st.floats(0.05, 1.0),
           ratio=st.floats(0.01, 10.0))
    def test_kernels_of_equal_range_share_the_closed_forms(self, log_rho,
                                                           fill, ratio):
        # Gaussian beta and Ginibre beta/sqrt(2) have the same |C|^2, so
        # the same pcf, K and crossover radius
        rho = 10.0 ** log_rho
        beta = fill * max_admissible_beta(rho)
        alpha = ratio * beta
        gau = ModelParams(family="gaussian-dpp-thomas", gamma=2.0,
                          alpha=alpha, rho_Y=rho, beta=beta)
        gin = ModelParams(family="ginibre-dpp-thomas", gamma=2.0,
                          alpha=alpha, rho_Y=rho, beta=beta / math.sqrt(2.0))
        r = np.linspace(0.0, 5.0 * (alpha + beta), 65)
        for fn in (pcf_theoretical, K_theoretical):
            np.testing.assert_allclose(fn(gau, r), fn(gin, r), rtol=1e-12,
                                       atol=0.0)
        assert pcf_crossover_radius(gau) == pytest.approx(
            pcf_crossover_radius(gin), rel=1e-12)


class TestSummaryCurve:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SummaryCurve(np.array([0.0, 0.5, 0.5]), np.zeros(3), "K")
        with pytest.raises(ParameterError):
            SummaryCurve(np.array([0.0, 0.5]), np.zeros(3), "K")
        with pytest.raises(ParameterError):
            SummaryCurve(np.array([0.0, 0.5]), np.zeros(2), "what")

    def test_csv_round_trip(self, tmp_path, capsys):
        # every CSV the package writes comes from core.csv_text: a header,
        # then rows of %.17g values, which parse back bit for bit (NaN as
        # NaN); the text equals what np.savetxt(fmt="%.17g") wrote before
        tricky = np.array([0.0, -0.0, 5e-324, 2.5e-310, -1e-300, 1e308,
                           -1e308, 1.0 / 3.0, math.pi, math.inf, -math.inf,
                           math.nan, 2.0 ** 53 + 2.0, 1e16, 1e-5, 123.0])
        random = np.random.default_rng(8).normal(0.0, 10.0, (7, 5))
        for arr in (np.zeros((0, 2)), tricky.reshape(-1, 2), random):
            path = tmp_path / "ref.csv"
            np.savetxt(path, arr, fmt="%.17g", delimiter=",", header="h",
                       comments="")
            assert csv_text("h", arr) == path.read_text()

        # points
        w = Rect(-1.0, 1.0, -1.0, 1.0)
        pts = np.array([[0.0, -0.0], [5e-324, -2.5e-310], [1.0 / 3.0, -1.0],
                        [math.pi / 4.0, 1e-300]])
        PointPattern(pts, w).to_csv(tmp_path / "pts.csv")
        _assert_same_bits(_read_csv(tmp_path / "pts.csv", "x,y"), pts)
        # envelope: the observed curve holds the non-finite values
        lo = np.array([-1e308, -0.0, 5e-324, 1.0 / 3.0])
        env = EnvelopeResult(r=np.array([0.0, 5e-324, 1e-300, 0.25]),
                             observed=np.array([math.nan, math.inf, -math.inf,
                                                -0.0]),
                             lower=lo, upper=lo + 1e-3, central=lo,
                             p_value=0.01, level=0.95, n_sim=99)
        env.to_csv(tmp_path / "env.csv")
        _assert_same_bits(_read_csv(tmp_path / "env.csv", "r,obs,lo,hi,central"),
                          np.column_stack((env.r, env.observed, env.lower,
                                           env.upper, env.central)))
        # study rows, and the study CSV that resume_study rewrites from them
        cfg = StudyConfig(alpha_values=(5e-324,), gamma_values=(1e308,),
                          rho_values=(1.0 / 3.0,), families=(Family.THOMAS,),
                          fitted_families=(Family.GINIBRE, Family.GAUSSIAN))
        rows = [StudyRow(Family.THOMAS, f, 5e-324, 1e308, 1.0 / 3.0, v, -v, 2)
                for f, v in ((Family.GINIBRE, math.nan), (Family.GAUSSIAN, 0.0))]
        study = tmp_path / "study.csv"
        study.write_text("\n".join([STUDY_CSV_HEADER,
                                    *(r.csv_line() for r in rows)]) + "\n")
        written = study.read_text()
        assert resume_study(cfg, study).cells_run == 0
        assert study.read_text() == written
        cells = [ln.split(",") for ln in written.splitlines()[1:]]
        assert [c[:2] for c in cells] == [[r.true_family.value,
                                           r.fitted_family.value] for r in rows]
        _assert_same_bits(np.array([[float(v) for v in c[2:]] for c in cells]),
                          np.array([[r.alpha, r.gamma, r.rho_Y, r.reject_rate,
                                     r.mean_rhoY_ratio] for r in rows]))

        # the CLI's curve, spectrum and crossover files, and curves on stdout
        m = ModelParams.most_repulsive(
            Family.GINIBRE, gamma=250.0 / most_repulsive_intensity(0.09),
            alpha=0.04, beta=0.09)
        flags = ["--model", m.family.value, "--alpha", "0.04", "--rhoX", "250",
                 "--beta", "0.09"]
        grid = np.linspace(0.0, 0.25, 26)
        for stat, want in (("pcf", pcf_theoretical(m, grid)),
                           ("K", K_theoretical(m, grid)),
                           ("Kcentered", K_theoretical(m, grid) - math.pi * grid ** 2)):
            out = tmp_path / f"{stat}.csv"
            assert cli_main(["curves", *flags, "--stat", stat, "--r", "0:0.25:26",
                             "-o", str(out), "--quiet"]) == 0
            _assert_same_bits(_read_csv(out, "r,value"),
                              np.column_stack((grid, want)))
            assert cli_main(["curves", *flags, "--stat", stat, "--r",
                             "0:0.25:26"]) == 0
            assert capsys.readouterr().out == out.read_text()
        out = tmp_path / "rstar.csv"
        assert cli_main(["curves", *flags, "--stat", "crossover", "-o", str(out),
                         "--quiet"]) == 0
        _assert_same_bits(_read_csv(out, "rstar"),
                          np.array([[pcf_crossover_radius(m)]]))
        out = tmp_path / "spectrum.csv"
        assert cli_main(["simulate", *flags, "--window", "rect:0,1,0,1",
                         "--dump-spectrum", str(out), "--quiet"]) == 0
        xi = centre_spectrum(m, UNIT, default_extension(m)).eigenvalues
        _assert_same_bits(_read_csv(out, "index,eigenvalue"),
                          np.column_stack((np.arange(xi.size), xi)))

    def test_default_grid(self):
        g = default_grid(Rect(0.0, 20.0, 0.0, 12.0))
        assert g.size == 513
        assert g[0] == 0.0
        assert g[-1] == 3.0


class TestKHat:
    def test_two_point_hand_value(self):
        p = PointPattern(np.array([[0.4, 0.5], [0.5, 0.5]]), UNIT)
        c = K_hat(p, np.array([0.05, 0.1, 0.2]))
        assert c.values[0] == 0.0
        assert abs(c.values[1] - 1.0 / 0.9) < 1e-12
        assert abs(c.values[2] - 1.0 / 0.9) < 1e-12

    @staticmethod
    def check_brute_force(w, seed):
        gen = RngStream(seed=seed).generator
        pts = w.sample_uniform(60, gen)
        p = PointPattern(pts, w)
        grid = np.linspace(0.0, 0.3, 31)
        got = K_hat(p, grid).values
        want = ordered_pair_sum(pts, w, lambda d: (d <= grid).astype(float))
        want *= w.area ** 2 / (60 * 59)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_brute_force_agreement(self):
        self.check_brute_force(UNIT, 77)

    def test_brute_force_agreement_on_disc(self):
        self.check_brute_force(DISC, 78)

    def test_pair_exactly_at_grid_end_counts(self):
        # dist <= r is inclusive, also when r is the last grid point; the
        # k-d tree's own rounding would drop this pair (hypot gives 0.5)
        pts = np.array([[0.5, 0.5], [0.9, 0.8]])
        c = K_hat(PointPattern(pts, UNIT), np.array([0.25, 0.5]))
        assert c.values.tolist() == [0.0, pytest.approx(1 / 0.42, rel=1e-12)]

    def test_grid_reaching_side_length(self):
        # a pair on opposite edges has no overlapping translate; it is
        # dropped, and K stays finite on a grid reaching past the side
        pts = np.array([[0.0, 0.3], [1.0, 0.3], [0.4, 0.5], [0.5, 0.5]])
        c = K_hat(PointPattern(pts, UNIT), np.linspace(0.0, 1.2, 13))
        assert np.all(np.isfinite(c.values))
        # the other five pairs overlap their translates by 0.48, 0.4, 0.32,
        # 0.4 and 0.9, each counted as two ordered pairs out of 4 * 3
        want = 2.0 * (1 / 0.48 + 1 / 0.4 + 1 / 0.32 + 1 / 0.4 + 1 / 0.9) / 12
        assert c.values[-1] == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_input(self):
        p = PointPattern(np.array([[0.5, 0.5]]), UNIT)
        with pytest.raises(InsufficientPointsError):
            K_hat(p, np.array([0.1]))
        p2 = PointPattern(np.array([[0.4, 0.5], [0.5, 0.5]]), UNIT)
        with pytest.raises(ParameterError):
            K_hat(p2, np.array([0.2, 0.1]))

    def test_empty_grid(self):
        p = PointPattern(np.array([[0.4, 0.5], [0.5, 0.5]]), UNIT)
        c = K_hat(p, np.zeros(0))
        assert c.r.size == 0 and c.values.size == 0

    def test_translation_invariance(self):
        gen = RngStream(seed=5).generator
        pts = UNIT.sample_uniform(40, gen)
        grid = np.linspace(0.0, 0.25, 26)
        base = K_hat(PointPattern(pts, UNIT), grid).values
        shifted_w = Rect(13.7, 14.7, -4.2, -3.2)
        shifted = K_hat(PointPattern(pts + np.array([13.7, -4.2]), shifted_w),
                        grid).values
        np.testing.assert_allclose(shifted, base, rtol=1e-9)

    @pytest.mark.slow
    def test_csr_mean_matches_pi_r_sq(self):
        gen = RngStream(seed=1301).generator
        grid = np.array([0.05, 0.10, 0.15, 0.20, 0.25])
        acc = np.zeros_like(grid)
        reps = 500
        for _ in range(reps):
            n = gen.poisson(100.0)
            p = PointPattern(UNIT.sample_uniform(n, gen), UNIT)
            acc += K_hat(p, grid).values
        mean = acc / reps
        np.testing.assert_allclose(mean, math.pi * grid ** 2, rtol=0.02)


class TestPcfHat:
    @staticmethod
    def check_brute_force(w, seed):
        gen = RngStream(seed=seed).generator
        pts = w.sample_uniform(50, gen)
        p = PointPattern(pts, w)
        b = 0.04
        grid = np.linspace(0.03, 0.3, 28)
        got = pcf_hat(p, grid, bandwidth=b).values

        def kernel(d):
            t = grid - d
            return np.where(np.abs(t) <= b,
                            0.75 / b * (1.0 - t ** 2 / b ** 2), 0.0)

        want = ordered_pair_sum(pts, w, kernel)
        want *= w.area ** 2 / (2.0 * math.pi * grid * 50 * 49)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_brute_force_agreement(self):
        self.check_brute_force(UNIT, 99)

    def test_brute_force_agreement_on_disc(self):
        self.check_brute_force(DISC, 100)

    def test_kernel_sum_has_no_cancellation(self):
        # 3000 uniform points on a 2 x 0.5 strip, grid to 0.6 (past the
        # short side), default bandwidth: each value must match an exactly
        # rounded kernel sum over the estimator's own pairs
        w = Rect(0.0, 2.0, 0.0, 0.5)
        p = PointPattern(w.sample_uniform(3000, RngStream(seed=31).generator), w)
        b = default_pcf_bandwidth(p)
        grid = np.linspace(0.0, 0.6, 513)[8::8]
        got = pcf_hat(p, grid).values
        d, wgt = _translation_pairs(p, grid[-1] + b)
        want = np.empty(grid.size)
        for i, r in enumerate(grid):
            near = np.abs(r - d) <= b
            want[i] = math.fsum(wgt[near] * (1.0 - ((r - d[near]) / b) ** 2))
        want *= 0.75 / b * w.area ** 2 / (2.0 * math.pi * grid * 3000 * 2999)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_default_bandwidth(self):
        gen = RngStream(seed=21).generator
        p = PointPattern(UNIT.sample_uniform(100, gen), UNIT)
        assert abs(default_pcf_bandwidth(p) - 0.015) < 1e-12

    def test_grid_must_clear_half_bandwidth(self):
        p = PointPattern(np.array([[0.4, 0.5], [0.5, 0.5]]), UNIT)
        with pytest.raises(ParameterError):
            pcf_hat(p, np.array([0.01, 0.1]), bandwidth=0.05)
        c = pcf_hat(p, np.array([0.026, 0.1]), bandwidth=0.05)
        assert c.values.shape == (2,)

    @pytest.mark.slow
    def test_csr_mean_is_flat_one(self):
        gen = RngStream(seed=1302).generator
        grid = np.array([0.05, 0.10, 0.20])
        acc = np.zeros_like(grid)
        reps = 500
        for _ in range(reps):
            n = 100
            p = PointPattern(UNIT.sample_uniform(n, gen), UNIT)
            acc += pcf_hat(p, grid).values
        np.testing.assert_allclose(acc / reps, 1.0, rtol=0.05)


class TestDistanceFunctions:
    def naive_fraction(self, dist, bdist, grid):
        out = np.full(grid.size, np.nan)
        for k, r in enumerate(grid):
            elig = bdist >= r
            if elig.any():
                out[k] = np.mean(dist[elig] <= r)
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_counting_matches_per_radius_count(self, data):
        # values are drawn from a pool holding every grid point itself
        # (ties), midpoints, values below the first and beyond the last
        # grid point, inf distances (an empty pattern's F) and a boundary
        # distance just below 0 (a disc point inside Disc.contains' slack)
        start = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
        step = data.draw(st.sampled_from([0.01, 0.1 / 3, 0.07]))
        grid = start + step * np.arange(data.draw(st.integers(1, 9)))
        around = np.concatenate([grid, grid + step / 2, [grid[0] - step / 2]])
        n = data.draw(st.integers(0, 12))
        dist = np.array(data.draw(st.lists(
            st.sampled_from(around[around >= 0].tolist() + [np.inf]),
            min_size=n, max_size=n)), dtype=float)
        bdist = np.array(data.draw(st.lists(
            st.sampled_from(around.tolist() + [-1e-13]),
            min_size=n, max_size=n)), dtype=float)
        got = _border_corrected_fraction(dist, _eligibility(bdist, grid), grid)
        want = self.naive_fraction(dist, bdist, grid)
        assert np.array_equal(got, want, equal_nan=True)

    def test_F_matches_naive(self):
        gen = RngStream(seed=11).generator
        grid = np.linspace(0.0, 0.45, 97)
        for w in (UNIT, DISC):
            p = PointPattern(w.sample_uniform(80, gen), w)
            got = F_hat(p, grid).values
            lattice = _lattice(w).points
            dist, _ = cKDTree(p.points).query(lattice)
            want = self.naive_fraction(dist, w.boundary_distance(lattice), grid)
            assert np.array_equal(got, want, equal_nan=True)

    def test_G_matches_naive(self):
        gen = RngStream(seed=12).generator
        p = PointPattern(UNIT.sample_uniform(80, gen), UNIT)
        grid = np.linspace(0.0, 0.4, 81)
        got = G_hat(p, grid).values
        dist, _ = cKDTree(p.points).query(p.points, k=2)
        want = self.naive_fraction(dist[:, 1],
                                   UNIT.boundary_distance(p.points), grid)
        np.testing.assert_allclose(got, want, rtol=1e-12, equal_nan=True)

    def test_F_empty_pattern_is_zero(self):
        p = PointPattern(np.zeros((0, 2)), UNIT)
        c = F_hat(p, np.linspace(0.0, 0.2, 11))
        assert np.all(c.values == 0.0)

    def test_F_saturates_to_nan_when_no_eligible_points(self):
        p = PointPattern(np.array([[0.5, 0.5]]), UNIT)
        c = F_hat(p, np.array([0.1, 0.6]))
        # no lattice point sits 0.6 from every boundary of the unit square
        assert np.isfinite(c.values[0])
        assert np.isnan(c.values[1])

    def test_G_two_point_jump(self):
        w = Rect(0.0, 10.0, 0.0, 10.0)
        p = PointPattern(np.array([[5.0, 5.0], [5.1, 5.0]]), w)
        c = G_hat(p, np.array([0.05, 0.1, 0.5]))
        np.testing.assert_allclose(c.values, [0.0, 1.0, 1.0])

    def test_G_needs_two_points(self):
        p = PointPattern(np.array([[0.5, 0.5]]), UNIT)
        with pytest.raises(InsufficientPointsError):
            G_hat(p, np.array([0.1]))

    def test_J_restricts_grid_and_warns(self):
        gen = RngStream(seed=13).generator
        p = PointPattern(UNIT.sample_uniform(200, gen), UNIT)
        grid = np.linspace(0.0, 0.45, 90)
        j = J_hat(p, grid)
        assert j.r.size < grid.size  # saturated/ineligible radii dropped
        assert j.r.size > 0
        f = F_hat(p, grid)
        keep = np.isfinite(f.values) & (f.values < 1.0)
        np.testing.assert_array_equal(j.r, grid[keep])

    def test_F_on_disc_window(self):
        from dsncp.core import Disc
        gen = RngStream(seed=14).generator
        w = Disc(2.0, -1.0, 3.0)
        p = PointPattern(w.sample_uniform(120, gen), w)
        grid = np.linspace(0.0, 0.8, 33)
        c = F_hat(p, grid)
        assert np.all(np.isfinite(c.values))
        assert np.all(np.diff(c.values) >= 0)  # F is a cdf estimate

    def test_translation_invariance(self):
        gen = RngStream(seed=15).generator
        pts = UNIT.sample_uniform(60, gen)
        grid = np.linspace(0.0, 0.2, 21)
        w2 = Rect(-7.25, -6.25, 3.5, 4.5)
        shift = np.array([-7.25, 3.5])
        for fn in (F_hat, G_hat):
            a = fn(PointPattern(pts, UNIT), grid).values
            b = fn(PointPattern(pts + shift, w2), grid).values
            np.testing.assert_allclose(a, b, rtol=1e-9, equal_nan=True)

    @pytest.mark.slow
    def test_csr_distance_functions_match_theory(self):
        # For CSR: F(r) = G(r) = 1 - exp(-lam pi r^2), J = 1
        # radii kept small: at larger r the 1 - F_hat denominator gets
        # noisy and the ratio J_hat picks up an upward Jensen bias
        gen = RngStream(seed=1303).generator
        lam = 150.0
        grid = np.array([0.015, 0.03, 0.045])
        acc_f = np.zeros_like(grid)
        acc_g = np.zeros_like(grid)
        acc_j = np.zeros_like(grid)
        reps = 200
        for _ in range(reps):
            n = max(2, gen.poisson(lam))
            p = PointPattern(UNIT.sample_uniform(n, gen), UNIT)
            acc_f += F_hat(p, grid).values
            acc_g += G_hat(p, grid).values
            j = J_hat(p, grid)
            assert j.r.size == grid.size
            acc_j += j.values
        want = 1.0 - np.exp(-lam * math.pi * grid ** 2)
        np.testing.assert_allclose(acc_f / reps, want, atol=0.02)
        np.testing.assert_allclose(acc_g / reps, want, atol=0.02)
        np.testing.assert_allclose(acc_j / reps, 1.0, atol=0.05)


LATTICE_WINDOWS = [UNIT, Rect(-1.3, 1.7, 0.2, 0.9), Rect(0.0, 4.0, 0.0, 0.25),
                   Disc(0.3, -0.2, 0.6)]


def _awkward_pattern(w, data):
    """Uniform points, tight clusters (sd below the lattice spacing), points
    on lattice nodes, on cell edges and on the window edge, and duplicates."""
    lat = _lattice(w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    parts = [w.sample_uniform(data.draw(st.integers(0, 1500)), rng)]
    for _ in range(data.draw(st.integers(0, 4))):
        centre = w.sample_uniform(1, rng)
        sd = lat.h * data.draw(st.sampled_from([0.01, 0.3, 0.9]))
        parts.append(centre + sd * rng.standard_normal(
            (data.draw(st.integers(1, 200)), 2)))
    nodes = data.draw(st.integers(0, 50))
    ix = rng.integers(0, lat.xs.size, nodes)
    iy = rng.integers(0, lat.ys.size, nodes)
    parts.append(np.column_stack((lat.xs[ix], lat.ys[iy])))
    parts.append(np.column_stack((lat.xs[ix] + lat.h / 2, lat.ys[iy])))
    parts.append(np.column_stack((lat.xs[ix], lat.ys[iy] - lat.h / 2)))
    theta = rng.uniform(0.0, 2.0 * math.pi, data.draw(st.integers(0, 20)))
    if isinstance(w, Rect):
        t = rng.random(theta.size)
        parts.append(np.column_stack((w.xmin + t * (w.xmax - w.xmin),
                                      np.where(theta < math.pi, w.ymin, w.ymax))))
    else:
        parts.append(np.column_stack((w.cx + w.radius * np.cos(theta),
                                      w.cy + w.radius * np.sin(theta))))
    pts = np.vstack(parts)
    pts = pts[w.contains(pts)]
    if pts.shape[0] == 0:
        pts = np.array([w.center], dtype=float)
    dup = rng.integers(0, pts.shape[0], data.draw(st.integers(0, 30)))
    return np.vstack((pts, pts[dup]))


class TestLatticeDistances:
    """F's lattice distances are the k-d tree's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(LATTICE_WINDOWS), st.data())
    def test_equal_to_tree_and_brute_force(self, w, data):
        lat = _lattice(w)
        pts = _awkward_pattern(w, data)
        got = _lattice_distances(PointPattern(pts, w), lat)
        assert np.array_equal(got, cKDTree(pts).query(lat.points)[0])
        # brute force with the tree's formula, over a sample of the lattice
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        some = rng.choice(lat.points.shape[0], 600, replace=False)
        dx = lat.points[some, :1] - pts[:, 0]
        dy = lat.points[some, 1:] - pts[:, 1]
        assert np.array_equal(got[some],
                              np.sqrt((dx * dx + dy * dy).min(axis=1)))

    @pytest.mark.parametrize("w", LATTICE_WINDOWS)
    def test_lattice_is_the_cell_centres_in_the_window(self, w):
        lat = _lattice(w)
        grid = np.column_stack([g.ravel() for g in np.meshgrid(lat.xs, lat.ys)])
        inside = w.contains(grid)
        assert np.array_equal(lat.flat, np.flatnonzero(inside))
        assert np.array_equal(lat.points, grid[inside])
        assert np.array_equal(lat.bdist, w.boundary_distance(lat.points))
        assert min(lat.xs.size, lat.ys.size) == 128
        for a in lat[1:]:
            assert not a.flags.writeable
        assert _lattice(w) is lat

    def test_large_pattern_in_blocks(self):
        # 1e5 points scatter 9 stencil entries each, about 55 times the
        # lattice, so the scatter runs in blocks
        gen = RngStream(seed=13).generator
        p = PointPattern(UNIT.sample_uniform(100_000, gen), UNIT)
        lat = _lattice(UNIT)
        dist = cKDTree(p.points).query(lat.points)[0]
        assert np.array_equal(_lattice_distances(p, lat), dist)
        grid = np.linspace(0.0, 0.01, 41)
        elig = _eligibility(lat.bdist, grid)
        assert np.array_equal(F_hat(p, grid).values,
                              _border_corrected_fraction(dist, elig, grid),
                              equal_nan=True)

    def test_eligibility_is_cached_per_window_and_grid(self):
        grid = np.linspace(0.013, 0.25, 300)
        elig = _lattice_eligibility(DISC, grid.tobytes())
        assert _lattice_eligibility(DISC, grid.copy().tobytes()) is elig
        want = _eligibility(_lattice(DISC).bdist, grid)
        for got, exp in zip(elig, want):
            assert np.array_equal(got, exp)
            assert not got.flags.writeable


class TestGridIndex:
    """``_grid_index`` is ``np.searchsorted``, on uniform grids and off."""

    @staticmethod
    def pool(grid, rng):
        """Grid points and their neighbours one ulp either side, +inf,
        values below the first point, and uniform values around the grid."""
        return np.concatenate([
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
            [np.inf, grid[0] / 2, grid[0] - 1.0, 0.0],
            rng.uniform(grid[0] - 0.1, grid[-1] + 0.1, 200)])

    @staticmethod
    def check(grid, x):
        for side in ("left", "right"):
            got = _grid_index(grid, x, side)
            assert got.dtype == np.intp
            assert np.array_equal(got, np.searchsorted(grid, x, side=side))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_searchsorted(self, data):
        g = data.draw(st.one_of(st.integers(1, 2), st.integers(3, 700)))
        start = data.draw(st.sampled_from([0.0, 0.013, 0.3, 1.0 / 3]))
        span = data.draw(st.sampled_from([1e-3, 0.1, 0.25, 7.0 / 3]))
        if data.draw(st.booleans()):
            grid = np.linspace(start, start + span, g)
        else:  # geometric: far from uniform
            grid = np.geomspace(start + 1e-3, start + 1e-3 + span, g)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        pool = self.pool(grid, rng)
        pick = data.draw(st.lists(st.integers(0, pool.size - 1),
                                  max_size=300))
        self.check(grid, pool[np.array(pick, dtype=np.intp)])

    @pytest.mark.parametrize("grid", [
        np.array([0.0]), np.array([0.013]), np.array([0.0, 0.25]),
        np.array([0.013, 0.1]), np.linspace(0.013, 0.25, 513),
        np.geomspace(1e-4, 1.0, 513)])
    def test_fixed_grids_and_empty_x(self, grid):
        self.check(grid, self.pool(grid, np.random.default_rng(5)))
        self.check(grid, np.zeros(0))


class TestSharedTree:
    def test_one_tree_per_pattern(self, monkeypatch):
        import scipy.spatial
        built, queried = [], []

        class Counting(cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

            def query(self, *args, **kwargs):
                queried.append(args)
                return super().query(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Counting)
        # tight clusters leave much of the lattice beyond the stencils'
        # reach, so F queries the tree as well as G and K
        m = ModelParams(Family.THOMAS, gamma=50.0, alpha=0.03, rho_Y=50.0)
        p = sample_model(m, UNIT, rng=RngStream(seed=17))
        grid = default_grid(UNIT)
        K_hat(p, grid)
        J_hat(p, grid)
        assert len(built) == 1
        assert len(queried) == 2  # F's uncertified lattice points, then G
