import math

import numpy as np
import pytest

import dsncp.cluster
from dsncp.cluster import (
    Extension,
    Family,
    ModelParams,
    default_extension,
    sample_centres,
    sample_model,
)
from dsncp.core import Disc, ParameterError, PointPattern, Rect, RngStream

UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def thomas(gamma=50.0, alpha=0.03, rho_Y=30.0):
    return ModelParams(Family.THOMAS, gamma, alpha, rho_Y)


class TestModelParams:
    def test_intensity_values(self):
        assert thomas(50, 0.03, 30).rho_X == pytest.approx(1500.0)
        m = ModelParams.most_repulsive(Family.GINIBRE, gamma=4 * math.pi,
                                       alpha=1.0, beta=2.0)
        assert m.rho_Y == pytest.approx(1 / (4 * math.pi))
        assert m.rho_X == pytest.approx(1.0)
        assert thomas(12.68, 0.05, 35.32).rho_X == pytest.approx(447.86,
                                                                 abs=0.01)

    def test_most_repulsive_thomas_drops_beta(self):
        m = ModelParams.most_repulsive("thomas", gamma=2.0, alpha=0.1, beta=0.09)
        assert m.beta is None
        assert m.rho_Y == pytest.approx(1 / (math.pi * 0.09 ** 2))

    def test_dpp_requires_beta(self):
        with pytest.raises(ParameterError):
            ModelParams(Family.GAUSSIAN, 1.0, 0.1, 10.0)
        with pytest.raises(ParameterError):
            ModelParams(Family.THOMAS, 1.0, 0.1, 10.0, beta=0.1)

    def test_existence_enforced(self):
        with pytest.raises(ParameterError):
            ModelParams(Family.GINIBRE, 1.0, 0.1, rho_Y=10.0, beta=1.0)

    def test_positivity(self):
        for bad in ({"gamma": 0.0}, {"alpha": -1.0}, {"rho_Y": 0.0}):
            kw = dict(gamma=1.0, alpha=0.1, rho_Y=1.0)
            kw.update(bad)
            with pytest.raises(ParameterError):
                ModelParams(Family.THOMAS, **kw)

    def test_family_accepts_strings(self):
        m = ModelParams("thomas", 1.0, 0.1, 1.0)
        assert m.family is Family.THOMAS

    def test_default_extension(self):
        assert default_extension(thomas(alpha=0.25)).margin == 1.0
        with pytest.raises(ParameterError):
            Extension(-0.1)


class TestSampleCluster:
    """One cluster's offspring, drawn by sample_model around a single
    fixed centre on a window wide enough that nothing is clipped."""

    WIDE = Rect(-10.0, 10.0, -10.0, 10.0)

    @pytest.fixture
    def one_centre(self, monkeypatch):
        def centres(m, w, ext, rng):
            return PointPattern(np.array([[2.0, -1.0]]), w.grow(ext.margin))
        monkeypatch.setattr(dsncp.cluster, "sample_centres", centres)

    def test_moments(self, one_centre):
        root = RngStream(11, 0)
        m = thomas(gamma=5.0, alpha=0.2)
        sizes, norms = [], []
        for i in range(4000):
            pts = sample_model(m, self.WIDE, rng=root.substream(i)).points
            sizes.append(len(pts))
            if len(pts):
                norms.extend(np.hypot(pts[:, 0] - 2.0, pts[:, 1] + 1.0))
        # Poisson(5) count and Rayleigh(0.2) displacement norm
        assert np.mean(sizes) == pytest.approx(5.0, abs=3 * math.sqrt(5 / 4000))
        rayleigh_mean = 0.2 * math.sqrt(math.pi / 2)
        se = 0.2 * math.sqrt((4 - math.pi) / 2) / math.sqrt(len(norms))
        assert np.mean(norms) == pytest.approx(rayleigh_mean, abs=3 * se)

    def test_tiny_gamma_mostly_empty(self, one_centre):
        root = RngStream(13, 0)
        m = thomas(gamma=1e-3, alpha=1.0)
        sizes = [sample_model(m, self.WIDE, rng=root.substream(i)).n
                 for i in range(2000)]
        assert np.mean(np.array(sizes) == 0) > 0.99


class TestSampleCentres:
    def test_thomas_count_poisson(self):
        root = RngStream(19, 0)
        counts = [sample_centres(thomas(rho_Y=30.0), UNIT, Extension(0.0),
                                 root.substream(i)).n for i in range(1500)]
        counts = np.array(counts)
        assert counts.mean() == pytest.approx(30.0,
                                              abs=3 * math.sqrt(30 / 1500))
        ratio = counts.var(ddof=1) / counts.mean()
        assert ratio == pytest.approx(1.0, abs=0.15)

    def test_extended_window_geometry(self):
        pat = sample_centres(thomas(rho_Y=200.0), UNIT, Extension(0.5),
                             RngStream(23, 0))
        w = pat.window
        assert (w.xmin, w.xmax, w.ymin, w.ymax) == (-0.5, 1.5, -0.5, 1.5)
        assert pat.points.min() < 0.0 and pat.points.max() > 1.0

    @pytest.mark.slow
    def test_ginibre_most_repulsive_mean_count(self):
        m = ModelParams.most_repulsive(Family.GINIBRE, gamma=4 * math.pi,
                                       alpha=1.0, beta=2.0)
        w = Rect(0.0, 20.0, 0.0, 20.0)
        root = RngStream(29, 0)
        counts = [sample_centres(m, w, Extension(0.0), root.substream(i)).n
                  for i in range(250)]
        target = 400 / (4 * math.pi)
        # repulsion makes counts under-dispersed; Poisson SE is conservative
        assert np.mean(counts) == pytest.approx(
            target, abs=3 * math.sqrt(target / 250))

    @pytest.mark.slow
    def test_gaussian_centres_on_disc_window(self):
        m = ModelParams(Family.GAUSSIAN, gamma=1.0, alpha=0.1,
                        rho_Y=1 / (4 * math.pi), beta=2.0)
        w = Disc(10.0, 10.0, 8.0)
        root = RngStream(31, 0)
        counts = []
        for i in range(150):
            pat = sample_centres(m, w, Extension(0.4), root.substream(i))
            assert np.all(pat.window.contains(pat.points))
            counts.append(pat.n)
        target = m.rho_Y * math.pi * 8.4 ** 2
        assert np.mean(counts) == pytest.approx(
            target, abs=3 * math.sqrt(target / 150))


class TestSampleModel:
    def test_mean_count_matches_intensity(self):
        root = RngStream(37, 0)
        counts = [sample_model(thomas(), UNIT, rng=root.substream(i)).n
                  for i in range(300)]
        # clustered counts are overdispersed: var = rho_X + rho_Y gamma^2
        var = 1500 + 30 * 50 ** 2
        assert np.mean(counts) == pytest.approx(
            1500.0, abs=3 * math.sqrt(var / 300))

    def test_alpha_limit_collapses_to_centres(self):
        m = ModelParams(Family.THOMAS, gamma=3.0, alpha=1e-9, rho_Y=40.0)
        rng = RngStream(41, 0)
        centres = sample_centres(m, UNIT, Extension(0.0),
                                 RngStream(41, 0))
        pat = sample_model(m, UNIT, Extension(0.0), RngStream(41, 0))
        dmin = np.array([
            np.min(np.hypot(centres.points[:, 0] - x, centres.points[:, 1] - y))
            for x, y in pat.points])
        assert dmin.max() < 1e-7

    def test_determinism(self):
        m = ModelParams.most_repulsive(Family.GINIBRE, gamma=10.0, alpha=0.05,
                                       beta=0.1)
        a = sample_model(m, UNIT, rng=RngStream(43, 9))
        b = sample_model(m, UNIT, rng=RngStream(43, 9))
        assert np.array_equal(a.points, b.points)
        c = sample_model(m, UNIT, rng=RngStream(43, 10))
        assert not np.array_equal(a.points, c.points)

    @pytest.mark.slow
    def test_fig1_regime_count(self):
        m = ModelParams.most_repulsive(Family.GINIBRE, gamma=16 * math.pi,
                                       alpha=1.0, beta=4.0)
        w = Rect(0.0, 20.0, 0.0, 20.0)
        root = RngStream(47, 0)
        counts = [sample_model(m, w, rng=root.substream(i)).n
                  for i in range(120)]
        var_guess = 400 + (400 / m.gamma) * m.gamma ** 2  # Poisson + cluster
        assert np.mean(counts) == pytest.approx(
            400.0, abs=3 * math.sqrt(var_guess / 120))

    @pytest.mark.slow
    def test_beta_to_zero_is_thomas(self):
        # centre counts of a nearly-degenerate Ginibre DPP behave Poisson
        rho = 20.0
        beta = 0.01 / math.sqrt(math.pi * rho)
        m = ModelParams(Family.GINIBRE, gamma=1.0, alpha=0.05, rho_Y=rho,
                        beta=beta)
        w = Disc(0.0, 0.0, 0.6)
        root = RngStream(53, 0)
        counts = np.array([
            sample_centres(m, w, Extension(0.0), root.substream(i)).n
            for i in range(400)])
        target = rho * w.area
        assert counts.mean() == pytest.approx(
            target, abs=3 * math.sqrt(target / 400))
        # Poisson limit: variance/mean ratio near 1 (a strongly repulsive
        # DPP at this intensity would sit far below)
        assert counts.var(ddof=1) / counts.mean() == pytest.approx(1.0,
                                                                   abs=0.25)

    def test_requires_rng(self):
        with pytest.raises(ParameterError):
            sample_model(thomas(), UNIT)


class TestSizeLimits:
    """Models too large to draw are refused before any draw."""

    @pytest.mark.parametrize("m,quantity", [
        (thomas(gamma=2.0, alpha=0.03, rho_Y=1e300), "centre count"),
        (thomas(gamma=1e300, alpha=0.03, rho_Y=50.0), "point count"),
        (thomas(gamma=1e4, alpha=0.03, rho_Y=1e4), "point count"),
    ])
    def test_refused_before_any_draw(self, m, quantity, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"gen.{name} reached")

        monkeypatch.setattr(RngStream, "generator",
                            property(lambda self: NoDraws()))
        with pytest.raises(ParameterError, match=quantity) as err:
            sample_model(m, UNIT, rng=RngStream(1))
        assert "limit 1e+07" in str(err.value)

    def test_largest_drawn_models_are_far_below_the_limits(self):
        # criterion 4 (20 x 20 window), the large-pattern benchmark
        # workload (whiteoak's Thomas fit on a 3.3 x 3.3 square) and
        # criterion 6's cells (gamma = rho = 50 on the unit square)
        for m, w in (
                (ModelParams.most_repulsive(Family.GINIBRE, 9.0 * math.pi,
                                            1.0, 3.0), Rect(0, 20, 0, 20)),
                (thomas(gamma=2.19, alpha=0.03, rho_Y=204.11),
                 Rect(0, 3.3, 0, 3.3)),
                (thomas(gamma=50.0, alpha=0.05, rho_Y=50.0), UNIT)):
            w_ext = w.grow(default_extension(m).margin)
            assert m.rho_Y * w_ext.area < 1e-3 * dsncp.cluster.MAX_EXPECTED_CENTRES
            assert m.rho_X * w_ext.area < 1e-3 * dsncp.cluster.MAX_EXPECTED_POINTS
