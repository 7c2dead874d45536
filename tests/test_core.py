import math

import numpy as np
import pytest
from scipy import integrate

from dsncp.core import (
    Disc,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    UnsupportedWindowError,
    shift_intersection_area,
)
from dsncp.summaries import _gamma_cdf_vec


class TestWindows:
    def test_rect_area_and_sides(self):
        w = Rect(0.0, 20.0, -1.0, 3.0)
        assert w.area == 80.0
        assert w.side_lengths == (20.0, 4.0)

    def test_disc_area(self):
        w = Disc(1.0, 2.0, 3.0)
        assert w.area == pytest.approx(9.0 * math.pi, rel=1e-15)

    def test_degenerate_windows_rejected(self):
        with pytest.raises(ParameterError):
            Rect(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            Rect(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            Disc(0.0, 0.0, 0.0)

    def test_grow(self):
        w = Rect(0.0, 1.0, 0.0, 1.0).grow(0.5)
        assert (w.xmin, w.xmax, w.ymin, w.ymax) == (-0.5, 1.5, -0.5, 1.5)
        d = Disc(0.0, 0.0, 1.0).grow(0.25)
        assert d.radius == 1.25
        with pytest.raises(ParameterError):
            Rect(0.0, 1.0, 0.0, 1.0).grow(-0.1)

    def test_contains_closed_boundary(self):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0001, 0.5]])
        assert w.contains(pts).tolist() == [True, True, True, False]
        d = Disc(0.0, 0.0, 1.0)
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.8, 0.8]])
        assert d.contains(pts).tolist() == [True, True, False]

    def test_boundary_distance(self):
        w = Rect(0.0, 2.0, 0.0, 1.0)
        bd = w.boundary_distance(np.array([[0.3, 0.5], [1.0, 0.1]]))
        assert bd == pytest.approx([0.3, 0.1])
        d = Disc(0.0, 0.0, 2.0)
        bd = d.boundary_distance(np.array([[1.0, 0.0]]))
        assert bd == pytest.approx([1.0])

    def test_uniform_sampling_stays_inside_and_fills(self):
        gen = RngStream(7, 0).generator
        w = Rect(-1.0, 1.0, 2.0, 5.0)
        pts = w.sample_uniform(4000, gen)
        assert np.all(w.contains(pts))
        # mean of a uniform sample sits near the window centre
        assert np.allclose(pts.mean(axis=0), [0.0, 3.5], atol=0.1)
        d = Disc(2.0, -1.0, 1.5)
        pts = d.sample_uniform(4000, gen)
        assert np.all(d.contains(pts))
        assert np.allclose(pts.mean(axis=0), [2.0, -1.0], atol=0.1)
        # radial cdf of a uniform disc sample: P(R <= r) = (r/radius)^2
        r = np.hypot(pts[:, 0] - 2.0, pts[:, 1] + 1.0)
        assert np.mean(r <= 1.5 / math.sqrt(2)) == pytest.approx(0.5, abs=0.03)


class TestShiftIntersection:
    def test_hand_values_unit_square(self):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        assert shift_intersection_area(w, np.array([0.0, 0.0])) == 1.0
        assert shift_intersection_area(w, np.array([0.1, 0.0])) == pytest.approx(0.9)
        assert shift_intersection_area(w, np.array([0.1, 0.2])) == pytest.approx(0.72)
        assert shift_intersection_area(w, np.array([-0.1, 0.2])) == pytest.approx(0.72)
        assert shift_intersection_area(w, np.array([1.0, 0.0])) == 0.0
        assert shift_intersection_area(w, np.array([2.0, 0.5])) == 0.0

    def test_monte_carlo_oracle(self):
        # area of overlap == probability a uniform point lands in both copies
        w = Rect(0.0, 2.0, 0.0, 3.0)
        h = np.array([0.7, -1.1])
        gen = RngStream(11, 0).generator
        pts = w.sample_uniform(200_000, gen)
        shifted = pts - h  # u in (w + h) iff u - h in w
        inside = w.contains(shifted)
        mc = inside.mean() * w.area
        assert shift_intersection_area(w, h) == pytest.approx(mc, abs=0.05)
        assert shift_intersection_area(w, h) == pytest.approx((2 - 0.7) * (3 - 1.1))

    def test_disc_unsupported(self):
        with pytest.raises(UnsupportedWindowError):
            shift_intersection_area(Disc(0, 0, 1), np.array([0.1, 0.0]))


class TestPointPattern:
    def test_validates_containment(self):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            PointPattern(np.array([[0.5, 1.5]]), w)

    def test_empty_pattern_ok(self):
        p = PointPattern(np.zeros((0, 2)), Rect(0, 1, 0, 1))
        assert p.n == 0

    def test_restrict(self):
        w = Rect(0.0, 2.0, 0.0, 2.0)
        p = PointPattern(np.array([[0.5, 0.5], [1.5, 1.5]]), w)
        q = p.restrict(Rect(0.0, 1.0, 0.0, 1.0))
        assert q.n == 1
        assert q.points.tolist() == [[0.5, 0.5]]

    def test_csv_round_trip_is_exact(self, tmp_path):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        gen = RngStream(3, 0).generator
        p = PointPattern(w.sample_uniform(57, gen), w)
        path = tmp_path / "pts.csv"
        p.to_csv(path)
        q = PointPattern.from_csv(path, w)
        assert np.array_equal(p.points, q.points)
        assert path.read_text().splitlines()[0] == "x,y"

    def test_empty_csv_round_trip(self, tmp_path):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        path = tmp_path / "empty.csv"
        PointPattern(np.zeros((0, 2)), w).to_csv(path)
        q = PointPattern.from_csv(path, w)
        assert q.n == 0


class TestRngStream:
    def test_same_ids_same_draws(self):
        a = RngStream(123, 5).generator.random(32)
        b = RngStream(123, 5).generator.random(32)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngStream(123, 0).generator.random(32)
        b = RngStream(123, 1).generator.random(32)
        assert not np.array_equal(a, b)

    def test_generator_is_cached_and_stateful(self):
        s = RngStream(9, 2)
        first = s.generator.random(8)
        second = s.generator.random(8)
        assert not np.array_equal(first, second)
        fresh = RngStream(9, 2)
        assert np.array_equal(fresh.generator.random(16),
                              np.concatenate([first, second]))

    def test_substreams_deterministic_and_distinct(self):
        root = RngStream(42, 0)
        ids = {root.substream(i).stream_id for i in range(2000)}
        assert len(ids) == 2000
        assert root.substream(7).stream_id == RngStream(42, 0).substream(7).stream_id
        nested = {root.substream(i).substream(j).stream_id
                  for i in range(50) for j in range(50)}
        assert len(nested) == 2500

    def test_validation(self):
        with pytest.raises(ParameterError):
            RngStream(-1, 0)
        with pytest.raises(ParameterError):
            RngStream(1, -2)
        with pytest.raises(ParameterError):
            RngStream(1, 0).substream(-1)


class TestRegularizedGammaCdf:
    """The regularized lower incomplete gamma P(a, x) behind K_theoretical:
    the closed form at a = 1 (d = 2) and scipy's gammainc elsewhere."""

    def test_frozen_hand_values(self):
        # P(1, x) = 1 - exp(-x)
        assert _gamma_cdf_vec(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-14)
        # P(1/2, x) = erf(sqrt(x))
        assert _gamma_cdf_vec(0.5, 2.0) == pytest.approx(
            math.erf(math.sqrt(2.0)), abs=1e-13)
        # P(2, x) = 1 - (1 + x) exp(-x)
        assert _gamma_cdf_vec(2.0, 3.0) == pytest.approx(
            1.0 - 4.0 * math.exp(-3.0), abs=1e-14)
        assert _gamma_cdf_vec(3.0, 0.0) == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_quadrature_oracle(self):
        # direct numerical integral of the density, independent code path;
        # quad is pushed to its roundoff floor, hence the filtered warning
        for a in (0.5, 1.0, 1.5, 2.5, 7.0, 30.0, 200.5):
            xs = np.array([0.01, 0.5, a, a + 1.0, 3.0 * a + 10.0])
            got = _gamma_cdf_vec(a, xs)
            for x, g in zip(xs, got):
                val, err = integrate.quad(
                    lambda t: math.exp((a - 1.0) * math.log(t) - t
                                       - math.lgamma(a)),
                    0.0, x, limit=400, epsabs=1e-14, epsrel=1e-14)
                assert err < 1e-12
                assert g == pytest.approx(val, abs=1e-12), (a, x)

    def test_extreme_tails(self):
        assert _gamma_cdf_vec(10.0, 1e-8) == pytest.approx(0.0, abs=1e-12)
        assert _gamma_cdf_vec(10.0, 500.0) == pytest.approx(1.0, abs=1e-14)
        assert _gamma_cdf_vec(1e6, 2e6) == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_x(self):
        vals = _gamma_cdf_vec(3.7, np.linspace(0.0, 30.0, 400))
        assert np.all(np.diff(vals) >= 0)
