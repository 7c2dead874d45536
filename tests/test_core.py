import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsncp.core import (
    Disc,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
)


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
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError, match="must be finite"):
                Rect(0.0, 1.0, 0.0, bad)
            with pytest.raises(ParameterError, match="must be finite"):
                Disc(bad, 0.0, 1.0)
            with pytest.raises(ParameterError):
                Disc(0.0, 0.0, bad)

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
    """``set_covariance``: the area of the window intersected with its
    translate by a lag h."""

    def test_hand_values_unit_square(self):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        h = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.2], [-0.1, 0.2],
                      [1.0, 0.0], [2.0, 0.5]])
        np.testing.assert_allclose(w.set_covariance(h),
                                   [1.0, 0.9, 0.72, 0.72, 0.0, 0.0],
                                   rtol=1e-12)
        assert w.set_covariance(np.array([1.0, 0.0]))[0] == 0.0
        w = Rect(0.0, 2.0, 0.0, 3.0)
        assert w.set_covariance(np.array([0.7, -1.1]))[0] == \
            pytest.approx((2 - 0.7) * (3 - 1.1), rel=1e-15)

    @pytest.mark.parametrize("w, h", [
        (Rect(0.0, 2.0, 0.0, 3.0), np.array([0.7, -1.1])),
        (Disc(1.0, -2.0, 1.5), np.array([0.9, 1.6])),
    ], ids=["rect", "disc"])
    def test_monte_carlo_oracle(self, w, h):
        # area of overlap == probability a uniform point lands in both copies
        gen = RngStream(11, 0).generator
        pts = w.sample_uniform(200_000, gen)
        shifted = pts - h  # u in (w + h) iff u - h in w
        mc = w.contains(shifted).mean() * w.area
        assert w.set_covariance(h)[0] == pytest.approx(mc, abs=0.05)

    @settings(max_examples=60, deadline=None)
    @given(disc=st.booleans(),
           angle=st.floats(0.0, 2.0 * math.pi),
           lengths=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8))
    def test_properties_on_both_windows(self, disc, angle, lengths):
        w = Disc(0.3, -0.2, 1.7) if disc else Rect(-1.0, 2.0, 0.5, 1.5)
        assert w.set_covariance(np.zeros(2))[0] == pytest.approx(w.area,
                                                                 rel=1e-12)
        s = np.sort(np.asarray(lengths))
        h = s[:, None] * np.array([math.cos(angle), math.sin(angle)])
        cov = w.set_covariance(h)
        np.testing.assert_array_equal(cov, w.set_covariance(-h))
        assert np.all(cov >= 0.0)
        assert np.all(np.diff(cov) <= 1e-12)
        # no lag longer than the window's diameter leaves any overlap
        reach = 2.0 * w.circumradius
        assert np.all(cov[s > reach] == 0.0)


class TestPointPattern:
    def test_validates_containment(self):
        w = Rect(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            PointPattern(np.array([[0.5, 1.5]]), w)

    def test_empty_pattern_ok(self):
        p = PointPattern(np.zeros((0, 2)), Rect(0, 1, 0, 1))
        assert p.n == 0

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

    @pytest.mark.parametrize("first", ["0.25,0.5", " 1e-3 , 0.5", "nan,0.5"])
    def test_csv_without_header_is_refused(self, tmp_path, first):
        # a first line that reads as a point would be skipped as the header
        path = tmp_path / "bare.csv"
        path.write_text(f"{first}\n0.75,0.125\n")
        with pytest.raises(ParameterError,
                           match=r"bare\.csv: line 1: expected a header"):
            PointPattern.from_csv(path, Rect(0.0, 1.0, 0.0, 1.0))

    @pytest.mark.parametrize("header", ["x,y", "x", "x,y,mark", "#"])
    def test_any_other_first_line_is_a_header(self, tmp_path, header):
        path = tmp_path / "pts.csv"
        path.write_text(f"{header}\n0.75,0.125\n")
        q = PointPattern.from_csv(path, Rect(0.0, 1.0, 0.0, 1.0))
        assert q.points.tolist() == [[0.75, 0.125]]


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

