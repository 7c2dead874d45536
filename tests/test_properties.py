"""Standalone property suite.

Each class here re-derives one structural property from scratch so the
file can run on its own: determinant consistency of the n-th order
intensities, isometry invariance, exactness of the existence boundary,
zero-objective fit recovery, scale equivariance of fits, and the worked
extreme-rank-length examples.
"""

import math

import numpy as np
import pytest

import dsncp.fit
from dsncp.cluster import Family, ModelParams, sample_model
from dsncp.core import (
    ExistenceError,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
)
from dsncp.dpp import (
    GaussianDpp,
    GinibreDpp,
    kernel_matrix,
    max_admissible_beta,
    most_repulsive_intensity,
    nth_order_intensity,
)
from dsncp.envelope import CurveEnsemble, _erl_order_statistics, global_envelope
from dsncp.fit import ContrastOptions, min_contrast_fit
from dsncp.summaries import K_theoretical, SummaryCurve

UNIT = Rect(0.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def dummy_pattern():
    # supplies n and the window for the fit search bounds only
    gen = np.random.default_rng(7)
    return PointPattern(gen.uniform(0.0, 1.0, (448, 2)), UNIT)

FAMILIES = [
    GaussianDpp(rho_Y=1.0 / (4.0 * math.pi), beta=1.7),
    GinibreDpp(rho_Y=1.0 / (9.0 * math.pi), beta=2.4),
]


def random_config(n, seed):
    gen = np.random.default_rng(seed)
    return gen.uniform(-2.0, 2.0, (n, 2))


class TestDeterminantConsistency:
    """The n-point intensity is the kernel-matrix determinant."""

    @pytest.mark.parametrize("family", FAMILIES, ids=["gaussian", "ginibre"])
    def test_first_order_is_intensity(self, family):
        for seed in range(5):
            pt = random_config(1, seed)
            assert nth_order_intensity(family, pt) == pytest.approx(
                family.rho_Y, rel=1e-14)

    @pytest.mark.parametrize("family", FAMILIES, ids=["gaussian", "ginibre"])
    def test_second_order_closed_form(self, family):
        # det of the 2x2 kernel matrix collapses to rho^2 (1 - |R(h)|^2)
        for seed in range(8):
            pts = random_config(2, seed)
            h = pts[0] - pts[1]
            want = family.rho_Y ** 2 * (
                1.0 - math.exp(-(h @ h) / family.range_sq))
            got = nth_order_intensity(family, pts)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("family", FAMILIES, ids=["gaussian", "ginibre"])
    def test_third_order_cofactor_expansion(self, family):
        # independent evaluation of the 3x3 determinant by cofactors
        for seed in range(8):
            pts = random_config(3, seed)
            c = kernel_matrix(family, pts)
            det = (c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
                   - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
                   + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0]))
            got = nth_order_intensity(family, pts)
            assert got == pytest.approx(complex(det).real, rel=1e-9,
                                        abs=1e-300)
            assert abs(complex(det).imag) <= 1e-9 * max(
                abs(det), family.rho_Y ** 3)

    @pytest.mark.parametrize("family", FAMILIES, ids=["gaussian", "ginibre"])
    def test_bounds_up_to_n5(self, family):
        # repulsiveness: 0 <= rho^(n) <= rho_Y^n
        for n in range(1, 6):
            for seed in range(4):
                val = nth_order_intensity(family, random_config(n, 10 + seed))
                assert -1e-12 * family.rho_Y ** n <= val
                assert val <= family.rho_Y ** n * (1.0 + 1e-12)


class TestIsometryInvariance:
    """rho^(n) depends only on the point configuration's shape."""

    @pytest.mark.parametrize("family", FAMILIES, ids=["gaussian", "ginibre"])
    def test_rotation_translation_reflection(self, family):
        gen = np.random.default_rng(99)
        for n in range(1, 6):
            pts = random_config(n, 40 + n)
            base = nth_order_intensity(family, pts)
            for _ in range(3):
                theta = gen.uniform(0.0, 2.0 * math.pi)
                rot = np.array([[math.cos(theta), -math.sin(theta)],
                                [math.sin(theta), math.cos(theta)]])
                shift = gen.uniform(-5.0, 5.0, 2)
                moved = pts @ rot.T + shift
                assert nth_order_intensity(family, moved) == pytest.approx(
                    base, rel=1e-9, abs=1e-300)
            reflected = pts * np.array([-1.0, 1.0])
            assert nth_order_intensity(family, reflected) == pytest.approx(
                base, rel=1e-9, abs=1e-300)


class TestExistenceBoundary:
    """beta = max_admissible_beta(rho_Y) is admissible; one ulp more is not."""

    @pytest.mark.parametrize("cls", [GaussianDpp, GinibreDpp])
    @pytest.mark.parametrize("rho", [0.05, 1.0 / math.pi, 35.32, 204.11])
    def test_boundary_is_exact(self, cls, rho):
        b = max_admissible_beta(rho)
        cls(rho_Y=rho, beta=b)
        above = float(np.nextafter(b, np.inf))
        with pytest.raises(ExistenceError) as exc:
            cls(rho_Y=rho, beta=above)
        assert exc.value.max_beta == b
        assert str(exc.value) == (f"no DPP exists with rho_Y={rho}, "
                                  f"beta={above}: beta must be <= {b!r}")

    def test_bound_identity(self):
        for rho in [0.1, 1.0, 35.32, 204.11]:
            b = max_admissible_beta(rho)
            assert math.pi * rho * b * b == pytest.approx(1.0, rel=1e-15)

    def test_tied_intensity_round_trips(self):
        # most_repulsive_intensity output always validates at its own beta
        for beta in [0.03, 0.055, 0.09, 0.5, 1.0, 2.0, 3.0, 3.5, 17.0]:
            rho = most_repulsive_intensity(beta)
            GaussianDpp(rho_Y=rho, beta=beta)
            GinibreDpp(rho_Y=rho, beta=beta)
            assert rho == pytest.approx(1.0 / (math.pi * beta * beta),
                                        rel=1e-14)

    def test_known_boundary_cases(self):
        # the standard Ginibre process sits exactly on the boundary
        GinibreDpp(rho_Y=1.0 / math.pi, beta=1.0)
        with pytest.raises(ExistenceError) as exc:
            GaussianDpp(rho_Y=1.0 / math.pi, beta=1.01)
        assert exc.value.max_beta == pytest.approx(1.0, rel=1e-12)


class TestZeroObjectiveRecovery:
    """Fitting a curve generated by the model returns the generator."""

    CASES = [
        (Family.THOMAS, ModelParams(Family.THOMAS, gamma=2.19, alpha=0.03,
                                    rho_Y=204.11)),
        (Family.GAUSSIAN, ModelParams.most_repulsive(
            Family.GAUSSIAN, gamma=4.25, alpha=0.03, beta=0.055)),
        (Family.GINIBRE, ModelParams.most_repulsive(
            Family.GINIBRE, gamma=12.68, alpha=0.05, beta=0.095)),
    ]

    @pytest.mark.parametrize("family,truth", CASES,
                             ids=[f.value for f, _ in CASES])
    def test_recovery_within_1e4(self, family, truth, dummy_pattern,
                                 monkeypatch):
        # the fit sees truth's exact K in place of the pattern's
        monkeypatch.setattr(dsncp.fit, "K_hat", lambda p, grid: SummaryCurve(
            r=grid, values=K_theoretical(truth, grid), statistic="K"))
        opts = ContrastOptions.for_window(UNIT)
        fit = min_contrast_fit(dummy_pattern, family, options=opts)
        assert fit.converged
        assert fit.alpha == pytest.approx(truth.alpha, rel=1e-4)
        if truth.beta is not None:
            # rho_Y is tied to beta, so its error is at most twice beta's
            assert fit.beta == pytest.approx(truth.beta, rel=1e-4)
            assert fit.rho_Y == pytest.approx(truth.rho_Y, rel=2.1e-4)
        else:
            assert fit.rho_Y == pytest.approx(truth.rho_Y, rel=1e-4)


class TestScaleEquivariance:
    """Scaling the data by s scales alpha and beta by s and rho by 1/s^2."""

    @pytest.mark.parametrize("family", list(Family),
                             ids=[f.value for f in Family])
    def test_factor_two(self, family):
        m = ModelParams(Family.THOMAS, gamma=5.0, alpha=0.04, rho_Y=60.0)
        p = sample_model(m, UNIT, rng=RngStream(4242))
        s = 2.0
        scaled = PointPattern(p.points * s, Rect(0.0, s, 0.0, s))
        f1 = min_contrast_fit(p, family)
        f2 = min_contrast_fit(scaled, family)
        assert f2.alpha == pytest.approx(s * f1.alpha, rel=1e-3)
        assert f2.rho_Y == pytest.approx(f1.rho_Y / s ** 2, rel=1e-3)
        assert f2.gamma == pytest.approx(f1.gamma, rel=1e-3)
        if f1.beta is not None:
            assert f2.beta == pytest.approx(s * f1.beta, rel=1e-3)


def erl_statistic(ens):
    """The ERL order statistic global_envelope ranks by; observed first."""
    return _erl_order_statistics(np.vstack([ens.observed, ens.sims]))


class TestExtremeRankLengthExamples:
    """Worked examples with every value derived by hand.

    With observed 10 against simulations {1, 2, 3, 4}, the pointwise
    two-sided rank of a curve is its distance from the nearer end of the
    sorted column, so both constants 10 and 1 get rank 1 everywhere and
    tie; the sorted-rank vectors order the five curves as statistics
    [1, 1, 3, 5, 3], and p = (1 + #{sims <= observed}) / 5 = 2/5.
    """

    def ensemble(self):
        grid = np.linspace(0.1, 0.7, 7)
        obs = np.full(7, 10.0)
        sims = np.tile(np.array([1.0, 2.0, 3.0, 4.0])[:, None], (1, 7))
        return CurveEnsemble(grid, obs, sims)

    def test_statistic_vector_exact(self):
        stat = erl_statistic(self.ensemble())
        assert stat.tolist() == [1, 1, 3, 5, 3]

    def test_p_value_exact(self):
        res = global_envelope(self.ensemble(), level=0.8)
        assert res.p_value == pytest.approx(0.4, abs=0)

    def test_envelope_bounds_exact(self):
        res = global_envelope(self.ensemble(), level=0.8)
        assert np.all(res.lower == 1.0)
        assert np.all(res.upper == 4.0)
        assert np.all(res.central == 2.5)
        assert np.all(res.observed > res.upper)

    def test_sign_flip_invariance(self):
        e = self.ensemble()
        flipped = CurveEnsemble(e.r, -e.observed, -e.sims)
        assert erl_statistic(flipped).tolist() == [1, 1, 3, 5, 3]

    def test_monotone_transform_invariance(self):
        e = self.ensemble()
        gen = np.random.default_rng(3)
        scale = gen.uniform(0.5, 2.0, e.r.size)
        shift = gen.uniform(-1.0, 1.0, e.r.size)
        warped = CurveEnsemble(e.r, e.observed * scale + shift,
                               e.sims * scale + shift)
        assert erl_statistic(warped).tolist() == [1, 1, 3, 5, 3]

    def test_median_curve_is_least_extreme(self):
        grid = np.linspace(0.1, 0.5, 5)
        obs = np.full(5, 3.0)
        sims = np.tile(np.array([1.0, 2.0, 4.0, 5.0])[:, None], (1, 5))
        stat = erl_statistic(CurveEnsemble(grid, obs, sims))
        assert stat[0] == stat.max()
        res = global_envelope(CurveEnsemble(grid, obs, sims), level=0.8)
        assert res.p_value == pytest.approx(1.0, abs=0)
        assert np.all(res.observed >= res.lower)
        assert np.all(res.observed <= res.upper)
