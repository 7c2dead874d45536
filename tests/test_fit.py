"""Tests for minimum-contrast fitting.

The optimizer is validated two ways: against synthetic empirical curves
equal to the exact theoretical K (objective 0 at the truth, which must be
recovered), and against an exhaustive refining grid search of the same
objective on a real simulated pattern.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsncp.fit
from dsncp.cluster import Family, ModelParams, sample_model
from dsncp.core import (
    InsufficientPointsError,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    read_json,
    write_json,
)
from dsncp.dpp import most_repulsive_intensity
from dsncp.fit import (
    ContrastOptions,
    FitResult,
    _contrast,
    min_contrast_fit,
)
from dsncp.summaries import K_hat, K_theoretical, SummaryCurve

UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def exact_curve(m, grid):
    return SummaryCurve(grid, K_theoretical(m, grid), "K")


def exact_curve_of(m):
    """A stand-in for ``K_hat`` that returns m's exact K on the grid."""
    return lambda p, grid: exact_curve(m, grid)


def contrast(k_hat, m, o):
    """The objective min_contrast_fit minimises, at the model m."""
    grid = o.grid()
    return _contrast(k_hat.values ** o.q, K_theoretical(m, grid), o, grid)


def dummy_pattern(n=50, seed=3):
    gen = RngStream(seed=seed).generator
    return PointPattern(UNIT.sample_uniform(n, gen), UNIT)


class TestContrastOptions:
    def test_defaults_from_window(self):
        o = ContrastOptions.for_window(Rect(0.0, 20.0, 0.0, 12.0))
        assert o.r_min == 0.0
        assert o.r_max == 3.0
        assert o.q == 0.25 and o.p == 2.0 and o.grid_size == 513
        assert o.max_iter == 600
        # the search box follows r_max: TestSearchBox pins it on this window
        assert [f.name for f in dataclasses.fields(o)] == [
            "r_min", "r_max", "q", "p", "grid_size", "max_iter"]

    def test_validation(self):
        with pytest.raises(ParameterError):
            ContrastOptions(r_min=0.5, r_max=0.5)
        with pytest.raises(ParameterError):
            ContrastOptions(r_min=0.0, r_max=1.0, q=0.0)
        with pytest.raises(ParameterError):
            ContrastOptions(r_min=0.0, r_max=1.0, p=0.5)
        for name, value, least in (("grid_size", 32, 64),
                                   ("grid_size", 100.5, 64),
                                   ("grid_size", True, 64),
                                   ("max_iter", 0, 1),
                                   ("max_iter", 600.5, 1)):
            with pytest.raises(ParameterError, match=re.escape(
                    f"{name} must be an integer >= {least}, got {value!r}")):
                ContrastOptions(r_min=0.0, r_max=1.0, **{name: value})

    @pytest.mark.parametrize("field,value", [
        ("r_min", math.inf), ("r_max", math.inf), ("r_max", math.nan),
        ("q", math.inf), ("p", math.inf)])
    def test_non_finite_field_is_refused(self, field, value):
        with pytest.raises(ParameterError, match=field):
            ContrastOptions(**{"r_min": 0.0, "r_max": 1.0, field: value})

    def test_dict_round_trip(self):
        # the options travel inside a fit JSON, as its six values
        o = ContrastOptions(r_min=0.1, r_max=2.0, q=0.5, p=3.0, grid_size=100,
                            max_iter=50)
        fit = FitResult(family=Family.GINIBRE, alpha=0.04, beta=0.09,
                        rho_Y=most_repulsive_intensity(0.09), gamma=6.0,
                        objective=1e-3, converged=True, options=o)
        d = json.loads(json.dumps(fit.to_dict()))
        assert d["options"] == {"r_min": 0.1, "r_max": 2.0, "q": 0.5, "p": 3.0,
                                "grid_size": 100, "max_iter": 50}
        assert FitResult.from_dict(d) == fit

    def test_fit_file_with_null_bounds_loads(self):
        # a fit file written while the search box was three options
        fit = min_contrast_fit(dummy_pattern(), "thomas")
        d = fit.to_dict()
        d["options"] = {**d["options"], "alpha_bounds": None,
                        "beta_bounds": None, "rho_bounds": None}
        assert FitResult.from_dict(d) == fit

    @pytest.mark.parametrize("key", ["alpha_bounds", "beta_bounds",
                                     "rho_bounds"])
    def test_fit_file_with_a_bound_is_refused(self, key):
        d = min_contrast_fit(dummy_pattern(), "thomas").to_dict()
        d["options"] = {**d["options"], key: [0.01, 1.0]}
        with pytest.raises(ParameterError,
                           match=rf"options\.{key} .*\[0\.01, 1\.0\]"):
            FitResult.from_dict(d)


class TestSearchBox:
    """The box is alpha in [r_max/1000, r_max], and beta in
    [r_max/1000, 4 r_max] for the DPP families or rho_Y in [1/|W|, 10 n/|W|]
    for Thomas; the nine starts are the interior points of its log-spaced
    5 x 5 grid."""

    W = Rect(0.0, 20.0, 0.0, 12.0)  # r_max 3, |W| 240

    @staticmethod
    def interior(lo, hi):
        return np.exp(np.linspace(math.log(lo), math.log(hi), 5)[1:4])

    @pytest.mark.parametrize("family,second", [
        ("thomas", (1.0 / 240.0, 10.0 * 60 / 240.0)),
        ("ginibre-dpp-thomas", (0.003, 12.0))], ids=["thomas", "ginibre"])
    def test_starts_span_the_box(self, family, second, monkeypatch):
        import scipy.optimize
        minimize = scipy.optimize.minimize
        starts = []

        def recording(fun, x0, **kwargs):
            starts.append(np.exp(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        gen = RngStream(seed=6).generator
        p = PointPattern(self.W.sample_uniform(60, gen), self.W)
        assert ContrastOptions.for_window(self.W).r_max == 3.0
        min_contrast_fit(p, family)
        want = [(a, s) for a in self.interior(0.003, 3.0)
                for s in self.interior(*second)]
        np.testing.assert_allclose(starts, want, rtol=1e-13)


class TestEstimateGamma:
    """The fit recovers gamma from the observed count: n / (|W| rho_Y)."""

    def test_count_identity(self, monkeypatch):
        # 448 points on the unit square with rho_Y = 35.32 gives 12.68
        m = TestSyntheticRecovery.cases[2]
        monkeypatch.setattr(dsncp.fit, "K_hat", exact_curve_of(m))
        fit = min_contrast_fit(dummy_pattern(n=448), m.family)
        assert fit.gamma == 448 / (1.0 * fit.rho_Y)
        assert abs(fit.gamma - 12.68) < 0.02

    def test_window_area_enters(self):
        gen = RngStream(seed=4).generator
        w = Rect(0.0, 2.0, 0.0, 5.0)
        p = PointPattern(w.sample_uniform(100, gen), w)
        fit = min_contrast_fit(p, "thomas")
        assert w.area == 10.0
        assert fit.gamma == 100 / (10.0 * fit.rho_Y)

    def test_errors(self, monkeypatch):
        # no points: refused before any gamma is formed
        with pytest.raises(InsufficientPointsError):
            min_contrast_fit(PointPattern(np.zeros((0, 2)), UNIT), "thomas")
        # a K far above any model in the box pushes rho_Y to its lower edge
        # 1/|W|, never to 0
        m = ModelParams(family="thomas", gamma=2.0, alpha=0.04, rho_Y=1e-6)
        monkeypatch.setattr(dsncp.fit, "K_hat", exact_curve_of(m))
        fit = min_contrast_fit(dummy_pattern(), "thomas")
        assert 1.0 <= fit.rho_Y < 1.01
        assert fit.gamma == 50 / fit.rho_Y


class TestContrastObjective:
    def test_zero_at_truth(self):
        m = ModelParams(family="thomas", gamma=2.0, alpha=0.04, rho_Y=120.0)
        o = ContrastOptions.for_window(UNIT)
        assert contrast(exact_curve(m, o.grid()), m, o) == 0.0

    def test_positive_away_from_truth(self):
        m = ModelParams(family="thomas", gamma=2.0, alpha=0.04, rho_Y=120.0)
        off = ModelParams(family="thomas", gamma=2.0, alpha=0.08, rho_Y=120.0)
        o = ContrastOptions.for_window(UNIT)
        assert contrast(exact_curve(m, o.grid()), off, o) > 1e-6

    def test_equals_scipy_trapezoid(self):
        from scipy.integrate import trapezoid
        m = ModelParams(family="thomas", gamma=2.0, alpha=0.04, rho_Y=120.0)
        off = ModelParams(family="thomas", gamma=2.0, alpha=0.07, rho_Y=90.0)
        gen = RngStream(seed=5).generator
        for o in (ContrastOptions.for_window(UNIT),
                  ContrastOptions(r_min=0.01, r_max=0.2, q=0.5, p=3.0,
                                  grid_size=100)):
            for grid in (o.grid(), np.sort(gen.uniform(0.01, 0.2, 100))):
                emp_q = K_theoretical(m, grid) ** o.q
                want = trapezoid(np.abs(emp_q - K_theoretical(off, grid)
                                        ** o.q) ** o.p, grid)
                assert _contrast(emp_q, K_theoretical(off, grid), o,
                                 grid) == float(want)


class TestSyntheticRecovery:
    cases = [
        ModelParams(family="thomas", gamma=2.19, alpha=0.03, rho_Y=204.11),
        ModelParams.most_repulsive(family="gaussian-dpp-thomas", gamma=4.25,
                                   alpha=0.03, beta=1.0 / math.sqrt(math.pi * 105.36)),
        ModelParams.most_repulsive(family="ginibre-dpp-thomas", gamma=12.68,
                                   alpha=0.05, beta=1.0 / math.sqrt(math.pi * 35.32)),
    ]

    @pytest.mark.parametrize("m", cases, ids=[c.family.value for c in cases])
    def test_exact_curve_recovers_parameters(self, m, monkeypatch):
        monkeypatch.setattr(dsncp.fit, "K_hat", exact_curve_of(m))
        o = ContrastOptions.for_window(UNIT)
        fit = min_contrast_fit(dummy_pattern(n=100), m.family, options=o)
        assert fit.converged
        assert fit.objective < 1e-14
        assert abs(fit.alpha - m.alpha) <= 1e-4 * m.alpha
        assert abs(fit.rho_Y - m.rho_Y) <= 1e-3 * m.rho_Y
        if m.family.is_dpp:
            assert abs(fit.beta - m.beta) <= 1e-4 * m.beta
            assert abs(fit.rho_Y - 1.0 / (math.pi * fit.beta ** 2)) < 1e-12
        else:
            assert fit.beta is None

    def test_gamma_uses_pattern_count(self, monkeypatch):
        m = self.cases[0]
        monkeypatch.setattr(dsncp.fit, "K_hat", exact_curve_of(m))
        o = ContrastOptions.for_window(UNIT)
        fit = min_contrast_fit(dummy_pattern(n=100), m.family, options=o)
        assert abs(fit.gamma - 100 / fit.rho_Y) < 1e-12


class TestOptimizer:
    def simulated(self, seed=41):
        m = ModelParams(family="thomas", gamma=3.0, alpha=0.035, rho_Y=120.0)
        return sample_model(m, UNIT, rng=RngStream(seed=seed))

    def test_matches_refining_grid_search(self):
        p = self.simulated()
        o = ContrastOptions.for_window(UNIT)
        fit = min_contrast_fit(p, "thomas", options=o)

        grid = o.grid()
        emp_q = K_hat(p, grid).values ** o.q

        def obj(alpha, rho):
            m = ModelParams(family="thomas", gamma=1.0, alpha=alpha, rho_Y=rho)
            theo = K_theoretical(m, grid)
            return float(np.trapezoid(np.abs(emp_q - theo ** o.q) ** o.p, grid)) \
                if hasattr(np, "trapezoid") else \
                float(np.trapz(np.abs(emp_q - theo ** o.q) ** o.p, grid))

        # the search box's rule for Thomas on the unit square
        lo = np.log([o.r_max / 1000.0, 1.0])
        hi = np.log([o.r_max, 10.0 * p.n])
        for _ in range(5):
            a_grid = np.linspace(lo[0], hi[0], 33)
            r_grid = np.linspace(lo[1], hi[1], 33)
            vals = np.array([[obj(math.exp(a), math.exp(r)) for r in r_grid]
                             for a in a_grid])
            ia, ir = np.unravel_index(np.argmin(vals), vals.shape)
            da = a_grid[1] - a_grid[0]
            dr = r_grid[1] - r_grid[0]
            lo = np.array([a_grid[ia] - da, r_grid[ir] - dr])
            hi = np.array([a_grid[ia] + da, r_grid[ir] + dr])
        best_alpha = math.exp((lo[0] + hi[0]) / 2)
        best_rho = math.exp((lo[1] + hi[1]) / 2)
        best_val = obj(best_alpha, best_rho)

        assert fit.objective <= best_val + 1e-9
        assert abs(fit.alpha - best_alpha) <= 1e-3 * best_alpha
        assert abs(fit.rho_Y - best_rho) <= 1e-3 * best_rho

    def test_scale_equivariance(self):
        p = self.simulated()
        fit1 = min_contrast_fit(p, "thomas")
        w2 = Rect(0.0, 2.0, 0.0, 2.0)
        p2 = PointPattern(p.points * 2.0, w2)
        fit2 = min_contrast_fit(p2, "thomas")
        assert abs(fit2.alpha - 2.0 * fit1.alpha) <= 1e-3 * fit1.alpha
        assert abs(fit2.rho_Y - fit1.rho_Y / 4.0) <= 1e-3 * fit1.rho_Y
        assert abs(fit2.gamma - fit1.gamma) <= 1e-3 * fit1.gamma

    def test_nonconvergence_is_flagged_and_best_point_kept(self):
        p = self.simulated()
        o = ContrastOptions.for_window(UNIT, max_iter=3)
        fit = min_contrast_fit(p, "thomas", options=o)
        assert not fit.converged
        assert np.isfinite(fit.objective)
        assert fit.alpha > 0 and fit.rho_Y > 0

    def test_requires_two_points(self):
        p = PointPattern(np.array([[0.5, 0.5]]), UNIT)
        with pytest.raises(InsufficientPointsError):
            min_contrast_fit(p, "thomas")

    def test_fits_of_one_pattern_share_one_pair_search(self, pair_searches):
        p = self.simulated()
        fits = [min_contrast_fit(p, fam) for fam in Family]
        assert len(pair_searches) == 1
        # the shared curve is the one a fresh pattern computes
        fresh = PointPattern(p.points, p.window)
        assert min_contrast_fit(fresh, Family.GINIBRE) == fits[-1]
        assert len(pair_searches) == 2

    def test_result_json_round_trip(self, tmp_path):
        p = self.simulated()
        fit = min_contrast_fit(p, "thomas")
        path = tmp_path / "fit.json"
        write_json(path, fit.to_dict())
        loaded = FitResult.from_dict(read_json(path))
        assert loaded == fit
        m = loaded.model()
        assert m.family is Family.THOMAS and m.alpha == fit.alpha

    def test_gaussian_fit_on_simulated_pattern(self):
        w = Rect(0.0, 20.0, 0.0, 20.0)
        m = ModelParams.most_repulsive(family="gaussian-dpp-thomas",
                                       gamma=9.0 * math.pi, alpha=1.0, beta=3.0)
        p = sample_model(m, w, rng=RngStream(seed=4242))
        fit = min_contrast_fit(p, "gaussian-dpp-thomas")
        # one realization only: generous sanity bands
        assert abs(fit.alpha - m.alpha) <= 0.35 * m.alpha
        assert abs(fit.beta - m.beta) <= 0.35 * m.beta
        assert fit.converged

    def test_fitted_dpp_result_always_revalidates(self):
        # this pattern's fitted beta lands where a bare 1/(pi beta^2) rounds
        # one ulp above the existence bound, so the tied intensity must come
        # from most_repulsive_intensity or model() raises ExistenceError
        m = ModelParams.most_repulsive(Family.GINIBRE, gamma=6.0, alpha=0.04,
                                       beta=0.09)
        p = sample_model(m, UNIT, rng=RngStream(7))
        fit = min_contrast_fit(p, Family.GINIBRE)
        assert fit.rho_Y == most_repulsive_intensity(fit.beta)
        refit = fit.model()
        assert refit.beta == fit.beta
        assert refit.rho_Y == fit.rho_Y


@pytest.mark.slow
class TestRecoveryStudyRegime:
    def test_median_alpha_within_15_percent(self):
        m = ModelParams.most_repulsive(family="ginibre-dpp-thomas", gamma=50.0,
                                       alpha=0.05, beta=1.0 / math.sqrt(50 * math.pi))
        alphas = []
        betas = []
        for k in range(15):
            p = sample_model(m, UNIT, rng=RngStream(seed=900, stream_id=k))
            fit = min_contrast_fit(p, m.family)
            alphas.append(fit.alpha)
            betas.append(fit.beta)
        med_alpha = float(np.median(alphas))
        med_beta = float(np.median(betas))
        assert abs(med_alpha - m.alpha) <= 0.15 * m.alpha
        assert abs(med_beta - m.beta) <= 0.20 * m.beta


_FRESH_FIT = """
import json, sys
import dsncp, dsncp.cli
heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize")
loaded = [name for name in heavy if name in sys.modules]
from dsncp.cluster import ModelParams, sample_model
from dsncp.core import Rect, RngStream
from dsncp.fit import min_contrast_fit
m = ModelParams(family="thomas", gamma=4.0, alpha=0.04, rho_Y=60.0)
p = sample_model(m, Rect(0.0, 1.0, 0.0, 1.0), rng=RngStream(seed=21))
fit = min_contrast_fit(p, "thomas")
print(json.dumps({"loaded": loaded,
                  "optimize_after_fit": "scipy.optimize" in sys.modules,
                  "fit": fit.to_dict()}))
"""


def test_import_loads_no_heavy_scipy_module():
    # importing the package and its CLI must not pay for scipy.stats,
    # scipy.integrate or scipy.optimize; the first fit loads the optimizer
    # and gives the same result as in this (already warm) process
    src = str(Path(dsncp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FRESH_FIT], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["optimize_after_fit"]
    m = ModelParams(family="thomas", gamma=4.0, alpha=0.04, rho_Y=60.0)
    p = sample_model(m, UNIT, rng=RngStream(seed=21))
    assert out["fit"] == min_contrast_fit(p, "thomas").to_dict()
