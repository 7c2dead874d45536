"""Tests for extreme-rank-length ordering, global envelopes, the
envelope test driver, and the study harness.

The constant-curve hand example is worked out in full: with curves
{10, 1, 2, 3, 4} the two-sided pointwise rank of both extremes is
min(1, 5) = 1, so the observed curve ties with the bottom simulation;
the conservative tie rule then gives p = 2/5.
"""

import ctypes
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dsncp.envelope
import dsncp.fit
import dsncp.summaries
from dsncp.cluster import Family, ModelParams, sample_model
from dsncp.core import (
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    write_json,
)
from dsncp.envelope import (
    STUDY_CSV_HEADER,
    CurveEnsemble,
    EnvelopeResult,
    StudyConfig,
    _erl_order_statistics,
    envelope_test,
    global_envelope,
    resume_study,
    run_study,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
GRID7 = np.linspace(0.1, 0.7, 7)


def constant_ensemble(obs_value, sim_values, width=7):
    grid = np.linspace(0.1, 0.7, width)
    obs = np.full(width, float(obs_value))
    sims = np.tile(np.asarray(sim_values, dtype=float)[:, None], (1, width))
    return CurveEnsemble(grid, obs, sims)


def erl_statistic(ens):
    """The ERL order statistic global_envelope ranks by; observed first."""
    return _erl_order_statistics(np.vstack([ens.observed, ens.sims]))


class TestCurveEnsemble:
    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            CurveEnsemble(GRID7, np.zeros(6), np.zeros((3, 7)))
        with pytest.raises(ParameterError):
            CurveEnsemble(GRID7, np.zeros(7), np.zeros((0, 7)))
        with pytest.raises(ParameterError):
            CurveEnsemble(GRID7, np.zeros(7), np.zeros((3, 6)))

    def test_non_finite_columns_dropped_ensemble_wide(self):
        obs = np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0])
        sims = np.ones((3, 7))
        sims[1, 4] = np.inf
        ens = CurveEnsemble(GRID7, obs, sims)
        assert ens.r.size == 5
        np.testing.assert_array_equal(ens.r, GRID7[[0, 2, 3, 5, 6]])
        assert ens.sims.shape == (3, 5)

    def test_all_columns_bad_is_an_error(self):
        with pytest.raises(ParameterError):
            CurveEnsemble(GRID7, np.full(7, np.nan), np.ones((2, 7)))


class TestExtremeRankLength:
    def test_constant_curve_hand_example(self):
        # curves {10, 1, 2, 3, 4}: two-sided ranks 10->1, 1->1, 2->2,
        # 4->2, 3->3; the observed curve has pointwise rank 1 everywhere
        # and shares maximal extremeness with the bottom simulation
        ens = constant_ensemble(10.0, [1.0, 2.0, 3.0, 4.0])
        stat = erl_statistic(ens)
        np.testing.assert_array_equal(stat, [1, 1, 3, 5, 3])

    def test_observed_identical_to_one_sim_ties(self):
        ens = constant_ensemble(2.0, [1.0, 2.0, 3.0, 4.0])
        stat = erl_statistic(ens)
        assert stat[0] == stat[2]

    def test_sign_flip_leaves_ordering_unchanged(self):
        gen = RngStream(seed=60).generator
        grid = np.linspace(0.0, 1.0, 20)
        obs = gen.normal(size=20)
        sims = gen.normal(size=(15, 20))
        a = erl_statistic(CurveEnsemble(grid, obs, sims))
        b = erl_statistic(CurveEnsemble(grid, -obs, -sims))
        np.testing.assert_array_equal(a, b)

    def test_monotone_transform_invariance(self):
        # ranks only see the pointwise order, so any strictly increasing
        # map applied at a fixed grid point changes nothing
        gen = RngStream(seed=61).generator
        grid = np.linspace(0.0, 1.0, 12)
        obs = gen.normal(size=12)
        sims = gen.normal(size=(9, 12))
        a = erl_statistic(CurveEnsemble(grid, obs, sims))
        scale = np.exp(gen.normal(size=12))
        shift = gen.normal(size=12)
        b = erl_statistic(
            CurveEnsemble(grid, obs * scale + shift, sims * scale + shift))
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda m: st.integers(1, 6).flatmap(
        lambda k: arrays(np.int64, (m, k), elements=st.integers(0, 3)))))
    def test_matches_lexicographic_oracle(self, curves):
        # values in 0..3 force ties; the oracle ranks each curve by its
        # rank-count vector c[k] = #{r : pointwise two-sided rank = k}, a
        # curve being more extreme when its vector is larger
        # lexicographically (more rank-1 points first, then rank-2, ...)
        m = curves.shape[0]
        counts = []
        for j in range(m):
            c = [0] * m
            for col in curves.T:
                lo = 1 + sum(v < col[j] for v in col)
                hi = 1 + sum(v > col[j] for v in col)
                c[min(lo, hi) - 1] += 1
            counts.append(tuple(c))
        want_stat = [1 + sum(c > counts[j] for c in counts) for j in range(m)]
        stat = _erl_order_statistics(curves.astype(float))
        assert stat.tolist() == want_stat

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda m: st.integers(1, 8).flatmap(
        lambda k: st.one_of(
            arrays(np.int64, (m, k), elements=st.integers(-2, 2)),
            arrays(np.int64, (m, k), elements=st.integers(-15, 15)).map(
                lambda a: a / 10.0)))))
    @example(np.array([[1.0], [1.0]]))
    @example(np.array([[0.1], [0.2]]))
    @example(np.array([[3.0, 1.0, 2.0], [3.0, 2.0, 1.0]]))
    @example(np.array([[0.0], [1.0], [0.0], [2.0], [1.0]]))
    def test_matches_rankdata_reference(self, curves):
        # integer and 1-decimal values make ties common; the reference
        # takes competition ranks from scipy, then orders curves by their
        # ascending-sorted ranks, smaller tuples being more extreme
        from scipy.stats import rankdata
        curves = curves.astype(float)
        m = curves.shape[0]
        ranks = np.minimum(rankdata(curves, method="min", axis=0),
                           rankdata(-curves, method="min", axis=0))
        keys = [tuple(sorted(row)) for row in ranks.tolist()]
        want_stat = [1 + sum(k < keys[j] for k in keys) for j in range(m)]
        stat = _erl_order_statistics(curves)
        assert stat.tolist() == want_stat

    def test_duplicate_of_observed_cannot_raise_extremeness(self):
        ens = constant_ensemble(10.0, [1.0, 2.0, 3.0, 4.0])
        with_dup = constant_ensemble(10.0, [1.0, 2.0, 3.0, 4.0, 10.0])
        assert erl_statistic(with_dup)[0] == 1
        p_before = global_envelope(ens, level=0.8).p_value
        p_after = global_envelope(with_dup, level=0.8).p_value
        assert p_after >= p_before


class TestGlobalEnvelope:
    def test_constant_curve_envelope(self):
        ens = constant_ensemble(10.0, [1.0, 2.0, 3.0, 4.0])
        res = global_envelope(ens, level=0.8)
        # observed ties with the bottom sim, so two of five curves are at
        # least as extreme as the observed one
        assert res.p_value == pytest.approx(2.0 / 5.0)
        # the single dropped curve is the observed one (index tie-break),
        # leaving all four sims to span the envelope
        np.testing.assert_array_equal(res.lower, np.full(7, 1.0))
        np.testing.assert_array_equal(res.upper, np.full(7, 4.0))
        assert np.all(res.observed > res.upper)  # observed falls outside
        np.testing.assert_allclose(res.central, 2.5)

    def test_boundary_ties_drop_by_curve_index(self):
        # sims 1-5 are (10, -10) and sims 6-10 are (-10, 10): all ten
        # have pointwise rank 1 at both grid points and tie as the most
        # extreme. At level 0.95, 5 of the 100 curves are dropped, the
        # five of lowest index, so every (10, -10) goes and the envelope
        # reaches 10 only where the (-10, 10) curves do
        mid = np.linspace(-1.0, 1.0, 89)
        sims = np.vstack([np.tile([10.0, -10.0], (5, 1)),
                          np.tile([-10.0, 10.0], (5, 1)),
                          np.column_stack([mid, mid[::-1]])])
        ens = CurveEnsemble(np.array([0.1, 0.2]), np.zeros(2), sims)
        np.testing.assert_array_equal(erl_statistic(ens)[1:11], 1)
        res = global_envelope(ens, level=0.95)
        np.testing.assert_array_equal(res.lower, [-10.0, -1.0])
        np.testing.assert_array_equal(res.upper, [1.0, 10.0])

    def test_p_value_support(self):
        gen = RngStream(seed=62).generator
        grid = np.linspace(0.0, 1.0, 10)
        for _ in range(25):
            ens = CurveEnsemble(grid, gen.normal(size=10),
                                gen.normal(size=(9, 10)))
            p = global_envelope(ens, level=0.5).p_value
            assert abs(p * 10 - round(p * 10)) < 1e-12
            assert 0.1 - 1e-12 <= p <= 1.0

    def test_median_observed_curve_is_inside(self):
        gen = RngStream(seed=63).generator
        grid = np.linspace(0.0, 1.0, 50)
        sims = gen.normal(size=(2499, 50))
        obs = np.median(sims, axis=0)
        res = global_envelope(CurveEnsemble(grid, obs, sims), level=0.95)
        assert res.p_value > 0.9
        assert np.all(res.observed >= res.lower)
        assert np.all(res.observed <= res.upper)

    def test_envelopes_nest_with_level(self):
        gen = RngStream(seed=64).generator
        grid = np.linspace(0.0, 1.0, 30)
        ens = CurveEnsemble(grid, gen.normal(size=30),
                            gen.normal(size=(199, 30)))
        e90 = global_envelope(ens, level=0.90)
        e95 = global_envelope(ens, level=0.95)
        assert np.all(e90.lower >= e95.lower)
        assert np.all(e90.upper <= e95.upper)

    def test_too_few_sims_for_level(self):
        ens = constant_ensemble(0.0, list(range(1, 11)))  # s = 10
        with pytest.raises(ParameterError):
            global_envelope(ens, level=0.95)

    def test_result_files(self, tmp_path):
        ens = constant_ensemble(10.0, [1.0, 2.0, 3.0, 4.0])
        res = global_envelope(ens, level=0.8, statistic="K")
        csv = tmp_path / "env.csv"
        res.to_csv(csv)
        header = csv.read_text().splitlines()[0]
        assert header == "r,obs,lo,hi,central"
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape == (7, 5)
        meta_path = tmp_path / "env.json"
        write_json(meta_path, res.meta())
        meta = json.loads(meta_path.read_text())
        assert meta["p_value"] == pytest.approx(0.4)
        assert meta["statistic"] == "K"
        assert meta["n_sim"] == 4


def _blas_thread_getter():
    """numpy's bundled OpenBLAS thread-count getter, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        getter = getattr(ctypes.CDLL(str(path)),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def _blas_threads(_) -> int:
    return _blas_thread_getter()()


def thomas_pattern(seed=70, gamma=6.0, rho=50.0, alpha=0.05):
    m = ModelParams(family="thomas", gamma=gamma, alpha=alpha, rho_Y=rho)
    return m, sample_model(m, UNIT, rng=RngStream(seed=seed))


class TestEnvelopeTest:
    def test_validation(self):
        m, p = thomas_pattern()
        rng = RngStream(seed=1)
        with pytest.raises(ParameterError):
            envelope_test(p, m, statistic="Z", n_sim=99, rng=rng)
        with pytest.raises(ParameterError):
            envelope_test(p, m, statistic="J", n_sim=19, rng=rng)
        with pytest.raises(ParameterError):
            envelope_test(p, m, statistic="J", n_sim=99, rng=None)

    def test_unreachable_level_refused_before_simulating(self, request):
        # floor(0.01 * 51) = 0: no simulated curve could be retained
        m, p = thomas_pattern()
        request.getfixturevalue("no_draws")  # stub draws after the data's
        with pytest.raises(ParameterError, match="too few for level 0.99"):
            envelope_test(p, m, statistic="J", n_sim=50, rng=RngStream(1),
                          level=0.99)
        with pytest.raises(ParameterError, match="level must be in"):
            envelope_test(p, m, statistic="J", n_sim=99, rng=RngStream(1),
                          level=1.5)
        for jobs in (0, -4):
            with pytest.raises(ParameterError, match="jobs must be >= 1"):
                envelope_test(p, m, statistic="J", n_sim=99,
                              rng=RngStream(1), jobs=jobs)

    def test_oversized_model_refused_before_any_curve(self, monkeypatch,
                                                      request):
        _, p = thomas_pattern()
        request.getfixturevalue("no_draws")  # stub draws after the data's

        def unreachable(*args, **kwargs):
            raise AssertionError("envelope_test computed before refusing")
        for name in ("F_hat", "G_hat"):
            monkeypatch.setattr(dsncp.summaries, name, unreachable)
        for m, quantity in (
                (ModelParams(family="thomas", gamma=6.0, alpha=0.05,
                             rho_Y=1e9), "centre count"),
                (ModelParams(family="thomas", gamma=1e9, alpha=0.05,
                             rho_Y=50.0), "point count")):
            with pytest.raises(ParameterError, match=f"expected {quantity}"):
                envelope_test(p, m, statistic="J", n_sim=99,
                              rng=RngStream(1))

    def test_self_test_accepts_true_model(self):
        m, p = thomas_pattern(seed=71)
        res = envelope_test(p, m, statistic="J", n_sim=99,
                            rng=RngStream(seed=72))
        assert res.p_value > 0.05
        assert res.n_sim == 99
        assert res.statistic == "J"
        assert res.r.size > 0
        assert np.all(res.lower <= res.upper)

    def test_deterministic_given_stream(self):
        m, p = thomas_pattern(seed=73)
        a = envelope_test(p, m, statistic="K", n_sim=99, rng=RngStream(seed=5))
        b = envelope_test(p, m, statistic="K", n_sim=99, rng=RngStream(seed=5))
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        c = envelope_test(p, m, statistic="K", n_sim=99, rng=RngStream(seed=6))
        assert not np.array_equal(a.lower, c.lower)

    def test_parallel_matches_sequential(self):
        m, p = thomas_pattern(seed=74)
        seq = envelope_test(p, m, statistic="K", n_sim=99,
                            rng=RngStream(seed=7), jobs=1)
        par = envelope_test(p, m, statistic="K", n_sim=99,
                            rng=RngStream(seed=7), jobs=2)
        assert seq.p_value == par.p_value
        np.testing.assert_array_equal(seq.lower, par.lower)
        np.testing.assert_array_equal(seq.upper, par.upper)

    def test_pool_workers_run_one_blas_thread(self):
        # where numpy bundles scipy-openblas; the parent keeps its count
        getter = _blas_thread_getter()
        if getter is None:
            pytest.skip("numpy bundles no scipy-openblas library")
        before = getter()
        with dsncp.envelope._process_pool(2) as pool:
            assert set(pool.map(_blas_threads, range(4))) == {1}
        assert getter() == before

    def test_pcf_statistic_trims_grid(self):
        m, p = thomas_pattern(seed=75)
        res = envelope_test(p, m, statistic="pcf", n_sim=99,
                            rng=RngStream(seed=8))
        assert res.r[0] > 0.0
        assert res.p_value > 0.0

    def test_accepts_fit_result(self):
        from dsncp.fit import min_contrast_fit
        m, p = thomas_pattern(seed=76)
        fit = min_contrast_fit(p, "thomas")
        for stat in ("G", "F"):
            res = envelope_test(p, fit, statistic=stat, n_sim=99,
                                rng=RngStream(seed=9))
            assert res.statistic == stat
            assert 0.0 < res.p_value <= 1.0


class TestStudy:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            StudyConfig(alpha_values=(), gamma_values=(1,), rho_values=(1,))
        with pytest.raises(ParameterError):
            StudyConfig(alpha_values=(0.05,), gamma_values=(-1,),
                        rho_values=(1,))
        with pytest.raises(ParameterError):
            StudyConfig(alpha_values=(0.05,), gamma_values=(1,),
                        rho_values=(1,), statistic="Z")
        # a float count from a config file would only fail mid-study
        for name, value in (("jobs", 0), ("jobs", -4), ("jobs", 1.5),
                            ("replicates", 2.5), ("n_sim", 99.5)):
            with pytest.raises(ParameterError,
                               match=f"{name} must be an integer >= 1"):
                StudyConfig(alpha_values=(0.05,), gamma_values=(1,),
                            rho_values=(1,), **{name: value})
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(1,),
                          rho_values=(1,), replicates=np.int64(2))
        assert cfg.replicates == 2

    @pytest.mark.parametrize("field,message", [
        ({"level": 1.5}, "level must be in (0, 1), got 1.5"),
        ({"level": "x"}, "level must be in (0, 1), got 'x'"),
        ({"n_sim": 10}, "need at least 99 simulations at level 0.95"),
        ({"n_sim": 50, "level": 0.99}, "50 simulations are too few"),
        ({"alpha_values": (0.05, math.inf)},
         "alpha_values must be finite and > 0, got inf"),
        ({"gamma_values": (math.nan,)}, "gamma_values must be finite"),
        ({"rho_values": ("x",)}, "rho_values must be a list of numbers"),
        ({"rho_values": (None,)}, "rho_values must be a list of numbers"),
        ({"families": ("bogus",)}, "unknown family 'bogus'; choose one of"),
        ({"rho_values": (1e9,)}, "cell thomas alpha=0.05 gamma=8.0 "
         "rhoY=1000000000.0: expected centre count rho_Y |W_ext| is 1.96e+09"),
    ], ids=["level", "level-str", "n_sim", "n_sim-0.99", "alpha-inf",
            "gamma-nan", "rho-str", "rho-null", "family", "too-large"])
    def test_config_that_cannot_run_is_refused(self, field, message):
        # refused on construction, so no cell can simulate
        kwargs = {"alpha_values": (0.05,), "gamma_values": (8.0,),
                  "rho_values": (30.0,), "replicates": 1, "n_sim": 99,
                  **field}
        with pytest.raises(ParameterError, match=re.escape(message)):
            StudyConfig(**kwargs)

    def test_config_from_dict(self):
        # a config file's JSON object, window list and family names included
        cfg = StudyConfig(**{
            "alpha_values": [0.05], "gamma_values": [10.0],
            "rho_values": [25.0], "families": ["thomas"],
            "replicates": 2, "n_sim": 99, "window": [0, 1, 0, 1],
        })
        assert cfg.families == (Family.THOMAS,)
        assert cfg.window == UNIT

    def test_small_study_runs(self):
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                          rho_values=(30.0,), families=("thomas",),
                          fitted_families=("thomas",),
                          replicates=2, n_sim=99, seed=11)
        result = run_study(cfg)
        assert result.errors == []
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.true_family is Family.THOMAS
        assert row.fitted_family is Family.THOMAS
        assert row.replicates_ok == 2
        assert 0.0 <= row.reject_rate <= 1.0
        assert 0.1 < row.mean_rhoY_ratio < 10.0
        assert row.csv_line().split(",")[:5] == [
            "thomas", "thomas", "0.050000000000000003", "8", "30"]

    def test_study_is_deterministic(self):
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                          rho_values=(30.0,), families=("thomas",),
                          fitted_families=("thomas",),
                          replicates=1, n_sim=99, seed=12)
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.rows == b.rows

    def test_failures_recorded_not_fatal(self, monkeypatch):
        # a test that refuses its fit makes every fit/test step fail; the
        # study must finish and report the errors
        def refused(*args, **kwargs):
            raise ParameterError("refused for the test")
        monkeypatch.setattr(dsncp.envelope, "envelope_test", refused)
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                          rho_values=(30.0,), families=("thomas",),
                          fitted_families=("thomas",),
                          replicates=1, n_sim=99, seed=13)
        result = run_study(cfg)
        assert len(result.errors) == 1
        assert result.errors[0]["stage"] == "fit/test"
        assert result.errors[0]["error"] == "refused for the test"
        assert len(result.rows) == 1
        assert result.rows[0].replicates_ok == 0
        assert math.isnan(result.rows[0].reject_rate)

    def test_simulate_failure_recorded_not_fatal(self, monkeypatch):
        # the data draw of the first of two replicates fails; the second
        # replicate and its simulations draw as usual
        draws = []
        sample = dsncp.envelope.sample_model

        def flaky(*args, **kwargs):
            draws.append(args)
            if len(draws) == 1:
                raise ParameterError("refused for the test")
            return sample(*args, **kwargs)
        monkeypatch.setattr(dsncp.envelope, "sample_model", flaky)
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                          rho_values=(30.0,), families=("thomas",),
                          fitted_families=("thomas",),
                          replicates=2, n_sim=19, level=0.9, seed=13)
        result = run_study(cfg)
        assert result.errors == [{
            "true_family": "thomas", "alpha": 0.05, "gamma": 8.0,
            "rhoY": 30.0, "replicate": 0, "stage": "simulate",
            "error": "refused for the test"}]
        assert len(result.rows) == 1
        assert result.rows[0].replicates_ok == 1
        assert 0.0 <= result.rows[0].reject_rate <= 1.0

    def test_one_K_hat_per_replicate(self, pair_searches):
        # two fitted families share the replicate's pair search
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                          rho_values=(30.0,), families=("thomas",),
                          fitted_families=(Family.THOMAS, Family.GINIBRE),
                          replicates=2, n_sim=19, level=0.9, seed=11)
        result = run_study(cfg)
        assert [r.replicates_ok for r in result.rows] == [2, 2]
        assert len(pair_searches) == 2

    def test_resume_from_no_file_writes_what_run_study_returns(self,
                                                               tmp_path):
        # two cells; the rhoY = 0.5 cell's replicates fail, too few points
        # to fit, so both rows and errors pass through both drivers
        cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                          rho_values=(0.5, 30.0), families=("thomas",),
                          fitted_families=("thomas",),
                          replicates=2, n_sim=19, level=0.9, seed=13)
        result = run_study(cfg)
        assert [r.replicates_ok for r in result.rows] == [0, 2]
        assert len(result.errors) == 2
        out = tmp_path / "study.csv"
        resumed = resume_study(cfg, out)
        assert (resumed.cells_kept, resumed.cells_run) == (0, 2)
        assert out.read_text() == "\n".join(
            [STUDY_CSV_HEADER, *(r.csv_line() for r in result.rows)]) + "\n"
        write_json(tmp_path / "expected.json", result.errors)
        assert (tmp_path / "study.errors.json").read_bytes() == \
            (tmp_path / "expected.json").read_bytes()

    def test_library_bug_is_not_a_replicate_failure(self, monkeypatch):
        # nothing on a replicate's path raises LinAlgError, so one that
        # does is a bug as much as a TypeError is
        for bug in (TypeError, np.linalg.LinAlgError):
            def broken_fit(*args, **kwargs):
                raise bug("a bug, not a failed replicate")
            monkeypatch.setattr(dsncp.envelope, "min_contrast_fit", broken_fit)
            cfg = StudyConfig(alpha_values=(0.05,), gamma_values=(8.0,),
                              rho_values=(30.0,), families=("thomas",),
                              fitted_families=("thomas",),
                              replicates=1, n_sim=99, seed=13)
            with pytest.raises(bug, match="a bug"):
                run_study(cfg)
