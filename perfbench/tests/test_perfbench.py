"""Tests of the benchmark's own code: its reference computations, its span
bookkeeping, and that tracing changes no output.

    python3 -m pytest perfbench/tests -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import dsncp.envelope  # noqa: E402
from dsncp.cluster import Family, ModelParams, sample_model  # noqa: E402
from dsncp.core import Rect, RngStream  # noqa: E402
from dsncp.summaries import (F_hat, G_hat, J_hat, K_hat, pcf_hat,  # noqa: E402
                             pcf_theoretical)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times, span_cost  # noqa: E402


# --------------------------------------------------------------------------
# reference computations against hand-computed values


def test_nearest_distances_by_hand():
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 5.0]])
    got = oracles.nearest_distances(np.array([[3.0, 4.0], [0.0, 1.5]]), pts)
    assert got.tolist() == [math.sqrt(10.0), 0.5]  # (3, 4) is nearest (0, 5)
    got = oracles.nearest_distances(pts, pts, exclude_self=True)
    assert got.tolist() == [2.0, 2.0, 3.0]


def test_border_fraction_by_hand():
    dist = np.array([0.1, 0.3, 0.5])
    bdist = np.array([0.2, 0.4, 0.05])
    # r = 0.1: points 0 and 1 are far enough in, only point 0 is within 0.1
    # r = 0.3: only point 1 qualifies, and its distance is exactly 0.3
    # r = 0.5: nobody is 0.5 from the border
    got = oracles.border_fraction(dist, bdist, np.array([0.1, 0.3, 0.5]))
    assert got[:2].tolist() == [0.5, 1.0] and math.isnan(got[2])


def test_lattice_by_hand():
    pts = oracles.lattice(0.0, 1.0, 0.0, 0.5, per_side=2)
    assert pts.shape == (8, 2)
    assert pts[0].tolist() == [0.125, 0.125]
    assert pts[-1].tolist() == [0.875, 0.375]


def test_translation_k_and_pcf_by_hand():
    # two points 0.5 apart with offset (0.3, 0.4) in the unit square: each
    # ordered pair has weight 1/((1 - 0.3)(1 - 0.4)) = 1/0.42
    pts = np.array([[0.1, 0.1], [0.4, 0.5]])
    unit = (0.0, 1.0, 0.0, 1.0)
    k = oracles.k_translation(pts, unit, np.array([0.4, 0.6]))
    assert k[0] == 0.0
    assert k[1] == pytest.approx(1.0 / 0.42, rel=1e-14)
    # at r = d the Epanechnikov kernel is 0.75/b; pcf = 2 k w / (2 pi r n(n-1))
    pcf = oracles.pcf_translation(pts, unit, np.array([0.5]), bandwidth=0.1)
    assert pcf[0] == pytest.approx(2 * 7.5 / 0.42 / (2 * math.pi * 0.5 * 2),
                                   rel=1e-14)


def test_count_variance_by_hand():
    # g - 1 = 1 up to R: the excess is the integral over r <= R of r times
    # the rectangle's isotropised set covariance 2 pi lx ly - 4 r (lx + ly)
    # + 2 r^2, which is pi lx ly R^2 - 4/3 (lx + ly) R^3 + R^4 / 2
    lx, ly, big_r = 2.0, 1.0, 0.5
    excess = (math.pi * lx * ly * big_r ** 2 - 4.0 / 3.0 * (lx + ly) * big_r ** 3
              + big_r ** 4 / 2.0)
    got = oracles.count_variance(3.0, lx, ly, lambda r: np.ones_like(r), big_r)
    assert got == pytest.approx(3.0 * lx * ly + 9.0 * excess, rel=1e-5)
    assert oracles.count_variance(3.0, lx, ly, np.zeros_like, 1.0) == 6.0


@pytest.mark.parametrize("family", list(Family))
def test_pcf_closed_form_agrees_with_package(family):
    m = ModelParams.most_repulsive(family, gamma=4.0, alpha=0.03, beta=0.05)
    r = np.linspace(0.0, 0.3, 31)
    got = oracles.pcf_minus_one(workloads.SHORT[family], m.alpha, m.rho_Y,
                                m.beta, r)
    assert np.allclose(got, pcf_theoretical(m, r) - 1.0, rtol=1e-12, atol=1e-14)


def test_estimators_agree_with_package_on_a_small_pattern():
    m = ModelParams(Family.THOMAS, gamma=3.0, alpha=0.05, rho_Y=30.0)
    w = Rect(0.0, 1.5, 0.0, 1.0)
    p = sample_model(m, w, rng=RngStream(7))
    rect = (w.xmin, w.xmax, w.ymin, w.ymax)
    grid = np.linspace(0.0, 0.25, 101)
    assert np.allclose(K_hat(p, grid).values,
                       oracles.k_translation(p.points, rect, grid), rtol=1e-12)
    g2 = grid[grid > 0.02]
    assert np.allclose(pcf_hat(p, g2, bandwidth=0.04).values,
                       oracles.pcf_translation(p.points, rect, g2, 0.04),
                       rtol=1e-9)
    f, g, j = oracles.f_g_j(p.points, rect, grid)
    assert np.array_equal(F_hat(p, grid).values, f, equal_nan=True)
    assert np.array_equal(G_hat(p, grid).values, g, equal_nan=True)
    jc = J_hat(p, grid)
    assert np.allclose(jc.values, j[np.isin(grid, jc.r)], rtol=1e-14)


# --------------------------------------------------------------------------
# spans


def test_self_time_and_layer_metrics_of_hand_made_spans():
    s = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("envelope.envelope_test", 1.0, 9.0, 0),
        Span("cluster.sample_model", 2.0, 5.0, 1, {"family": "ginibre", "points": 9}),
        Span("cluster.sample_centres", 2.0, 4.0, 2, {"family": "ginibre", "points": 4}),
        Span("dpp.spectrum", 2.0, 2.5, 3, {"family": "ginibre", "eigen_count": 30}),
        Span("dpp.sample_dpp", 2.5, 3.5, 3, {"family": "ginibre", "points": 10}),
        Span("summaries.F_hat", 5.0, 6.0, 1),
        Span("envelope.global_envelope", 6.0, 6.5, 1),
    ]
    assert self_times(s)[0] == 2.0 and self_times(s)[2] == 1.0
    m = layer_metrics(s)
    assert m["cli.self_s"] == 2.0
    assert m["envelope.sim_draw_s"] == 3.0
    assert m["envelope.sim_summary_s"] == 1.0
    assert m["cluster.offspring_s"] == 1.0
    assert m["cluster.centres_s.ginibre"] == 2.0
    assert m["cluster.centres_kept_ratio.ginibre"] == 0.4
    assert m["dpp.s_per_point.ginibre"] == 0.1
    assert m["dpp.eigen_count.ginibre"] == 30
    assert m["summaries.K_hat_s"] == 0.0


def test_tracer_installs_where_callers_look_and_restores():
    original = dsncp.envelope.sample_model
    tracer = Tracer()
    m = ModelParams(Family.THOMAS, gamma=2.0, alpha=0.05, rho_Y=20.0)
    with tracer.installed():
        assert dsncp.envelope.sample_model is not original
        assert dsncp.cluster.sample_model is dsncp.envelope.sample_model
        dsncp.cluster.sample_model(m, Rect(0, 1, 0, 1), rng=RngStream(1))
    assert dsncp.envelope.sample_model is original
    assert [s.name for s in tracer.spans] == ["cluster.sample_model",
                                              "cluster.sample_centres"]
    assert tracer.spans[1].parent == 0


def test_span_cost_is_a_few_microseconds():
    assert 0.0 <= span_cost(2000) < 1e-4


# --------------------------------------------------------------------------
# traced rounds write the same bytes as untraced ones


BOTH_CELLS = (workloads.GINIBRE_BY_THOMAS, workloads.THOMAS_BY_GINIBRE)
SMALL = {
    "whiteoak-envelope": lambda: workloads.WhiteoakEnvelope(families=(Family.THOMAS,)),
    "dpp-large-k": lambda: workloads.DppLargeK(draws=(
        ("gaussian", Family.GAUSSIAN, Rect(0.0, 1.0, 0.0, 1.0)),
        ("ginibre", Family.GINIBRE, Rect(0.0, 1.0, 0.0, 0.5)))),
    "large-pattern": lambda: workloads.LargePattern(side=1.5),
    "study-cell": lambda: workloads.StudyCells(
        cells=BOTH_CELLS, n_sim=19, level=0.9),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_is_byte_identical_and_passes_its_checks(name, tmp_path):
    wl = SMALL[name]()
    wl.setup(11, tmp_path)
    plain, _ = run._timed_round(wl, workloads, 0)
    tracer = Tracer()
    traced, _ = run._timed_round(wl, workloads, 0, tracer)
    assert plain.outputs and plain.failed == 0
    assert traced.outputs == plain.outputs
    assert tracer.spans
    assert wl.check(plain) == []


def test_study_cells_give_the_same_rows_at_one_and_two_jobs(tmp_path):
    rows = []
    for jobs in (1, 2):
        wl = workloads.StudyCells(cells=BOTH_CELLS, n_sim=19, level=0.9,
                                  jobs=jobs)
        wl.setup(5, tmp_path)
        rows.append(wl.run_round(0).outputs)
    assert rows[0] == rows[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dpp-large-k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
