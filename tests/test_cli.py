"""Tests for the command-line front end.

Commands run in-process through ``main(argv)``; stdout is captured with
capsys. Exit codes follow the documented mapping: 0 success, 2 unusable
flags or input files, 3 model-constraint violations, 4 non-convergence.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dsncp.cluster
import dsncp.envelope
from dsncp.cli import (
    _build_model,
    _load_fit,
    _parse_grid,
    _parse_jobs,
    _parse_u64,
    _parse_window,
    main,
)
from dsncp.cluster import Family
from dsncp.core import Disc, ParameterError, PointPattern, Rect
from dsncp.envelope import STUDY_CSV_HEADER


def run_cli(args):
    return main([str(a) for a in args])


def run_in_1gib_child(argv):
    """Run the CLI in a child that may map at most 1 GiB (``RLIMIT_AS``)
    with one BLAS thread, so only a refusal before a large allocation can
    exit 3."""
    limit = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
             "from dsncp.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run(
        [sys.executable, "-c", limit, *argv], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


@pytest.fixture(scope="module")
def pattern_csv(tmp_path_factory):
    """A Thomas pattern on the unit square, written once per module."""
    path = tmp_path_factory.mktemp("cli") / "pattern.csv"
    rc = run_cli(["simulate", "--model", "thomas", "--gamma", 6,
                  "--rhoY", 50, "--alpha", 0.05,
                  "--window", "rect:0,1,0,1", "--seed", 11,
                  "--quiet", "-o", path])
    assert rc == 0
    return path


class TestParsers:
    def test_rect_window(self):
        w = _parse_window("rect:0,20,-1,19")
        assert isinstance(w, Rect)
        assert (w.xmin, w.xmax, w.ymin, w.ymax) == (0.0, 20.0, -1.0, 19.0)

    def test_disc_window(self):
        w = _parse_window("disc:1,2,3")
        assert isinstance(w, Disc)
        assert (w.cx, w.cy, w.radius) == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("text", [
        "oval:1,2,3", "rect:0,1,0", "rect:a,b,c,d", "rect", "",
        "rect:1,0,0,1", "disc:0,0,-1",
    ])
    def test_bad_window(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_window(text)

    def test_grid(self):
        g = _parse_grid("0:8:401")
        assert g.size == 401
        assert g[0] == 0.0 and g[-1] == 8.0

    @pytest.mark.parametrize("text", [
        "1:0:5", "0:8", "0:8:0", "x:y:z", "0:8:4.5", "-1:8:3",
    ])
    def test_bad_grid(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid(text)

    def test_seed_range(self):
        assert _parse_u64("0") == 0
        assert _parse_u64(str(2 ** 64 - 1)) == 2 ** 64 - 1
        for text in ["-1", str(2 ** 64), "seven"]:
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_u64(text)

    def test_jobs_range(self):
        assert _parse_jobs("1") == 1
        assert _parse_jobs("16") == 16
        for text in ["0", "-4", "two", "1.5"]:
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_jobs(text)


def model_args(**kw):
    ns = argparse.Namespace(gamma=None, rhoY=None, beta=None, rhoX=None)
    for k, v in kw.items():
        setattr(ns, k, v)
    return ns


class TestBuildModel:
    def test_rhoX_mode_derives_most_repulsive(self):
        m = _build_model(model_args(model="ginibre-dpp-thomas", alpha=1.0,
                                    rhoX=1.0, beta=4.0))
        assert m.rho_Y == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-15)
        assert m.gamma == pytest.approx(16.0 * math.pi, rel=1e-15)
        assert m.rho_X == pytest.approx(1.0, rel=1e-15)

    def test_explicit_mode(self):
        m = _build_model(model_args(model="thomas", alpha=0.03, gamma=50.0,
                                    rhoY=30.0))
        assert m.family is Family.THOMAS
        assert (m.gamma, m.rho_Y, m.beta) == (50.0, 30.0, None)

    def test_gamma_beta_most_repulsive(self):
        m = _build_model(model_args(model="gaussian-dpp-thomas", alpha=1.0,
                                    gamma=5.0, beta=2.0))
        assert m.rho_Y == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    def test_conflicting_and_missing_flags(self):
        with pytest.raises(ParameterError):
            _build_model(model_args(model="thomas", alpha=1.0, rhoX=1.0,
                                    beta=2.0, gamma=3.0))
        with pytest.raises(ParameterError):
            _build_model(model_args(model="thomas", alpha=1.0, rhoX=1.0))
        with pytest.raises(ParameterError):
            _build_model(model_args(model="thomas", alpha=1.0))
        with pytest.raises(ParameterError):
            _build_model(model_args(model="thomas", alpha=1.0, gamma=2.0))

    def test_thomas_with_beta_exits_3(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--model", "thomas", "--gamma", 1,
                      "--rhoY", 1, "--beta", 2, "--alpha", 1,
                      "--window", "rect:0,1,0,1"])
        assert rc == 3
        assert "beta" in capsys.readouterr().err


class TestSimulate:
    def test_round_trip(self, pattern_csv):
        p = PointPattern.from_csv(pattern_csv, Rect(0.0, 1.0, 0.0, 1.0))
        q = PointPattern.from_csv(pattern_csv, Rect(0.0, 1.0, 0.0, 1.0))
        assert p.n > 0
        assert np.array_equal(p.points, q.points)

    def test_byte_identical_repeats(self, tmp_path):
        args = ["simulate", "--model", "gaussian-dpp-thomas", "--alpha", 0.05,
                "--gamma", 8, "--beta", 0.07, "--window", "rect:0,1,0,1",
                "--seed", 3, "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["-o", a]) == 0
        assert run_cli(args + ["-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", ["--seed", "--stream"])
    @pytest.mark.parametrize("value", [-1, 2 ** 64])
    def test_out_of_range_rng_flag_exits_2(self, flag, value, tmp_path,
                                           capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["simulate", "--model", "thomas", "--alpha", 0.05,
                     "--gamma", 6, "--rhoY", 50, "--window", "rect:0,1,0,1",
                     flag, value, "-o", tmp_path / "p.csv"])
        assert err.value.code == 2
        assert f"argument {flag}: must be in [0, 2^64)" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_stream_changes_output(self, tmp_path):
        args = ["simulate", "--model", "thomas", "--alpha", 0.05,
                "--gamma", 6, "--rhoY", 50, "--window", "rect:0,1,0,1",
                "--seed", 3, "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["-o", a]) == 0
        assert run_cli(args + ["--stream", 1, "-o", b]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_unit_intensity_regime_count(self, tmp_path, capsys):
        # rhoX = 1 on a 20x20 window puts the expected count at 400
        rc = run_cli(["simulate", "--model", "ginibre-dpp-thomas",
                      "--alpha", 1, "--rhoX", 1, "--beta", 4,
                      "--window", "rect:0,20,0,20", "--seed", 7,
                      "-o", tmp_path / "p.csv"])
        assert rc == 0
        out = capsys.readouterr().out
        n = int(out.split()[0].split("=")[1])
        assert 300 < n < 520
        assert "rhoY=0.019894367886486918" in out

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--model", "thomas", "--alpha", 0.05,
                      "--gamma", 6, "--rhoY", 50, "--window", "rect:0,1,0,1",
                      "--seed", 3, "--quiet", "-o", tmp_path / "p.csv"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_dump_spectrum(self, tmp_path):
        spec = tmp_path / "spec.csv"
        rc = run_cli(["simulate", "--model", "ginibre-dpp-thomas",
                      "--alpha", 0.05, "--rhoX", 25, "--beta", 0.08,
                      "--window", "rect:0,1,0,1", "--seed", 3, "--quiet",
                      "--dump-spectrum", spec, "-o", tmp_path / "p.csv"])
        assert rc == 0
        lines = spec.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        vals = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert vals.size > 10
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        # Ginibre eigenvalues decrease with the index
        assert np.all(np.diff(vals) <= 0)

    @pytest.mark.parametrize("model,builder,window", [
        ("gaussian-dpp-thomas", "gaussian_dpp_spectrum", "disc:0.5,0.5,0.5"),
        ("ginibre-dpp-thomas", "ginibre_spectrum", "rect:0,1,0,1"),
    ])
    def test_dump_is_the_sampled_spectrum(self, tmp_path, monkeypatch, model,
                                          builder, window):
        # the dump holds exactly the eigenvalues the centre draw samples
        # from, and one simulate call builds that spectrum once
        builds, sampled = [], []
        build = getattr(dsncp.cluster, builder)
        draw = dsncp.cluster.sample_dpp

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        def recording_draw(spec, rng):
            sampled.append(spec)
            return draw(spec, rng)
        monkeypatch.setattr(dsncp.cluster, builder, counting_build)
        monkeypatch.setattr(dsncp.cluster, "sample_dpp", recording_draw)
        dsncp.cluster.centre_spectrum.cache_clear()
        flags = ["simulate", "--model", model, "--alpha", 0.05, "--rhoX", 25,
                 "--beta", 0.08, "--window", window, "--seed", 3, "--quiet"]
        spec = tmp_path / "spec.csv"
        assert run_cli(flags + ["--dump-spectrum", spec,
                                "-o", tmp_path / "a.csv"]) == 0
        assert len(builds) == 1 and len(sampled) == 1
        lines = spec.read_text().splitlines()
        dumped = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.array_equal(dumped, sampled[0].eigenvalues)
        # dumping leaves the draw as it is
        assert run_cli(flags + ["-o", tmp_path / "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    SIM = ["simulate", "--model", "thomas", "--alpha", 0.05, "--gamma", 6,
           "--rhoY", 50, "--window", "rect:0,1,0,1"]

    @pytest.mark.parametrize("argv,code,message", [
        (SIM + ["--alpha", "inf"], 3, "alpha must be finite"),
        (SIM + ["--gamma", "inf"], 3, "gamma must be finite"),
        (SIM + ["--rhoY", "inf"], 3, "rho_Y must be finite"),
        (SIM[:5] + ["--rhoX", "inf", "--beta", 0.1, "--window",
                    "rect:0,1,0,1"], 3, "gamma must be finite"),
        (SIM[:5] + ["--rhoX", 100, "--beta", "inf", "--window",
                    "rect:0,1,0,1"], 3, "beta must be finite"),
        (SIM + ["--ext", "inf"], 3, "margin must be finite"),
        (SIM + ["--window", "rect:0,1,0,inf"], 2, "ymax must be finite"),
        (SIM + ["--window", "disc:0,0,inf"], 2, "radius must be finite"),
        (["curves", "--model", "thomas", "--alpha", "inf", "--gamma", 2,
          "--rhoY", 10, "--stat", "K"], 3, "alpha must be finite"),
        # finite, but far beyond what can be drawn
        (SIM + ["--rhoY", "1e300"], 3, "expected centre count rho_Y |W_ext|"),
        (SIM + ["--gamma", "1e300"], 3, "expected point count rho_X |W_ext|"),
    ], ids=["alpha", "gamma", "rhoY", "rhoX", "beta", "ext", "rect", "disc",
            "curves-alpha", "huge-rhoY", "huge-gamma"])
    def test_non_finite_input_is_refused(self, argv, code, message, tmp_path,
                                         capsys):
        # later flags override earlier ones, so each case swaps one value
        out = tmp_path / "out.csv"
        try:
            rc = run_cli(argv + ["-o", out])
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gaussian-dpp-thomas",
                                       "ginibre-dpp-thomas"])
    def test_oversized_spectrum_dump_exits_3(self, model, tmp_path, capsys,
                                             no_draws):
        # refused like the draw, before the spectrum is built
        dump = tmp_path / "s.csv"
        rc = run_cli(["simulate", "--model", model, "--alpha", 0.03,
                      "--gamma", 1, "--rhoY", 1e300, "--beta", 1e-151,
                      "--window", "rect:0,1,0,1", "--dump-spectrum", dump])
        assert rc == 3
        assert "expected centre count rho_Y |W_ext|" in capsys.readouterr().err
        assert not dump.exists()

    def test_oversized_frequency_box_exits_3(self, tmp_path):
        # a nearly-Poisson Gaussian kernel: about 154 centres expected, but
        # a 41497 x 41497 frequency box (12.8 GiB)
        proc = run_in_1gib_child(
            ["simulate", "--model", "gaussian-dpp-thomas", "--alpha", "0.03",
             "--gamma", "1", "--rhoY", "100", "--beta", "1e-4", "--window",
             "rect:0,1,0,1", "-o", str(tmp_path / "p.csv")])
        assert proc.returncode == 3, proc.stderr
        assert ("frequency box is 41497 x 41497 at beta 0.0001, above the "
                "limit 2e+07") in proc.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_oversized_ginibre_spectrum_exits_3(self, tmp_path):
        # the Ginibre counterpart: about 240 centres expected, but 7.7e9
        # Poisson tail terms (57.3 GiB) to reach the eigenvalue cutoff
        proc = run_in_1gib_child(
            ["simulate", "--model", "ginibre-dpp-thomas", "--alpha", "0.03",
             "--gamma", "1", "--rhoY", "100", "--beta", "1e-5", "--window",
             "rect:0,1,0,1", "-o", str(tmp_path / "p.csv")])
        assert proc.returncode == 3, proc.stderr
        assert ("Ginibre spectrum needs 7.68932e+09 terms at beta 1e-05, "
                "above the limit 2e+07 terms") in proc.stderr
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("model,message", [
        ("gaussian-dpp-thomas", "Gaussian spectrum at rho_Y 100, beta 1e-160 "
         "underflows, yet its expected count is 153.76"),
        ("ginibre-dpp-thomas", "Ginibre kernel at rho_Y 100, beta 1e-160 "
         "underflows: nu = rho_Y pi beta^2 = 3.14156e-318"),
    ], ids=["gaussian", "ginibre"])
    def test_underflowing_spectrum_exits_3(self, model, message, tmp_path,
                                           capsys):
        # a valid, nearly Poisson kernel whose eigenvalues underflow: refused
        # with the flags' own rho_Y and beta, not drawn with no centres
        out, dump = tmp_path / "p.csv", tmp_path / "s.csv"
        rc = run_cli(["simulate", "--model", model, "--rhoY", 100, "--beta",
                      1e-160, "--gamma", 5, "--alpha", 0.03, "--window",
                      "rect:0,1,0,1", "--dump-spectrum", dump, "-o", out])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    def test_high_rank_dpp_exits_3(self, tmp_path, capsys, no_draws):
        # 5.2e4 centres expected, far below the count limit, but the
        # sampler's k x k frame would take about 40 GiB
        flags = ["simulate", "--model", "gaussian-dpp-thomas", "--alpha",
                 0.001, "--rhoX", 50000, "--beta", 0.0025, "--window",
                 "rect:0,1,0,1", "-o", tmp_path / "p.csv"]
        for extra in ([], ["--dump-spectrum", tmp_path / "s.csv"]):
            assert run_cli(flags + extra) == 3
            assert ("expected DPP rank rho_Y |D| on its domain D is 51747.7, "
                    "above the limit 8192") in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "s.csv").exists()

    def test_thomas_spectrum_dump_exits_3(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--model", "thomas", "--alpha", 0.05,
                      "--gamma", 6, "--rhoY", 50, "--window", "rect:0,1,0,1",
                      "--dump-spectrum", tmp_path / "s.csv"])
        assert rc == 3
        assert "spectral" in capsys.readouterr().err


class TestCurves:
    GAUSSIAN = ["curves", "--model", "gaussian-dpp-thomas", "--alpha", 1,
                "--gamma", 1, "--beta", 2]

    def test_grid_row_count(self, capsys):
        assert run_cli(self.GAUSSIAN + ["--stat", "pcf", "--r", "0:8:401"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "r,value"
        assert len(out) == 402

    def test_pcf_spot_value(self, capsys):
        # most-repulsive Gaussian kernel with beta = 2: g(0) = 5/3
        assert run_cli(self.GAUSSIAN + ["--stat", "pcf", "--r", "0:1:1"]) == 0
        r0, g0 = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(r0) == 0.0
        assert abs(float(g0) - 5.0 / 3.0) < 1e-12

    def test_kcentered_asymptote(self, capsys):
        assert run_cli(self.GAUSSIAN
                       + ["--stat", "Kcentered", "--r", "30:30:1"]) == 0
        val = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert abs(val - 2.0 * math.pi) < 1e-9

    def test_crossover_value_and_file(self, tmp_path, capsys):
        out = tmp_path / "rstar.csv"
        assert run_cli(self.GAUSSIAN + ["--stat", "crossover", "-o", out]) == 0
        printed = capsys.readouterr().out
        want = math.sqrt(12.0 * math.log(3.0))
        assert abs(float(printed.split("=")[1]) - want) < 1e-12
        lines = out.read_text().splitlines()
        assert lines[0] == "rstar"
        assert abs(float(lines[1]) - want) < 1e-12

    def test_crossover_thomas_exits_3(self, capsys):
        rc = run_cli(["curves", "--model", "thomas", "--alpha", 1,
                      "--gamma", 1, "--rhoY", 0.1, "--stat", "crossover"])
        assert rc == 3
        assert "crossover" in capsys.readouterr().err

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert run_cli(self.GAUSSIAN
                       + ["--stat", "K", "--r", "0:4:65", "--quiet",
                          "-o", out]) == 0
        capsys.readouterr()
        assert run_cli(self.GAUSSIAN + ["--stat", "K", "--r", "0:4:65"]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestFit:
    def test_single_family_json(self, pattern_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        rc = run_cli(["fit", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--family", "thomas",
                      "-o", out])
        assert rc == 0
        d = json.loads(out.read_text())
        assert d["family"] == "thomas"
        assert d["converged"] is True
        # reported gamma satisfies gamma = n / (|W| rhoY)
        p = PointPattern.from_csv(pattern_csv, Rect(0.0, 1.0, 0.0, 1.0))
        assert d["gamma"] == pytest.approx(p.n / d["rhoY"], rel=1e-12)
        assert "thomas" in capsys.readouterr().out

    def test_all_families(self, pattern_csv, tmp_path):
        out = tmp_path / "fits.json"
        rc = run_cli(["fit", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--all-families",
                      "--quiet", "-o", out])
        assert rc == 0
        d = json.loads(out.read_text())
        assert sorted(d["fits"]) == ["gaussian-dpp-thomas",
                                     "ginibre-dpp-thomas", "thomas"]
        for fit in d["fits"].values():
            assert fit["alpha"] > 0 and fit["rhoY"] > 0

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.5,0.5\n0.3,oops\n")
        rc = run_cli(["fit", "--data", bad, "--window", "rect:0,1,0,1",
                      "--family", "thomas"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_wrong_column_count_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.5,0.5,0.5\n")
        rc = run_cli(["fit", "--data", bad, "--window", "rect:0,1,0,1",
                      "--family", "thomas"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_header_exits_2(self, tmp_path, capsys):
        # whiteoak without its x,y line: 448 points, none to be lost
        from dsncp.data import load_whiteoak
        bare = tmp_path / "bare.csv"
        load_whiteoak().to_csv(bare)
        bare.write_text(bare.read_text().split("\n", 1)[1])
        out = tmp_path / "fit.json"
        rc = run_cli(["fit", "--data", bare, "--window", "rect:0,1,0,1",
                      "--family", "thomas", "-o", out])
        assert rc == 2
        assert f"{bare}: line 1: expected a header line" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_point_outside_window_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "outside.csv"
        bad.write_text("x,y\n0.5,0.5\n2.0,2.0\n")
        rc = run_cli(["fit", "--data", bad, "--window", "rect:0,1,0,1",
                      "--family", "thomas"])
        assert rc == 2

    def test_points_outside_window_name_the_file(self, pattern_csv, capsys,
                                                 no_draws):
        # a unit-square pattern read in the disc inscribed in it
        disc = Disc(0.5, 0.5, 0.5)
        lines = pattern_csv.read_text().splitlines()
        outside = [(num, ln) for num, ln in enumerate(lines[1:], start=2)
                   if not disc.contains(np.array(
                       [float(v) for v in ln.split(",")]))[0]]
        assert len(outside) > 1
        rc = run_cli(["fit", "--data", pattern_csv,
                      "--window", "disc:0.5,0.5,0.5", "--family", "thomas"])
        assert rc == 2
        num, ln = outside[0]
        assert (f"error: {pattern_csv}: {len(outside)} points lie outside "
                f"the window; first at line {num}: {ln!r}\n") == \
            capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = run_cli(["fit", "--data", tmp_path / "nope.csv",
                      "--window", "rect:0,1,0,1", "--family", "thomas"])
        assert rc == 2

    def test_bad_family_flag_exits_2(self, pattern_csv):
        with pytest.raises(SystemExit) as err:
            run_cli(["fit", "--data", pattern_csv,
                     "--window", "rect:0,1,0,1", "--family", "matern"])
        assert err.value.code == 2


@pytest.mark.parametrize("flags,code,message", [
    (["curves", "--model", "thomas", "--alpha", 0.03, "--gamma", 2,
      "--rhoY", 10, "--stat", "K", "--r", "0:inf:3"], 2,
     "grid needs finite"),
    (["curves", "--model", "thomas", "--alpha", 0.03, "--gamma", 2,
      "--rhoY", 10, "--stat", "K", "--r", "inf:inf:3"], 2,
     "grid needs finite"),
    (["fit", "--r-max", "inf"], 3, "need finite 0 <= r_min < r_max"),
    (["fit", "--r-min", "inf"], 3, "need finite 0 <= r_min < r_max"),
    (["fit", "--q", "inf"], 3, "q must be finite"),
    (["fit", "--p", "inf"], 3, "p must be finite"),
], ids=["curves-stop", "curves-start", "r-max", "r-min", "q", "p"])
def test_non_finite_distance_flag_is_refused(flags, code, message,
                                             pattern_csv, tmp_path, capsys):
    # a grid or contrast range reaching inf is refused before any work
    if flags[0] == "fit":
        flags = ["fit", "--data", pattern_csv, "--window", "rect:0,1,0,1",
                 "--family", "thomas"] + flags[1:]
    out = tmp_path / "out"
    try:
        rc = run_cli(flags + ["-o", out])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def fit_json(pattern_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-env") / "fits.json"
    rc = run_cli(["fit", "--data", pattern_csv,
                  "--window", "rect:0,1,0,1", "--all-families",
                  "--quiet", "-o", out])
    assert rc == 0
    return out


class TestEnvelope:
    def test_writes_csv_and_sidecar(self, pattern_csv, fit_json, tmp_path,
                                    capsys):
        out = tmp_path / "env.csv"
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", fit_json,
                      "--family", "thomas", "--stat", "K", "--n-sim", 99,
                      "--seed", 5, "-o", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,obs,lo,hi,central"
        assert len(lines) > 100
        meta = json.loads((tmp_path / "env.json").read_text())
        assert meta["n_sim"] == 99 and meta["statistic"] == "K"
        assert 0.0 < meta["p_value"] <= 1.0
        assert "p=" in capsys.readouterr().out

    def test_byte_stable_rerun(self, pattern_csv, fit_json, tmp_path):
        args = ["envelope", "--data", pattern_csv,
                "--window", "rect:0,1,0,1", "--fit", fit_json,
                "--family", "thomas", "--stat", "K", "--n-sim", 99,
                "--seed", 5, "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["-o", a]) == 0
        assert run_cli(args + ["-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_multi_fit_needs_family(self, pattern_csv, fit_json, tmp_path,
                                    capsys):
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", fit_json,
                      "--stat", "K", "--n-sim", 99, "-o", tmp_path / "e.csv"])
        assert rc == 2
        assert "--family" in capsys.readouterr().err

    def test_single_fit_of_another_family_exits_2(self, pattern_csv,
                                                  fit_json, tmp_path, capsys):
        single = tmp_path / "thomas.json"
        fits = json.loads(fit_json.read_text())["fits"]
        single.write_text(json.dumps(fits["thomas"]))
        assert _load_fit(str(single), "thomas").family is Family.THOMAS
        assert _load_fit(str(single), None).family is Family.THOMAS
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", single,
                      "--family", "ginibre-dpp-thomas", "--stat", "K",
                      "--n-sim", 99, "-o", tmp_path / "e.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'thomas'" in err and "'ginibre-dpp-thomas'" in err
        assert not (tmp_path / "e.csv").exists()

    def test_fit_of_unknown_family_exits_2(self, pattern_csv, fit_json,
                                           tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        fit = json.loads(fit_json.read_text())["fits"]["thomas"]
        bogus.write_text(json.dumps({**fit, "family": "bogus"}))
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", bogus,
                      "--stat", "K", "--n-sim", 99, "-o", tmp_path / "e.csv"])
        assert rc == 2
        assert f"{bogus}: not a fit result: unknown family 'bogus'" in \
            capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", "0.03", "alpha must be a number, got '0.03'"),
        ("gamma", None, "gamma must be a number, got None"),
        ("options", "x", "options must be an object, got 'x'"),
    ])
    def test_fit_with_a_wrongly_typed_field_exits_2(
            self, field, value, message, pattern_csv, fit_json, tmp_path,
            capsys, no_draws):
        bad = tmp_path / "bad.json"
        fit = json.loads(fit_json.read_text())["fits"]["thomas"]
        bad.write_text(json.dumps({**fit, field: value}))
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", bad,
                      "--stat", "K", "--n-sim", 99, "-o", tmp_path / "e.csv"])
        assert rc == 2
        assert f"{bad}: not a fit result: {message}" in \
            capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("key", ["alpha_bounds", "beta_bounds",
                                     "rho_bounds"])
    def test_fit_with_a_search_box_exits_2(self, key, pattern_csv, fit_json,
                                           tmp_path, capsys, no_draws):
        # the search box is no longer an option; only a library caller
        # could have written one into a fit file
        bad = tmp_path / "bad.json"
        fit = json.loads(fit_json.read_text())["fits"]["thomas"]
        bad.write_text(json.dumps(
            {**fit, "options": {**fit["options"], key: [0.01, 1.0]}}))
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", bad,
                      "--stat", "K", "--n-sim", 99, "-o", tmp_path / "e.csv"])
        assert rc == 2
        assert (f"{bad}: not a fit result: options.{key} is no longer an "
                f"option, got [0.01, 1.0]") in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_fit_with_null_search_box_runs_unchanged(self, pattern_csv,
                                                     fit_json, tmp_path):
        # a fit file written while the box was three options, all null
        old = tmp_path / "old.json"
        fit = json.loads(fit_json.read_text())["fits"]["thomas"]
        old.write_text(json.dumps({**fit, "options": {
            **fit["options"], "alpha_bounds": None, "beta_bounds": None,
            "rho_bounds": None}}))
        outputs = []
        for name, path in (("new", fit_json), ("old", old)):
            out = tmp_path / f"{name}.csv"
            assert run_cli(["envelope", "--data", pattern_csv, "--window",
                            "rect:0,1,0,1", "--fit", path, "--family",
                            "thomas", "--stat", "K", "--n-sim", 99,
                            "--seed", 3, "--quiet", "-o", out]) == 0
            outputs.append((out.read_bytes(),
                            out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_oversized_fit_exits_3(self, pattern_csv, fit_json, tmp_path,
                                   capsys, no_draws):
        huge = tmp_path / "huge.json"
        fit = json.loads(fit_json.read_text())["fits"]["thomas"]
        huge.write_text(json.dumps({**fit, "rhoY": 1e300}))
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", huge,
                      "--stat", "K", "--n-sim", 99, "-o", tmp_path / "e.csv"])
        assert rc == 3
        assert "expected centre count" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_nonpositive_jobs_exits_2(self, jobs, pattern_csv, fit_json,
                                      tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["envelope", "--data", pattern_csv,
                     "--window", "rect:0,1,0,1", "--fit", fit_json,
                     "--family", "thomas", "--stat", "K", "--n-sim", 99,
                     "--jobs", jobs, "-o", tmp_path / "e.csv"])
        assert err.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--stream"])
    @pytest.mark.parametrize("value", [-1, 2 ** 64])
    def test_out_of_range_rng_flag_exits_2(self, flag, value, pattern_csv,
                                           fit_json, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["envelope", "--data", pattern_csv,
                     "--window", "rect:0,1,0,1", "--fit", fit_json,
                     "--family", "thomas", "--stat", "K", "--n-sim", 99,
                     flag, value, "-o", tmp_path / "e.csv"])
        assert err.value.code == 2
        assert f"argument {flag}: must be in [0, 2^64)" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_too_few_sims_exits_3(self, pattern_csv, fit_json, tmp_path):
        rc = run_cli(["envelope", "--data", pattern_csv,
                      "--window", "rect:0,1,0,1", "--fit", fit_json,
                      "--family", "thomas", "--stat", "K", "--n-sim", 19,
                      "-o", tmp_path / "e.csv"])
        assert rc == 3


class TestDiscWindow:
    def test_fit_and_K_envelope_on_disc(self, tmp_path, capsys):
        from dsncp.data import load_whiteoak
        disc = Disc(0.5, 0.5, 0.5)
        data = tmp_path / "disc.csv"
        oak = load_whiteoak().points
        PointPattern(oak[disc.contains(oak)], disc).to_csv(data)
        fits = tmp_path / "fits.json"
        assert run_cli(["fit", "--data", data, "--window", "disc:0.5,0.5,0.5",
                        "--family", "thomas", "--quiet", "-o", fits]) == 0
        out = tmp_path / "env.csv"
        assert run_cli(["envelope", "--data", data,
                        "--window", "disc:0.5,0.5,0.5", "--fit", fits,
                        "--stat", "K", "--n-sim", 99, "--seed", 3,
                        "--quiet", "-o", out]) == 0
        obs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert np.all(np.isfinite(obs))


class TestStudy:
    CONFIG = {
        "alpha_values": [0.05, 0.08],
        "gamma_values": [6.0],
        "rho_values": [50.0],
        "families": ["thomas"],
        "fitted_families": ["thomas"],
        "replicates": 2,
        "n_sim": 99,
        "statistic": "K",
        "seed": 42,
    }

    def write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CONFIG))
        return path

    def test_smoke_and_resume(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        assert run_cli(["study", "--config", cfg, "-o", out]) == 0
        full = out.read_text()
        lines = full.splitlines()
        assert lines[0].startswith("true_family,fitted_family")
        assert len(lines) == 3
        assert json.loads((tmp_path / "study.errors.json").read_text()) == []

        # drop the second cell's row; the rerun recomputes only that cell
        # and reproduces the uninterrupted output byte for byte
        out.write_text("\n".join(lines[:2]) + "\n")
        capsys.readouterr()
        assert run_cli(["study", "--config", cfg, "-o", out]) == 0
        assert "1 run" in capsys.readouterr().out
        assert out.read_text() == full

        # a complete file is a no-op
        capsys.readouterr()
        assert run_cli(["study", "--config", cfg, "-o", out]) == 0
        assert "0 run" in capsys.readouterr().out
        assert out.read_text() == full

    def test_killed_study_resumes_to_the_uninterrupted_bytes(self, tmp_path):
        # the rhoY = 0.5 cells are quick and their replicates fail (too few
        # points to fit), so the sidecar holds errors of finished cells
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, "rho_values": [0.5, 50.0],
                                   "alpha_values": [0.05, 0.06],
                                   "replicates": 3}))
        full = tmp_path / "full.csv"
        assert run_cli(["study", "--config", cfg, "-o", full, "--quiet"]) == 0
        out = tmp_path / "study.csv"
        child = subprocess.Popen(
            [sys.executable, "-m", "dsncp.cli", "study", "--config", str(cfg),
             "-o", str(out), "--quiet"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        try:
            while child.poll() is None and not (
                    out.exists() and len(out.read_text().splitlines()) > 1):
                time.sleep(0.005)
        finally:
            child.terminate()
            child.wait()
        # killed with finished cells written and others still to run
        kept = out.read_text().splitlines()
        assert 1 < len(kept) < 5, kept
        assert run_cli(["study", "--config", cfg, "-o", out, "--quiet"]) == 0
        assert out.read_bytes() == full.read_bytes()
        assert (tmp_path / "study.errors.json").read_bytes() == \
            (tmp_path / "full.errors.json").read_bytes()
        assert json.loads((tmp_path / "full.errors.json").read_text())
        # killed between the two writes of the third cell: the sidecar holds
        # its errors, the CSV not its row; the rerun replaces those errors
        (tmp_path / "study.csv").write_text("\n".join(kept[:3]) + "\n")
        assert run_cli(["study", "--config", cfg, "-o", out, "--quiet"]) == 0
        assert out.read_bytes() == full.read_bytes()
        assert (tmp_path / "study.errors.json").read_bytes() == \
            (tmp_path / "full.errors.json").read_bytes()

    def test_resume_replaces_errors_of_rerun_cells(self, tmp_path, capsys,
                                                   monkeypatch):
        # a test that refuses every fit makes every replicate fail
        def refused(*args, **kwargs):
            raise ParameterError("refused for the test")
        monkeypatch.setattr(dsncp.envelope, "envelope_test", refused)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **self.CONFIG, "alpha_values": [0.05], "gamma_values": [6.0, 7.0]}))
        out = tmp_path / "study.csv"
        sidecar = tmp_path / "study.errors.json"
        assert run_cli(["study", "--config", cfg, "-o", out, "--quiet"]) == 0
        full, full_errors = out.read_text(), sidecar.read_text()
        errors = json.loads(full_errors)
        assert sorted((e["gamma"], e["replicate"]) for e in errors) == [
            (6.0, 0), (6.0, 1), (7.0, 0), (7.0, 1)]

        out.write_text("\n".join(full.splitlines()[:2]) + "\n")
        assert run_cli(["study", "--config", cfg, "-o", out]) == 0
        assert "1 cells already complete, 1 run); 4 errors" in \
            capsys.readouterr().out
        assert out.read_text() == full
        assert sidecar.read_text() == full_errors

    def test_malformed_existing_row_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        out.write_text(f"{STUDY_CSV_HEADER}\nthomas,thomas,not-a-number\n")
        rc = run_cli(["study", "--config", cfg, "-o", out])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [
        {"true_family": "thomas"},
        [1, 2],
        [{"true_family": "thomas", "alpha": [0.05]}],
    ], ids=["not-a-list", "not-objects", "list-value"])
    def test_malformed_sidecar_exits_2(self, sidecar, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        errors = tmp_path / "study.errors.json"
        errors.write_text(json.dumps(sidecar))
        rc = run_cli(["study", "--config", cfg, "-o", out])
        assert rc == 2
        assert str(errors) in capsys.readouterr().err
        assert not out.exists()  # refused before any cell ran

    @pytest.mark.parametrize("rows,message", [
        # a row of an alpha = 0.5 cell, resumed with a config whose only
        # alpha is 0.05
        (["thomas,thomas,0.5,6,50,0,1.0312"],
         "line 2: row thomas,thomas,0.5,6,50 is not a cell"),
        (["thomas,thomas,0.05,6,50,0,1.0312",
          "thomas,thomas,0.05,6,50,0.5,0.98"],
         "line 3: row thomas,thomas,0.05,6,50 repeats an earlier row"),
    ], ids=["other-config", "repeated"])
    def test_row_the_rewrite_would_drop_exits_2(self, rows, message, tmp_path,
                                                capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, "alpha_values": [0.05]}))
        out = tmp_path / "study.csv"
        sidecar = tmp_path / "study.errors.json"
        out.write_text("\n".join([STUDY_CSV_HEADER, *rows]) + "\n")
        sidecar.write_text(json.dumps([{
            "true_family": "thomas", "fitted_family": "thomas", "alpha": 0.5,
            "gamma": 6.0, "rhoY": 50.0, "replicate": 1, "stage": "fit/test",
            "error": "no convergence"}]))
        before = out.read_bytes(), sidecar.read_bytes()

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(dsncp.envelope, "_run_cell", no_cells)
        assert run_cli(["study", "--config", cfg, "-o", out]) == 2
        err = capsys.readouterr().err
        assert f"{out}: {message}" in err
        assert (out.read_bytes(), sidecar.read_bytes()) == before

    def test_unreadable_output_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        out.mkdir()
        rc = run_cli(["study", "--config", cfg, "-o", out])
        assert rc == 2
        assert f"cannot read {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["foo,bar\n", "headerless"],
                             ids=["foreign", "headerless"])
    def test_first_line_not_the_header_exits_2(self, text, tmp_path, capsys,
                                               monkeypatch):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        sidecar = tmp_path / "study.errors.json"
        if text == "headerless":
            # a study CSV that lost its header line: line 1 is a row, which
            # a header-blind reader would drop and rerun
            assert run_cli(["study", "--config", cfg, "-o", out,
                            "--quiet"]) == 0
            text = "".join(out.read_text().splitlines(True)[1:])
        out.write_text(text)
        sidecar.write_text("[]\n")
        before = out.read_bytes(), sidecar.read_bytes()

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(dsncp.envelope, "_run_cell", no_cells)
        assert run_cli(["study", "--config", cfg, "-o", out]) == 2
        assert f"{out}: line 1: not the study CSV header" in \
            capsys.readouterr().err
        assert (out.read_bytes(), sidecar.read_bytes()) == before

    def test_empty_output_file_has_no_rows(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        out.write_text("")
        assert run_cli(["study", "--config", cfg, "-o", out]) == 0
        assert "(0 cells already complete, 2 run)" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == STUDY_CSV_HEADER

    def test_failed_write_exits_2(self, tmp_path, capsys):
        # the sidecar's temporary file cannot be written once the checks
        # on the output path have passed
        cfg = self.write_config(tmp_path)
        tmp = tmp_path / "study.errors.json.tmp"
        tmp.mkdir()
        assert run_cli(["study", "--config", cfg, "-o",
                        tmp_path / "study.csv"]) == 2
        assert f"cannot write {tmp}: " in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_nonpositive_jobs_exits_2(self, jobs, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "study.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["study", "--config", cfg, "--jobs", jobs, "-o", out])
        assert err.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err
        cfg.write_text(json.dumps({**self.CONFIG, "jobs": jobs}))
        assert run_cli(["study", "--config", cfg, "-o", out]) == 2
        assert "jobs must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,message", [
        ({"level": 1.5}, "level must be in (0, 1), got 1.5"),
        ({"n_sim": 10}, "need at least 99 simulations at level 0.95, got 10"),
        ({"alpha_values": [0.05, math.inf]},
         "alpha_values must be finite and > 0, got inf"),
        ({"gamma_values": ["x"]}, "gamma_values must be a list of numbers"),
        ({"families": ["bogus"]}, "unknown family 'bogus'; choose one of "
         "['thomas', 'gaussian-dpp-thomas', 'ginibre-dpp-thomas']"),
        ({"fitted_families": ["bogus"]}, "unknown family 'bogus'"),
        ({"rho_values": [1e9]}, "cell thomas alpha=0.05 gamma=6.0 "
         "rhoY=1000000000.0: expected centre count rho_Y |W_ext| is 1.96e+09"),
        # most repulsive: a frequency box of about 35 rho_Y |W_ext|
        ({"families": ["gaussian-dpp-thomas"], "gamma_values": [1.0],
          "rho_values": [1e6]}, "cell gaussian-dpp-thomas alpha=0.05 "
         "gamma=1.0 rhoY=1000000.0: expected DPP rank rho_Y |D| on its "
         "domain D is 1.96e+06, above the limit 8192"),
        ({"seed": -1}, "seed must be an integer in [0, 2^64), got -1"),
        ({"seed": 1.5}, "seed must be an integer in [0, 2^64), got 1.5"),
        ({"seed": "7"}, "seed must be an integer in [0, 2^64), got '7'"),
        ({"seed": True}, "seed must be an integer in [0, 2^64), got True"),
        ({"seed": 2 ** 64}, "seed must be an integer in [0, 2^64), got "
         "18446744073709551616"),
        ({"replicates": True}, "replicates must be an integer >= 1, got True"),
        ({"jobs": True}, "jobs must be an integer >= 1, got True"),
        ({"families": []}, "families must be non-empty"),
        ({"fitted_families": []}, "fitted_families must be non-empty"),
        # a string where a list belongs, and a window of the wrong shape
        ({"families": "thomas"}, "families must be a list, got 'thomas'"),
        ({"fitted_families": "thomas"},
         "fitted_families must be a list, got 'thomas'"),
        ({"alpha_values": "3"}, "alpha_values must be a list, got '3'"),
        ({"gamma_values": "6"}, "gamma_values must be a list, got '6'"),
        ({"rho_values": "50"}, "rho_values must be a list, got '50'"),
        ({"window": "0101"}, "window must be four numbers xmin, xmax, ymin, "
         "ymax, got '0101'"),
        ({"window": [0, 1, 0, 1, 2]}, "window must be four numbers xmin, "
         "xmax, ymin, ymax, got [0, 1, 0, 1, 2]"),
        ({"window": ["0", 1, 0, 1]}, "window must be four numbers xmin, "
         "xmax, ymin, ymax, got ['0', 1, 0, 1]"),
        # a config whose top level is not an object replaces the whole file
        ("thomas", "expected a JSON object"),
        (["abc"], "expected a JSON object"),
    ], ids=["level", "n_sim", "alpha-inf", "gamma-str", "family",
            "fitted-family", "too-large", "too-high-rank", "seed-negative",
            "seed-float", "seed-str", "seed-bool", "seed-2^64",
            "replicates-bool", "jobs-bool", "no-families",
            "no-fitted-families", "families-str", "fitted-families-str",
            "alpha-values-str", "gamma-values-str", "rho-values-str",
            "window-str", "window-five", "window-str-entry",
            "not-an-object-str", "not-an-object-list"])
    def test_config_that_cannot_run_exits_2(self, change, message, tmp_path,
                                            capsys, monkeypatch, no_draws):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(dsncp.envelope, "_run_cell", no_cells)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, **change}
                                  if isinstance(change, dict) else change))
        out = tmp_path / "study.csv"
        assert run_cli(["study", "--config", cfg, "-o", out]) == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_values": []}))
        rc = run_cli(["study", "--config", cfg, "-o", tmp_path / "s.csv"])
        assert rc == 2
        cfg.write_text("{not json")
        rc = run_cli(["study", "--config", cfg, "-o", tmp_path / "s.csv"])
        assert rc == 2


@pytest.mark.parametrize("command", ["simulate", "dump-spectrum", "curves",
                                     "fit", "envelope", "study"])
def test_output_under_a_missing_directory_exits_2(command, pattern_csv,
                                                  fit_json, tmp_path, capsys,
                                                  no_draws):
    # refused before any work: no draw, no fit, no cell
    out = tmp_path / "missing" / "out.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TestStudy.CONFIG))
    model = ["--model", "thomas", "--alpha", 0.05, "--gamma", 6, "--rhoY", 50]
    data = ["--data", pattern_csv, "--window", "rect:0,1,0,1"]
    argv = {
        "simulate": ["simulate", *model, "--window", "rect:0,1,0,1",
                     "-o", out],
        "dump-spectrum": ["simulate", "--model", "ginibre-dpp-thomas",
                          "--rhoX", 250, "--beta", 0.09, "--alpha", 0.04,
                          "--window", "rect:0,1,0,1", "--dump-spectrum", out],
        "curves": ["curves", *model, "--stat", "K", "-o", out],
        "fit": ["fit", *data, "--all-families", "-o", out],
        "envelope": ["envelope", *data, "--fit", fit_json, "--family",
                     "thomas", "--n-sim", 99, "-o", out],
        "study": ["study", "--config", cfg, "-o", out],
    }[command]
    assert run_cli(argv) == 2
    assert f"cannot write {out}: no directory {out.parent}" in \
        capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["simulate", "dump-spectrum", "curves",
                                     "fit", "envelope", "sidecar"])
def test_output_that_is_a_directory_exits_2(command, pattern_csv, fit_json,
                                            tmp_path, capsys, no_draws):
    # refused before any work: no draw, no fit, and no CSV without its
    # sidecar
    out = tmp_path / "out.csv"
    directory = tmp_path / "out.json" if command == "sidecar" else out
    directory.mkdir()
    model = ["--model", "thomas", "--alpha", 0.05, "--gamma", 6, "--rhoY", 50]
    data = ["--data", pattern_csv, "--window", "rect:0,1,0,1"]
    envelope = ["envelope", *data, "--fit", fit_json, "--family", "thomas",
                "--n-sim", 99, "-o", out]
    argv = {
        "simulate": ["simulate", *model, "--window", "rect:0,1,0,1",
                     "-o", out],
        "dump-spectrum": ["simulate", "--model", "ginibre-dpp-thomas",
                          "--rhoX", 250, "--beta", 0.09, "--alpha", 0.04,
                          "--window", "rect:0,1,0,1", "--dump-spectrum", out],
        "curves": ["curves", *model, "--stat", "K", "-o", out],
        "fit": ["fit", *data, "--all-families", "-o", out],
        "envelope": envelope,
        "sidecar": envelope,
    }[command]
    assert run_cli(argv) == 2
    assert f"cannot write {directory}: is a directory" in \
        capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [directory]
    assert not any(directory.iterdir())


def test_output_in_a_read_only_directory_exits_2(tmp_path, capsys,
                                                 monkeypatch, no_draws):
    # os.access denies the directory: a superuser may write to any
    # directory, so a chmod would not show the refusal
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode)
                        and Path(path) != tmp_path)
    out = tmp_path / "pattern.csv"
    assert run_cli(["simulate", "--model", "thomas", "--alpha", 0.05,
                    "--gamma", 6, "--rhoY", 50, "--window", "rect:0,1,0,1",
                    "-o", out]) == 2
    assert f"cannot write {out}: directory {tmp_path} is not writable" in \
        capsys.readouterr().err


class TestEntryPoints:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dsncp.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()
