"""The benchmark's workloads: inputs, one round of work, and its checks.

A workload is set up once from the run's seed, then runs rounds. Round
``index`` depends only on the seed and the index, and every round starts
with dsncp's caches empty, as a fresh ``dsncp`` process would. A round
returns the seconds of each step, the bytes of everything the program wrote
or returned (to compare traced and untraced rounds), the number of program
calls attempted and failed, and what the checks need.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dsncp.cli
import dsncp.cluster
import dsncp.dpp
import dsncp.envelope
import dsncp.fit
import dsncp.summaries
from dsncp.cluster import Family, ModelParams
from dsncp.core import Rect, RngStream
from dsncp.data import load_whiteoak

import oracles
from spans import MODULES

SHORT = {Family.THOMAS: "thomas", Family.GAUSSIAN: "gaussian",
         Family.GINIBRE: "ginibre"}


def cold_start() -> None:
    """Empty every functools cache in dsncp, as a new process has them."""
    for name in MODULES:
        for obj in vars(sys.modules[name]).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@dataclass
class Round:
    steps: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    result: dict = field(default_factory=dict)

    def call(self, step: str, fn, *args, **kwargs):
        """Time one program call; count it, and count it failed if it raises."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, not fatal
            print(f"perfbench: {step} failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self.steps[step] = self.steps.get(step, 0.0) + time.perf_counter() - t0
        return out


def _derive(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


def _rect_tuple(w: Rect) -> tuple:
    return (w.xmin, w.xmax, w.ymin, w.ymax)


def _close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    ok = ~np.isnan(a)
    return bool(np.all(np.abs(a[ok] - b[ok]) <= rel * np.maximum(1.0, np.abs(b[ok]))))


# ---------------------------------------------------------------------------
# whiteoak-envelope


# criterion 5's published fits of the bundled pattern: rho_Y, alpha
WHITEOAK_TARGETS = {Family.THOMAS: (204.11, 0.03),
                    Family.GAUSSIAN: (105.36, 0.03),
                    Family.GINIBRE: (35.32, 0.05)}
UNIT = "rect:0,1,0,1"
N_SIM = 99


@dataclass
class WhiteoakEnvelope:
    """``dsncp fit --all-families`` on the bundled whiteoak pattern, then
    one ``dsncp envelope --stat J`` per fitted family, through the CLI."""

    families: tuple[Family, ...] = tuple(Family)

    def setup(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work
        work.mkdir(parents=True, exist_ok=True)
        self.data = work / "whiteoak.csv"
        load_whiteoak().to_csv(self.data)

    def _cli(self, rnd: Round, step: str, argv: list[str], tracer) -> None:
        with tracer.span("cli.main") if tracer else nullcontext():
            status = rnd.call(step, dsncp.cli.main, argv)
        if status not in (0, None):
            print(f"perfbench: dsncp {argv[0]} exited {status}", file=sys.stderr)
            rnd.failed += 1

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        data = ["--data", str(self.data), "--window", UNIT]
        fits = self.work / f"fits-{index}.json"
        self._cli(rnd, "fit_s", ["fit", *data, "--all-families", "--quiet",
                                 "-o", str(fits)], tracer)
        files = [fits]
        for fam in self.families:
            out = self.work / f"envelope-{SHORT[fam]}-{index}.csv"
            self._cli(rnd, f"envelope_s.{SHORT[fam]}", [
                "envelope", *data, "--fit", str(fits), "--family", fam.value,
                "--stat", "J", "--n-sim", str(N_SIM), "--jobs", "1",
                "--seed", str(self.seed), "--stream", str(index), "--quiet",
                "-o", str(out)], tracer)
            files += [out, out.with_suffix(".json")]
        for f in files:
            if f.exists():
                rnd.outputs[f.name.replace(f"-{index}.", ".")] = f.read_bytes()
                f.unlink()
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = []
        if not hasattr(self, "_j"):
            p = load_whiteoak()
            self._grid = dsncp.summaries.default_grid(p.window)
            self._j = oracles.f_g_j(p.points, (0.0, 1.0, 0.0, 1.0), self._grid)[2]
        if "fits.json" in rnd.outputs:
            fits = json.loads(rnd.outputs["fits.json"])["fits"]
            for fam, (rho, alpha) in WHITEOAK_TARGETS.items():
                f = fits[fam.value]
                if not (f["converged"] and abs(f["rhoY"] - rho) <= 0.15 * rho
                        and abs(f["alpha"] - alpha) <= 0.15 * alpha):
                    problems.append(f"{fam.value} fit {f} misses criterion 5")
            rhos = [fits[f.value]["rhoY"] for f in
                    (Family.GINIBRE, Family.GAUSSIAN, Family.THOMAS)]
            if not rhos[0] < rhos[1] < rhos[2]:
                problems.append(f"fitted rho_Y out of order: {rhos}")
        for fam in self.families:
            name = f"envelope-{SHORT[fam]}"
            if f"{name}.csv" not in rnd.outputs:
                continue
            rows = np.loadtxt(rnd.outputs[f"{name}.csv"].decode().splitlines(),
                              delimiter=",", skiprows=1, ndmin=2)
            r, obs, lo, hi, central = rows.T
            at = np.searchsorted(self._grid, r)
            if not (np.array_equal(self._grid[at], r)
                    and _close(obs, self._j[at], 1e-12)):
                problems.append(f"{name}: obs differs from brute-force J")
            if not np.all((lo <= central + 1e-12) & (central <= hi + 1e-12)):
                problems.append(f"{name}: envelope not lower <= central <= upper")
            meta = json.loads(rnd.outputs[f"{name}.json"])
            j = meta["p_value"] * (N_SIM + 1)
            if not (abs(j - round(j)) < 1e-9 and 1 <= round(j) <= N_SIM + 1
                    and meta["n_sim"] == N_SIM):
                problems.append(f"{name}: p-value {meta['p_value']} is not "
                                f"j/{N_SIM + 1}")
        return problems


# ---------------------------------------------------------------------------
# dpp-large-k


def _most_repulsive(family: Family) -> ModelParams:
    rho, alpha = WHITEOAK_TARGETS[family]
    gamma = 448.0 / rho  # the published gamma column, n/(|W| rho_Y)
    return ModelParams.most_repulsive(family, gamma=gamma, alpha=alpha,
                                      beta=dsncp.dpp.max_admissible_beta(rho))


COUNT_SDS = 5.0  # allowed distance of a point count from its mean, in SDs


@dataclass
class DppLargeK:
    """One ``sample_model`` draw per DPP family at the whiteoak fits, on
    windows where the sampler selects 3 to 5 times the unit square's k."""

    draws: tuple[tuple[str, Family, Rect], ...] = (
        ("gaussian", Family.GAUSSIAN, Rect(0.0, 2.0, 0.0, 2.0)),
        ("ginibre", Family.GINIBRE, Rect(0.0, 4.0, 0.0, 0.25)),
    )

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.models = {name: _most_repulsive(fam)
                       for name, fam, _ in self.draws}

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        base = RngStream(self.seed).substream(index)
        for k, (name, _, w) in enumerate(self.draws):
            p = rnd.call(f"draw_s.{name}", dsncp.cluster.sample_model,
                         self.models[name], w, rng=base.substream(k))
            if p is not None:
                rnd.outputs[name] = p.points.tobytes()
                rnd.result[name] = p.points
        return rnd

    def _count_sd(self, name: str, w: Rect) -> float:
        m = self.models[name]
        lx, ly = w.side_lengths
        fam = SHORT[m.family]
        c = 0.0 if m.beta is None else m.beta ** 2
        reach = 6.0 * math.sqrt(4.0 * m.alpha ** 2 + c)
        return math.sqrt(oracles.count_variance(
            m.rho_X, lx, ly,
            lambda r: oracles.pcf_minus_one(fam, m.alpha, m.rho_Y, m.beta, r),
            reach))

    def _spectrum_problems(self, name: str, w: Rect) -> list[str]:
        """The sampler's spectrum must sum to the expected centre count on
        its domain: rho |R| on the rectangle R, rho pi r^2 on the disc."""
        m = self.models[name]
        w_ext = w.grow(dsncp.cluster.default_extension(m).margin)
        if m.family is Family.GAUSSIAN:
            spec = dsncp.dpp.gaussian_dpp_spectrum(m.dpp_family(), w_ext)
            expected = m.rho_Y * w_ext.area
        else:
            spec = dsncp.dpp.ginibre_spectrum(
                dsncp.dpp.GinibreParams.from_family(m.dpp_family()),
                w_ext.circumradius)
            expected = m.rho_Y * math.pi * w_ext.circumradius ** 2
        total = float(spec.eigenvalues.sum())
        if abs(total - expected) > 1e-6 * expected:
            return [f"{name}: eigenvalues sum to {total}, expected {expected}"]
        return []

    def check(self, rnd: Round) -> list[str]:
        problems = []
        if not hasattr(self, "_sd"):
            self._sd = {}
            for name, _, w in self.draws:
                problems += self._spectrum_problems(name, w)
                self._sd[name] = self._count_sd(name, w)
        for name, _, w in self.draws:
            if name not in rnd.result:
                continue
            pts = rnd.result[name]
            inside = ((pts[:, 0] >= w.xmin) & (pts[:, 0] <= w.xmax)
                      & (pts[:, 1] >= w.ymin) & (pts[:, 1] <= w.ymax))
            if not inside.all():
                problems.append(f"{name}: {np.count_nonzero(~inside)} points "
                                f"outside the window")
            mean = self.models[name].rho_X * w.area
            if abs(len(pts) - mean) > COUNT_SDS * self._sd[name]:
                problems.append(f"{name}: {len(pts)} points, expected {mean:.1f}"
                                f" +- {COUNT_SDS} x {self._sd[name]:.1f}")
        return problems


# ---------------------------------------------------------------------------
# large-pattern


@dataclass
class LargePattern:
    """One Thomas pattern at the whiteoak parameters on a large square, with
    n within 1% of its mean: all five estimators once on the default grid,
    then all three fits."""

    side: float = 3.3

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.window = Rect(0.0, self.side, 0.0, self.side)
        rho, alpha = WHITEOAK_TARGETS[Family.THOMAS]
        self.model = ModelParams(Family.THOMAS, gamma=2.19, alpha=alpha, rho_Y=rho)
        self.grid = dsncp.summaries.default_grid(self.window)

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        # redraw until n is within 1% of its mean, so that every round
        # computes on the same input size: the dense pair blocks cost n^2
        base = RngStream(self.seed).substream(index)
        mean = self.model.rho_X * self.window.area
        for attempt in range(100):
            p = rnd.call("draw_s", dsncp.cluster.sample_model, self.model,
                         self.window, rng=base.substream(attempt))
            if p is None or abs(p.n - mean) <= 0.01 * mean:
                break
        if p is None:
            return rnd
        s = dsncp.summaries
        bandwidth = s.default_pcf_bandwidth(p)
        pcf_grid = self.grid[self.grid > bandwidth / 2.0]
        curves = {
            "K": rnd.call("summaries_s", s.K_hat, p, self.grid),
            "pcf": rnd.call("summaries_s", s.pcf_hat, p, pcf_grid),
            "F": rnd.call("summaries_s", s.F_hat, p, self.grid),
            "G": rnd.call("summaries_s", s.G_hat, p, self.grid),
            "J": rnd.call("summaries_s", s.J_hat, p, self.grid),
        }
        fits = {SHORT[fam]: rnd.call("fit_s", dsncp.fit.min_contrast_fit, p, fam)
                for fam in Family}
        rnd.outputs["pattern"] = p.points.tobytes()
        for key, c in curves.items():
            if c is not None:
                rnd.outputs[key] = c.r.tobytes() + c.values.tobytes()
        for key, f in fits.items():
            if f is not None:
                rnd.outputs[f"fit-{key}"] = json.dumps(f.to_dict()).encode()
        rnd.result = {"pattern": p, "bandwidth": bandwidth, "pcf_grid": pcf_grid,
                      "curves": curves, "fits": fits}
        return rnd

    def check(self, rnd: Round) -> list[str]:
        if "pattern" not in rnd.result:
            return []
        problems = []
        res = rnd.result
        pts, c = res["pattern"].points, res["curves"]
        mean = self.model.rho_X * self.window.area
        if abs(len(pts) - mean) > 0.01 * mean:
            problems.append(f"no pattern with n within 1% of {mean:.0f} "
                            f"in 100 draws")
        rect = _rect_tuple(self.window)
        k_ref = oracles.k_translation(pts, rect, self.grid)
        if c["K"] is not None and not _close(c["K"].values, k_ref, 1e-9):
            problems.append("K_hat differs from the pair enumeration")
        if c["pcf"] is not None and not _close(
                c["pcf"].values, oracles.pcf_translation(
                    pts, rect, res["pcf_grid"], res["bandwidth"]), 1e-6):
            problems.append("pcf_hat differs from the direct kernel sum")
        f_ref, g_ref, j_ref = oracles.f_g_j(pts, rect, self.grid)
        for key, ref in (("F", f_ref), ("G", g_ref)):
            if c[key] is None:
                continue
            v = c[key].values
            fin = v[np.isfinite(v)]
            if not (np.all((fin >= 0.0) & (fin <= 1.0)) and _close(v, ref, 1e-12)):
                problems.append(f"{key}_hat differs from the brute-force count")
        if None not in (c["F"], c["G"], c["J"]):
            f, g = c["F"].values, c["G"].values
            ok = np.isfinite(f) & np.isfinite(g) & (f < 1.0)
            if not (np.array_equal(c["J"].r, self.grid[ok])
                    and _close(c["J"].values, (1.0 - g[ok]) / (1.0 - f[ok]), 1e-12)
                    and _close(c["J"].values, j_ref[ok], 1e-12)):
                problems.append("J_hat is not (1 - G)/(1 - F) where F < 1")
        # a minimum-contrast fit must fit at least as well as the generating
        # model, which lies inside its search box; it need not land near it
        thomas = res["fits"]["thomas"]
        if thomas is not None:
            o = thomas.options
            if not np.array_equal(o.grid(), self.grid):
                problems.append("Thomas fit used another grid than default_grid")
            else:
                fitted = oracles.thomas_contrast(self.grid, k_ref, thomas.rho_Y,
                                                 thomas.alpha, o.q, o.p)
                truth = oracles.thomas_contrast(self.grid, k_ref, self.model.rho_Y,
                                                self.model.alpha, o.q, o.p)
                if not fitted <= truth * (1.0 + 1e-6):
                    problems.append(f"Thomas fit contrast {fitted:.6g} exceeds "
                                    f"the generating model's {truth:.6g}")
        return problems


# ---------------------------------------------------------------------------
# study-cells


# criterion 6's misspecification cells: true family, fitted family, alpha;
# both with gamma = 50 and rho = 50 on the unit square
GINIBRE_BY_THOMAS = (Family.GINIBRE, Family.THOMAS, 0.05)
THOMAS_BY_GINIBRE = (Family.THOMAS, Family.GINIBRE, 0.03)


@dataclass
class StudyCells:
    """Misspecification cells through ``run_study``.

    The benchmark runs the Ginibre-by-Thomas cell alone. The Thomas-by-Ginibre
    cell costs 4.3-8.1 s per replicate, following its fitted Ginibre
    intensity, and no affordable run length averages that out.
    """

    cells: tuple = (GINIBRE_BY_THOMAS,)
    n_sim: int = N_SIM
    level: float = 0.95
    # one process: at two jobs each pool worker runs OpenBLAS at its default
    # thread count, and a round took 7.2-14.6 s against 6.0-8.1 s at one job
    jobs: int = 1

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        for k, (true, fitted, alpha) in enumerate(self.cells):
            cfg = dsncp.envelope.StudyConfig(
                alpha_values=(alpha,), gamma_values=(50.0,), rho_values=(50.0,),
                families=(true,), fitted_families=(fitted,),
                replicates=1, n_sim=self.n_sim, statistic="J",
                level=self.level, seed=_derive(self.seed, index, k),
                jobs=self.jobs)
            res = rnd.call("study_s", dsncp.envelope.run_study, cfg)
            if res is not None:
                name = f"{SHORT[true]}-by-{SHORT[fitted]}"
                rnd.outputs[name] = ("\n".join(r.csv_line() for r in res.rows)
                                     + json.dumps(res.errors)).encode()
                rnd.result[name] = res
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = []
        for name, res in rnd.result.items():
            row = res.rows[0]
            if res.errors or row.replicates_ok != 1:
                problems.append(f"{name}: {len(res.errors)} replicates failed: "
                                f"{res.errors}")
            elif name == "ginibre-by-thomas" and not row.mean_rhoY_ratio > 1.0:
                problems.append(f"{name}: rho_Y ratio {row.mean_rhoY_ratio} <= 1")
            elif name == "thomas-by-ginibre" and not row.mean_rhoY_ratio < 1.0:
                problems.append(f"{name}: rho_Y ratio {row.mean_rhoY_ratio} >= 1")
        return problems


WORKLOADS = {
    "whiteoak-envelope": WhiteoakEnvelope,
    "dpp-large-k": DppLargeK,
    "large-pattern": LargePattern,
    "study-cell": StudyCells,
}
