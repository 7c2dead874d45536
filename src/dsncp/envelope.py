"""Global envelope tests ordered by extreme rank length, and the
simulation study harness built on them.

A test simulates patterns from a fitted model, computes one functional
summary for the data and every simulation on a shared grid, ranks whole
curves by how extreme their pointwise ranks are (extreme rank length,
lexicographic on the counts of rank-1 points, then rank-2, ...), and
reports a Monte Carlo p-value together with a global envelope.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from numbers import Real
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cluster import (
    Family,
    ModelParams,
    centre_window,
    sample_model,
)
from .core import (
    Disc,
    InputFileError,
    ParameterError,
    PointPattern,
    Rect,
    RngStream,
    check_count,
    check_positive,
    csv_line,
    csv_text,
    read_json,
    write_json,
)
from .dpp import max_admissible_beta
from .fit import FitResult, min_contrast_fit
from .summaries import (
    STATISTICS,
    _curve_values,
    default_grid,
    default_pcf_bandwidth,
)


@dataclass(frozen=True)
class CurveEnsemble:
    """An observed curve and s >= 1 simulated curves on a shared grid.

    Grid points where any curve is undefined (NaN/inf, e.g. J beyond the
    radius where F saturates) are dropped ensemble-wide on construction.
    """

    r: np.ndarray
    observed: np.ndarray
    sims: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        obs = np.asarray(self.observed, dtype=float)
        sims = np.asarray(self.sims, dtype=float)
        if r.ndim != 1 or obs.shape != r.shape:
            raise ParameterError("observed curve must match the grid")
        if sims.ndim != 2 or sims.shape[1] != r.size:
            raise ParameterError("sims must be (s, len(grid))")
        if sims.shape[0] < 1:
            raise ParameterError("need at least one simulated curve")
        keep = np.isfinite(obs) & np.isfinite(sims).all(axis=0)
        if not keep.any():
            raise ParameterError("no grid point is finite across the ensemble")
        r, obs, sims = r[keep], obs[keep], sims[:, keep]
        for a in (r, obs, sims):
            a.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "sims", sims)

    @property
    def n_sim(self) -> int:
        return self.sims.shape[0]


def _erl_order_statistics(curves: np.ndarray) -> np.ndarray:
    """Extreme-rank-length ordering of the rows of ``curves``.

    Returns each curve's competition rank from the most extreme end (1 =
    most extreme); exactly tied curves share a rank, so equal ranks are the
    tie groups.
    """
    m, g = curves.shape
    order = np.argsort(curves, axis=0, kind="stable")
    srt = np.take_along_axis(curves, order, axis=0)
    # each sorted column splits into tie runs [s, e): a run's values rank
    # s + 1 from below and m - e + 1 from above (competition ranks)
    edge = np.ones((1, g), dtype=bool)
    run_start = np.vstack((edge, srt[1:] != srt[:-1]))
    run_last = np.vstack((run_start[1:], edge))
    pos = np.arange(m)[:, None]
    s = np.maximum.accumulate(np.where(run_start, pos, 0), axis=0)
    e = np.minimum.accumulate(np.where(run_last, pos + 1, m)[::-1],
                              axis=0)[::-1]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.minimum(s + 1, m - e + 1), axis=0)
    # lexicographic comparison of rank-count vectors == lexicographic
    # comparison of each curve's ascending-sorted pointwise ranks; a run of
    # equal sorted rows takes the competition rank of its first row
    sorted_ranks = np.sort(ranks, axis=1)
    order = np.lexsort(sorted_ranks.T[::-1])
    srt = sorted_ranks[order]
    new_run = np.concatenate(([True], np.any(srt[1:] != srt[:-1], axis=1)))
    stat = np.empty(m, dtype=np.int64)
    stat[order] = np.flatnonzero(new_run)[np.cumsum(new_run) - 1] + 1
    return stat


@dataclass(frozen=True)
class EnvelopeResult:
    r: np.ndarray
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    central: np.ndarray
    p_value: float
    level: float
    n_sim: int
    statistic: str | None = None

    def __post_init__(self):
        if not (np.all(self.lower <= self.central + 1e-12)
                and np.all(self.central <= self.upper + 1e-12)):
            raise ParameterError("envelope must satisfy lower <= central <= upper")
        if not 0.0 < self.p_value <= 1.0:
            raise ParameterError(f"p-value {self.p_value} outside (0, 1]")

    @property
    def rejected(self) -> bool:
        return self.p_value < 1.0 - self.level

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(csv_text("r,obs,lo,hi,central", zip(
            self.r, self.observed, self.lower, self.upper, self.central)))

    def meta(self) -> dict:
        return {"p_value": self.p_value, "level": self.level,
                "n_sim": self.n_sim, "statistic": self.statistic}


def _check_level(n_sim: int, level: float) -> None:
    """Refuse a level at which ``n_sim`` simulations leave no envelope, and
    fewer than 99 simulations at the default level 0.95."""
    if not (isinstance(level, Real) and 0.0 < level < 1.0):
        raise ParameterError(f"level must be in (0, 1), got {level!r}")
    if level == 0.95 and n_sim + 1 < 100:
        raise ParameterError(
            f"need at least 99 simulations at level 0.95, got {n_sim}")
    # 1e-9 nudges keep products like 0.8 * 5 from falling off an integer
    if math.floor((1.0 - level) * (n_sim + 1) + 1e-9) < 1:
        raise ParameterError(
            f"{n_sim} simulations are too few for level {level}")


def global_envelope(ensemble: CurveEnsemble, level: float = 0.95,
                    statistic: str | None = None) -> EnvelopeResult:
    """Rank the ensemble by extreme rank length and build the envelope.

    The m = s + 1 curves, observed first, are dropped in a stable sort of
    their ERL ranks until ceil(level*m) remain. The envelope is the
    pointwise min/max of the retained simulated curves, the central curve
    their mean, and p = (1 + #{sims with rank <= the observed's}) / m.
    """
    _check_level(ensemble.n_sim, level)
    m = ensemble.n_sim + 1
    stat = _erl_order_statistics(np.vstack([ensemble.observed, ensemble.sims]))
    p_value = (1 + int(np.count_nonzero(stat[1:] <= stat[0]))) / m

    drop = m - math.ceil(level * m - 1e-9)
    keep = np.ones(m, dtype=bool)
    keep[np.argsort(stat, kind="stable")[:drop]] = False
    retained = ensemble.sims[keep[1:]]
    if retained.shape[0] == 0:
        raise ParameterError("no simulated curve retained; level too low")
    return EnvelopeResult(r=ensemble.r, observed=ensemble.observed,
                          lower=retained.min(axis=0),
                          upper=retained.max(axis=0),
                          central=retained.mean(axis=0),
                          p_value=p_value, level=level,
                          n_sim=ensemble.n_sim, statistic=statistic)


def _sim_curve_task(args) -> np.ndarray:
    m, w, stream, statistic, grid, bandwidth = args
    pattern = sample_model(m, w, rng=stream)
    return _curve_values(pattern, statistic, grid, bandwidth)


def _one_blas_thread() -> None:
    """Pool initializer: numpy's bundled OpenBLAS runs one thread in this
    worker, so that workers do not compete for the cores with each other's
    BLAS threads. Does nothing when numpy has no such library."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _process_pool(jobs: int) -> ProcessPoolExecutor:
    """A pool of ``jobs`` workers, each with one BLAS thread. Workers are
    spawned on every platform: forking copies a process whose BLAS threads
    may hold locks, and a spawned worker imports its own numpy."""
    return ProcessPoolExecutor(max_workers=jobs,
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_one_blas_thread)


def envelope_test(p: PointPattern, fitted: FitResult | ModelParams,
                  statistic: str = "J", n_sim: int = 2499,
                  rng: RngStream | None = None, level: float = 0.95,
                  jobs: int = 1) -> EnvelopeResult:
    """Goodness-of-fit test of a fitted model against the data pattern.

    Simulates ``n_sim`` patterns from the fitted model on the data window
    (one RngStream substream each, so results are independent of execution
    order), evaluates the chosen statistic everywhere on a shared grid, and
    runs the global envelope. 2499 simulations is the recommended default;
    199 is a usable fast mode. With ``jobs`` > 1 the simulations run on
    ``_process_pool``, whose workers use one BLAS thread each. A model too
    large for ``sample_model`` to draw is refused before the observed
    curve is computed.
    """
    if rng is None:
        raise ParameterError("an RngStream is required")
    check_count("n_sim", n_sim)
    check_count("jobs", jobs)
    _check_level(n_sim, level)
    model = fitted.model() if isinstance(fitted, FitResult) else fitted
    centre_window(model, p.window)
    grid = default_grid(p.window)
    bandwidth = None
    if statistic == "pcf":
        bandwidth = default_pcf_bandwidth(p)
        grid = grid[grid > bandwidth / 2.0]
        if grid.size == 0:
            raise ParameterError("pcf grid is empty after the bandwidth cut")
    observed = _curve_values(p, statistic, grid, bandwidth)
    tasks = [(model, p.window, rng.substream(i), statistic, grid, bandwidth)
             for i in range(n_sim)]
    if jobs > 1:
        with _process_pool(jobs) as pool:
            rows = list(pool.map(_sim_curve_task, tasks,
                                 chunksize=max(1, n_sim // (8 * jobs))))
    else:
        rows = [_sim_curve_task(t) for t in tasks]
    ensemble = CurveEnsemble(grid, observed, np.vstack(rows))
    return global_envelope(ensemble, level=level, statistic=statistic)


@dataclass(frozen=True)
class StudyConfig:
    """Parameter grid and protocol for the misspecification study."""

    alpha_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    rho_values: tuple[float, ...]
    families: tuple[Family, ...] = tuple(Family)
    fitted_families: tuple[Family, ...] | None = None
    replicates: int = 100
    n_sim: int = 1999
    statistic: str = "J"
    level: float = 0.95
    seed: int = 0
    jobs: int = 1
    window: Rect = field(default_factory=lambda: Rect(0.0, 1.0, 0.0, 1.0))

    def __post_init__(self):
        w = self.window
        if not isinstance(w, (Rect, Disc)):
            if not (isinstance(w, (list, tuple)) and len(w) == 4 and all(
                    isinstance(v, Real) and not isinstance(v, bool)
                    for v in w)):
                raise ParameterError("window must be four numbers xmin, xmax, "
                                     f"ymin, ymax, got {w!r}")
            object.__setattr__(self, "window", Rect(*w))
        for name in ("families", "fitted_families", "alpha_values",
                     "gamma_values", "rho_values"):
            if isinstance(v := getattr(self, name), str):
                raise ParameterError(f"{name} must be a list, got {v!r}")
        object.__setattr__(self, "families",
                           tuple(Family(f) for f in self.families))
        if self.fitted_families is not None:
            object.__setattr__(self, "fitted_families",
                               tuple(Family(f) for f in self.fitted_families))
        for name in ("families", "fitted_families"):
            if getattr(self, name) == ():
                raise ParameterError(f"{name} must be non-empty")
        for name in ("alpha_values", "gamma_values", "rho_values"):
            try:
                vals = tuple(float(v) for v in getattr(self, name))
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must be a list of numbers, got "
                                     f"{getattr(self, name)!r}") from None
            if not vals:
                raise ParameterError(f"{name} must be non-empty")
            for v in vals:
                check_positive(name, v)
            object.__setattr__(self, name, vals)
        for name in ("replicates", "n_sim", "jobs"):
            check_count(name, getattr(self, name))
        RngStream(self.seed)  # refuses a seed no stream takes
        _check_level(self.n_sim, self.level)
        if self.statistic not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.statistic!r}")
        for _, fam, alpha, gamma, rho, _ in self.cells():
            try:
                centre_window(_true_model(fam, gamma, alpha, rho), self.window)
            except ParameterError as exc:
                raise ParameterError(f"cell {fam.value} alpha={alpha} gamma="
                                     f"{gamma} rhoY={rho}: {exc}") from None

    def cells(self):
        """Yield (index, true family, alpha, gamma, rho, fitted families)
        for every cell in its fixed order; a cell fits every other family
        unless ``fitted_families`` names them."""
        for idx, (fam, alpha, gamma, rho) in enumerate(product(
                self.families, self.alpha_values, self.gamma_values,
                self.rho_values)):
            fitted = self.fitted_families or tuple(
                f for f in Family if f is not fam)
            yield idx, fam, alpha, gamma, rho, fitted


STUDY_CSV_HEADER = ("true_family,fitted_family,alpha,gamma,rhoY,"
                    "reject_rate,mean_rhoY_ratio")


@dataclass(frozen=True)
class StudyRow:
    true_family: Family
    fitted_family: Family
    alpha: float
    gamma: float
    rho_Y: float
    reject_rate: float
    mean_rhoY_ratio: float
    replicates_ok: int

    def cells(self) -> tuple:
        """The row's study CSV cells; the first five identify its cell."""
        return (self.true_family.value, self.fitted_family.value, self.alpha,
                self.gamma, self.rho_Y, self.reject_rate, self.mean_rhoY_ratio)

    def csv_line(self) -> str:
        return csv_line(self.cells())


@dataclass
class StudyResult:
    rows: list[StudyRow]
    errors: list[dict]


def _true_model(family: Family, gamma: float, alpha: float,
                rho: float) -> ModelParams:
    if family is Family.THOMAS:
        return ModelParams(family=family, gamma=gamma, alpha=alpha, rho_Y=rho)
    return ModelParams.most_repulsive(family=family, gamma=gamma, alpha=alpha,
                                      beta=max_admissible_beta(rho))


def _run_cell(config: StudyConfig, cell: tuple) -> StudyResult:
    """The rows and errors of one of ``config.cells()``, on the cell's own
    random streams. The library raises ParameterError for a pattern or fit
    the model cannot handle, so a replicate that fails with one is recorded
    and skipped; any other exception is a bug and propagates.
    """
    cell_idx, fam_true, alpha, gamma, rho, fitted_families = cell
    base = RngStream(seed=config.seed)
    rows: list[StudyRow] = []
    errors: list[dict] = []
    m_true = _true_model(fam_true, gamma, alpha, rho)
    tallies = {f: {"reject": 0, "ratio": 0.0, "ok": 0}
               for f in fitted_families}
    for rep in range(config.replicates):
        rep_rng = base.substream(cell_idx * config.replicates + rep)
        try:
            pattern = sample_model(m_true, config.window,
                                   rng=rep_rng.substream(0))
        except ParameterError as exc:
            errors.append({"true_family": fam_true.value, "alpha": alpha,
                           "gamma": gamma, "rhoY": rho, "replicate": rep,
                           "stage": "simulate", "error": str(exc)})
            continue
        for k, fam_fit in enumerate(fitted_families):
            try:
                fit = min_contrast_fit(pattern, fam_fit)
                res = envelope_test(pattern, fit, statistic=config.statistic,
                                    n_sim=config.n_sim,
                                    rng=rep_rng.substream(1 + k),
                                    level=config.level, jobs=config.jobs)
            except ParameterError as exc:
                errors.append({"true_family": fam_true.value,
                               "fitted_family": fam_fit.value,
                               "alpha": alpha, "gamma": gamma, "rhoY": rho,
                               "replicate": rep, "stage": "fit/test",
                               "error": str(exc)})
                continue
            t = tallies[fam_fit]
            t["reject"] += int(res.rejected)
            t["ratio"] += fit.rho_Y / rho
            t["ok"] += 1
    for fam_fit in fitted_families:
        t = tallies[fam_fit]
        ok = t["ok"]
        rows.append(StudyRow(
            true_family=fam_true, fitted_family=fam_fit, alpha=alpha,
            gamma=gamma, rho_Y=rho,
            reject_rate=t["reject"] / ok if ok else math.nan,
            mean_rhoY_ratio=t["ratio"] / ok if ok else math.nan,
            replicates_ok=ok))
    return StudyResult(rows=rows, errors=errors)


def run_study(config: StudyConfig) -> StudyResult:
    """Cross-family misspecification study.

    For every true family and parameter combination, each replicate
    simulates one pattern, fits the configured other families by minimum
    contrast, and envelope-tests each fit. A replicate that fails with a
    parameter error is recorded and skipped, never fatal. Emits rejection
    rates and mean fitted-to-true centre intensity ratios per cell.
    """
    cells = [_run_cell(config, cell) for cell in config.cells()]
    return StudyResult(rows=[row for c in cells for row in c.rows],
                       errors=[e for c in cells for e in c.errors])


class StudyResume(NamedTuple):
    """Counts of the rows and errors ``resume_study`` wrote, and of the
    cells it kept and ran."""

    rows: int
    errors: int
    cells_kept: int
    cells_run: int
    errors_path: Path


def _read_study_rows(path: Path, keys: set[tuple]) -> dict[tuple, list[str]]:
    """The rows of an existing study CSV, each row's cells keyed by its first
    five columns; %.17g round-trips them exactly. An empty file has no rows.
    A first line other than the study header, or a row whose key is not in
    ``keys``, the cells of the current config, or repeats an earlier row's
    raises InputFileError: the rewrite would drop it."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    if lines and lines[0] != STUDY_CSV_HEADER:
        raise InputFileError(f"{path}: line 1: not the study CSV header "
                             f"{STUDY_CSV_HEADER}")
    have: dict[tuple, list[str]] = {}
    for num, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        try:
            if len(parts) != 7:
                raise ValueError
            # the value columns are numbers too; nan marks a cell with no
            # successful replicate
            nums = [float(v) for v in parts[2:]]
            key = (parts[0], parts[1], *nums[:3])
        except ValueError:
            raise InputFileError(f"{path}: line {num}: malformed study row"
                                 ) from None
        if key in have or key not in keys:
            why = ("repeats an earlier row" if key in have
                   else "is not a cell of this study's config")
            raise InputFileError(f"{path}: line {num}: row "
                                 f"{','.join(parts[:5])} {why}; resuming "
                                 f"would drop it")
        have[key] = parts
    return have


def _error_cell(entry: dict) -> tuple:
    """The (true family, alpha, gamma, rhoY) of a study error entry."""
    return tuple(map(entry.get, ("true_family", "alpha", "gamma", "rhoY")))


def resume_study(config: StudyConfig, path: str | Path) -> StudyResume:
    """Run the study cells the CSV at ``path`` lacks, in cell order.

    Complete cells are kept as written; the rest run with their own random
    streams, and their fresh errors replace their old ones in the
    ``.errors.json`` sidecar. After each cell the sidecar, then the CSV
    with rows in cell order, is replaced whole, so an interrupted study
    keeps its finished cells and, resumed, reproduces the uninterrupted one
    byte for byte. An unreadable row or sidecar, a row that is not a cell
    of ``config`` or repeats one, or a sidecar entry whose cell or
    replicate is not one of ``config``'s, raises InputFileError naming the
    file and line or entry before any cell runs.
    """
    out = Path(path)
    sidecar = (out.with_suffix(".errors.json") if out.suffix != ".json"
               else Path(str(out) + ".errors.json"))
    cells = list(config.cells())
    keys_of_cell = {idx: [(fam.value, ff.value, a, g, r) for ff in fitted]
                    for idx, fam, a, g, r, fitted in cells}
    known = {k for keys in keys_of_cell.values() for k in keys}
    have = _read_study_rows(out, known) if out.exists() else {}
    todo = [c for c in cells if not all(k in have for k in keys_of_cell[c[0]])]

    errors = read_json(sidecar) if sidecar.exists() else []
    if not isinstance(errors, list):
        raise InputFileError(f"{sidecar}: expected a JSON list of errors")
    cell_keys = {(fam.value, a, g, r) for _, fam, a, g, r, _ in cells}
    for num, e in enumerate(errors):
        if not (isinstance(e, dict) and all(
                v is None or isinstance(v, (str, int, float))
                for v in e.values())):
            raise InputFileError(f"{sidecar}: entry {num} is not a JSON "
                                 f"object of scalar values")
        # an entry of another config would be kept and counted as this one's
        if (cell := _error_cell(e)) not in cell_keys:
            fam, a, g, r = cell
            raise InputFileError(f"{sidecar}: entry {num} ({fam} alpha={a} "
                                 f"gamma={g} rhoY={r}) is not a cell of this "
                                 f"study's config")
        rep = e.get("replicate")
        if isinstance(rep, bool) or not isinstance(rep, int) or not (
                0 <= rep < config.replicates):
            raise InputFileError(f"{sidecar}: entry {num}: replicate must be "
                                 f"an integer in [0, {config.replicates}) "
                                 f"for this study's config, got {rep!r}")
    # rerun cells regenerate their errors; drop the stale copies
    rerun = {(fam.value, a, g, r) for _, fam, a, g, r, _ in todo}
    errors = [e for e in errors if _error_cell(e) not in rerun]

    def save() -> int:
        """Replace the sidecar, then the CSV; return the CSV's rows."""
        rows = [have[k] for keys in keys_of_cell.values() for k in keys
                if k in have]
        tmp = sidecar.with_name(sidecar.name + ".tmp")
        write_json(tmp, errors)
        os.replace(tmp, sidecar)
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(csv_text(STUDY_CSV_HEADER, rows))
        os.replace(tmp, out)
        return len(rows)

    written = save()
    for cell in todo:
        res = _run_cell(config, cell)
        errors += res.errors
        have.update((row.cells()[:5], row.cells()) for row in res.rows)
        written = save()
    return StudyResume(rows=written, errors=len(errors),
                       cells_kept=len(cells) - len(todo), cells_run=len(todo),
                       errors_path=sidecar)
