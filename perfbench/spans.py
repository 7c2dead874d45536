"""In-memory spans around dsncp's public functions, for traced runs.

``Tracer.installed()`` replaces each traced function in every dsncp module
that holds it (``dsncp.envelope.sample_model``, ``dsncp.fit.K_hat``, ...),
so library code that calls it through its own module picks up the wrapper.
Nothing in the package changes; leaving the context restores every
attribute. Worker processes of a pool import the package afresh and are not
traced: for work done there the trace holds only what the parent sees.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("dsncp", "dsncp.cli", "dsncp.cluster", "dsncp.core", "dsncp.dpp",
           "dsncp.envelope", "dsncp.fit", "dsncp.summaries")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _family_of(model) -> str:
    return model.family.value.split("-")[0]


def _attrs_spectrum(family):
    def attrs(args, kwargs, out):
        return {"family": family, "eigen_count": int(out.eigenvalues.size)}
    return attrs


def _attrs_sample_dpp(args, kwargs, out):
    from dsncp.core import Disc
    spec = args[0] if args else kwargs["spec"]
    # the Ginibre spectrum lives on a disc, the Gaussian one on a rectangle
    fam = "ginibre" if isinstance(spec.domain, Disc) else "gaussian"
    return {"family": fam, "points": int(out.n)}


def _attrs_model(args, kwargs, out):
    return {"family": _family_of(args[0] if args else kwargs["m"]),
            "points": int(out.n)}


def _attrs_fit(args, kwargs, out):
    return {"family": out.family.value.split("-")[0]}


# (defining module, function, span name, attribute extractor)
TARGETS = (
    ("dsncp.dpp", "gaussian_dpp_spectrum", "dpp.spectrum",
     _attrs_spectrum("gaussian")),
    ("dsncp.dpp", "ginibre_spectrum", "dpp.spectrum",
     _attrs_spectrum("ginibre")),
    ("dsncp.dpp", "sample_dpp", "dpp.sample_dpp", _attrs_sample_dpp),
    ("dsncp.cluster", "sample_centres", "cluster.sample_centres", _attrs_model),
    ("dsncp.cluster", "sample_model", "cluster.sample_model", _attrs_model),
    ("dsncp.summaries", "K_hat", "summaries.K_hat", None),
    ("dsncp.summaries", "pcf_hat", "summaries.pcf_hat", None),
    ("dsncp.summaries", "F_hat", "summaries.F_hat", None),
    ("dsncp.summaries", "G_hat", "summaries.G_hat", None),
    ("dsncp.summaries", "J_hat", "summaries.J_hat", None),
    ("dsncp.summaries", "K_theoretical", "summaries.K_theoretical", None),
    ("dsncp.fit", "min_contrast_fit", "fit.min_contrast_fit", _attrs_fit),
    ("dsncp.envelope", "envelope_test", "envelope.envelope_test", None),
    ("dsncp.envelope", "global_envelope", "envelope.global_envelope", None),
    ("dsncp.envelope", "run_study", "envelope.run_study", None),
)


class Tracer:
    """Records nested spans in memory; ``spans`` is in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as a CLI call."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if attrs_of is not None:
                s.attrs = attrs_of(args, kwargs, out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Trace every function in TARGETS wherever dsncp looks it up."""
        mods = [importlib.import_module(m) for m in MODULES]
        saved = []
        try:
            for home, attr, name, attrs_of in TARGETS:
                original = getattr(importlib.import_module(home), attr)
                wrapper = self.wrap(name, original, attrs_of)
                for mod in mods:
                    if getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds to the call it wraps, from timing a no-op
    called bare and through a wrapper."""
    def noop():
        return None
    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


FAMILIES = ("thomas", "gaussian", "ginibre")
DPP_FAMILIES = ("gaussian", "ginibre")
ESTIMATORS = ("K_hat", "pcf_hat", "F_hat", "G_hat", "J_hat")

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    **{f"dpp.spectrum_s.{f}": "s" for f in DPP_FAMILIES},
    **{f"dpp.eigen_count.{f}": "count" for f in DPP_FAMILIES},
    **{f"dpp.sample_s.{f}": "s" for f in DPP_FAMILIES},
    **{f"dpp.s_per_point.{f}": "s" for f in DPP_FAMILIES},
    **{f"dpp.points_drawn.{f}": "count" for f in DPP_FAMILIES},
    **{f"cluster.centres_s.{f}": "s" for f in FAMILIES},
    **{f"cluster.centres_kept_ratio.{f}": "ratio" for f in DPP_FAMILIES},
    "cluster.offspring_s": "s",
    **{f"summaries.{e}_s": "s" for e in ESTIMATORS},
    **{f"fit.min_contrast_s.{f}": "s" for f in FAMILIES},
    **{f"fit.objective_evals.{f}": "count" for f in FAMILIES},
    "envelope.sim_draw_s": "s",
    "envelope.sim_summary_s": "s",
    "envelope.global_envelope_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one round, from its spans.

    Times are inclusive seconds summed over the round, except three that
    exclude their children: ``cli.self_s`` (CLI time outside library calls),
    ``cluster.offspring_s`` (``sample_model`` minus its centre draw) and
    ``fit.min_contrast_s`` (the fit minus the ``K_hat`` it computes). A layer
    the round never calls reads 0.
    """
    own = self_times(spans)
    child_time: dict[tuple[int, str], float] = {}
    for s in spans:
        if s.parent >= 0:
            key = (s.parent, s.name)
            child_time[key] = child_time.get(key, 0.0) + s.duration
    out = {name: 0.0 for name in LAYER_UNITS}
    kept = {f: 0 for f in DPP_FAMILIES}
    drawn = {f: 0 for f in DPP_FAMILIES}
    for i, s in enumerate(spans):
        fam = s.attrs.get("family")
        parent = spans[s.parent] if s.parent >= 0 else None
        in_envelope = parent is not None and parent.name == "envelope.envelope_test"
        if s.name == "dpp.spectrum":
            out[f"dpp.spectrum_s.{fam}"] += s.duration
            key = f"dpp.eigen_count.{fam}"
            out[key] = max(out[key], s.attrs["eigen_count"])
        elif s.name == "dpp.sample_dpp":
            out[f"dpp.sample_s.{fam}"] += s.duration
            out[f"dpp.points_drawn.{fam}"] += s.attrs["points"]
            drawn[fam] += s.attrs["points"]
        elif s.name == "cluster.sample_centres":
            out[f"cluster.centres_s.{fam}"] += s.duration
            if fam in kept:
                kept[fam] += s.attrs["points"]
        elif s.name == "cluster.sample_model":
            out["cluster.offspring_s"] += own[i]
            if in_envelope:
                out["envelope.sim_draw_s"] += s.duration
        elif s.name == "summaries.K_theoretical":
            if parent is not None and parent.name == "fit.min_contrast_fit":
                out[f"fit.objective_evals.{parent.attrs['family']}"] += 1
        elif s.name.startswith("summaries."):
            out[f"{s.name}_s"] += s.duration
            if in_envelope:
                out["envelope.sim_summary_s"] += s.duration
        elif s.name == "fit.min_contrast_fit":
            out[f"fit.min_contrast_s.{fam}"] += (
                s.duration - child_time.get((i, "summaries.K_hat"), 0.0))
        elif s.name == "envelope.global_envelope":
            out["envelope.global_envelope_s"] += s.duration
        elif s.name == "cli.main":
            out["cli.self_s"] += own[i]
    for f in DPP_FAMILIES:
        if drawn[f]:
            out[f"dpp.s_per_point.{f}"] = out[f"dpp.sample_s.{f}"] / drawn[f]
            out[f"cluster.centres_kept_ratio.{f}"] = kept[f] / drawn[f]
    return out
