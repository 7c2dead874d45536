"""Benchmark of the dsncp pipeline, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The run sets up the workload, then runs rounds of it until ``--seconds``
have passed (at least one), checking every round's outputs. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` every round runs twice, untraced and then traced on the same
inputs, and it reports the per-layer metrics, the tracing overhead, and
writes the spans to ``.perfbench_runs/``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="only set the workload up in DIR (used to time set-up)")
    return ap.parse_args(argv)


def _import_workloads():
    """Import dsncp from this checkout's src, never from elsewhere."""
    if not (SRC / "dsncp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dsncp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import dsncp
    if Path(dsncp.__file__).resolve().parent != SRC / "dsncp":
        raise SystemExit(f"perfbench: dsncp imported from {dsncp.__file__}")
    return workloads


def _time_setups(args, work: Path) -> float:
    """Median seconds of a fresh interpreter that imports dsncp and sets the
    workload up: what every ``dsncp`` call pays before its first result."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only", str(work / f"setup-{k}")],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode() + b"\0" + outputs[key] + b"\0")
    return h.hexdigest()


def _timed_round(wl, workloads, index, tracer=None):
    workloads.cold_start()
    t0 = time.perf_counter()
    if tracer is None:
        rnd = wl.run_round(index)
    else:
        with tracer.installed():
            rnd = wl.run_round(index, tracer)
    return rnd, time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        wl.setup(args.seed, Path(args.setup_only))
        return 0

    from spans import LAYER_UNITS, Tracer, layer_metrics, span_cost
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = _time_setups(args, work)
        wl.setup(args.seed, work / "run")
        problems: list[str] = []
        attempted = failed = 0
        walls, traced_walls, layers, spans = [], [], [], []
        steps: dict[str, list[float]] = {}
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < args.seconds:
            rnd, wall = _timed_round(wl, workloads, index)
            attempted += rnd.attempted
            failed += rnd.failed
            walls.append(wall)
            for step, sec in rnd.steps.items():
                steps.setdefault(step, []).append(sec)
            problems += [f"round {index}: {p}" for p in wl.check(rnd)]
            if args.trace:
                tracer = Tracer()
                traced, wall = _timed_round(wl, workloads, index, tracer)
                attempted += traced.attempted
                failed += traced.failed
                traced_walls.append(wall)
                if _digest(traced.outputs) != _digest(rnd.outputs):
                    problems.append(f"round {index}: traced outputs differ")
                layers.append(layer_metrics(tracer.spans))
                spans.append([asdict(s) for s in tracer.spans])
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    rounds = len(walls)
    if args.trace:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            # counts come from round 0, whose inputs depend on the seed alone
            value = (layers[0][name] if unit in ("count", "ratio")
                     else statistics.median(row[name] for row in layers))
            metrics[name] = {"value": value, "unit": unit}
        # the bookkeeping of round 0's spans, measured per call on a no-op,
        # over the round's traced wall time; the two walls differ mostly by
        # noise and warm-up, since the traced run of a round comes second
        metrics["trace.overhead_share"] = {
            "value": len(spans[0]) * span_cost() / traced_walls[0],
            "unit": "ratio"}
        metrics["trace.spans"] = {"value": len(spans[0]), "unit": "count"}
        print(f"{'traced / untraced wall - 1':<36}"
              f"{sum(traced_walls) / sum(walls) - 1.0:>16.6g} ratio")
        RUNS.mkdir(exist_ok=True)
        out = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "rounds": spans}))
        print(f"spans of {rounds} traced rounds -> {out}")
    else:
        rss = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        # printed, not in the result: the README says why
        for step, secs in steps.items():
            print(f"{step:<36}{statistics.median(secs):>16.6g} s "
                  f"(median of {rounds} rounds)")
        print(f"{'peak_rss_mb':<36}{rss / 1024.0:>16.6g} MB")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{name:<36}{m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
