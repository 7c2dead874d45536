"""Command-line front end: simulate, curves, fit, envelope, study.

Every command is a pure function of (flags, config file, seed), and all
file outputs are byte-stable across repeated runs. Exit codes: 0 success,
2 unusable flags or input files, 3 model-constraint violations, 4 numeric
non-convergence (results are still written where they exist).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import (
    Extension,
    Family,
    ModelParams,
    centre_spectrum,
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
    Window,
    csv_text,
    read_json,
    write_json,
)
from .dpp import most_repulsive_intensity
from .envelope import StudyConfig, envelope_test, resume_study
from .fit import ContrastOptions, FitResult, min_contrast_fit
from .summaries import (
    STATISTICS,
    K_theoretical,
    pcf_crossover_radius,
    pcf_theoretical,
)


# ---------------------------------------------------------------------------
# flag value parsers


def _parse_window(text: str) -> Window:
    kind, _, rest = text.partition(":")
    try:
        vals = [float(v) for v in rest.split(",")] if rest else []
    except ValueError:
        vals = None
    if vals is not None:
        try:
            if kind == "rect" and len(vals) == 4:
                return Rect(*vals)
            if kind == "disc" and len(vals) == 3:
                return Disc(*vals)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"window must be rect:xmin,xmax,ymin,ymax or disc:cx,cy,r, "
        f"got {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be START:STOP:COUNT, got {text!r}") from None
    if count < 1 or not 0.0 <= start <= stop < math.inf:
        raise argparse.ArgumentTypeError(
            f"grid needs finite 0 <= START <= STOP and COUNT >= 1, got {text!r}")
    return np.linspace(start, stop, count)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None


def _parse_u64(text: str) -> int:
    """A ``--seed`` or ``--stream`` value: an integer in [0, 2^64)."""
    v = _parse_int(text)
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {v}")
    return v


def _parse_jobs(text: str) -> int:
    """A ``--jobs`` value: a positive integer."""
    v = _parse_int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


# ---------------------------------------------------------------------------
# shared pieces


def _build_model(args: argparse.Namespace) -> ModelParams:
    """Resolve the model flags into parameters.

    Two parametrizations: explicit --gamma/--rhoY (--beta for the DPP
    families), or intensity-driven --rhoX with --beta, which selects the
    most-repulsive centre intensity rho_Y = 1/(pi beta^2) and derives
    gamma = rhoX / rho_Y. Omitting --rhoY while giving --gamma and --beta
    also selects the most-repulsive intensity.
    """
    family = Family(args.model)
    if args.rhoX is not None:
        if args.gamma is not None or args.rhoY is not None:
            raise ParameterError(
                "--rhoX fixes gamma and rhoY; drop --gamma/--rhoY")
        if args.beta is None:
            raise ParameterError("--rhoX requires --beta")
        rho = most_repulsive_intensity(args.beta)
        return ModelParams.most_repulsive(
            family, gamma=args.rhoX / rho, alpha=args.alpha, beta=args.beta)
    if args.gamma is None:
        raise ParameterError(
            "need --gamma (with --rhoY or --beta), or --rhoX with --beta")
    if args.rhoY is None:
        if args.beta is None:
            raise ParameterError(
                "need --rhoY, or --beta for the most-repulsive intensity")
        return ModelParams.most_repulsive(
            family, gamma=args.gamma, alpha=args.alpha, beta=args.beta)
    return ModelParams(family=family, gamma=args.gamma, alpha=args.alpha,
                       rho_Y=args.rhoY, beta=args.beta)


def _format_params(m: ModelParams) -> str:
    parts = [f"family={m.family.value}", f"alpha={m.alpha:.17g}"]
    if m.beta is not None:
        parts.append(f"beta={m.beta:.17g}")
    parts += [f"rhoY={m.rho_Y:.17g}", f"gamma={m.gamma:.17g}",
              f"rhoX={m.rho_X:.17g}"]
    return " ".join(parts)


def _load_pattern(path: str, window: Window) -> PointPattern:
    try:
        return PointPattern.from_csv(path, window)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from None
    except ParameterError as exc:
        raise InputFileError(str(exc)) from None


def _load_fit(path: str, family: str | None) -> FitResult:
    d = read_json(path)
    if isinstance(d, dict) and "fits" in d:
        if family is None:
            raise InputFileError(
                f"{path} holds fits for {sorted(d['fits'])}; "
                f"pick one with --family")
        if family not in d["fits"]:
            raise InputFileError(f"{path} has no {family!r} fit")
        d = d["fits"][family]
    try:
        fit = FitResult.from_dict(d)
    except (KeyError, TypeError, ParameterError) as exc:
        raise InputFileError(f"{path}: not a fit result: {exc}") from None
    if family is not None and fit.family.value != family:
        raise InputFileError(f"{path} holds a {fit.family.value!r} fit, "
                             f"not the {family!r} fit --family asks for")
    return fit


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    m = _build_model(args)
    ext = Extension(args.ext) if args.ext is not None else None
    if args.dump_spectrum:
        spec = centre_spectrum(m, centre_window(m, args.window, ext))
        Path(args.dump_spectrum).write_text(
            csv_text("index,eigenvalue", enumerate(spec.eigenvalues)))
    pattern = sample_model(m, args.window, ext=ext,
                           rng=RngStream(args.seed, args.stream))
    if args.output:
        pattern.to_csv(args.output)
    if not args.quiet:
        print(f"n={pattern.n} {_format_params(m)}")
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    m = _build_model(args)
    if args.stat == "crossover":
        rstar = pcf_crossover_radius(m)
        if args.output:
            Path(args.output).write_text(csv_text("rstar", [[rstar]]))
        if not args.quiet:
            print(f"rstar={rstar:.17g}")
        return 0
    grid = args.r
    if args.stat == "pcf":
        values = pcf_theoretical(m, grid)
    elif args.stat == "K":
        values = K_theoretical(m, grid)
    else:
        values = K_theoretical(m, grid) - math.pi * grid ** 2
    text = csv_text("r,value", zip(grid, values))
    if args.output:
        Path(args.output).write_text(text)
        if not args.quiet:
            print(f"{args.stat}: {grid.size} rows -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _print_fit_table(fits: list[FitResult]) -> None:
    print(f"{'family':<22}{'alpha':>12}{'beta':>12}{'rhoY':>12}"
          f"{'gamma':>12}{'objective':>14}  converged")
    for f in fits:
        beta = f"{f.beta:.6g}" if f.beta is not None else "-"
        print(f"{f.family.value:<22}{f.alpha:>12.6g}{beta:>12}"
              f"{f.rho_Y:>12.6g}{f.gamma:>12.6g}{f.objective:>14.6g}"
              f"  {'yes' if f.converged else 'no'}")


def cmd_fit(args: argparse.Namespace) -> int:
    pattern = _load_pattern(args.data, args.window)
    overrides = {name: getattr(args, name)
                 for name in ("r_min", "r_max", "q", "p", "grid_size",
                              "max_iter")
                 if getattr(args, name) is not None}
    opts = ContrastOptions.for_window(args.window, **overrides)
    families = list(Family) if args.all_families else [Family(args.family)]
    fits = [min_contrast_fit(pattern, fam, options=opts) for fam in families]
    if args.output:
        if len(fits) == 1:
            payload = fits[0].to_dict()
        else:
            payload = {"n": pattern.n, "window_area": pattern.window.area,
                       "fits": {f.family.value: f.to_dict() for f in fits}}
        write_json(args.output, payload)
    if not args.quiet:
        _print_fit_table(fits)
    bad = [f for f in fits if not f.converged]
    for f in bad:
        print(f"warning: {f.family.value} fit did not converge",
              file=sys.stderr)
    return 4 if bad else 0


def _sidecar(output: str) -> Path:
    """The p-value JSON next to an envelope CSV, never clobbering it."""
    out = Path(output)
    return (out.with_suffix(".json") if out.suffix != ".json"
            else out.with_suffix(".meta.json"))


def cmd_envelope(args: argparse.Namespace) -> int:
    pattern = _load_pattern(args.data, args.window)
    fitted = _load_fit(args.fit, args.family)
    res = envelope_test(pattern, fitted, statistic=args.stat,
                        n_sim=args.n_sim,
                        rng=RngStream(args.seed, args.stream),
                        level=args.level, jobs=args.jobs)
    res.to_csv(args.output)
    write_json(_sidecar(args.output), res.meta())
    if not args.quiet:
        verdict = "rejected" if res.rejected else "not rejected"
        print(f"p={res.p_value:.17g} level={res.level:g} -> {verdict}")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    raw = read_json(args.config)
    if not isinstance(raw, dict):
        raise InputFileError(f"{args.config}: expected a JSON object")
    try:
        cfg = StudyConfig(**raw)
    except (TypeError, ParameterError) as exc:
        raise InputFileError(f"{args.config}: {exc}") from None
    if args.jobs is not None:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)

    res = resume_study(cfg, args.output)
    if not args.quiet:
        print(f"{res.rows} rows -> {Path(args.output)} "
              f"({res.cells_kept} cells already complete, {res.cells_run} "
              f"run); {res.errors} errors -> {res.errors_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true",
                       help="suppress informational output")

    rng = argparse.ArgumentParser(add_help=False)
    rng.add_argument("--seed", type=_parse_u64, default=0,
                     help="64-bit seed (default 0)")
    rng.add_argument("--stream", type=_parse_u64, default=0,
                     help="stream id for independent runs under one seed")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True,
                       choices=[f.value for f in Family])
    model.add_argument("--alpha", type=float, required=True,
                       help="offspring displacement sd")
    model.add_argument("--gamma", type=float,
                       help="mean offspring per cluster")
    model.add_argument("--rhoY", type=float, help="centre intensity")
    model.add_argument("--beta", type=float, help="DPP kernel scale")
    model.add_argument("--rhoX", type=float,
                       help="point intensity; with --beta picks the "
                            "most-repulsive centre intensity 1/(pi beta^2)")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="pattern CSV (x,y)")
    data.add_argument("--window", type=_parse_window, required=True,
                      help="rect:xmin,xmax,ymin,ymax or disc:cx,cy,r")

    parser = argparse.ArgumentParser(
        prog="dsncp",
        description="Determinantal shot noise Cox processes: simulation, "
                    "summary curves, fitting, and goodness-of-fit tests.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[model, rng, quiet],
                       help="draw one pattern and write it as CSV")
    p.add_argument("--window", type=_parse_window, required=True,
                   help="rect:xmin,xmax,ymin,ymax or disc:cx,cy,r")
    p.add_argument("--ext", type=float,
                   help="centre-sampling margin (default 4*alpha)")
    p.add_argument("--dump-spectrum", metavar="FILE",
                   help="also write the DPP eigenvalues as index,eigenvalue "
                        "CSV")
    p.add_argument("-o", "--output", help="pattern CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curves", parents=[model, quiet],
                       help="tabulate theoretical summary curves")
    p.add_argument("--stat", required=True,
                   choices=["pcf", "K", "Kcentered", "crossover"])
    p.add_argument("--r", type=_parse_grid, default=_parse_grid("0:8:401"),
                   help="grid as START:STOP:COUNT (default 0:8:401)")
    p.add_argument("-o", "--output",
                   help="curve CSV path (default: stdout)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("fit", parents=[data, quiet],
                       help="minimum-contrast fit of one or all families")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--family", choices=[f.value for f in Family])
    g.add_argument("--all-families", action="store_true")
    p.add_argument("--r-min", dest="r_min", type=float,
                   help="contrast range start (default 0)")
    p.add_argument("--r-max", dest="r_max", type=float,
                   help="contrast range end (default short side / 4)")
    p.add_argument("--q", type=float, help="contrast exponent (default 0.25)")
    p.add_argument("--p", type=float, help="contrast power (default 2)")
    p.add_argument("--grid-size", dest="grid_size", type=int,
                   help="contrast grid size (default 513)")
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   help="optimizer iteration cap (default 600)")
    p.add_argument("-o", "--output", help="fit JSON path")
    p.set_defaults(func=cmd_fit, all_families=False, family=None)

    p = sub.add_parser("envelope", parents=[data, rng, quiet],
                       help="global envelope test of a fitted model")
    p.add_argument("--fit", required=True, help="fit JSON from the fit "
                                                "command")
    p.add_argument("--family", choices=[f.value for f in Family],
                   help="select one fit from an --all-families JSON")
    p.add_argument("--stat", default="J", choices=list(STATISTICS))
    p.add_argument("--n-sim", dest="n_sim", type=int, required=True,
                   help="simulations (199 fast, 2499 recommended)")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--jobs", type=_parse_jobs, default=1,
                   help="parallel workers for the simulations")
    p.add_argument("-o", "--output", required=True,
                   help="envelope CSV path; p-value JSON lands beside it")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("study", parents=[quiet],
                       help="misspecification rejection-rate study")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--jobs", type=_parse_jobs,
                   help="override the config's worker count")
    p.add_argument("-o", "--output", required=True,
                   help="study CSV path; existing complete cells are kept "
                        "and skipped")
    p.set_defaults(func=cmd_study)

    return parser


def _check_writable(args: argparse.Namespace) -> None:
    """Refuse an output path that is a directory or whose directory is
    missing or not writable, so that no work is done for a result that
    cannot be written. A study reads its CSV first, and says so when that
    is a directory."""
    paths = [getattr(args, "output", None),
             getattr(args, "dump_spectrum", None)]
    if args.func is cmd_envelope:
        paths.append(_sidecar(args.output))
    for path in filter(None, paths):
        parent = Path(path).parent
        if not parent.is_dir():
            raise InputFileError(f"cannot write {path}: no directory {parent}")
        if not os.access(parent, os.W_OK):
            raise InputFileError(f"cannot write {path}: directory {parent} is "
                                 f"not writable")
        if Path(path).is_dir() and args.func is not cmd_study:
            raise InputFileError(f"cannot write {path}: is a directory")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_writable(args)
        return args.func(args)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # every read wraps its OSError in InputFileError, so one that names
        # a file comes from a write
        if exc.filename is None:
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
