"""Command line front end.

Three subcommands:

* ``run``       execute a named scenario from a JSON config file;
* ``simulate``  sample one path (or field) and dump it to CSV / binary;
* ``analyze``   run the almost-periodicity diagnostics on an external
                series supplied as a CSV file.

Exit codes: 0 success, 2 configuration error (message names the offending
parameter), 3 resource cap exceeded, 4 check-mode expectation failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import __version__, diagnostics as dg, laws, scenarios, tree
from .errors import ConfigError, ResourceCapError
from .padic import PadicContext
from .tree import TreeSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_CHECK = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-sssi-lab",
        description="Simulation and almost-periodicity lab for p-adic self-similar processes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario described by a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config file")
    run.add_argument("--scenario", choices=scenarios.SCENARIOS, help="override the config's scenario")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--check", action="store_true", help="verify scenario expectations; exit 4 on failure")

    sim = sub.add_parser("simulate", help="sample a single path or field and write it out")
    sim.add_argument("--p", type=int, default=2, help="prime base (default 2)")
    sim.add_argument("--hurst", type=float, default=0.7, help="self-similarity exponent H > 0")
    sim.add_argument("--kmax", type=int, default=12, help="truncation level")
    sim.add_argument(
        "--law",
        default='{"variant": "gaussian", "sigma": 1.0}',
        help='increment law as JSON, e.g. {"variant": "pareto", "alpha": 1.5}',
    )
    sim.add_argument("--seed", type=int, default=20260816, help="master seed (64-bit)")
    sim.add_argument("--dim", type=int, default=1, help="index dimension (1 = path, >= 2 = field)")
    sim.add_argument("--horizon", type=int, default=1 << 12, help="points per axis")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--format", choices=("csv", "binary", "both"), default="both")

    an = sub.add_parser("analyze", help="almost-periodicity diagnostics for an external series")
    an.add_argument("--input", required=True, help="CSV file with a value column (optional index column)")
    an.add_argument("--p", type=int, default=2, help="prime base for the p-adic modulus")
    an.add_argument("--q", type=float, default=1.0, help="seminorm exponent q >= 1")
    an.add_argument("--tau-max", type=int, default=256, help="translation search bound")
    an.add_argument("--epsilon", type=float, action="append", help="Bohr tolerance (repeatable)")
    an.add_argument("--max-k", type=int, default=12, help="largest K for the modulus curve")
    an.add_argument("--tau", type=int, default=1, help="translate step for seminorm profiles")
    an.add_argument("--out", default="out", help="output directory")
    return parser


def _cmd_run(args) -> int:
    overrides = {"scenario": args.scenario, "seed": args.seed, "out_dir": args.out}
    cfg = scenarios.load_config(args.config, overrides)
    code, payload = scenarios.run_scenario(cfg, check=args.check)
    print(f"[{cfg.scenario}] wrote {FsPath(cfg.out_dir) / 'summary.json'}")
    for failure in payload["check_failures"]:
        print(f"[{cfg.scenario}] check failed: {failure}", file=sys.stderr)
    if args.check and not payload["check_failures"]:
        print(f"[{cfg.scenario}] all checks passed")
    return code


def _cmd_simulate(args) -> int:
    try:
        law = laws.law_from_dict(json.loads(args.law))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"law: {exc}") from None
    try:
        spec = TreeSpec(p=args.p, hurst=args.hurst, kmax=args.kmax, law=law, seed=args.seed, dim=args.dim)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    if args.horizon < 2:
        raise ConfigError(f"horizon must be at least 2, got {args.horizon}")
    # a request over the cap is refused before anything is drawn or written
    if spec.dim == 1:
        obj = tree.lazy_path(spec, args.horizon)
        stem = "path"
    else:
        obj = tree.field(spec, args.horizon - 1)
        stem = "field"
    outdir = FsPath(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("csv", "both"):
        target = outdir / f"{stem}.csv"
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            if spec.dim == 1:
                tree.write_path_csv(obj, fh)
            else:
                tree.write_field_csv(obj, fh)
        written.append(target)
    if args.format in ("binary", "both"):
        target = outdir / f"{stem}.pssi"
        with open(target, "wb") as fh:
            tree.write_binary(obj, fh)
        written.append(target)
    bound = tree.truncation_tail_bound(spec)
    print(f"[simulate] {stem} with {obj.values.size} values; truncation tail bound {bound!r}")
    for target in written:
        print(f"[simulate] wrote {target}")
    return EXIT_OK


def _read_series(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"input: cannot read {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"input: {path} is empty")
    start = 0
    first = lines[0].split(",")
    try:
        float(first[-1])
    except ValueError:
        start = 1  # header row
    values = []
    for ln in lines[start:]:
        try:
            value = float(ln.split(",")[-1])
        except ValueError:
            raise ConfigError(f"input: malformed row {ln!r} in {path}") from None
        if not math.isfinite(value):
            raise ConfigError(f"input: non-finite value in row {ln!r} of {path}")
        values.append(value)
    if len(values) < 2:
        raise ConfigError(f"input: {path} needs at least 2 values, got {len(values)}")
    values = np.asarray(values, dtype=np.float64)
    # every pairwise difference is finite exactly when the spread is
    if not math.isfinite(float(values.max()) - float(values.min())):
        raise ConfigError(f"input: the differences of the values in {path} overflow float64")
    return values


def _cmd_analyze(args) -> int:
    values = _read_series(args.input)
    try:
        ctx = PadicContext(args.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 1.0 <= args.q < math.inf:
        raise ConfigError(f"q must be a finite number >= 1, got {args.q}")
    horizon = values.size
    tau_max = min(args.tau_max, horizon - 1)
    if tau_max < 1:
        raise ConfigError(f"tau_max: series of length {horizon} admits no translations")
    if not 1 <= args.tau < horizon:
        raise ConfigError(f"tau must lie in 1..{horizon - 1}, got {args.tau}")
    epsilons = args.epsilon or [0.5]
    for eps in epsilons:
        if not 0 < eps < math.inf:
            raise ConfigError(f"epsilon must be a positive finite number, got {eps}")
    f = dg.SeriesView(values)
    u = dg.translate_diff(f, args.tau)
    grid = dg.dyadic_grid(u.horizon)
    wp = dg.weyl_profile(u, args.q, grid)
    bp = dg.besicovitch_profile(u, args.q, grid)
    ks = list(itertools.takewhile(lambda k: ctx.p ** k < horizon, range(args.max_k + 1)))
    omegas, errors = dg.modulus_curve(f, ctx, ks)
    dist = dg.translate_sup_profile(f, tau_max)
    reports = [dg.bohr_translation_set(f, eps, tau_max, distances=dist) for eps in epsilons]
    mgrid, mvals = dg.running_max(f)

    mod_rows = [(k, ctx.p ** k, om, err) for k, om, err in zip(ks, omegas, errors)]
    bohr_rows = [(eps, len(rep.taus), rep.max_gap) for eps, rep in zip(epsilons, reports)]
    prof_rows = [(args.tau, L, w, b) for L, w, b in zip(grid, wp.estimates, bp.estimates)]
    tables = {
        "modulus.csv": (["K", "p_pow_K", "omega", "limit_periodic_error"], mod_rows),
        "bohr.csv": (["epsilon", "accepted_count", "max_gap"], bohr_rows),
        "profiles.csv": (["tau", "L", "weyl", "besicovitch"], prof_rows),
        "running_max.csv": (["N", "running_max"], list(zip(mgrid, mvals))),
    }
    payload = {
        "version": __version__,
        "input": args.input,
        "horizon": horizon,
        "p": ctx.p,
        "q": args.q,
        "tau_max": tau_max,
        "sup_norm": dg.sup_norm(f),
        "moduli": {str(k): om for k, om in zip(ks, omegas)},
        "bohr": [rep.to_dict() for rep in reports],
        "weyl_headline": wp.headline,
        "besicovitch_headline": bp.headline,
    }
    scenarios.write_outputs(args.out, tables, "analysis.json", payload)
    print(f"[analyze] {horizon} values from {args.input}; wrote {FsPath(args.out) / 'analysis.json'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_analyze(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
