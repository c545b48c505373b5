"""Command-line entry point.

Three subcommands: ``verify-convergence`` (the randomized commutation
harness), ``run-scenario`` (seeded fleet simulations from a config file),
and ``report`` (merge run directories into plot-ready CSVs). Exit codes are
stable: 0 success, 1 a property violation was detected, 2 usage or config
errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .config import _MAX_FORAYS, _MAX_ROBOTS, ConfigError, load_scenario_config
from .integrity import monte_carlo_convergence
from .localiser import LocaliserConfig
from .merging import PURE_CHOICES, Choice, ChoicePolicy, Commutation, CommutationPolicy
from .reporting import read_report, write_convergence_report, write_report, write_run
from .sim import run_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# Bound on --mu and --sigma: patch sizes are drawn from N(mu, sigma) and built
# in memory, so --sigma 1e308 would loop until memory runs out; 1000 is 100x the default --mu.
_MAX_RATE = 1000.0


def _default_seed() -> int:
    env = os.environ.get("EXPMARKET_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise _usage_error(f"EXPMARKET_SEED: expected an integer, got {env!r}") from None


def _usage_error(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _out_dir(text: str) -> Path:
    """The ``--out`` directory, refused before any work is done when a
    non-directory stands at it or at the nearest of its parents that exists."""
    out = Path(text)
    try:
        existing = next(p for p in (out, *out.parents) if p.exists())
    except OSError as exc:  # e.g. a name too long for the file system
        raise _usage_error(f"cannot write --out {out}: {exc.strerror}") from None
    if not existing.is_dir():
        raise _usage_error(f"cannot write --out {out}: {existing} is not a directory")
    return out


def _cannot_write(out_dir: Path, exc: OSError) -> SystemExit:
    return _usage_error(f"cannot write {exc.filename or out_dir}: {exc.strerror}")


def _parse_rates(text: str, robots: int, flag: str) -> list[float]:
    parts = [p for p in text.split(",") if p]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise _usage_error(f"{flag}: expected a number or comma list") from None
    if not all(math.isfinite(v) for v in values):
        raise _usage_error(f"{flag}: values must be finite")
    if any(v > _MAX_RATE for v in values):
        raise _usage_error(f"{flag}: values must be at most {_MAX_RATE:g}")
    if len(values) == 1:
        return values * robots
    if len(values) != robots:
        raise _usage_error(f"{flag}: need 1 or {robots} values")
    return values


def cmd_verify_convergence(args) -> int:
    if not 2 <= args.robots <= _MAX_ROBOTS:
        raise _usage_error(f"--robots: need 2 to {_MAX_ROBOTS}")
    if not 1 <= args.forays <= _MAX_FORAYS:
        raise _usage_error(f"--forays: need 1 to {_MAX_FORAYS}")
    if args.trials < 1:
        raise _usage_error("--trials: must be >= 1")
    if not 0.0 <= args.overlap <= 1.0:
        raise _usage_error("--overlap: must lie in [0, 1]")
    if not (math.isfinite(args.tau_m) and args.tau_m > 0):
        raise _usage_error("--tau-m: must be finite and > 0")
    mu = _parse_rates(args.mu, args.robots, "--mu")
    sigma = _parse_rates(args.sigma, args.robots, "--sigma")
    if any(v < 0 for v in sigma):
        raise _usage_error("--sigma: must be >= 0")
    out_dir = _out_dir(args.out) if args.out else None
    choice_kind = Choice(args.gamma)
    import random as _random

    choice = ChoicePolicy(choice_kind,
                          rng=_random.Random(args.seed) if choice_kind is Choice.COIN else None)
    policy = CommutationPolicy(
        Commutation(args.policy), choice, LocaliserConfig(tau_m=args.tau_m),
        allow_asymmetric=choice_kind not in PURE_CHOICES,
    )
    report = monte_carlo_convergence(args.robots, args.forays, args.trials,
                                     mu, sigma, policy, seed=args.seed,
                                     overlap=args.overlap)
    if out_dir is not None:
        try:
            write_convergence_report(out_dir, report, args.seed)
        except OSError as exc:
            raise _cannot_write(out_dir, exc) from None
    print(f"R={report.R} K={report.K} M={report.M} policy={report.policy} "
          f"gamma={choice_kind.value} divergence_events={report.divergence_events}")
    return EXIT_OK if report.divergence_events == 0 else EXIT_VIOLATION


def cmd_run_scenario(args) -> int:
    if args.trials < 1 or args.jobs < 1:
        raise _usage_error("--trials and --jobs must be >= 1")
    config = load_scenario_config(args.config)
    out_dir = _out_dir(args.out)
    trials = run_scenario(config, args.seed, args.trials, jobs=args.jobs)
    try:
        write_run(out_dir, config.raw, args.seed, trials)
    except OSError as exc:
        raise _cannot_write(out_dir, exc) from None
    total = sum(t.total_dropout() for t in trials)
    print(f"{len(trials)} trial(s) -> {out_dir}  strategy={trials[0].strategy} "
          f"total_dropout={total:g} m")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dirs = [Path(args.input)] + [Path(p) for p in args.compare]
    for d in run_dirs:
        try:
            is_run = (d / "summary.json").exists()
        except OSError as exc:
            raise _usage_error(f"cannot read {d}: {exc.strerror}") from None
        if not is_run:
            print(f"error: {d} is not a run directory (no summary.json)",
                  file=sys.stderr)
            return EXIT_USAGE
    out_dir = _out_dir(args.out)
    try:
        tables = read_report(run_dirs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: malformed run data: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_report(out_dir, tables)
    except OSError as exc:
        raise _cannot_write(out_dir, exc) from None
    print(f"report -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmarket",
        description="Experience-map version control, data market, and fleet simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vc = sub.add_parser("verify-convergence",
                        help="randomized commutation verification")
    vc.add_argument("--robots", type=int, default=2)
    vc.add_argument("--forays", type=int, default=9)
    vc.add_argument("--trials", type=int, default=100)
    vc.add_argument("--mu", default="10", help="patch-size mean (scalar or comma list)")
    vc.add_argument("--sigma", default="2", help="patch-size stddev (scalar or comma list)")
    vc.add_argument("--policy", choices=[c.value for c in Commutation], default="union")
    vc.add_argument("--gamma", choices=[c.value for c in Choice], default="inliers",
                    help="choice policy for match merges (lhs/coin inject faults)")
    vc.add_argument("--overlap", type=float, default=0.0,
                    help="fraction of near-duplicate content across robots")
    vc.add_argument("--tau-m", type=float, default=0.12)
    vc.add_argument("--seed", type=int, default=_default_seed())
    vc.add_argument("--out", default=None, help="directory for report CSVs")
    vc.set_defaults(func=cmd_verify_convergence)

    rs = sub.add_parser("run-scenario", help="run a configured fleet scenario")
    rs.add_argument("--config", required=True)
    rs.add_argument("--seed", type=int, default=_default_seed())
    rs.add_argument("--trials", type=int, default=1)
    rs.add_argument("--jobs", type=int, default=1)
    rs.add_argument("--out", required=True)
    rs.set_defaults(func=cmd_run_scenario)

    rp = sub.add_parser("report", help="merge runs into plot-ready tables")
    rp.add_argument("--input", required=True)
    rp.add_argument("--compare", nargs="*", default=[])
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
