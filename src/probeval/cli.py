"""Command-line front end: score, leaderboard, synth, validate.

Exit status 0 on success, 1 on input errors, 2 on computation errors.
The leaderboard and synth commands require an explicit --seed so every
emitted file is exactly re-derivable from its inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings
from dataclasses import replace

from . import io, ranking, scoring, synth
from .errors import (
    DroppedDatasetWarning,
    InvalidScenarioError,
    ProbevalError,
    RecordParseError,
    UnknownMetricError,
)

# Every malformed-record error is a RecordParseError and names its line.
_INPUT_ERRORS = (
    RecordParseError,
    UnknownMetricError,
    InvalidScenarioError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_cli_metrics(names: list[str], args) -> list[scoring.MetricSpec]:
    specs = []
    for name in names:
        # A bare family name whose parameter is a flag (--alpha, --beta) reads it.
        family = scoring.FAMILIES.get(name)
        if family is not None and hasattr(args, family.param):
            value = getattr(args, family.param)
            if value is None:
                raise UnknownMetricError(f"bare {name!r} needs --{family.param}")
            specs.append(scoring.family_spec(name, value))
        else:
            spec = scoring.resolve_metric(name)
            if spec.weight_kind is not None and args.weight_ref is not None:
                spec = replace(
                    spec, weight_loc=args.weight_ref[0], weight_scale=args.weight_ref[1]
                )
            specs.append(spec)
    return specs


@contextlib.contextmanager
def _notes():
    """Capture warnings and print each as a ``note:`` line on the way out, error or not."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield caught
        finally:
            for w in caught:
                print(f"note: {w.message}", file=sys.stderr)


def cmd_score(args) -> int:
    with _notes():
        records = io.read_forecasts(args.forecasts)
        names = [n.strip() for n in args.metrics.split(",") if n.strip()]
        if not names:
            raise UnknownMetricError("no metrics requested")
        specs = _resolve_cli_metrics(names, args)
        results = scoring.score_batch(records, specs)
    io.write_scores(records, results, args.out)
    print(f"{len(records)} record(s) scored, {len(results)} metric column(s) -> {args.out}")
    for name, result in results.items():
        print(f"  {name}: {result.mean:.6g}")
    return 0


def cmd_leaderboard(args) -> int:
    records = io.read_runs(args.runs)
    with _notes() as caught:
        rows = ranking.build_leaderboard(records, args.metric, nsim=args.nsim, seed=args.seed)
    dropped = [w for w in caught if issubclass(w.category, DroppedDatasetWarning)]
    print(f"{len(dropped)} dataset(s) dropped; {len(rows)} model(s) ranked", file=sys.stderr)
    io.write_leaderboard(rows, args.out, wide=args.wide)
    print(f"leaderboard for {args.metric} -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    if args.scenario == "self_calibrated":
        records = synth.self_calibrated_records(args.instances, args.seed)
        io.write_forecasts(records, args.out)
        print(f"{len(records)} forecast record(s) -> {args.out}")
    else:
        spec = synth.ScenarioSpec(
            kind=args.scenario,
            models=args.models,
            datasets=args.datasets,
            folds=args.folds,
            seed=args.seed,
            metric=args.metric,
        )
        runs = synth.generate_runs(spec)
        io.write_runs(runs, args.out)
        print(f"{len(runs)} run record(s) -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    if args.forecasts:
        n, repaired, violations = io.validate_forecast_file(args.forecasts)
        summary = f"{n} record(s), {repaired} quantile record(s) repaired"
    else:
        n, violations = io.validate_run_file(args.runs)
        summary = f"{n} row(s)"
    for v in violations:
        print(f"line {v.line}: {v.message}")
    print(f"{summary}, {len(violations)} violations")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probeval",
        description="Score probabilistic regression forecasts and rank models with permutation tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("score", help="score a forecast record file")
    sp.add_argument("--forecasts", required=True, help="newline-delimited forecast records")
    sp.add_argument("--metrics", required=True, help="comma-separated metric identifiers")
    sp.add_argument("--out", required=True, help="per-instance score table (CSV)")
    sp.add_argument("--alpha", type=float, help="interval mass for the bare 'interval_score' name")
    sp.add_argument("--beta", type=float, help="exponent for the bare 'energy_score' name")
    sp.add_argument(
        "--weight-ref",
        nargs=2,
        type=float,
        metavar=("LOC", "SCALE"),
        help="wCRPS weight reference (default: batch target mean/std)",
    )
    sp.set_defaults(func=cmd_score)

    lp = sub.add_parser("leaderboard", help="rank models from a run-record table")
    lp.add_argument("--runs", required=True, help="run-record CSV")
    lp.add_argument("--metric", required=True, help="metric identifier to rank on")
    lp.add_argument(
        "--nsim", type=_positive_int, default=ranking.DEFAULT_NSIM, help="null simulations"
    )
    lp.add_argument("--seed", type=int, required=True, help="seed for the permutation null")
    lp.add_argument("--out", required=True, help="leaderboard CSV")
    lp.add_argument("--wide", action="store_true", help="append full-precision columns")
    lp.set_defaults(func=cmd_leaderboard)

    yp = sub.add_parser("synth", help="generate a synthetic scenario file")
    yp.add_argument("--scenario", required=True, choices=synth.KINDS)
    yp.add_argument("--models", type=int, default=2)
    yp.add_argument("--datasets", type=int, default=20)
    yp.add_argument("--folds", type=int, default=5)
    yp.add_argument("--seed", type=int, required=True)
    yp.add_argument("--metric", default="crps", help="metric identifier on emitted run records")
    yp.add_argument("--instances", type=int, default=1000, help="records for self_calibrated")
    yp.add_argument("--out", required=True)
    yp.set_defaults(func=cmd_synth)

    vp = sub.add_parser("validate", help="check a file against its format invariants")
    group = vp.add_mutually_exclusive_group(required=True)
    group.add_argument("--forecasts", help="forecast record file to validate")
    group.add_argument("--runs", help="run-record CSV to validate")
    vp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on its own; remap usage errors to input-error status
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (*_INPUT_ERRORS, ProbevalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _INPUT_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
