"""Command-line entry points.

Verbs: ``frame gen|check``, ``bounds``, ``crlb``, ``recon``, ``sweep``,
``report``.  ``-v`` prints the library's DEBUG log records to stderr.  Exit
codes: 0 success, 2 config error, 3 component failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import sys

from .errors import BudgetExceeded, ConfigError, FramePRError
from .frames import is_full_spark, save_frame
from .harness import (
    Report,
    build_frame,
    dump_json,
    load_report,
    run_experiment,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPONENT = 3
EXIT_BUDGET = 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it
    unchanged, so every ``main`` call parses from the same defaults."""
    p = argparse.ArgumentParser(prog="framepr", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print the library's DEBUG log records to stderr")
    sub = p.add_subparsers(dest="verb", required=True)

    frame = sub.add_parser("frame", help="generate or check measurement frames")
    frame_sub = frame.add_subparsers(dest="frame_verb", required=True)

    gen = frame_sub.add_parser("gen", help="draw a seeded random frame")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--ensemble", default="gaussian")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    check = frame_sub.add_parser("check", help="validate and certify a frame file")
    check.add_argument("path")
    check.add_argument("--full-spark", action="store_true")
    check.add_argument("--certify", action="store_true",
                       help="run the retrievability decision procedure")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--budget", type=int)
    check.add_argument("--out", default=None, help="write the certificate JSON here")

    bounds = sub.add_parser("bounds", help="stability bounds for a frame")
    bounds.add_argument("path")
    bounds.add_argument("--samples", type=int)
    bounds.add_argument("--starts", type=int)
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument("--out", default=None)

    for verb, help_text in (
        ("crlb", "trace-CRLB reference curve against estimator MSE"),
        ("recon", "reconstruction benchmark over seeded trials"),
        ("sweep", "reconstruction benchmark over a noise grid"),
    ):
        q = sub.add_parser(verb, help=help_text)
        q.add_argument("--config", required=True)
        q.add_argument("--trials", type=int, default=None)
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--out", default=None)
        q.add_argument("--csv", default=None)

    rep = sub.add_parser("report", help="recompute, verify, and export a report")
    rep.add_argument("path")
    rep.add_argument("--csv", default=None)
    rep.add_argument("--digest", action="store_true")
    return p


def _emit(payload: dict, out: str | None) -> None:
    text = dump_json(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _given(**options) -> dict:
    """The task options given on the command line; the others take the library's defaults."""
    return {key: value for key, value in options.items() if value is not None}


def _cmd_frame(args) -> int:
    if args.frame_verb == "gen":
        frame = build_frame({"ensemble": args.ensemble, "n": args.n, "m": args.m, "seed": args.seed})
        save_frame(frame, args.out)
        print(f"wrote {args.ensemble} frame n={args.n} m={args.m} seed={args.seed} to {args.out}")
        return EXIT_OK
    frame = build_frame({"file": args.path})
    payload = {"n": frame.n, "m": frame.m, "field": frame.field, "valid": True}
    if args.certify:
        config = {"task": "certify", "frame": {"file": args.path}, "seed": args.seed,
                  "options": _given(budget=args.budget)}
        payload["certificate"] = run_experiment(config).result
    if args.full_spark:
        payload["full_spark"] = is_full_spark(frame)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    config = {"task": "bounds", "frame": {"file": args.path}, "seed": args.seed,
              "options": _given(samples=args.samples, n_starts=args.starts)}
    _emit(run_experiment(config).to_dict(), args.out)
    return EXIT_OK


def _cmd_task(args, task: str) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    config["task"] = task
    if args.trials is not None:
        config["trials"] = args.trials
    if args.seed is not None:
        config["seed"] = args.seed
    report = run_experiment(config)
    _emit(report.to_dict(), args.out)
    if args.out:
        print(f"report written to {args.out}")
    if args.csv:
        _write_table(report, args.csv)
    return EXIT_OK


def _write_table(report: Report, path: str) -> None:
    """The report's tables as CSV, or one row per aggregate group when it has none."""
    rows = report.tables or [{"group": key, **entry} for key, entry in sorted(report.aggregates.items())]
    write_csv(rows, path)
    print(f"table written to {path}")


def _cmd_report(args) -> int:
    report = load_report(args.path)
    if report.records:
        if not report.aggregates_match():
            print("aggregates do not match their records", file=sys.stderr)
            return EXIT_COMPONENT
        print(f"aggregates verified over {len(report.records)} records")
    if args.digest:
        print(report.deterministic_digest())
    if args.csv:
        _write_table(report, args.csv)
    return EXIT_OK


@contextlib.contextmanager
def _debug_log_to_stderr():
    """Print the "framepr" logger's records, DEBUG and up, to stderr inside the block."""
    logger = logging.getLogger("framepr")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with _debug_log_to_stderr() if args.verbose else contextlib.nullcontext():
        try:
            if args.verb == "frame":
                return _cmd_frame(args)
            if args.verb == "bounds":
                return _cmd_bounds(args)
            if args.verb == "report":
                return _cmd_report(args)
            return _cmd_task(args, "reconstruct" if args.verb == "recon" else args.verb)
        except (ConfigError, OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except BudgetExceeded as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except FramePRError as exc:
            print(f"component failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_COMPONENT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
