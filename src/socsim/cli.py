"""Command line front end.

Exit codes: 0 success, 1 runtime error inside the model, 2 bad
configuration, trace or command line (every problem, an unreadable or
non-UTF-8 file among them, goes to stderr with its location), 3 a
requested check failed.
"""

from __future__ import annotations

import argparse
import sys

from .config import INT_KEYS, load_config, out_of_bounds
from .errors import ConfigError, SimulationError, shown_path
from .report import build_report, write_outputs
from .system import build
from .verify import run_checks
from .workload import lint_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CHECK = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socsim",
        description="Deterministic multicore SoC contention simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a platform and write reports")
    run_p.add_argument("--config", required=True, help="YAML platform config")
    run_p.add_argument("--seed", type=int, help="override sim.seed")
    run_p.add_argument("--cycles", type=int, help="override sim.cycles")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report file format")
    run_p.add_argument("--check", action="store_true",
                       help="run the schedule verdicts, exit 3 on failure")
    run_p.add_argument("--log-events", action="store_true",
                       help="also write events.log")

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True)

    lint_p = sub.add_parser("trace-lint", help="check a trace file")
    lint_p.add_argument("path")
    return parser


def _cmd_run(args) -> int:
    # the overrides obey the bounds of the keys they override
    for flag, key, value in (("--seed", "seed", args.seed),
                             ("--cycles", "cycles", args.cycles)):
        _, minimum, maximum = INT_KEYS["sim", key]
        wrong = value is not None and out_of_bounds(value, minimum, maximum)
        if wrong:
            raise ConfigError(f"{flag}: {wrong}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.cycles is not None:
        cfg.cycles = args.cycles
    try:
        system = build(cfg)
        system.run()
        verdicts = run_checks(system) if args.check else None
        rep = build_report(system, verdicts)
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        written = write_outputs(system, rep, args.out, fmt=args.format,
                                log_events=args.log_events)
    except OSError as exc:
        raise ConfigError(
            f"--out: cannot write {shown_path(args.out)}: {exc}") from exc
    for path in written:
        print(f"wrote {path}")
    if verdicts is not None:
        for name in ("starvation", "deadline", "priority_inversion", "quota"):
            verdict = verdicts[name]
            state = "pass" if verdict["pass"] else "FAIL"
            print(f"check {name}: {state}")
            for violation in verdict.get("violations", []):
                print(f"  {violation}")
        if not verdicts["pass"]:
            return EXIT_CHECK
    return EXIT_OK


def _cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


def _cmd_trace_lint(args) -> int:
    shown = shown_path(args.path)
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {shown}: {exc}") from exc
    problems = lint_trace(text, source=shown)
    if problems:
        raise ConfigError(problems)
    print(f"{args.path}: ok")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "validate": _cmd_validate,
               "trace-lint": _cmd_trace_lint}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(problem, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
