"""Command-line front end.

    cpa table1 [--json]
    cpa run <file> [--out path]
    cpa sweep --preset fig6|fig8|fig9a|fig9b [--grid N] --out path
    cpa sweep --custom <file> [--out path]

Exit codes: 0 success, 1 validation failure, 2 numerical failure
(cutoff/norm, a float out of range, or rounding), 3 regression mismatch in table1.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import results, scenario_io, sweeps, table1
from .fock import FockError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_REGRESSION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="cpa", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="run every headline scenario and report pass/fail")
    p_table.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_run = sub.add_parser("run", help="run one scenario file, emit JSON")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid, emit CSV")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sweeps.PRESETS)
    group.add_argument("--custom", metavar="FILE", help="scenario file with a sweep block")
    p_sweep.add_argument("--grid", type=int, default=sweeps.DEFAULT_GRID)
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    return parser


def _emit_json(payload: dict, out: str | None) -> None:
    text = results.clean(payload)  # FockError before anything is written
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1.run_table1()
    if args.json:
        _emit_json(table1.rows_to_dict(rows), None)
    else:
        print(table1.format_report(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_REGRESSION


def _cmd_run(args: argparse.Namespace) -> int:
    spec = scenario_io.load_scenario_file(args.file)
    if spec.sweep is not None:
        raise scenario_io.ScenarioFileError(
            "sweep", "this file declares a sweep; use `cpa sweep --custom`"
        )
    result = scenario_io.run_scenario_file(spec)
    _emit_json(result.to_dict(), args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset:
        if args.out is None:
            raise scenario_io.ScenarioFileError("--out", "preset sweeps need an output path")
        header, rows = sweeps.run_preset(args.preset, args.grid)
    else:
        spec = scenario_io.load_scenario_file(args.custom)
        header, rows = sweeps.sweep_custom(spec)
    if args.out is None:
        sys.stdout.write(sweeps.csv_text(header, rows))
    else:
        sweeps.write_csv(args.out, header, rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except scenario_io.ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FockError, OverflowError, FloatingPointError) as exc:  # cutoff, norm, range, rounding
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
