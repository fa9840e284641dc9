#!/usr/bin/env python3
"""Record the output contract of `cpa` in-process, or compare two records.

    PYTHONPATH=src python scripts/output_contract.py [--grid N...] [--out FILE]
        [--workload NAME]... [--seed N]... [--hashed] PATH...
    python scripts/output_contract.py --compare A B

The first form calls `cpa_sim.cli.main` on `run FILE` for every scenario file
given, then on `table1`, `table1 --json` and the four sweep presets at each
`--grid` value (default 101; `--grid 9 11 18 101` covers the benchmark's grids
and the figures'), each line's argv naming its grid, then on `sweep --custom
FILE` for each sweep file in `tests/sweeps` (named relative to the repository
root, where the record is made), and last on USAGE_ERRORS, argv lists that the
parser refuses (exit 1, usage on stderr).  A directory stands for
its `*.json` files, sorted, other than expected outputs named `*.out.json`.
Each `--workload` (fock_large or scenario_mix) at each `--seed` (default 1)
adds the `run` files the benchmark generates for it, in op order:
`cpabench/workloads.py` writes them to a temporary directory, which the record
names `<NAME-seedN>`, so no benchmark run is needed first and two records of
the same inputs compare equal.  It writes one JSON line per command: argv,
exit code, the sha256 of stdout, the text of the CSV a preset writes, stderr,
and for `run` the stdout itself; `--hashed` keeps only the sha256 of each
stdout and CSV (`csv_sha256`).  Whichever `cpa_sim` is importable is recorded,
so pointing PYTHONPATH at another checkout's `src` records that one.

`--compare A B` prints the argv of every command whose lines differ, or that
only one record has (`<no arguments>` for the empty argv), and exits 1 when
there is any.  It first prints one
`exit OLD -> NEW: N command(s)` line per move of exit code, with how many
commands make it (`<absent>` for a command one record lacks), then the
commands one by one.  Under each argv it names
what moved, one `  PATH: OLD -> NEW` line each: `exit`, `stderr`, and every
value of the `run` JSON whose token differs, by its path
(`separability.env_entanglement_entropy`, `conditional_outputs[1].purity`;
`<absent>` where a key exists on one side), and every CSV cell that differs
as `row R, COLUMN: OLD -> NEW`, R counting data rows from 1 (`row R: <absent>
-> LINE` where a row exists on one side, `header: OLD -> NEW` where the
header lines differ).  A hashed line, or one of a record written before the
CSV text was kept, holds only the sha256 of a stream; the other side compares
with it by sha256, and a moved stream is named by its `stdout_sha256` or
`csv_sha256` alone.  It ends with one `PATH: N value(s), largest move X` line
per path of the `run` JSON that moved in any command: how many values moved
there and the largest absolute move (`-` where no moved pair is two numbers).

Good inputs are `tests/golden`, `tests/hostile` (whose exit codes and stderr
the record pins) and the benchmark's workloads, e.g.
`--workload fock_large --workload scenario_mix --seed 1 tests/golden tests/hostile`.

`tests/output_contract.jsonl` is the hashed record of that corpus at
`--grid 9`; tests/test_output_contract.py records the corpus again and names
each command that moved.  A change that moves outputs on purpose records it
again, with one BLAS thread, as the benchmark runs:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python scripts/output_contract.py --hashed --grid 9 --workload fock_large \\
        --workload scenario_mix --seed 1 --out tests/output_contract.jsonl \\
        tests/golden tests/hostile
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import sys
import tempfile
from typing import Sequence
from unittest import mock

CSV = "<csv>"  # stands for the preset's output path, which differs per run
WORKLOAD = re.compile(r"<(\w+)-seed(\d+)>/")  # stands for a workload's input directory
WORKLOADS = ("fock_large", "scenario_mix")  # gauss_sweep runs only the presets
ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEPS = "tests/sweeps"  # checked-in `sweep --custom` files, relative to ROOT
# no command, `run` without a file, `sweep` with neither --preset nor --custom,
# and a --grid that is not an integer
USAGE_ERRORS = ([], ["run"], ["sweep"], ["sweep", "--preset", "fig6", "--grid", "nine"])


def _generate(workload: str, seed: int, work: str) -> list[str]:
    """Write the benchmark's input files of `workload` at `seed` under `work`;
    the files its `run` ops read, in op order."""
    workloads = sys.modules.get("cpabench_workloads")
    if workloads is None:  # registered first: its dataclasses look their module up
        spec = importlib.util.spec_from_file_location(
            "cpabench_workloads", ROOT / "cpabench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    cycles = workloads.generate(workload, seed, work)
    return [op.argv[1] for cycle in cycles for op in cycle if op.argv[0] == "run"]


def commands(paths: list[str], grid: int | Sequence[int],
             workloads: list[tuple[str, int]] = ()) -> list[list[str]]:
    """argv of every command in the contract, the presets at each grid, the
    custom sweeps and the usage errors; CSV marks a sweep's --out and
    `<NAME-seedN>/` the directory a workload's inputs are written to."""
    files: list[str] = []
    for path in map(pathlib.Path, paths):
        if path.is_dir():
            files += [str(f) for f in sorted(path.glob("*.json")) if not f.name.endswith(".out.json")]
        else:
            files.append(str(path))
    for workload, seed in workloads:
        with tempfile.TemporaryDirectory() as tmp:
            files += [f"<{workload}-seed{seed}>/{pathlib.Path(f).name}"
                      for f in _generate(workload, seed, tmp)]
    presets = [["sweep", "--preset", p, "--grid", str(g), "--out", CSV]
               for g in ([grid] if isinstance(grid, int) else grid)
               for p in ("fig6", "fig8", "fig9a", "fig9b")]
    custom = [["sweep", "--custom", f"{SWEEPS}/{f.name}", "--out", CSV]
              for f in sorted((ROOT / SWEEPS).glob("*.json"))]
    return ([["run", f] for f in files] + [["table1"], ["table1", "--json"]] + presets + custom
            + [list(argv) for argv in USAGE_ERRORS])


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def record(argvs: list[list[str]]) -> list[dict]:
    """One line per argv: exit code, sha256 of stdout, any CSV, stderr."""
    from cpa_sim import cli

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = pathlib.Path(tmp, "out.csv")
        work: dict[str, pathlib.Path] = {}  # a workload's stand-in -> its input directory
        for stand_in in sorted({m.group(0) for argv in argvs for a in argv
                                if (m := WORKLOAD.match(a))}):
            name, seed = WORKLOAD.match(stand_in).groups()
            work[stand_in] = pathlib.Path(tmp, f"{name}-seed{seed}")
            _generate(name, int(seed), str(work[stand_in]))

        def resolve(arg: str) -> str:
            if arg == CSV:
                return str(csv_path)
            if arg.startswith(SWEEPS + "/"):
                return str(ROOT / arg)
            match = WORKLOAD.match(arg)
            return str(work[match.group(0)] / "inputs" / arg[match.end():]) if match else arg

        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            # argparse wraps a usage message at the terminal's width: pinned, so
            # that a usage error's stderr reads the same in every terminal
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch.dict(os.environ, COLUMNS="80"):
                code = cli.main([resolve(a) for a in argv])
            line = {"argv": argv, "exit": code, "stdout_sha256": _sha256(out.getvalue())}
            if CSV in argv:
                text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
                line["csv"] = text
                csv_path.unlink(missing_ok=True)
            line["stderr"] = err.getvalue()
            if argv[:1] == ["run"]:
                line["stdout"] = out.getvalue()
            lines.append(line)
    return lines


def _hashed(line: dict | None) -> dict | None:
    """A line with its stdout text dropped (its `stdout_sha256` stays) and its
    CSV text, if any, replaced by the text's `csv_sha256`: the form of a
    `--hashed` record, and of records written before the CSV text was kept."""
    if line is None:
        return line
    hashed = {k: v for k, v in line.items() if k not in ("stdout", "csv")}
    return hashed if "csv" not in line else {**hashed, "csv_sha256": _sha256(line["csv"])}


def differing(a: list[dict], b: list[dict]) -> list[list[str]]:
    """argv of the commands whose lines differ or appear in one record only."""
    by_argv = [{json.dumps(line["argv"]): _hashed(line) for line in lines} for lines in (a, b)]
    keys = list(by_argv[0]) + [k for k in by_argv[1] if k not in by_argv[0]]
    return [json.loads(k) for k in keys if by_argv[0].get(k) != by_argv[1].get(k)]


ABSENT = "<absent>"


def _leaves(obj, path: str = "") -> dict[str, str]:
    """Every scalar of a parsed JSON document by its path, as its JSON token."""
    if isinstance(obj, dict):
        pairs = [(f"{path}.{key}" if path else key, value) for key, value in obj.items()]
    elif isinstance(obj, list):
        pairs = [(f"{path}[{i}]", value) for i, value in enumerate(obj)]
    else:
        return {path: json.dumps(obj)}
    return {p: token for key, value in pairs for p, token in _leaves(value, key).items()}


def _cells(old: str, new: str) -> list[tuple[str, str, str]]:
    """(`row R, COLUMN`, old, new) of each cell that differs between two CSV
    texts, R counting data rows from 1; a row on one side only, or with another
    number of cells, is one `row R` entry."""
    old_rows, new_rows = ([line.split(",") for line in text.splitlines()] or [[]]
                          for text in (old, new))
    header = old_rows[0] or new_rows[0]
    out = [] if old_rows[0] == new_rows[0] else [
        ("header", ",".join(old_rows[0]), ",".join(new_rows[0]))]
    for r in range(1, max(len(old_rows), len(new_rows))):
        cells = [rows[r] if r < len(rows) else None for rows in (old_rows, new_rows)]
        if None in cells or len(cells[0]) != len(cells[1]):
            out.append((f"row {r}", *(ABSENT if c is None else ",".join(c) for c in cells)))
        else:
            out += [(f"row {r}, {column}", cell_old, cell_new)
                    for column, cell_old, cell_new in zip(header, *cells) if cell_old != cell_new]
    return out


def moved(a: dict | None, b: dict | None) -> list[tuple[str, str, str]]:
    """(path, old, new) of what differs between two lines of one command: exit,
    stderr, each cell of a preset's CSV and each value of a `run`'s JSON stdout;
    `stdout` itself when the texts differ in nothing else, and `stdout_sha256`
    when a side holds no text."""
    a, b = a or {}, b or {}
    out = [(key, json.dumps(a.get(key)) if key in a else ABSENT,
            json.dumps(b.get(key)) if key in b else ABSENT)
           for key in ("exit", "stderr") if a.get(key) != b.get(key)]
    if "csv" in a and "csv" in b:
        out += _cells(a["csv"], b["csv"])
    elif _hashed(a).get("csv_sha256") != _hashed(b).get("csv_sha256"):
        out += [("csv_sha256", *(json.dumps(_hashed(line)["csv_sha256"])
                                 if "csv" in line or "csv_sha256" in line else ABSENT
                                 for line in (a, b)))]
    if a and b and not ("stdout" in a and "stdout" in b):  # a side holds the sha256 alone
        old, new = a["stdout_sha256"], b["stdout_sha256"]
        return out + ([] if old == new else [("stdout_sha256", json.dumps(old), json.dumps(new))])
    if a.get("stdout") == b.get("stdout"):
        return out
    return out + (_values(a, b) or [("stdout", "<text>", "<text>")])


def _values(a: dict, b: dict) -> list[tuple[str, str, str]]:
    """(path, old, new) of each value whose token differs between the `run`
    JSON stdouts of two lines; none when a side holds no JSON."""
    try:
        old, new = (_leaves(json.loads(line.get("stdout", "{}"))) for line in (a, b))
    except json.JSONDecodeError:
        return []
    paths = list(old) + [p for p in new if p not in old]
    return [(p, old.get(p, ABSENT), new.get(p, ABSENT)) for p in paths if old.get(p) != new.get(p)]


def _as_float(token: str) -> float | None:
    """The number a JSON token holds; None for a string, bool, null or <absent>."""
    value = None if token == ABSENT else json.loads(token)
    return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def exit_moves(a: list[dict], b: list[dict]) -> list[str]:
    """One `exit OLD -> NEW: N command(s)` line per move of exit code between two
    records, in the order the moved commands first appear."""
    exits = [{json.dumps(line["argv"]): line["exit"] for line in lines} for lines in (a, b)]
    moves = collections.Counter(tuple(side.get(json.dumps(argv), ABSENT) for side in exits)
                                for argv in differing(a, b))
    return [f"exit {old} -> {new}: {count} command(s)" for (old, new), count in moves.items()
            if old != new]


def report(a: list[dict], b: list[dict]) -> list[str]:
    """The argv of each command that differs between two records, each followed
    by one `  PATH: OLD -> NEW` line per moved value (moved)."""
    by_argv = [{json.dumps(line["argv"]): line for line in lines} for lines in (a, b)]
    out = []
    for argv in differing(a, b):
        key = json.dumps(argv)
        out.append(" ".join(argv) or "<no arguments>")
        out += [f"  {path}: {old} -> {new}"
                for path, old, new in moved(by_argv[0].get(key), by_argv[1].get(key))]
    return out


def value_moves(a: list[dict], b: list[dict]) -> list[str]:
    """One `PATH: N value(s), largest move X` line per path of a `run`'s JSON
    whose value moved in any command, in the order the paths first appear: N
    counts the moved values, X is the largest |new - old| over those that are
    numbers on both sides (`-` when none is)."""
    by_argv = [{json.dumps(line["argv"]): line for line in lines} for lines in (a, b)]
    moves: dict[str, list[float | None]] = {}
    for key in map(json.dumps, differing(a, b)):
        old, new = (side.get(key) or {} for side in by_argv)
        if "stdout" in old and "stdout" in new:
            for path, *tokens in _values(old, new):
                x, y = map(_as_float, tokens)
                moves.setdefault(path, []).append(None if None in (x, y) else abs(y - x))
    out = []
    for path, sizes in moves.items():
        numeric = [size for size in sizes if size is not None]
        largest = f"{max(numeric):.3g}" if numeric else "-"
        out.append(f"{path}: {len(sizes)} value(s), largest move {largest}")
    return out


def _read(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="scenario files or directories")
    parser.add_argument("--grid", type=int, nargs="+", default=[101],
                        help="preset grids (one or more; default 101)")
    parser.add_argument("--out", default=None, help="write the record here, not to stdout")
    parser.add_argument("--workload", action="append", default=[], choices=WORKLOADS,
                        help="add the run files the benchmark generates for this workload")
    parser.add_argument("--seed", action="append", type=int, default=[],
                        help="workload seed (repeatable; default 1)")
    parser.add_argument("--hashed", action="store_true",
                        help="keep each stdout and CSV as its sha256 alone")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        records = [_read(path) for path in args.compare]
        for line in exit_moves(*records) + report(*records) + value_moves(*records):
            print(line)
        diff = differing(*records)
        print(f"{len(diff)} command(s) differ", file=sys.stderr)
        return 1 if diff else 0
    workloads = [(name, seed) for name in args.workload for seed in args.seed or [1]]
    lines = record(commands(args.paths, args.grid, workloads))
    text = "".join(json.dumps(_hashed(line) if args.hashed else line) + "\n" for line in lines)
    if args.out is None:
        sys.stdout.write(text)
    else:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
