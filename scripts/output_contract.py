#!/usr/bin/env python3
"""Record the output contract of `cpa` in-process, or compare two records.

    PYTHONPATH=src python scripts/output_contract.py [--grid N] [--out FILE] PATH...
    python scripts/output_contract.py --compare A B

The first form calls `cpa_sim.cli.main` on `run FILE` for every scenario file
given, then on `table1`, `table1 --json` and the four sweep presets at
`--grid` (default 101).  A directory stands for its `*.json` files, sorted,
other than expected outputs named `*.out.json`.  It writes one JSON line per
command: argv, exit code, the sha256 of stdout (and of the CSV a preset
writes) and stderr.  Whichever `cpa_sim` is importable is
recorded, so pointing PYTHONPATH at another checkout's `src` records that one.

`--compare A B` prints the argv of every command whose lines differ, or that
only one record has, and exits 1 when there is any.

Good inputs are `tests/golden` and the files the benchmark generates: `cpabench`
writes a workload's inputs under `.cpabench_work/<workload>-seed<N>/inputs/`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

CSV = "<csv>"  # stands for the preset's output path, which differs per run


def commands(paths: list[str], grid: int) -> list[list[str]]:
    """argv of every command in the contract; CSV marks a preset's --out."""
    files: list[str] = []
    for path in map(pathlib.Path, paths):
        if path.is_dir():
            files += [str(f) for f in sorted(path.glob("*.json")) if not f.name.endswith(".out.json")]
        else:
            files.append(str(path))
    presets = [["sweep", "--preset", p, "--grid", str(grid), "--out", CSV]
               for p in ("fig6", "fig8", "fig9a", "fig9b")]
    return [["run", f] for f in files] + [["table1"], ["table1", "--json"]] + presets


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def record(argvs: list[list[str]]) -> list[dict]:
    """One line per argv: exit code, sha256 of stdout and of any CSV, stderr."""
    from cpa_sim import cli

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = pathlib.Path(tmp, "out.csv")
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(csv_path) if a == CSV else a for a in argv])
            line = {"argv": argv, "exit": code, "stdout_sha256": _sha256(out.getvalue())}
            if CSV in argv:
                text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
                line["csv_sha256"] = _sha256(text)
                csv_path.unlink(missing_ok=True)
            line["stderr"] = err.getvalue()
            lines.append(line)
    return lines


def differing(a: list[dict], b: list[dict]) -> list[list[str]]:
    """argv of the commands whose lines differ or appear in one record only."""
    by_argv = [{json.dumps(line["argv"]): line for line in lines} for lines in (a, b)]
    keys = list(by_argv[0]) + [k for k in by_argv[1] if k not in by_argv[0]]
    return [json.loads(k) for k in keys if by_argv[0].get(k) != by_argv[1].get(k)]


def _read(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="scenario files or directories")
    parser.add_argument("--grid", type=int, default=101)
    parser.add_argument("--out", default=None, help="write the record here, not to stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        diff = differing(*map(_read, args.compare))
        for argv in diff:
            print(" ".join(argv))
        print(f"{len(diff)} command(s) differ", file=sys.stderr)
        return 1 if diff else 0
    text = "".join(json.dumps(line) + "\n" for line in record(commands(args.paths, args.grid)))
    if args.out is None:
        sys.stdout.write(text)
    else:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
