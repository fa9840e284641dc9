#!/usr/bin/env python3
"""Record the output contract of `cpa` in-process, or compare two records.

    PYTHONPATH=src python scripts/output_contract.py [--grid N...] [--out FILE]
        [--workload NAME]... [--seed N]... PATH...
    python scripts/output_contract.py --compare A B

The first form calls `cpa_sim.cli.main` on `run FILE` for every scenario file
given, then on `table1`, `table1 --json` and the four sweep presets at each
`--grid` value (default 101; `--grid 9 11 18 101` covers the benchmark's grids
and the figures'), each line's argv naming its grid.  A directory stands for
its `*.json` files, sorted, other than expected outputs named `*.out.json`.
Each `--workload` (fock_large or scenario_mix) at each `--seed` (default 1)
adds the `run` files the benchmark generates for it, in op order:
`cpabench/workloads.py` writes them to a temporary directory, which the record
names `<NAME-seedN>`, so no benchmark run is needed first and two records of
the same inputs compare equal.  It writes one JSON line per command: argv,
exit code, the sha256 of stdout (and of the CSV a preset writes), stderr, and
for `run` the stdout itself.  Whichever `cpa_sim` is
importable is recorded, so pointing PYTHONPATH at another checkout's `src`
records that one.

`--compare A B` prints the argv of every command whose lines differ, or that
only one record has, and exits 1 when there is any.  Under each argv it names
what moved, one `  PATH: OLD -> NEW` line each: `exit`, `stderr`, and every
value of the `run` JSON whose token differs, by its path
(`separability.env_entanglement_entropy`, `conditional_outputs[1].purity`;
`<absent>` where a key exists on one side).

Good inputs are `tests/golden`, `tests/hostile` (whose exit codes and stderr
the record pins) and the benchmark's workloads, e.g.
`--workload fock_large --workload scenario_mix --seed 1 tests/golden tests/hostile`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import re
import sys
import tempfile
from typing import Sequence

CSV = "<csv>"  # stands for the preset's output path, which differs per run
WORKLOAD = re.compile(r"<(\w+)-seed(\d+)>/")  # stands for a workload's input directory
WORKLOADS = ("fock_large", "scenario_mix")  # gauss_sweep runs only the presets
ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    """argv of every command in the contract, the presets at each grid; CSV
    marks a preset's --out and `<NAME-seedN>/` the directory a workload's
    inputs are written to."""
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
    return [["run", f] for f in files] + [["table1"], ["table1", "--json"]] + presets


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def record(argvs: list[list[str]]) -> list[dict]:
    """One line per argv: exit code, sha256 of stdout and of any CSV, stderr."""
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
            match = WORKLOAD.match(arg)
            return str(work[match.group(0)] / "inputs" / arg[match.end():]) if match else arg

        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([resolve(a) for a in argv])
            line = {"argv": argv, "exit": code, "stdout_sha256": _sha256(out.getvalue())}
            if CSV in argv:
                text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
                line["csv_sha256"] = _sha256(text)
                csv_path.unlink(missing_ok=True)
            line["stderr"] = err.getvalue()
            if argv[0] == "run":
                line["stdout"] = out.getvalue()
            lines.append(line)
    return lines


def differing(a: list[dict], b: list[dict]) -> list[list[str]]:
    """argv of the commands whose lines differ or appear in one record only."""
    by_argv = [{json.dumps(line["argv"]): line for line in lines} for lines in (a, b)]
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


def moved(a: dict | None, b: dict | None) -> list[tuple[str, str, str]]:
    """(path, old, new) of what differs between two lines of one command: exit,
    stderr and each value of a `run`'s JSON stdout; `stdout` itself when the
    texts differ in nothing else."""
    a, b = a or {}, b or {}
    out = [(key, json.dumps(a.get(key)) if key in a else ABSENT,
            json.dumps(b.get(key)) if key in b else ABSENT)
           for key in ("exit", "stderr") if a.get(key) != b.get(key)]
    if a.get("stdout") == b.get("stdout"):
        return out
    text = [("stdout", "<text>", "<text>")]
    try:
        old, new = (_leaves(json.loads(line.get("stdout", "{}"))) for line in (a, b))
    except json.JSONDecodeError:
        return out + text
    paths = list(old) + [p for p in new if p not in old]
    values = [(p, old.get(p, ABSENT), new.get(p, ABSENT)) for p in paths if old.get(p) != new.get(p)]
    return out + (values or text)


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
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        records = [_read(path) for path in args.compare]
        by_argv = [{json.dumps(line["argv"]): line for line in lines} for lines in records]
        diff = differing(*records)
        for argv in diff:
            print(" ".join(argv))
            key = json.dumps(argv)
            for path, old, new in moved(by_argv[0].get(key), by_argv[1].get(key)):
                print(f"  {path}: {old} -> {new}")
        print(f"{len(diff)} command(s) differ", file=sys.stderr)
        return 1 if diff else 0
    workloads = [(name, seed) for name in args.workload for seed in args.seed or [1]]
    argvs = commands(args.paths, args.grid, workloads)
    text = "".join(json.dumps(line) + "\n" for line in record(argvs))
    if args.out is None:
        sys.stdout.write(text)
    else:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
