"""cpa-sim benchmark: one command, three workloads, checked outputs.

    python3 cpabench/run.py --workload gauss_sweep|fock_large|scenario_mix \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The benchmark writes the workload's input
files from the seed, then drives ``cpa_sim.cli.main`` in a separate process
(one client, closed loop) with OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1 and
CPA_THREADS unset.  Every op's output goes through the correctness gate.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
and prints the per-module metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See cpabench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import COUNTED, SPANNED

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".cpabench_work"
SETUP_SAMPLES = 3  # fresh interpreters set up per run; setup_s is their median
TIME_LIMIT_S = 170.0  # the whole run, all worker processes included

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("CPA_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Session:
    """Spawns worker processes for one benchmark run."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.work = work
        self.env = _worker_env(root)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.spawned = 0

    def worker(self, mode: str, *extra: str) -> tuple[dict, float]:
        """Run one worker to completion; returns its result and spawn time."""
        self.spawned += 1
        tag = f"{mode}{self.spawned}"
        result_path = os.path.join(self.work, f"{tag}.json")
        log_path = os.path.join(self.work, f"{tag}.log")
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--manifest", os.path.join(self.work, "manifest.json"),
            "--result", result_path, *extra,
        ]
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log, stderr=log)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{mode} worker exceeded the time limit") from None
        if rc != 0:
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            raise BenchError(f"{mode} worker exited with {rc}:\n{tail}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        expected = os.path.join(self.root, "src", "cpa_sim")
        if os.path.dirname(os.path.realpath(result["cpa_sim_file"])) != os.path.realpath(expected):
            raise BenchError(f"worker imported {result['cpa_sim_file']}, not {expected}")
        return result, spawned


def _prepare(root: str, workload: str, seed: int) -> str:
    work = os.path.join(root, WORK_ROOT, f"{workload}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cycles = workloads.generate(workload, seed, work)
    manifest = {"cycles": [[op.__dict__ for op in cycle] for cycle in cycles]}
    with open(os.path.join(work, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return work


def _reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.json")


def _reference_applies(workload: str, seed: int) -> bool:
    # gauss_sweep ignores the seed, so its references hold for every seed
    return workload == "gauss_sweep" or seed == workloads.DEFAULT_SEED


def _nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _src_lines(root: str) -> int:
    total = 0
    src = os.path.join(root, "src", "cpa_sim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def _git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _print_environment(root: str, worker: dict, env: dict) -> None:
    v = worker["versions"]
    print(
        f"environment: python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
        f"{v['blas']}, nproc {os.cpu_count()}, git {_git_sha(root)}, "
        f"src/cpa_sim {_src_lines(root)} lines, "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']} CPA_THREADS unset"
    )


def _print_failures(loop: dict) -> None:
    frac = loop["failed"] / loop["attempted"]
    print(f"failed_frac         {frac:.6f}          ({loop['failed']} of {loop['attempted']} ops)")
    for key, count in sorted(loop["failures"].items(), key=lambda kv: -kv[1]):
        print(f"  failed x{count}: {key}")


def _correct(worker: dict) -> bool:
    ok = not worker["gate_errors"] and not worker["wrapped_during_timing"]
    for error in worker["gate_errors"]:
        print(f"gate error: {error}")
    if worker["wrapped_during_timing"]:
        print(f"error: wrapped during the untraced loop: {worker['wrapped_during_timing']}")
    return ok


def _loop_args(args) -> list[str]:
    # enough successful ops that the tail percentile has ten samples beyond it
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    min_ops = math.ceil(10 / (1 - percentile / 100) - 1e-9)
    return ["--seconds", str(args.seconds), "--min-ops", str(min_ops)]


def end_to_end(session: Session, args) -> dict:
    extra = _loop_args(args)
    if _reference_applies(args.workload, args.seed):
        extra += ["--reference", _reference_path(args.workload)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe, spawned = session.worker("setup")
        setups.append(probe["warm_monotonic"] - spawned)
    worker, spawned = session.worker("run", *extra)
    setups.append(worker["warm_monotonic"] - spawned)
    loop = worker["loop"]
    if not loop["latencies"]:
        raise BenchError("no op succeeded")

    percentile = workloads.TAIL_PERCENTILE[args.workload]
    tail, beyond = _nearest_rank(loop["latencies"], percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": loop["units"] / loop["measured_s"],
        "latency_p50_s": statistics.median(loop["latencies"]),
        "latency_tail_s": tail,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    n = len(loop["latencies"])
    unit_name = "points" if args.workload == "gauss_sweep" else "scenarios"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "throughput_per_s": f"{unit_name}/s over {loop['measured_s']:.2f} s, "
        f"{loop['cycles']} cycles",
        "latency_p50_s": f"n={n} successful ops",
        "latency_tail_s": f"p{percentile}, n={n}, {beyond} samples beyond",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    _print_environment(session.root, worker, session.env)
    print(f"workload {args.workload}, seed {args.seed}, one client, closed loop")
    for name, value in metrics.items():
        print(f"{name:18s}  {value:<14.6g} {END_TO_END_UNITS[name]:4s} ({notes[name]})")
    _print_failures(loop)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{percentile}")
    correct = _correct(worker)
    if worker["table1_rc"] != 0:
        print(f"cpa table1 exited {worker['table1_rc']}: {worker['table1_stderr']}")
        correct = False
    else:
        print("cpa table1: pass")
    if "--reference" in extra:
        print(f"reference values: checked ({worker['unreferenced']} outputs without one)")
    return {
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in BENCHMARK.json order."""
    names = []
    for _, _, name in SPANNED:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name == "fock.hadamard_block":
            names += [("fock.hadamard_block.misses", "count"),
                      ("fock.hadamard_block.warmup_self_s", "s")]
    names += [(f"{name}.calls", "count") for _, _, name in COUNTED]
    names += [
        ("fock.reduce.peak_alloc_mb", "MB"),
        ("gaussian.states_per_point", "count"),
        ("sweeps.points", "count"),
        ("trace.overhead_frac", "fraction"),
    ]
    return names


def traced(session: Session, args) -> dict:
    spans_path = os.path.join(session.work, "spans.jsonl")
    worker, _ = session.worker(
        "trace", *_loop_args(args),
        "--trace-cycles", str(workloads.TRACE_CYCLES[args.workload]),
        "--spans", spans_path,
    )
    trace = worker["trace"]
    steady, warm, counts = trace["steady"], trace["warmup"], trace["counts"]
    replay = trace["replay"]
    values: dict[str, float] = {}
    for _, _, name in SPANNED:
        calls, self_s = steady.get(name, [0, 0.0])
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["fock.hadamard_block.misses"] = sum(trace["hadamard_misses"].values())
    values["fock.hadamard_block.warmup_self_s"] = warm.get("fock.hadamard_block", [0, 0.0])[1]
    for _, _, name in COUNTED:
        values[f"{name}.calls"] = counts.get(name, 0)
    points = counts.get("sweeps.points", 0)
    validations = steady.get("gaussian.GaussianState.validate", [0, 0.0])[0]
    values["fock.reduce.peak_alloc_mb"] = trace["reduce_peak_alloc_mb"]
    values["gaussian.states_per_point"] = validations / points if points else 0.0
    values["sweeps.points"] = points
    values["trace.overhead_frac"] = replay["measured_s"] / trace["untraced_replay_s"] - 1.0

    _print_environment(session.root, worker, session.env)
    print(f"traced run: workload {args.workload}, seed {args.seed}, "
          f"{replay['attempted']} ops replayed traced ({replay['cycles']} cycles), "
          f"{trace['spans']} spans written to {os.path.relpath(spans_path, session.root)}")
    print(f"tracing overhead: traced {replay['measured_s']:.3f} s vs untraced "
          f"{trace['untraced_replay_s']:.3f} s for the same ops "
          f"({values['trace.overhead_frac']:+.1%})")
    for title, table in (("warm-up", warm), ("steady state", steady)):
        top = sorted(table.items(), key=lambda kv: -kv[1][1])[:8]
        print(f"largest self times, {title}:")
        for name, (calls, self_s) in top:
            print(f"  {name:45s} {self_s:10.4f} s  {calls:9d} calls")
    if trace["absent"]:
        print(f"absent (reported as 0): {', '.join(trace['absent'])}")
    _print_failures(replay)
    correct = _correct(worker)
    units = dict(per_layer_names())
    return {
        "correct": correct,
        "attempted": replay["attempted"],
        "failed": replay["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _write_reference(path: str, fingerprints: dict) -> None:
    """One line per op, so a re-recording diffs op by op."""
    lines = [
        f"  {json.dumps(name)}: {json.dumps(fp, sort_keys=True)}"
        for name, fp in sorted(fingerprints.items())
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f'{{"seed": {workloads.DEFAULT_SEED}, "fingerprints": {{\n')
        handle.write(",\n".join(lines) + "\n}}\n")


def record_reference(session: Session, workload: str) -> None:
    worker, _ = session.worker("record")
    os.makedirs(os.path.dirname(_reference_path(workload)), exist_ok=True)
    _write_reference(_reference_path(workload), worker["fingerprints"])
    print(f"recorded {len(worker['fingerprints'])} reference fingerprints for {workload}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="write the reference fingerprints of the default seed and exit",
    )
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cpa_sim", "cli.py")):
        print("error: run from the root of a cpa-sim checkout (src/cpa_sim not found)",
              file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.record_reference else args.seed
    work = _prepare(root, args.workload, seed)
    session = Session(root, work)
    try:
        if args.record_reference:
            record_reference(session, args.workload)
            return 0
        summary = traced(session, args) if args.trace else end_to_end(session, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
