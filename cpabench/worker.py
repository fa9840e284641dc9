"""One workload process: warm up, run the timed closed loop, gate every op.

Started by run.py with a pinned thread environment and ``src`` on PYTHONPATH.
It reads the op manifest written by run.py and writes its measurements as
JSON to the result path.  Modes:

  setup   import cpa_sim, run the first cycle untimed, report when warm
  run     setup, then the timed loop (tracing off), then ``cpa table1``
  trace   traced warm-up, the untraced timed loop, a traced replay of its
          first cycles, then a tracemalloc pass over the first cycle
  record  run every op once and write the reference fingerprints
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from collections import Counter

STARTED = time.monotonic()

# Stop starting ops after this long so the run ends well inside its limit.
HARD_LIMIT_S = 120.0


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Runner:
    """Runs ops in-process through ``cli.main`` and gates their outputs."""

    def __init__(self, cli, gate, reference: dict | None) -> None:
        self.cli = cli
        self.gate = gate
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.fingerprints: dict[str, dict] = {}
        self.gate_errors: list[str] = []
        self.unreferenced = 0

    def call(self, op: dict) -> tuple[int, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op["argv"]))
        except Exception as exc:  # an uncaught exception is a crashed command
            rc = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()

    def check(self, op: dict, stdout: str) -> str | None:
        """None when the op's output passes the gate, else the reason."""
        try:
            if op["output"] is None:
                text = stdout
                fp = self.gate.check_scenario_output(text)
            else:
                with open(op["output"], encoding="utf-8") as handle:
                    text = handle.read()
                grid = int(op["argv"][op["argv"].index("--grid") + 1])
                fp = self.gate.check_sweep_output(text, op["kind"], grid)
        except (self.gate.GateError, OSError) as exc:
            return str(exc)
        first = self.digests.setdefault(op["name"], self.gate.digest(text))
        if first != self.gate.digest(text):
            return "output differs from the first output of the same op"
        self.fingerprints[op["name"]] = fp
        if self.reference is not None:
            ref = self.reference.get(op["name"])
            if ref is None:
                self.unreferenced += 1
            else:
                diff = self.gate.compare_fingerprints(fp, ref)
                if diff is not None:
                    return f"reference mismatch: {diff}"
        return None


class Loop:
    """Measurements of one pass over a sequence of ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.measured_s = 0.0
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.cycle_ends: list[float] = []  # measured_s after each whole cycle

    def run_op(self, runner: Runner, op: dict, tracer=None, op_id: str = "") -> None:
        if tracer is not None:
            tracer.op = op_id
        rc, elapsed, stdout, stderr = runner.call(op)
        self.attempted += 1
        self.measured_s += elapsed
        reason = runner.check(op, stdout) if rc == 0 else None
        if rc != 0:
            self.failed += 1
            self.failures[runner.gate.failure_key(rc, op["kind"], stderr)] += 1
        elif reason is not None:
            self.failed += 1
            self.failures[f"gate | {op['kind']} | {reason[:100]}"] += 1
            runner.gate_errors.append(f"{op['name']}: {reason}")
        else:
            self.units += op["units"]
            self.latencies.append(elapsed)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "units": self.units,
            "measured_s": self.measured_s,
            "latencies": self.latencies,
            "failures": dict(self.failures),
            "cycles": len(self.cycle_ends),
        }


def timed_loop(
    runner: Runner, cycles: list[list[dict]], seconds: float, min_ops: int = 0
) -> Loop:
    """Whole cycles until `seconds` of op time are measured and at least
    `min_ops` ops have succeeded."""
    loop = Loop()
    index = 0
    while True:
        for op in cycles[index % len(cycles)]:
            loop.run_op(runner, op)
        loop.cycle_ends.append(loop.measured_s)
        index += 1
        if time.monotonic() - STARTED > HARD_LIMIT_S:
            return loop
        if loop.measured_s >= seconds and len(loop.latencies) >= min_ops:
            return loop


def warm_up(runner: Runner, ops: list[dict], tracer=None) -> None:
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"w{i}"
        runner.call(op)


def _load_reference(path: str | None) -> dict | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["fingerprints"]


def _record(runner: Runner, cycles: list[list[dict]]) -> dict:
    for cycle in cycles:
        for op in cycle:
            rc, _, stdout, _ = runner.call(op)
            if rc == 0:
                runner.check(op, stdout)
    return {"fingerprints": runner.fingerprints}


def _run(runner: Runner, cycles: list[list[dict]], args) -> dict:
    loop = timed_loop(runner, cycles, args.seconds, args.min_ops)
    table_rc, _, _, table_err = runner.call(
        {"argv": ["table1"], "output": None, "name": "table1", "kind": "table1"}
    )
    return {"loop": loop.to_dict(), "table1_rc": table_rc, "table1_stderr": table_err[-500:]}


def _trace(runner: Runner, cycles: list[list[dict]], args, tracing, tracer) -> dict:
    """After a traced warm-up: untraced loop, traced replay, tracemalloc pass."""
    warm_spans = len(tracer.spans)
    warm_misses = tracer.hadamard_misses()
    warm_counts = Counter(tracer.counts)
    loop = timed_loop(runner, cycles, args.seconds, args.min_ops)
    # replay the loop's first cycles so that traced and untraced times cover
    # the same ops
    count = min(args.trace_cycles, len(loop.cycle_ends))
    replay = Loop()
    tracer.install()
    try:
        for c in range(count):
            for i, op in enumerate(cycles[c % len(cycles)]):
                replay.run_op(runner, op, tracer, f"{c}.{i}")
            replay.cycle_ends.append(replay.measured_s)
    finally:
        tracer.uninstall()
    if args.spans:
        tracer.write_spans(args.spans)

    def first_cycle() -> None:
        for op in cycles[0]:
            runner.call(op)

    return {
        "loop": loop.to_dict(),
        "trace": {
            "replay": replay.to_dict(),
            "untraced_replay_s": loop.cycle_ends[count - 1],
            "steady": tracer.self_times(warm_spans),
            "warmup": tracer.self_times(0, warm_spans),
            "counts": dict(tracer.counts - warm_counts),
            "absent": tracer.absent,
            "hadamard_misses": {
                "warmup": warm_misses, "steady": tracer.hadamard_misses() - warm_misses,
            },
            "reduce_peak_alloc_mb": tracing.peak_reduction_alloc(first_cycle),
            "spans": len(tracer.spans),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--trace-cycles", type=int, default=1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    with open(args.manifest, encoding="utf-8") as handle:
        cycles = json.load(handle)["cycles"]

    import cpa_sim
    from cpa_sim import cli

    import gate
    import tracer as tracing

    result: dict = {"cpa_sim_file": cpa_sim.__file__}
    runner = Runner(cli, gate, _load_reference(args.reference))
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    try:
        warm_up(runner, cycles[0], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["warm_monotonic"] = time.monotonic()
    result["wrapped_during_timing"] = tracing.wrapped_names()
    if args.mode == "record":
        result.update(_record(runner, cycles))
    elif args.mode == "run":
        result.update(_run(runner, cycles, args))
    elif args.mode == "trace":
        result.update(_trace(runner, cycles, args, tracing, tracer))
    result["gate_errors"] = runner.gate_errors[:20]
    result["unreferenced"] = runner.unreferenced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
