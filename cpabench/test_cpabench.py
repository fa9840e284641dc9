"""Tests of the benchmark itself: deterministic inputs, gate, tracer hygiene.

Run with ``PYTHONPATH=src python3 -m pytest cpabench``.
"""
from __future__ import annotations

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from cpa_sim import cli, fock, sweeps  # noqa: E402


def _tree(root: str) -> dict[str, bytes]:
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def _ops(cycles) -> list[dict]:
    return [op.__dict__ for cycle in cycles for op in cycle]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.generate(workload, 7, str(tmp_path / "a"))
    second = workloads.generate(workload, 7, str(tmp_path / "b"))
    assert _tree(str(tmp_path / "a")) == _tree(str(tmp_path / "b"))
    strip = lambda ops, d: [json.dumps(op).replace(str(tmp_path / d), "") for op in ops]  # noqa: E731
    assert strip(_ops(first), "a") == strip(_ops(second), "b")


@pytest.mark.parametrize("workload", ["fock_large", "scenario_mix"])
def test_other_seed_changes_inputs_but_not_cycle_shape(tmp_path, workload):
    a = workloads.generate(workload, 1, str(tmp_path / "a"))
    b = workloads.generate(workload, 2, str(tmp_path / "b"))
    assert _tree(str(tmp_path / "a")) != _tree(str(tmp_path / "b"))
    kinds = lambda cycles: [sorted(op.kind for op in cycle) for cycle in cycles]  # noqa: E731
    assert kinds(a) == kinds(b)


def test_scenario_mix_keeps_both_known_defects(tmp_path):
    cycle = workloads.generate("scenario_mix", 1, str(tmp_path))[0]
    scenarios = []
    for op in cycle:
        with open(op.argv[1], encoding="utf-8") as handle:
            scenarios.append(json.load(handle)["scenario"])
    coherent_cat = [s for s in scenarios if s["kind"] == "COHERENT_CAT"]
    assert any("cat_alpha" not in s for s in coherent_cat)
    assert any("cat_alpha" in s for s in coherent_cat)
    assert any(s["kind"] == "CAT_CAT" and s["alpha"]["mag"] < 1.0 for s in scenarios)


class _SpyCli:
    """cli stand-in that records wrapped names at every call."""

    def __init__(self) -> None:
        self.seen: list[list[str]] = []

    def main(self, argv):
        self.seen.append(tracing.wrapped_names())
        return cli.main(argv)


def _cheap_ops(tmp_path) -> list[dict]:
    cycle = workloads.generate("scenario_mix", 3, str(tmp_path))[0]
    ops = []
    for suffix in ("SINGLE_PHOTON", "BELL_PSI_MINUS", "GAUSSIAN_EPR_a"):
        ops += [op.__dict__ for op in cycle if op.name.endswith(suffix)][:3]
    return ops


def test_untraced_run_wraps_nothing(tmp_path):
    originals = {
        name: tracing._resolve(module, path)[2]
        for module, path, name in tracing.SPANNED + tracing.COUNTED
    }
    spy = _SpyCli()
    runner = worker.Runner(spy, gate, None)
    ops = _cheap_ops(tmp_path)
    worker.warm_up(runner, ops)
    loop = worker.timed_loop(runner, [ops], seconds=0.0)
    assert loop.attempted == len(ops) and loop.failed == 0
    assert spy.seen and all(seen == [] for seen in spy.seen)
    for module, path, name in tracing.SPANNED + tracing.COUNTED:
        assert tracing._resolve(module, path)[2] is originals[name]


def test_tracer_sees_internal_calls_and_restores_originals(tmp_path):
    before = fock.hadamard_block
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert len(tracing.wrapped_names()) == len(tracing.SPANNED + tracing.COUNTED)
        runner = worker.Runner(cli, gate, None)
        for op in _cheap_ops(tmp_path):
            assert runner.call(op)[0] == 0
    finally:
        tracer.uninstall()
    assert tracing.wrapped_names() == []
    assert fock.hadamard_block is before
    times = tracer.self_times()
    # cli.main -> scenario_io -> dv.run_scenario -> fock.full_pipeline -> bs_transform
    for name in ("cli.main", "scenario_io.run_scenario_file", "dv.run_scenario",
                 "fock.full_pipeline", "fock.bs_transform", "fock.PureState.validate",
                 "gaussian.GaussianState.validate"):
        assert times[name][0] > 0, name
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent == -1)
    assert math.isclose(sum(t[1] for t in times.values()), total, rel_tol=1e-6)
    assert tracer.counts["results.clean"] > 0


def test_sweep_points_and_format_cells_are_counted(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = str(tmp_path / "fig9a.csv")
        assert cli.main(["sweep", "--preset", "fig9a", "--grid", "3", "--out", out]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["sweeps.points"] == 9
    assert tracer.counts["sweeps.format_cell"] == 27
    assert sweeps.format_cell is tracing._resolve("sweeps", "format_cell")[2]


def test_gate_accepts_real_outputs_and_rejects_bad_ones(tmp_path):
    out = str(tmp_path / "fig6.csv")
    assert cli.main(["sweep", "--preset", "fig6", "--grid", "4", "--out", out]) == 0
    with open(out, encoding="utf-8") as handle:
        text = handle.read()
    fp = gate.check_sweep_output(text, "fig6", 4)
    assert gate.compare_fingerprints(fp, fp) is None
    lines = text.splitlines()
    bad_cell = lines[:3] + [lines[3].rsplit(",", 1)[0] + ",1.5"] + lines[4:]
    with pytest.raises(gate.GateError, match="closed form"):
        gate.check_sweep_output("\n".join(bad_cell), "fig6", 4)
    with pytest.raises(gate.GateError, match="rows"):
        gate.check_sweep_output("\n".join(lines[:-1]), "fig6", 4)
    with pytest.raises(gate.GateError, match="non-JSON"):
        gate.check_scenario_output('{"coherence_absorption": NaN}')
    with pytest.raises(gate.GateError, match="sums to"):
        gate.check_scenario_output('{"absorbed_distribution": {"0": 0.5, "1": 0.4}}')
    shifted = dict(fp, sum=fp["sum"] + 1e-6 * (1 + fp["abs_sum"]))
    assert gate.compare_fingerprints(shifted, fp) is not None


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
