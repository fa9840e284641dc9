"""Correctness gate applied to the output of every benchmark op.

An op passes when its output
  * parses as strict JSON (no NaN/Infinity tokens), or as a CSV with the
    preset's row count;
  * has an absorbed-photon distribution summing to 1 within 1e-9 (Fock);
  * for the fig6 preset, has every cell equal to the closed form
    ``gaussian.squeezed_pair_inseparability`` within 1e-9;
  * is byte-identical to the first output of the same op in this run;
  * matches the recorded reference values within 1e-9, where the workload
    has references for the seed being run.

Reference values are kept as a fingerprint of each output's numbers: their
count, the count of ``undefined`` tokens, their sum, their absolute sum and a
position-weighted sum.  Equal outputs give equal fingerprints; a change of
1e-9 in any value moves the sums by about that much.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

from cpa_sim import gaussian

TOL = 1e-9
_WEIGHT_PERIOD = 89


class GateError(ValueError):
    """An op's output failed a correctness check."""


def _reject_constant(token: str) -> float:
    raise GateError(f"non-JSON token {token}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GateError(f"output is not JSON: {exc}") from None


def _numbers(obj, out: list, undefined: list) -> None:
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        out.append(float(obj))
    elif obj == "undefined":
        undefined.append(1)
    elif isinstance(obj, dict):
        for value in obj.values():
            _numbers(value, out, undefined)
    elif isinstance(obj, list):
        for value in obj:
            _numbers(value, out, undefined)


def fingerprint(values: list[float], undefined: int) -> dict:
    weights = [(i % _WEIGHT_PERIOD) + 1 for i in range(len(values))]
    return {
        "count": len(values),
        "undefined": undefined,
        "sum": math.fsum(values),
        "abs_sum": math.fsum(abs(v) for v in values),
        "weighted": math.fsum(w * v for w, v in zip(weights, values)),
    }


def compare_fingerprints(got: dict, ref: dict) -> str | None:
    """None when `got` matches `ref` within TOL, else what differs."""
    for key in ("count", "undefined"):
        if got[key] != ref[key]:
            return f"{key} {got[key]} != reference {ref[key]}"
    scale = 1.0 + ref["abs_sum"]
    for key, factor in (("sum", 1.0), ("abs_sum", 1.0), ("weighted", _WEIGHT_PERIOD)):
        if abs(got[key] - ref[key]) > TOL * factor * scale:
            return f"{key} {got[key]!r} != reference {ref[key]!r}"
    return None


def check_scenario_output(text: str) -> dict:
    """Gate a ``cpa run`` output; returns its fingerprint."""
    result = strict_json(text)
    dist = result.get("absorbed_distribution")
    if dist is not None:
        total = math.fsum(dist.values())
        if abs(total - 1.0) > TOL:
            raise GateError(f"absorbed distribution sums to {total!r}")
    values: list[float] = []
    undefined: list = []
    _numbers(result, values, undefined)
    return fingerprint(values, len(undefined))


def check_sweep_output(text: str, preset: str, grid: int) -> dict:
    """Gate a ``cpa sweep --preset`` CSV; returns its fingerprint."""
    lines = text.splitlines()
    expected = grid * grid * (4 if preset == "fig8" else 1)
    if len(lines) - 1 != expected:
        raise GateError(f"{preset}: {len(lines) - 1} rows, expected {expected}")
    width = len(lines[0].split(","))
    values: list[float] = []
    undefined = 0
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise GateError(f"{preset}: ragged row {line!r}")
        for cell in cells:
            if cell == "undefined":
                undefined += 1
                continue
            if preset == "fig8" and cell in ("a", "b", "c", "d"):  # panel label
                continue
            try:
                value = float(cell)
            except ValueError:
                raise GateError(f"{preset}: bad cell {cell!r}") from None
            if not math.isfinite(value):
                raise GateError(f"{preset}: non-finite cell {cell!r}")
            values.append(value)
    if preset == "fig6":
        _check_fig6(values, grid)
    return fingerprint(values, undefined)


def _check_fig6(values: list[float], grid: int) -> None:
    angles = np.linspace(0.0, 2.0 * math.pi, grid)
    cells = values[2::3]
    for i, cell in enumerate(cells):
        phi_k, phi_mk = float(angles[i // grid]), float(angles[i % grid])
        expected = gaussian.squeezed_pair_inseparability(1.0, 1.0, phi_k, phi_mk)
        if abs(cell - expected) > TOL:
            raise GateError(f"fig6 cell ({phi_k}, {phi_mk}) = {cell!r}, closed form {expected!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?j?", re.IGNORECASE)


def failure_key(rc: int, kind: str, stderr: str) -> str:
    """Group label of a failed op: exit code, kind, message with numbers masked."""
    first = stderr.strip().splitlines()[0] if stderr.strip() else "(no message)"
    return f"exit {rc} | {kind} | {_NUMBER.sub('#', first)[:100]}"
