"""Deterministic inputs for the three benchmark workloads.

Each workload is a list of ops.  An op is one ``cpa`` command line plus the
scenario file it reads (if any) and the number of work units it completes.
The ops are grouped into cycles of identical composition.  The parameters
that set an op's cost (photon numbers, amplitudes, squeezing) take fixed,
evenly spaced values over each range; the seed draws everything else (phases,
absorber settings, which file gets which size, and the order).  The timed
loop runs whole cycles, so the mix of cheap and expensive ops, and with it
the latency percentiles, depends neither on the seed nor on where a time
limit cuts the loop.

Standard library only; the same (workload, seed) gives byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("gauss_sweep", "fock_large", "scenario_mix")
DEFAULT_SEED = 1

# gauss_sweep: one grid per preset, chosen so that each op costs about the
# same at the defining commit (fig6 builds ~10 Gaussian states per point, the
# EPR presets ~4).  Similar per-op costs keep the latency median inside one
# cluster instead of on the edge between two presets.
SWEEP_GRIDS = {"fig6": 11, "fig8": 9, "fig9a": 18, "fig9b": 18}

# Percentile reported as latency_tail_s.  Each is the highest of 50/75/90/95/99
# that leaves at least ten samples beyond it in a 15-second run at the
# defining commit, and the timed loop runs on until that many ops have
# succeeded.  It is fixed per workload so that two commits are always
# compared at the same percentile.
TAIL_PERCENTILE = {"gauss_sweep": 90, "fock_large": 75, "scenario_mix": 99}

# Whole cycles the traced run replays with tracing on.
TRACE_CYCLES = {"gauss_sweep": 8, "fock_large": 1, "scenario_mix": 1}

FOCK_LARGE_CYCLES = 8  # distinct cycles of files; the timed loop wraps around


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call of a workload."""

    name: str  # file stem or preset; also the key of the reference values
    kind: str  # scenario kind or sweep preset, for failure listings
    argv: tuple[str, ...]
    units: int  # work units the op completes when it succeeds
    output: str | None = None  # output file, when the op writes one


def _dump(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(obj, sort_keys=True) + "\n")


def _mag_phase(rng: random.Random, mag: float) -> dict:
    return {"mag": round(mag, 6), "phase": round(rng.uniform(0.0, 2.0 * math.pi), 6)}


def _absorber(choice: str, rng: random.Random) -> dict | None:
    if choice == "canonical":
        return None
    out: dict = {}
    if choice in ("tau_c", "tau_c+swap"):
        out["tau_c"] = round(rng.uniform(0.05, 0.95), 6)
    if choice in ("swap", "tau_c+swap"):
        out["swap_roles"] = True
    return out


def _scenario_file(engine: str, scenario: dict, absorber: dict | None, cutoff: int | None) -> dict:
    obj: dict = {"schema": 1, "engine": engine, "scenario": scenario}
    if absorber is not None:
        obj["absorber"] = absorber
    if cutoff is not None:
        obj["numerics"] = {"cutoff": cutoff}
    return obj


def _levels(rng: random.Random, count: int) -> list[float]:
    """The midpoints of `count` equal strata of [0, 1), shuffled."""
    values = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _spread(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# gauss_sweep


def _gauss_sweep_ops(work: str) -> list[list[Op]]:
    ops = []
    for preset, grid in SWEEP_GRIDS.items():
        points = grid * grid * (4 if preset == "fig8" else 1)
        out = os.path.join(work, "out", f"{preset}.csv")
        argv = ("sweep", "--preset", preset, "--grid", str(grid), "--out", out)
        ops.append(Op(preset, preset, argv, points, out))
    return [ops]


# ---------------------------------------------------------------------------
# fock_large

# (config, kind, fixed parameters); one op of each per cycle.
_FOCK_LARGE_CONFIGS = (
    [(f"CAT_CAT_{a}", "CAT_CAT", {"alpha": a}) for a in (2.5, 2.75, 3.0)]
    + [
        (f"COHERENT_SQUEEZED_{a}_{x}", "COHERENT_SQUEEZED", {"alpha": a, "xi": x})
        for a in (1.5, 2.0)
        for x in (0.8, 1.0)
    ]
    + [(f"NOON_{n}", "NOON", {"n": n}) for n in (20, 24, 28)]
)

# Per cycle of ten files: six canonical, two with a random tau_c, two swapped.
_FOCK_LARGE_ABSORBERS = ["canonical"] * 6 + ["tau_c", "tau_c", "swap", "swap"]


def _fock_large_scenario(kind: str, params: dict, rng: random.Random) -> dict:
    if kind == "CAT_CAT":
        return {"kind": kind, "alpha": _mag_phase(rng, params["alpha"])}
    if kind == "COHERENT_SQUEEZED":
        return {"kind": kind, "alpha": _mag_phase(rng, params["alpha"]), "xi": params["xi"]}
    return {
        "kind": kind,
        "n": params["n"],
        "delta_theta": round(rng.uniform(0.0, 2.0 * math.pi), 6),
    }


def _fock_large_ops(work: str, rng: random.Random) -> list[list[Op]]:
    cycles = []
    for c in range(FOCK_LARGE_CYCLES):
        absorbers = list(_FOCK_LARGE_ABSORBERS)
        rng.shuffle(absorbers)
        cycle = []
        for (config, kind, params), choice in zip(_FOCK_LARGE_CONFIGS, absorbers):
            obj = _scenario_file(
                "FOCK", _fock_large_scenario(kind, params, rng), _absorber(choice, rng), None
            )
            cycle.append(_file_op(work, f"c{c}_{config}", kind, obj))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# scenario_mix

_MIX_BLOCKS = 12  # each slot appears once per block: 25 slots x 12 = 300 files

# Per slot and cycle of 12 files: seven canonical absorbers, two with a random
# tau_c, two swapped, one both (5 of 12, about 40%, non-canonical).
_MIX_ABSORBERS = ["canonical"] * 7 + ["tau_c", "tau_c", "swap", "swap", "tau_c+swap"]


def _mix_slots() -> list[tuple[str, str, str]]:
    """(slot name, engine, kind) for every slot of one block."""
    slots = [("SINGLE_PHOTON", "FOCK", "SINGLE_PHOTON")]
    slots += [(b, "FOCK", b) for b in (
        "BELL_PSI_PLUS", "BELL_PSI_MINUS", "BELL_PHI_PLUS", "BELL_PHI_MINUS")]
    slots += [(f"NOON_{band}", "FOCK", "NOON") for band in ("low", "mid", "high")]
    slots += [(f"CAT_CAT_{band}", "FOCK", "CAT_CAT") for band in ("low", "mid", "high")]
    slots += [("COHERENT_SQUEEZED_a", "FOCK", "COHERENT_SQUEEZED"),
              ("COHERENT_SQUEEZED_b", "FOCK", "COHERENT_SQUEEZED")]
    slots += [("COHERENT_CAT", "FOCK", "COHERENT_CAT"),
              ("COHERENT_CAT_default", "FOCK", "COHERENT_CAT")]
    slots += [(f"BRIDGED_SQUEEZED_PAIR_{i}", "FOCK", "SQUEEZED_PAIR") for i in "ab"]
    slots += [(f"BRIDGED_EPR_{i}", "FOCK", "EPR") for i in "ab"]
    slots += [(f"GAUSSIAN_SQUEEZED_PAIR_{i}", "GAUSSIAN", "SQUEEZED_PAIR") for i in "abc"]
    slots += [(f"GAUSSIAN_EPR_{i}", "GAUSSIAN", "EPR") for i in "abc"]
    return slots


_NOON_BANDS = {"low": (2, 6), "mid": (7, 11), "high": (12, 16)}
# (max |alpha|, max xi).  Bridged states stay where cutoff 30 holds them to
# the truncation tolerance at every phase; beyond that the engine rightly
# refuses them with a CutoffError.
_BRIDGED_RANGE = (0.6, 0.3)
_GAUSSIAN_RANGE = (2.0, 1.5)
_CAT_BANDS = {"low": (0.2, 0.8), "mid": (0.8, 1.4), "high": (1.4, 2.0)}


def _squeezed_block(rng: random.Random, u: float, max_alpha: float, max_xi: float) -> dict:
    return {
        "alpha": _mag_phase(rng, _spread(u, 0.0, max_alpha)),
        "xi": round(_spread(rng.random(), 0.0, max_xi), 6),
        "phi": round(rng.uniform(0.0, 2.0 * math.pi), 6),
    }


def _mix_scenario(
    slot: str, kind: str, u: float, v: float, rng: random.Random
) -> tuple[dict, int | None]:
    """Scenario block and explicit cutoff for one file.

    u and v in [0, 1) place the parameters that set the op's cost.
    """
    if kind == "SINGLE_PHOTON" or kind.startswith("BELL_"):
        return {"kind": kind, "delta_theta": round(rng.uniform(0.0, 2.0 * math.pi), 6)}, None
    if kind == "NOON":
        lo, hi = _NOON_BANDS[slot.rsplit("_", 1)[1]]
        n = lo + min(int(u * (hi - lo + 1)), hi - lo)
        return {"kind": kind, "n": n, "delta_theta": round(rng.uniform(0.0, 2.0 * math.pi), 6)}, None
    if kind == "CAT_CAT":
        lo, hi = _CAT_BANDS[slot.rsplit("_", 1)[1]]
        return {"kind": kind, "alpha": _mag_phase(rng, _spread(u, lo, hi))}, None
    if kind == "COHERENT_SQUEEZED":
        return {
            "kind": kind,
            "alpha": _mag_phase(rng, _spread(u, 0.2, 1.2)),
            "xi": round(_spread(v, 0.1, 0.6), 6),
        }, None
    if kind == "COHERENT_CAT":
        scenario = {"kind": kind, "alpha": _mag_phase(rng, _spread(u, 0.2, 1.2))}
        if slot == "COHERENT_CAT":  # the _default slot leaves cat_alpha to default to alpha
            scenario["cat_alpha"] = _mag_phase(rng, _spread(v, 0.2, 1.2))
        return scenario, None
    if kind == "SQUEEZED_PAIR":
        bridged = slot.startswith("BRIDGED")
        max_alpha, max_xi = _BRIDGED_RANGE if bridged else _GAUSSIAN_RANGE
        return {
            "kind": kind,
            "k": _squeezed_block(rng, u, max_alpha, max_xi),
            "minus_k": _squeezed_block(rng, v, max_alpha, max_xi),
        }, (30 if bridged else None)
    bridged = slot.startswith("BRIDGED")  # EPR
    max_alpha, max_xi = _BRIDGED_RANGE if bridged else _GAUSSIAN_RANGE
    return {
        "kind": kind,
        "alpha_g": _mag_phase(rng, _spread(u, 0.0, max_alpha)),
        "alpha_h": _mag_phase(rng, _spread(v, 0.0, max_alpha)),
        "xi": round(_spread(rng.random(), 0.05, max_xi), 6),
    }, (30 if bridged else None)


def _scenario_mix_ops(work: str, rng: random.Random) -> list[list[Op]]:
    slots = _mix_slots()
    sizes = {slot: (_levels(rng, _MIX_BLOCKS), _levels(rng, _MIX_BLOCKS)) for slot, _, _ in slots}
    absorbers = {}
    for slot, _, _ in slots:
        absorbers[slot] = list(_MIX_ABSORBERS)
        rng.shuffle(absorbers[slot])
    cycle = []
    for block in range(_MIX_BLOCKS):
        for slot, engine, kind in slots:
            u, v = sizes[slot][0][block], sizes[slot][1][block]
            scenario, cutoff = _mix_scenario(slot, kind, u, v, rng)
            absorber = _absorber(absorbers[slot][block], rng)
            obj = _scenario_file(engine, scenario, absorber, cutoff)
            cycle.append(_file_op(work, f"b{block:02d}_{slot}", kind, obj))
    rng.shuffle(cycle)
    return [cycle]


# ---------------------------------------------------------------------------


def _file_op(work: str, name: str, kind: str, obj: dict) -> Op:
    path = os.path.join(work, "inputs", f"{name}.json")
    _dump(path, obj)
    return Op(name, kind, ("run", path), 1)


def generate(workload: str, seed: int, work: str) -> list[list[Op]]:
    """Write the workload's input files under `work` and return its cycles of ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    if workload == "gauss_sweep":  # fixed grids: the seed has nothing to vary
        return _gauss_sweep_ops(work)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fock_large":
        return _fock_large_ops(work, rng)
    return _scenario_mix_ops(work, rng)

