"""Result container shared by scenario runners and the CLI.

Coefficients that are mathematically undefined (vanishing denominators) are
held as None and serialize as the literal string "undefined".  Floats are
rounded to 12 significant digits on serialization so identical inputs give
byte-identical output.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import fock
from .absorber import AbsorberSpec


def round_sig(value: float) -> float:
    """Round to 12 significant digits (deterministic serialization)."""
    return float(f"{value:.12g}")


def clean(obj: Any) -> Any:
    """Recursively round floats and map None to the 'undefined' token."""
    if obj is None:
        return "undefined"
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, complex):
        return [round_sig(obj.real), round_sig(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    return obj


@dataclass
class ScenarioResult:
    """Outcome of one scenario run on either engine."""

    engine: str
    scenario: dict
    absorber: dict
    numerics: dict
    absorbed_distribution: dict[int, float] | None = None
    mean_intensity_absorption: float | None = None
    coherence_absorption: float | None = None
    conditional_outputs: list[dict] = field(default_factory=list)
    separability: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "engine": self.engine,
            "scenario": clean(self.scenario),
            "absorber": clean(self.absorber),
            "numerics": clean(self.numerics),
        }
        if self.absorbed_distribution is not None:
            out["absorbed_distribution"] = {
                str(m): round_sig(p) for m, p in sorted(self.absorbed_distribution.items())
            }
        out["mean_intensity_absorption"] = clean(self.mean_intensity_absorption)
        out["coherence_absorption"] = clean(self.coherence_absorption)
        if self.conditional_outputs:
            out["conditional_outputs"] = clean(self.conditional_outputs)
        out["separability"] = clean(self.separability)
        if self.extras:
            out["extras"] = clean(self.extras)
        # wall clock stays available in memory but would break byte-identical
        # output of identical runs, so it is not serialized
        out["diagnostics"] = clean(
            {k: v for k, v in self.diagnostics.items() if k != "wall_clock_s"}
        )
        return out


def fock_result(
    scenario: dict,
    absorber: AbsorberSpec,
    numerics: dict,
    environment: fock.EnvironmentReadout,
    coefficients: tuple[float | None, float | None],
    start: float,
) -> ScenarioResult:
    """Fock-engine result: the `environment` readouts and the (intensity,
    coherence) absorption `coefficients` of a run begun at perf_counter() == `start`."""
    return ScenarioResult(
        engine="FOCK",
        scenario=scenario,
        absorber=absorber.echo(),
        numerics=numerics,
        absorbed_distribution=environment.distribution,
        mean_intensity_absorption=coefficients[0],
        coherence_absorption=coefficients[1],
        separability={"env_entanglement_entropy": environment.entropy},
        diagnostics={"wall_clock_s": time.perf_counter() - start},
    )
