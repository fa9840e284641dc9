"""Result container shared by scenario runners and the CLI, and its JSON writer.

Coefficients that are mathematically undefined (vanishing denominators) are
held as None and serialize as the literal string "undefined".  Floats are
rounded to 12 significant digits on serialization so identical inputs give
byte-identical output.

`clean` writes that JSON in one pass, laid out as json.dumps(indent=2) would.
A float's token is repr(round_sig(v)).  12 significant digits round-trip
through a normal double, so where f"{v:.12g}" has a fraction and no exponent,
or a negative exponent and v is normal, it already is that token: that is every
normal v with |v| < 0.9999999999995.  Any other text (integral, e+12 and up,
subnormal, signed zero) is re-read and printed by repr.  NaN and infinities
have no JSON token: FockError names their path.

A LevelTable (an absorbed-photon distribution, wrapped by fock_result, or the
standing joint distribution) and an OutputTable (a one-rail run's conditional
outputs) hold the arrays their engine computed.  Each is written by one format
call: %.12g for each value in the normal range above, _number's token otherwise.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _string
from typing import Any

import numpy as np

from . import fock
from .absorber import AbsorberSpec


def round_sig(value: float) -> float:
    """Round to 12 significant digits (deterministic serialization)."""
    return float(f"{value:.12g}")


def _number(value: float) -> str:
    """JSON token of round_sig(value); FockError when it is not finite."""
    text = f"{value:.12g}"
    if ("e" not in text and "." in text) or ("e-" in text and abs(value) >= sys.float_info.min):
        return text
    if not math.isfinite(value):
        raise fock.FockError("non-finite value")
    return repr(float(text))


def _rows(record: str, inner: str, columns: Sequence[np.ndarray], at: int) -> str:
    """`record` % each row of `columns`, joined by "," + `inner`, in one format call.  Column
    `at` fills %.12g, _number's token for a normal value of size below 0.9999999999995, or
    %s with the _number token of any other (zero, subnormal, near or above 1, non-finite)."""
    size, width = np.abs(columns[at]), len(columns)
    odd = np.flatnonzero(~((size >= sys.float_info.min) & (size < 0.9999999999995)))
    flat, records = [None] * (width * len(size)), [record] * len(size)
    for i, column in enumerate(columns):
        flat[i::width] = column.tolist()
    other, tokens = record.replace("%.12g", "%s"), {}  # by bit pattern: most odd values are 0.0
    for i, bits in zip(odd.tolist(), columns[at][odd].view(np.int64).tolist()):
        tokens[bits] = tokens.get(bits) or _number(flat[width * i + at])
        flat[width * i + at], records[i] = tokens[bits], other
    return ("," + inner).join(records) % tuple(flat)


class LevelTable(Mapping):
    """Read-only map over (n,) float `weights`, written by _text in one format call: m ->
    weights[m] when `levels` is None (an absorbed-photon distribution), else "na,nb" -> the
    weight of that row of the (n, 2) integer `levels` (the standing joint distribution)."""

    def __init__(self, weights: np.ndarray, levels: np.ndarray | None = None) -> None:
        self.weights, self.levels = weights, levels
        weights.setflags(write=False)
        if levels is not None:
            levels.setflags(write=False)

    @cached_property
    def _entries(self) -> dict[str, float]:
        return {f"{na},{nb}": w for (na, nb), w in zip(self.levels.tolist(), self.weights.tolist())}

    def __getitem__(self, key: int | str) -> float:
        if self.levels is not None:
            return self._entries[key]
        if not (isinstance(key, int) and 0 <= key < len(self)):
            raise KeyError(key)
        return float(self.weights[key])

    def __iter__(self) -> Iterator[int | str]:
        return iter(range(len(self)) if self.levels is None else self._entries)

    def __len__(self) -> int:
        return len(self.weights)

    def text(self, inner: str) -> str:
        """The entries' JSON lines joined by `inner`."""
        if self.levels is None:
            return _rows('"%d": %.12g', inner, (np.arange(len(self)), self.weights), 1)
        return _rows('"%d,%d": %.12g', inner, (*self.levels.T, self.weights), 2)


class OutputTable(Sequence):
    """A one-rail run's conditional_outputs records over arrays: each count e in
    `absorbed`, its `probability`, and pure light with `left` = (n - e) / 2
    photons in each of K and MINUS_K, written by _text in one format call (a
    half-integer below 1e11 is "%.1f")."""

    def __init__(self, absorbed: np.ndarray, probability: np.ndarray, left: np.ndarray) -> None:
        self.absorbed, self.probability, self.left = absorbed, probability, left

    def __getitem__(self, i: int) -> dict:
        half = float(self.left[i])
        return {"absorbed": int(self.absorbed[i]), "probability": float(self.probability[i]),
                "purity": 1.0, "mean_output_photons": {"K": half, "MINUS_K": half}}

    def __len__(self) -> int:
        return len(self.absorbed)

    def text(self, inner: str) -> str:
        """The records' JSON text joined by `inner`."""
        two, four = inner + "  ", inner + "    "
        record = (f'{{{two}"absorbed": %d,{two}"probability": %.12g,{two}"purity": 1.0,{two}'
                  f'"mean_output_photons": {{{four}"K": %.1f,{four}"MINUS_K": %.1f{two}}}{inner}}}')
        return _rows(record, inner, (self.absorbed, self.probability, self.left, self.left), 1)


def _text(obj: Any, newline: str) -> str:
    """JSON text of `obj`; `newline` begins each of its continuation lines."""
    if obj is None:
        return '"undefined"'
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _number(obj)
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    inner = newline + "  "  # floats, most of the leaves, are tokenized in place
    if isinstance(obj, (LevelTable, OutputTable)):
        ends = "{}" if isinstance(obj, LevelTable) else "[]"
        return f"{ends[0]}{inner}{obj.text(inner)}{newline}{ends[1]}" if len(obj) else ends
    if isinstance(obj, dict):
        ends, items = "{}", [
            f"{_string(str(key))}: {_number(v) if type(v) is float else _text(v, inner)}"
            for key, v in obj.items()
        ]
    elif isinstance(obj, (list, tuple)):
        ends, items = "[]", [_number(v) if type(v) is float else _text(v, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{newline}{ends[1]}" if items else ends


def _nonfinite_path(obj: Any, path: str = "$") -> str | None:
    """Path ($.a.b[2]) of the first NaN or infinity in `obj`; None if there is none."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, (dict, LevelTable)):
        pairs = [(f"{path}.{key}", value) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple, OutputTable)):
        pairs = [(f"{path}[{i}]", value) for i, value in enumerate(obj)]
    else:
        return None
    return next(filter(None, (_nonfinite_path(value, key) for key, value in pairs)), None)


def clean(obj: Any) -> str:
    """JSON text of `obj` (json.dumps(indent=2) layout) with floats rounded to 12
    significant digits, None written as "undefined" and dict keys as str(key)."""
    try:
        return _text(obj, "\n")
    except fock.FockError:
        path = _nonfinite_path(obj).removeprefix("$.")
        raise fock.FockError(f"non-finite value at {path}") from None


@dataclass
class ScenarioResult:
    """Outcome of one scenario run on either engine."""

    engine: str
    scenario: dict
    absorber: dict
    numerics: dict
    absorbed_distribution: LevelTable | None = None
    mean_intensity_absorption: float | None = None
    coherence_absorption: float | None = None
    conditional_outputs: list[dict] | OutputTable = field(default_factory=list)
    separability: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The unrounded payload that `clean` writes as `cpa run` JSON."""
        out: dict[str, Any] = {"engine": self.engine, "scenario": self.scenario,
                               "absorber": self.absorber, "numerics": self.numerics}
        if self.absorbed_distribution is not None:
            out["absorbed_distribution"] = self.absorbed_distribution
        out["mean_intensity_absorption"] = self.mean_intensity_absorption
        out["coherence_absorption"] = self.coherence_absorption
        if self.conditional_outputs:
            out["conditional_outputs"] = self.conditional_outputs
        out["separability"] = self.separability
        if self.extras:
            out["extras"] = self.extras
        out["diagnostics"] = self.diagnostics
        return out


def fock_result(
    scenario: dict,
    absorber: AbsorberSpec,
    numerics: dict,
    environment: fock.EnvironmentReadout,
    coefficients: tuple[float | None, float | None],
) -> ScenarioResult:
    """Fock-engine result: the `environment` readouts and the (intensity,
    coherence) absorption `coefficients`."""
    return ScenarioResult(
        engine="FOCK",
        scenario=scenario,
        absorber=absorber.echo(),
        numerics=numerics,
        absorbed_distribution=LevelTable(environment.distribution),
        mean_intensity_absorption=coefficients[0],
        coherence_absorption=coefficients[1],
        separability={"env_entanglement_entropy": environment.entropy},
    )
