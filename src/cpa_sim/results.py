"""Result container shared by scenario runners and the CLI, and its JSON writer.

Coefficients that are mathematically undefined (vanishing denominators) are
held as None and serialize as the literal string "undefined".  Floats are
rounded to 12 significant digits on serialization so identical inputs give
byte-identical output.

`clean` writes that JSON in one pass, laid out as json.dumps(indent=2) would.
A float's token is repr(round_sig(v)).  At most 12 significant digits
round-trip through a normal double, so where f"{v:.12g}" has a fraction and no
exponent, or a two-digit negative exponent, it already is that token; any other
text (integral, e+12 and up, subnormal, signed zero) is re-read and printed by
repr.  NaN and infinities have no JSON token: FockError names their path.

A LevelTable (the standing joint distribution, thousands of entries) holds its
level pairs and values as arrays.  When every value lies in TABLE_RANGE, where
that rule always keeps the f"{v:.12g}" text, the table is written by one
'"%d,%d": %.12g' format call over the arrays; any other table (a value that
rounds to 1, a subnormal, zero, NaN) is written entry by entry through _number.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
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
    if text[-4:-2] == "e-" or ("e" not in text and "." in text):
        return text
    if not math.isfinite(value):
        raise fock.FockError("non-finite value")
    return repr(float(text))


# |v| where f"{v:.12g}" is _number's token: 1e-99 prints as "1e-99" (a two-digit
# negative exponent) and anything below 0.9999999999995 rounds to "0.", not "1"
TABLE_RANGE = (1e-99, 0.9999999999995)


class LevelTable(Mapping):
    """Read-only map "na,nb" -> value over (n, 2) integer `levels` and their
    (n,) float `weights`, written by _text without a key or token per entry."""

    def __init__(self, levels: np.ndarray, weights: np.ndarray) -> None:
        self.levels, self.weights = levels, weights
        levels.setflags(write=False)
        weights.setflags(write=False)

    @cached_property
    def _entries(self) -> dict[str, float]:
        return {f"{na},{nb}": w for (na, nb), w in zip(self.levels.tolist(), self.weights.tolist())}

    def __getitem__(self, key: str) -> float:
        return self._entries[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self.weights)

    def text(self, inner: str) -> str | None:
        """The entries' JSON lines joined by `inner`, or None when the table is
        empty or a value lies outside TABLE_RANGE (the caller then writes it
        entry by entry)."""
        size = np.abs(self.weights)
        if not size.size or not np.all((size >= TABLE_RANGE[0]) & (size < TABLE_RANGE[1])):
            return None
        flat = [0] * (3 * len(self))
        flat[0::3], flat[1::3] = self.levels.T.tolist()
        flat[2::3] = self.weights.tolist()
        return ("," + inner).join(['"%d,%d": %.12g'] * len(self)) % tuple(flat)


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
    if isinstance(obj, LevelTable) and (lines := obj.text(inner)) is not None:
        return f"{{{inner}{lines}{newline}}}"
    if isinstance(obj, (dict, LevelTable)):
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
    elif isinstance(obj, (list, tuple)):
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
    absorbed_distribution: dict[int, float] | None = None
    mean_intensity_absorption: float | None = None
    coherence_absorption: float | None = None
    conditional_outputs: list[dict] = field(default_factory=list)
    separability: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The unrounded payload that `clean` writes as `cpa run` JSON."""
        out: dict[str, Any] = {"engine": self.engine, "scenario": self.scenario,
                               "absorber": self.absorber, "numerics": self.numerics}
        dist = self.absorbed_distribution
        if dist is not None:
            out["absorbed_distribution"] = {str(m): p for m, p in sorted(dist.items())}
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
        absorbed_distribution=environment.distribution,
        mean_intensity_absorption=coefficients[0],
        coherence_absorption=coefficients[1],
        separability={"env_entanglement_entropy": environment.entropy},
    )
