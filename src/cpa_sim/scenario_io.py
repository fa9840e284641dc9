"""Scenario file parsing, validation, and dispatch.

Scenario files are JSON with a top-level ``"schema": 1``.  Angles accept
"pi"-suffixed literals ("0.5pi", "-pi"); complex amplitudes accept a real
number, an [re, im] pair, or {"mag": ..., "phase": ...}.  Validation errors
carry the dotted path of the offending field.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Any

from . import dv, fock, gaussian, nongaussian
from .absorber import AbsorberSpec
from .results import ScenarioResult

SCHEMA_VERSION = 1

KIND_KEYS = {  # the scenario keys of each kind besides "kind"
    **{kind.value: {"delta_theta"} for kind in dv.DvKind},
    "NOON": {"n", "delta_theta"},  # the other DV kinds carry one photon per rail
    "CAT_CAT": {"alpha"},
    "COHERENT_SQUEEZED": {"alpha", "xi"},
    "COHERENT_CAT": {"alpha", "cat_alpha"},
    "SQUEEZED_PAIR": {"k", "minus_k"},
    "EPR": {"alpha_g", "alpha_h", "xi"},
}
FOCK_KINDS = set(KIND_KEYS)
GAUSSIAN_KINDS = {"SQUEEZED_PAIR", "EPR"}
SWEEP_POINT_BYTES = 1024  # a sweep point's peak memory: batch, row, CSV text (fig8: 757)


class ScenarioFileError(ValueError):
    """Validation failure with the dotted field path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _finite(value: int | float, path: str) -> float:
    """The number as a float; NaN, +-Infinity and out-of-range integers are rejected."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFileError(path, f"expected a finite number, got {value!r}")
    return number


def parse_angle(value: Any, path: str) -> float:
    """Float radians; strings may carry a 'pi' suffix (e.g. '0.5pi')."""
    if isinstance(value, bool):
        raise ScenarioFileError(path, "expected an angle, got a boolean")
    if isinstance(value, (int, float)):
        return _finite(value, path)
    if isinstance(value, str):
        text = value.strip().lower().replace(" ", "")
        scale = 1.0
        if text.endswith("pi"):
            text, scale = text[:-2], math.pi
            if text in ("", "+", "-"):
                text += "1"
        try:
            number = float(text)
        except ValueError:
            what = "angle" if scale == 1.0 else "pi literal"
            raise ScenarioFileError(path, f"bad {what} {value!r}") from None
        return _finite(number * scale, path)
    raise ScenarioFileError(path, f"expected an angle, got {type(value).__name__}")


def parse_complex(value: Any, path: str) -> complex:
    """Complex from a real number, [re, im], or {'mag':..., 'phase':...}."""
    if isinstance(value, bool):
        raise ScenarioFileError(path, "expected a complex amplitude, got a boolean")
    if isinstance(value, (int, float)):
        return complex(_finite(value, path))
    if isinstance(value, list):
        numeric = (isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        if len(value) != 2 or not all(numeric):
            raise ScenarioFileError(path, "expected [re, im]")
        return complex(_finite(value[0], path), _finite(value[1], path))
    if isinstance(value, dict):
        extra = set(value) - {"mag", "phase"}
        if extra:
            raise ScenarioFileError(path, f"unknown keys {sorted(extra)}")
        mag = _require_number(value, "mag", path, default=0.0)
        return mag * cmath.exp(1j * parse_angle(value.get("phase", 0.0), f"{path}.phase"))
    raise ScenarioFileError(path, f"bad complex amplitude {value!r}")


def _require_number(obj: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ScenarioFileError(f"{path}.{key}", "missing required field")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFileError(f"{path}.{key}", f"expected a number, got {value!r}")
    return _finite(value, f"{path}.{key}")


@dataclass
class SweepSpec:
    parameter: str
    start: float
    stop: float
    points: int


@dataclass
class ScenarioFile:
    engine: str
    scenario: dict
    absorber: AbsorberSpec
    cutoff: int | None
    tolerance: float
    sweep: SweepSpec | None = None
    raw: dict = field(default_factory=dict)


def _parse_absorber(obj: Any, path: str) -> AbsorberSpec:
    if obj is None:
        return AbsorberSpec()
    if not isinstance(obj, dict):
        raise ScenarioFileError(path, "expected an object")
    extra = set(obj) - {"r", "tau_c", "swap_roles"}
    if extra:
        raise ScenarioFileError(path, f"unknown keys {sorted(extra)}")
    swap = obj.get("swap_roles", False)
    if not isinstance(swap, bool):
        raise ScenarioFileError(f"{path}.swap_roles", "expected a boolean")
    if "r" in obj and "tau_c" in obj:
        raise ScenarioFileError(path, "give either r or tau_c, not both")
    if "tau_c" in obj:
        tau = _require_number(obj, "tau_c", path)
        if not 0.0 <= tau <= 1.0:
            raise ScenarioFileError(f"{path}.tau_c", "must lie in [0, 1]")
        reflection = (tau - 1.0) / 2.0
    else:
        reflection = _require_number(obj, "r", path, default=-0.5)
    try:
        return AbsorberSpec(reflection=reflection, swap_roles=swap)
    except ValueError as exc:
        raise ScenarioFileError(f"{path}.r", str(exc)) from None


def parse_scenario_dict(obj: Any) -> ScenarioFile:
    if not isinstance(obj, dict):
        raise ScenarioFileError("$", "scenario file must be a JSON object")
    schema = obj.get("schema")
    if schema != SCHEMA_VERSION:
        raise ScenarioFileError("schema", f"expected {SCHEMA_VERSION}, got {schema!r}")
    engine = obj.get("engine")
    if engine not in ("FOCK", "GAUSSIAN"):
        raise ScenarioFileError("engine", f"expected FOCK or GAUSSIAN, got {engine!r}")
    scenario = obj.get("scenario")
    if not isinstance(scenario, dict):
        raise ScenarioFileError("scenario", "expected an object")
    kind = scenario.get("kind")
    allowed = FOCK_KINDS if engine == "FOCK" else GAUSSIAN_KINDS
    if kind not in allowed:
        raise ScenarioFileError(
            "scenario.kind",
            f"{kind!r} not valid for engine {engine} (choose from {sorted(allowed)})",
        )
    absorber = _parse_absorber(obj.get("absorber"), "absorber")
    numerics = obj.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ScenarioFileError("numerics", "expected an object")
    extra = set(numerics) - {"cutoff", "tolerance"}
    if extra:
        raise ScenarioFileError("numerics", f"unknown keys {sorted(extra)}")
    cutoff = None
    if "cutoff" in numerics:
        raw_cutoff = numerics["cutoff"]
        if isinstance(raw_cutoff, bool) or not isinstance(raw_cutoff, int) or raw_cutoff < 1:
            raise ScenarioFileError("numerics.cutoff", "expected a positive integer")
        cutoff = raw_cutoff
    tolerance = _require_number(numerics, "tolerance", "numerics", default=1e-9)
    if tolerance < 0:
        raise ScenarioFileError("numerics.tolerance", f"must be >= 0, got {tolerance!r}")
    sweep = None
    if obj.get("sweep") is not None:
        sobj = obj["sweep"]
        if not isinstance(sobj, dict):
            raise ScenarioFileError("sweep", "expected an object")
        extra = set(sobj) - {"parameter", "start", "stop", "points"}
        if extra:
            raise ScenarioFileError("sweep", f"unknown keys {sorted(extra)}")
        parameter = sobj.get("parameter")
        if not isinstance(parameter, str) or not parameter:
            raise ScenarioFileError("sweep.parameter", "expected a dotted field path")
        points = sobj.get("points")
        if isinstance(points, bool) or not isinstance(points, int) or points < 2:
            raise ScenarioFileError("sweep.points", "expected an integer >= 2")
        check_sweep_points(points, "sweep.points")
        sweep = SweepSpec(
            parameter=parameter,
            start=parse_angle(sobj.get("start", None), "sweep.start"),
            stop=parse_angle(sobj.get("stop", None), "sweep.stop"),
            points=points,
        )
    known = {"schema", "engine", "scenario", "absorber", "numerics", "sweep"}
    extra = set(obj) - known
    if extra:
        raise ScenarioFileError("$", f"unknown top-level keys {sorted(extra)}")
    return ScenarioFile(
        engine=engine,
        scenario=scenario,
        absorber=absorber,
        cutoff=cutoff,
        tolerance=tolerance,
        sweep=sweep,
        raw=obj,
    )


def check_sweep_points(points: int, path: str) -> None:
    """ScenarioFileError at `path` when `points` sweep points, SWEEP_POINT_BYTES
    each, exceed fock.MEMORY_BUDGET; raised before anything is allocated."""
    need = points * SWEEP_POINT_BYTES
    if need > fock.MEMORY_BUDGET:
        raise ScenarioFileError(path, f"{points} points need {need / 2**30:.5g} GiB at "
                                f"{SWEEP_POINT_BYTES} bytes a point, above the "
                                f"{fock.MEMORY_BUDGET >> 30} GiB memory budget")


def load_scenario_file(path: str) -> ScenarioFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError("$", f"invalid JSON: {exc}") from None
    return parse_scenario_dict(obj)


def _squeezed_spec(obj: Any, path: str) -> gaussian.SqueezedSpec:
    if not isinstance(obj, dict):
        raise ScenarioFileError(path, "expected an object with alpha/xi/phi")
    extra = set(obj) - {"alpha", "xi", "phi"}
    if extra:
        raise ScenarioFileError(path, f"unknown keys {sorted(extra)}")
    return gaussian.SqueezedSpec(
        alpha=parse_complex(obj.get("alpha", 0.0), f"{path}.alpha"),
        xi=_require_number(obj, "xi", path, default=0.0),
        phi=parse_angle(obj.get("phi", 0.0), f"{path}.phi"),
    )


def run_scenario_file(spec: ScenarioFile) -> ScenarioResult:
    """Dispatch a validated scenario to the right engine."""
    scenario = spec.scenario
    kind = scenario["kind"]
    path = "scenario"
    extra = set(scenario) - KIND_KEYS[kind] - {"kind"}
    if extra:
        raise ScenarioFileError(path, f"unknown keys {sorted(extra)} for kind {kind}")

    if kind == "SQUEEZED_PAIR":
        spec_k = _squeezed_spec(scenario.get("k"), f"{path}.k")
        spec_mk = _squeezed_spec(scenario.get("minus_k"), f"{path}.minus_k")
        if spec.engine == "GAUSSIAN":
            return gaussian.run_squeezed_pair(spec_k, spec_mk, spec.absorber)
        echo = gaussian.squeezed_pair_echo(spec_k, spec_mk)
        return run_bridged_fock(echo, (spec_k, spec_mk), spec.absorber, spec.cutoff)
    if kind == "EPR":
        alpha_g = parse_complex(scenario.get("alpha_g", 0.0), f"{path}.alpha_g")
        alpha_h = parse_complex(scenario.get("alpha_h", 0.0), f"{path}.alpha_h")
        xi = _require_number(scenario, "xi", path)
        if xi < 0:
            raise ScenarioFileError(f"{path}.xi", f"must be >= 0, got {xi!r}")
        if spec.engine == "GAUSSIAN":
            return gaussian.run_epr(alpha_g, alpha_h, xi, spec.absorber)
        echo = {"kind": "EPR", "alpha_g": alpha_g, "alpha_h": alpha_h, "xi": xi}
        factors = gaussian.epr_factors(alpha_g, alpha_h, xi)
        return run_bridged_fock(echo, factors, spec.absorber, spec.cutoff)
    if kind == "CAT_CAT":
        return nongaussian.run_cat_cat(
            parse_complex(scenario.get("alpha", 0.0), f"{path}.alpha"),
            spec.absorber,
            spec.cutoff,
        )
    if kind == "COHERENT_SQUEEZED":
        return nongaussian.run_asymmetric(
            parse_complex(scenario.get("alpha", 0.0), f"{path}.alpha"),
            _require_number(scenario, "xi", path, default=0.0),
            spec.absorber,
            spec.cutoff,
        )
    if kind == "COHERENT_CAT":
        alpha = parse_complex(scenario.get("alpha", 0.0), f"{path}.alpha")
        cat_alpha = parse_complex(
            scenario.get("cat_alpha", scenario.get("alpha", 0.0)), f"{path}.cat_alpha"
        )
        return nongaussian.run_asymmetric(alpha, cat_alpha, spec.absorber, spec.cutoff)
    n = scenario.get("n", 1)  # the DV kinds
    if isinstance(n, bool) or not isinstance(n, int):
        raise ScenarioFileError(f"{path}.n", "expected an integer")
    delta_theta = parse_angle(scenario.get("delta_theta", 0.0), f"{path}.delta_theta")
    try:
        dv_scenario = dv.DvScenario(dv.DvKind(kind), n, delta_theta)
    except ValueError as exc:  # NOON n < 1
        raise ScenarioFileError(f"{path}.n", str(exc)) from None
    # held at exactly its photon number, a DV run loses no norm at any cutoff above it
    cutoff = spec.cutoff
    if cutoff is None:
        cutoff = max(fock.DEFAULT_CUTOFF, dv_scenario.total_photons)
    return dv.run_scenario(dv_scenario, spec.absorber, cutoff, report_threshold=spec.tolerance)


def run_bridged_fock(
    scenario_echo: dict,
    factors: tuple[gaussian.SqueezedSpec, gaussian.SqueezedSpec],
    absorber: AbsorberSpec,
    cutoff: int | None,
) -> ScenarioResult:
    """Run a continuous-variable input bridged onto the truncated Fock engine: two
    squeezed coherent `factors` at `cutoff`, or fock.DEFAULT_CUTOFF when none is given."""
    numerics = {"cutoff": nongaussian.settle_cutoff(cutoff, 0, fock.DEFAULT_CUTOFF),
                "truncation_tolerance": fock.TRUNCATION_TOL}
    return nongaussian.run_pair(scenario_echo, absorber, numerics, factors)[0]
