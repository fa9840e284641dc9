"""Parameter sweeps: figure-style data grids and custom scenario sweeps.

Presets emit CSV grids (comma separated, UTF-8, header row, 12 significant
digits).  Undefined coefficients serialize as the literal token "undefined".
Each preset evaluates its whole grid as one batch on the Gaussian engine;
custom sweeps run their scenario files one point after another.  The CSV text
is built once, by csv_text, for a file or for stdout alike.  Output is
byte-identical for identical inputs.
"""
from __future__ import annotations

import copy
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import gaussian, scenario_io
from .modes import K, MINUS_K
from .results import round_sig

DEFAULT_GRID = 101
PRESETS = ("fig6", "fig8", "fig9a", "fig9b")
_SMALLEST_NORMAL = sys.float_info.min  # nonzero floats below it are subnormal


def format_cell(value: float | str | None) -> str:
    if type(value) is float and not 0.0 < abs(value) < _SMALLEST_NORMAL:
        return f"{value:.12g}"  # the common cell, tested first
    if value is None:
        return "undefined"
    if isinstance(value, str):
        return value
    value = float(value)
    if 0.0 < abs(value) < _SMALLEST_NORMAL:
        # a subnormal holds fewer digits, so the float nearest its 12-digit
        # rounding can print differently: round first, as results.clean does
        value = round_sig(value)
    return f"{value:.12g}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The whole CSV: the header line, then one line of format_cell cells per row."""
    return "\n".join([",".join(header)] + [",".join(map(format_cell, row)) for row in rows]) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    text = csv_text(header, rows)  # built before the file is opened, written at once
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# figure-style presets (all on the Gaussian engine)


def _outer(slow: np.ndarray, fast: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (slow, fast) pair, flattened with `fast` varying fastest."""
    return np.repeat(slow, len(fast)), np.tile(fast, len(slow))


def _rows(*columns) -> list[list]:
    """Rows from equal-length columns; NaN (undefined) in the last becomes None."""
    *params, values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return [list(row) for row in zip(*params, [None if v != v else v for v in values])]


def _epr_absorption(alpha_k: np.ndarray, alpha_mk, xi) -> tuple[np.ndarray, np.ndarray]:
    """Absorption coefficients of the entangled pair with given travelling means."""
    alpha_g, alpha_h = gaussian.epr_params_from_means(alpha_k, alpha_mk, xi)
    return gaussian.absorption_coefficients(gaussian.epr_state(alpha_g, alpha_h, xi))


def sweep_fig6(grid: int = DEFAULT_GRID) -> tuple[list[str], list[list]]:
    """Standing-pair inseparability over both squeezing angles at xi = 1."""
    xi = 1.0
    angles = np.linspace(0.0, 2.0 * math.pi, grid)
    phi_k, phi_mk = _outer(angles, angles)
    state = gaussian.tensor(
        gaussian.squeezed_coherent_state(gaussian.SqueezedSpec(xi=xi, phi=phi_k), K),
        gaussian.squeezed_coherent_state(gaussian.SqueezedSpec(xi=xi, phi=phi_mk), MINUS_K),
    )
    values = gaussian.duan_from_partner_basis(state, MINUS_K, K)  # of the (C, S) pair
    return ["phi_k", "phi_minus_k", "standing_inseparability"], _rows(phi_k, phi_mk, values)


def sweep_fig8(grid: int = DEFAULT_GRID) -> tuple[list[str], list[list]]:
    """Intensity absorption of the entangled pair: three (theta, |alpha|)
    panels at fixed squeezing plus one (theta, xi) panel at |alpha| = 1."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid)
    theta, mag = _outer(thetas, np.linspace(0.0, 2.0, grid))
    theta_d, xi_d = _outer(thetas, np.linspace(0.01, 2.0, grid))
    points = grid * grid
    panel = [p for p in "abcd" for _ in range(points)]
    theta = np.concatenate([theta, theta, theta, theta_d])
    mag = np.concatenate([mag, mag, mag, np.ones(points)])
    xi = np.concatenate([np.full(points, 0.1), np.full(points, 0.5), np.full(points, 1.5), xi_d])
    coeff_int, _ = _epr_absorption(mag * np.exp(1j * theta), mag.astype(complex), xi)
    header = ["panel", "theta_k", "alpha_mag", "xi", "intensity_absorption"]
    return header, _rows(panel, theta, mag, xi, coeff_int)


def sweep_fig9a(grid: int = DEFAULT_GRID) -> tuple[list[str], list[list]]:
    """Coherence absorption over (theta, |alpha|) for equal amplitudes."""
    theta, mag = _outer(np.linspace(0.0, 2.0 * math.pi, grid), np.linspace(0.0, 2.0, grid))
    _, coeff_coh = _epr_absorption(mag * np.exp(1j * theta), mag.astype(complex), 0.5)
    return ["theta_k", "alpha_mag", "coherence_absorption"], _rows(theta, mag, coeff_coh)


def sweep_fig9b(grid: int = DEFAULT_GRID) -> tuple[list[str], list[list]]:
    """Coherence absorption over (theta, amplitude ratio) at |alpha_mk| = 1."""
    theta, ratio = _outer(np.linspace(0.0, 2.0 * math.pi, grid), np.linspace(1.0, 10.0, grid))
    _, coeff_coh = _epr_absorption(ratio * np.exp(1j * theta), 1.0 + 0.0j, 0.5)
    return ["theta_k", "amplitude_ratio", "coherence_absorption"], _rows(theta, ratio, coeff_coh)


def run_preset(name: str, grid: int = DEFAULT_GRID) -> tuple[list[str], list[list]]:
    if grid < 2:
        raise ValueError("grid must be >= 2")
    table = {"fig6": sweep_fig6, "fig8": sweep_fig8, "fig9a": sweep_fig9a, "fig9b": sweep_fig9b}
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(table)}")
    scenario_io.check_sweep_points(grid * grid * (4 if name == "fig8" else 1), "--grid")
    return table[name](grid)


# ---------------------------------------------------------------------------
# custom sweeps over scenario files


def _set_by_path(obj: dict, path: str, value: float) -> None:
    parts = path.split(".")
    target = obj
    for part in parts[:-1]:
        if not isinstance(target, dict) or part not in target:
            raise scenario_io.ScenarioFileError(
                "sweep.parameter", f"path {path!r} not found in scenario file"
            )
        target = target[part]
    if not isinstance(target, dict):
        raise scenario_io.ScenarioFileError(
            "sweep.parameter", f"path {path!r} not found in scenario file"
        )
    target[parts[-1]] = value


def sweep_custom(spec: scenario_io.ScenarioFile) -> tuple[list[str], list[list]]:
    """Sweep one scalar parameter of a scenario file over a linear grid."""
    if spec.sweep is None:
        raise scenario_io.ScenarioFileError("sweep", "missing sweep block")
    sweep = spec.sweep
    rows = []
    for value in np.linspace(sweep.start, sweep.stop, sweep.points):
        raw = copy.deepcopy(spec.raw)
        raw["sweep"] = None
        _set_by_path(raw, sweep.parameter, float(value))
        parsed = scenario_io.parse_scenario_dict(raw)
        result = scenario_io.run_scenario_file(parsed)
        row = [float(value), result.mean_intensity_absorption, result.coherence_absorption]
        if result.engine == "FOCK":
            dist = result.absorbed_distribution or {}
            row.append(sum(m * p for m, p in dist.items()))
            row.append(result.separability.get("env_entanglement_entropy"))
        else:
            row.append(result.separability.get("duan_travelling"))
            row.append(result.separability.get("duan_standing"))
        rows.append(row)
    if spec.engine == "FOCK":
        extra = ["mean_absorbed_photons", "env_entanglement_entropy"]
    else:
        extra = ["duan_travelling", "duan_standing"]
    return [sweep.parameter, "intensity_absorption", "coherence_absorption", *extra], rows
