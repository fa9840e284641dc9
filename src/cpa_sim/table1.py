"""Regression gate: every headline scenario with its expected outcome.

Each row runs at default numerics and compares computed values against the
known results (absorbed-photon statistics for the discrete scenarios, the
inseparability and absorption coefficients for the continuous ones).  The CLI
prints one pass/fail line per row and exits nonzero if anything drifts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import dv, gaussian, nongaussian
from .absorber import CANONICAL
from .gaussian import SHOT_NOISE
from .results import round_sig

DIST_TOL = 1e-12
CV_TOL = 1e-10


@dataclass
class Check:
    label: str
    expected: float
    computed: float
    tolerance: float
    mode: str = "approx"  # approx | greater | less

    @property
    def passed(self) -> bool:
        if self.mode == "greater":
            return bool(self.computed > self.expected)
        if self.mode == "less":
            return bool(self.computed < self.expected)
        return bool(abs(self.computed - self.expected) <= self.tolerance)


@dataclass
class RowResult:
    name: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def approx(self, label: str, expected: float, computed: float, tol: float) -> None:
        self.checks.append(Check(label, expected, computed, tol))

    def greater(self, label: str, bound: float, computed: float) -> None:
        self.checks.append(Check(label, bound, computed, 0.0, mode="greater"))

    def less(self, label: str, bound: float, computed: float) -> None:
        self.checks.append(Check(label, bound, computed, 0.0, mode="less"))


def _distribution_checks(row: RowResult, result, expected: dict[int, float]) -> None:
    dist = result.absorbed_distribution
    for m, p in expected.items():
        row.approx(f"P(absorb {m})", p, dist.get(m, 0.0), DIST_TOL)
    leakage = sum(p for m, p in dist.items() if m not in expected)
    row.approx("leakage outside expected counts", 0.0, leakage, DIST_TOL)


def _single_photon_row() -> RowResult:
    row = RowResult("single photon: controllable absorption")
    for delta, expected in ((0.0, 1.0), (math.pi, 0.0)):
        res = dv.run_scenario(
            dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=delta), CANONICAL
        )
        dist = res.absorbed_distribution
        row.approx(f"P(absorb) at delta={delta:.2f}", expected, dist.get(1, 0.0), DIST_TOL)
    res = dv.run_scenario(dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=0.7), CANONICAL)
    row.approx(
        "P(absorb) at delta=0.70",
        math.cos(0.35) ** 2,
        res.absorbed_distribution.get(1, 0.0),
        DIST_TOL,
    )
    return row


def _bell_row(kind: dv.DvKind, expected: dict[int, float], note: str) -> RowResult:
    row = RowResult(f"two photons, {note}")
    res = dv.run_scenario(dv.DvScenario(kind), CANONICAL)
    _distribution_checks(row, res, expected)
    row.approx("average intensity absorption", 0.5, res.mean_intensity_absorption, DIST_TOL)
    return row


def _noon_row(n: int, by_delta: dict[float, dict[int, float]]) -> RowResult:
    row = RowResult(f"NOON state with N={n}")
    for delta, expected in by_delta.items():
        res = dv.run_scenario(dv.DvScenario(dv.DvKind.NOON, n, delta), CANONICAL)
        dist = res.absorbed_distribution
        for m, p in expected.items():
            row.approx(f"P(absorb {m}) at delta={delta:.2f}", p, dist.get(m, 0.0), DIST_TOL)
        row.approx(
            f"average absorption at delta={delta:.2f}",
            0.5,
            res.mean_intensity_absorption,
            DIST_TOL,
        )
    return row


def _identical_squeezed_row() -> RowResult:
    row = RowResult("identical squeezed states")
    xi = 1.0
    spec = gaussian.SqueezedSpec(alpha=1.0, xi=xi, phi=0.0)
    res = gaussian.run_squeezed_pair(spec, spec, CANONICAL)
    row.approx(
        "standing-pair inseparability",
        math.exp(2 * xi) + math.exp(-2 * xi),
        res.separability["duan_standing"],
        CV_TOL,
    )
    row.greater(
        "separable standing pair (>= shot noise)",
        SHOT_NOISE - CV_TOL,
        res.separability["duan_standing"],
    )
    row.approx("total coherence absorption", 1.0, res.coherence_absorption, CV_TOL)
    res0 = gaussian.run_squeezed_pair(
        gaussian.SqueezedSpec(alpha=1.0), gaussian.SqueezedSpec(alpha=1.0), CANONICAL
    )
    row.approx("intensity absorption at xi=0", 1.0, res0.mean_intensity_absorption, CV_TOL)
    big = gaussian.SqueezedSpec(alpha=1.0, xi=3.0, phi=0.0)
    res_big = gaussian.run_squeezed_pair(big, big, CANONICAL)
    row.approx(
        "intensity absorption -> 1/2 at large xi",
        0.5,
        res_big.mean_intensity_absorption,
        1e-4,
    )
    return row


def _orthogonal_squeezed_row() -> RowResult:
    row = RowResult("orthogonally squeezed vacuum states")
    xi = 1.0
    res = gaussian.run_squeezed_pair(
        gaussian.SqueezedSpec(xi=xi, phi=math.pi),
        gaussian.SqueezedSpec(xi=xi, phi=0.0),
        CANONICAL,
    )
    row.approx(
        "travelling-pair inseparability",
        math.exp(2 * xi) + math.exp(-2 * xi),
        res.separability["duan_travelling"],
        CV_TOL,
    )
    row.approx(
        "standing-pair inseparability",
        2 * math.exp(-2 * xi),
        res.separability["duan_standing"],
        CV_TOL,
    )
    row.less(
        "entangled standing pair (< shot noise)",
        SHOT_NOISE,
        res.separability["duan_standing"],
    )
    row.approx("intensity absorption", 0.5, res.mean_intensity_absorption, CV_TOL)
    return row


def _epr_row() -> RowResult:
    row = RowResult("EPR state")
    xi = 1.0
    res = gaussian.run_epr(0.0, 0.0, xi, CANONICAL)
    row.approx(
        "travelling-pair inseparability",
        2 * math.exp(-2 * xi),
        res.separability["duan_travelling"],
        CV_TOL,
    )
    row.less(
        "entangled travelling pair (< shot noise)",
        SHOT_NOISE,
        res.separability["duan_travelling"],
    )
    row.approx(
        "standing-pair inseparability",
        math.exp(2 * xi) + math.exp(-2 * xi),
        res.separability["duan_standing"],
        CV_TOL,
    )
    row.greater(
        "separable standing pair (>= shot noise)",
        SHOT_NOISE - CV_TOL,
        res.separability["duan_standing"],
    )
    row.approx("vacuum intensity absorption", 0.5, res.mean_intensity_absorption, CV_TOL)
    return row


def _cat_cat_row() -> RowResult:
    row = RowResult("identical Schroedinger cat states")
    res = nongaussian.run_cat_cat(2.0, CANONICAL)
    row.approx("P(all light absorbed)", 0.5, res.extras["p_all_absorbed"], 1e-3)
    row.approx("P(all light transmitted)", 0.5, res.extras["p_all_transmitted"], 1e-3)
    row.greater(
        "inseparable light-absorber state (entropy > 0.1)",
        0.1,
        res.separability["env_entanglement_entropy"],
    )
    row.approx("intensity absorption", 0.5, res.mean_intensity_absorption, 1e-9)
    return row


def _coherent_squeezed_row() -> RowResult:
    row = RowResult("coherent and squeezed states")
    res = nongaussian.run_asymmetric(1.0, 0.5, CANONICAL)
    row.approx("intensity absorption", 0.5, res.mean_intensity_absorption, 1e-9)
    row.approx("coherence absorption", 0.5, res.coherence_absorption, 1e-9)
    row.greater(
        "inseparable light-absorber state (entropy > 0.1)",
        0.1,
        res.separability["env_entanglement_entropy"],
    )
    return row


def _coherent_cat_row() -> RowResult:
    row = RowResult("coherent and Schroedinger cat states")
    res = nongaussian.run_asymmetric(1.5, 1.5 + 0j, CANONICAL)
    row.approx("intensity absorption", 0.5, res.mean_intensity_absorption, 1e-9)
    row.approx("coherence absorption", 0.5, res.coherence_absorption, 1e-9)
    row.less(
        "standing cross-sector mass (either/or splitting)",
        0.02,
        res.extras["standing_cross_sector_mass"],
    )
    row.greater(
        "inseparable light-absorber state (entropy > 0.1)",
        0.1,
        res.separability["env_entanglement_entropy"],
    )
    return row


def run_table1() -> list[RowResult]:
    return [
        _single_photon_row(),
        _bell_row(dv.DvKind.BELL_PSI_PLUS, {0: 0.5, 2: 0.5}, "triplet (one from each side)"),
        _bell_row(dv.DvKind.BELL_PSI_MINUS, {1: 1.0}, "singlet (fermionic symmetry)"),
        _bell_row(dv.DvKind.BELL_PHI_PLUS, {0: 0.5, 2: 0.5}, "NOON(+) pair"),
        _bell_row(dv.DvKind.BELL_PHI_MINUS, {1: 1.0}, "NOON(-) pair"),
        _noon_row(3, {0.0: {3: 0.25, 1: 0.75}, math.pi: {2: 0.75, 0: 0.25}}),
        _noon_row(4, {0.0: {4: 0.125, 2: 0.75, 0: 0.125}, math.pi: {3: 0.5, 1: 0.5}}),
        _identical_squeezed_row(),
        _orthogonal_squeezed_row(),
        _epr_row(),
        _cat_cat_row(),
        _coherent_squeezed_row(),
        _coherent_cat_row(),
    ]


def format_report(rows: list[RowResult]) -> str:
    lines = []
    for row in rows:
        flag = "PASS" if row.passed else "FAIL"
        lines.append(f"[{flag}] {row.name}")
        for check in row.checks:
            mark = "ok " if check.passed else "BAD"
            if check.mode == "approx":
                lines.append(
                    f"    {mark} {check.label}: expected {round_sig(check.expected)!r}, "
                    f"computed {round_sig(check.computed)!r} (tol {check.tolerance:g})"
                )
            else:
                op = ">" if check.mode == "greater" else "<"
                lines.append(
                    f"    {mark} {check.label}: computed {round_sig(check.computed)!r} "
                    f"{op} {round_sig(check.expected)!r}"
                )
    total = sum(1 for r in rows if r.passed)
    lines.append(f"{total}/{len(rows)} rows passed")
    return "\n".join(lines)


def rows_to_dict(rows: list[RowResult]) -> dict:
    return {
        "rows": [
            {
                "name": row.name,
                "passed": row.passed,
                "checks": [
                    {
                        "label": c.label,
                        "mode": c.mode,
                        "expected": c.expected,
                        "computed": c.computed,
                        "tolerance": c.tolerance,
                        "passed": c.passed,
                    }
                    for c in row.checks
                ],
            }
            for row in rows
        ],
        "all_passed": all(r.passed for r in rows),
    }
