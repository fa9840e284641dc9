"""Discrete-variable scenarios: path-entangled photons, Bell pairs, NOON states.

Bell states of two labeled photons are encoded dual-rail: one travelling pair
per internal label (rail "A" and rail "B"), with path operations acting
identically on both rails.  All states here carry a finite photon number, so
runs are exact: the working cutoff is the total photon number.  Only the Bell
kinds build the light x environment joint; one rail reads every output on (C, S).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .absorber import CANONICAL, AbsorberSpec
from .fock import CutoffError, PureState
from .modes import K, MINUS_K, ModeLabel
from .results import ScenarioResult, fock_result

RAIL_A, RAIL_B = "A", "B"


class DvKind(Enum):
    SINGLE_PHOTON = "SINGLE_PHOTON"
    BELL_PSI_PLUS = "BELL_PSI_PLUS"
    BELL_PSI_MINUS = "BELL_PSI_MINUS"
    BELL_PHI_PLUS = "BELL_PHI_PLUS"
    BELL_PHI_MINUS = "BELL_PHI_MINUS"
    NOON = "NOON"


BELL_KINDS = {
    DvKind.BELL_PSI_PLUS,
    DvKind.BELL_PSI_MINUS,
    DvKind.BELL_PHI_PLUS,
    DvKind.BELL_PHI_MINUS,
}


@dataclass(frozen=True)
class DvScenario:
    kind: DvKind
    n: int = 1
    delta_theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is DvKind.NOON and self.n < 1:
            raise ValueError("NOON needs n >= 1")
        if not math.isfinite(self.delta_theta):
            raise ValueError("delta_theta must be finite")

    @property
    def total_photons(self) -> int:
        if self.kind is DvKind.SINGLE_PHOTON:
            return 1
        if self.kind in BELL_KINDS:
            return 2
        return self.n


def _bell_terms(kind: DvKind) -> list[tuple[complex, dict[ModeLabel, int]]]:
    k_a, k_b = K.with_rail(RAIL_A), K.with_rail(RAIL_B)
    mk_a, mk_b = MINUS_K.with_rail(RAIL_A), MINUS_K.with_rail(RAIL_B)
    amp = 1.0 / math.sqrt(2.0)
    if kind is DvKind.BELL_PSI_PLUS:
        return [(amp, {k_a: 1, mk_b: 1}), (amp, {k_b: 1, mk_a: 1})]
    if kind is DvKind.BELL_PSI_MINUS:
        return [(amp, {k_a: 1, mk_b: 1}), (-amp, {k_b: 1, mk_a: 1})]
    if kind is DvKind.BELL_PHI_PLUS:
        return [(amp, {k_a: 1, k_b: 1}), (amp, {mk_a: 1, mk_b: 1})]
    if kind is DvKind.BELL_PHI_MINUS:
        return [(amp, {k_a: 1, k_b: 1}), (-amp, {mk_a: 1, mk_b: 1})]
    raise ValueError(f"not a Bell kind: {kind}")


def build_input(scenario: DvScenario, cutoff: int) -> PureState:
    """Travelling-basis input ket for the scenario; a single photon is NOON at n = 1."""
    if scenario.kind in BELL_KINDS:
        modes = (
            K.with_rail(RAIL_A),
            K.with_rail(RAIL_B),
            MINUS_K.with_rail(RAIL_A),
            MINUS_K.with_rail(RAIL_B),
        )
        return fock.superposition(_bell_terms(scenario.kind), modes, cutoff)
    n, amp = scenario.total_photons, 1.0 / math.sqrt(2.0)
    phase = np.exp(1j * scenario.delta_theta)
    terms = [(amp, {K: n, MINUS_K: 0}), (amp * phase, {K: 0, MINUS_K: n})]
    return fock.superposition(terms, (K, MINUS_K), cutoff)


def bell_standing_state(kind: DvKind, cutoff: int = 2) -> PureState:
    """Expected standing-basis Bell state (on travelling labels, rail-encoded)."""
    return build_input(DvScenario(kind), cutoff)


def noon_standing_decomposition(
    n: int, delta_theta: float
) -> list[tuple[int, complex]]:
    """Standing-basis expansion coefficients of a NOON input.

    Entry (m, c_m) multiplies the ket with n-m photons in the cosine mode and
    m in the sine mode.  Squared magnitudes follow the cosine law
    binom(n, m) cos^2((pi m + delta)/2) / 2^(n-1); the i^m factor keeps the
    expansion exactly consistent with the balanced-beamsplitter convention
    (Hadamard, no extra phase), so the list matches bs_transform output up to
    a global phase.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    scale = 1.0 / math.sqrt(2.0 ** (n - 1))
    out: list[tuple[int, complex]] = []
    for m in range(n + 1):
        magnitude = math.sqrt(math.comb(n, m)) * math.cos((math.pi * m + delta_theta) / 2.0)
        out.append((m, (1j ** m) * magnitude * scale))
    return out


def run_scenario(
    scenario: DvScenario,
    absorber: AbsorberSpec = CANONICAL,
    cutoff: int = fock.DEFAULT_CUTOFF,
    report_threshold: float = 1e-9,
) -> ScenarioResult:
    """Build the input and its standing state, run the absorber, and collect statistics.

    Photon number is conserved, so the tensors are held at the exact photon
    content of the scenario regardless of the (validated) requested cutoff, and
    are charged for the joint even on one rail, which builds none.  Every run
    reads its environment from the standing state (absorber_environment); one
    rail reads its conditional outputs there too (absorber_outputs), the Bell
    kinds from their joint (conditional_outputs).  A count is reported when its
    probability in the absorbed distribution is above both report_threshold
    and fock.CONDITIONING_FLOOR.
    """
    if cutoff < scenario.total_photons:
        raise CutoffError(
            f"cutoff {cutoff} below photon content {scenario.total_photons}"
        )
    rails = 2 if scenario.kind in BELL_KINDS else 1
    working_cutoff = fock.budget_cutoff(scenario.total_photons, 3 * rails)  # pair + env per rail
    state = build_input(scenario, working_cutoff)
    standing = fock.standing_basis(state)
    result = fock_result(
        {"kind": scenario.kind.value, "n": scenario.n, "delta_theta": scenario.delta_theta},
        absorber,
        {"cutoff": cutoff, "working_cutoff": working_cutoff},
        fock.absorber_environment(standing, absorber),
        (None, None),
    )
    distribution = result.absorbed_distribution
    absorbed = sum(m * p for m, p in distribution.items())
    result.mean_intensity_absorption = absorbed / scenario.total_photons  # the absorbed fraction
    floor = max(report_threshold, fock.CONDITIONING_FLOOR)  # reported above both
    counts = [m for m, prob in sorted(distribution.items()) if prob > floor]
    outputs = (fock.conditional_outputs(fock.full_pipeline(state, absorber), counts)
               if rails == 2 else fock.absorber_outputs(standing, absorber, counts))
    for output in outputs:
        result.conditional_outputs.append(
            {
                "absorbed": output.absorbed,
                "probability": distribution[output.absorbed],
                "purity": output.purity,
                "mean_output_photons": {
                    str(mode): number for mode, number in output.mean_photons.items()
                },
            }
        )
    return result
