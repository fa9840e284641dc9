"""Discrete-variable scenarios: path-entangled photons, Bell pairs, NOON states.

Bell states of two labeled photons are encoded dual-rail: one travelling pair
per internal label (rail "A" and rail "B"), with path operations acting
identically on both rails.  All states here carry a finite photon number, so
runs are exact: the working cutoff is the total photon number.  Every input's
standing state has a closed form (standing_state), so no run mixes to reach it.
One rail reads every output there; the Bell kinds still read their conditional
outputs from the light x environment joint of fock.full_pipeline, which stays
because the benchmark's call-chain test spans it and bs_transform.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .absorber import CANONICAL, AbsorberSpec
from .fock import CutoffError, PureState
from .modes import C, K, MINUS_K, S, ModeLabel
from .results import ScenarioResult, fock_result

RAIL_A, RAIL_B = "A", "B"


class DvKind(Enum):
    SINGLE_PHOTON = "SINGLE_PHOTON"
    BELL_PSI_PLUS = "BELL_PSI_PLUS"
    BELL_PSI_MINUS = "BELL_PSI_MINUS"
    BELL_PHI_PLUS = "BELL_PHI_PLUS"
    BELL_PHI_MINUS = "BELL_PHI_MINUS"
    NOON = "NOON"


# Bell kind -> (sign, crossed, the kind the balanced mix on each rail takes it to);
# a crossed pair holds one rail's K with the other's MINUS_K, an uncrossed one like with like
_BELL = {
    DvKind.BELL_PSI_PLUS: (1.0, True, DvKind.BELL_PHI_MINUS),
    DvKind.BELL_PSI_MINUS: (-1.0, True, DvKind.BELL_PSI_MINUS),
    DvKind.BELL_PHI_PLUS: (1.0, False, DvKind.BELL_PHI_PLUS),
    DvKind.BELL_PHI_MINUS: (-1.0, False, DvKind.BELL_PSI_PLUS),
}
BELL_KINDS = set(_BELL)


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


def _bell_state(kind: DvKind, cutoff: int, plus: ModeLabel = K,
                minus: ModeLabel = MINUS_K) -> PureState:
    """The Bell state `kind` over (plus_A, plus_B, minus_A, minus_B)."""
    sign, crossed, _ = _BELL[kind]
    p_a, p_b, m_a, m_b = (mode.with_rail(rail) for mode in (plus, minus) for rail in (RAIL_A, RAIL_B))
    pairs = ({p_a: 1, m_b: 1}, {p_b: 1, m_a: 1}) if crossed else ({p_a: 1, p_b: 1}, {m_a: 1, m_b: 1})
    amp = 1.0 / math.sqrt(2.0)
    return fock.superposition(zip((amp, sign * amp), pairs), (p_a, p_b, m_a, m_b), cutoff)


def build_input(scenario: DvScenario, cutoff: int) -> PureState:
    """Travelling-basis input ket for the scenario; a single photon is NOON at n = 1."""
    if scenario.kind in BELL_KINDS:
        return _bell_state(scenario.kind, cutoff)
    n, amp = scenario.total_photons, 1.0 / math.sqrt(2.0)
    phase = np.exp(1j * scenario.delta_theta)
    terms = [(amp, {K: n, MINUS_K: 0}), (amp * phase, {K: 0, MINUS_K: n})]
    return fock.superposition(terms, (K, MINUS_K), cutoff)


# (i^m, sign) by m mod 4: cos((pi m + delta)/2) = sign * (cos, sin)[m mod 2] of delta/2
_QUARTER_TURNS = ((1 + 0j, 1.0), (1j, -1.0), (-1 + 0j, -1.0), (-1j, 1.0))


def noon_standing_decomposition(
    n: int, delta_theta: float
) -> list[tuple[int, complex]]:
    """Standing-basis expansion coefficients of a NOON input.

    Entry (m, c_m) multiplies the ket with n-m photons in the cosine mode and
    m in the sine mode: c_m = i^m cos((pi m + delta)/2) sqrt(binom(n, m) / 2^(n-1)),
    bs_transform's output times e^{-i delta/2}.  Both periodic factors are read
    off m mod 4 and the binomial ratio is one correctly rounded division, so
    every entry is exact to a few ulp at any n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    trig = (math.cos(delta_theta / 2.0), math.sin(delta_theta / 2.0))
    out: list[tuple[int, complex]] = []
    for m in range(n + 1):
        phase, sign = _QUARTER_TURNS[m % 4]
        magnitude = sign * trig[m % 2] * math.sqrt(math.comb(n, m) / 2 ** (n - 1))
        out.append((m, phase * magnitude))
    return out


def standing_state(scenario: DvScenario, cutoff: int) -> PureState:
    """fock.standing_basis(build_input(scenario, cutoff)) in closed form, to
    rounding and up to BELL_PSI_MINUS's sign: a Bell state's image (_BELL) on
    (C, S), one rail's noon_standing_decomposition times e^{i delta/2}."""
    if scenario.kind in BELL_KINDS:
        return _bell_state(_BELL[scenario.kind][2], cutoff, C, S)
    n, phase = scenario.total_photons, cmath.exp(0.5j * scenario.delta_theta)  # the mix's phase
    terms = noon_standing_decomposition(n, scenario.delta_theta)
    return fock.superposition([(c * phase, {C: n - m, S: m}) for m, c in terms], (C, S), cutoff)


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
    standing = standing_state(scenario, working_cutoff)
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
    outputs = (fock.conditional_outputs(
        fock.full_pipeline(build_input(scenario, working_cutoff), absorber), counts)
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
