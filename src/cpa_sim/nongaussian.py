"""Cat-state and asymmetric illumination scenarios on the Fock engine.

The even cat |alpha> + |-alpha> interferes with itself (or with a coherent /
squeezed partner) on the standing-wave basis change, concentrating all light
in one standing mode; the absorber then takes everything or nothing.  The
branch overlap of non-orthogonal coherent states makes the 50/50 split an
asymptotic statement, so runners report the exact truncated values.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import fock
from .absorber import CANONICAL, AbsorberSpec
from .fock import CutoffError, PureState
from .modes import C, K, MINUS_K, S, ModeLabel
from .results import ScenarioResult, fock_result


def cat_cutoff(alpha: complex) -> int:
    """Cutoff keeping the sqrt(2)-amplified standing branch representable,
    within the two-mode memory budget (fock.budget_cutoff)."""
    mag = abs(alpha)
    return fock.budget_cutoff(2.0 * mag * mag + 8.0 * math.sqrt(2.0) * mag, 2)


def poisson_tail_cutoff(mean_photons: float) -> int:
    """Occupation above which a Poissonian tail is numerically negligible, within
    the two-mode memory budget (fock.budget_cutoff)."""
    spread = 8.0 * math.sqrt(2.0 * max(mean_photons, 1.0))
    return fock.budget_cutoff(mean_photons + spread + 2.0, 2)


def squeezed_vacuum_cutoff(xi: float, tail: float = 1e-12) -> int:
    """Even occupation beyond which a squeezed vacuum carries < tail weight, or the
    first even cutoff past the two-mode memory budget (fock.budget_cutoff)."""
    ratio = math.tanh(abs(xi)) ** 2
    if ratio == 0.0:
        return 2
    if ratio == 1.0:  # |xi| past ~19: the squeezer rejects sinh^2 xi > 1e15 at any cutoff
        return 1002
    term = 1.0 / math.cosh(xi)  # weight of the vacuum component
    m = 0
    while term * ratio / (1.0 - ratio) > tail and (
        fock.budget_bytes(2 * (m + 1), 2) <= fock.MEMORY_BUDGET
    ):
        m += 1
        term *= ratio * (2 * m - 1) / (2 * m)
    return 2 * (m + 1)


def settle_cutoff(requested: int | None, needed: int, automatic: float) -> int:
    """The cutoff of a two-mode run: `requested`, refused below `needed`, or
    `automatic` when none is given, within the memory budget (fock.budget_cutoff)."""
    if requested is None:
        requested = automatic
    elif requested < needed:
        raise CutoffError(f"cutoff {requested} below required {needed}")
    return fock.budget_cutoff(requested, 2)


def run_pair(
    scenario: dict, absorber: AbsorberSpec, numerics: dict, state: PureState, standing: PureState
) -> tuple[ScenarioResult, fock.EnvironmentReadout]:
    """The result of a (K, MINUS_K) input `state` whose standing-basis image is
    `standing`, with the environment readout it was read from."""
    environment = fock.absorber_environment(standing, absorber)
    coefficients = fock.absorption_coefficients(state, K, MINUS_K)
    result = fock_result(scenario, absorber, numerics, environment, coefficients)
    return result, environment


def build_cat(alpha: complex, cutoff: int, mode=K) -> PureState:
    """Normalized even cat state: the even part of the coherent amplitudes."""
    norm = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2)))
    coh = fock.displaced_squeezed_amplitudes(alpha, 0.0, 0.0, cutoff + 1)
    amps = np.zeros_like(coh)
    amps[0::2] = 2.0 * norm * coh[0::2]
    truncated_norm = float(np.linalg.norm(amps))
    if 1.0 - truncated_norm > fock.TRUNCATION_TOL:
        raise CutoffError(
            f"cat state at |alpha|={abs(alpha):.3f} loses {1 - truncated_norm:.2e} "
            f"of its norm at cutoff {cutoff}"
        )
    return PureState((mode,), cutoff, amps / truncated_norm)


class AsymmetricKind(Enum):
    COHERENT_SQUEEZED = "COHERENT_SQUEEZED"
    COHERENT_CAT = "COHERENT_CAT"


def run_cat_cat(
    alpha: complex,
    absorber: AbsorberSpec = CANONICAL,
    cutoff: int | None = None,
) -> ScenarioResult:
    """Identical even cats on both sides of the absorber.

    Reports the all-absorbed / all-transmitted probabilities, the
    zero-absorption conditional output, and the light-absorber entanglement.
    """
    needed = cat_cutoff(alpha)
    # +2 keeps the even-cat parity doubling of the photon-number tail
    # inside the truncation budget of the basis change
    cutoff = settle_cutoff(cutoff, needed, needed + 2)
    input_state = fock.tensor(build_cat(alpha, cutoff, K), build_cat(alpha, cutoff, MINUS_K))
    standing = fock.standing_basis(input_state)
    result, environment = run_pair(
        {"kind": "CAT_CAT", "alpha": alpha}, absorber, {"cutoff": cutoff}, input_state, standing
    )
    p_zero = environment.distribution[0]
    # no photon absorbed: level n keeps b[n, n] = tau_c^n and the (C, S) state is
    # pure (one rail); only it goes back to the travelling basis, checked as the joint
    scale = absorber.tau_c ** np.arange(cutoff + 1.0) / math.sqrt(p_zero)
    absorbed_axis = standing.axis(ModeLabel(absorber.absorbed_kind))
    kept = standing.amplitudes * np.expand_dims(scale, 1 - absorbed_axis)
    survivors = fock.travelling_basis(PureState(standing.modes, cutoff, kept), weight=p_zero)
    # survivors exit as |alpha>|-alpha> + |-alpha>|alpha> (up to branch overlap)
    target = fock.superposition_of_coherent_pair(alpha, cutoff)
    result.extras = {
        "p_all_absorbed": environment.p_all_absorbed,
        "p_all_transmitted": p_zero,
        "zero_absorption_fidelity_with_opposite_pair": survivors.fidelity(target),
    }
    result.conditional_outputs = [{"absorbed": 0, "probability": p_zero, "purity": 1.0}]
    return result


def run_asymmetric(
    kind: AsymmetricKind,
    alpha: complex,
    partner_parameter: float | complex,
    absorber: AbsorberSpec = CANONICAL,
    cutoff: int | None = None,
) -> ScenarioResult:
    """Coherent light against a squeezed vacuum or a cat on the other side.

    ``partner_parameter`` is the squeezing magnitude for COHERENT_SQUEEZED and
    the cat amplitude for COHERENT_CAT.  Reports the absorption coefficients,
    the absorbed-photon distribution, and the standing-basis joint photon
    distribution (whose anti-correlation is the NOON-like signature of the
    coherent-squeezed case).
    """
    intensity = abs(alpha) * abs(alpha)  # inf, not OverflowError, past 1e154
    if kind is AsymmetricKind.COHERENT_SQUEEZED:
        xi = float(np.real(partner_parameter))
        needed = poisson_tail_cutoff(intensity) + squeezed_vacuum_cutoff(xi)
    else:
        cat_alpha = complex(partner_parameter)
        needed = poisson_tail_cutoff(intensity + abs(cat_alpha) * abs(cat_alpha)) + 2
    cutoff = settle_cutoff(cutoff, needed, needed)
    if kind is AsymmetricKind.COHERENT_SQUEEZED:
        partner = fock.squeezed_coherent_state(0.0, xi, 0.0, cutoff, MINUS_K)
        scenario = {"kind": kind.value, "alpha": alpha, "xi": xi}
    else:
        partner = build_cat(cat_alpha, cutoff, MINUS_K)
        scenario = {"kind": kind.value, "alpha": alpha, "cat_alpha": cat_alpha}
    input_state = fock.tensor(fock.coherent_state(alpha, cutoff, K), partner)
    standing = fock.standing_basis(input_state)
    result, environment = run_pair(scenario, absorber, {"cutoff": cutoff}, input_state, standing)
    standing_dist = fock.joint_occupation_distribution(standing, C, S)
    reported = standing_dist > 1e-12
    levels, probabilities = np.argwhere(reported).tolist(), standing_dist[reported].tolist()
    result.extras = {
        "standing_joint_distribution": {
            f"{na},{nb}": p for (na, nb), p in zip(levels, probabilities)
        },
        "standing_cross_sector_mass": float(standing_dist[1:, 1:].sum()),
        "p_all_absorbed": environment.p_all_absorbed,
        "p_all_transmitted": environment.distribution[0],
    }
    return result
