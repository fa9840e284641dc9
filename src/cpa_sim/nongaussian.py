"""Two-mode continuous-variable inputs on the Fock engine, built by one function.

Each input is two single-mode factors, D(beta) S(xi e^{i phi})|0> (a
gaussian.SqueezedSpec) or its even part (a cat), placed on one basis: CAT_CAT is
(cat, cat), COHERENT_CAT (coherent, cat), COHERENT_SQUEEZED (coherent, squeezed
vacuum) and bridged SQUEEZED_PAIR two squeezed coherent states, on (K, MINUS_K);
bridged EPR is its preceding modes g and h, on (C, S).  `run_pair` builds the
standing state, the travelling pairs' in closed form (fock.balanced_pair: no
mix), and reads every output there: the absorption
coefficients are moments of the standing state.  Each kind's entry point keeps
only its cutoff, its echo and its extras.  A cat interferes with itself (or a
coherent partner) on the basis change, so the absorber takes all or nothing, up
to a branch overlap that the runners report exactly.
"""
from __future__ import annotations

import math

import numpy as np

from . import fock
from .absorber import CANONICAL, AbsorberSpec
from .fock import CutoffError, PureState
from .gaussian import SqueezedSpec
from .modes import C, K, MINUS_K, S
from .results import LevelTable, ScenarioResult, fock_result

SQUEEZED_TAIL = 1e-12  # weight a squeezed partner's automatic cutoff leaves above it
PAIR_PEAK_STATES = 4.5  # a pair run's peak memory, in dense (cutoff+1)^2 states (settle_cutoff)


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


def squeezed_vacuum_cutoff(xi: float) -> int:
    """Even occupation beyond which a squeezed vacuum carries < SQUEEZED_TAIL weight,
    or the first even cutoff past the two-mode memory budget (fock.budget_cutoff)."""
    ratio = math.tanh(abs(xi)) ** 2
    if ratio == 0.0:
        return 2
    if ratio == 1.0:  # |xi| past ~19: the squeezer rejects sinh^2 xi > 1e15 at any cutoff
        return 1002
    term = 1.0 / math.cosh(xi)  # weight of the vacuum component
    m = 0
    while term * ratio / (1.0 - ratio) > SQUEEZED_TAIL and (
        fock.budget_bytes(2 * (m + 1), 2) <= fock.MEMORY_BUDGET
    ):
        m += 1
        term *= ratio * (2 * m - 1) / (2 * m)
    return 2 * (m + 1)


def settle_cutoff(requested: int | None, needed: int, automatic: float) -> int:
    """The cutoff of a two-mode run: `requested`, refused below `needed`, or
    `automatic` when none is given, within the memory budget for PAIR_PEAK_STATES."""
    if requested is None:
        requested = automatic
    elif requested < needed:
        raise CutoffError(f"cutoff {requested} below required {needed}")
    return fock.budget_cutoff(requested, 2, PAIR_PEAK_STATES)


def run_pair(
    scenario: dict,
    absorber: AbsorberSpec,
    numerics: dict,
    factors: tuple[SqueezedSpec, SqueezedSpec],
    even: tuple[bool, bool] = (False, False),
    automatic: bool = False,
) -> tuple[ScenarioResult, PureState, fock.EnvironmentReadout]:
    """The result of `factors` (each the even cat of its alpha where `even` says
    so) built at numerics["cutoff"], with the standing state and environment
    readout it was read from.  Each factor is built alone for its tail check, a
    repeated one once off EPR.  EPR's g and h sit on (C, S), since the mix that
    makes them EPR light is the pipeline's first stage; the rest sit on (K,
    MINUS_K) (fock.balanced_pair).
    An `automatic` cutoff whose standing state fails only balanced_pair's norm
    check is raised one level, within the memory budget, and the run rebuilt."""
    cutoff, on_standing = numerics["cutoff"], scenario["kind"] == "EPR"
    checks = list(zip(factors, even, (C, S) if on_standing else (K, MINUS_K)))
    if not on_standing and checks[0][:2] == checks[1][:2]:
        checks.pop()  # identical factors pass or fail one tail check alike
    built = [
        build_cat(spec.alpha, cutoff, mode) if cat
        else fock.squeezed_coherent_state(spec.alpha, spec.xi, spec.phi, cutoff, mode)
        for spec, cat, mode in checks
    ]
    try:
        standing = fock.tensor(*built) if on_standing else fock.balanced_pair([  # a cat's two halves
            [(_cat_weight(spec.alpha), a, 0.0, 0.0) for a in (spec.alpha, -spec.alpha)] if cat
            else [(1.0, spec.alpha, spec.xi, spec.phi)] for spec, cat in zip(factors, even)], cutoff)
    except fock.NormLostError:
        if not automatic:
            raise
        numerics = {**numerics, "cutoff": settle_cutoff(None, 0, cutoff + 1)}
        return run_pair(scenario, absorber, numerics, factors, even)
    environment = fock.absorber_environment(standing, absorber)
    coefficients = fock.absorption_coefficients(standing)
    result = fock_result(scenario, absorber, numerics, environment, coefficients)
    return result, standing, environment


def _cat_weight(alpha: complex) -> float:
    """1 / sqrt(2 (1 + e^{-2|alpha|^2})): the even cat's weight on |alpha> and on |-alpha>."""
    return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2)))


def build_cat(alpha: complex, cutoff: int, mode=K) -> PureState:
    """Normalized even cat state: the even part of the coherent amplitudes."""
    coh = fock.displaced_squeezed_amplitudes(alpha, 0.0, 0.0, cutoff + 1)
    amps = np.zeros_like(coh)
    amps[0::2] = 2.0 * _cat_weight(alpha) * coh[0::2]
    truncated_norm = float(np.linalg.norm(amps))
    if 1.0 - truncated_norm > fock.TRUNCATION_TOL:
        raise CutoffError(
            f"cat state at |alpha|={abs(alpha):.3f} loses {1 - truncated_norm:.2e} "
            f"of its norm at cutoff {cutoff}"
        )
    return PureState((mode,), cutoff, amps / truncated_norm)


def run_cat_cat(
    alpha: complex,
    absorber: AbsorberSpec = CANONICAL,
    cutoff: int | None = None,
) -> ScenarioResult:
    """Identical even cats on both sides of the absorber.

    Reports the all-absorbed / all-transmitted probabilities, the
    zero-absorption conditional output, and the light-absorber entanglement.
    """
    needed, cat = cat_cutoff(alpha), SqueezedSpec(alpha)
    # +2 keeps the even-cat parity doubling of the photon-number tail
    # inside the truncation budget of the basis change
    numerics = {"cutoff": settle_cutoff(cutoff, needed, needed + 2)}
    result, standing, environment = run_pair({"kind": "CAT_CAT", "alpha": alpha}, absorber,
                                             numerics, (cat, cat), (True, True), cutoff is None)
    cutoff = result.numerics["cutoff"]
    p_zero = float(environment.distribution[0])
    # no photon absorbed: level n keeps b[n, n] = tau_c^n, and the (C, S) state is
    # pure (one rail).  The mix sends |alpha>|-alpha> + |-alpha>|alpha> to vacuum
    # on C times the even cat of sqrt(2) alpha on S, so only C = 0 meets it.
    kept = np.take(standing.amplitudes, 0, axis=standing.axis(C))
    if absorber.swap_roles:  # S absorbed; C = 0 keeps tau_c^0 = 1
        kept = kept * absorber.tau_c ** np.arange(cutoff + 1.0)
    target = fock.displaced_squeezed_amplitudes(math.sqrt(2.0) * alpha, 0.0, 0.0, cutoff + 1)
    target[1::2] = 0.0  # normalized over the kept levels below
    fidelity = float(abs(np.vdot(target, kept)) ** 2 / np.vdot(target, target).real)
    result.extras = {
        "p_all_absorbed": environment.p_all_absorbed,
        "p_all_transmitted": p_zero,
        "zero_absorption_fidelity_with_opposite_pair": fidelity / p_zero,
    }
    result.conditional_outputs = [{"absorbed": 0, "probability": p_zero, "purity": 1.0}]
    return result


def run_asymmetric(
    alpha: complex,
    partner: float | complex,
    absorber: AbsorberSpec = CANONICAL,
    cutoff: int | None = None,
) -> ScenarioResult:
    """Coherent light against a squeezed vacuum or a cat on the other side.

    A real ``partner`` is the squeezing xi of a COHERENT_SQUEEZED run, a complex
    one the cat amplitude of a COHERENT_CAT run.  Reports the absorption
    coefficients, the absorbed-photon distribution, and the standing-basis joint
    photon distribution (whose anti-correlation is the NOON-like signature of
    the coherent-squeezed case).
    """
    intensity = abs(alpha) * abs(alpha)  # inf, not OverflowError, past 1e154
    if isinstance(partner, complex):
        needed = poisson_tail_cutoff(intensity + abs(partner) * abs(partner)) + 2
        scenario = {"kind": "COHERENT_CAT", "alpha": alpha, "cat_alpha": partner}
        other, even = SqueezedSpec(partner), (False, True)
    else:
        needed = poisson_tail_cutoff(intensity) + squeezed_vacuum_cutoff(partner)
        scenario = {"kind": "COHERENT_SQUEEZED", "alpha": alpha, "xi": partner}
        other, even = SqueezedSpec(0.0, partner), (False, False)
    numerics = {"cutoff": settle_cutoff(cutoff, needed, needed)}
    result, standing, environment = run_pair(
        scenario, absorber, numerics, (SqueezedSpec(alpha), other), even)
    standing_dist = fock.joint_occupation_distribution(standing, C, S)
    reported = standing_dist > 1e-12
    result.extras = {
        "standing_joint_distribution": LevelTable(standing_dist[reported], np.argwhere(reported)),
        "standing_cross_sector_mass": float(standing_dist[1:, 1:].sum()),
        "p_all_absorbed": environment.p_all_absorbed,
        "p_all_transmitted": float(environment.distribution[0]),
    }
    return result
