"""Cat-state and asymmetric illumination scenarios."""
import cmath
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from cpa_sim import fock, nongaussian as ng, scenario_io
from cpa_sim.absorber import CANONICAL, AbsorberSpec
from cpa_sim.fock import CutoffError
from cpa_sim.modes import K, MINUS_K


def test_cat_at_zero_amplitude_is_vacuum():
    cat = ng.build_cat(0.0, 10)
    assert cat.amplitude({K: 0}) == pytest.approx(1.0, abs=1e-14)


def test_cat_has_no_odd_components():
    cat = ng.build_cat(2.0, 40)
    assert np.max(np.abs(cat.amplitudes[1::2])) == 0.0


def test_cat_mean_photon_number():
    alpha = 1.5
    cat = ng.build_cat(alpha, 40)
    mean, number = fock.mode_moments(cat, K)
    mag2 = alpha * alpha
    expected = mag2 * (1.0 - math.exp(-2.0 * mag2)) / (1.0 + math.exp(-2.0 * mag2))
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert number == pytest.approx(expected, abs=1e-12)


def test_cat_insufficient_cutoff_raises():
    with pytest.raises(CutoffError):
        ng.build_cat(3.0, 8)


def test_cat_cat_probabilities_and_conditional_state():
    result = ng.run_cat_cat(2.0)
    assert result.extras["p_all_absorbed"] == pytest.approx(0.5, abs=1e-3)
    assert result.extras["p_all_transmitted"] == pytest.approx(0.5, abs=1e-3)
    fidelity = result.extras["zero_absorption_fidelity_with_opposite_pair"]
    assert fidelity >= 0.999
    assert result.separability["env_entanglement_entropy"] > 0.1
    assert result.mean_intensity_absorption == pytest.approx(0.5, abs=1e-9)
    assert result.coherence_absorption is None  # cats carry no mean amplitude


def test_cat_cat_parity_conservation():
    alpha = 1.5
    cat_k = ng.build_cat(alpha, ng.cat_cutoff(alpha) + 2, K)
    cat_mk = ng.build_cat(alpha, ng.cat_cutoff(alpha) + 2, MINUS_K)
    joint = fock.full_pipeline(fock.tensor(cat_k, cat_mk), CANONICAL)
    totals = fock.total_occupation_distribution(joint, joint.modes)
    odd_mass = sum(p for n, p in totals.items() if n % 2 == 1)
    assert odd_mass < 1e-12


@settings(max_examples=15, deadline=None)
@given(
    st.floats(0.3, 1.8),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-0.5, 0.0),
    st.booleans(),
)
@example(1.2, 0.4, -0.5, False)
@example(1.2, 0.4, 0.0, True)
def test_cat_cat_readouts_match_full_pipeline(magnitude, phase, reflection, swap):
    """run_cat_cat reads the environment and the zero-absorption state from the
    standing state; every number matches the same readouts of full_pipeline's
    joint."""
    alpha = magnitude * complex(math.cos(phase), math.sin(phase))
    absorber = AbsorberSpec(reflection=reflection, swap_roles=swap)
    cutoff = ng.cat_cutoff(alpha) + 8
    result = ng.run_cat_cat(alpha, absorber, cutoff)
    cats = (ng.build_cat(alpha, cutoff, mode) for mode in (K, MINUS_K))
    joint = fock.full_pipeline(fock.tensor(*cats), absorber)
    env = [m for m in joint.modes if m.is_env]
    _, distribution, entropy, p_all_absorbed = oracle.joint_environment(
        joint.amplitudes, joint.modes, env
    )
    assert max(abs(result.absorbed_distribution[m] - p) for m, p in distribution.items()) < 1e-12
    assert abs(result.separability["env_entanglement_entropy"] - entropy) < 1e-12
    assert abs(result.extras["p_all_absorbed"] - p_all_absorbed) < 1e-12
    rho_env = oracle.dense_reduced(joint.amplitudes, joint.modes, env)
    assert abs(result.absorbed_distribution[0] - rho_env[0, 0].real) < 1e-12
    assert abs(result.separability["env_entanglement_entropy"] - oracle.dense_entropy(rho_env)) < 1e-12
    zero = fock.conditional_output(joint, 0)
    target = oracle.superposition_of_coherent_pair(alpha, cutoff)
    fidelity = result.extras["zero_absorption_fidelity_with_opposite_pair"]
    assert abs(fidelity - zero.expectation_with_pure(target)) < 1e-12
    assert abs(result.conditional_outputs[0]["purity"] - zero.purity()) < 1e-12


def test_cat_cat_all_absorbed_tends_to_half():
    values = []
    for alpha in (1.0, 1.5, 2.0, 2.5):
        result = ng.run_cat_cat(alpha)
        values.append(result.extras["p_all_absorbed"])
        assert result.separability["env_entanglement_entropy"] > 0.1
    deviations = [abs(v - 0.5) for v in values]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 1e-4


def test_cat_cat_rejects_small_cutoff():
    with pytest.raises(CutoffError):
        ng.run_cat_cat(2.0, CANONICAL, cutoff=10)


@pytest.mark.parametrize("magnitude", [3.0, 2.75])
def test_cat_cat_fidelity_does_not_depend_on_the_phase_of_alpha(magnitude):
    """A common phase of alpha commutes with every passive map, so the
    zero-absorption fidelity at the automatic cutoff is one value at every
    phase, within 1e-13 relative, even where it is ~1e-15 (swapped absorber)."""
    swapped = AbsorberSpec(swap_roles=True)
    values = [
        ng.run_cat_cat(magnitude * cmath.exp(1j * phase), swapped).extras[
            "zero_absorption_fidelity_with_opposite_pair"]
        for phase in (0.0, 0.3, 1.1, 2.0, -2.5)
    ]
    assert max(values) - min(values) <= 1e-13 * max(values)


def test_cat_cat_target_adds_no_exit_path():
    """Every cat pair that gets through standing_basis at cutoffs needed ..
    needed + 2 also gets through run_cat_cat: the opposite-pair target is
    normalized over the kept levels, with no truncation check of its own."""
    for magnitude in np.linspace(0.0, 4.0, 81).tolist() + [0.07, 0.13]:
        for phase in (0.0, 0.7):
            alpha = magnitude * cmath.exp(1j * phase)
            needed = ng.cat_cutoff(alpha)
            for cutoff in range(needed, needed + 3):
                try:
                    fock.standing_basis(fock.tensor(
                        *(ng.build_cat(alpha, cutoff, mode) for mode in (K, MINUS_K))))
                except CutoffError:
                    continue
                ng.run_cat_cat(alpha, CANONICAL, cutoff)


@pytest.mark.parametrize("name", ["cat_cat_canonical", "cat_cat_tau_swap"])
def test_cat_cat_golden_fidelity_holds_at_a_larger_cutoff(name):
    """The golden files' fidelity is within TRUNCATION_TOL of its value at
    cutoff + 30."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name + ".in.json")
    spec = scenario_io.load_scenario_file(golden)
    result = scenario_io.run_scenario_file(spec)
    alpha = scenario_io.parse_complex(spec.scenario["alpha"], "scenario.alpha")
    larger = ng.run_cat_cat(alpha, spec.absorber, result.numerics["cutoff"] + 30)
    key = "zero_absorption_fidelity_with_opposite_pair"
    assert abs(result.extras[key] - larger.extras[key]) <= fock.TRUNCATION_TOL


@pytest.mark.parametrize("scenario", [
    {"kind": "CAT_CAT", "alpha": [1.1, 0.4]},
    {"kind": "COHERENT_CAT", "alpha": 0.8, "cat_alpha": [0.5, -0.6]},
    {"kind": "COHERENT_SQUEEZED", "alpha": [0.6, 0.2], "xi": 0.4},
    {"kind": "SQUEEZED_PAIR", "k": {"alpha": 0.4, "xi": 0.3},
     "minus_k": {"alpha": [0.1, 0.2], "xi": 0.2, "phi": 1.0}},
])
def test_pair_runs_never_mix_after_the_standing_state_exists(scenario):
    """A two-mode Fock run built on the travelling modes mixes once, into the
    standing basis, and reads every output there (EPR, built on the standing
    modes, mixes never: test_epr_run_mixes_once_before_the_absorber)."""
    payload = {"schema": 1, "engine": "FOCK", "absorber": {"tau_c": 0.3}, "scenario": scenario}
    with mock.patch.object(fock, "bs_transform", wraps=fock.bs_transform) as spy:
        scenario_io.run_scenario_file(scenario_io.parse_scenario_dict(payload))
    assert spy.call_count == 1


def test_coherent_squeezed_absorbs_half():
    result = ng.run_asymmetric(1.0, 0.5)
    assert result.mean_intensity_absorption == pytest.approx(0.5, abs=1e-9)
    assert result.coherence_absorption == pytest.approx(0.5, abs=1e-9)


def test_coherent_squeezed_standing_distribution_reported():
    result = ng.run_asymmetric(1.0, 0.5)
    dist = result.extras["standing_joint_distribution"]
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    concentrated = sum(
        p for key, p in dist.items()
        if 0 in tuple(int(x) for x in key.split(","))
    )
    # anti-correlated, NOON-flavoured: most weight on (n, 0) and (0, n)
    assert concentrated > 0.5


@pytest.mark.parametrize(
    "partner, absorber",
    [(0.6, AbsorberSpec(reflection=-0.3)), (1.2j, AbsorberSpec(swap_roles=True))],
    ids=["COHERENT_SQUEEZED", "COHERENT_CAT"],
)
def test_standing_distribution_is_the_basis_change_of_the_input(partner, absorber):
    alpha = 0.9 - 0.4j
    result = ng.run_asymmetric(alpha, partner, absorber)
    cutoff = result.numerics["cutoff"]
    if isinstance(partner, float):
        other = fock.squeezed_coherent_state(0.0, partner, 0.0, cutoff, MINUS_K)
    else:
        other = ng.build_cat(partner, cutoff, MINUS_K)
    state = fock.tensor(fock.coherent_state(alpha, cutoff, K), other)
    probs = fock.bs_transform(state, K, MINUS_K).probabilities()
    expected = {
        f"{na},{nb}": float(probs[na, nb])
        for na in range(cutoff + 1)
        for nb in range(cutoff + 1)
        if probs[na, nb] > 1e-12
    }
    assert result.extras["standing_joint_distribution"] == expected
    assert result.extras["standing_cross_sector_mass"] == pytest.approx(
        math.fsum(probs[1:, 1:].ravel()), abs=1e-15
    )


@pytest.mark.parametrize(
    "partner, kind, key",
    [(0.5, "COHERENT_SQUEEZED", "xi"), (-0.5, "COHERENT_SQUEEZED", "xi"),
     (1.5 + 0j, "COHERENT_CAT", "cat_alpha")],
)
def test_asymmetric_partner_picks_the_kind_and_is_echoed_as_given(partner, kind, key):
    """A real partner is a squeezing, echoed as given (a negative xi is not
    turned into phi + pi); a complex one is a cat amplitude."""
    scenario = ng.run_asymmetric(1.0, partner).scenario
    assert scenario == {"kind": kind, "alpha": 1.0, key: partner}


def test_coherent_cat_splits_exactly_between_standing_modes():
    result = ng.run_asymmetric(1.5, 1.5 + 0j)
    assert result.extras["standing_cross_sector_mass"] < 0.02
    assert result.mean_intensity_absorption == pytest.approx(0.5, abs=1e-9)
    assert result.coherence_absorption == pytest.approx(0.5, abs=1e-9)
    assert result.separability["env_entanglement_entropy"] > 0.1


def test_asymmetric_input_moments_are_uncorrelated():
    alpha, xi = 1.0, 0.4
    state = fock.tensor(
        fock.coherent_state(alpha, 40, K),
        fock.squeezed_coherent_state(0.0, xi, 0.0, 40, MINUS_K),
    )
    assert abs(fock.cross_moment(state, K, MINUS_K)) < 1e-12
    assert abs(fock.mode_moments(state, MINUS_K)[0]) < 1e-14


def test_vacuum_asymmetric_run_is_trivial():
    result = ng.run_asymmetric(0.0, 0.0)
    assert result.absorbed_distribution[0] == pytest.approx(1.0, abs=1e-12)
    assert result.mean_intensity_absorption is None  # no photons anywhere


def test_asymmetric_rejects_small_cutoff():
    with pytest.raises(CutoffError):
        ng.run_asymmetric(1.5, 1.5 + 0j, CANONICAL, cutoff=5)


def _squeezed_vacuum_tail(xi: float, cutoff: int) -> float:
    """Weight of a squeezed vacuum above `cutoff`: P(2k) = (2k)! tanh^2k xi /
    (4^k k!^2 cosh xi), summed in log form until the terms vanish."""
    log_t, log_c = math.log(math.tanh(abs(xi))), math.log(math.cosh(xi))
    total, k = 0.0, cutoff // 2 + 1
    while True:
        term = math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1)
                        + 2 * k * (log_t - math.log(2.0)) - log_c)
        total += term
        if term < 1e-30 * max(total, 1e-300):
            return total
        k += 1


@pytest.mark.parametrize(
    "xi, cutoff",
    [(1.0, 94), (1.7, 382), (2.0, 696), (2.1, 850), (-2.0, 696), (2.2, 1038), (2.5, 1890)],
)
def test_squeezed_vacuum_cutoff_holds_the_tail(xi, cutoff):
    """The first even cutoff whose tail bound meets 1e-12; past xi ~ 2.2 this is
    above the 1002 at which the search used to stop."""
    assert ng.squeezed_vacuum_cutoff(xi) == cutoff
    assert _squeezed_vacuum_tail(xi, cutoff - 2) <= 1e-12 < _squeezed_vacuum_tail(xi, cutoff - 8)


def test_squeezed_vacuum_cutoff_stops_past_the_memory_budget():
    """The search ends at the first even cutoff over budget; nothing is allocated."""
    assert ng.squeezed_vacuum_cutoff(3.0) == 5134
    for xi in (4.0, 10.0, -10.0):
        assert ng.squeezed_vacuum_cutoff(xi) == 8192
    with pytest.raises(CutoffError, match="cutoff 8192 over 2 modes"):
        fock.budget_cutoff(ng.squeezed_vacuum_cutoff(4.0), 2)
