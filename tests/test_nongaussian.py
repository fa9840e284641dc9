"""Cat-state and asymmetric illumination scenarios."""
import cmath
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from cpa_sim import fock, nongaussian as ng, scenario_io
from cpa_sim.absorber import CANONICAL, AbsorberSpec
from cpa_sim.fock import CutoffError
from cpa_sim.gaussian import SqueezedSpec
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
    odd_mass = totals[1::2].sum()
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


@given(
    st.floats(0.2, 3.0),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([CANONICAL, AbsorberSpec(reflection=-0.27),
                     AbsorberSpec(reflection=-0.1, swap_roles=True)]),
)
@example(0.25, 0.0, CANONICAL)
@example(0.4, 1.0, AbsorberSpec(reflection=-0.27))
@example(0.55, 2.0, AbsorberSpec(reflection=-0.1, swap_roles=True))
@example(0.7, 0.0, CANONICAL)
@example(0.96, 0.0, CANONICAL)
@settings(max_examples=60, deadline=None)
def test_cat_cat_runs_at_its_automatic_cutoff(magnitude, phase, absorber):
    """No CAT_CAT run without a cutoff raises CutoffError: where the standing
    state loses more than TRUNCATION_TOL at the automatic cutoff, the run is
    rebuilt one level higher.  An explicit cutoff keeps its norm check."""
    alpha = magnitude * cmath.exp(1j * phase)
    automatic = ng.cat_cutoff(alpha) + 2
    cutoff = ng.run_cat_cat(alpha, absorber).numerics["cutoff"]
    assert cutoff in (automatic, automatic + 1)
    if cutoff > automatic:
        with pytest.raises(CutoffError, match="norm lost to cutoff"):
            ng.run_cat_cat(alpha, absorber, automatic)


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
    """A two-mode Fock run built on the travelling modes gets its standing state
    in closed form (fock.balanced_pair) and reads every output there, so it
    applies no beamsplitter at all (nor does EPR, built on the standing modes:
    test_epr_run_mixes_once_before_the_absorber)."""
    payload = {"schema": 1, "engine": "FOCK", "absorber": {"tau_c": 0.3}, "scenario": scenario}
    with mock.patch.object(fock, "bs_transform", wraps=fock.bs_transform) as spy:
        scenario_io.run_scenario_file(scenario_io.parse_scenario_dict(payload))
    assert spy.call_count == 0


def test_pair_run_leaves_the_balanced_block_cache_alone(monkeypatch):
    """No balanced-block cache is left to grow; what a pair run must leave alone
    is the mix: a cutoff-123 run builds its standing state in closed form and
    calls neither _mix nor _next_block."""
    def refuse(*args):
        raise AssertionError("mix called")

    monkeypatch.setattr(fock, "_mix", refuse)
    monkeypatch.setattr(fock, "_next_block", refuse)
    assert ng.run_asymmetric(2.0, 1.0).numerics["cutoff"] == 123


def test_identical_factors_are_built_once_for_their_tail_check():
    """A pair of one spec and kind is built once for its tail check: CAT_CAT's
    cat, or a SQUEEZED_PAIR of equal states.  EPR's g and h are the standing
    state's factors, so both are built even when they are equal."""
    with mock.patch.object(ng, "build_cat", wraps=ng.build_cat) as cats:
        assert ng.run_cat_cat(1.0).numerics["cutoff"] == 16  # no retry
    spec, squeezed = SqueezedSpec(0.3, 0.2, 0.5), fock.squeezed_coherent_state
    with mock.patch.object(fock, "squeezed_coherent_state", wraps=squeezed) as built:
        ng.run_pair({"kind": "SQUEEZED_PAIR"}, CANONICAL, {"cutoff": 20}, (spec, spec))
        ng.run_pair({"kind": "EPR"}, CANONICAL, {"cutoff": 20}, (spec, spec))
    assert cats.call_count == 1 and built.call_count == 1 + 2


def _mixed_reference(factors, even, cutoff):
    """The standing amplitudes by the mix of truncated factors: both factors at
    2 cutoff + 1 levels, mixed by standing_basis, which keeps every total up to
    2 cutoff, so its crop to the box is exact; renormalized over the box, as
    the direct build is."""
    wide = 2 * cutoff
    built = (ng.build_cat(spec.alpha, wide, mode) if cat
             else fock.squeezed_coherent_state(spec.alpha, spec.xi, spec.phi, wide, mode)
             for spec, cat, mode in zip(factors, even, (K, MINUS_K)))
    box = fock.standing_basis(fock.tensor(*built)).amplitudes[:cutoff + 1, :cutoff + 1]
    return box / np.linalg.norm(box)


_specs = st.builds(SqueezedSpec, st.complex_numbers(max_magnitude=1.0),
                   st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi))


@settings(max_examples=20, deadline=None)
@given(st.tuples(_specs, _specs), st.tuples(st.booleans(), st.booleans()), st.integers(0, 8))
@example((SqueezedSpec(1.1 + 0.4j),) * 2, (True, True), 0)  # CAT_CAT
@example((SqueezedSpec(0.8), SqueezedSpec(0.5 - 0.6j)), (False, True), 0)  # COHERENT_CAT
@example((SqueezedSpec(0.6 + 0.2j), SqueezedSpec(0.0, 0.5)), (False, False), 0)  # COHERENT_SQUEEZED
@example((SqueezedSpec(0.4, 0.3), SqueezedSpec(0.1 + 0.2j, 0.5, 1.0)), (False, False), 0)
def test_direct_standing_build_matches_the_mix_of_its_factors(factors, even, headroom):
    """run_pair's standing state is within 1e-11 of the balanced mix of its
    factors (cats where `even` says so), at the cutoff of a COHERENT_SQUEEZED
    run of the same size plus `headroom`."""
    intensity = sum(abs(spec.alpha) ** 2 for spec in factors)
    squeezing = max(abs(spec.xi) for spec in factors)
    cutoff = ng.poisson_tail_cutoff(intensity) + ng.squeezed_vacuum_cutoff(squeezing) + headroom
    scenario = {"kind": "SQUEEZED_PAIR"}
    _, standing, _ = ng.run_pair(scenario, CANONICAL, {"cutoff": cutoff}, factors, even)
    assert np.max(np.abs(standing.amplitudes - _mixed_reference(factors, even, cutoff))) < 1e-11


def test_cat_cat_entropy_at_the_automatic_cutoff_is_converged():
    """The benchmark's CAT_CAT at |alpha| = 0.325 runs at the automatic cutoff 6;
    its entropy is within 1e-11 of its value at cutoff 40, 0.000503931133572
    (the mix of truncated cats was 7.3e-10 off)."""
    payload = {"schema": 1, "engine": "FOCK",
               "scenario": {"kind": "CAT_CAT", "alpha": {"mag": 0.325, "phase": 3.694909}}}
    result = scenario_io.run_scenario_file(scenario_io.parse_scenario_dict(payload))
    assert result.numerics["cutoff"] == 6
    assert abs(result.separability["env_entanglement_entropy"] - 0.000503931133572) < 1e-11


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_large_squeezed_pair_run_peaks_below_100_mib(tmp_path):
    """COHERENT_SQUEEZED alpha = 1, xi = 1.7 runs at its automatic cutoff 397 in a
    fresh interpreter with a peak RSS (VmHWM) below 100 MiB; mixing truncated
    factors through the balanced-block cache took 226 MiB.  Serialization of its
    11,950 table entries included, it peaks under tracemalloc below the
    PAIR_PEAK_STATES dense (cutoff + 1)^2 states that settle_cutoff charges it:
    3.08 states measured at tau_c = 0, and 3.78 at tau_c = 0.6 and an explicit
    cutoff 450, whose empty top levels are masked in the environment's reduced
    state in place (a masked copy of the amplitudes took it to 4.84)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    code = (
        "import contextlib, io, json, sys, tracemalloc\n"
        "from cpa_sim import cli\n"
        "out = io.StringIO()\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.main(['run', sys.argv[1]]) == 0\n"
        "traced = tracemalloc.get_traced_memory()[1]\n"
        "with open('/proc/self/status') as status:\n"
        "    lines = [line for line in status if line.startswith('VmHWM:')]\n"
        "run = json.loads(out.getvalue())\n"
        "print(run['numerics']['cutoff'], len(run['extras']['standing_joint_distribution']),\n"
        "      lines[0].split()[1], traced)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    for tau_c, numerics, expected in ((0.0, {}, 397), (0.6, {"cutoff": 450}, 450)):
        path = tmp_path / f"xi_{tau_c}.json"
        path.write_text(json.dumps({"schema": 1, "engine": "FOCK", "scenario": {
            "kind": "COHERENT_SQUEEZED", "alpha": 1.0, "xi": 1.7}, "absorber": {"tau_c": tau_c},
            "numerics": numerics}))
        run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, timeout=120,
                             capture_output=True, text=True, check=True)
        cutoff, entries, peak_kib, traced = map(int, run.stdout.split())
        assert (cutoff, entries) == (expected, 11950)
        assert peak_kib < 100 * 1024
        budget = fock.budget_bytes(cutoff, 2, ng.PAIR_PEAK_STATES)
        assert traced < budget, (tau_c, traced / fock.budget_bytes(cutoff, 2))


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
    """The reported distribution is that of the balanced mix of the input at
    cutoff + 40, cropped to the box and renormalized: the same keys, and values
    within 1e-12."""
    alpha = 0.9 - 0.4j
    result = ng.run_asymmetric(alpha, partner, absorber)
    cutoff = result.numerics["cutoff"]
    wide = cutoff + 40
    if isinstance(partner, float):
        other = fock.squeezed_coherent_state(0.0, partner, 0.0, wide, MINUS_K)
    else:
        other = ng.build_cat(partner, wide, MINUS_K)
    state = fock.tensor(oracle.coherent_state(alpha, wide, K), other)
    probs = fock.bs_transform(state, K, MINUS_K).probabilities()[:cutoff + 1, :cutoff + 1]
    probs /= math.fsum(probs.ravel())
    expected = {
        f"{na},{nb}": float(probs[na, nb])
        for na in range(cutoff + 1)
        for nb in range(cutoff + 1)
        if probs[na, nb] > 1e-12
    }
    reported = result.extras["standing_joint_distribution"]
    assert reported.keys() == expected.keys()
    assert max(abs(reported[key] - p) for key, p in expected.items()) < 1e-12
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
        oracle.coherent_state(alpha, 40, K),
        fock.squeezed_coherent_state(0.0, xi, 0.0, 40, MINUS_K),
    )
    assert abs(oracle.cross_moment(state, K, MINUS_K)) < 1e-12
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
