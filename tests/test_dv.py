"""Discrete-variable scenarios: inputs, standing decompositions, statistics."""
import contextlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from cpa_sim import dv, fock
from cpa_sim.absorber import CANONICAL, AbsorberSpec
from cpa_sim.fock import CutoffError
from cpa_sim.modes import K, MINUS_K
from test_fock import _absorber

INV = 1.0 / math.sqrt(2.0)


def test_single_photon_input_ket():
    state = dv.build_input(dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=0.0), 2)
    assert state.amplitude({K: 1, MINUS_K: 0}) == pytest.approx(INV, abs=1e-14)
    assert state.amplitude({K: 0, MINUS_K: 1}) == pytest.approx(INV, abs=1e-14)


def test_noon_n1_antisymmetric_matches_single_photon():
    noon = dv.build_input(dv.DvScenario(dv.DvKind.NOON, 1, math.pi), 2)
    single = dv.build_input(
        dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=math.pi), 2
    )
    assert oracle.fidelity(noon, single) == pytest.approx(1.0, abs=1e-14)


def test_bell_singlet_is_antisymmetric_dual_rail():
    state = dv.build_input(dv.DvScenario(dv.DvKind.BELL_PSI_MINUS), 2)
    k_a, mk_b = K.with_rail("A"), MINUS_K.with_rail("B")
    k_b, mk_a = K.with_rail("B"), MINUS_K.with_rail("A")
    assert state.amplitude({k_a: 1, mk_b: 1}) == pytest.approx(INV, abs=1e-14)
    assert state.amplitude({k_b: 1, mk_a: 1}) == pytest.approx(-INV, abs=1e-14)


def test_build_input_rejects_small_cutoff():
    with pytest.raises(CutoffError):
        dv.build_input(dv.DvScenario(dv.DvKind.NOON, 5), 4)


def test_noon_requires_positive_n():
    with pytest.raises(ValueError):
        dv.DvScenario(dv.DvKind.NOON, 0)


# ---------------------------------------------------------------------------
# standing-basis decomposition


def test_noon_decomposition_three_photon_magnitudes():
    coeffs = dict(oracle.noon_standing_decomposition(3, 0.0))
    assert abs(coeffs[0]) == pytest.approx(0.5, abs=1e-14)
    assert abs(coeffs[1]) == pytest.approx(0.0, abs=1e-14)
    assert abs(coeffs[2]) == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    assert abs(coeffs[3]) == pytest.approx(0.0, abs=1e-14)


def test_noon_decomposition_four_photon_magnitudes():
    coeffs = dict(oracle.noon_standing_decomposition(4, 0.0))
    assert abs(coeffs[0]) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-14)
    assert abs(coeffs[2]) == pytest.approx(math.sqrt(6) / (2 * math.sqrt(2)), abs=1e-14)
    assert abs(coeffs[4]) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-14)


def test_noon_two_photon_decomposition_is_plus_pair():
    # both-photons-together input is a beamsplitter eigenstate, so the
    # standing expansion keeps the plus sign on both components
    coeffs = dict(oracle.noon_standing_decomposition(2, 0.0))
    assert coeffs[0] == pytest.approx(INV, abs=1e-14)
    assert coeffs[2] == pytest.approx(-INV * (1j ** 2), abs=1e-14)  # i^2 * (-1/sqrt2)
    state = dv.build_input(dv.DvScenario(dv.DvKind.NOON, 2, 0.0), 2)
    standing = fock.bs_transform(state, K, MINUS_K)
    assert standing.amplitude({K: 2, MINUS_K: 0}) == pytest.approx(INV, abs=1e-14)
    assert standing.amplitude({K: 0, MINUS_K: 2}) == pytest.approx(INV, abs=1e-14)


@given(
    n=st.integers(1, 8),
    step=st.integers(0, 15),
)
@settings(max_examples=60, deadline=None)
def test_noon_decomposition_matches_engine(n, step):
    delta = 2.0 * math.pi * step / 16.0
    state = dv.build_input(dv.DvScenario(dv.DvKind.NOON, n, delta), n)
    standing = fock.bs_transform(state, K, MINUS_K)
    coeffs = oracle.noon_standing_decomposition(n, delta)
    target = fock.superposition(
        [(c, {K: n - m, MINUS_K: m}) for m, c in coeffs], (K, MINUS_K), n
    )
    assert oracle.fidelity(standing, target) >= 1.0 - 1e-12


@given(n=st.integers(1, 10), delta=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_noon_decomposition_normalized(n, delta):
    total = sum(abs(c) ** 2 for _, c in oracle.noon_standing_decomposition(n, delta))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bell_standing_mappings():
    pairs = [
        (dv.DvKind.BELL_PSI_PLUS, dv.DvKind.BELL_PHI_MINUS),
        (dv.DvKind.BELL_PSI_MINUS, dv.DvKind.BELL_PSI_MINUS),
        (dv.DvKind.BELL_PHI_PLUS, dv.DvKind.BELL_PHI_PLUS),
        (dv.DvKind.BELL_PHI_MINUS, dv.DvKind.BELL_PSI_PLUS),
    ]
    for source, target_kind in pairs:
        state = dv.build_input(dv.DvScenario(source), 2)
        for rail in ("A", "B"):
            state = fock.bs_transform(state, K.with_rail(rail), MINUS_K.with_rail(rail))
        target = oracle.bell_standing_state(target_kind)
        assert oracle.fidelity(state, target) >= 1.0 - 1e-12, (source, target_kind)


def _aligned(closed: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """`closed` times the global phase that brings it onto `reference`."""
    overlap = np.vdot(closed, reference)
    return closed * (overlap / abs(overlap))


@given(kind=st.sampled_from(list(dv.DvKind)), n=st.integers(1, 300), delta=st.floats(-10.0, 10.0))
@settings(max_examples=40, deadline=None)
@example(kind=dv.DvKind.NOON, n=300, delta=0.4)
@example(kind=dv.DvKind.NOON, n=120, delta=2.1)
def test_standing_closed_forms_match_the_exact_expansion(kind, n, delta):
    """oracle.standing_state (the mapped Bell state for the Bell kinds) is within
    5e-16 of the input's exact integer expansion (tests/oracle.py) and within
    1e-15 of fock.standing_basis, each after aligning the global phase: NOON
    n <= 300, the single photon, and all four Bell kinds, whose standing state
    is the mapped Bell state on (C, S)."""
    scenario = dv.DvScenario(kind, n if kind is dv.DvKind.NOON else 1, delta)
    state = dv.build_input(scenario, scenario.total_photons)
    closed = oracle.standing_state(scenario, scenario.total_photons)
    mixed = fock.standing_basis(state)
    assert closed.modes == mixed.modes
    exact = oracle.exact_standing_amplitudes(state)
    assert np.max(np.abs(_aligned(closed.amplitudes, exact) - exact)) <= 5e-16
    assert np.max(np.abs(_aligned(closed.amplitudes, mixed.amplitudes) - mixed.amplitudes)) <= 1e-15


# ---------------------------------------------------------------------------
# full scenario runs


def test_single_photon_absorption_probability_sweep():
    for delta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        result = dv.run_scenario(
            dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=delta), CANONICAL
        )
        absorbed = result.absorbed_distribution.get(1, 0.0)
        assert abs(absorbed - math.cos(delta / 2.0) ** 2) < 1e-12


@pytest.mark.parametrize(
    "kind,expected",
    [
        (dv.DvKind.BELL_PSI_PLUS, {0: 0.5, 2: 0.5}),
        (dv.DvKind.BELL_PSI_MINUS, {1: 1.0}),
        (dv.DvKind.BELL_PHI_PLUS, {0: 0.5, 2: 0.5}),
        (dv.DvKind.BELL_PHI_MINUS, {1: 1.0}),
    ],
)
def test_bell_absorption_statistics(kind, expected):
    result = dv.run_scenario(dv.DvScenario(kind), CANONICAL)
    dist = result.absorbed_distribution
    for m, p in expected.items():
        assert dist.get(m, 0.0) == pytest.approx(p, abs=1e-12)
    assert result.mean_intensity_absorption == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "n,delta,expected",
    [
        (3, 0.0, {3: 0.25, 1: 0.75}),
        (3, math.pi, {2: 0.75, 0: 0.25}),
        (4, 0.0, {4: 0.125, 2: 0.75, 0: 0.125}),
        (4, math.pi, {3: 0.5, 1: 0.5}),
    ],
)
def test_noon_absorption_statistics(n, delta, expected):
    result = dv.run_scenario(dv.DvScenario(dv.DvKind.NOON, n, delta), CANONICAL)
    dist = result.absorbed_distribution
    for m, p in expected.items():
        assert dist.get(m, 0.0) == pytest.approx(p, abs=1e-12)
    leakage = sum(p for m, p in dist.items() if m not in expected)
    assert leakage < 1e-12


@given(n=st.integers(1, 7), antisymmetric=st.booleans())
@settings(max_examples=30, deadline=None)
def test_noon_parity_rule(n, antisymmetric):
    delta = math.pi if antisymmetric else 0.0
    result = dv.run_scenario(dv.DvScenario(dv.DvKind.NOON, n, delta), CANONICAL)
    # in-phase: absorbed count has the parity of n; anti-phase: opposite parity
    keep_parity = (n % 2) if not antisymmetric else (n + 1) % 2
    leakage = sum(
        p for m, p in result.absorbed_distribution.items() if m % 2 != keep_parity
    )
    assert leakage < 1e-12


@given(n=st.integers(2, 7), step=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_noon_mean_absorption_is_half(n, step):
    # holds for two or more entangled photons; a single photon keeps the
    # classical cos^2 law instead
    delta = 2.0 * math.pi * step / 8.0
    result = dv.run_scenario(dv.DvScenario(dv.DvKind.NOON, n, delta), CANONICAL)
    assert result.mean_intensity_absorption == pytest.approx(0.5, abs=1e-12)


def test_psi_plus_survivors_split_evenly():
    result = dv.run_scenario(dv.DvScenario(dv.DvKind.BELL_PSI_PLUS), CANONICAL)
    joint = fock.full_pipeline(
        dv.build_input(dv.DvScenario(dv.DvKind.BELL_PSI_PLUS), 2), CANONICAL
    )
    rho = fock.conditional_output(joint, 0)
    k_a, k_b = K.with_rail("A"), K.with_rail("B")
    mk_a, mk_b = MINUS_K.with_rail("A"), MINUS_K.with_rail("B")

    def prob(occ):
        ket = fock.basis_state({m: occ.get(m, 0) for m in rho.modes}, rho.cutoff)
        return rho.expectation_with_pure(ket)

    same = prob({k_a: 1, k_b: 1}) + prob({mk_a: 1, mk_b: 1})
    split = prob({k_a: 1, mk_b: 1}) + prob({k_b: 1, mk_a: 1})
    assert same == pytest.approx(0.5, abs=1e-12)
    assert split == pytest.approx(0.5, abs=1e-12)
    assert result.absorbed_distribution[0] == pytest.approx(0.5, abs=1e-12)


def test_environment_entropy_reported():
    result = dv.run_scenario(dv.DvScenario(dv.DvKind.BELL_PSI_PLUS), CANONICAL)
    # zero-or-two photon absorption entangles light and absorber
    assert result.separability["env_entanglement_entropy"] > 0.9
    result2 = dv.run_scenario(dv.DvScenario(dv.DvKind.BELL_PSI_MINUS), CANONICAL)
    # deterministic one-photon absorption: still correlated in the rail label
    assert result2.separability["env_entanglement_entropy"] >= 0.0


# ---------------------------------------------------------------------------
# one-rail runs read their outputs from the standing state


def _one_rail(n: int, delta: float) -> dv.DvScenario:
    """NOON n, or the single photon at n = 0."""
    return (dv.DvScenario(dv.DvKind.NOON, n, delta) if n
            else dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=delta))


def _outputs_agree(got, expected, tol: float) -> None:
    """Run records `got` against fock.ConditionalOutput `expected`, within tol."""
    assert [o["absorbed"] for o in got] == [o.absorbed for o in expected]
    for new, old in zip(got, expected):
        assert abs(new["probability"] - old.probability) < tol
        assert new["purity"] == 1.0 and abs(old.purity - 1.0) < tol
        assert list(new["mean_output_photons"]) == [str(K), str(MINUS_K)] == list(
            map(str, old.mean_photons))
        for mode, number in old.mean_photons.items():
            assert abs(new["mean_output_photons"][str(mode)] - number) < tol


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(1, 28)),  # 0: SINGLE_PHOTON, else NOON n
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.sampled_from(["canonical", "tau_c", "swap", "tau_c+swap"]),
    st.floats(0.05, 0.95),
)
def test_one_rail_outputs_match_the_joint_route(n, delta, choice, tau_c):
    """dv.run_scenario's closed form gives, within 1e-13, the distribution of
    full_pipeline's joint and what fock.joint_readouts reads from it for every
    count above the run's floor."""
    scenario, absorber = _one_rail(n, delta), _absorber(choice, tau_c)
    result = dv.run_scenario(scenario, absorber)
    joint = fock.full_pipeline(dv.build_input(scenario, scenario.total_photons), absorber)
    for m, p in oracle.absorbed_photon_distribution(joint).items():
        assert abs(result.absorbed_distribution[m] - p) < 1e-13
    _outputs_agree(result.conditional_outputs, fock.joint_readouts(joint, 1e-9)[1], 1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(1, 405)),
    st.floats(-10.0, 10.0),
    st.sampled_from(["canonical", "tau_c", "swap", "tau_c+swap"]),
    st.floats(0.0, 1.0),
)
@example(405, 0.7, "tau_c", 0.46)
@example(60, math.pi, "canonical", 0.5)
def test_one_rail_run_matches_the_dense_route(n, delta, choice, tau_c):
    """The closed form against the dense one-rail route it replaced
    (oracle.dense_one_rail_run: the (n+1)^2 standing state, the loss map and an
    eigen-solve): distribution and outputs within 1e-13, entropy within 1e-12."""
    scenario, absorber = _one_rail(n, delta), _absorber(choice, tau_c)
    result = dv.run_scenario(scenario, absorber, max(n, 1))
    environment, outputs = oracle.dense_one_rail_run(scenario, absorber)
    assert list(result.absorbed_distribution) == list(range(len(environment.distribution)))
    for m, p in enumerate(environment.distribution):
        assert abs(result.absorbed_distribution[m] - p) < 1e-13
    entropy = result.separability["env_entanglement_entropy"]
    assert abs(entropy - environment.entropy) < 1e-12
    _outputs_agree(result.conditional_outputs, outputs, 1e-13)


@pytest.mark.parametrize("n, tau_c, delta, swap", [
    (1, 0.46, 0.7, False), (1, 0.0, math.pi, True), (3, 0.55, 0.25 * math.pi, True),
    (3, 0.999, 0.0, False), (60, 0.3, 2.0, True), (60, 0.9, 1e-3, False),
    (405, 0.46, 0.7, False), (405, 0.05, math.pi, True),
    (10**5, 0.46, 0.4, False), (10**5, 0.9, 3.0, True),
])
def test_one_rail_distribution_matches_the_exact_oracle(n, tau_c, delta, swap):
    """Every entry of the closed-form distribution that the exact rational
    oracle puts at or above 1e-290 is within 1e-12 of it, relative; every other
    is below 1e-289.  The run's mean absorbed fraction, p(1) at n = 1 and s^2 / 2
    in closed form above, is the oracle's mean within 1e-12 and 1e-15."""
    absorber = AbsorberSpec((tau_c - 1.0) / 2.0, swap)
    got = dv.one_rail_distribution(_one_rail(n, delta), absorber)
    exact = np.array(oracle.exact_one_rail_distribution(n, absorber.tau_c, math.cos(delta), swap))
    kept = exact >= 1e-290
    assert np.all(np.abs(got[kept] - exact[kept]) <= 1e-12 * exact[kept])
    assert np.all(got[~kept] < 1e-289)
    mean = dv.run_scenario(_one_rail(n, delta), absorber, n).mean_intensity_absorption
    assert mean == pytest.approx(math.fsum(e * p for e, p in enumerate(exact.tolist())) / n,
                                 rel=1e-15 if n > 1 else 1e-12)


def _calls(scenario: dv.DvScenario) -> dict[str, int]:
    """How often a run at tau_c = 0.4 calls each map that builds or mixes the
    joint, builds a state, or reads the environment densely."""
    names = ("cpa_channel", "full_pipeline", "bs_transform", "_mix", "standing_basis",
             "_built", "absorber_environment", "loss_amplitudes")
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(fock, name, wraps=getattr(fock, name)))
                 for name in names]
        spies.append(stack.enter_context(mock.patch.object(
            fock.PureState, "__post_init__", autospec=True,
            side_effect=fock.PureState.__post_init__)))
        spies.append(stack.enter_context(mock.patch.object(
            np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh)))
        dv.run_scenario(scenario, AbsorberSpec(-0.3))
    return {name: spy.call_count for name, spy in zip(names + ("PureState", "eigvalsh"), spies)}


@pytest.mark.parametrize("scenario", [
    dv.DvScenario(dv.DvKind.NOON, 5, 0.3), dv.DvScenario(dv.DvKind.SINGLE_PHOTON),
], ids=["NOON", "SINGLE_PHOTON"])
def test_one_rail_run_builds_no_joint(scenario):
    """A one-rail run is its closed form: it builds no state, standing or
    joint, and calls no beamsplitter, absorber mix, pipeline, dense environment
    readout, loss table or eigen-solve."""
    assert set(_calls(scenario).values()) == {0}


def test_bell_run_reads_its_joint():
    """A Bell run builds its joint once, and the standing state inside it is its
    only basis change; every output is read from that joint, with one
    eigen-solve and no dense environment readout."""
    calls = _calls(dv.DvScenario(dv.DvKind.BELL_PSI_PLUS))
    assert calls["full_pipeline"] == 1 and calls["cpa_channel"] == 1
    assert calls["standing_basis"] == 1 and calls["absorber_environment"] == 0
    assert calls["eigvalsh"] == 1


def _closed_loss_amplitudes(tau: float, dim: int) -> np.ndarray:
    """b[n, p] = sqrt(C(n, p)) tau^p s^(n - p), p <= n < dim, s^2 = 1 - tau^2."""
    s = math.sqrt(1.0 - tau * tau)
    return np.array([[math.sqrt(math.comb(n, p)) * tau ** p * s ** (n - p) if p <= n else 0.0
                      for p in range(dim)] for n in range(dim)])


@pytest.mark.parametrize("choice", ["canonical", "tau_c", "swap", "tau_c+swap"])
@pytest.mark.parametrize("kind", sorted(dv.BELL_KINDS, key=lambda kind: kind.value))
@settings(max_examples=10, deadline=None)
@given(tau_c=st.floats(0.05, 0.95))
def test_bell_run_matches_the_loop_on_its_standing_state(kind, choice, tau_c):
    """A Bell run's distribution and entropy, read from its joint, are within
    1e-13 of a route that shares none of its mixes, channel or readout: the
    mapped Bell state on (C, S) (oracle.standing_state) through the per-level
    loss loop and a dense eigen-solve (oracle.loop_environment), with the loss
    amplitudes in closed form."""
    scenario, absorber = dv.DvScenario(kind), _absorber(choice, tau_c)
    result = dv.run_scenario(scenario, absorber)
    standing = oracle.standing_state(scenario, 2)
    absorbed = [m for m in standing.modes if m.kind is absorber.absorbed_kind]
    b = _closed_loss_amplitudes(absorber.tau_c, standing.dim)
    _, distribution, entropy, _ = oracle.loop_environment(standing.amplitudes, standing.modes, absorbed, b)
    assert list(result.absorbed_distribution) == list(distribution) == [0, 1, 2, 3, 4]
    for m, p in distribution.items():
        assert abs(result.absorbed_distribution[m] - p) < 1e-13
    assert abs(result.separability["env_entanglement_entropy"] - entropy) < 1e-13


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(dv.BELL_KINDS, key=lambda kind: kind.value)),
       tau_c=st.floats(0.0, 1.0), swap=st.booleans())
@example(kind=dv.DvKind.BELL_PSI_PLUS, tau_c=0.350621, swap=False)
@example(kind=dv.DvKind.BELL_PSI_MINUS, tau_c=0.343689, swap=True)
def test_bell_mean_absorption_is_half_the_absorbed_share(kind, tau_c, swap):
    """Every standing Bell state holds one photon on average in the absorbed
    mode, either role, so a Bell run's mean absorbed fraction is s^2 / 2: the
    exact (1 - tau_c^2) / 2 of the double tau_c, rounded once."""
    absorber = AbsorberSpec((tau_c - 1.0) / 2.0, swap)
    mean = dv.run_scenario(dv.DvScenario(kind), absorber).mean_intensity_absorption
    assert mean == float((1 - Fraction(absorber.tau_c) ** 2) / 2)


def _noon_run_peak_kib(tmp_path, n: int, trace: bool = False) -> tuple[int, int, int]:
    """(reported counts, VmHWM in KiB, tracemalloc peak in bytes or 0) of `cpa run`
    on NOON n at tau_c = 0.46 in a fresh interpreter, traced when `trace` says so
    (tracemalloc's own records raise VmHWM, by 29 MiB at n = 10^5)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    path = tmp_path / "noon.json"
    path.write_text(json.dumps({
        "schema": 1, "engine": "FOCK", "scenario": {"kind": "NOON", "n": n, "delta_theta": 0.4},
        "absorber": {"tau_c": 0.46}, "numerics": {"cutoff": n}}))
    code = (
        "import contextlib, io, json, sys, tracemalloc\n"
        "from cpa_sim import cli\n"
        "out = io.StringIO()\n"
        + ("tracemalloc.start()\n" if trace else "") +
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.main(['run', sys.argv[1]]) == 0\n"
        "traced = tracemalloc.get_traced_memory()[1]\n"
        "with open('/proc/self/status') as status:\n"
        "    lines = [line for line in status if line.startswith('VmHWM:')]\n"
        "print(len(json.loads(out.getvalue())['conditional_outputs']), lines[0].split()[1], traced)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    return tuple(map(int, run.stdout.split()))


def test_large_noon_run_peaks_below_100_mib(tmp_path):
    """NOON n = 200 at tau_c = 0.46 runs in a fresh interpreter with a peak RSS
    (VmHWM) below 100 MiB; building its (n+1)^3 joint took 306 MiB."""
    outputs, peak_kib, _ = _noon_run_peak_kib(tmp_path, 200)
    assert outputs > 50
    assert peak_kib < 100 * 1024


def test_largest_noon_run_peaks_below_100_mib(tmp_path):
    """NOON n = 405, once the most the memory budget admitted (it was charged
    for a three-mode joint that no one-rail run builds), stays below 100 MiB
    too: the closed form allocates O(n)."""
    outputs, peak_kib, _ = _noon_run_peak_kib(tmp_path, 405)
    assert outputs > 50
    assert peak_kib < 100 * 1024


def test_noon_at_a_hundred_thousand_photons_peaks_below_100_mib(tmp_path):
    """NOON n = 10^5 at tau_c = 0.46 exits 0 in a fresh interpreter with a peak
    RSS below 100 MiB (48 MiB measured, 2.3 MB of JSON, 1,679 counts).  Traced, its
    arrays, format call and JSON text peak below its charge of ONE_RAIL_LEVEL_STATES
    * 16 bytes per level (16.3 MB measured against 19.2 MB)."""
    outputs, peak_kib, _ = _noon_run_peak_kib(tmp_path, 10**5)
    assert outputs > 1000
    assert peak_kib < 100 * 1024
    charge = fock.budget_bytes(10**5, 1, dv.ONE_RAIL_LEVEL_STATES)
    assert charge < 40e6
    traced = _noon_run_peak_kib(tmp_path, 10**5, trace=True)[2]
    assert traced < charge, traced / charge
