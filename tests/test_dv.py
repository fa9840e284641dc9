"""Discrete-variable scenarios: inputs, standing decompositions, statistics."""
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    coeffs = dict(dv.noon_standing_decomposition(3, 0.0))
    assert abs(coeffs[0]) == pytest.approx(0.5, abs=1e-14)
    assert abs(coeffs[1]) == pytest.approx(0.0, abs=1e-14)
    assert abs(coeffs[2]) == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    assert abs(coeffs[3]) == pytest.approx(0.0, abs=1e-14)


def test_noon_decomposition_four_photon_magnitudes():
    coeffs = dict(dv.noon_standing_decomposition(4, 0.0))
    assert abs(coeffs[0]) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-14)
    assert abs(coeffs[2]) == pytest.approx(math.sqrt(6) / (2 * math.sqrt(2)), abs=1e-14)
    assert abs(coeffs[4]) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-14)


def test_noon_two_photon_decomposition_is_plus_pair():
    # both-photons-together input is a beamsplitter eigenstate, so the
    # standing expansion keeps the plus sign on both components
    coeffs = dict(dv.noon_standing_decomposition(2, 0.0))
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
    coeffs = dv.noon_standing_decomposition(n, delta)
    target = fock.superposition(
        [(c, {K: n - m, MINUS_K: m}) for m, c in coeffs], (K, MINUS_K), n
    )
    assert oracle.fidelity(standing, target) >= 1.0 - 1e-12


@given(n=st.integers(1, 10), delta=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_noon_decomposition_normalized(n, delta):
    total = sum(abs(c) ** 2 for _, c in dv.noon_standing_decomposition(n, delta))
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
        target = dv.bell_standing_state(target_kind)
        assert oracle.fidelity(state, target) >= 1.0 - 1e-12, (source, target_kind)


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


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(1, 28)),  # 0: SINGLE_PHOTON, else NOON n
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.sampled_from(["canonical", "tau_c", "swap", "tau_c+swap"]),
    st.floats(0.05, 0.95),
)
def test_one_rail_outputs_match_the_joint_route(n, delta, choice, tau_c):
    """fock.absorber_outputs on the standing state gives, within 1e-13, what
    fock.conditional_outputs reads from full_pipeline's joint."""
    scenario = (dv.DvScenario(dv.DvKind.NOON, n, delta) if n
                else dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=delta))
    absorber = _absorber(choice, tau_c)
    state = dv.build_input(scenario, scenario.total_photons)
    standing = fock.standing_basis(state)
    distribution = fock.absorber_environment(standing, absorber).distribution
    counts = [m for m, p in distribution.items() if p > 1e-9]  # the run's default report
    expected = fock.conditional_outputs(fock.full_pipeline(state, absorber), counts)
    got = fock.absorber_outputs(standing, absorber, counts)
    assert [o.absorbed for o in got] == counts
    for new, old in zip(got, expected):
        assert abs(new.probability - old.probability) < 1e-13
        assert new.purity == 1.0 and abs(old.purity - 1.0) < 1e-13
        assert list(new.mean_photons) == list(old.mean_photons) == [K, MINUS_K]
        for mode, number in old.mean_photons.items():
            assert abs(new.mean_photons[mode] - number) < 1e-13


def _calls(scenario: dv.DvScenario) -> dict[str, int]:
    """How often a run at tau_c = 0.4 calls each map that builds or mixes the joint."""
    names = ("cpa_channel", "full_pipeline", "bs_transform")
    spies = [mock.patch.object(fock, name, wraps=getattr(fock, name)) for name in names]
    with spies[0] as channel, spies[1] as pipeline, spies[2] as mix:
        dv.run_scenario(scenario, AbsorberSpec(-0.3))
    return {name: spy.call_count for name, spy in zip(names, (channel, pipeline, mix))}


@pytest.mark.parametrize("scenario", [
    dv.DvScenario(dv.DvKind.NOON, 5, 0.3), dv.DvScenario(dv.DvKind.SINGLE_PHOTON),
], ids=["NOON", "SINGLE_PHOTON"])
def test_one_rail_run_builds_no_joint(scenario):
    """The standing state is built once (one beamsplitter) and feeds both
    readouts: no absorber mix, no pipeline, no mix back."""
    assert _calls(scenario) == {"cpa_channel": 0, "full_pipeline": 0, "bs_transform": 1}


def test_bell_run_reads_its_joint():
    calls = _calls(dv.DvScenario(dv.DvKind.BELL_PSI_PLUS))
    assert calls["full_pipeline"] == 1 and calls["cpa_channel"] == 1


def test_large_noon_run_peaks_below_100_mib(tmp_path):
    """NOON n = 200 at tau_c = 0.46 runs in a fresh interpreter with a peak RSS
    (VmHWM) below 100 MiB; building its (n+1)^3 joint took 306 MiB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    path = tmp_path / "noon.json"
    path.write_text(json.dumps({
        "schema": 1, "engine": "FOCK", "scenario": {"kind": "NOON", "n": 200, "delta_theta": 0.4},
        "absorber": {"tau_c": 0.46}, "numerics": {"cutoff": 200}}))
    code = (
        "import contextlib, io, json, sys\n"
        "from cpa_sim import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.main(['run', sys.argv[1]]) == 0\n"
        "with open('/proc/self/status') as status:\n"
        "    lines = [line for line in status if line.startswith('VmHWM:')]\n"
        "print(len(json.loads(out.getvalue())['conditional_outputs']), lines[0].split()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    outputs, peak_kib = map(int, run.stdout.split())
    assert outputs > 50
    assert peak_kib < 100 * 1024
