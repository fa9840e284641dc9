"""Acceptance suite: the headline quantitative claims, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s) and asserts
at the tolerance stated alongside the claim.  Default numerics throughout:
cutoff 30 unless a criterion names another.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpa_sim import cli, dv, fock, gaussian, nongaussian as ng
from cpa_sim.absorber import CANONICAL, AbsorberSpec
from cpa_sim.gaussian import SqueezedSpec
from cpa_sim.modes import C, ENV_C, K, MINUS_K, S

import oracle

INV = 1.0 / math.sqrt(2.0)


def report(criterion: str, ok: bool) -> None:
    print(f"[ACCEPT {criterion}] {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_01_single_photon_cosine_law():
    worst = 0.0
    for delta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        result = dv.run_scenario(
            dv.DvScenario(dv.DvKind.SINGLE_PHOTON, delta_theta=delta), CANONICAL, 30
        )
        absorbed = result.absorbed_distribution.get(1, 0.0)
        worst = max(worst, abs(absorbed - math.cos(delta / 2.0) ** 2))
    report("01 single-photon cos^2 law", worst < 1e-12)


def test_02_bell_state_statistics():
    expectations = {
        dv.DvKind.BELL_PSI_PLUS: {0: 0.5, 2: 0.5},
        dv.DvKind.BELL_PHI_PLUS: {0: 0.5, 2: 0.5},
        dv.DvKind.BELL_PSI_MINUS: {1: 1.0},
        dv.DvKind.BELL_PHI_MINUS: {1: 1.0},
    }
    worst = 0.0
    for kind, expected in expectations.items():
        dist = dv.run_scenario(dv.DvScenario(kind), CANONICAL, 30).absorbed_distribution
        for m in range(3):
            worst = max(worst, abs(dist.get(m, 0.0) - expected.get(m, 0.0)))
    report("02 Bell absorption statistics", worst < 1e-12)


def test_03_conditional_two_photon_survival():
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
    report(
        "03 conditional two-photon survival",
        abs(same - 0.5) < 1e-12 and abs(split - 0.5) < 1e-12,
    )


def test_04_bell_standing_mappings():
    pairs = [
        (dv.DvKind.BELL_PSI_PLUS, dv.DvKind.BELL_PHI_MINUS),
        (dv.DvKind.BELL_PSI_MINUS, dv.DvKind.BELL_PSI_MINUS),
        (dv.DvKind.BELL_PHI_PLUS, dv.DvKind.BELL_PHI_PLUS),
        (dv.DvKind.BELL_PHI_MINUS, dv.DvKind.BELL_PSI_PLUS),
    ]
    worst = 1.0
    for source, target_kind in pairs:
        state = dv.build_input(dv.DvScenario(source), 2)
        for rail in ("A", "B"):
            state = fock.bs_transform(state, K.with_rail(rail), MINUS_K.with_rail(rail))
        worst = min(worst, oracle.fidelity(state, dv.bell_standing_state(target_kind)))
    report("04 Bell standing-basis mappings", worst >= 1.0 - 1e-12)


def test_05_noon_three_and_four_statistics():
    cases = [
        (3, 0.0, {3: 0.25, 1: 0.75}),
        (3, math.pi, {2: 0.75, 0: 0.25}),
        (4, 0.0, {4: 0.125, 2: 0.75, 0: 0.125}),
        (4, math.pi, {3: 0.5, 1: 0.5}),
    ]
    worst = 0.0
    for n, delta, expected in cases:
        dist = dv.run_scenario(
            dv.DvScenario(dv.DvKind.NOON, n, delta), CANONICAL, 30
        ).absorbed_distribution
        for m in range(n + 1):
            worst = max(worst, abs(dist.get(m, 0.0) - expected.get(m, 0.0)))
    report("05 NOON N=3/N=4 statistics", worst < 1e-12)


def test_06_noon_decomposition_matches_engine():
    worst = 1.0
    for n in range(1, 9):
        for delta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            state = dv.build_input(dv.DvScenario(dv.DvKind.NOON, n, delta), n)
            standing = fock.bs_transform(state, K, MINUS_K)
            target = fock.superposition(
                [
                    (c, {K: n - m, MINUS_K: m})
                    for m, c in dv.noon_standing_decomposition(n, delta)
                ],
                (K, MINUS_K),
                n,
            )
            worst = min(worst, oracle.fidelity(standing, target))
    report("06 NOON closed-form decomposition", worst >= 1.0 - 1e-12)


def test_07_identical_squeezed_inputs():
    xi, phi = 1.0, 0.0
    spec = SqueezedSpec(alpha=1.0, xi=xi, phi=phi)
    result = gaussian.run_squeezed_pair(spec, spec, CANONICAL)
    ok = abs(
        result.separability["duan_standing"] - (math.exp(2 * xi) + math.exp(-2 * xi))
    ) < 1e-10
    out = gaussian.full_pipeline(
        gaussian.tensor(
            gaussian.squeezed_coherent_state(spec, K),
            gaussian.squeezed_coherent_state(spec, MINUS_K),
        ),
        CANONICAL,
    )
    var1 = (1.0 + math.cosh(2 * xi) - math.cos(phi) * math.sinh(2 * xi)) / 2.0
    var2 = (1.0 + math.cosh(2 * xi) + math.cos(phi) * math.sinh(2 * xi)) / 2.0
    for mode in (K, MINUS_K):
        ok &= abs(out.mode_block(mode)[0, 0] - var1) < 1e-10
        ok &= abs(out.mode_block(mode)[1, 1] - var2) < 1e-10
    ok &= abs(result.coherence_absorption - 1.0) < 1e-10
    bridge = fock.tensor(
        fock.squeezed_coherent_state(0.0, 0.3, 0.0, 30, K),
        fock.squeezed_coherent_state(0.0, 0.3, 0.0, 30, MINUS_K),
    )
    joint = fock.full_pipeline(bridge, CANONICAL)
    ok &= fock.partial_trace(joint, [ENV_C]).entropy() < 1e-6
    report("07 identical squeezed inputs", bool(ok))


def test_08_orthogonally_squeezed_vacua():
    worst = 0.0
    for xi in (0.25, 0.5, 1.0, 1.5):
        result = gaussian.run_squeezed_pair(
            SqueezedSpec(xi=xi, phi=math.pi), SqueezedSpec(xi=xi, phi=0.0), CANONICAL
        )
        worst = max(
            worst,
            abs(result.separability["duan_standing"] - 2.0 * math.exp(-2.0 * xi)),
        )
    report("08 orthogonally squeezed vacua", worst < 1e-10)


def test_09_closed_form_grid():
    xi = 1.0
    worst = 0.0
    for phi_k in np.linspace(0.0, 2.0 * math.pi, 17):
        for phi_mk in np.linspace(0.0, 2.0 * math.pi, 17):
            state = gaussian.tensor(
                gaussian.squeezed_coherent_state(SqueezedSpec(xi=xi, phi=phi_k), K),
                gaussian.squeezed_coherent_state(SqueezedSpec(xi=xi, phi=phi_mk), MINUS_K),
            )
            standing = gaussian.relabel(
                gaussian.bs_transform(state, K, MINUS_K), {K: C, MINUS_K: S}
            )
            engine = gaussian.duan_inseparability(standing, C, S)
            closed = gaussian.squeezed_pair_inseparability(xi, xi, phi_k, phi_mk)
            worst = max(worst, abs(engine - closed))
    report("09 inseparability closed form on the angle grid", worst < 1e-10)


def test_10_epr_inseparability_and_absorption():
    ok = True
    xi = 1.0
    result = gaussian.run_epr(0.0, 0.0, xi, CANONICAL)
    ok &= abs(result.separability["duan_travelling"] - 2.0 * math.exp(-2.0 * xi)) < 1e-10
    ok &= abs(
        result.separability["duan_standing"] - (math.exp(2 * xi) + math.exp(-2 * xi))
    ) < 1e-10
    worst_coh = 0.0
    for delta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        alpha_g, alpha_h = gaussian.epr_params_from_means(
            np.exp(1j * delta), 1.0 + 0.0j, 0.8
        )
        _, coeff_coh = gaussian.absorption_coefficients(
            gaussian.epr_state(alpha_g, alpha_h, 0.8)
        )
        worst_coh = max(worst_coh, abs(coeff_coh - (1.0 + math.cos(delta)) / 2.0))
    ok &= worst_coh < 1e-12
    for xi_vac in (0.1, 1.0, 2.0):
        coeff_int, _ = gaussian.absorption_coefficients(gaussian.epr_state(0.0, 0.0, xi_vac))
        ok &= abs(coeff_int - 0.5) < 1e-10
    report("10 EPR inseparability and absorption laws", bool(ok))


def test_11_inverse_map_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 100:
        theta_k = rng.uniform(-math.pi, math.pi)
        theta_mk = rng.uniform(-math.pi, math.pi)
        half_sum = (theta_k + theta_mk) / 2.0
        if min(abs(math.cos(half_sum)), abs(math.sin(half_sum))) < 1e-3:
            continue
        mag = rng.uniform(0.05, 3.0)
        xi = rng.uniform(0.0, 1.5)
        theta_g, theta_h, mag_g, mag_h = oracle.epr_inverse_map(
            theta_k, theta_mk, mag, xi
        )
        state = gaussian.epr_state(
            mag_g * np.exp(1j * theta_g), mag_h * np.exp(1j * theta_h), xi
        )
        worst = max(
            worst,
            abs(gaussian.mean_amplitude(state, K) - mag * np.exp(1j * theta_k)),
            abs(gaussian.mean_amplitude(state, MINUS_K) - mag * np.exp(1j * theta_mk)),
        )
        count += 1
    report("11 polar inverse map round trip", worst < 1e-9)


def test_12_engine_cross_validation():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(12):
        spec_k = SqueezedSpec(
            alpha=complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
            xi=rng.uniform(0.0, 0.6),
            phi=rng.uniform(-math.pi, math.pi),
        )
        spec_mk = SqueezedSpec(
            alpha=complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
            xi=rng.uniform(0.0, 0.6),
            phi=rng.uniform(-math.pi, math.pi),
        )
        gauss = gaussian.tensor(
            gaussian.squeezed_coherent_state(spec_k, K),
            gaussian.squeezed_coherent_state(spec_mk, MINUS_K),
        )
        bridge = fock.tensor(
            fock.squeezed_coherent_state(spec_k.alpha, spec_k.xi, spec_k.phi, 40, K),
            fock.squeezed_coherent_state(spec_mk.alpha, spec_mk.xi, spec_mk.phi, 40, MINUS_K),
        )
        for mode in (K, MINUS_K):
            stats = fock.quadrature_stats(bridge, mode)
            worst = max(
                worst,
                abs(stats.mean_x1 - gauss.mode_mean(mode)[0]),
                abs(stats.mean_x2 - gauss.mode_mean(mode)[1]),
                abs(stats.var_x1 - gauss.mode_block(mode)[0, 0]),
                abs(stats.var_x2 - gauss.mode_block(mode)[1, 1]),
                abs(
                    fock.mode_moments(bridge, mode)[1]
                    - gaussian.mode_intensity(gauss, mode)
                ),
            )
        fock_coeffs = fock.absorption_coefficients(fock.standing_basis(bridge))
        gauss_coeffs = gaussian.absorption_coefficients(gauss)
        for fock_value, gauss_value in zip(fock_coeffs, gauss_coeffs):
            if fock_value is None or gauss_value is None:
                worst = max(worst, 0.0 if fock_value == gauss_value else 1.0)
            else:
                worst = max(worst, abs(fock_value - gauss_value))
    report("12 Fock/Gaussian engine cross-validation", worst < 1e-6)


def test_13_cat_cat_at_alpha_two():
    result = ng.run_cat_cat(2.0, CANONICAL)
    ok = abs(result.extras["p_all_absorbed"] - 0.5) < 1e-3
    ok &= abs(result.extras["p_all_transmitted"] - 0.5) < 1e-3
    ok &= result.extras["zero_absorption_fidelity_with_opposite_pair"] >= 0.999
    ok &= result.separability["env_entanglement_entropy"] > 0.1
    report("13 cat-cat interference at alpha = 2", bool(ok))


def test_14_asymmetric_inputs_absorb_half():
    res_sq = ng.run_asymmetric(1.0, 0.5, CANONICAL)
    res_cat = ng.run_asymmetric(1.5, 1.5 + 0j, CANONICAL)
    ok = abs(res_sq.mean_intensity_absorption - 0.5) < 1e-9
    ok &= abs(res_cat.mean_intensity_absorption - 0.5) < 1e-9
    report("14 asymmetric inputs absorb half the intensity", bool(ok))


# ---------------------------------------------------------------------------
# 15: property suite (generated inputs)


def _random_pair_state(seed: int, cutoff: int = 4) -> fock.PureState:
    rng = np.random.default_rng(seed)
    dim = cutoff + 1
    amps = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for i in range(dim):
        for j in range(dim):
            if i + j > cutoff:
                amps[i, j] = 0.0
    amps /= np.linalg.norm(amps)
    return fock.PureState((K, MINUS_K), cutoff, amps)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_15a_bs_involution_and_norm(seed):
    state = _random_pair_state(seed)
    once = fock.bs_transform(state, K, MINUS_K)
    assert abs(np.linalg.norm(once.amplitudes) - 1.0) < 1e-12
    twice = fock.bs_transform(once, K, MINUS_K)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), reflection=st.floats(-0.5, 0.0))
@settings(max_examples=25, deadline=None)
def test_15b_channel_bookkeeping_and_normalization(seed, reflection):
    state = _random_pair_state(seed)
    absorber = AbsorberSpec(reflection=reflection)
    joint = fock.full_pipeline(state, absorber)
    dist = fock.absorbed_photon_distribution(joint)
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    standing = fock.relabel(
        fock.bs_transform(state, K, MINUS_K), {K: C, MINUS_K: S}
    )
    mean_absorbable = fock.mode_moments(standing, C)[1]
    mean_absorbed = sum(m * p for m, p in dist.items())
    tau = absorber.tau_c
    assert abs(mean_absorbed - (1.0 - tau * tau) * mean_absorbable) < 1e-10


@given(n=st.integers(1, 8), antisymmetric=st.booleans())
@settings(max_examples=20, deadline=None)
def test_15c_noon_parity_rule(n, antisymmetric):
    delta = math.pi if antisymmetric else 0.0
    dist = dv.run_scenario(
        dv.DvScenario(dv.DvKind.NOON, n, delta), CANONICAL, max(8, n)
    ).absorbed_distribution
    keep_parity = (n % 2) if not antisymmetric else (n + 1) % 2
    leakage = sum(p for m, p in dist.items() if m % 2 != keep_parity)
    assert leakage < 1e-12


def test_15d_serialized_output_is_deterministic(tmp_path, capsys):
    payload = {
        "schema": 1,
        "engine": "FOCK",
        "scenario": {"kind": "NOON", "n": 3, "delta_theta": "0.25pi"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    outputs = []
    for _ in range(2):
        assert cli.main(["run", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["sweep", "--preset", "fig9a", "--grid", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        csvs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and csvs[0] == csvs[1]
    report("15 property suite (determinism leg)", ok)
