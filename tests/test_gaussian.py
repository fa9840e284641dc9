"""Gaussian engine: preparation, transformations, inseparability, absorption."""
import cmath
import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpa_sim import fock, gaussian, results, scenario_io
from cpa_sim.absorber import CANONICAL, AbsorberSpec
from cpa_sim.gaussian import GaussianState, SqueezedSpec
from cpa_sim.modes import C, ENV_C, K, MINUS_K, S

import oracle

specs = st.builds(
    SqueezedSpec,
    alpha=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    xi=st.floats(0.0, 1.5),
    phi=st.floats(-math.pi, math.pi),
)


def two_mode_pair(spec_k: SqueezedSpec, spec_mk: SqueezedSpec) -> GaussianState:
    return gaussian.tensor(
        gaussian.squeezed_coherent_state(spec_k, K),
        gaussian.squeezed_coherent_state(spec_mk, MINUS_K),
    )


# ---------------------------------------------------------------------------
# preparation


def test_vacuum_preparation():
    state = gaussian.squeezed_coherent_state(SqueezedSpec())
    assert np.allclose(state.mean, 0.0)
    assert np.allclose(state.cov, np.eye(2))


def test_squeezed_vacuum_covariance_is_diagonal_exponential():
    state = gaussian.squeezed_coherent_state(SqueezedSpec(xi=1.0, phi=0.0))
    assert np.allclose(state.cov, np.diag([math.exp(-2.0), math.exp(2.0)]), atol=1e-12)


def test_squeezed_coherent_mean_display():
    state = gaussian.squeezed_coherent_state(SqueezedSpec(alpha=1.0, xi=0.5, phi=0.0))
    assert state.mean[0] == pytest.approx(2.0 * math.exp(-0.5), abs=1e-12)
    assert state.mean[1] == pytest.approx(0.0, abs=1e-12)


@given(spec=specs)
@settings(max_examples=50, deadline=None)
def test_variances_follow_hyperbolic_form(spec):
    state = gaussian.squeezed_coherent_state(spec)
    var1 = math.cosh(2 * spec.xi) - math.cos(spec.phi) * math.sinh(2 * spec.xi)
    var2 = math.cosh(2 * spec.xi) + math.cos(spec.phi) * math.sinh(2 * spec.xi)
    assert state.cov[0, 0] == pytest.approx(var1, abs=1e-10)
    assert state.cov[1, 1] == pytest.approx(var2, abs=1e-10)
    # pure squeezed states stay at the uncertainty limit
    assert np.linalg.det(state.cov) == pytest.approx(1.0, abs=1e-10)


def test_negative_squeezing_folds_into_angle():
    spec = SqueezedSpec(xi=-0.7, phi=0.0)
    assert spec.xi == 0.7
    assert spec.phi == pytest.approx(math.pi)


def test_squeezing_angle_pi_block_is_exact():
    """At phi = pi the squeezer turns by a quarter turn, whose cosine is exactly 0:
    libm's cos(fl(pi) / 2) = 6.1e-17 left [[2.35e17, -14.4], [-14.4, 8.9e-16]]."""
    state = gaussian.squeezed_coherent_state(SqueezedSpec(xi=20.0, phi=math.pi))
    assert np.array_equal(state.cov, np.diag([math.exp(40.0), math.exp(-40.0)]))


@given(x=st.floats(-1e9, 1e9) | st.integers(-40, 40).map(lambda k: k * (math.pi / 2.0)))
@settings(max_examples=200, deadline=None)
def test_cos_sin_is_libm_but_at_exact_quarter_turns(x):
    """_cos_sin gives the exact cos and sin of k pi / 2 where x is exactly k
    fl(pi / 2), k != 0 (found here with fractions), and libm's bits everywhere
    else, for a float and within an array alike."""
    turns = Fraction(x) / Fraction(math.pi / 2.0)
    if x != 0.0 and turns.denominator == 1:
        expected = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[int(turns) % 4]
    else:
        expected = math.cos(x), math.sin(x)
    assert gaussian._cos_sin(x) == expected
    cos, sin = gaussian._cos_sin(np.array([0.5, x, -x]))
    assert (cos[1], sin[1]) == expected and (cos[2], -sin[2]) == expected
    assert (cos[0], sin[0]) == (math.cos(0.5), math.sin(0.5))


# ---------------------------------------------------------------------------
# beamsplitter


def test_bs_vacuum_fixed_point():
    state = gaussian.vacuum_state((K, MINUS_K))
    out = gaussian.bs_transform(state, K, MINUS_K)
    assert np.allclose(out.mean, 0.0)
    assert np.allclose(out.cov, np.eye(4), atol=1e-14)


def test_bs_identical_inputs_feed_only_the_cosine_mode():
    spec = SqueezedSpec(alpha=0.9 + 0.4j, xi=0.6, phi=1.2)
    state = two_mode_pair(spec, spec)
    out = gaussian.bs_transform(state, K, MINUS_K)
    single = gaussian.squeezed_coherent_state(spec, K)
    assert np.allclose(out.mode_mean(K), math.sqrt(2.0) * single.mean, atol=1e-12)
    assert np.allclose(out.mode_mean(MINUS_K), 0.0, atol=1e-12)


def test_bs_orthogonal_vacua_give_symmetric_noise():
    xi = 0.8
    state = two_mode_pair(SqueezedSpec(xi=xi, phi=math.pi), SqueezedSpec(xi=xi, phi=0.0))
    out = gaussian.bs_transform(state, K, MINUS_K)
    noisy = (math.exp(2 * xi) + math.exp(-2 * xi)) / 2.0
    for mode in (K, MINUS_K):
        assert out.mode_block(mode)[0, 0] == pytest.approx(noisy, abs=1e-12)
        assert out.mode_block(mode)[1, 1] == pytest.approx(noisy, abs=1e-12)


@given(spec_k=specs, spec_mk=specs)
@settings(max_examples=40, deadline=None)
def test_bs_is_involution_and_preserves_purity(spec_k, spec_mk):
    state = two_mode_pair(spec_k, spec_mk)
    once = gaussian.bs_transform(state, K, MINUS_K)
    assert np.linalg.det(once.cov) == pytest.approx(np.linalg.det(state.cov), rel=1e-9)
    twice = gaussian.bs_transform(once, K, MINUS_K)
    assert np.max(np.abs(twice.cov - state.cov)) < 1e-12
    assert np.max(np.abs(twice.mean - state.mean)) < 1e-12


# ---------------------------------------------------------------------------
# absorber channel


def test_channel_full_absorption_leaves_vacuum():
    spec = SqueezedSpec(alpha=1.2, xi=0.9, phi=0.4)
    state = gaussian.relabel(two_mode_pair(spec, spec), {K: C, MINUS_K: S})
    out = gaussian.cpa_channel(state, CANONICAL)
    assert np.allclose(out.mode_mean(C), 0.0, atol=1e-14)
    assert np.allclose(out.mode_block(C), np.eye(2), atol=1e-14)
    # sine block untouched
    assert np.allclose(out.mode_block(S), state.mode_block(S), atol=1e-14)


def test_channel_lossless_limit_is_identity():
    spec = SqueezedSpec(alpha=0.5, xi=0.3, phi=2.0)
    state = gaussian.relabel(two_mode_pair(spec, spec), {K: C, MINUS_K: S})
    out = gaussian.cpa_channel(state, AbsorberSpec(reflection=0.0))
    assert out.modes == (C, S, ENV_C)
    assert np.allclose(out.cov[:4, :4], state.cov, atol=1e-14)
    assert np.allclose(out.mean[:4], state.mean, atol=1e-14)
    # the environment stays in vacuum, uncorrelated with the light
    assert np.allclose(out.cov[4:], np.eye(6)[4:], atol=1e-14)
    assert np.allclose(out.mean[4:], 0.0, atol=1e-14)


def test_channel_keep_env_carries_the_absorbed_marginal():
    spec = SqueezedSpec(alpha=0.7 - 0.2j, xi=0.5, phi=0.9)
    state = gaussian.relabel(two_mode_pair(spec, SqueezedSpec()), {K: C, MINUS_K: S})
    out = gaussian.cpa_channel(state, CANONICAL)
    assert np.allclose(out.mode_block(ENV_C), state.mode_block(C), atol=1e-14)
    assert np.allclose(out.mode_mean(ENV_C), state.mode_mean(C), atol=1e-14)


def test_pipeline_output_variances_for_identical_squeezed_inputs():
    xi, phi = 0.8, 1.1
    spec = SqueezedSpec(alpha=1.0, xi=xi, phi=phi)
    out = gaussian.full_pipeline(two_mode_pair(spec, spec), CANONICAL)
    var1 = (1.0 + math.cosh(2 * xi) - math.cos(phi) * math.sinh(2 * xi)) / 2.0
    var2 = (1.0 + math.cosh(2 * xi) + math.cos(phi) * math.sinh(2 * xi)) / 2.0
    for mode in (K, MINUS_K):
        assert out.mode_block(mode)[0, 0] == pytest.approx(var1, abs=1e-10)
        assert out.mode_block(mode)[1, 1] == pytest.approx(var2, abs=1e-10)
        assert np.allclose(out.mode_mean(mode), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# inseparability


def test_duan_coherent_pair_sits_at_shot_noise():
    state = two_mode_pair(SqueezedSpec(alpha=0.8), SqueezedSpec(alpha=-0.3 + 1j))
    assert gaussian.duan_inseparability(state, K, MINUS_K) == pytest.approx(2.0, abs=1e-12)


def test_duan_identical_squeezed_pair():
    xi = 1.0
    spec = SqueezedSpec(xi=xi, phi=0.0)
    state = two_mode_pair(spec, spec)
    expected = math.exp(2 * xi) + math.exp(-2 * xi)
    assert gaussian.duan_inseparability(state, K, MINUS_K) == pytest.approx(
        expected, abs=1e-10
    )


@pytest.mark.parametrize("xi", [0.25, 0.5, 1.0, 1.5])
def test_duan_orthogonal_vacua_standing_modes(xi):
    state = two_mode_pair(SqueezedSpec(xi=xi, phi=math.pi), SqueezedSpec(xi=xi, phi=0.0))
    standing = gaussian.relabel(gaussian.bs_transform(state, K, MINUS_K), {K: C, MINUS_K: S})
    assert gaussian.duan_inseparability(standing, C, S) == pytest.approx(
        2.0 * math.exp(-2 * xi), abs=1e-10
    )


def test_closed_form_matches_covariance_on_a_grid():
    xi = 1.0
    angles = np.linspace(0.0, 2.0 * math.pi, 17)
    for phi_k in angles:
        for phi_mk in angles:
            state = two_mode_pair(SqueezedSpec(xi=xi, phi=phi_k), SqueezedSpec(xi=xi, phi=phi_mk))
            standing = gaussian.relabel(
                gaussian.bs_transform(state, K, MINUS_K), {K: C, MINUS_K: S}
            )
            engine = gaussian.duan_inseparability(standing, C, S)
            closed = gaussian.squeezed_pair_inseparability(xi, xi, phi_k, phi_mk)
            assert abs(engine - closed) < 1e-10


@given(spec_k=specs, spec_mk=specs)
@settings(max_examples=50, deadline=None)
def test_duan_from_partner_basis_is_duan_inseparability(spec_k, spec_mk):
    """Each pair's Duan value, read as a sum of two variances of the other basis,
    agrees with duan_inseparability's definition on the pair itself."""
    state = two_mode_pair(spec_k, spec_mk)
    standing = gaussian.standing_basis(state)
    for read, definition in (
        (gaussian.duan_from_partner_basis(standing, S, C),
         gaussian.duan_inseparability(state, K, MINUS_K)),
        (gaussian.duan_from_partner_basis(state, MINUS_K, K),
         gaussian.duan_inseparability(standing, C, S)),
    ):
        assert read == pytest.approx(definition, rel=1e-12, abs=1e-12)


def test_closed_form_special_points():
    assert gaussian.squeezed_pair_inseparability(1.0, 1.0, math.pi, 0.0) == pytest.approx(
        2 * math.exp(-2.0), abs=1e-12
    )
    assert gaussian.squeezed_pair_inseparability(1.0, 1.0, 0.7, 0.7) == pytest.approx(
        math.exp(2.0) + math.exp(-2.0), abs=1e-12
    )
    assert gaussian.squeezed_pair_inseparability(0.5, 1.2, math.pi, 0.0) == pytest.approx(
        math.exp(-1.0) + math.exp(-2.4), abs=1e-12
    )


# ---------------------------------------------------------------------------
# absorption coefficients


def test_identical_squeezed_inputs_absorb_all_coherence():
    spec = SqueezedSpec(alpha=1.3 + 0.2j, xi=0.7, phi=0.5)
    coeff_int, coeff_coh = gaussian.absorption_coefficients(
        gaussian.standing_basis(two_mode_pair(spec, spec)))
    assert coeff_coh == pytest.approx(1.0, abs=1e-12)
    assert coeff_int is not None and 0.0 <= coeff_int <= 1.0


def test_coherence_law_for_equal_amplitudes():
    xi = 0.8
    for delta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        alpha_g, alpha_h = gaussian.epr_params_from_means(
            np.exp(1j * delta), 1.0 + 0.0j, xi
        )
        state = gaussian.epr_standing(alpha_g, alpha_h, xi)
        _, coeff_coh = gaussian.absorption_coefficients(state)
        assert abs(coeff_coh - (1.0 + math.cos(delta)) / 2.0) < 1e-12


def test_coherence_absorption_tends_to_half_for_lopsided_amplitudes():
    xi = 0.5
    previous = None
    for ratio in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]:
        alpha_g, alpha_h = gaussian.epr_params_from_means(
            complex(ratio), 1.0 + 0.0j, xi
        )
        state = gaussian.epr_standing(alpha_g, alpha_h, xi)
        _, coeff_coh = gaussian.absorption_coefficients(state)
        assert coeff_coh > 0.5
        if previous is not None:
            assert coeff_coh < previous
        previous = coeff_coh
    assert previous < 0.5 + 0.1


def test_undefined_coefficients_for_squeezed_vacua():
    state = two_mode_pair(SqueezedSpec(xi=0.5, phi=0.0), SqueezedSpec(xi=0.5, phi=1.0))
    coeff_int, coeff_coh = gaussian.absorption_coefficients(gaussian.standing_basis(state))
    assert coeff_coh is None  # no coherent component anywhere
    assert coeff_int == pytest.approx(0.5, abs=1e-12)


def test_all_vacuum_coefficients_undefined():
    state = gaussian.vacuum_state((C, S))
    coeff_int, coeff_coh = gaussian.absorption_coefficients(state)
    assert coeff_int is None and coeff_coh is None


# ---------------------------------------------------------------------------
# entangled pair (preceding-mode) construction


def test_epr_vacuum_inseparability():
    state = gaussian.epr_state(0.0, 0.0, 1.0)
    assert gaussian.duan_inseparability(state, K, MINUS_K) == pytest.approx(
        2 * math.exp(-2.0), abs=1e-12
    )


def test_epr_no_squeezing_is_coherent_pair():
    state = gaussian.epr_state(0.4 + 0.1j, -0.2j, 0.0)
    assert gaussian.duan_inseparability(state, K, MINUS_K) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(state.cov, np.eye(4), atol=1e-12)


def test_epr_standing_modes_repeat_preceding_modes():
    alpha_g, alpha_h, xi = 0.6 + 0.3j, -0.2 + 0.5j, 0.9
    state = gaussian.epr_state(alpha_g, alpha_h, xi)
    standing = gaussian.bs_transform(state, K, MINUS_K)
    mode_g = gaussian.squeezed_coherent_state(SqueezedSpec(alpha_g, xi, math.pi), K)
    mode_h = gaussian.squeezed_coherent_state(SqueezedSpec(alpha_h, xi, 0.0), MINUS_K)
    assert np.allclose(standing.mode_mean(K), mode_g.mean, atol=1e-12)
    assert np.allclose(standing.mode_block(K), mode_g.cov, atol=1e-12)
    assert np.allclose(standing.mode_mean(MINUS_K), mode_h.mean, atol=1e-12)
    assert np.allclose(standing.mode_block(MINUS_K), mode_h.cov, atol=1e-12)


def test_epr_travelling_variances_are_symmetric():
    xi = 1.0
    state = gaussian.epr_state(0.0, 0.0, xi)
    noisy = (math.exp(2 * xi) + math.exp(-2 * xi)) / 2.0
    for mode in (K, MINUS_K):
        assert np.allclose(state.mode_block(mode), noisy * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("xi", [0.1, 1.0, 2.0])
def test_epr_vacuum_intensity_absorption_is_half(xi):
    state = gaussian.epr_standing(0.0, 0.0, xi)
    coeff_int, _ = gaussian.absorption_coefficients(state)
    assert coeff_int == pytest.approx(0.5, abs=1e-10)
    assert gaussian.epr_intensity_absorption(0.0, 0.0, xi) == pytest.approx(0.5, abs=1e-12)


def test_epr_intensity_closed_form_matches_engine():
    rng = np.random.default_rng(5)
    for _ in range(25):
        alpha_g = complex(rng.normal(), rng.normal())
        alpha_h = complex(rng.normal(), rng.normal())
        xi = rng.uniform(0.05, 1.5)
        state = gaussian.epr_standing(alpha_g, alpha_h, xi)
        coeff_int, _ = gaussian.absorption_coefficients(state)
        closed = gaussian.epr_intensity_absorption(alpha_g, alpha_h, xi)
        assert abs(coeff_int - closed) < 1e-10


def test_epr_intensity_all_in_absorbed_mode():
    assert gaussian.epr_intensity_absorption(1.5, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_preceding_mode_intensity_is_a_sum_of_squares():
    """(e^xi Re alpha)^2 + (e^-xi Im alpha)^2 + sinh^2 xi (exponents swapped for
    h) is the polar |alpha|^2 (cosh 2xi +- cos 2theta sinh 2xi) + sinh^2 xi, to
    the ~1e-13 the polar form loses to cancellation, and stays finite where the
    polar form's two terms overflow to inf - inf."""
    rng = np.random.default_rng(7)
    for _ in range(2000):
        alpha, xi = complex(*rng.normal(scale=3.0, size=2)), rng.uniform(0.0, 5.0)
        mag2 = abs(alpha) ** 2
        cos_2theta = (alpha.real ** 2 - alpha.imag ** 2) / mag2
        for sign in (1.0, -1.0):
            polar = mag2 * (math.cosh(2 * xi) + sign * cos_2theta * math.sinh(2 * xi))
            polar += math.sinh(xi) ** 2
            got = gaussian.preceding_mode_intensity(alpha, xi, stretched_x1=sign > 0)
            assert abs(got - polar) <= 1e-12 * polar
    assert gaussian.epr_intensity_absorption(1e150j, 0.0, 20.0) == 1.0


def test_epr_intensity_absorption_rejects_vacuum():
    with pytest.raises(ValueError):
        gaussian.epr_intensity_absorption(0.0, 0.0, 0.0)


def test_small_squeezing_recovers_classical_pattern():
    xi = 0.1
    for theta in np.linspace(0.0, 2.0 * math.pi, 21):
        alpha_g, alpha_h = gaussian.epr_params_from_means(
            np.exp(1j * theta), 1.0 + 0.0j, xi
        )
        state = gaussian.epr_standing(alpha_g, alpha_h, xi)
        coeff_int, _ = gaussian.absorption_coefficients(state)
        assert abs(coeff_int - (1.0 + math.cos(theta)) / 2.0) < 0.02


epr_amplitudes = st.builds(lambda log_mag, phase: 10.0 ** log_mag * cmath.exp(1j * phase),
                           st.floats(-20.0, 154.0), st.floats(-math.pi, math.pi)) | st.just(0j)


@given(alpha_g=epr_amplitudes, alpha_h=epr_amplitudes, xi=st.floats(0.0, 20.0),
       tau=st.floats(0.0, 1.0), swap=st.booleans())
@settings(max_examples=200, deadline=None)
@example(alpha_g=0j, alpha_h=0j, xi=6.1e-5, tau=0.0, swap=False)  # the route misses 1/2 by 1.4e-10
@example(alpha_g=0j, alpha_h=1e-4 + 0j, xi=6.1e-5, tau=0.5, swap=True)  # I ~ 1e-8
def test_epr_runs_to_xi_20_with_duan_values_in_closed_form(alpha_g, alpha_h, xi, tau, swap):
    """GAUSSIAN EPR exits 0 for xi <= 20 wherever (|alpha_g|^2 + |alpha_h|^2)
    e^(2 xi), the most intensity the preceding modes can hold, is below 1e308,
    and its Duan values are within 1e-12 of 2 e^(-2 xi) and 2 cosh(2 xi).  For
    xi <= 3, where the route of two balanced mixes still holds its digits, every
    number agrees with that route within 1e-12 of max(1, |value|, |alpha| e^xi),
    the scale of the means.  The intensity coefficient's reference is instead
    the exact share of the standing state the run reads (oracle
    exact_intensity_share): near vacuum its <n> are differences of covariance
    entries near 1, which the two mixes round at ~1e-16 cosh(2 xi), so the
    route's coefficient misses by ~1e-16 / I at a total intensity I."""
    bound = (abs(alpha_g) * abs(alpha_g) + abs(alpha_h) * abs(alpha_h)) * math.exp(2.0 * xi)
    assume(bound < 1e308)
    payload = {"schema": 1, "engine": "GAUSSIAN",
               "scenario": {"kind": "EPR", "alpha_g": [alpha_g.real, alpha_g.imag],
                            "alpha_h": [alpha_h.real, alpha_h.imag], "xi": xi},
               "absorber": {"tau_c": tau, "swap_roles": swap}}
    spec = scenario_io.parse_scenario_dict(payload)
    result = scenario_io.run_scenario_file(spec)
    results.clean(result.to_dict())  # what `cpa run` prints: every value finite
    duan = result.separability
    assert duan["duan_travelling"] == pytest.approx(2.0 * math.exp(-2.0 * xi), rel=1e-12)
    assert duan["duan_standing"] == pytest.approx(2.0 * math.cosh(2.0 * xi), rel=1e-12)
    if xi > 3.0:
        return
    reference = oracle.two_mix_epr_readouts(alpha_g, alpha_h, xi, spec.absorber)
    reference["mean_intensity_absorption"] = oracle.exact_intensity_share(
        gaussian.epr_standing(alpha_g, alpha_h, xi))
    quadratures = result.extras["output_quadratures"]
    numbers = {"mean_intensity_absorption": result.mean_intensity_absorption,
               "coherence_absorption": result.coherence_absorption, **duan,
               **{f"{mode}.{key}": value for mode, stats in quadratures.items()
                  for key, value in stats.items()}}
    scale = max(abs(alpha_g), abs(alpha_h)) * math.exp(xi)
    for name, old in reference.items():
        new = numbers[name]
        if old is None or new is None:
            assert old is new, name
        else:
            assert abs(new - old) <= 1e-12 * max(1.0, abs(old), scale), name


@pytest.mark.parametrize("engine", ["GAUSSIAN", "FOCK"])
def test_epr_run_mixes_once_before_the_absorber(engine):
    """An EPR run builds its input on the standing modes, and both engines read
    its coefficients there.  The Gaussian engine mixes it once, into the
    travelling modes its standing Duan value reads, before the absorber; the
    Fock engine never mixes.  Neither goes there and back."""
    module, absorber = (gaussian, "cpa_channel") if engine == "GAUSSIAN" else (
        fock, "absorber_environment")
    calls = []

    def spy(name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    payload = {"schema": 1, "engine": engine, "absorber": {"tau_c": 0.3},
               "scenario": {"kind": "EPR", "alpha_g": 0.3, "alpha_h": [0.1, -0.2], "xi": 0.4}}
    with mock.patch.multiple(module, **{name: spy(name) for name in ("bs_transform", absorber)}):
        scenario_io.run_scenario_file(scenario_io.parse_scenario_dict(payload))
    assert calls[:calls.index(absorber)] == (["bs_transform"] if engine == "GAUSSIAN" else [])
    if engine == "FOCK":
        assert "bs_transform" not in calls


# ---------------------------------------------------------------------------
# polar inverse map


def test_inverse_map_trivial_angles():
    # in-phase input feeds only the absorbed preceding mode
    theta_g, theta_h, mag_g, mag_h = oracle.epr_inverse_map(0.0, 0.0, 1.0, 0.7)
    assert theta_g == pytest.approx(0.0, abs=1e-12)
    assert mag_h == pytest.approx(0.0, abs=1e-12)
    assert mag_g == pytest.approx(math.sqrt(2.0) * math.exp(-0.7), abs=1e-12)


def test_inverse_map_no_squeezing_identity():
    theta_g, _, _, _ = oracle.epr_inverse_map(0.4, 0.2, 1.0, 0.0)
    assert theta_g == pytest.approx(0.3, abs=1e-12)


def test_inverse_map_singular_angles_raise():
    # half-sum at 0 with unequal phases leaves a genuine 0/0 in the h branch
    with pytest.raises(oracle.SingularAngleError):
        oracle.epr_inverse_map(0.3, -0.3, 1.0, 0.5)
    # half-sum at pi/2 with unequal phases does the same for the g branch
    with pytest.raises(oracle.SingularAngleError):
        oracle.epr_inverse_map(math.pi + 0.4, -0.4, 1.0, 0.5)


def test_inverse_map_round_trip_recovers_means():
    rng = np.random.default_rng(42)
    count = 0
    while count < 100:
        theta_k = rng.uniform(-math.pi, math.pi)
        theta_mk = rng.uniform(-math.pi, math.pi)
        half_sum = (theta_k + theta_mk) / 2.0
        if min(abs(math.cos(half_sum)), abs(math.sin(half_sum))) < 1e-3:
            continue
        mag = rng.uniform(0.1, 3.0)
        xi = rng.uniform(0.0, 1.5)
        theta_g, theta_h, mag_g, mag_h = oracle.epr_inverse_map(
            theta_k, theta_mk, mag, xi
        )
        state = gaussian.epr_state(
            mag_g * np.exp(1j * theta_g), mag_h * np.exp(1j * theta_h), xi
        )
        assert abs(gaussian.mean_amplitude(state, K) - mag * np.exp(1j * theta_k)) < 1e-9
        assert abs(
            gaussian.mean_amplitude(state, MINUS_K) - mag * np.exp(1j * theta_mk)
        ) < 1e-9
        count += 1


def test_cartesian_inverse_is_regular_at_singular_angles():
    alpha_g, alpha_h = gaussian.epr_params_from_means(
        np.exp(1j * math.pi), 1.0 + 0.0j, 0.5
    )
    state = gaussian.epr_state(alpha_g, alpha_h, 0.5)
    assert abs(gaussian.mean_amplitude(state, K) - np.exp(1j * math.pi)) < 1e-12


# ---------------------------------------------------------------------------
# cross-engine validation


@given(
    # amplitudes kept inside the region the cutoff-40 bridge can represent
    # at the 1e-10 truncated-norm standard
    alpha=st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False),
    xi=st.floats(0.0, 0.6),
    phi=st.floats(-math.pi, math.pi),
)
@settings(max_examples=20, deadline=None)
def test_fock_bridge_agrees_with_gaussian_engine(alpha, xi, phi):
    spec = SqueezedSpec(alpha=alpha, xi=xi, phi=phi)
    gauss = gaussian.squeezed_coherent_state(spec, K)
    bridge = fock.squeezed_coherent_state(alpha, xi, phi, 40, K)
    stats = oracle.quadrature_stats(bridge, K)
    assert stats.mean_x1 == pytest.approx(gauss.mean[0], abs=1e-6)
    assert stats.mean_x2 == pytest.approx(gauss.mean[1], abs=1e-6)
    assert stats.var_x1 == pytest.approx(gauss.cov[0, 0], abs=1e-6)
    assert stats.var_x2 == pytest.approx(gauss.cov[1, 1], abs=1e-6)
    assert stats.cov_x1x2 == pytest.approx(gauss.cov[0, 1], abs=1e-6)
    assert fock.mode_moments(bridge, K)[1] == pytest.approx(
        oracle.mode_intensity(gauss, K), abs=1e-6
    )


def test_scenario_runner_reports_light_absorber_separability():
    spec = SqueezedSpec(alpha=1.0, xi=1.0, phi=0.0)
    result = gaussian.run_squeezed_pair(spec, spec)
    assert result.separability["light_absorber_inseparability"] == pytest.approx(
        result.separability["duan_standing"], abs=0.0
    )
    assert result.separability["duan_standing"] == pytest.approx(
        result.extras["closed_form_standing_inseparability"], abs=1e-10
    )


# ---------------------------------------------------------------------------
# batches


absorbers = st.builds(
    lambda tau, swap: AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap),
    st.floats(0.0, 1.0),
    st.booleans(),
)
epr_inputs = st.tuples(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.5),
)


def batch_spec(specs_) -> SqueezedSpec:
    """One SqueezedSpec whose fields are arrays over the given specs."""
    return SqueezedSpec(*(np.array([getattr(s, f) for s in specs_]) for f in ("alpha", "xi", "phi")))


def _same(batched, single) -> bool:
    """Bitwise equality, with NaN in a batch standing for an undefined None."""
    if single is None:
        return bool(np.isnan(batched))
    return np.array_equal(batched, single)


@given(
    pairs=st.lists(st.tuples(specs, specs), min_size=1, max_size=4),
    eprs=st.lists(epr_inputs, min_size=1, max_size=4),
    absorber=absorbers,
)
@settings(max_examples=40, deadline=None)
def test_batched_calls_match_single_states(pairs, eprs, absorber):
    """Element i of each batched call equals the single-state call on element i.
    The coefficients read each pair's standing state: its standing_basis image,
    and for EPR light also the product of its preceding modes, as runs and
    sweeps build it."""
    epr_columns = [np.array(col) for col in zip(*eprs)]
    cases = [
        (
            two_mode_pair(*(batch_spec(col) for col in zip(*pairs))),
            [two_mode_pair(k, mk) for k, mk in pairs],
        ),
        (
            gaussian.epr_state(*epr_columns),
            [gaussian.epr_state(*e) for e in eprs],
        ),
    ]
    standings = [(gaussian.standing_basis(batch), [gaussian.standing_basis(s) for s in singles])
                 for batch, singles in cases]
    standings.append((gaussian.epr_standing(*epr_columns), [gaussian.epr_standing(*e) for e in eprs]))
    for batch, singles in cases:
        out = gaussian.full_pipeline(batch, absorber)
        duan = gaussian.duan_inseparability(batch, K, MINUS_K)
        for i, single in enumerate(singles):
            single_out = gaussian.full_pipeline(single, absorber)
            assert out.modes == single_out.modes
            assert np.array_equal(out.mean[i], single_out.mean)
            assert np.array_equal(out.cov[i], single_out.cov)
            assert duan[i] == gaussian.duan_inseparability(single, K, MINUS_K)
    for standing, singles in standings:
        coeffs = gaussian.absorption_coefficients(standing)
        for i, single in enumerate(singles):
            single_coeffs = gaussian.absorption_coefficients(single)
            assert all(_same(c[i], s) for c, s in zip(coeffs, single_coeffs))


def test_batch_with_one_unphysical_covariance_raises():
    cov = np.stack([np.eye(4)] * 3)
    cov[1, 2:, 2:] = 0.5 * np.eye(2)  # second state's MINUS_K mode below the bound
    with pytest.raises(ValueError, match=r"mode .* uncertainty relation .* batch index \(1,\)"):
        GaussianState((K, MINUS_K), np.zeros((3, 4)), cov)
    GaussianState((K, MINUS_K), np.zeros((3, 4)), np.stack([np.eye(4)] * 3))


@pytest.mark.parametrize("size", [1, 37, 324, 1000])
@pytest.mark.parametrize("preset", ["fig9", "fig8", "fig6"])
def test_batched_calls_match_single_states_at_preset_shapes(preset, size):
    """Batches the size of the presets' and larger, whose covariance products
    _mix forms state by state in numpy's stacked matmul, in the presets'
    parameter shapes: scalar xi and phi with array alpha (fig9), array xi (fig8)
    and array phi (fig6).  Every element equals the single-state call bit for bit, and so
    do the coefficients of the standing states the presets read (the product of
    the preceding modes for fig8 and fig9, the standing_basis image for fig6)."""
    rng = np.random.default_rng(size)
    alpha_g, alpha_h = (rng.normal(size=size) + 1j * rng.normal(size=size) for _ in "gh")
    if preset == "fig6":
        phi_k, phi_mk = rng.uniform(0.0, 2.0 * math.pi, (2, size))
        batch = two_mode_pair(SqueezedSpec(xi=1.0, phi=phi_k), SqueezedSpec(xi=1.0, phi=phi_mk))
        singles = [two_mode_pair(SqueezedSpec(xi=1.0, phi=k), SqueezedSpec(xi=1.0, phi=mk))
                   for k, mk in zip(phi_k.tolist(), phi_mk.tolist())]
        standing = gaussian.standing_basis(batch)
        single_standings = [gaussian.standing_basis(s) for s in singles]
    else:
        xi = rng.uniform(0.01, 2.0, size) if preset == "fig8" else 0.5
        params = list(zip(alpha_g.tolist(), alpha_h.tolist(), np.broadcast_to(xi, size).tolist()))
        batch = gaussian.epr_state(alpha_g, alpha_h, xi)
        singles = [gaussian.epr_state(*p) for p in params]
        standing = gaussian.epr_standing(alpha_g, alpha_h, xi)
        single_standings = [gaussian.epr_standing(*p) for p in params]
    absorber = AbsorberSpec(reflection=-0.35, swap_roles=size % 2 == 0)
    out = gaussian.full_pipeline(batch, absorber)
    coeffs = gaussian.absorption_coefficients(standing)
    duan = gaussian.duan_inseparability(batch, K, MINUS_K)
    for i, (single, single_standing) in enumerate(zip(singles, single_standings)):
        single_out = gaussian.full_pipeline(single, absorber)
        assert np.array_equal(out.mean[i], single_out.mean)
        assert np.array_equal(out.cov[i], single_out.cov)
        single_coeffs = gaussian.absorption_coefficients(single_standing)
        assert all(_same(c[i], s) for c, s in zip(coeffs, single_coeffs))
        assert duan[i] == gaussian.duan_inseparability(single, K, MINUS_K)


def _outcome(fn, *args):
    """Type, shape and bytes of a result, or type and text of its exception."""
    try:
        result = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return type(result), np.shape(result), np.asarray(result).tobytes()


def _shaped(values: list, shape: str):
    """The values as a Python scalar (the first), a 0-d, 1-d or 2-d array."""
    if shape == "scalar":
        return values[0]
    if shape == "0-d":
        return np.array(values[0])
    return np.array(values).reshape((-1,) if shape == "1-d" else (1, -1))


@given(
    values=st.lists(st.floats(-800.0, 800.0) | st.sampled_from([math.nan, math.inf]),
                    min_size=1, max_size=6),
    complexes=st.lists(st.complex_numbers(max_magnitude=1e200), min_size=1, max_size=6),
    fn=st.sampled_from([math.exp, math.cosh, math.sinh, math.cos, math.sin]),
    shape=st.sampled_from(["scalar", "0-d", "1-d", "2-d"]),
)
@settings(max_examples=200, deadline=None)
def test_per_element_maps_equal_the_python_loops(values, complexes, fn, shape):
    """_per_element and _abs2 give the list comprehensions' values bit for bit,
    or raise the same exception with the same text (OverflowError past double
    range, ValueError for cos(inf))."""
    x = _shaped(values, shape)
    assert _outcome(gaussian._per_element, fn, x) == _outcome(oracle.per_element_loop, fn, x)
    for z in (_shaped(complexes, shape), _shaped([abs(v) for v in complexes], shape)):
        assert _outcome(gaussian._abs2, z) == _outcome(oracle.abs2_loop, z)


def _near_floor(a: float, b: float, c: float, ulps: int) -> float:
    """d with ad - bc within a few ulps of d of gaussian.DET_FLOOR."""
    d = (gaussian.DET_FLOOR + b * c) / a
    for _ in range(abs(ulps)):
        d = math.nextafter(d, math.copysign(math.inf, ulps))
    return d


magnitudes = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-17, 16))
entries = magnitudes | st.sampled_from([math.nan, math.inf, -math.inf])
near_floor_blocks = st.builds(
    lambda a, b, c, ulps: [a, b, c, _near_floor(a, b, c, ulps)],
    magnitudes.filter(lambda a: abs(a) > 1e-17), magnitudes, magnitudes, st.integers(-4, 4),
)
squeezed_blocks = st.builds(
    lambda r, t: [math.cosh(2 * r) - math.cos(t) * math.sinh(2 * r), math.sin(t) * math.sinh(2 * r),
                  math.sin(t) * math.sinh(2 * r), math.cosh(2 * r) + math.cos(t) * math.sinh(2 * r)],
    st.floats(0.0, 20.0), st.floats(-math.pi, math.pi),
)


@given(
    blocks=st.lists(st.lists(entries, min_size=4, max_size=4) | near_floor_blocks
                    | squeezed_blocks, min_size=1, max_size=12),
    modes=st.integers(1, 3),
    batched=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_screened_determinants_decide_as_lapack_does(blocks, modes, batched):
    """The closed-form screen passes exactly the blocks np.linalg.det passes, and
    fails first at the same (batch index, mode) with the same message; the one
    exception, a failure that rounding could account for, raises
    FloatingPointError naming the same block and determinant.  Entries up to
    1e17, determinants within ulps of the floor, negative ones, NaN and inf."""
    states = max(1, len(blocks) // modes) if batched else 1
    cov = np.zeros((states, 2 * modes, 2 * modes))
    for n, (a, b, c, d) in enumerate((blocks * (states * modes))[:states * modes]):
        i = 2 * (n % modes)
        cov[n // modes, i:i + 2, i:i + 2] = [[a, b], [c, d]]
    cov = cov if batched else cov[0]
    labels = (K, MINUS_K, C)[:modes]
    with np.errstate(all="ignore"):
        expected = oracle.stacked_det_check(labels, cov)
        if expected is None:
            gaussian._check_uncertainty(labels, cov)
            return
        with pytest.raises((ValueError, FloatingPointError)) as info:
            gaussian._check_uncertainty(labels, cov)
    index, message = expected
    if info.type is ValueError:
        assert str(info.value) == message
    else:
        determinant = message.partition("(block determinant ")[2].partition(")")[0]
        where = f") at batch index {index[:-1]}" if batched else ")"
        assert str(info.value).startswith(f"mode {labels[index[-1]]}: whether it violates")
        assert f"(block determinant {determinant} from entries up to " in str(info.value)
        assert str(info.value).endswith(where)
        i = 2 * index[-1]  # rounding reaches the floor only from entries this large, or inf
        scale = float(np.abs(cov[index[:-1] + np.s_[i:i + 2, i:i + 2]]).max())
        assert not (math.isfinite(scale)
                    and 1e-11 * scale * scale <= gaussian.DET_FLOOR - float(determinant))


def test_determinant_lost_to_rounding_is_a_numerical_failure():
    """Mixed back to the standing basis, EPR light at xi = 20 has e^40-sized
    entries cancelled: the mode block's determinant of -10.77 is rounding noise,
    so it raises FloatingPointError, as does a block whose products overflow,
    where a well-conditioned failure (0.5 I) raises ValueError."""
    with pytest.raises(FloatingPointError, match=r"^mode K: whether it violates the uncertainty "
                       r"relation is lost to rounding \(block determinant -10.769296115788425 "
                       r"from entries up to 2.35e\+17\)$"):
        oracle.two_mix_epr(0.0, 0.0, 20.0)
    block = np.array([[2.35e17, -14.4], [-14.4, -1e-17]])
    with pytest.raises(FloatingPointError, match=r"block determinant -209\.7"):
        gaussian._check_uncertainty((K,), block)
    # ad and bc overflow, so no bound can be formed: LAPACK's 0.0 for the rotated
    # squeezed block's e^600-sized entries is what rounding leaves of them
    with pytest.raises(FloatingPointError,
                       match=r"determinant 0\.0 from entries up to 2\.91e\+260"):
        gaussian.squeezed_coherent_state(SqueezedSpec(xi=300.0, phi=1.0))
    with pytest.raises(ValueError, match=r"^mode K violates .* \(block determinant 0\.25\)$"):
        gaussian._check_uncertainty((K,), 0.5 * np.eye(2))


# ---------------------------------------------------------------------------
# checks a map skips


@contextlib.contextmanager
def recording(module, *names):
    """Inside, module.<name> records each return value in outputs[name]; the
    module's own calls (bs_transform -> _mix) look the name up, so they record too."""
    outputs = {name: [] for name in names}

    def recorder(name, fn):
        def call(*args, **kwargs):
            outputs[name].append(fn(*args, **kwargs))
            return outputs[name][-1]
        return call

    with mock.patch.multiple(module, **{n: recorder(n, getattr(module, n)) for n in names}):
        yield outputs


@given(
    pairs=st.lists(st.tuples(specs, specs), min_size=1, max_size=3),
    batched=st.booleans(),
    epr=st.booleans(),
    absorber=st.just(CANONICAL) | absorbers,
)
@settings(max_examples=40, deadline=None)
def test_maps_build_states_that_pass_the_checks_they_skip(pairs, batched, epr, absorber):
    """tensor and relabel check only mode labels, and _mix's symmetry check
    takes its exact branch: every output of tensor, relabel and the pipeline
    stages passes GaussianState(...) when rebuilt from copies, and every _mix
    output is exactly symmetric; for one state and a batch, squeezed pairs and
    EPR inputs (built on the standing modes, as run_epr does), at any absorber."""
    if batched:
        pairs = [tuple(batch_spec(col) for col in zip(*pairs))]
    spec_k, spec_mk = pairs[0]
    with recording(gaussian, "tensor", "relabel", "_mix") as outputs:
        if epr:  # the squeezed inputs' amplitudes and the first xi
            standing = gaussian.epr_standing(spec_k.alpha, spec_mk.alpha, spec_k.xi)
            state = gaussian.travelling_basis(standing)
        else:
            state = two_mode_pair(spec_k, spec_mk)
            standing = gaussian.standing_basis(state)
        joint = gaussian.cpa_channel(standing, absorber)
        out = gaussian.travelling_basis(joint)
    # tensor builds the input pair, then attaches the environment on the one rail;
    # one basis change precedes the absorber and one follows it, on either input
    assert len(outputs["tensor"]) == 2 and len(outputs["relabel"]) == 2
    for built in outputs["tensor"] + outputs["relabel"] + [state, standing, joint, out]:
        GaussianState(built.modes, built.mean.copy(), built.cov.copy())
    assert len(outputs["_mix"]) == 3
    for mixed in outputs["_mix"]:
        assert np.array_equal(mixed.cov, np.swapaxes(mixed.cov, -1, -2))
