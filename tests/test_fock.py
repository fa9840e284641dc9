"""Fock engine: beamsplitter, absorber channel, reductions, moments."""
import cmath
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from cpa_sim import cli, dv, fock, gaussian, nongaussian
from cpa_sim.absorber import CANONICAL, AbsorberSpec
from cpa_sim.fock import CutoffError, FockError
from cpa_sim.modes import C, ENV_C, K, MINUS_K, S, ModeError
from test_gaussian import recording
from test_golden import GOLDEN_DIR

INV = 1.0 / math.sqrt(2.0)


def random_two_mode_state(seed: int, cutoff: int = 4) -> fock.PureState:
    rng = np.random.default_rng(seed)
    dim = cutoff + 1
    amps = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    # keep only sectors the beamsplitter can hold exactly
    for i in range(dim):
        for j in range(dim):
            if i + j > cutoff:
                amps[i, j] = 0.0
    amps /= np.linalg.norm(amps)
    return fock.PureState((K, MINUS_K), cutoff, amps)


def random_rail_state(seed: int, rails: int, cutoff: int = 3) -> fock.PureState:
    """Random travelling state on one or two rails (K, MINUS_K each), every
    rail's total within the cutoff so no map of the pipeline truncates."""
    rng = np.random.default_rng(seed)
    dim = cutoff + 1
    names = ["", "B"][:rails]
    modes = tuple(m.with_rail(r) for r in names for m in (K, MINUS_K))
    amps = rng.normal(size=(dim,) * len(modes)) + 1j * rng.normal(size=(dim,) * len(modes))
    levels = np.indices(amps.shape)
    for rail in range(rails):
        amps[levels[2 * rail] + levels[2 * rail + 1] > cutoff] = 0.0
    return fock.PureState(modes, cutoff, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# beamsplitter


def test_bs_single_photon_splits_evenly():
    state = fock.basis_state({K: 1, MINUS_K: 0}, 4)
    out = fock.bs_transform(state, K, MINUS_K)
    assert out.amplitude({K: 1, MINUS_K: 0}) == pytest.approx(INV, abs=1e-14)
    assert out.amplitude({K: 0, MINUS_K: 1}) == pytest.approx(INV, abs=1e-14)


def test_bs_second_mode_gets_minus_sign():
    state = fock.basis_state({K: 0, MINUS_K: 1}, 4)
    out = fock.bs_transform(state, K, MINUS_K)
    assert out.amplitude({K: 1, MINUS_K: 0}) == pytest.approx(INV, abs=1e-14)
    assert out.amplitude({K: 0, MINUS_K: 1}) == pytest.approx(-INV, abs=1e-14)


def test_bs_vacuum_invariant():
    state = fock.vacuum_state((K, MINUS_K), 3)
    out = fock.bs_transform(state, K, MINUS_K)
    assert oracle.fidelity(out, state) == pytest.approx(1.0, abs=1e-14)


def test_bs_two_photon_interference():
    state = fock.basis_state({K: 1, MINUS_K: 1}, 4)
    out = fock.bs_transform(state, K, MINUS_K)
    assert out.amplitude({K: 2, MINUS_K: 0}) == pytest.approx(INV, abs=1e-14)
    assert out.amplitude({K: 0, MINUS_K: 2}) == pytest.approx(-INV, abs=1e-14)
    assert abs(out.amplitude({K: 1, MINUS_K: 1})) < 1e-14


def test_bs_unknown_mode_raises():
    state = fock.basis_state({K: 1, MINUS_K: 0}, 2)
    with pytest.raises(ModeError):
        fock.bs_transform(state, K, C)
    with pytest.raises(ModeError):
        fock.bs_transform(state, K, K)


def test_bs_cutoff_error_when_content_leaks():
    # both photons in each mode: the image needs occupation 4 > cutoff 2
    state = fock.basis_state({K: 2, MINUS_K: 2}, 2)
    with pytest.raises(CutoffError):
        fock.bs_transform(state, K, MINUS_K)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
    st.sampled_from([0.5, 1.0 - 2**-40, 1.0, 1.5, 3.0e-7]),
)
def test_normalized_scales_like_division(seed, zeros, norm):
    """Scaling the float view by 1 / norm gives amps / norm, entry for entry
    (an exact zero may change sign only), in the caller's buffer."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    amps.ravel()[rng.choice(amps.size, size=zeros, replace=False)] = 0.0
    amps.real.flat[rng.integers(amps.size)] = 0.0  # a zero real part, nonzero imaginary
    amps *= norm / np.linalg.norm(amps)
    expected = amps / math.sqrt(float(np.vdot(amps, amps).real))
    got = fock._normalized(amps, lossy_ok=True)
    assert got is amps
    floats = got.view(np.float64)
    assert np.array_equal(floats, expected.view(np.float64))
    nonzero = floats != 0.0
    assert floats[nonzero].tobytes() == expected.view(np.float64)[nonzero].tobytes()


def test_normalized_cutoff_check():
    with pytest.raises(CutoffError, match=r"norm lost to cutoff: 1 - \|psi\| = 2\.500e-01"):
        fock._normalized(np.array([0.75 + 0.0j, 0.0]))
    # |psi|^2 = 1 - 3e-10 loses 1.5e-10 of the norm
    short = np.array([math.sqrt(1.0 - 3e-10) + 0.0j])
    with pytest.raises(CutoffError):
        fock._normalized(short.copy())


@pytest.mark.parametrize("lossy_ok", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_normalized_refuses_a_non_finite_norm(lossy_ok, bad):
    """A NaN norm passes both `norm <= 0` and `abs(norm - 1) > tol`, so it is
    refused by name, on the checked path and on the lossy one."""
    with pytest.raises(FockError, match="state norm is not finite"):
        fock._normalized(np.array([bad, 0.5 + 0.0j]), lossy_ok=lossy_ok)


def test_pure_state_refuses_nan_amplitudes():
    """Outside data with a NaN amplitude fails the norm check, before a map
    such as _mix, which weighs its sectors, can meet it."""
    with pytest.raises(FockError, match=r"state not normalized: \|psi\| = nan"):
        fock.PureState((K, MINUS_K), 1, np.array([[math.nan, 0.0], [0.0, 0.0]], dtype=complex))


def test_density_operator_refuses_a_nan_purification():
    """`abs(nan - 1) > 1e-9` is False, so the trace check is written to fail on NaN."""
    with pytest.raises(FockError, match=r"density matrix trace nan != 1"):
        fock.DensityOperator((K,), 1, np.array([[math.nan], [0.0]]))


@pytest.mark.parametrize("absorber", [CANONICAL, AbsorberSpec(reflection=-0.3),
                                      AbsorberSpec(swap_roles=True)],
                         ids=["canonical", "tau_c", "swap"])
def test_absorber_environment_refuses_a_nan_state(absorber):
    """A NaN amplitude on a state built without checks (fock._built) reaches the
    environment's reduced state; the trace check refuses it, where an entropy of
    0.0 (max(0.0, nan)) or a LinAlgError came out before.  The message prints
    the trace as DensityOperator's does, as a float."""
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 1], amps[1, 0] = math.nan, 1.0
    with pytest.raises(FockError, match=r"^environment density matrix trace nan != 1$"):
        fock.absorber_environment(fock._built((C, S), 2, amps), absorber)


def test_balanced_pair_builds_each_one_mode_vector_once(monkeypatch):
    """A cat pair's four branch pairs ask for eight one-mode vectors, and only
    sqrt(2) alpha, 0 and -sqrt(2) alpha differ: three _one_mode calls, and the
    same amplitudes as building all eight."""
    alpha, cutoff = 1.3 - 0.4j, 30
    weight = nongaussian._cat_weight(alpha)
    cats = [[(weight, a, 0.0, 0.0) for a in (alpha, -alpha)]] * 2
    unshared = sum(
        np.multiply.outer(w1 * w2 * fock.displaced_squeezed_amplitudes(
            (a1 + a2) / math.sqrt(2.0), 0.0, 0.0, cutoff + 1),
            fock.displaced_squeezed_amplitudes((a1 - a2) / math.sqrt(2.0), 0.0, 0.0, cutoff + 1))
        for (w1, a1, *_), (w2, a2, *_) in itertools.product(*cats))
    calls = []
    one_mode = fock._one_mode
    monkeypatch.setattr(fock, "_one_mode", lambda *args: calls.append(args) or one_mode(*args))
    state = fock.balanced_pair(cats, cutoff)
    assert len(calls) == 3
    np.testing.assert_allclose(state.amplitudes, unshared / np.linalg.norm(unshared), atol=1e-15)


def test_superposition_refuses_a_nan_coefficient():
    with pytest.raises(FockError, match=r"not finite: \|psi\|\^2 = nan"):
        fock.superposition([(math.nan, {K: 1}), (1.0, {MINUS_K: 1})], (K, MINUS_K), 2)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bs_is_unitary_involution(seed):
    state = random_two_mode_state(seed)
    once = fock.bs_transform(state, K, MINUS_K)
    assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-12)
    twice = fock.bs_transform(once, K, MINUS_K)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bs_conserves_photon_number(seed):
    state = random_two_mode_state(seed)
    before = fock.total_occupation_distribution(state, (K, MINUS_K))
    after = fock.total_occupation_distribution(
        fock.bs_transform(state, K, MINUS_K), (K, MINUS_K)
    )
    assert np.max(np.abs(after - before)) <= 1e-12


def test_memory_budget_estimate():
    """budget_bytes is one dense complex128 state; the budget stands far above
    every benchmark and test input and admits its largest cutoff exactly."""
    assert fock.budget_bytes(3, 2) == 16 * 4**2
    assert fock.budget_bytes(1e308, 2) == math.inf
    assert fock.budget_bytes(10**400, 3) == math.inf
    assert fock.budget_bytes(123, 2) < fock.MEMORY_BUDGET / 1000  # COHERENT_SQUEEZED files
    assert fock.budget_bytes(28, 3) < fock.MEMORY_BUDGET / 1000  # NOON n = 28
    for modes, largest in ((2, 8191), (3, 405), (6, 19)):
        assert fock.budget_cutoff(largest, modes) == largest
        assert fock.budget_cutoff(largest - 0.5, modes) == largest
        with pytest.raises(CutoffError, match=f"cutoff {largest + 1} over {modes} modes"):
            fock.budget_cutoff(largest + 1, modes)
    for hostile in (math.inf, math.nan, 10**400):
        with pytest.raises(CutoffError, match="memory budget"):
            fock.budget_cutoff(hostile, 2)


def test_hadamard_blocks_are_unitary():
    for total in (1, 2, 5, 17, 40):
        block = fock.hadamard_block(total)
        assert np.max(np.abs(block @ block.T - np.eye(total + 1))) < 1e-13


def test_hadamard_blocks_match_exact_integers():
    """One _next_block chain at 1/sqrt(2) stays within 1e-13 of the exact integer
    expansion up to total 120, column-major (the sector matmuls' rounding
    depends on the layout), and mirrors its rows exactly, H_T[T-p, m] =
    (-1)^(T-m) H_T[p, m]; hadamard_block is that chain."""
    block = np.ones((1, 1))
    for total in range(121):
        if total:
            block = fock._next_block(block, 0, INV, INV, 0, total)
            assert block.flags.f_contiguous, total
        assert np.max(np.abs(block - oracle.exact_hadamard_block(total))) < 1e-13, total
        sign = (-1.0) ** (total - np.arange(total + 1))
        assert np.array_equal(block[::-1], block * sign), total
    assert np.array_equal(fock.hadamard_block(120), block)


angles = st.floats(-math.pi, math.pi, allow_nan=False)


@given(
    theta=angles,
    alpha=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    beta=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    xi=st.floats(-0.3, 0.3),
    phi=angles,
    tau=st.floats(0.0, 1.0),
    swap=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_mix_convention_matches_gaussian_engine(theta, alpha, beta, xi, phi, tau, swap):
    """One mix, and the whole pipeline, give the same moments on both engines,
    on every output mode, the environment's included."""
    c, s = math.cos(theta), math.sin(theta)
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    cutoff = 40  # truncation shifts the moments by < 1e-12 on these ranges
    fock_in = fock.tensor(
        fock.squeezed_coherent_state(alpha, xi, phi, cutoff, K),
        fock.squeezed_coherent_state(beta, -xi, 0.0, cutoff, MINUS_K),
    )
    gauss_in = gaussian.tensor(
        gaussian.squeezed_coherent_state(gaussian.SqueezedSpec(alpha, xi, phi), K),
        gaussian.squeezed_coherent_state(gaussian.SqueezedSpec(beta, -xi, 0.0), MINUS_K),
    )
    outputs = [
        (fock._mix(fock_in, K, MINUS_K, c, s), gaussian._mix(gauss_in, K, MINUS_K, c, s)),
        (fock.full_pipeline(fock_in, absorber), gaussian.full_pipeline(gauss_in, absorber)),
    ]
    for fock_out, gauss_out in outputs:
        assert fock_out.modes == gauss_out.modes
        for mode in fock_out.modes:
            mean, number = fock.mode_moments(fock_out, mode)
            assert abs(mean - gaussian.mean_amplitude(gauss_out, mode)) < 1e-9
            assert abs(number - oracle.mode_intensity(gauss_out, mode)) < 1e-9
    assert outputs[1][0].modes == (K, MINUS_K, ENV_C)


@given(seed=st.integers(0, 2**32 - 1), theta=angles)
@settings(max_examples=40, deadline=None)
def test_mix_twice_is_identity(seed, theta):
    state = random_two_mode_state(seed, cutoff=8)
    c, s = math.cos(theta), math.sin(theta)
    twice = fock._mix(fock._mix(state, K, MINUS_K, c, s), K, MINUS_K, c, s)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def _mix_or_error(mix, *args, **kwargs):
    try:
        return mix(*args, **kwargs)
    except CutoffError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rails=st.integers(1, 2),
    theta=st.sampled_from([math.pi / 4, 0.0, math.pi / 2]) | angles,
    attach=st.booleans(),
    overflow=st.sampled_from([0.0, 1e-7, 1e-4]),
)
@example(seed=1, rails=1, theta=math.pi / 4, attach=False, overflow=1e-7)
@example(seed=2, rails=2, theta=0.4, attach=True, overflow=0.0)
def test_mix_matches_the_sector_loop(seed, rails, theta, attach, overflow):
    """_mix agrees with the per-sector loop in tests/oracle.py within 1e-14 on one
    or two rails, balanced or not, with a vacuum partner attached or present,
    and on states whose top sectors lose rows above the cutoff (weight
    `overflow` there); both raise the same CutoffError when the loss is too
    large."""
    rng = np.random.default_rng(seed)
    state = fock.standing_basis(random_rail_state(seed, rails))
    rail = sorted({m.rail for m in state.modes})[-1]
    a = C.with_rail(rail) if seed % 2 else S.with_rail(rail)
    b = ENV_C.with_rail(rail) if attach else (S if a.kind is C.kind else C).with_rail(rail)
    if overflow and not attach:  # fill the (a, b) sectors above the cutoff
        amps = np.array(state.amplitudes)
        levels = np.indices(amps.shape)
        high = levels[state.axis(a)] + levels[state.axis(b)] > state.cutoff
        noise = rng.normal(size=amps.shape) + 1j * rng.normal(size=amps.shape)
        amps[high] = overflow * noise[high]
        state = fock.PureState(state.modes, state.cutoff, amps / np.linalg.norm(amps))
    c, s = math.cos(theta), math.sin(theta)
    if theta == math.pi / 4:
        c = s = INV  # the balanced mix
    mixed = _mix_or_error(fock._mix, state, a, b, c, s)
    expected = _mix_or_error(oracle.sector_loop_mix, state, a, b, c, s)
    if isinstance(expected, str):
        assert mixed == expected
        return
    assert mixed.modes == expected.modes
    assert np.max(np.abs(mixed.amplitudes - expected.amplitudes)) <= 1e-14


def test_mix_drops_sectors_below_the_mass_floor():
    """A sector whose weight is below SECTOR_MASS_FLOOR is dropped, so its image
    is exactly zero, while a sector just above the floor is mixed."""
    amps = np.zeros((8, 8), dtype=complex)
    amps[1, 0] = 1.0
    amps[3, 3] = 0.5e-13  # total 6: mass 2.5e-27
    amps[7, 0] = 2e-13  # total 7: mass 4e-26
    state = fock.PureState((K, MINUS_K), 7, amps / np.linalg.norm(amps))
    out = fock.bs_transform(state, K, MINUS_K)
    totals = np.add.outer(np.arange(8), np.arange(8))
    assert np.all(out.amplitudes[totals == 6] == 0.0)
    assert np.count_nonzero(out.amplitudes[totals == 7]) == 8


@pytest.mark.parametrize("n", [0, 1, 4, 13, 40, 246])
@pytest.mark.parametrize("theta", [0.3, 1.2, -2.5, 0.0, math.pi / 2])
def test_mix_with_vacuum_partner_is_binomial(n, theta):
    """_mix's vacuum-partner column is binomial, and row n of loss_amplitudes
    (the environment readout's b) reproduces it."""
    c, s = math.cos(theta), math.sin(theta)
    state = fock.basis_state({C: n, ENV_C: 0}, n)
    out = fock._mix(state, C, ENV_C, c, s)
    loss = fock.loss_amplitudes(c, s, n + 1)
    for p in range(n + 1):
        expected = math.sqrt(math.comb(n, p)) * c**p * s ** (n - p)
        column = out.amplitude({C: p, ENV_C: n - p})
        assert column == pytest.approx(expected, abs=1e-13)
        assert abs(loss[n, p] - column) < 1e-14
    assert np.all(np.triu(loss, 1) == 0.0)


# ---------------------------------------------------------------------------
# absorber channel


def _standing_state(amplitude_map, cutoff):
    return fock.superposition(amplitude_map, (C, S), cutoff)


def test_channel_full_absorption_is_swap():
    state = fock.basis_state({C: 1, S: 0}, 3)
    out = fock.cpa_channel(state, CANONICAL)
    assert out.amplitude({C: 0, S: 0, ENV_C: 1}) == pytest.approx(1.0, abs=1e-14)


def test_channel_swap_preserves_mode_content():
    # reduced environment state equals the pre-channel cosine-mode state
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    amps /= np.linalg.norm(amps)
    state = fock.PureState((C, S), 4, amps)
    before = fock.partial_trace(state, [C]).matrix
    out = fock.cpa_channel(state, CANONICAL)
    after = fock.partial_trace(out, [ENV_C]).matrix
    assert np.max(np.abs(after - before)) < 1e-12
    # the cosine mode ends in vacuum
    c_dist = fock.joint_occupation_distribution(out, C)
    assert c_dist[0] == pytest.approx(1.0, abs=1e-12)


def _absorbed_rails(state, absorber):
    return [(m, ENV_C.with_rail(m.rail)) for m in state.modes if m.kind is absorber.absorbed_kind]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rails=st.integers(1, 2),
    tau=st.floats(1e-3, 0.999),
    swap=st.booleans(),
)
@example(seed=4, rails=2, tau=0.3, swap=True)
def test_cpa_channel_matches_the_sector_loop(seed, rails, tau, swap):
    """cpa_channel, whose vacuum-partner mixes read loss_amplitudes, agrees
    within 1e-14 with the per-sector loop in tests/oracle.py, which builds every
    sector with _next_block, on one and two rails."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    standing = fock.standing_basis(random_rail_state(seed, rails))
    channel = fock.cpa_channel(standing, absorber)
    tau_c = absorber.tau_c
    expected = standing
    for absorbed, env in _absorbed_rails(standing, absorber):
        expected = oracle.sector_loop_mix(expected, absorbed, env, tau_c, math.sqrt(1.0 - tau_c**2))
    assert channel.modes == expected.modes
    assert np.max(np.abs(channel.amplitudes - expected.amplitudes)) <= 1e-14


@pytest.mark.parametrize("rails", [1, 2])
@pytest.mark.parametrize("swap", [False, True])
def test_cpa_channel_at_full_absorption_is_exactly_the_swap(rails, swap):
    """At tau_c = 0 every sector's column is the unit vector, so the channel
    moves the absorbed amplitudes onto the environment bit for bit; each rail's
    state is renormalized as _mix does."""
    absorber = AbsorberSpec(reflection=-0.5, swap_roles=swap)
    standing = fock.standing_basis(random_rail_state(7, rails))
    expected = standing.amplitudes
    for absorbed, _ in _absorbed_rails(standing, absorber):
        axis = standing.axis(absorbed)
        moved = np.expand_dims(np.moveaxis(expected, axis, -1), axis)  # absorbed -> env
        vacuum = np.zeros(moved.shape[:axis] + (standing.dim - 1,) + moved.shape[axis + 1:])
        expected = fock._normalized(np.concatenate([moved, vacuum], axis=axis))
    assert np.array_equal(fock.cpa_channel(standing, absorber).amplitudes, expected)


@pytest.mark.parametrize("tau", [0.0, 0.4])
def test_cpa_channel_builds_no_sector_by_recurrence(monkeypatch, tau):
    """Every sector of the absorber's mix comes from the loss_amplitudes table:
    cpa_channel runs with _next_block disabled."""
    standing = fock.standing_basis(random_rail_state(3, 2))

    def refuse(*args):
        raise AssertionError("_next_block called")

    monkeypatch.setattr(fock, "_next_block", refuse)
    channel = fock.cpa_channel(standing, AbsorberSpec(reflection=(tau - 1.0) / 2.0))
    assert sum(m.is_env for m in channel.modes) == 2


def test_channel_lossless_limit_is_identity():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    amps /= np.linalg.norm(amps)
    state = fock.PureState((C, S), 3, amps)
    out = fock.cpa_channel(state, AbsorberSpec(reflection=0.0))
    joint = np.tensordot(state.amplitudes, fock.basis_state({ENV_C: 0}, 3).amplitudes, 0)
    assert np.max(np.abs(out.amplitudes - joint)) < 1e-13


@given(
    seed=st.integers(0, 2**32 - 1),
    reflection=st.floats(-0.5, 0.0),
)
@settings(max_examples=40, deadline=None)
def test_channel_photon_bookkeeping(seed, reflection):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    amps /= np.linalg.norm(amps)
    state = fock.PureState((C, S), 4, amps)
    absorber = AbsorberSpec(reflection=reflection)
    mean_before = fock.mode_moments(state, C)[1]
    out = fock.cpa_channel(state, absorber)
    mean_env = fock.mode_moments(out, ENV_C)[1]
    tau = absorber.tau_c
    assert mean_env == pytest.approx((1.0 - tau * tau) * mean_before, abs=1e-10)
    # the sine mode is untouched
    assert fock.mode_moments(out, S)[0] == pytest.approx(
        fock.mode_moments(state, S)[0], abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.floats(-0.5, 0.0),
    st.booleans(),
)
def test_mix_attaches_vacuum_mode_like_tensor(seed, rails, reflection, swap):
    """_mix with a mode not in the state reads it as vacuum, bit for bit as
    the mix of the state tensored with that vacuum mode, rail after rail."""
    absorber = AbsorberSpec(reflection=reflection, swap_roles=swap)
    tau = absorber.tau_c
    s = math.sqrt(max(0.0, 1.0 - tau * tau))
    state = fock.standing_basis(random_rail_state(seed, rails))
    attached = state
    for rail in sorted({m.rail for m in state.modes}):
        env = ENV_C.with_rail(rail)
        absorbed = fock.ModeLabel(absorber.absorbed_kind, rail)
        tensored = fock._mix(
            fock.tensor(attached, fock.vacuum_state([env], state.cutoff)), absorbed, env, tau, s
        )
        attached = fock._mix(attached, absorbed, env, tau, s)
        assert attached.modes == tensored.modes
        assert attached.amplitudes.tobytes() == tensored.amplitudes.tobytes()
    assert fock.cpa_channel(state, absorber).amplitudes.tobytes() == attached.amplitudes.tobytes()


def test_channel_requires_standing_basis():
    state = fock.basis_state({K: 1, MINUS_K: 0}, 2)
    with pytest.raises(ModeError):
        fock.cpa_channel(state, CANONICAL)


def test_channel_rejects_existing_environment():
    state = fock.basis_state({C: 1, S: 0, ENV_C: 0}, 2)
    with pytest.raises(ModeError):
        fock.cpa_channel(state, CANONICAL)


def test_swap_roles_absorbs_the_sine_mode():
    mirrored = AbsorberSpec(reflection=-0.5, swap_roles=True)
    state = fock.basis_state({C: 0, S: 1}, 2)
    out = fock.cpa_channel(state, mirrored)
    dist = oracle.absorbed_photon_distribution(out)
    assert dist[1] == pytest.approx(1.0, abs=1e-14)
    # anti-symmetric travelling input is now the absorbed one
    anti = fock.superposition([(INV, {K: 1}), (-INV, {MINUS_K: 1})], (K, MINUS_K), 2)
    joint = fock.full_pipeline(anti, mirrored)
    assert oracle.absorbed_photon_distribution(joint)[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# pipeline and oracle equivalence


def test_pipeline_vacuum_passes_through():
    state = fock.vacuum_state((K, MINUS_K), 2)
    joint = fock.full_pipeline(state, CANONICAL)
    assert joint.amplitude({K: 0, MINUS_K: 0, ENV_C: 0}) == pytest.approx(1.0, abs=1e-14)


def test_pipeline_antisymmetric_photon_survives():
    anti = fock.superposition([(INV, {K: 1}), (-INV, {MINUS_K: 1})], (K, MINUS_K), 2)
    joint = fock.full_pipeline(anti, CANONICAL)
    assert oracle.absorbed_photon_distribution(joint)[0] == pytest.approx(1.0, abs=1e-12)
    survived = fock.conditional_output(joint, 0)
    assert survived.expectation_with_pure(anti) == pytest.approx(1.0, abs=1e-12)


def test_pipeline_two_photons_never_lose_exactly_one():
    state = fock.basis_state({K: 1, MINUS_K: 1}, 2)
    joint = fock.full_pipeline(state, CANONICAL)
    dist = oracle.absorbed_photon_distribution(joint)
    assert dist[0] == pytest.approx(0.5, abs=1e-12)
    assert dist[2] == pytest.approx(0.5, abs=1e-12)
    assert dist.get(1, 0.0) < 1e-14


@pytest.mark.parametrize("tau", [0.0, 0.25, 0.6, 1.0])
def test_pipeline_matches_monomial_oracle(tau):
    # ket coefficients; the oracle wants monomial weights c / sqrt(prod n!)
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0)
    cases = [
        [(INV, {"K": 1}), (INV * np.exp(0.9j), {"MINUS_K": 1})],
        [(1.0, {"K": 1, "MINUS_K": 1})],
        [(0.6, {"K": 2}), (0.8j, {"K": 1, "MINUS_K": 2})],
    ]
    for ket_terms in cases:
        norm = math.sqrt(sum(abs(c) ** 2 for c, _ in ket_terms))
        engine_terms = [
            (coeff, {(K if name == "K" else MINUS_K): n for name, n in occ.items()})
            for coeff, occ in ket_terms
        ]
        total = max(sum(occ.values()) for _, occ in ket_terms)
        state = fock.superposition(engine_terms, (K, MINUS_K), total)
        joint = fock.full_pipeline(state, absorber)
        oracle_terms = [
            (
                coeff / norm / math.sqrt(np.prod([math.factorial(p) for p in occ.values()])),
                occ,
            )
            for coeff, occ in ket_terms
        ]
        amps = oracle.pipeline(oracle_terms, tau=tau)
        arr = oracle.amplitude_map_to_array(
            amps, [str(m) for m in joint.modes], joint.cutoff
        )
        assert np.max(np.abs(arr - joint.amplitudes)) < 1e-12


def test_pipeline_requires_travelling_basis():
    state = fock.basis_state({C: 1, S: 0}, 2)
    with pytest.raises(ModeError):
        fock.full_pipeline(state, CANONICAL)


# ---------------------------------------------------------------------------
# reductions and measurements


def test_absorbed_distribution_normalized():
    state = fock.superposition(
        [(INV, {K: 2}), (INV * 1j, {MINUS_K: 1})], (K, MINUS_K), 2
    )
    joint = fock.full_pipeline(state, CANONICAL)
    dist = oracle.absorbed_photon_distribution(joint)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_absorbed_distribution_needs_environment():
    state = fock.basis_state({K: 1, MINUS_K: 0}, 2)
    with pytest.raises(ModeError):
        oracle.absorbed_photon_distribution(state)


def test_conditional_output_zero_probability_raises():
    state = fock.basis_state({K: 1, MINUS_K: 1}, 2)
    joint = fock.full_pipeline(state, CANONICAL)
    with pytest.raises(FockError):
        fock.conditional_output(joint, 1)


def test_partial_trace_product_state_is_pure():
    state = fock.tensor(
        oracle.coherent_state(0.7, 20, K), oracle.coherent_state(-0.2 + 0.1j, 20, MINUS_K)
    )
    rho = fock.partial_trace(state, [K])
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_bell_pair_is_maximally_mixed():
    state = fock.superposition(
        [(INV, {K: 1, MINUS_K: 0}), (INV, {K: 0, MINUS_K: 1})], (K, MINUS_K), 1
    )
    rho = fock.partial_trace(state, [K])
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_empty_keep_raises():
    state = fock.basis_state({K: 1, MINUS_K: 0}, 1)
    with pytest.raises(ModeError):
        fock.partial_trace(state, [])


def test_two_photon_pipeline_environment_is_even_mixture():
    state = fock.basis_state({K: 1, MINUS_K: 1}, 2)
    joint = fock.full_pipeline(state, CANONICAL)
    rho = fock.partial_trace(joint, [ENV_C])
    diag = np.diag(rho.matrix).real
    assert diag[0] == pytest.approx(0.5, abs=1e-12)
    assert diag[2] == pytest.approx(0.5, abs=1e-12)


def test_density_operator_partial_trace_matches_pure_route():
    rng = np.random.default_rng(99)
    amps = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    amps /= np.linalg.norm(amps)
    state = fock.PureState((K, MINUS_K, ENV_C), 3, amps)
    rho_full = fock.partial_trace(state, [K, MINUS_K, ENV_C])
    for keep in ([MINUS_K], [K, ENV_C], [ENV_C]):
        direct = fock.partial_trace(state, keep).matrix
        via_dm = rho_full.partial_trace(keep).matrix
        assert np.max(np.abs(direct - via_dm)) < 1e-12


def _check_against_dense(rho: fock.DensityOperator, ref: np.ndarray, seed: int) -> None:
    """Every reduction of `rho` equals the dense oracle route within 1e-12."""
    assert np.max(np.abs(rho.matrix - ref)) < 1e-12
    assert abs(rho.purity() - float(np.vdot(ref, ref).real)) < 1e-12
    assert abs(rho.entropy() - oracle.dense_entropy(ref)) < 1e-12
    rng = np.random.default_rng(seed)
    shape = (rho.dim,) * len(rho.modes)
    ket = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    probe = fock.PureState(rho.modes, rho.cutoff, ket / np.linalg.norm(ket))
    vec = probe.amplitudes.ravel()
    expected = float(np.vdot(vec, ref @ vec).real)
    assert abs(rho.expectation_with_pure(probe) - expected) < 1e-12
    for mode in rho.modes:
        mean, number = fock.mode_moments(rho, mode)
        ref_mean, ref_number = oracle.dense_moments(
            oracle.dense_trace_out(ref, rho.modes, [mode])
        )
        assert abs(mean - ref_mean) < 1e-12 and abs(number - ref_number) < 1e-12
    for size in range(1, len(rho.modes)):
        for sub in itertools.combinations(rho.modes, size):
            reduced = rho.partial_trace(sub).matrix
            assert np.max(np.abs(reduced - oracle.dense_trace_out(ref, rho.modes, sub))) < 1e-12


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["two_mode", "three_mode", "bell"]),
    st.integers(0, 2**32 - 1),
    st.floats(-0.5, 0.0),
    st.booleans(),
)
def test_purified_reductions_match_dense_reference(kind, seed, reflection, swap):
    """partial_trace and conditional_output over every keep set and absorbed
    count agree with explicit dense rho = mat @ mat^H."""
    rng = np.random.default_rng(seed)
    absorber = AbsorberSpec(reflection=reflection, swap_roles=swap)
    if kind == "bell":
        bell = rng.choice([k for k in dv.DvKind if k in dv.BELL_KINDS])
        state = dv.build_input(dv.DvScenario(bell), 2)
    elif kind == "two_mode":
        state = random_two_mode_state(seed, cutoff=3)
    else:
        amps = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        state = fock.PureState((K, MINUS_K, ENV_C), 2, amps / np.linalg.norm(amps))
    subjects = [state] if kind == "three_mode" else [state, fock.full_pipeline(state, absorber)]
    for subject in subjects:
        for size in range(1, len(subject.modes) + 1):
            for keep in itertools.combinations(subject.modes, size):
                ref = oracle.dense_reduced(subject.amplitudes, subject.modes, keep)
                _check_against_dense(fock.partial_trace(subject, keep), ref, seed)
    joint = subjects[-1]
    if not any(m.is_env for m in joint.modes):
        return
    light = [m for m in joint.modes if not m.is_env]
    for absorbed, prob in oracle.absorbed_photon_distribution(joint).items():
        if prob > 1e-9:
            ref = oracle.dense_reduced(joint.amplitudes, joint.modes, light, absorbed)
            _check_against_dense(fock.conditional_output(joint, absorbed), ref, seed)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 8),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-0.5, 0.0),
    st.booleans(),
)
def test_one_rail_conditional_outputs_are_pure(n, delta_theta, reflection, swap):
    """One rail has one environment mode, so each conditional output keeps a
    single purifying column: purity 1."""
    state = dv.build_input(dv.DvScenario(dv.DvKind.NOON, n, delta_theta), n)
    joint = fock.full_pipeline(state, AbsorberSpec(reflection=reflection, swap_roles=swap))
    for absorbed, prob in oracle.absorbed_photon_distribution(joint).items():
        if prob > 1e-12:
            assert fock.conditional_output(joint, absorbed).purity() == pytest.approx(
                1.0, abs=1e-12
            )


DV_CASES = (
    [(dv.DvKind.SINGLE_PHOTON, 1)]
    + [(kind, 1) for kind in dv.DvKind if kind in dv.BELL_KINDS]
    + [(dv.DvKind.NOON, n) for n in range(1, 13)]
)


def _absorber(choice: str, tau_c: float) -> AbsorberSpec:
    """The absorber of a benchmark-style choice: canonical, tau_c, swap or tau_c+swap."""
    tau_c = tau_c if "tau_c" in choice else 0.0
    return AbsorberSpec(reflection=(tau_c - 1.0) / 2.0, swap_roles="swap" in choice)


def _check_conditional_outputs(joint):
    """joint_readouts, one pass over the joint, against conditional_output +
    DensityOperator.purity + mode_moments for every count above its floor, and
    its environment readouts against oracle.joint_environment."""
    distribution = oracle.absorbed_photon_distribution(joint)
    counts = [m for m, p in distribution.items() if p > 1e-9]
    readout, outputs = fock.joint_readouts(joint, 1e-9)
    env = [m for m in joint.modes if m.is_env]
    _environment_matches(readout, oracle.joint_environment(joint.amplitudes, joint.modes, env))
    assert [output.absorbed for output in outputs] == counts
    for output in outputs:
        rho = fock.conditional_output(joint, output.absorbed)
        assert abs(output.probability - distribution[output.absorbed]) < 1e-13
        assert abs(output.purity - rho.purity()) < 1e-13
        assert list(output.mean_photons) == list(rho.modes)
        for mode, number in output.mean_photons.items():
            assert abs(number - fock.mode_moments(rho, mode)[1]) < 1e-13
    return outputs


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(DV_CASES),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from(["canonical", "tau_c", "swap", "tau_c+swap"]),
    st.floats(0.05, 0.95),
)
@example((dv.DvKind.SINGLE_PHOTON, 1), 0.4, "canonical", 0.5)
@example((dv.DvKind.BELL_PSI_PLUS, 1), 0.0, "tau_c+swap", 0.3)
@example((dv.DvKind.BELL_PHI_MINUS, 1), 1.0, "swap", 0.5)
@example((dv.DvKind.BELL_PSI_MINUS, 1), 2.0, "tau_c", 0.7)
@example((dv.DvKind.NOON, 12), 1.3, "tau_c", 0.6)
@example((dv.DvKind.NOON, 7), 0.0, "tau_c+swap", 0.2)
def test_conditional_outputs_match_the_per_count_reference(case, delta_theta, choice, tau_c):
    kind, n = case
    scenario = dv.DvScenario(kind, n, delta_theta)
    state = dv.build_input(scenario, scenario.total_photons)
    _check_conditional_outputs(fock.full_pipeline(state, _absorber(choice, tau_c)))


@pytest.mark.parametrize("rails", [1, 2])
@pytest.mark.parametrize("choice", ["tau_c", "tau_c+swap"])
def test_conditional_outputs_tell_the_light_modes_apart(rails, choice):
    """DV outputs give every light mode the same <n>; a random input at a
    partial absorber does not."""
    joint = fock.full_pipeline(random_rail_state(5, rails), _absorber(choice, 0.4))
    spreads = [max(o.mean_photons.values()) - min(o.mean_photons.values())
               for o in _check_conditional_outputs(joint)]
    assert max(spreads) > 0.1


def test_two_rail_conditional_output_can_be_mixed():
    """BELL_PSI_PLUS at tau_c = 0.3, roles swapped: one absorbed photon leaves
    the two rails' environments in an even mixture, so the light has purity 1/2."""
    state = dv.build_input(dv.DvScenario(dv.DvKind.BELL_PSI_PLUS), 2)
    joint = fock.full_pipeline(state, _absorber("tau_c+swap", 0.3))
    output = {o.absorbed: o for o in fock.joint_readouts(joint, 1e-9)[1]}[1]
    assert output.purity == pytest.approx(0.5, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["canonical", "tau_c", "swap", "tau_c+swap"]),
    st.floats(0.05, 0.95),
)
def test_absorber_outputs_match_the_joint_after_the_mix_back(seed, choice, tau_c):
    """absorber_outputs reads from a one-rail standing state what
    joint_readouts reads from its joint on K, MINUS_K, for random inputs
    whose light modes differ (Re<a_C^dag a_S> != 0, unlike any DV input)."""
    absorber = _absorber(choice, tau_c)
    standing = fock.standing_basis(random_rail_state(seed, 1, cutoff=6))
    joint = fock.travelling_basis(fock.cpa_channel(standing, absorber))
    counts = [m for m, p in oracle.absorbed_photon_distribution(joint).items() if p > 1e-9]
    expected = fock.joint_readouts(joint, 1e-9)[1]
    got = oracle.absorber_outputs(standing, absorber, counts)
    assert [o.absorbed for o in got] == counts
    for new, old in zip(got, expected):
        assert abs(new.probability - old.probability) < 1e-13
        assert new.purity == 1.0
        assert list(new.mean_photons) == list(old.mean_photons)
        for mode, number in old.mean_photons.items():
            assert abs(new.mean_photons[mode] - number) < 1e-13


def test_absorber_outputs_zero_probability_raises():
    standing = fock.standing_basis(fock.basis_state({K: 1, MINUS_K: 1}, 2))
    assert [o.absorbed for o in oracle.absorber_outputs(standing, CANONICAL, [0, 2])] == [0, 2]
    for absorbed in (1, 3, 99):
        with pytest.raises(FockError, match="zero-probability absorbed count"):
            oracle.absorber_outputs(standing, CANONICAL, [absorbed])


def test_joint_readouts_report_the_counts_above_the_floor():
    """|1, 1> at a canonical absorber: two photons or none are absorbed, never
    one, so count 1 is not reported; a floor above 1/2 reports no count, and
    the distribution keeps every total the environment can hold."""
    joint = fock.full_pipeline(fock.basis_state({K: 1, MINUS_K: 1}, 2), CANONICAL)
    readout, outputs = fock.joint_readouts(joint, fock.CONDITIONING_FLOOR)
    assert [o.absorbed for o in outputs] == [0, 2]
    assert [o.probability for o in outputs] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert len(readout.distribution) == 3 and readout.distribution[1] < 1e-30
    assert fock.joint_readouts(joint, 0.6)[1] == []


def _environment_matches(readout, reference, tol=1e-12):
    """`readout` (absorber_environment) against oracle.joint_environment's
    distribution, entropy and P(all absorbed)."""
    _, distribution, entropy, p_all_absorbed = reference
    assert list(range(len(readout.distribution))) == list(distribution)
    assert max(abs(readout.distribution[m] - p) for m, p in distribution.items()) < tol
    assert abs(readout.entropy - entropy) < tol
    assert abs(readout.p_all_absorbed - p_all_absorbed) < tol


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["product", "random", "bell"]),
    st.integers(0, 2**32 - 1),
    st.floats(-0.5, 0.0),
    st.booleans(),
)
@example("random", 7, -0.5, False)
@example("random", 7, 0.0, True)
@example("bell", 7, -0.5, True)
@example("bell", 7, 0.0, False)
def test_environment_reduction_matches_dense_reference(kind, seed, reflection, swap):
    """The environment readouts give the absorbed distribution,
    light-environment entropy and P(all absorbed) of explicit dense rho of
    full_pipeline's joint: absorber_environment of the standing state on one
    rail (one environment mode), joint_readouts of the joint itself for Bell
    inputs on two (two environment modes)."""
    rng = np.random.default_rng(seed)
    if kind == "bell":
        bell = rng.choice([k for k in dv.DvKind if k in dv.BELL_KINDS])
        state = dv.build_input(dv.DvScenario(bell), 2)
    elif kind == "random":
        state = random_two_mode_state(seed, cutoff=4)
    else:
        alpha, beta = (complex(*rng.uniform(-0.35, 0.35, size=2)) for _ in range(2))
        xi, phi = rng.uniform(-0.2, 0.2), rng.uniform(0.0, 2.0 * math.pi)
        state = fock.tensor(
            oracle.coherent_state(alpha, 20, K),
            fock.squeezed_coherent_state(beta, xi, phi, 20, MINUS_K),
        )
    absorber = AbsorberSpec(reflection=reflection, swap_roles=swap)
    joint = fock.full_pipeline(state, absorber)
    env = [m for m in joint.modes if m.is_env]
    light = [m for m in joint.modes if not m.is_env]
    rho_env = oracle.dense_reduced(joint.amplitudes, joint.modes, env)
    totals = np.indices((joint.dim,) * len(env)).sum(axis=0).ravel()
    expected = np.bincount(totals, weights=np.diagonal(rho_env).real)
    readout = (fock.joint_readouts(joint, 1e-9)[0] if kind == "bell"
               else fock.absorber_environment(fock.standing_basis(state), absorber))
    assert len(readout.distribution) == len(expected) == len(env) * joint.cutoff + 1
    assert np.max(np.abs(readout.distribution - expected)) < 1e-12
    absorbed = oracle.absorbed_photon_distribution(joint)
    assert max(abs(absorbed[m] - expected[m]) for m in range(len(expected))) < 1e-12
    assert abs(readout.entropy - oracle.dense_entropy(rho_env)) < 1e-12
    p_all_absorbed = oracle.dense_reduced(joint.amplitudes, joint.modes, light)[0, 0].real
    assert abs(readout.p_all_absorbed - p_all_absorbed) < 1e-12
    _environment_matches(readout, oracle.joint_environment(joint.amplitudes, joint.modes, env))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-0.5, 0.0),
    st.booleans(),
)
@example(3, -0.5, False)  # tau_c = 0 (no loss amplitudes), both roles
@example(3, -0.5, True)
@example(3, 0.0, True)
@example(4, 0.0, False)
def test_environment_readouts_need_no_output_basis_change(seed, reflection, swap):
    """The output basis change acts on light modes alone and maps light vacuum
    to itself, and the environment meets only the absorbed modes:
    absorber_environment of the standing state matches the joint readouts of
    both cpa_channel's standing joint and full_pipeline's; the oracle's Gram
    from occupied rows matches the full one."""
    absorber = AbsorberSpec(reflection=reflection, swap_roles=swap)
    state = random_rail_state(seed, 1)
    standing = fock.standing_basis(state)
    channel = fock.cpa_channel(standing, absorber)
    joint = fock.full_pipeline(state, absorber)
    assert joint.amplitudes.tobytes() == fock.travelling_basis(channel).amplitudes.tobytes()
    readout = fock.absorber_environment(standing, absorber)
    for subject in (channel, joint):
        env = [m for m in subject.modes if m.is_env]
        _environment_matches(readout, oracle.joint_environment(subject.amplitudes, subject.modes, env))
    env = [m for m in channel.modes if m.is_env]
    light = [m for m in channel.modes if not m.is_env]
    gram = oracle.joint_environment(channel.amplitudes, channel.modes, env)[0]
    mat = np.transpose(
        channel.amplitudes, [channel.axis(m) for m in light + env]
    ).reshape(channel.dim ** len(light), -1)
    assert np.max(np.abs(mat.conj().T @ mat - gram)) < 1e-14
    if reflection == -0.5:  # the absorbed mode is left in vacuum
        assert np.any(mat, axis=1).sum() <= channel.dim ** (len(light) - 1)


def test_loss_amplitudes_at_full_absorption_are_the_unit_column():
    """At c = 0, s = 1 each step of the recurrence divides sqrt(n) by sqrt(n):
    b is exactly the unit first column, which absorber_environment's tau_c = 0
    path assumes when it skips b."""
    for dim in (1, 2, 247):
        expected = np.zeros((dim, dim))
        expected[:, 0] = 1.0
        assert np.array_equal(fock.loss_amplitudes(0.0, 1.0, dim), expected)


def _random_standing(levels):
    """A random one-rail standing state at cutoff levels - 1 whose absorbed
    mode C holds every level and S the lowest min(3, levels)."""
    rng = np.random.default_rng(levels)
    amps = np.zeros((levels, levels), dtype=complex)
    shape = (levels, min(3, levels))
    amps[:, :shape[1]] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return fock.PureState((C, S), levels - 1, amps / np.linalg.norm(amps))


def _loop_reference(standing, absorber):
    """oracle.loop_environment of the standing state at the absorber's tau_c."""
    tau = absorber.tau_c
    b = fock.loss_amplitudes(tau, math.sqrt(max(0.0, 1.0 - tau * tau)), standing.dim)
    absorbed = [m for m in standing.modes if m.kind is absorber.absorbed_kind]
    return oracle.loop_environment(standing.amplitudes, standing.modes, absorbed, b)


@pytest.mark.filterwarnings("error")
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(1e-3, 1.0),
    swap=st.booleans(),
    pad=st.integers(0, 2),
)
@example(seed=1, tau=0.5, swap=False, pad=2)
@example(seed=2, tau=1.0, swap=True, pad=0)
@example(seed=3, tau=0.999, swap=True, pad=1)
def test_absorber_environment_matches_the_joint_and_the_loop(seed, tau, swap, pad):
    """At tau_c != 0 the closed-form map gives the distribution, entropy and
    P(all absorbed) of cpa_channel's joint (oracle.joint_environment) and of
    the per-level loop (oracle.loop_environment) within 1e-12, either role;
    `pad` empty levels above the state exercise the map's truncation to the
    weighted levels with the distribution's keys kept."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    state = random_rail_state(seed, 1)
    if pad:
        amps = np.zeros((state.dim + pad,) * len(state.modes), dtype=complex)
        amps[(slice(state.dim),) * len(state.modes)] = state.amplitudes
        state = fock.PureState(state.modes, state.cutoff + pad, amps)
    standing = fock.standing_basis(state)
    readout = fock.absorber_environment(standing, absorber)
    joint = fock.cpa_channel(standing, absorber)
    env = [m for m in joint.modes if m.is_env]
    assert len(readout.distribution) == standing.cutoff + 1
    _environment_matches(readout, oracle.joint_environment(joint.amplitudes, joint.modes, env))
    _environment_matches(readout, _loop_reference(standing, absorber))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("levels", [1, 2, 124, 400, 737])
@pytest.mark.parametrize("tau", [1e-3, 0.05, 0.5, 0.93, 0.999, 1.0])
def test_loss_map_matches_the_loop_over_the_level_range(levels, tau):
    """The closed form stays in double range and agrees with the loop from one
    level to the 737 a standing state can reach under the block budget, with
    any overflow or invalid-value warning raised as an error: the map's
    ket <= bra triangle within 1e-14 up to 124 levels and 1e-13 above (the
    rest is zero), and the readouts within 1e-12."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0)
    standing = _random_standing(levels)
    rho, *reference = _loop_reference(standing, absorber)
    _environment_matches(fock.absorber_environment(standing, absorber), (rho, *reference))
    psi = standing.amplitudes  # C, the absorbed mode, leads
    mapped = fock._loss_map(psi @ psi.conj().T, absorber.tau_c)
    upper = np.triu(np.ones((levels, levels), dtype=bool))
    assert np.max(np.abs(mapped[upper] - rho[upper])) <= (1e-14 if levels <= 124 else 1e-13)
    assert np.all(mapped[~upper] == 0.0)


def _tapered_rail_state(seed, rails, cutoff, decay):
    """random_rail_state with each amplitude scaled by decay^(total photons),
    so that at a small decay the top levels of the box hold below 2^-52 of the
    weight and at decay 1 the weight fills it."""
    state = random_rail_state(seed, rails, cutoff)
    amps = state.amplitudes * decay ** np.indices(state.amplitudes.shape).sum(axis=0)
    return fock.PureState(state.modes, cutoff, amps / np.linalg.norm(amps))


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cutoff=st.integers(3, 30),
    decay=st.floats(-3.0, 0.0).map(lambda x: 10.0 ** x),
    tau=st.floats(0.0, 1.0),
    swap=st.booleans(),
)
@example(seed=4, cutoff=30, decay=1e-3, tau=0.0, swap=False)
@example(seed=5, cutoff=4, decay=0.01, tau=0.0, swap=True)
@example(seed=6, cutoff=4, decay=0.02, tau=0.7, swap=False)
@example(seed=7, cutoff=20, decay=0.05, tau=0.3, swap=True)
def test_entropy_on_the_leading_block_matches_the_full_spectrum(seed, cutoff, decay, tau, swap):
    """absorber_environment solves only the leading block of rho that holds all
    but 2^-52 of its weight; its entropy is within 1e-13 of the dense entropy of
    the whole rho (oracle.loop_environment), at tau_c = 0 and not, either role."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    standing = fock.standing_basis(_tapered_rail_state(seed, 1, cutoff, decay))
    _, _, entropy, _ = _loop_reference(standing, absorber)
    assert abs(fock.absorber_environment(standing, absorber).entropy - entropy) < 1e-13


def _solved_sizes(monkeypatch):
    """The orders of the matrices np.linalg.eigvalsh is handed from now on."""
    sizes, solve = [], np.linalg.eigvalsh

    def spy(a, UPLO="L"):
        sizes.append(len(a))
        return solve(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def test_entropy_solves_the_levels_that_hold_the_weight(monkeypatch):
    """The cutoff-123 COHERENT_SQUEEZED alpha = 2, xi = 1 run holds all but
    2^-52 of its environment's weight in 93 of its 124 levels, and its one
    eigen-solve is that block, not the box."""
    sizes = _solved_sizes(monkeypatch)
    assert nongaussian.run_asymmetric(2.0, 1.0).numerics["cutoff"] == 123
    assert len(sizes) == 1 and sizes[0] <= 96


@pytest.mark.parametrize("tau", [0.0, 0.6])
def test_entropy_of_a_state_filling_the_box_solves_the_whole_box(monkeypatch, tau):
    """A standing state whose weight reaches the top level keeps its full
    block: every level of the absorbed mode, also when the other mode is in
    vacuum and when the travelling state fills its box."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0)
    sizes = _solved_sizes(monkeypatch)
    fock.absorber_environment(_random_standing(40), absorber)
    fock.absorber_environment(fock.standing_basis(random_rail_state(8, 1)), absorber)
    column = _random_standing(16).amplitudes[:, 0]  # every level of C
    absorbed = fock.PureState((C,), 15, column / np.linalg.norm(column))
    fock.absorber_environment(fock.tensor(absorbed, fock.vacuum_state([S], 15)), absorber)
    assert sizes == [40, 4, 16]


def test_entropy_block_drops_the_levels_whose_summed_tail_is_below_eps(monkeypatch):
    """Twenty top levels of 3e-17 each, every one below eps = 2.2e-16: the
    block drops the seven whose weight summed from the top stays below eps
    (2.1e-16) and keeps the rest, since eight already hold 2.4e-16."""
    weights = np.concatenate((np.linspace(1.0, 0.1, 20), np.full(20, 3e-17)))
    amps = np.zeros((40, 40), dtype=complex)
    amps[:20, 0] = np.sqrt(weights[:20] / weights[:20].sum() * (1.0 - 20 * 3e-17))
    amps[20:, 0] = math.sqrt(3e-17)
    sizes = _solved_sizes(monkeypatch)
    fock.absorber_environment(fock.PureState((C, S), 39, amps), CANONICAL)
    assert sizes == [33]


def _gaussian_environment(v: np.ndarray, mu: np.ndarray) -> tuple[float, float, float]:
    """P(no photon), mean photon number and entropy (bits) of a single-mode
    Gaussian state with covariance v and mean mu (vacuum: v = I)."""
    p_zero = 2.0 / math.sqrt(np.linalg.det(v + np.eye(2))) * math.exp(
        -0.5 * mu @ np.linalg.solve(v + np.eye(2), mu))
    x = max(0.0, (math.sqrt(np.linalg.det(v)) - 1.0) / 2.0)  # symplectic eigenvalue
    entropy = (x + 1.0) * math.log2(x + 1.0) - (x * math.log2(x) if x > 0 else 0.0)
    return p_zero, (np.trace(v) + mu @ mu - 2.0) / 4.0, entropy


amplitudes = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["EPR", "SQUEEZED_PAIR", "COHERENT_SQUEEZED"]),
    alphas=st.tuples(amplitudes, amplitudes),
    xis=st.tuples(st.floats(0.0, 0.3), st.floats(-0.3, 0.3)),
    phi=angles,
    tau=st.floats(0.0, 1.0),
    swap=st.booleans(),
)
def test_bridged_environment_matches_the_gaussian_engine(kind, alphas, xis, phi, tau, swap):
    """The environment readouts of a Gaussian input built by the two-mode
    builder agree with the Gaussian engine's ENV_C block (V, mu), through the
    single-mode closed forms P(0) = 2 / sqrt(det(V + I)) exp(-mu^T (V + I)^-1 mu
    / 2), <n> = (tr V + |mu|^2 - 2) / 4 and entropy g((sqrt(det V) - 1) / 2), and
    its absorption coefficients agree with gaussian.absorption_coefficients.
    COHERENT_SQUEEZED {alpha, xi} is the SQUEEZED_PAIR {k: {alpha}, minus_k:
    {xi}}.  The Gaussian engine shares no code with the Fock readout."""
    cutoff, absorber = 45, AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    if kind == "EPR":
        factors = gaussian.epr_factors(alphas[0], alphas[1], xis[0])
        reference = gaussian.epr_state(alphas[0], alphas[1], xis[0])
    else:
        if kind == "COHERENT_SQUEEZED":
            factors = (gaussian.SqueezedSpec(alphas[0]), gaussian.SqueezedSpec(0.0, xis[1]))
        else:
            factors = tuple(gaussian.SqueezedSpec(a, x, p)
                            for a, x, p in zip(alphas, xis, (phi, 0.0)))
        reference = gaussian.tensor(*(gaussian.squeezed_coherent_state(sp, m)
                                      for sp, m in zip(factors, (K, MINUS_K))))
    result, _, readout = nongaussian.run_pair({"kind": kind}, absorber, {"cutoff": cutoff}, factors)
    env = gaussian.full_pipeline(reference, absorber)
    p_zero, mean, entropy = _gaussian_environment(env.mode_block(ENV_C), env.mode_mean(ENV_C))
    # at the corners of these ranges truncation at cutoff 45 moves <n> by 1.3e-12;
    # the entropy's eigenvalue floor alone leaves ~2e-13
    assert abs(readout.distribution[0] - p_zero) < 1e-11
    assert abs(sum(m * p for m, p in enumerate(readout.distribution)) - mean) < 1e-11
    assert abs(readout.entropy - entropy) < 1e-11
    # each coefficient is a share N / D: rounding in N and D moves it by ~1e-16 / D,
    # and either side may call it undefined within rounding of D = 1e-12
    means = [gaussian.mean_amplitude(reference, m) for m in (K, MINUS_K)]
    totals = (sum(oracle.mode_intensity(reference, m) for m in (K, MINUS_K)),
              sum(abs(a) ** 2 for a in means))
    wanted = gaussian.absorption_coefficients(gaussian.standing_basis(reference))
    got = (result.mean_intensity_absorption, result.coherence_absorption)
    for value, want, total in zip(got, wanted, totals):
        if total > 1e-10:
            assert abs(value - want) < 1e-11 / min(total, 1.0)
        elif total < 1e-14:
            assert value is None and want is None


@settings(max_examples=40, deadline=None)
@given(
    mag=st.floats(0.0, 2.0),
    phase=angles,
    xi=st.floats(0.05, 1.0),
    tau=st.floats(0.0, 1.0),
    swap=st.booleans(),
)
@example(mag=2.0, phase=0.0, xi=1.0, tau=0.0, swap=False)  # the cutoff-123 run
@example(mag=2.0, phase=1.0, xi=1.0, tau=0.94, swap=True)
def test_coherent_squeezed_entropy_matches_the_gaussian_closed_form(mag, phase, xi, tau, swap):
    """A COHERENT_SQUEEZED run at its automatic cutoff gives the entropy of its
    Gaussian environment, g(nu) with nu = sqrt(det(s^2 V_a + tau_c^2 I)), V_a =
    (I + V_sq) / 2 the absorbed standing mode's covariance (the mean of the
    coherent mode's I and the squeezed vacuum's diag(e^-2xi, e^2xi)), within
    2e-13.  The closed form shares no code with the Fock engine."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    result = nongaussian.run_asymmetric(cmath.rect(mag, phase), xi, absorber)
    tau_c = absorber.tau_c
    v_a = (np.eye(2) + np.diag([math.exp(-2.0 * xi), math.exp(2.0 * xi)])) / 2.0
    v = (1.0 - tau_c * tau_c) * v_a + tau_c * tau_c * np.eye(2)
    entropy = _gaussian_environment(v, np.zeros(2))[2]
    assert abs(result.separability["env_entanglement_entropy"] - entropy) < 2e-13


def test_absorber_environment_needs_a_fresh_environment():
    state = fock.basis_state({C: 1, S: 0, ENV_C: 0}, 2)
    with pytest.raises(ModeError):
        fock.absorber_environment(state, CANONICAL)
    with pytest.raises(ModeError):
        fock.absorber_environment(fock.basis_state({K: 1, MINUS_K: 0}, 2), CANONICAL)


def test_absorber_environment_reads_one_rail():
    """A standing state on two rails, such as a Bell pair's, is refused with its
    modes named: the Bell runs read their environment from their joint."""
    standing = fock.standing_basis(random_rail_state(8, 2))
    with pytest.raises(ModeError, match=r"modes \(C, S, C\[B\], S\[B\]\) are not one rail"):
        fock.absorber_environment(standing, CANONICAL)


def test_travelling_basis_undoes_standing_basis():
    state = random_rail_state(5, 2)
    standing = fock.standing_basis(state)
    assert {m.kind for m in standing.modes} == {C.kind, S.kind}
    back = fock.travelling_basis(standing)
    assert back.modes == state.modes
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-14


def test_travelling_basis_checks_the_loss_of_the_whole_joint():
    """A state that loses 1.5e-10 of its norm to the cutoff on the way back
    fails the cutoff check."""
    kept = fock.hadamard_block(4)[2, 2] ** 2  # |2,2> keeps this much at cutoff 2
    weight = 3e-10 / (1.0 - kept)
    state = fock.superposition(
        [(math.sqrt(1.0 - weight), {C: 0, S: 0}), (math.sqrt(weight), {C: 2, S: 2})], (C, S), 2
    )
    with pytest.raises(CutoffError):
        fock.travelling_basis(state)


def test_entropy_product_state_is_zero():
    state = fock.tensor(
        oracle.coherent_state(1.1, 25, K), oracle.coherent_state(0.4, 25, MINUS_K)
    )
    assert fock.partial_trace(state, [K]).entropy() == pytest.approx(0.0, abs=1e-9)


def test_entropy_bell_pair_is_one_bit():
    state = fock.superposition(
        [(INV, {K: 1, MINUS_K: 0}), (INV, {K: 0, MINUS_K: 1})], (K, MINUS_K), 1
    )
    assert fock.partial_trace(state, [K]).entropy() == pytest.approx(1.0, abs=1e-12)


def test_entropy_squeezed_bridge_product_input():
    state = fock.tensor(
        fock.squeezed_coherent_state(0.0, 0.3, 0.0, 30, K),
        fock.squeezed_coherent_state(0.0, 0.3, 0.0, 30, MINUS_K),
    )
    joint = fock.full_pipeline(state, CANONICAL)
    assert fock.partial_trace(joint, [ENV_C]).entropy() < 1e-6


# ---------------------------------------------------------------------------
# moments and state preparation


def test_coherent_moments():
    state = oracle.coherent_state(1.0, 30)
    mean, number = fock.mode_moments(state, K)
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert number == pytest.approx(1.0, abs=1e-10)


def test_fock_state_moments():
    state = fock.basis_state({K: 3}, 5)
    mean, number = fock.mode_moments(state, K)
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert number == pytest.approx(3.0, abs=1e-14)


def test_squeezed_vacuum_photon_number():
    state = fock.squeezed_coherent_state(0.0, 0.4, 0.0, 40)
    _, number = fock.mode_moments(state, K)
    assert number == pytest.approx(math.sinh(0.4) ** 2, abs=1e-10)


def test_prepare_vacuum_limit():
    state = fock.squeezed_coherent_state(0.0, 0.0, 0.0, 10)
    assert state.amplitude({K: 0}) == pytest.approx(1.0, abs=1e-14)


def test_squeezed_vacuum_quadrature_variances():
    state = fock.squeezed_coherent_state(0.0, 1.0, 0.0, 80)
    stats = oracle.quadrature_stats(state, K)
    assert stats.var_x1 == pytest.approx(math.exp(-2.0), abs=1e-6)
    assert stats.var_x2 == pytest.approx(math.exp(2.0), abs=1e-6)


def test_coherent_quadrature_means():
    state = oracle.coherent_state(1.0, 30)
    stats = oracle.quadrature_stats(state, K)
    assert stats.mean_x1 == pytest.approx(2.0, abs=1e-10)
    assert stats.mean_x2 == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-1.0, -1e-3),
    st.integers(1, 123),
)
def test_squeezed_state_matches_padded_eigh_reference(mag, angle, xi, cutoff):
    """Exact-recurrence amplitudes against an independent padded-space squeezer
    (eigh of the generator), at xi < 0 with phi = pi.  The state is refused
    exactly when half the reference's weight beyond the cutoff exceeds
    TRUNCATION_TOL."""
    alpha = mag * complex(math.cos(angle), math.sin(angle))
    reference = oracle.padded_squeezed_coherent(alpha, xi, math.pi, 2 * cutoff + 80)
    head = reference[: cutoff + 1]
    half_tail = (1.0 - float(np.vdot(head, head).real)) / 2.0
    assume(abs(half_tail / fock.TRUNCATION_TOL - 1.0) > 1e-3)  # not on the boundary itself
    if half_tail > fock.TRUNCATION_TOL:
        with pytest.raises(CutoffError):
            fock.squeezed_coherent_state(alpha, xi, math.pi, cutoff)
        return
    state = fock.squeezed_coherent_state(alpha, xi, math.pi, cutoff)
    assert np.max(np.abs(state.amplitudes - head / np.linalg.norm(head))) < 1e-12


@pytest.mark.parametrize("alpha, xi", [(0.0, -0.8), (1.5 + 0.5j, -0.5), (2.0, -1.0), (0.5j, -0.3)])
def test_squeezed_state_cutoff_boundary(alpha, xi):
    """The smallest accepted cutoff is the first at which half the reference
    weight beyond it is within TRUNCATION_TOL; one less raises CutoffError."""
    reference = oracle.padded_squeezed_coherent(alpha, xi, math.pi, 300)
    half_tails = (1.0 - np.cumsum(np.abs(reference) ** 2)) / 2.0
    boundary = int(np.argmax(half_tails <= fock.TRUNCATION_TOL))
    assert half_tails[boundary] < 0.99 * fock.TRUNCATION_TOL < half_tails[boundary - 1] / 1.01
    with pytest.raises(CutoffError):
        fock.squeezed_coherent_state(alpha, xi, math.pi, boundary - 1)
    fock.squeezed_coherent_state(alpha, xi, math.pi, boundary)


@pytest.mark.parametrize("alpha, cutoff", [(0.0, 5), (1.3 - 0.4j, 40), (3.0j, 60)])
def test_coherent_and_cat_amplitudes_match_closed_form(alpha, cutoff):
    """coherent_state is the xi = 0 case of the squeezed recurrence and
    build_cat its even part: both against e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    closed = oracle.padded_squeezed_coherent(alpha, 0.0, 0.0, cutoff + 1)
    coherent = oracle.coherent_state(alpha, cutoff).amplitudes
    assert np.max(np.abs(coherent - closed / np.linalg.norm(closed))) < 1e-13
    even = np.where(np.arange(cutoff + 1) % 2 == 0, closed, 0.0)
    cat = nongaussian.build_cat(alpha, cutoff).amplitudes
    assert np.max(np.abs(cat - even / np.linalg.norm(even))) < 1e-13


def test_package_imports_without_scipy():
    """The engines need only numpy: importing the CLI loads no scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    code = "import sys, cpa_sim.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert run.returncode == 0


def test_insufficient_cutoff_fails_loudly():
    with pytest.raises(CutoffError):
        oracle.coherent_state(3.0, 4)
    with pytest.raises(CutoffError):
        fock.squeezed_coherent_state(0.0, 1.5, 0.0, 8)


def test_cross_moment_of_product_state_factorizes():
    state = fock.tensor(
        oracle.coherent_state(0.8, 15, K), oracle.coherent_state(0.5j, 15, MINUS_K)
    )
    corr = oracle.cross_moment(state, K, MINUS_K)
    assert corr == pytest.approx(np.conj(0.8) * 0.5j, abs=1e-10)


def test_absorption_coefficients_undefined_for_vacuum():
    state = fock.vacuum_state((C, S), 3)
    coeff_int, coeff_coh = fock.absorption_coefficients(state)
    assert coeff_int is None
    assert coeff_coh is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from(["random", "coherent", "vacuum", "gaussian"]))
@example(0, 3, "coherent")
@example(0, 3, "vacuum")
@example(0, 3, "gaussian")
def test_absorption_coefficients_of_the_standing_state_are_the_travelling_ones(seed, cutoff, kind):
    """absorption_coefficients of standing_basis(x) is within 1e-14 of the
    travelling route, mode_moments and cross_moment on x, on random one-rail
    states whose sectors the mix holds whole (random amplitudes, or a
    displaced pair so that both coefficients are defined); a vacuum input
    gives (None, None) on both routes.  On the Gaussian engine, the shares that
    gaussian.absorption_coefficients reads off EPR light's standing product are
    within 4e-16 of oracle.travelling_coefficients on its travelling state, for
    |alpha_g|, |alpha_h| in [1, 1e4] (no total cancels) and xi <= 0.5, with
    coefficients near 0 and near 1 in every batch."""
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        extremes = [[1.0, 1e4], [1e4, 1.0]]  # shares near 0 and near 1
        mags = np.concatenate([10.0 ** rng.uniform(0.0, 4.0, (2, 62)), extremes], axis=1)
        alpha_g, alpha_h = mags * np.exp(1j * rng.uniform(-math.pi, math.pi, mags.shape))
        xi = np.append(rng.uniform(0.0, 0.5, 62), [0.3, 0.3])
        got = gaussian.absorption_coefficients(gaussian.epr_standing(alpha_g, alpha_h, xi))
        expected = oracle.travelling_coefficients(gaussian.epr_state(alpha_g, alpha_h, xi))
        for new, old in zip(got, expected):
            assert new.min() < 1e-7 and new.max() > 1.0 - 1e-7
            assert np.abs(new - old).max() <= 4e-16
        return
    if kind == "coherent":  # at cutoff 24 the sectors the mix clips weigh < 1e-25
        rng = np.random.default_rng(seed)
        alpha, beta = (complex(*rng.uniform(-0.5, 0.5, size=2)) for _ in range(2))
        state = fock.tensor(oracle.coherent_state(alpha, 24, K), oracle.coherent_state(beta, 24, MINUS_K))
    elif kind == "vacuum":
        state = fock.vacuum_state((K, MINUS_K), cutoff)
    else:
        state = random_two_mode_state(seed, cutoff)
    mean_a, intensity_a = fock.mode_moments(state, K)
    mean_b, intensity_b = fock.mode_moments(state, MINUS_K)
    total_intensity = intensity_a + intensity_b
    total_coherence = abs(mean_a) ** 2 + abs(mean_b) ** 2
    expected = (
        float(0.5 + oracle.cross_moment(state, K, MINUS_K).real / total_intensity)
        if total_intensity > 1e-12 else None,
        float(0.5 + (np.conj(mean_a) * mean_b).real / total_coherence)
        if total_coherence > 1e-12 else None,
    )
    got = fock.absorption_coefficients(fock.standing_basis(state))
    if kind == "vacuum":
        assert got == expected == (None, None)
    for new, old in zip(got, expected):
        assert (new is None) == (old is None)
        if old is not None:
            assert abs(new - old) <= 1e-14


def test_fidelity_aligns_mode_order():
    forward = fock.tensor(
        oracle.coherent_state(0.5, 15, K), oracle.coherent_state(0.2j, 15, MINUS_K)
    )
    backward = fock.tensor(
        oracle.coherent_state(0.2j, 15, MINUS_K), oracle.coherent_state(0.5, 15, K)
    )
    assert oracle.fidelity(forward, backward) == pytest.approx(1.0, abs=1e-12)
    swapped = fock.tensor(
        oracle.coherent_state(0.2j, 15, K), oracle.coherent_state(0.5, 15, MINUS_K)
    )
    assert oracle.fidelity(forward, swapped) < 0.6


def test_mode_moments_on_density_operator():
    state = fock.tensor(
        oracle.coherent_state(0.6, 15, K), oracle.coherent_state(0.3, 15, MINUS_K)
    )
    rho = fock.partial_trace(state, [K])
    mean, number = fock.mode_moments(rho, K)
    assert mean == pytest.approx(0.6, abs=1e-10)
    assert number == pytest.approx(0.36, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rails=st.integers(1, 2),
    tau=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    swap=st.booleans(),
)
def test_maps_build_states_that_pass_the_checks_they_skip(seed, rails, tau, swap):
    """_mix and relabel check only mode labels: every state they return over a
    whole pipeline, on one or two rails at any absorber, passes PureState(...)
    when rebuilt from a copy of its amplitudes."""
    absorber = AbsorberSpec(reflection=(tau - 1.0) / 2.0, swap_roles=swap)
    with recording(fock, "_mix", "relabel") as outputs:
        fock.full_pipeline(random_rail_state(seed, rails), absorber)
    assert [len(outputs["_mix"]), len(outputs["relabel"])] == [3 * rails, 2]
    for built in outputs["_mix"] + outputs["relabel"]:
        fock.PureState(built.modes, built.cutoff, built.amplitudes.copy())


def test_only_bell_and_gaussian_runs_mix(tmp_path):
    """The traffic the two mixes serve: over every golden input and each sweep
    preset at grid 3, only Bell runs call fock._mix and only GAUSSIAN runs call
    gaussian._mix, always on one state (batch shape ())."""
    def mixes(argv):
        with recording(fock, "_mix") as on_fock, recording(gaussian, "_mix") as on_gaussian:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        return on_fock["_mix"], on_gaussian["_mix"]

    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.endswith(".in.json"):
            path = os.path.join(GOLDEN_DIR, name)
            with open(path, encoding="utf-8") as handle:
                spec = json.load(handle)
            on_fock, on_gaussian = mixes(["run", path])
            assert bool(on_fock) == spec["scenario"]["kind"].startswith("BELL_"), name
            assert bool(on_gaussian) == (spec["engine"] == "GAUSSIAN"), name
            assert all(state.mean.shape[:-1] == () for state in on_gaussian), name
    for preset in ("fig6", "fig8", "fig9a", "fig9b"):
        out = str(tmp_path / f"{preset}.csv")
        assert mixes(["sweep", "--preset", preset, "--grid", "3", "--out", out]) == ([], [])
