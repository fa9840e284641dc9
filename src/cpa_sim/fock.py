"""Truncated multi-mode Fock-space engine.

States are dense complex tensors indexed by per-mode occupation number with a
common cutoff.  A pair run builds its one-rail standing state in closed form
(balanced_pair) and reads its environment there, through the pure-loss
channel's complementary map in closed form: real Toeplitz matmuls on the
diagonal-major layout of the absorbed mode's reduced state
(absorber_environment), with no light x environment joint; its absorption
coefficients are the standing state's shares (absorption_coefficients, by
absorber.absorbed_share as on the Gaussian engine).  A one-rail DV run builds no
state at all (dv.one_rail_distribution; tests/oracle.py holds the dense route
it replaced).  Only the Bell kinds run the pipeline of two-mode mixes
(absorber.py's stages) and read every output, environment readouts and each
count's light, from one pass over their joint (joint_readouts); full_pipeline,
bs_transform, cpa_channel and hadamard_block stay because the benchmark names
them.  _mix is one plain loop over total-photon sectors, sized for those
two-photon joints: a vacuum partner's sector block is one column of a
loss_amplitudes table, any other comes from the one before by a stable
recurrence (_next_block) that matches the exact integer expansion to ~5e-15 up
to total 246.  Reduced states are held as purifications, rho = A A^H.
States are immutable and every map is a pure function.  Outside data is
checked in full by PureState(...); a map skips only the checks its construction
guarantees (_built).  States bridged from continuous families (coherent,
squeezed, cat) come from one exact amplitude recurrence, truncated at the
cutoff; any constructor or map that would push more than TRUNCATION_TOL of
probability past the cutoff fails loudly instead of silently corrupting moments.
"""
from __future__ import annotations

import cmath
import itertools
import math
import struct
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .absorber import AbsorberSpec, absorb, absorbed_share, change_basis
from .modes import (C, K, MINUS_K, S, STANDING_KINDS, STANDING_OF, TRAVELLING_OF, ModeError,
                    ModeLabel, basis_rails, check_mode_consistency)

TRUNCATION_TOL = 1e-10  # norm a constructor/map may lose to the cutoff
SECTOR_MASS_FLOOR = 1e-26  # total-photon sectors below this weight are dropped
DEFAULT_CUTOFF = 30
CONDITIONING_FLOOR = 1e-12  # least probability of an absorbed count conditioned on
MEMORY_BUDGET = 1 << 30  # bytes a run may commit to its cutoff: see budget_cutoff


class FockError(ValueError):
    """Base class for engine failures."""


class CutoffError(FockError):
    """Cutoff too small to hold the state to within TRUNCATION_TOL."""


class NormLostError(CutoffError):
    """A state lost more than TRUNCATION_TOL of its norm to the cutoff (_normalized)."""


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over labeled modes with a shared occupation cutoff."""

    modes: tuple[ModeLabel, ...]
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = self.cutoff + 1
        expected = (dim,) * len(self.modes)
        if self.amplitudes.shape != expected:
            raise FockError(
                f"amplitude tensor shape {self.amplitudes.shape} != {expected}"
            )
        check_mode_consistency(self.modes)
        norm = math.sqrt(float(np.vdot(self.amplitudes, self.amplitudes).real))
        if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails this, not `> 1e-9`
            raise FockError(f"state not normalized: |psi| = {norm!r}")
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def axis(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ModeError(f"mode {mode} not present in {self.modes}") from None

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def amplitude(self, occupations: Mapping[ModeLabel, int]) -> complex:
        index = [0] * len(self.modes)
        for mode, n in occupations.items():
            index[self.axis(mode)] = n
        return complex(self.amplitudes[tuple(index)])

    def aligned_amplitudes(self, mode_order: Sequence[ModeLabel]) -> np.ndarray:
        """Amplitude tensor with axes permuted to the given mode order."""
        if set(mode_order) != set(self.modes) or len(mode_order) != len(self.modes):
            raise ModeError(f"mode sets differ: {mode_order} vs {self.modes}")
        perm = [self.axis(m) for m in mode_order]
        return np.transpose(self.amplitudes, perm)


@dataclass(frozen=True)
class DensityOperator:
    """Reduced (generally mixed) state over labeled modes, held as a purification.

    rho = factor @ factor^H, with factor of shape (dim^M, r): its rows are the
    kept modes' occupations in C order and its columns a purifying system
    (the traced-out modes).  The dense rho is formed only by `matrix`.
    """

    modes: tuple[ModeLabel, ...]
    cutoff: int
    factor: np.ndarray

    def __post_init__(self) -> None:
        dim = (self.cutoff + 1) ** len(self.modes)
        if self.factor.ndim != 2 or self.factor.shape[0] != dim:
            raise FockError(f"purification shape {self.factor.shape} != ({dim}, r)")
        check_mode_consistency(self.modes)
        trace = float(np.vdot(self.factor, self.factor).real)
        if not abs(trace - 1.0) <= 1e-9:  # a NaN trace fails this, not `> 1e-9`
            raise FockError(f"density matrix trace {trace!r} != 1")
        self.factor.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def matrix(self) -> np.ndarray:
        """Dense rho, built on request."""
        return self.factor @ self.factor.conj().T

    def _gram(self) -> np.ndarray:
        return _smaller_gram(self.factor)

    def purity(self) -> float:
        gram = self._gram()
        return float(np.vdot(gram, gram).real)

    def entropy(self) -> float:
        """Von Neumann entropy in bits."""
        return _gram_entropy(self._gram())

    def expectation_with_pure(self, state: PureState) -> float:
        """<psi|rho|psi> = |psi^H A|^2 for a pure state over the same modes."""
        if state.cutoff != self.cutoff:
            raise FockError("cutoff mismatch")
        overlaps = state.aligned_amplitudes(self.modes).ravel().conj() @ self.factor
        return float(np.vdot(overlaps, overlaps).real)

    def partial_trace(self, keep: Iterable[ModeLabel]) -> "DensityOperator":
        """Reduction to `keep`: the traced kept modes join the columns of A."""
        shape = (self.dim,) * len(self.modes) + (-1,)
        keep, factor = _split(self.factor.reshape(shape), self.modes, keep)
        return DensityOperator(keep, self.cutoff, factor)


def _smaller_gram(a: np.ndarray) -> np.ndarray:
    """The smaller of conj(A A^H) and A^H A; both share A A^H's nonzero spectrum."""
    a = a.T if a.shape[0] <= a.shape[1] else a
    return a.conj().T @ a


def _gram_entropy(gram: np.ndarray, triangle: str = "L") -> float:
    """Von Neumann entropy (bits) of the rho whose nonzero spectrum is that of
    gram / tr gram (gram may be a leading block of rho), less rounding-level
    eigenvalues; eigvalsh reads only the given triangle ("L" or "U") of gram."""
    lam = np.clip(np.linalg.eigvalsh(gram, UPLO=triangle) / np.trace(gram).real, 0.0, None)
    lam = lam[lam > 1e-16]
    return max(0.0, float(-np.sum(lam * np.log2(lam))))


def _split(
    arr: np.ndarray, modes: tuple[ModeLabel, ...], keep: Iterable[ModeLabel]
) -> tuple[tuple[ModeLabel, ...], np.ndarray]:
    """The kept modes in `modes` order, and the tensor whose leading axes are
    `modes` as a (kept x everything else) matrix."""
    wanted = set(keep)
    keep = tuple(m for m in modes if m in wanted)
    if not keep:
        raise ModeError("keep set must be a nonempty subset of modes")
    keep_axes = [modes.index(m) for m in keep]
    rest_axes = [i for i in range(arr.ndim) if i not in keep_axes]
    kept_dim = math.prod(arr.shape[i] for i in keep_axes)
    return keep, np.transpose(arr, keep_axes + rest_axes).reshape(kept_dim, -1)


# ---------------------------------------------------------------------------
# constructors


def _normalized(amps: np.ndarray, lossy_ok: bool = False) -> np.ndarray:
    """`amps` scaled in place to unit norm; every caller owns the buffer.
    numpy's complex / real is this multiply by the reciprocal."""
    norm2 = float(np.vdot(amps, amps).real)
    if not math.isfinite(norm2):  # a NaN would pass both checks below
        raise FockError(f"state norm is not finite: |psi|^2 = {norm2!r}")
    if norm2 <= 0.0:
        raise FockError("zero-amplitude state")
    norm = math.sqrt(norm2)
    if not lossy_ok and abs(norm - 1.0) > TRUNCATION_TOL:
        raise NormLostError(f"norm lost to cutoff: 1 - |psi| = {1 - norm:.3e}")
    scaled = amps.view(np.float64)
    scaled *= 1.0 / norm
    return amps


def budget_bytes(cutoff: float, modes: int, states: float = 1.0) -> float:
    """16 states (cutoff + 1)^modes: the bytes of `states` dense complex128 states
    over `modes` modes; inf when a float overflows."""
    try:
        return 16.0 * states * (float(cutoff) + 1.0) ** modes
    except OverflowError:
        return math.inf


def budget_cutoff(cutoff: float, modes: int, states: float = 1.0) -> int:
    """`cutoff` rounded up, when `states` dense states at it fit MEMORY_BUDGET
    (budget_bytes); CutoffError otherwise, raised before anything is allocated."""
    need = budget_bytes(cutoff, modes, states)
    if not need <= MEMORY_BUDGET:
        shown = f"{cutoff:.6g}" if isinstance(cutoff, float) else cutoff
        raise CutoffError(
            f"cutoff {shown} over {modes} modes needs {need / 2**30:.5g} GiB, "
            f"above the {MEMORY_BUDGET >> 30} GiB memory budget"
        )
    return math.ceil(cutoff)


def _built(modes: tuple[ModeLabel, ...], cutoff: int, amps: np.ndarray) -> PureState:
    """A PureState from a (dim,) * len(modes) array that a map has normalized
    or taken from a validated state: only the mode labels are checked."""
    check_mode_consistency(modes)
    amps.setflags(write=False)
    state = object.__new__(PureState)  # PureState(...) would run every check
    vars(state).update(modes=modes, cutoff=cutoff, amplitudes=amps)
    return state


def basis_state(occupations: Mapping[ModeLabel, int], cutoff: int) -> PureState:
    modes = tuple(occupations)
    dim = cutoff + 1
    for mode, n in occupations.items():
        if not 0 <= n <= cutoff:
            raise CutoffError(f"occupation {n} of {mode} exceeds cutoff {cutoff}")
    amps = np.zeros((dim,) * len(modes), dtype=complex)
    amps[tuple(occupations[m] for m in modes)] = 1.0
    return PureState(modes, cutoff, amps)


def superposition(
    terms: Iterable[tuple[complex, Mapping[ModeLabel, int]]],
    modes: Sequence[ModeLabel],
    cutoff: int,
) -> PureState:
    """Normalized superposition of occupation-number kets."""
    modes = tuple(modes)
    dim = cutoff + 1
    amps = np.zeros((dim,) * len(modes), dtype=complex)
    for coeff, occupations in terms:
        index = [0] * len(modes)
        for mode, n in occupations.items():
            if mode not in modes:
                raise ModeError(f"term mode {mode} not in state modes {modes}")
            if not 0 <= n <= cutoff:
                raise CutoffError(f"occupation {n} of {mode} exceeds cutoff {cutoff}")
            index[modes.index(mode)] = n
        amps[tuple(index)] += coeff
    return PureState(modes, cutoff, _normalized(amps, lossy_ok=True))


def tensor(*states: PureState) -> PureState:
    cutoffs = {s.cutoff for s in states}
    if len(cutoffs) != 1:
        raise FockError(f"tensor factors disagree on cutoff: {sorted(cutoffs)}")
    modes, amps = states[0].modes, states[0].amplitudes
    for s in states[1:]:
        modes = modes + s.modes
        amps = np.multiply.outer(amps, s.amplitudes)
    return PureState(modes, states[0].cutoff, amps)


def vacuum_state(modes: Sequence[ModeLabel], cutoff: int) -> PureState:
    return basis_state({m: 0 for m in modes}, cutoff)


def _bargmann(beta: complex, xi: float, phi: float) -> tuple[complex, complex, complex]:
    """(c_0, b, t), D(beta) S(xi e^{i phi})|0> = c_0 exp(b a^dag - t a^dag^2 / 2)|0>: t = e^{i phi}
    tanh xi, c_0 = exp(-|beta|^2/2 - conj(beta)^2 t/2) / sqrt(cosh xi), b = beta + conj(beta) t."""
    beta, t = complex(beta), cmath.exp(1j * phi) * math.tanh(xi)
    c0 = np.complex128(cmath.exp(-abs(beta) ** 2 / 2.0 - beta.conjugate() ** 2 * t / 2.0))
    return c0 / math.sqrt(math.cosh(xi)), beta + beta.conjugate() * t, t


def _one_mode(c0: complex, b: complex, t: complex, dim: int) -> np.ndarray:
    """<n| c_0 exp(b a^dag - t a^dag^2 / 2)|0> for n < dim, by the Gaussian recurrence of
    Miatto & Quesada (Quantum 4, 366 (2020)): c_{n+1} = (b c_n - t sqrt(n) c_{n-1}) / sqrt(n+1).
    CutoffError when c_0 is below the smallest normal double (about e^-708): the
    vector would start subnormal or at zero and lose its digits.  The message
    names the mode's mean amplitude, alpha = (b - conj(b) t) / (1 - |t|^2)."""
    if abs(c0) < sys.float_info.min:
        alpha = abs(b - b.conjugate() * t) / (1.0 - abs(t) ** 2)
        raise CutoffError(
            f"state with |alpha| = {alpha:.6g} on one mode is past double range: its "
            f"vacuum amplitude {abs(c0):.3g} underflows below {sys.float_info.min:.3g}"
        )
    amps = [0j, complex(c0)]  # a leading c_{-1} = 0, which weight sqrt(0) meets at n = 1
    root = np.sqrt(np.arange(dim)).tolist()  # correctly rounded, as math.sqrt
    for n in range(1, dim):  # Python complex; x (1 / sqrt n) rounds as numpy's x / sqrt n
        amps.append((b * amps[n] - t * root[n - 1] * amps[n - 1]) * (1.0 / root[n]))
    return np.array(amps[1:dim + 1], dtype=complex)


def displaced_squeezed_amplitudes(beta: complex, xi: float, phi: float, dim: int) -> np.ndarray:
    """Exact <n|D(beta) S(xi e^{i phi})|0> for n < dim, not renormalized; xi = 0 is |beta>."""
    return _one_mode(*_bargmann(beta, xi, phi), dim)


def _displacement(alpha: complex, xi: float, phi: float, cutoff: int) -> tuple[complex, float, float]:
    """(beta, xi, phi), xi >= 0, with S(zeta) D(alpha)|0> = D(beta) S(xi e^{i phi})|0>:
    beta = alpha cosh(xi) - conj(alpha) e^{i phi} sinh(xi); CutoffError where tanh xi is 1."""
    if xi < 0:
        xi, phi = -xi, phi + math.pi
    if math.tanh(xi) == 1.0:  # xi > 18.7; cosh itself overflows past xi = 710
        raise CutoffError(
            f"squeezed state (xi={xi:.3f}) has mean photon number sinh^2 xi > 1e15, "
            f"beyond cutoff {cutoff}"
        )
    return alpha * math.cosh(xi) - np.conj(alpha) * cmath.exp(1j * phi) * math.sinh(xi), xi, phi


def squeezed_coherent_state(
    alpha: complex, xi: float, phi: float = 0.0, cutoff: int = DEFAULT_CUTOFF,
    mode: ModeLabel = K,
) -> PureState:
    """Squeezed coherent state S(zeta) D(alpha)|0> = D(beta) S(zeta)|0>, zeta = xi e^{i phi}.

    The mean amplitude beta (_displacement) and the quadrature variances
    cosh(2 xi) -/+ cos(phi) sinh(2 xi) match the Gaussian engine's conventions
    exactly.  Built from exact amplitudes (no padded space, no matrix exponential),
    it fails the cutoff check when half the weight beyond the cutoff exceeds TRUNCATION_TOL.
    """
    beta, xi, phi = _displacement(alpha, xi, phi, cutoff)
    amps = displaced_squeezed_amplitudes(beta, xi, phi, cutoff + 1)
    tail = 1.0 - float(np.vdot(amps, amps).real)
    if tail / 2.0 > TRUNCATION_TOL:
        raise CutoffError(
            f"squeezed state (|alpha|={abs(alpha):.3f}, xi={xi:.3f}) keeps "
            f"{tail:.2e} of its weight beyond cutoff {cutoff}"
        )
    return PureState((mode,), cutoff, _normalized(amps, lossy_ok=True))


def balanced_pair(factors: Sequence[Sequence[tuple]], cutoff: int) -> PureState:
    """The standing state (C, S) of two factors on (K, MINUS_K), each a sum of
    branches (w, alpha, xi, phi), w S(xi e^{i phi}) D(alpha)|0>, in closed form:
    the mix sends a product branch c_0 exp(b.z - z^T T z / 2) (_bargmann) to
    b -> U^T b, T -> U^T T U, U the 2x2 Hadamard.  Row n_C = 0 is the one-mode
    recurrence in S, then psi[m+1, n] = (b_C psi[m, n] - T_CC sqrt(m) psi[m-1, n]
    - T_CS sqrt(n) psi[m, n-1]) / sqrt(m+1).  Each row holds true amplitudes, so
    none overflows; with T_CS = 0 a branch is an outer product of one-mode
    states.  1 - |psi| is the exact state's weight outside the box."""
    dim, amps, one_modes = cutoff + 1, 0.0, {}

    def one_mode(beta: complex, xi: float, phi: float) -> np.ndarray:
        """D(beta) S(xi e^{i phi})|0>, built once per call for each exact bit pattern
        (signed zeros too): a cat pair's 8 vectors hold 3 distinct ones."""
        key = struct.pack("<4d", beta.real, beta.imag, xi, phi)
        if key not in one_modes:
            one_modes[key] = displaced_squeezed_amplitudes(beta, xi, phi, dim)
        return one_modes[key]

    for (w1, *one), (w2, *two) in itertools.product(*factors):
        first, second = _displacement(*one, cutoff), _displacement(*two, cutoff)
        (c1, b1, t1), (c2, b2, t2) = _bargmann(*first), _bargmann(*second)
        if t1 == t2:  # equal squeezers commute with the mix: D(beta_C) S (x) D(beta_S) S
            sides = ((first[0] + sign * second[0]) * _INV_SQRT2 for sign in (1, -1))
            on_c, on_s = (one_mode(beta, *first[1:]) for beta in sides)
            amps = amps + np.multiply.outer(w1 * w2 * on_c, on_s)
            continue
        b_c, b_s, t_cc, t_cs = (b1 + b2) * _INV_SQRT2, (b1 - b2) * _INV_SQRT2, (t1 + t2) / 2, (t1 - t2) / 2
        psi = np.zeros((dim, dim), dtype=complex)  # finite: row m - 1 = -1 has weight 0 at m = 0
        psi[0] = _one_mode(w1 * w2 * c1 * c2, b_s, t_cc, dim)
        coupling, product = t_cs * np.sqrt(np.arange(1.0, dim)), np.empty(dim, dtype=complex)
        for m in range(dim - 1):
            row = np.multiply(psi[m], b_c, out=psi[m + 1])
            row[1:] -= np.multiply(coupling, psi[m, :-1], out=product[1:])
            row -= np.multiply(psi[m - 1], t_cc * math.sqrt(m), out=product)
            row /= math.sqrt(m + 1)
        amps = amps + psi
    return _built((C, S), cutoff, _normalized(amps))


def relabel(state: PureState, mapping: Mapping[ModeLabel, ModeLabel]) -> PureState:
    modes = tuple(mapping.get(m, m) for m in state.modes)
    return _built(modes, state.cutoff, state.amplitudes)


# ---------------------------------------------------------------------------
# two-mode mix


def _next_block(
    block: np.ndarray, first: int, c: float, s: float, lo: int, hi: int
) -> np.ndarray:
    """Columns lo..hi of sector T+1 of the mix from columns first.. of sector T,
    column-major: _mix's sector matmuls round differently on a C-ordered copy.

    Column m of sector T is U|m, T-m> over the kets |p, T-p>.  The recurrence
    of Miatto & Quesada (Quantum 4, 366 (2020)) in the two-sided form of
    Risbo's Wigner-d recursion (J. Geodesy 70, 383 (1996)), with A, B the
    output creation operators:  U|m, T+1-m> = (sqrt(m) (c A + s B) U|m-1, T+1-m>
    + sqrt(T+1-m) (s A - c B) U|m, T-m>) / (T+1).  Both terms are the same unit
    vector scaled by m/(T+1) and (T+1-m)/(T+1), so rounding errors average out.
    """
    n, k = block.shape  # n = T + 1
    root = np.sqrt(np.arange(n + 1.0))
    # A and B applied to every column, padded with one zero column on each side
    raise_a = np.zeros((n + 1, k + 2), order="F")
    np.multiply(root[1:, None], block, out=raise_a[1:, 1:-1])  # (A x)[p] = sqrt(p) x[p-1]
    raise_b = np.zeros((n + 1, k + 2), order="F")
    np.multiply(root[:0:-1, None], block, out=raise_b[:-1, 1:-1])  # (B x)[p] = sqrt(T+1-p) x[p]
    m = np.arange(lo, hi + 1)
    left = slice(lo - first, hi - first + 1)  # padded column m-first: column m-1 of sector T
    same = slice(lo - first + 1, hi - first + 2)  # column m of sector T
    out = np.multiply(c * raise_a[:, left] + s * raise_b[:, left], root[m], order="F")
    out += (s * raise_a[:, same] - c * raise_b[:, same]) * root[n - m]
    out /= n
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def hadamard_block(total: int) -> np.ndarray:
    """Sector `total` of the balanced mix (c = s = 1/sqrt(2)), by the _next_block
    chain from sector 0, which _mix walks itself for a partner not in vacuum;
    kept, uncached, for the benchmark and tests that name it.

    Entry [p, m] is the amplitude of |p, total-p> in the image of
    |m, total-m> under a_1 -> (a_1 + a_2)/sqrt(2), a_2 -> (a_1 - a_2)/sqrt(2).
    """
    block = np.ones((1, 1))
    for n in range(1, total + 1):
        block = _next_block(block, 0, _INV_SQRT2, _INV_SQRT2, 0, n)
    return block


def _top_levels(amps: np.ndarray, ia: int, ib: int) -> list[int]:
    """Highest occupations along axes ia and ib that carry any amplitude."""
    occupied = np.any(amps, axis=tuple(i for i in range(amps.ndim) if i not in (ia, ib)))
    if ia > ib:
        occupied = occupied.T
    levels = (np.flatnonzero(occupied.any(axis=1)), np.flatnonzero(occupied.any(axis=0)))
    return [int(found[-1]) if found.size else 0 for found in levels]


def _mix(state: PureState, a: ModeLabel, b: ModeLabel, c: float, s: float) -> PureState:
    """Two-mode mix a^dag -> c a^dag + s b^dag, b^dag -> s a^dag - c b^dag
    (c^2 + s^2 = 1, an involution), the convention of gaussian._mix; a mode b
    not in the state is attached in vacuum as the last mode.  One loop over
    total-photon sectors within each mode's top occupied level (_top_levels),
    skipping those below SECTOR_MASS_FLOOR and dropping rows above the cutoff;
    a vacuum partner's block is a loss_amplitudes column (exact at c = 0), any
    other comes from the one before (_next_block)."""
    if a == b:
        raise ModeError("a two-mode mix needs two distinct modes")
    modes, amps = state.modes, state.amplitudes
    if b not in modes:  # a one-level view: b in vacuum, no copy
        modes, amps = modes + (b,), amps[..., None]
    ia, ib = state.axis(a), modes.index(b)
    cutoff = state.cutoff
    top_a, top_b = _top_levels(amps, ia, ib)
    out = np.zeros((cutoff + 1,) * len(modes), dtype=complex)
    axes = (ia, ib) + tuple(i for i in range(len(modes)) if i not in (ia, ib))
    source, image = amps.transpose(axes), out.transpose(axes)  # views with a, b leading
    loss = loss_amplitudes(c, s, top_a + 1) if top_b == 0 else None
    block, first = np.ones((1, 1)), 0  # columns first.. of the current sector
    for total in range(top_a + top_b + 1):
        lo_m, hi_m = max(0, total - top_b), min(total, top_a)
        if loss is not None:
            block = loss[total, :total + 1, None]
        elif total:
            block, first = _next_block(block, first, c, s, lo_m, hi_m), lo_m
        ms = np.arange(lo_m, hi_m + 1)
        sector = source[ms, total - ms]
        if float(np.vdot(sector, sector).real) < SECTOR_MASS_FLOOR:
            continue
        ps = np.arange(max(0, total - cutoff), min(total, cutoff) + 1)
        rows = block[ps[0]:ps[-1] + 1] @ sector.reshape(len(ms), -1).view(np.float64)
        image[ps, total - ps] = rows.view(complex).reshape((len(ps),) + sector.shape[1:])
    return _built(modes, cutoff, _normalized(out))


def bs_transform(state: PureState, a: ModeLabel, b: ModeLabel) -> PureState:
    """Balanced beamsplitter between modes a and b (an involution)."""
    return _mix(state, a, b, _INV_SQRT2, _INV_SQRT2)


# ---------------------------------------------------------------------------
# absorber channel and pipeline


def cpa_channel(state: PureState, absorber: AbsorberSpec) -> PureState:
    """Absorber in the standing basis: absorber.absorb with _mix, which attaches
    each environment mode in vacuum.  The joint stays pure."""
    return absorb(state, absorber, _mix)


def loss_amplitudes(c: float, s: float, dim: int) -> np.ndarray:
    """b[n, p] (n, p < dim): amplitude of |p, n-p> in _mix of |n, 0>, i.e. _next_block's
    vacuum-partner column b[n] = (c A + s B) b[n-1] / sqrt(n), which _mix reads
    for a vacuum partner; dividing last makes b[n, 0] = 1 at s = 1 and b[n, n] = 1
    at c = 1 exact."""
    root = np.sqrt(np.arange(dim + 0.0))
    b = np.eye(dim)  # b[0, 0] = 1; rows n >= 1 are written below
    for n in range(1, dim):
        b[n, 1:n + 1] = c * (root[1:n + 1] * b[n - 1, :n])
        b[n, :n] += s * (root[n:0:-1] * b[n - 1, :n])
        b[n, :n + 1] /= root[n]
    return b


def _loss_map(x: np.ndarray, tau: float) -> np.ndarray:
    """The pure-loss channel's complementary map on a (levels, levels) block x,
    ket rows and bra columns: y[e, e'] = sum_p b[p+e, p] b[p+e', p] x[p+e, p+e'],
    with b[n, p] = sqrt(C(n, p)) tau^p s^(n-p) (loss_amplitudes(tau, s) in closed form).

    With g_n = sqrt(n!) / lam^n, K_p = (lam tau)^(2p) / p! and h_e = (lam s)^e /
    sqrt(e!), y[e, e'] = h_e h_e' sum_p K_p g_(p+e) g_(p+e') x[p+e, p+e'], so every
    diagonal d = e' - e meets the same upper-triangular Toeplitz kernel.  In the
    diagonal-major layout S[n, d] = g_(n+d) x[n, n+d], a strided view of one
    buffer, real matmuls by T[e, n] = h_e K_(n-e) g_n map all diagonals d >= 0
    at once.  lam^2 = levels / e keeps every factor below e^(levels / e),
    inside double range well past the 737 levels a standing state can reach; a
    factor that underflows belongs to a negligible term.  Only the ket <= bra
    triangle is mapped; the rest of y is zero.
    """
    levels = len(x)
    lam, s = math.sqrt(levels / math.e), math.sqrt(max(0.0, 1.0 - tau * tau))
    k = np.arange(1.0, levels)
    g, kern, h = (np.concatenate(([1.0], np.cumprod(factor)))
                  for factor in (np.sqrt(k) / lam, (lam * tau) ** 2 / k, lam * s / np.sqrt(k)))
    strided = np.lib.stride_tricks.as_strided
    padded = np.concatenate((np.zeros(levels - 1), kern))[levels - 1:]  # zeros before K_0
    kernel = h[:, None] * strided(padded, (levels, levels), (-padded.itemsize, padded.itemsize))
    kernel *= g
    # x g's upper triangle, zero below and in a spare last row: the skewed view
    # stays inside the buffer and past a diagonal's end reads only those zeros
    buf = np.zeros((levels + 1, levels), dtype=complex)
    np.multiply(x, g, out=buf[:levels], where=np.tri(levels, dtype=bool).T)
    skew = strided(buf, (levels, levels), (buf.strides[0] + buf.itemsize, buf.itemsize)).view(np.float64)
    # R = T S, zero again past each diagonal's end.  Diagonals d >= half are
    # nonzero in rows n < levels - half only, so they take a quarter-size product
    # (and the products' temporaries stay within half the buffer).
    half = (levels + 1) // 2
    split, top = 2 * half, levels - half
    skew[:, :split] = kernel @ skew[:, :split]
    skew[:top, split:] = kernel[:top, :top] @ skew[:top, split:]
    out = buf[:levels]
    out *= h
    return out


class EnvironmentReadout(NamedTuple):
    """Absorbed-photon distribution, light-environment entropy (bits), P(no photon leaves)."""
    distribution: np.ndarray  # P(m) at index m, up to the most the box holds
    entropy: float
    p_all_absorbed: float


def absorber_environment(standing: PureState, absorber: AbsorberSpec) -> EnvironmentReadout:
    """The environment readouts of cpa_channel(standing, absorber), without its
    joint, for a standing state on one rail (ModeError otherwise).

    The environment starts in vacuum and meets only the absorbed mode, so its
    state is the complementary output of a pure-loss channel (Kraus form: Ivan,
    Sabapathy & Simon, PRA 84, 042311 (2011)) on its reduced state R = Psi Psi^H,
    Psi the (absorbed x rest) amplitudes.  _loss_map applies it in closed form to
    rho's ket <= bra half, the triangle the eigenvalue step reads.  The map and R
    keep the levels up to the highest that carries weight; levels below
    SECTOR_MASS_FLOOR are empty, as in the channel's mixes, and their rows and
    columns of R are scaled by 0 in place.  No photon leaves with probability
    sum_n |Psi[n, 0]|^2 s^(2n).  At tau_c = 0 the map is the identity, so rho = R
    over all levels and that sum is sum_n |Psi[n, 0]|^2.  The entropy is that of
    rho's leading block [0, L), L the fewest levels above which rho holds below
    eps = 2^-52: by interlacing, dropped weight d moves it ~d log2(1/d), below eigvalsh's noise.
    """
    tau, dim, rails = absorber.tau_c, standing.dim, basis_rails(standing.modes, STANDING_KINDS)
    if len(rails) != 1 or any(m.is_env for m in standing.modes):
        raise ModeError(f"modes {standing.modes} are not one rail's standing pair with no environment")
    psi = _split(standing.amplitudes, standing.modes, [ModeLabel(absorber.absorbed_kind, rails[0])])[1]
    level = np.sum(np.abs(psi) ** 2, axis=1) >= SECTOR_MASS_FLOOR
    levels = int(np.flatnonzero(level)[-1]) + 1
    if tau:  # the map works on the weighted levels only
        psi, level = psi[:levels], level[:levels]
    totals, no_loss, rho = np.arange(len(psi)), np.abs(psi[:, 0]) ** 2, psi @ psi.conj().T
    if not level.all():  # times 0, not assigned: a NaN row stays NaN
        no_loss *= level
        pairs = rho.view(np.float64).reshape(len(rho), len(rho), 2)  # (re, im) of each entry
        pairs *= (level[:, None] & level)[..., None]  # the rows and columns of empty levels
    if tau:
        no_loss *= max(0.0, 1.0 - tau * tau) ** totals  # b[n, 0]^2 = s^(2n)
        rho = _loss_map(rho, tau)
    if not abs(float(np.trace(rho).real) - 1.0) <= 1e-9:
        raise FockError(f"environment density matrix trace {float(np.trace(rho).real)!r} != 1")
    diagonal = np.diagonal(rho).real
    tail = np.cumsum(diagonal[::-1])  # top down
    keep = len(tail) - np.count_nonzero(tail < np.finfo(float).eps)
    entropy = _gram_entropy(rho[:keep, :keep], "U" if tau else "L")
    return EnvironmentReadout(np.bincount(totals, diagonal, dim), entropy, float(np.sum(no_loss)))


def standing_basis(state: PureState) -> PureState:
    """Travelling modes -> standing basis: the first stage of full_pipeline."""
    return change_basis(state, STANDING_OF, bs_transform, relabel)


def travelling_basis(state: PureState) -> PureState:
    """Standing basis -> travelling modes: the last stage of full_pipeline.  It
    acts on light modes alone and keeps light vacuum, so no environment readout
    and no two-mode or one-rail run needs it; only Bell joints go there."""
    return change_basis(state, TRAVELLING_OF, bs_transform, relabel)


def full_pipeline(state: PureState, absorber: AbsorberSpec) -> PureState:
    """Travelling modes -> standing basis -> absorber -> travelling modes.

    Returns the joint pure state over the output travelling modes and the
    environment mode(s).
    """
    return travelling_basis(cpa_channel(standing_basis(state), absorber))


# ---------------------------------------------------------------------------
# measurements and reductions


def total_occupation_distribution(state: PureState, modes: Sequence[ModeLabel]) -> np.ndarray:
    """Distribution of the summed occupation of the given modes, indexed by that sum."""
    marginal = joint_occupation_distribution(state, *modes)
    grid = np.indices(marginal.shape).sum(axis=0)
    return np.bincount(grid.ravel(), weights=marginal.ravel())


def joint_occupation_distribution(state: PureState, *modes: ModeLabel) -> np.ndarray:
    """Joint photon-number distribution of the given modes: entry [n_1, n_2, ...]."""
    axes = [state.axis(m) for m in modes]
    other = tuple(i for i in range(len(state.modes)) if i not in axes)
    return np.transpose(state.probabilities().sum(axis=other), np.argsort(np.argsort(axes)))


def partial_trace(joint: PureState, keep: Iterable[ModeLabel]) -> DensityOperator:
    """Reduced density operator over the kept modes."""
    keep, factor = _split(joint.amplitudes, joint.modes, keep)
    return DensityOperator(keep, joint.cutoff, factor / np.linalg.norm(factor))


def conditional_output(joint: PureState, absorbed: int) -> DensityOperator:
    """Output-light state conditioned on the environment holding `absorbed` photons
    in total: its purification is the environment columns of that total, renormalized."""
    light, mat = _split(joint.amplitudes, joint.modes, [m for m in joint.modes if not m.is_env])
    env_totals = np.indices((joint.dim,) * (len(joint.modes) - len(light))).sum(axis=0)
    sel = mat[:, env_totals.ravel() == absorbed]
    prob = float(np.vdot(sel, sel).real)
    if prob < CONDITIONING_FLOOR:
        raise FockError(f"conditioning on zero-probability absorbed count {absorbed}")
    return DensityOperator(light, joint.cutoff, sel / math.sqrt(prob))


class ConditionalOutput(NamedTuple):
    """The output light given `absorbed` photons in the environment."""
    absorbed: int
    probability: float  # of the environment columns of that total
    purity: float
    mean_photons: dict[ModeLabel, float]  # <a^dag a> per light mode


def joint_readouts(joint: PureState, floor: float) -> tuple[EnvironmentReadout, list[ConditionalOutput]]:
    """The environment readouts of the joint and, for each absorbed count m whose
    p_m is above `floor`, conditional_output's probability and purity and
    mode_moments' <n>, from one pass over the (light x environment) amplitudes A
    and P = |A|^2.  P's column weights binned by environment total m are p_m, its
    light-vacuum row holds P(all absorbed), and A's smaller Gram the entropy.
    One occupation-weighted reduction of P per light mode, binned the same way,
    gives <n> p_m.  The purity is that of A[:, columns of total m] / sqrt(p_m):
    one column on one rail, so pure; several on two, so possibly mixed.  Runs
    read it for the Bell kinds only (one rail: dv.one_rail_distribution)."""
    light, mat = _split(joint.amplitudes, joint.modes, [m for m in joint.modes if not m.is_env])
    dim, count = joint.dim, len(light)
    env_totals = np.indices((dim,) * (len(joint.modes) - count)).sum(axis=0).ravel()
    weight = mat.real ** 2  # P, within one real copy of the joint
    weight += mat.imag ** 2
    p_all_absorbed = float(np.sum(weight[0]))
    weight = weight.reshape((dim,) * count + (-1,))
    levels = np.arange(dim + 0.0)
    numbers = []
    for axis in range(count):
        marginal = weight.sum(axis=tuple(i for i in range(count) if i != axis))  # (dim, env)
        numbers.append(np.bincount(env_totals, weights=levels @ marginal))
    probs = np.bincount(env_totals, weights=marginal.sum(axis=0))  # any marginal sums to P's columns
    outputs = []
    for m in np.flatnonzero(probs > floor).tolist():
        prob = float(probs[m])
        gram = _smaller_gram(mat[:, env_totals == m] / math.sqrt(prob))
        outputs.append(ConditionalOutput(
            m, prob, float(np.vdot(gram, gram).real),
            {mode: float(number[m]) / prob for mode, number in zip(light, numbers)},
        ))
    return EnvironmentReadout(probs, _gram_entropy(_smaller_gram(mat)), p_all_absorbed), outputs


# ---------------------------------------------------------------------------
# moments


def mode_moments(state: PureState | DensityOperator, mode: ModeLabel) -> tuple[complex, float]:
    """Mean amplitude <a> and mean photon number <a^dag a> of one mode of a
    pure or reduced state."""
    if isinstance(state, PureState):  # level n + 1 lowered onto level n, sliced
        moved = np.moveaxis(state.amplitudes, state.axis(mode), 0)
        lowered = moved[1:] * np.sqrt(np.arange(1.0, state.dim)).reshape((-1,) + (1,) * (moved.ndim - 1))
        return complex(np.vdot(moved[:-1], lowered)), float(np.vdot(lowered, lowered).real)
    rows = state.partial_trace([mode]).factor
    reduced = rows @ rows.conj().T  # the single-mode d x d block
    n = np.arange(reduced.shape[0])
    mean = complex(np.sum(np.sqrt(n[1:]) * np.diagonal(reduced, offset=-1)))
    return mean, float(np.sum(n * np.diagonal(reduced).real))


def absorption_coefficients(standing: PureState) -> tuple[float | None, float | None]:
    """Intensity and coherence absorption coefficients of the travelling pair
    whose standing state (C, S) this is: absorber.absorbed_share of <n_C> and
    <n_S>, and of |<a_C>|^2 and |<a_S>|^2 (None where a total vanishes).  Each
    moment is a product of shifted slices of one float view F of the amplitudes
    (re, im interleaved along S): level masses sum F^2 along the other mode, and
    <a> = sum_n sqrt(n + 1) conj(psi[n]) psi[n + 1] pairs level n with n + 1, with
    no lowered copy."""
    f = np.ascontiguousarray(standing.aligned_amplitudes((C, S))).view(np.float64)
    root = np.sqrt(np.arange(1.0, standing.dim))
    levels = root * root
    intensities = [levels @ np.einsum("ij,ij->i", f, f)[1:],
                   levels @ np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1)[1:]]
    pairs = [  # (re, im) of conj(psi[n]) psi[n + 1] summed over the other mode: C rows, S columns
        (np.einsum("ij,ij->i", f[:-1], f[1:]), np.einsum("ij,ij->i", f[:-1, 0::2], f[1:, 1::2])
         - np.einsum("ij,ij->i", f[:-1, 1::2], f[1:, 0::2])),
        (np.einsum("ij,ij->j", f[:, :-2], f[:, 2:]).reshape(-1, 2).sum(axis=1),
         np.einsum("ij,ij->j", f[:, 0:-2:2], f[:, 3::2]) - np.einsum("ij,ij->j", f[:, 1:-2:2], f[:, 2::2]))]
    coherences = [abs(complex(root @ re, root @ im)) ** 2 for re, im in pairs]
    return absorbed_share(*map(float, intensities)), absorbed_share(*coherences)
