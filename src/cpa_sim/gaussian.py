"""Gaussian-state engine: quadrature means and covariances.

Quadratures follow the X1 = a + a^dag, X2 = -i(a - a^dag) convention with
[X1, X2] = 2i, so vacuum and coherent states have unit variance in both
quadratures (covariance = identity).  The beamsplitter is the orthogonal
Hadamard block acting identically on both quadrature sectors.  The pipeline
runs absorber.py's stages, as on the Fock engine: the absorber is the same
two-mode mix of the absorbed standing mode with an environment mode that the
mix attaches in vacuum, so full_pipeline returns the environment modes too.
The absorption coefficients are read on the standing modes by absorber.py's
absorbed_share, also as on the Fock engine; EPR light is built there.

States and functions work over optional leading batch axes: means have shape
(..., 2M), covariances (..., 2M, 2M), and a single state has batch shape ().
Batched arithmetic repeats, element by element, the Python scalar arithmetic a
single state uses (same operation order, no fused multiply-add), so each element
equals the single-state call on it bit for bit: libm is called per element
through C-level maps (_per_element, _abs2); a quantity that depends only on some
parameters is computed over their own broadcast shape (the squeezed covariance
over xi and phi, not alpha); and _mix applies its matrix state by state, in
numpy's stacked matmul (runs mix single states; the sweeps mix none).
Outside data is checked in full by GaussianState(...); a map skips only the
checks its construction guarantees (_built): relabel keeps the arrays, tensor
copies validated blocks onto a block diagonal, and the vacuum is zero mean and
identity covariance.  _mix is checked in full.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .absorber import CANONICAL, AbsorberSpec, absorb, absorbed_share, change_basis
from .modes import (C, K, MINUS_K, S, STANDING_OF, TRAVELLING_OF, ModeError, ModeLabel,
                    check_mode_consistency)

SHOT_NOISE = 2.0  # Duan inseparability of two coherent modes
DET_FLOOR = 1.0 - 1e-10  # least mode-block determinant a state may have
_QUARTER_TURN = math.pi / 2.0
_QUARTER_COS, _QUARTER_SIN = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])


def _per_element(fn: Callable, x) -> float | np.ndarray:
    """Scalar `fn` per element of `x`, mapped at C level: numpy's vectorised exp,
    cosh, sinh, hypot and pow may round differently from libm in the last bit."""
    if isinstance(x, float):
        return fn(x)
    return np.fromiter(map(fn, np.ravel(x).tolist()), float, np.size(x)).reshape(np.shape(x))[()]


def _cos_sin(x) -> tuple:
    """cos and sin per element from libm, but exact where x is a nonzero exact
    multiple of fl(pi / 2) (fmod is exact, so it finds them): there libm's
    cos(fl(pi) / 2) = 6.1e-17 is rounding, which a squeezer's e^(2 xi) magnifies."""
    cos, sin = _per_element(math.cos, x), _per_element(math.sin, x)
    quarter = (np.fmod(x, _QUARTER_TURN) == 0.0) & (x != 0.0)
    if not quarter.any():
        return cos, sin
    turns = (np.rint(np.where(quarter, x, 0.0) / _QUARTER_TURN) % 4).astype(int)
    return (np.where(quarter, _QUARTER_COS[turns], cos)[()],
            np.where(quarter, _QUARTER_SIN[turns], sin)[()])


def _complex(re, im) -> complex | np.ndarray:
    """Complex number or array from real and imaginary parts, with no arithmetic."""
    if isinstance(re, float) and isinstance(im, float):
        return complex(re, im)
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out[()]


def _cmul(a, b) -> complex | np.ndarray:
    """Complex product as scalars round it (numpy's vectorised one may fuse a multiply-add)."""
    if isinstance(a, (complex, float)) and isinstance(b, (complex, float)):
        return complex(a) * complex(b)
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _abs2(z) -> float | np.ndarray:
    """abs(z) ** 2 per element, with Python's hypot and pow."""
    if isinstance(z, complex):
        return abs(z) ** 2
    values = map((2.0).__rpow__, map(abs, np.ravel(z).tolist()))  # x ** 2 computes x ** 2.0
    return np.fromiter(values, float, np.size(z)).reshape(np.shape(z))[()]


@dataclass(frozen=True)
class SqueezedSpec:
    """Coherent amplitude alpha and squeezing xi*exp(i*phi), xi >= 0.

    Array-valued fields that broadcast against each other make a batch of specs.
    """

    alpha: complex | np.ndarray = 0.0
    xi: float | np.ndarray = 0.0
    phi: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        negative = np.less(self.xi, 0)
        if negative.any():
            object.__setattr__(self, "xi", np.where(negative, -self.xi, self.xi)[()])
            object.__setattr__(self, "phi", np.where(negative, self.phi + math.pi, self.phi)[()])


@dataclass(frozen=True)
class GaussianState:
    """Mean vectors (X1, X2 per mode) and symmetrized covariance matrices.

    `mean` has shape (..., 2M) and `cov` (..., 2M, 2M); the leading axes index
    a batch of states over the same modes.  Construction validates the whole
    batch at once.
    """

    modes: tuple[ModeLabel, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.modes)
        batch = self.mean.shape[:-1]
        if self.mean.shape[-1:] != (2 * m,):
            raise ValueError(f"mean shape {self.mean.shape} != (..., {2 * m})")
        if self.cov.shape != batch + (2 * m, 2 * m):
            raise ValueError(f"cov shape {self.cov.shape} != {batch + (2 * m, 2 * m)}")
        check_mode_consistency(self.modes)
        cov_t = np.swapaxes(self.cov, -1, -2)  # np.allclose(atol=1e-12), minus its overhead
        if not (self.cov == cov_t).all():  # _mix's (C + C^T) / 2 is exactly symmetric
            with np.errstate(invalid="ignore"):
                close = np.abs(self.cov - cov_t) <= 1e-12 + 1e-5 * np.abs(cov_t)
            if not (close & np.isfinite(cov_t) | (self.cov == cov_t)).all():
                if not np.isfinite(self.cov).all():
                    raise OverflowError("covariance overflows a double")
                raise ValueError("covariance matrix not symmetric")
        _check_uncertainty(self.modes, self.cov)
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)

    def axis(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ModeError(f"mode {mode} not present in {self.modes}") from None

    def slot(self, mode: ModeLabel, quadrature: int) -> int:
        """Row index of X1 (quadrature=0) or X2 (quadrature=1) of a mode."""
        return 2 * self.axis(mode) + quadrature

    def mode_block(self, mode: ModeLabel) -> np.ndarray:
        i = 2 * self.axis(mode)
        return self.cov[..., i:i + 2, i:i + 2]

    def mode_mean(self, mode: ModeLabel) -> np.ndarray:
        i = 2 * self.axis(mode)
        return self.mean[..., i:i + 2]


def _check_uncertainty(modes: tuple[ModeLabel, ...], cov: np.ndarray) -> None:
    """np.linalg.det >= DET_FLOOR for every mode block [[a, b], [c, d]] of every
    state, run only where ad - bc cannot vouch for it.  A failure raises
    ValueError, or FloatingPointError where rounding could account for it."""
    diag = cov.diagonal(0, -2, -1)
    a, d = diag[..., 0::2], diag[..., 1::2]
    b, c = cov.diagonal(1, -2, -1)[..., 0::2], cov.diagonal(-1, -2, -1)[..., 0::2]
    with np.errstate(over="ignore", invalid="ignore"):
        ad, bc = a * d, b * c
        # With u = 2^-53 and S = |ad| + |bc|, ad - bc is within 2u S of the exact
        # determinant; LAPACK's pivoted p * u22 = p (r - (q / p) s) is within 4u S,
        # and np.linalg.det returns it as sign * exp(ln|p| + ln|u22|), off by a
        # factor under 1 + 3u (|ln p| + |ln u22|) + 2u < 1 + 1e-12.  The bound is 7x
        # the 6u S and 2x the 1e-12: a block past it passes np.linalg.det too.
        bound = 1e-14 * (np.abs(ad) + np.abs(bc)) + 2e-12 * np.abs(ad - bc)
        unsure = ~(ad - bc - DET_FLOOR > bound)  # NaN and inf blocks included
    if not unsure.any():
        return
    blocks = np.stack((a, b, c, d), axis=-1)[unsure]
    dets = np.linalg.det(blocks.reshape(-1, 2, 2))
    bad = np.flatnonzero(dets < DET_FLOOR)
    if bad.size:
        index, value = tuple(np.argwhere(unsure)[bad[0]].tolist()), float(dets[bad[0]])
        where = f" at batch index {index[:-1]}" if len(index) > 1 else ""
        # ValueError only where bound and half-ulp entry errors (4u scale^2) provably miss
        scale = float(np.abs(blocks[bad[0]]).max())
        if float(bound[index]) + 2.0 ** -51 * scale * scale <= DET_FLOOR - value:
            raise ValueError(f"mode {modes[index[-1]]} violates the uncertainty relation "
                             f"(block determinant {value!r}){where}")
        raise FloatingPointError(
            f"mode {modes[index[-1]]}: whether it violates the uncertainty relation is lost"
            f" to rounding (block determinant {value!r} from entries up to {scale:.3g}){where}")


def _built(modes: tuple[ModeLabel, ...], mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """A GaussianState from arrays whose shapes, symmetry and mode blocks a map
    took from validated states: only the mode labels are checked."""
    check_mode_consistency(modes)
    for array in (mean, cov):
        array.setflags(write=False)
    state = object.__new__(GaussianState)  # GaussianState(...) would run every check
    vars(state).update(modes=modes, mean=mean, cov=cov)
    return state


def vacuum_state(modes: Sequence[ModeLabel]) -> GaussianState:
    modes = tuple(modes)
    n = 2 * len(modes)
    return _built(modes, np.zeros(n), np.eye(n))  # zero mean, identity covariance


def squeezed_coherent_state(spec: SqueezedSpec, mode: ModeLabel = K) -> GaussianState:
    """Single squeezed coherent mode (a batch of them for array-valued specs).

    Mean follows from <a> = alpha cosh(xi) - conj(alpha) e^{i phi} sinh(xi);
    the covariance is the rotated squeezer R(phi/2) diag(e^{-2xi}, e^{2xi})
    R(phi/2)^T, whose diagonal is cosh(2 xi) -/+ cos(phi) sinh(2 xi).
    """
    try:  # before cosh(xi) and sinh(xi), which overflow only at about twice that xi
        stretch = _per_element(math.exp, 2 * spec.xi)
    except OverflowError:
        raise OverflowError("e^(2 xi) overflows a double") from None
    phase = _complex(_per_element(math.cos, spec.phi), _per_element(math.sin, spec.phi))
    amp = _cmul(spec.alpha, _per_element(math.cosh, spec.xi)) - _cmul(
        _cmul(np.conj(spec.alpha), phase), _per_element(math.sinh, spec.xi)
    )
    batch = np.shape(amp)  # alpha, xi and phi broadcast together
    mean = np.empty(batch + (2,))
    mean[..., 0], mean[..., 1] = 2.0 * amp.real, 2.0 * amp.imag
    shape = np.broadcast(spec.xi, spec.phi).shape  # the covariance does not depend on alpha
    cos, sin = _cos_sin(spec.phi / 2.0)
    rot = np.empty(shape + (2, 2))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = cos, -sin, sin, cos
    squeezer = np.zeros(shape + (2, 2))
    squeezer[..., 0, 0] = _per_element(math.exp, -2 * spec.xi)
    squeezer[..., 1, 1] = stretch
    cov = np.empty(batch + (2, 2))
    cov[...] = rot @ squeezer @ np.swapaxes(rot, -1, -2)
    return GaussianState((mode,), mean, cov)


def tensor(*states: GaussianState) -> GaussianState:
    modes: tuple[ModeLabel, ...] = sum((s.modes for s in states), ())
    batch = np.broadcast(*[s.mean[..., 0] for s in states]).shape
    n = 2 * len(modes)
    mean = np.zeros(batch + (n,))
    cov = np.zeros(batch + (n, n))
    offset = 0
    for s in states:
        end = offset + s.mean.shape[-1]
        mean[..., offset:end] = s.mean
        cov[..., offset:end, offset:end] = s.cov
        offset = end
    return _built(modes, mean, cov)


def relabel(state: GaussianState, mapping: Mapping[ModeLabel, ModeLabel]) -> GaussianState:
    modes = tuple(mapping.get(m, m) for m in state.modes)
    return _built(modes, state.mean, state.cov)


def _mix(state: GaussianState, a: ModeLabel, b: ModeLabel, c: float, s: float) -> GaussianState:
    """Orthogonal two-mode mix on both quadratures (c^2 + s^2 = 1):
    X_a -> c X_a + s X_b, X_b -> s X_a - c X_b.  A mode b not in the state is
    attached in vacuum as the last mode (a tensor product), as fock._mix does."""
    if a == b:
        raise ModeError("a two-mode mix needs two distinct modes")
    ia = 2 * state.axis(a)
    if b not in state.modes:
        state = tensor(state, vacuum_state((b,)))
    modes, mean, cov = state.modes, state.mean, state.cov
    ib = 2 * state.axis(b)
    matrix = np.eye(2 * len(modes))
    for q in (0, 1):
        matrix[ia + q, ia + q], matrix[ia + q, ib + q] = c, s
        matrix[ib + q, ia + q], matrix[ib + q, ib + q] = s, -c
    mean = (matrix @ mean[..., None])[..., 0]  # per state: V @ M^T would round differently
    cov = matrix @ cov @ matrix.T  # per state; numpy stacks a batch
    return GaussianState(modes, mean, (cov + np.swapaxes(cov, -1, -2)) / 2.0)


def bs_transform(state: GaussianState, a: ModeLabel, b: ModeLabel) -> GaussianState:
    """Balanced beamsplitter: X_a -> (X_a + X_b)/sqrt(2), X_b -> (X_a - X_b)/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return _mix(state, a, b, inv, inv)


def standing_basis(state: GaussianState) -> GaussianState:
    """Travelling modes -> standing basis: the first stage of full_pipeline."""
    return change_basis(state, STANDING_OF, bs_transform, relabel)


def cpa_channel(state: GaussianState, absorber: AbsorberSpec) -> GaussianState:
    """Absorber in the standing basis: absorber.absorb with _mix, which attaches
    each environment mode in vacuum."""
    return absorb(state, absorber, _mix)


def travelling_basis(state: GaussianState) -> GaussianState:
    """Standing basis -> travelling modes: the last stage of full_pipeline."""
    return change_basis(state, TRAVELLING_OF, bs_transform, relabel)


def full_pipeline(state: GaussianState, absorber: AbsorberSpec) -> GaussianState:
    """Travelling -> standing -> absorber -> travelling, with the environment modes."""
    return travelling_basis(cpa_channel(standing_basis(state), absorber))


# ---------------------------------------------------------------------------
# observables


def mean_amplitude(state: GaussianState, mode: ModeLabel) -> complex | np.ndarray:
    """<a> = (<X1> + i <X2>) / 2."""
    m = state.mode_mean(mode)
    return _complex(m[..., 0] / 2.0, m[..., 1] / 2.0)


def _noise_intensity(state: GaussianState, mode: ModeLabel) -> float | np.ndarray:
    """(trace of mode covariance - 2) / 4: the fluctuation part of <a^dag a>,
    summed as ((V11 - 1) + (V22 - 1)) / 4.  Near vacuum each difference is
    exact, so the result is rounded once, relative to itself; rounding the
    trace first, near 2, would cost it up to ~1e-16 absolute."""
    block = state.mode_block(mode)
    return ((block[..., 0, 0] - 1.0) + (block[..., 1, 1] - 1.0)) / 4.0


def duan_inseparability(state: GaussianState, a: ModeLabel, b: ModeLabel) -> float | np.ndarray:
    """Variance sum of relative position and total momentum of two modes.

    Equals 2 for a pair of coherent modes; values below 2 witness
    entanglement.
    """
    if a == b:
        raise ModeError("inseparability needs two distinct modes")
    a1, a2 = state.slot(a, 0), state.slot(a, 1)
    b1, b2 = state.slot(b, 0), state.slot(b, 1)
    cov = state.cov
    var_q = (cov[..., a1, a1] + cov[..., b1, b1] - 2.0 * cov[..., a1, b1]) / 2.0
    var_p = (cov[..., a2, a2] + cov[..., b2, b2] + 2.0 * cov[..., a2, b2]) / 2.0
    return var_q + var_p


def duan_from_partner_basis(partner: GaussianState, x1_mode: ModeLabel,
                            x2_mode: ModeLabel) -> float | np.ndarray:
    """duan_inseparability of a pair, read where it is a sum: in the partner basis,
    the pair's image under the balanced mix, as var X1 of `x1_mode` + var X2 of
    `x2_mode`.  The pair's relative position and total momentum are sqrt(2) times
    those quadratures, so (K, MINUS_K) reads (S, C) of its standing state and
    (C, S) reads (MINUS_K, K) of its travelling state, with no cancellation."""
    x1, x2 = partner.slot(x1_mode, 0), partner.slot(x2_mode, 1)
    return partner.cov[..., x1, x1] + partner.cov[..., x2, x2]


def absorption_coefficients(
    standing: GaussianState
) -> tuple[float | None, float | None] | tuple[np.ndarray, np.ndarray]:
    """Intensity and coherence absorption coefficients of the travelling pair
    whose standing state (C, S) this is: absorber.absorbed_share of I_C and I_S,
    and of |<a_C>|^2 and |<a_S>|^2, read from the means and covariance diagonals
    (None or NaN where a total vanishes, inf where a single state's sum overflows).
    A |<a>|^2 past double range, or a mean already there, raises OverflowError."""
    try:  # Python's float power raises where numpy would give inf
        coherent = [_abs2(mean_amplitude(standing, mode)) for mode in (C, S)]
    except OverflowError:
        coherent = [math.inf]
    if not np.isfinite(coherent).all():  # or a mean was already inf or NaN
        raise OverflowError("total intensity overflows a double")
    intensity = [c + _noise_intensity(standing, mode) for c, mode in zip(coherent, (C, S))]
    return absorbed_share(*intensity), absorbed_share(*coherent)


# ---------------------------------------------------------------------------
# closed forms and the entangled-pair family


def squeezed_pair_inseparability(
    xi_k: float, xi_mk: float, phi_k: float, phi_mk: float
) -> float:
    """Standing-pair inseparability for two squeezed travelling inputs.

    cosh(2 xi_k) + cosh(2 xi_mk) + cos(phi_k) sinh(2 xi_k)
    - cos(phi_mk) sinh(2 xi_mk); independent of the coherent amplitudes.
    """
    return (
        math.cosh(2 * xi_k)
        + math.cosh(2 * xi_mk)
        + math.cos(phi_k) * math.sinh(2 * xi_k)
        - math.cos(phi_mk) * math.sinh(2 * xi_mk)
    )


def epr_factors(
    alpha_g: complex, alpha_h: complex, xi: float
) -> tuple[SqueezedSpec, SqueezedSpec]:
    """The preceding modes of EPR light: g squeezed at angle pi, h at angle 0."""
    return SqueezedSpec(alpha_g, xi, math.pi), SqueezedSpec(alpha_h, xi, 0.0)


def epr_standing(alpha_g: complex, alpha_h: complex, xi: float) -> GaussianState:
    """The entangled-pair input on the standing modes: preceding mode g on C, h on S.
    The balanced mix that makes EPR light of them is the pipeline's first stage,
    an involution, so the standing state is their product.  g has a well-defined
    momentum (squeezing angle pi, <g> = e^xi Re(alpha_g) + i e^-xi Im(alpha_g)),
    h a well-defined position; the travelling modes they make have every
    quadrature variance cosh(2 xi) and inseparability 2 e^(-2 xi)."""
    g, h = epr_factors(alpha_g, alpha_h, xi)
    return tensor(squeezed_coherent_state(g, C), squeezed_coherent_state(h, S))


def epr_state(alpha_g: complex, alpha_h: complex, xi: float) -> GaussianState:
    """EPR light on the travelling modes: the image of epr_standing.  Nothing in
    the package calls it; it stays while the benchmark's tracer spans it."""
    return travelling_basis(epr_standing(alpha_g, alpha_h, xi))


def epr_params_from_means(
    alpha_k: complex, alpha_mk: complex, xi: float
) -> tuple[complex, complex]:
    """Preceding-mode amplitudes reproducing given travelling mean amplitudes.

    Cartesian inverse of the mean map; regular for every input.
    """
    alpha_k = np.asarray(alpha_k, dtype=complex)
    prec_g = (alpha_k + alpha_mk) / math.sqrt(2.0)
    prec_h = (alpha_k - alpha_mk) / math.sqrt(2.0)
    shrink, stretch = _per_element(math.exp, -xi), _per_element(math.exp, xi)
    alpha_g = _complex(shrink * prec_g.real, stretch * prec_g.imag)
    alpha_h = _complex(stretch * prec_h.real, shrink * prec_h.imag)
    return alpha_g, alpha_h


def preceding_mode_intensity(alpha: complex, xi: float, stretched_x1: bool) -> float:
    """<a^dag a> of a preceding mode with its X1 (or X2) fluctuations stretched.

    stretched_x1=True is the squeezing-angle-pi mode (variance e^{2 xi} in X1):
    (e^xi Re alpha)^2 + (e^-xi Im alpha)^2 + sinh^2 xi, a sum of squares with no
    cancelling terms; the other orientation swaps the exponents.
    """
    grow, shrink = math.exp(xi), math.exp(-xi)
    if not stretched_x1:
        grow, shrink = shrink, grow
    return (grow * alpha.real) ** 2 + (shrink * alpha.imag) ** 2 + math.sinh(xi) ** 2


def epr_intensity_absorption(alpha_g: complex, alpha_h: complex, xi: float) -> float:
    """Absorbed intensity fraction for the entangled-pair input.

    Intensity of the g mode (ending in the absorbed standing wave) over the
    total; vanishing total intensity raises ValueError.
    """
    try:  # Python's float power raised where |alpha|^2 leaves double range
        intensity_g = preceding_mode_intensity(alpha_g, xi, stretched_x1=True)
        intensity_h = preceding_mode_intensity(alpha_h, xi, stretched_x1=False)
    except OverflowError:
        raise OverflowError("total intensity overflows a double") from None
    total = intensity_g + intensity_h
    if total <= 1e-300:
        raise ValueError("total intensity is zero")
    return intensity_g / total


# ---------------------------------------------------------------------------
# scenario runners


def _gaussian_result(
    scenario: dict, absorber: AbsorberSpec, state: GaussianState, standing: GaussianState
) -> "ScenarioResult":
    """The result of a (K, MINUS_K) input `state` whose standing-basis image is
    `standing`; each Duan value is read from the other basis, where it is a sum."""
    from .results import ScenarioResult  # local import avoids a cycle at module load

    coeff_int, coeff_coh = absorption_coefficients(standing)
    inseparability_in = duan_from_partner_basis(standing, S, C)
    inseparability_standing = duan_from_partner_basis(state, MINUS_K, K)
    output = travelling_basis(cpa_channel(standing, absorber))
    out_stats = {}
    for mode in (K, MINUS_K):
        block = output.mode_block(mode)
        mean = output.mode_mean(mode)
        out_stats[str(mode)] = {
            "mean_x1": float(mean[0]),
            "mean_x2": float(mean[1]),
            "var_x1": float(block[0, 0]),
            "var_x2": float(block[1, 1]),
        }
    return ScenarioResult(
        engine="GAUSSIAN",
        scenario=scenario,
        absorber=absorber.echo(),
        numerics={},
        mean_intensity_absorption=coeff_int,
        coherence_absorption=coeff_coh,
        separability={
            "duan_travelling": inseparability_in,
            "duan_standing": inseparability_standing,
            # the absorber takes over the absorbed standing mode, so the
            # output light-absorber inseparability equals the standing value
            "light_absorber_inseparability": inseparability_standing,
        },
        extras={"output_quadratures": out_stats},
    )


def _named(path: str, build: Callable, *args):
    """build(*args), whose OverflowError names the scenario field at `path`."""
    try:
        return build(*args)
    except OverflowError as exc:
        raise OverflowError(f"{path}: {exc}") from None


def squeezed_pair_echo(spec_k: SqueezedSpec, spec_mk: SqueezedSpec) -> dict:
    """The scenario echo of a SQUEEZED_PAIR run, on either engine."""
    return {
        "kind": "SQUEEZED_PAIR",
        "k": {"alpha": spec_k.alpha, "xi": spec_k.xi, "phi": spec_k.phi},
        "minus_k": {"alpha": spec_mk.alpha, "xi": spec_mk.xi, "phi": spec_mk.phi},
    }


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail by name, unwarned
def run_squeezed_pair(
    spec_k: SqueezedSpec, spec_mk: SqueezedSpec, absorber: AbsorberSpec = CANONICAL
) -> "ScenarioResult":
    """Two squeezed-coherent travelling inputs through the absorber."""
    state = tensor(_named("scenario.k.xi", squeezed_coherent_state, spec_k, K),
                   _named("scenario.minus_k.xi", squeezed_coherent_state, spec_mk, MINUS_K))
    result = _gaussian_result(squeezed_pair_echo(spec_k, spec_mk), absorber, state,
                              standing_basis(state))
    result.extras["closed_form_standing_inseparability"] = squeezed_pair_inseparability(
        spec_k.xi, spec_mk.xi, spec_k.phi, spec_mk.phi
    )
    return result


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail by name, unwarned
def run_epr(
    alpha_g: complex, alpha_h: complex, xi: float, absorber: AbsorberSpec = CANONICAL
) -> "ScenarioResult":
    """Entangled-pair input built from orthogonally squeezed preceding modes."""
    standing = _named("scenario.xi", epr_standing, alpha_g, alpha_h, xi)
    scenario = {"kind": "EPR", "alpha_g": alpha_g, "alpha_h": alpha_h, "xi": xi}
    result = _gaussian_result(scenario, absorber, travelling_basis(standing), standing)
    if result.mean_intensity_absorption is not None:  # total intensity > 1e-12
        result.extras["closed_form_intensity_absorption"] = epr_intensity_absorption(
            alpha_g, alpha_h, xi
        )
    return result
