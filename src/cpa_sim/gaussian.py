"""Gaussian-state engine: quadrature means and covariances.

Quadratures follow the X1 = a + a^dag, X2 = -i(a - a^dag) convention with
[X1, X2] = 2i, so vacuum and coherent states have unit variance in both
quadratures (covariance = identity).  The beamsplitter is the orthogonal
Hadamard block acting identically on both quadrature sectors.  The pipeline
runs absorber.py's stages, as on the Fock engine: the absorber is the same
two-mode mix of the absorbed standing mode with an environment mode that the
mix attaches in vacuum, so full_pipeline returns the environment modes too.

States and functions work over optional leading batch axes: means have shape
(..., 2M), covariances (..., 2M, 2M), and a single state has batch shape ().
Batched arithmetic repeats, element by element, the Python scalar arithmetic a
single state uses (same operation order, `math` functions, no fused
multiply-add), so each element equals the single-state call on it bit for bit.
Outside data is checked in full by GaussianState(...); a map skips only the
checks its construction guarantees (_built): relabel keeps the arrays, tensor
copies validated blocks onto a block diagonal.  _mix is checked in full.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .absorber import CANONICAL, AbsorberSpec, absorb, change_basis
from .modes import (C, K, MINUS_K, S, STANDING_OF, TRAVELLING_OF, ModeError, ModeLabel,
                    check_mode_consistency)

SHOT_NOISE = 2.0  # Duan inseparability of two coherent modes


class SingularAngleError(ValueError):
    """Polar inverse map evaluated too close to a removable singularity."""


def _per_element(fn: Callable, x) -> float | np.ndarray:
    """Scalar `fn` per element of `x`: numpy's vectorised exp, cosh, sinh,
    hypot and pow may round differently from libm in the last bit."""
    if isinstance(x, float):
        return fn(x)
    return np.array([fn(v) for v in np.ravel(x).tolist()], dtype=float).reshape(np.shape(x))[()]


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
    return np.array([abs(v) ** 2 for v in np.ravel(z).tolist()]).reshape(np.shape(z))[()]


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
                raise ValueError("covariance matrix not symmetric")
        # single-mode uncertainty bound, for every mode of every state
        dets = np.linalg.det(np.stack([self.mode_block(mode) for mode in self.modes], axis=-3))
        bad = dets < 1.0 - 1e-10
        if bad.any():
            index = tuple(np.argwhere(bad)[0].tolist())
            where = f" at batch index {index[:-1]}" if batch else ""
            raise ValueError(
                f"mode {self.modes[index[-1]]} violates the uncertainty relation "
                f"(block determinant {float(dets[index])!r}){where}"
            )
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
    return GaussianState(modes, np.zeros(n), np.eye(n))


def squeezed_coherent_state(spec: SqueezedSpec, mode: ModeLabel = K) -> GaussianState:
    """Single squeezed coherent mode (a batch of them for array-valued specs).

    Mean follows from <a> = alpha cosh(xi) - conj(alpha) e^{i phi} sinh(xi);
    the covariance is the rotated squeezer R(phi/2) diag(e^{-2xi}, e^{2xi})
    R(phi/2)^T, whose diagonal is cosh(2 xi) -/+ cos(phi) sinh(2 xi).
    """
    phase = _complex(_per_element(math.cos, spec.phi), _per_element(math.sin, spec.phi))
    amp = _cmul(spec.alpha, _per_element(math.cosh, spec.xi)) - _cmul(
        _cmul(np.conj(spec.alpha), phase), _per_element(math.sinh, spec.xi)
    )
    batch = np.shape(amp)  # alpha, xi and phi broadcast together
    mean = np.empty(batch + (2,))
    mean[..., 0], mean[..., 1] = 2.0 * amp.real, 2.0 * amp.imag
    half = spec.phi / 2.0
    cos, sin = _per_element(math.cos, half), _per_element(math.sin, half)
    rot = np.empty(batch + (2, 2))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = cos, -sin, sin, cos
    squeezer = np.zeros(batch + (2, 2))
    squeezer[..., 0, 0] = _per_element(math.exp, -2 * spec.xi)
    squeezer[..., 1, 1] = _per_element(math.exp, 2 * spec.xi)
    cov = rot @ squeezer @ np.swapaxes(rot, -1, -2)
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
    attached in vacuum (zero mean, identity covariance) as the last mode, as
    fock._mix does."""
    if a == b:
        raise ModeError("a two-mode mix needs two distinct modes")
    modes, mean, cov = state.modes, state.mean, state.cov
    ia, n = 2 * state.axis(a), mean.shape[-1]
    if b not in modes:
        modes = modes + (b,)
        mean = np.concatenate((mean, np.zeros(mean.shape[:-1] + (2,))), axis=-1)
        cov = np.zeros(cov.shape[:-2] + (n + 2, n + 2))
        cov[..., :n, :n], cov[..., n:, n:] = state.cov, np.eye(2)
    ib = 2 * modes.index(b)
    matrix = np.eye(2 * len(modes))
    for q in (0, 1):
        matrix[ia + q, ia + q], matrix[ia + q, ib + q] = c, s
        matrix[ib + q, ia + q], matrix[ib + q, ib + q] = s, -c
    # stacked matmul runs the same BLAS kernel per element as a single state
    mean = (matrix @ mean[..., None])[..., 0]
    cov = matrix @ cov @ matrix.T
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


def mode_intensity(state: GaussianState, mode: ModeLabel) -> float | np.ndarray:
    """<a^dag a> = |<a>|^2 + (trace of mode covariance - 2) / 4."""
    block = state.mode_block(mode)
    return _abs2(mean_amplitude(state, mode)) + (block[..., 0, 0] + block[..., 1, 1] - 2.0) / 4.0


def cross_correlation(state: GaussianState, a: ModeLabel, b: ModeLabel) -> complex | np.ndarray:
    """<a_a^dag a_b> from means and covariance cross-blocks."""
    ia, ib = 2 * state.axis(a), 2 * state.axis(b)
    cross = state.cov[..., ia:ia + 2, ib:ib + 2]
    noise = _complex(
        (cross[..., 0, 0] + cross[..., 1, 1]) / 4.0, (cross[..., 0, 1] - cross[..., 1, 0]) / 4.0
    )
    return noise + _cmul(np.conj(mean_amplitude(state, a)), mean_amplitude(state, b))


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


def _half_plus_ratio(num, den) -> np.ndarray:
    """0.5 + num / den, NaN where the denominator vanishes (den <= 1e-12)."""
    return 0.5 + np.divide(num, den, out=np.full(np.shape(den), np.nan), where=den > 1e-12)


def absorption_coefficients(
    state: GaussianState, a: ModeLabel = K, b: ModeLabel = MINUS_K
) -> tuple[float | None, float | None] | tuple[np.ndarray, np.ndarray]:
    """Intensity and coherence absorption coefficients of a travelling pair.

    A coefficient whose denominator (total intensity / total coherence)
    vanishes is undefined: None for a single state, NaN within a batch.  For a
    single state whose total left double range it is inf, which results.clean
    refuses by name.
    """
    amp_a, amp_b = mean_amplitude(state, a), mean_amplitude(state, b)
    try:
        intensity = mode_intensity(state, a) + mode_intensity(state, b)
    except OverflowError:  # Python's float power raised where numpy would give inf
        raise OverflowError("total intensity overflows a double") from None
    coherence = _abs2(amp_a) + _abs2(amp_b)
    coeff_int = _half_plus_ratio(cross_correlation(state, a, b).real, intensity)
    coeff_coh = _half_plus_ratio(_cmul(np.conj(amp_a), amp_b).real, coherence)
    if state.mean.ndim > 1:  # a batch
        return coeff_int, coeff_coh
    return tuple(math.inf if not math.isfinite(total) else None if math.isnan(c) else float(c)
                 for c, total in ((coeff_int, intensity), (coeff_coh, coherence)))


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


def epr_state(alpha_g: complex, alpha_h: complex, xi: float) -> GaussianState:
    """Two-mode entangled state from orthogonally squeezed preceding modes.

    Mode g has a well-defined momentum (squeezing angle pi, so <g> =
    e^xi Re(alpha_g) + i e^-xi Im(alpha_g)), mode h a well-defined position;
    mixing them on the balanced beamsplitter yields travelling modes with all
    quadrature variances (e^{2 xi} + e^{-2 xi})/2 and inseparability
    2 e^{-2 xi}.
    """
    mode_g = squeezed_coherent_state(SqueezedSpec(alpha_g, xi, math.pi), K)
    mode_h = squeezed_coherent_state(SqueezedSpec(alpha_h, xi, 0.0), MINUS_K)
    state = tensor(mode_g, mode_h)
    return bs_transform(state, K, MINUS_K)


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


def epr_inverse_map(
    theta_k: float, theta_mk: float, alpha_mag: float, xi: float
) -> tuple[float, float, float, float]:
    """Polar preceding-mode parameters for equal travelling amplitudes.

    Returns (theta_g, theta_h, mag_g, mag_h); magnitudes are signed (a
    negative value means an extra pi on the phase).  Raises
    SingularAngleError when the half-sum of the phases sits within 1e-9 of a
    removable singularity of the polar form while the affected amplitude is
    nonzero; when that amplitude vanishes identically the branch-consistent
    limit (zero magnitude) is returned instead.  Callers wanting a grid-safe
    evaluation should use epr_params_from_means.
    """
    half_sum = (theta_k + theta_mk) / 2.0
    half_diff = (theta_k - theta_mk) / 2.0
    sum_cos, sum_sin = math.cos(half_sum), math.sin(half_sum)
    diff_cos, diff_sin = math.cos(half_diff), math.sin(half_diff)
    root2 = math.sqrt(2.0)
    if abs(sum_cos) < 1e-9:
        if abs(alpha_mag * diff_cos) > 1e-12:
            raise SingularAngleError("half-sum of phases too close to +-pi/2 for theta_g")
        theta_g, mag_g = math.copysign(math.pi / 2.0, sum_sin), 0.0
    else:
        theta_g = math.atan(math.exp(2 * xi) * math.tan(half_sum))
        mag_g = root2 * math.exp(-xi) * alpha_mag * diff_cos * sum_cos / math.cos(theta_g)
    if abs(sum_sin) < 1e-9:
        if abs(alpha_mag * diff_sin) > 1e-12:
            raise SingularAngleError("half-sum of phases too close to 0/pi for theta_h")
        theta_h, mag_h = -math.pi / 2.0, 0.0
    else:
        theta_h = math.atan(-math.exp(-2 * xi) / math.tan(half_sum))
        mag_h = -root2 * math.exp(xi) * alpha_mag * diff_sin * sum_sin / math.cos(theta_h)
    return theta_g, theta_h, mag_g, mag_h


def preceding_mode_intensity(alpha: complex, xi: float, stretched_x1: bool) -> float:
    """<a^dag a> of a preceding mode with its X1 (or X2) fluctuations stretched.

    stretched_x1=True is the squeezing-angle-pi mode (variance e^{2 xi} in
    X1), whose coherent part amplifies as e^{2 xi} cos^2(theta); the other
    orientation carries the opposite sign on the sinh term.
    """
    sign = 1.0 if stretched_x1 else -1.0
    mag2 = abs(alpha) ** 2
    cos_2theta = 1.0 if mag2 == 0 else (alpha.real ** 2 - alpha.imag ** 2) / mag2
    return (
        mag2 * math.cosh(2 * xi)
        + sign * mag2 * cos_2theta * math.sinh(2 * xi)
        + math.sinh(xi) ** 2
    )


def epr_intensity_absorption(alpha_g: complex, alpha_h: complex, xi: float) -> float:
    """Absorbed intensity fraction for the entangled-pair input.

    Intensity of the g mode (ending in the absorbed standing wave) over the
    total; vanishing total intensity raises ValueError.
    """
    intensity_g = preceding_mode_intensity(alpha_g, xi, stretched_x1=True)
    intensity_h = preceding_mode_intensity(alpha_h, xi, stretched_x1=False)
    total = intensity_g + intensity_h
    if total <= 1e-300:
        raise ValueError("total intensity is zero")
    return intensity_g / total


# ---------------------------------------------------------------------------
# scenario runners


def _gaussian_result(
    scenario: dict, absorber: AbsorberSpec, state: GaussianState, start: float
) -> "ScenarioResult":
    from .results import ScenarioResult  # local import avoids a cycle at module load

    coeff_int, coeff_coh = absorption_coefficients(state, K, MINUS_K)
    inseparability_in = duan_inseparability(state, K, MINUS_K)
    standing = standing_basis(state)
    inseparability_standing = duan_inseparability(standing, C, S)
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
        diagnostics={"wall_clock_s": time.perf_counter() - start},
    )


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail by name, unwarned
def run_squeezed_pair(
    spec_k: SqueezedSpec, spec_mk: SqueezedSpec, absorber: AbsorberSpec = CANONICAL
) -> "ScenarioResult":
    """Two squeezed-coherent travelling inputs through the absorber."""
    start = time.perf_counter()
    state = tensor(
        squeezed_coherent_state(spec_k, K), squeezed_coherent_state(spec_mk, MINUS_K)
    )
    scenario = {
        "kind": "SQUEEZED_PAIR",
        "k": {"alpha": spec_k.alpha, "xi": spec_k.xi, "phi": spec_k.phi},
        "minus_k": {"alpha": spec_mk.alpha, "xi": spec_mk.xi, "phi": spec_mk.phi},
    }
    result = _gaussian_result(scenario, absorber, state, start)
    result.extras["closed_form_standing_inseparability"] = squeezed_pair_inseparability(
        spec_k.xi, spec_mk.xi, spec_k.phi, spec_mk.phi
    )
    return result


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail by name, unwarned
def run_epr(
    alpha_g: complex, alpha_h: complex, xi: float, absorber: AbsorberSpec = CANONICAL
) -> "ScenarioResult":
    """Entangled-pair input built from orthogonally squeezed preceding modes."""
    start = time.perf_counter()
    state = epr_state(alpha_g, alpha_h, xi)
    scenario = {"kind": "EPR", "alpha_g": alpha_g, "alpha_h": alpha_h, "xi": xi}
    result = _gaussian_result(scenario, absorber, state, start)
    if result.mean_intensity_absorption is not None:  # total intensity > 1e-12
        result.extras["closed_form_intensity_absorption"] = epr_intensity_absorption(
            alpha_g, alpha_h, xi
        )
    return result
