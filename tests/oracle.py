"""Brute-force oracle: symbolic creation-operator pipeline.

Independent of the tensor engine.  A state is a complex-weighted sum of
creation-operator monomials acting on vacuum, stored as
{((mode, power), ...): coeff}.  The absorber pipeline is three literal
substitutions on the creation operators:

    k-pair    ->  balanced mix onto the standing pair
    cosine    ->  tau * cosine + sqrt(1 - tau^2) * environment
    standing  ->  balanced mix back onto the k-pair

Ket amplitudes follow from (a^dag)^n |0> = sqrt(n!) |n>.

NOON and SINGLE_PHOTON runs are read in closed form, in O(n)
(dv.one_rail_distribution), and have three references here, all in
tests/test_dv.py: the engine's own joint route, fock.joint_readouts of
fock.full_pipeline (what the Bell kinds run), for n <= 28; the dense one-rail
route that the closed form replaced (dense_one_rail_run: standing_state, the
loss map and eigen-solve of fock.absorber_environment, and absorber_outputs),
for n <= 405; and exact_one_rail_distribution, rational arithmetic on the
engine's double inputs, up to n = 10^5.  tests/test_fock.py holds
absorber_outputs to the joint route for random one-rail states.
"""
from __future__ import annotations

import math
from typing import NamedTuple

Monomial = tuple[tuple[str, int], ...]
Poly = dict[Monomial, complex]


def _canon(powers: dict[str, int]) -> Monomial:
    return tuple(sorted((m, p) for m, p in powers.items() if p))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: dict[str, int] = dict(a)
    for mode, p in b:
        powers[mode] = powers.get(mode, 0) + p
    return _canon(powers)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = _mono_mul(ma, mb)
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def linear_power(terms: list[tuple[complex, str]], power: int) -> Poly:
    """(sum_j c_j a_j^dag)^power expanded into monomials."""
    result: Poly = {(): 1.0 + 0.0j}
    linear: Poly = {_canon({mode: 1}): coeff for coeff, mode in terms}
    for _ in range(power):
        result = poly_mul(result, linear)
    return result


def substitute(state: Poly, rules: dict[str, list[tuple[complex, str]]]) -> Poly:
    """Replace each creation operator by a linear combination of others."""
    out: Poly = {}
    for mono, coeff in state.items():
        expanded: Poly = {(): coeff}
        for mode, power in mono:
            rule = rules.get(mode, [(1.0 + 0.0j, mode)])
            expanded = poly_mul(expanded, linear_power(rule, power))
        for key, value in expanded.items():
            out[key] = out.get(key, 0.0) + value
    return out


def state_from_terms(terms: list[tuple[complex, dict[str, int]]]) -> Poly:
    out: Poly = {}
    for coeff, occupations in terms:
        key = _canon(occupations)
        out[key] = out.get(key, 0.0) + coeff
    return out


def ket_amplitudes(state: Poly) -> dict[Monomial, complex]:
    """Occupation-number amplitudes including the sqrt(n!) factors."""
    out: dict[Monomial, complex] = {}
    for mono, coeff in state.items():
        scale = 1.0
        for _, power in mono:
            scale *= math.sqrt(math.factorial(power))
        if abs(coeff) > 0:
            out[mono] = coeff * scale
    return out


def pipeline(
    input_terms: list[tuple[complex, dict[str, int]]],
    tau: float,
    rails: tuple[str, ...] = ("",),
    swap_roles: bool = False,
) -> dict[Monomial, complex]:
    """Occupation amplitudes of the joint output (travelling + environment)."""
    inv = 1.0 / math.sqrt(2.0)
    s = math.sqrt(max(0.0, 1.0 - tau * tau))

    def name(kind: str, rail: str) -> str:
        return f"{kind}[{rail}]" if rail else kind

    to_standing: dict[str, list[tuple[complex, str]]] = {}
    absorb: dict[str, list[tuple[complex, str]]] = {}
    to_travelling: dict[str, list[tuple[complex, str]]] = {}
    for rail in rails:
        k, mk = name("K", rail), name("MINUS_K", rail)
        c, sm, env = name("C", rail), name("S", rail), name("ENV_C", rail)
        to_standing[k] = [(inv, c), (inv, sm)]
        to_standing[mk] = [(inv, c), (-inv, sm)]
        absorbed = sm if swap_roles else c
        absorb[absorbed] = [(tau, absorbed), (s, env)]
        to_travelling[c] = [(inv, k), (inv, mk)]
        to_travelling[sm] = [(inv, k), (-inv, mk)]

    state = state_from_terms(input_terms)
    state = substitute(state, to_standing)
    state = substitute(state, absorb)
    state = substitute(state, to_travelling)
    return ket_amplitudes(state)


def amplitude_map_to_array(amps, mode_names: list[str], cutoff: int):
    """Dense tensor over the given mode order (numpy import kept local)."""
    import numpy as np

    dim = cutoff + 1
    arr = np.zeros((dim,) * len(mode_names), dtype=complex)
    for mono, coeff in amps.items():
        index = [0] * len(mode_names)
        for mode, power in mono:
            index[mode_names.index(mode)] = power
        arr[tuple(index)] = coeff
    return arr


def exact_hadamard_column(total: int, m: int):
    """Column m of sector `total` of the balanced beamsplitter from exact integers.

    Entry p is the amplitude of |p, total-p> in the image of |m, total-m> under
    a_1 -> (a_1 + a_2)/sqrt(2), a_2 -> (a_1 - a_2)/sqrt(2): the coefficient of
    x^p in (x+1)^m (x-1)^(total-m), expanded in Python integers and scaled in
    extended precision (np.longdouble), so every entry is correct to a few ulp
    of a double at any total.
    """
    import numpy as np

    n = total - m
    plus = np.array([math.comb(m, j) for j in range(m + 1)], dtype=object)
    minus = np.array([math.comb(n, k) * (-1) ** (n - k) for k in range(n + 1)], dtype=object)
    coeffs = np.convolve(plus, minus).tolist()  # Python integers
    # entry^2 = coeff^2 p! (total-p)! / (m! n! 2^total) = coeff^2 C(total, m) / (C(total, p) 2^total)
    squares = [c * c * math.comb(total, m) for c in coeffs]
    scales = [math.comb(total, p) << total for p in range(total + 1)]
    ratio = np.array(squares, dtype=np.longdouble) / np.array(scales, dtype=np.longdouble)
    return np.array([(c > 0) - (c < 0) for c in coeffs]) * np.sqrt(ratio)


def exact_hadamard_block(total: int):
    """Sector `total` of the balanced beamsplitter from exact integers: entry
    [p, m] is exact_hadamard_column(total, m)[p]."""
    import numpy as np

    return np.column_stack([exact_hadamard_column(total, m) for m in range(total + 1)])


def exact_standing_amplitudes(state):
    """fock.standing_basis(state)'s amplitudes from exact integers, for a state
    of few kets within its cutoff on each rail's (K, MINUS_K): each ket's image
    is the outer product over rails of exact_hadamard_column, summed in extended
    precision (np.clongdouble), in the state's axis order."""
    import numpy as np

    from cpa_sim.modes import TRAVELLING_KINDS, ModeLabel, basis_rails

    dim = state.dim
    pairs = [[state.axis(ModeLabel(kind, rail)) for kind in TRAVELLING_KINDS]
             for rail in basis_rails(state.modes, TRAVELLING_KINDS)]
    out = np.zeros(state.amplitudes.shape, dtype=np.clongdouble)
    for index in zip(*np.nonzero(state.amplitudes)):
        image = np.clongdouble(state.amplitudes[index])
        for ia, ib in pairs:
            m, total = int(index[ia]), int(index[ia] + index[ib])
            plane = np.zeros((dim, dim), dtype=np.longdouble)
            p = np.arange(total + 1)
            plane[p, total - p] = exact_hadamard_column(total, m)
            image = np.multiply.outer(image, plane)
        out += np.transpose(image, np.argsort([axis for pair in pairs for axis in pair]))
    return out


def sector_loop_mix(state, a, b, c: float, s: float):
    """fock._mix as one loop over total-photon sectors: per sector a fancy-index
    gather of its columns, a vdot for the mass floor, a complex matmul with the
    real block and a fancy-index scatter.  The same windows, floor and row
    clipping as the engine; every block comes from one _next_block chain, where
    the engine reads a vacuum partner's from loss_amplitudes."""
    import numpy as np

    from cpa_sim import fock
    from cpa_sim.modes import ModeError

    if a == b:
        raise ModeError("a two-mode mix needs two distinct modes")
    modes, amps = state.modes, state.amplitudes
    if b not in modes:
        modes, amps = modes + (b,), amps[..., None]
    ia, ib = state.axis(a), modes.index(b)
    cutoff = state.cutoff
    out = np.zeros((cutoff + 1,) * len(modes), dtype=complex)
    arr, out_ab = (np.moveaxis(x, (ia, ib), (0, 1)) for x in (amps, out))
    top_a, top_b = fock._top_levels(amps, ia, ib)
    block, first = np.ones((1, 1)), 0
    for total in range(top_a + top_b + 1):
        lo_m, hi_m = max(0, total - top_b), min(total, top_a)
        if total:
            block, first = fock._next_block(block, first, c, s, lo_m, hi_m), lo_m
        ms = np.arange(lo_m, hi_m + 1)
        sector = arr[ms, total - ms]
        if float(np.vdot(sector, sector).real) < fock.SECTOR_MASS_FLOOR:
            continue
        lo, hi = max(0, total - cutoff), min(total, cutoff)
        ps = np.arange(lo, hi + 1)
        image = block[lo:hi + 1] @ sector.reshape(len(ms), -1)
        out_ab[ps, total - ps] = image.reshape((len(ps),) + sector.shape[1:])
    return fock.PureState(modes, cutoff, fock._normalized(out))


def dense_reduced(amplitudes, modes, keep, absorbed=None):
    """Reduced rho over `keep` (taken in `modes` order) as an explicit dense
    mat @ mat^H, with mat the amplitudes reshaped to (kept x rest).

    With `absorbed`, the rest axes (the environment) are first projected on
    total occupation `absorbed`.  Normalized to unit trace.
    """
    import numpy as np

    modes = list(modes)
    axes = [i for i, m in enumerate(modes) if m in keep]
    rest = [i for i in range(len(modes)) if i not in axes]
    dim = amplitudes.shape[0]
    mat = np.transpose(amplitudes, axes + rest).reshape(dim ** len(axes), -1)
    if absorbed is not None:
        totals = np.indices((dim,) * len(rest)).sum(axis=0).ravel()
        mat = mat[:, totals == absorbed]
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def joint_environment(amplitudes, modes, env):
    """Environment readouts of a joint (light + environment) pure state, read
    from the joint itself.  A is the amplitudes as a (light x environment)
    matrix, light modes in `modes` order, and G = A^H A is formed from the rows
    of A that hold amplitude (the environment's rho, conjugated).  Returns G,
    the absorbed distribution (G's diagonal binned by environment total), the
    entropy (bits) of G / tr G, and P(all light in vacuum) = |row 0 of A|^2."""
    import numpy as np

    modes = list(modes)
    light = [i for i, m in enumerate(modes) if m not in env]
    rest = [i for i, m in enumerate(modes) if m in env]
    dim = amplitudes.shape[0]
    mat = np.transpose(amplitudes, light + rest).reshape(dim ** len(light), -1)
    occupied = mat[np.any(mat, axis=1)]
    gram = occupied.conj().T @ occupied
    totals = np.indices((dim,) * len(rest)).sum(axis=0).ravel()
    weights = np.bincount(totals, weights=np.diagonal(gram).real)
    distribution = {m: float(w) for m, w in enumerate(weights)}
    entropy = dense_entropy(gram / np.trace(gram).real)
    return gram, distribution, entropy, float(np.sum(np.abs(mat[0]) ** 2))


def loss_map_loop(rho, b, rails: int):
    """The pure-loss channel's complementary map as a loop over levels: per rail
    (ket axis r, bra axis rails + r of rho reshaped to (dim,) * 2 rails),
    rho[e, e'] <- sum_p b[p + e, p] b[p + e', p] rho[p + e, p + e'], one
    (dim - p)^2 update per p, with b the loss amplitudes b[n, p] (amplitude of
    p photons kept of n).  Returns the full (dim^rails, dim^rails) matrix."""
    import numpy as np

    dim = len(b)
    rho = rho.reshape((dim,) * (2 * rails))
    for r in range(rails):
        ket_bra, out = np.moveaxis(rho, (r, rails + r), (0, 1)), np.zeros_like(rho)
        for p in range(dim):
            weight = np.multiply.outer(b[p:, p], b[p:, p])[(...,) + (None,) * (rho.ndim - 2)]
            out[:dim - p, :dim - p] += weight * ket_bra[p:, p:]
        rho = np.moveaxis(out, (0, 1), (r, rails + r))
    return rho.reshape(dim ** rails, -1)


def loop_environment(amplitudes, modes, absorbed, b):
    """Environment readouts of a standing state through loss_map_loop: R of the
    `absorbed` modes (in `modes` order) as a dense psi psi^H, its image rho
    under the loop, the distribution of rho's diagonal binned by environment
    total, the entropy (bits) of rho, and P(no photon leaves) = sum_n
    |psi[n, 0]|^2 prod_r b[n_r, 0]^2.  Returned in joint_environment's order."""
    import numpy as np

    modes = list(modes)
    axes = [i for i, m in enumerate(modes) if m in absorbed]
    rest = [i for i in range(len(modes)) if i not in axes]
    dim = amplitudes.shape[0]
    psi = np.transpose(amplitudes, axes + rest).reshape(dim ** len(axes), -1)
    rho = loss_map_loop(psi @ psi.conj().T, b, len(axes))
    levels = np.indices((dim,) * len(axes))
    weights = np.bincount(levels.sum(axis=0).ravel(), weights=np.diagonal(rho).real)
    distribution = {m: float(w) for m, w in enumerate(weights)}
    no_loss = np.abs(psi[:, 0]) ** 2 * np.prod(b[levels, 0] ** 2, axis=0).ravel()
    return rho, distribution, dense_entropy(rho), float(np.sum(no_loss))


def dense_trace_out(rho, modes, keep):
    """Partial trace of a dense rho over `modes`, contracting each traced
    mode's ket axis with its bra axis."""
    import numpy as np

    m = len(modes)
    dim = round(rho.shape[0] ** (1.0 / m))
    tensor = rho.reshape((dim,) * (2 * m))
    traced = [i for i, mode in enumerate(modes) if mode not in keep]
    for offset, axis in enumerate(traced):
        tensor = np.trace(tensor, axis1=axis - offset, axis2=axis - offset + m - offset)
    kept = dim ** (m - len(traced))
    return tensor.reshape(kept, kept)


def dense_entropy(rho) -> float:
    """Von Neumann entropy in bits from the full spectrum of a dense rho."""
    import numpy as np

    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-16]
    return max(0.0, float(-np.sum(lam * np.log2(lam))))


def dense_moments(rho) -> tuple[complex, float]:
    """(<a>, <a^dag a>) of a dense single-mode rho."""
    import numpy as np

    n = np.arange(rho.shape[0])
    mean = complex(np.sum(np.sqrt(n[1:]) * np.diagonal(rho, offset=-1)))
    return mean, float(np.sum(n * np.diagonal(rho).real))


def _lowered(amps, axis: int):
    """The annihilation operator applied along one axis of an amplitude tensor."""
    import numpy as np

    moved = np.moveaxis(amps, axis, 0)
    out = np.zeros_like(moved)
    roots = np.sqrt(np.arange(1, len(moved))).reshape((-1,) + (1,) * (moved.ndim - 1))
    out[:-1] = moved[1:] * roots
    return np.moveaxis(out, 0, axis)


def cross_moment(state, a, b) -> complex:
    """<a_a^dag a_b> between two modes of a fock.PureState."""
    import numpy as np

    return complex(np.vdot(_lowered(state.amplitudes, state.axis(a)),
                           _lowered(state.amplitudes, state.axis(b))))


class QuadratureStats(NamedTuple):
    mean_x1: float
    mean_x2: float
    var_x1: float
    var_x2: float
    cov_x1x2: float


def quadrature_stats(state, mode) -> QuadratureStats:
    """Quadrature means and (co)variances of one mode of a fock.PureState in the
    X1 = a + a^dag convention, from <a>, <a^2> and <a^dag a>."""
    import numpy as np

    axis = state.axis(mode)
    lowered = _lowered(state.amplitudes, axis)
    mean = complex(np.vdot(state.amplitudes, lowered))
    mean_sq = complex(np.vdot(state.amplitudes, _lowered(lowered, axis)))
    number = float(np.vdot(lowered, lowered).real)
    m1, m2 = 2.0 * mean.real, 2.0 * mean.imag
    return QuadratureStats(m1, m2, 1.0 + 2.0 * number + 2.0 * mean_sq.real - m1 * m1,
                           1.0 + 2.0 * number - 2.0 * mean_sq.real - m2 * m2,
                           2.0 * mean_sq.imag - m1 * m2)


def absorbed_photon_distribution(joint) -> dict[int, float]:
    """Probability of m photons in total in the environment modes of a joint
    fock.PureState."""
    from cpa_sim import fock
    from cpa_sim.modes import ModeError

    env = [m for m in joint.modes if m.is_env]
    if not env:
        raise ModeError("state has no environment mode")
    return dict(enumerate(fock.total_occupation_distribution(joint, env).tolist()))


def bell_standing_state(kind, cutoff: int = 2):
    """Expected standing-basis Bell state of `kind`, on travelling labels
    (rail-encoded): the Bell input of that kind."""
    from cpa_sim import dv

    return dv.build_input(dv.DvScenario(kind), cutoff)


def padded_squeezed_coherent(alpha: complex, xi: float, phi: float, work_dim: int):
    """S(zeta) D(alpha)|0>, zeta = xi e^{i phi}, over levels 0..work_dim-1.

    The coherent amplitudes come from the closed form e^{-|alpha|^2/2}
    alpha^n / sqrt(n!), in log form; the squeezer exp(K), K = (conj(zeta) a^2
    - zeta a^dag^2) / 2, is V exp(-i lam) V^H from eigh of the Hermitian
    generator H = i K truncated to the padded space, where it stays exactly
    unitary.  Truncating the generator disturbs only the levels near the top,
    so work_dim should sit well above the cutoff of interest.
    """
    import numpy as np

    alpha = complex(alpha)
    coherent = np.zeros(work_dim, dtype=complex)
    coherent[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    if alpha:
        k = np.arange(1, work_dim)
        log_mag = k * math.log(abs(alpha)) - abs(alpha) ** 2 / 2.0 - 0.5 * np.array(
            [math.lgamma(j + 1.0) for j in k]
        )
        coherent[1:] = np.exp(log_mag + 1j * k * math.atan2(alpha.imag, alpha.real))
    lower = np.diag(np.sqrt(np.arange(1.0, work_dim)), 1)
    zeta = xi * complex(math.cos(phi), math.sin(phi))
    generator = 0.5j * (zeta.conjugate() * (lower @ lower) - zeta * (lower.T @ lower.T))
    lam, vec = np.linalg.eigh(generator)
    return vec @ (np.exp(-1j * lam) * (vec.conj().T @ coherent))


def coherent_state(alpha: complex, cutoff: int, mode=None):
    """|alpha> on `mode` (K by default), truncated at the cutoff and renormalized:
    fock.squeezed_coherent_state without squeezing."""
    from cpa_sim import fock
    from cpa_sim.modes import K

    return fock.squeezed_coherent_state(alpha, 0.0, 0.0, cutoff, K if mode is None else mode)


def fidelity(state, other) -> float:
    """|<state|other>|^2 of two fock.PureStates; mode sets must match, order may differ."""
    import numpy as np

    if state.cutoff != other.cutoff:
        raise ValueError("states have different cutoffs")
    aligned = other.aligned_amplitudes(state.modes)
    return float(abs(np.vdot(state.amplitudes, aligned)) ** 2)


def superposition_of_coherent_pair(alpha: complex, cutoff: int):
    """Normalized |alpha>|-alpha> + |-alpha>|alpha> over (K, MINUS_K): the
    travelling state CAT_CAT's zero-absorption output is compared with."""
    import numpy as np

    from cpa_sim import fock
    from cpa_sim.modes import K, MINUS_K

    plus = coherent_state(alpha, cutoff, K).amplitudes
    minus = coherent_state(-alpha, cutoff, K).amplitudes
    amps = np.multiply.outer(plus, minus) + np.multiply.outer(minus, plus)
    return fock.PureState((K, MINUS_K), cutoff, amps / np.linalg.norm(amps))


def _rounded(obj):
    """The payload json.dumps is given: floats at 12 significant digits, None as
    "undefined", numpy scalars as Python ones, mapping keys as str(key)."""
    from collections.abc import Mapping, Sequence

    import numpy as np

    if obj is None:
        return "undefined"
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [float(f"{obj.real:.12g}"), float(f"{obj.imag:.12g}")]
    if isinstance(obj, Mapping):  # a dict, or a results.LevelTable read entry by entry
        return {str(k): _rounded(v) for k, v in obj.items()}
    if isinstance(obj, Sequence) and not isinstance(obj, str):  # results.OutputTable too
        return [_rounded(v) for v in obj]
    return obj


def json_reference(payload) -> str:
    """The text `results.clean` must write: the payload rounded, then laid out
    by json.dumps(indent=2) (the pure-Python encoder)."""
    import json

    return json.dumps(_rounded(payload), indent=2)


def per_element_loop(fn, x):
    """gaussian._per_element as a list comprehension of Python-level calls."""
    import numpy as np

    if isinstance(x, float):
        return fn(x)
    return np.array([fn(v) for v in np.ravel(x).tolist()], dtype=float).reshape(np.shape(x))[()]


def abs2_loop(z):
    """gaussian._abs2 as a list comprehension of abs(v) ** 2."""
    import numpy as np

    if isinstance(z, complex):
        return abs(z) ** 2
    return np.array([abs(v) ** 2 for v in np.ravel(z).tolist()]).reshape(np.shape(z))[()]


def stacked_det_check(modes, cov):
    """The uncertainty check as np.linalg.det over every stacked mode block:
    None when all pass, else the first failing index (batch..., mode) and the
    ValueError message GaussianState raises for it."""
    import numpy as np

    blocks = [cov[..., i:i + 2, i:i + 2] for i in range(0, 2 * len(modes), 2)]
    dets = np.linalg.det(np.stack(blocks, axis=-3))
    bad = dets < 1.0 - 1e-10
    if not bad.any():
        return None
    index = tuple(np.argwhere(bad)[0].tolist())
    where = f" at batch index {index[:-1]}" if cov.ndim > 2 else ""
    return index, (f"mode {modes[index[-1]]} violates the uncertainty relation "
                   f"(block determinant {float(dets[index])!r}){where}")


class SingularAngleError(ValueError):
    """Polar inverse map evaluated too close to a removable singularity."""


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
    evaluation should use gaussian.epr_params_from_means.
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


def cross_correlation(state, a, b):
    """<a_a^dag a_b> of a Gaussian state (or batch) from its means and the
    covariance cross-block of the two modes."""
    from cpa_sim import gaussian

    ia, ib = 2 * state.axis(a), 2 * state.axis(b)
    cross = state.cov[..., ia:ia + 2, ib:ib + 2]
    noise = ((cross[..., 0, 0] + cross[..., 1, 1]) / 4.0
             + 1j * (cross[..., 0, 1] - cross[..., 1, 0]) / 4.0)
    return noise + (gaussian.mean_amplitude(state, a).conjugate()
                    * gaussian.mean_amplitude(state, b))


def mode_intensity(state, mode):
    """<a^dag a> = |<a>|^2 + (trace of mode covariance - 2) / 4 of one mode of a
    Gaussian state (or batch), from the engine's mean and noise readers."""
    from cpa_sim import gaussian

    return gaussian._abs2(gaussian.mean_amplitude(state, mode)) + gaussian._noise_intensity(state, mode)


def travelling_coefficients(state):
    """The absorption coefficients of a Gaussian travelling pair (K, MINUS_K) by
    the travelling forms: 1/2 + Re<a_K^dag a_-K> / (I_K + I_-K), and
    1/2 + Re(conj(<a_K>) <a_-K>) / (|<a_K>|^2 + |<a_-K>|^2), I = |<a>|^2 + (trace
    of the mode's covariance - 2) / 4 (no engine intensity code).  Undefined where a
    total is <= 1e-12: None for a single state, NaN within a batch."""
    import numpy as np

    from cpa_sim import gaussian
    from cpa_sim.modes import K, MINUS_K

    amp_k, amp_mk = gaussian.mean_amplitude(state, K), gaussian.mean_amplitude(state, MINUS_K)
    coherence = abs(amp_k) ** 2 + abs(amp_mk) ** 2
    traces = [np.trace(state.mode_block(mode), axis1=-2, axis2=-1) for mode in (K, MINUS_K)]
    pairs = ((cross_correlation(state, K, MINUS_K).real, coherence + (traces[0] + traces[1] - 4.0) / 4.0),
             ((amp_k.conjugate() * amp_mk).real, coherence))
    coeffs = [np.where(total > 1e-12, 0.5 + num / np.where(total > 1e-12, total, 1.0), np.nan)
              for num, total in pairs]
    if state.mean.ndim > 1:  # a batch
        return tuple(coeffs)
    return tuple(None if np.isnan(c) else float(c) for c in coeffs)


def exact_intensity_share(standing):
    """The intensity absorption coefficient of a single Gaussian standing state
    (C, S), in exact rational arithmetic from its stored means and covariance
    diagonals: <n_C> / (<n_C> + <n_S>), with <n> = (<X1>^2 + <X2>^2 + V11 + V22 -
    2) / 4 for each mode.  None where the total is <= 1e-12."""
    from fractions import Fraction

    from cpa_sim.modes import C, S

    intensities = []
    for mode in (C, S):
        (x1, x2), block = standing.mode_mean(mode).tolist(), standing.mode_block(mode)
        terms = [Fraction(x1) ** 2, Fraction(x2) ** 2, Fraction(float(block[0, 0])),
                 Fraction(float(block[1, 1])), -2]
        intensities.append(sum(terms) / 4)
    total = sum(intensities)
    return float(intensities[0] / total) if total > Fraction(1e-12) else None


def two_mix_epr(alpha_g: complex, alpha_h: complex, xi: float):
    """(travelling, standing) Gaussian states of the EPR input by the route of two
    balanced mixes: the preceding modes g and h on (K, MINUS_K), mixed into the
    travelling modes, then mixed back by standing_basis.  The second mix recovers
    each e^(-2 xi) variance as a difference of entries near cosh(2 xi) / 2."""
    from cpa_sim import gaussian
    from cpa_sim.modes import K, MINUS_K

    preceding = gaussian.tensor(
        gaussian.squeezed_coherent_state(gaussian.SqueezedSpec(alpha_g, xi, math.pi), K),
        gaussian.squeezed_coherent_state(gaussian.SqueezedSpec(alpha_h, xi, 0.0), MINUS_K))
    travelling = gaussian.bs_transform(preceding, K, MINUS_K)
    return travelling, gaussian.standing_basis(travelling)


def two_mix_epr_readouts(alpha_g: complex, alpha_h: complex, xi: float, absorber) -> dict:
    """Every number a GAUSSIAN EPR run reports, read off two_mix_epr's states by
    the definitions: the coefficients and duan_inseparability of each basis' pair,
    and the output quadratures of travelling_basis(cpa_channel(standing))."""
    from cpa_sim import gaussian
    from cpa_sim.modes import C, K, MINUS_K, S

    travelling, standing = two_mix_epr(alpha_g, alpha_h, xi)
    output = gaussian.travelling_basis(gaussian.cpa_channel(standing, absorber))
    coeff_int, coeff_coh = travelling_coefficients(travelling)
    numbers = {"mean_intensity_absorption": coeff_int, "coherence_absorption": coeff_coh,
               "duan_travelling": gaussian.duan_inseparability(travelling, K, MINUS_K),
               "duan_standing": gaussian.duan_inseparability(standing, C, S)}
    for mode in (K, MINUS_K):
        (mean_x1, mean_x2), block = output.mode_mean(mode), output.mode_block(mode)
        numbers.update({f"{mode}.mean_x1": mean_x1, f"{mode}.mean_x2": mean_x2,
                        f"{mode}.var_x1": block[0, 0], f"{mode}.var_x2": block[1, 1]})
    return numbers


def exact_one_rail_distribution(n: int, tau_c: float, cos_delta: float, swap_roles: bool,
                                bits: int = 256) -> list[float]:
    """dv.one_rail_distribution from its double inputs taken exactly as
    fractions.Fraction: q = (1 - tau_c^2) / 2 = a / 2^K, b = 2^K - a, r = q / (1
    - q) = a / b and c = cos_delta, p(e) = C(n, e) q^e (1 - q)^(n-e) (1 + sigma_e
    c r^(n-e)), sigma_e = (-1)^(n+e), or (-1)^e under swap_roles.  No float
    arithmetic: each factor is an integer mantissa and a binary exponent, (1 -
    q)^n by squaring and every next entry by the exact ratio (n - e) a / ((e +
    1) b), each product cut to `bits` bits, so an entry is within about n
    2^-bits of the exact rational; it is rounded to a double once at the end."""
    from fractions import Fraction

    q = (1 - Fraction(tau_c) ** 2) / 2
    a, scale = q.numerator, q.denominator  # a power of two
    if a == 0:
        return [1.0] + [0.0] * n

    def cut(m: int, x: int) -> tuple[int, int]:
        shift = m.bit_length() - bits
        return (m >> shift, x + shift) if shift > 0 else (m, x)

    def ratio(m: int, x: int, num: int, den: int) -> tuple[int, int]:
        return cut((m * num << bits) // den, x - bits)

    b, c = scale - a, Fraction(cos_delta)
    power, base, k = (1, 0), (b, 0), n  # b^n
    while k:
        if k & 1:
            power = cut(power[0] * base[0], power[1] + base[1])
        base, k = cut(base[0] * base[0], 2 * base[1]), k >> 1
    binomial = [(power[0], power[1] - n * (scale.bit_length() - 1))]
    decay = [(1, 0)]  # r^k
    for e in range(n):
        binomial.append(ratio(*binomial[-1], (n - e) * a, (e + 1) * b))
        decay.append(ratio(*decay[-1], a, b))
    out = []
    for e, (m, x) in enumerate(binomial):
        (rm, rx), sign = decay[n - e], -1 if (e if swap_roles else n + e) % 2 else 1
        if rm.bit_length() + rx > -2 * bits:  # else r^k is below the rounding
            factor = 1 + sign * c * Fraction(rm) * Fraction(2) ** rx
            m, x = ratio(m, x, factor.numerator, factor.denominator)
        out.append(math.ldexp(float(m), x))
    return out


# (i^m, sign) by m mod 4: cos((pi m + delta)/2) = sign * (cos, sin)[m mod 2] of delta/2
_QUARTER_TURNS = ((1 + 0j, 1.0), (1j, -1.0), (-1 + 0j, -1.0), (-1j, 1.0))


def noon_standing_decomposition(n: int, delta_theta: float) -> list[tuple[int, complex]]:
    """Standing-basis expansion coefficients of a NOON input.

    Entry (m, c_m) multiplies the ket with n-m photons in the cosine mode and
    m in the sine mode: c_m = i^m cos((pi m + delta)/2) sqrt(binom(n, m) / 2^(n-1)),
    bs_transform's output times e^{-i delta/2}.  Both periodic factors are read
    off m mod 4 and the binomial ratio is one correctly rounded division, so
    every entry is exact to a few ulp at any n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    trig = (math.cos(delta_theta / 2.0), math.sin(delta_theta / 2.0))
    out: list[tuple[int, complex]] = []
    for m in range(n + 1):
        phase, sign = _QUARTER_TURNS[m % 4]
        magnitude = sign * trig[m % 2] * math.sqrt(math.comb(n, m) / 2 ** (n - 1))
        out.append((m, phase * magnitude))
    return out


# Bell kind -> the Bell kind the balanced mix on each rail takes it to
BELL_STANDING = {"BELL_PSI_PLUS": "BELL_PHI_MINUS", "BELL_PSI_MINUS": "BELL_PSI_MINUS",
                 "BELL_PHI_PLUS": "BELL_PHI_PLUS", "BELL_PHI_MINUS": "BELL_PSI_PLUS"}


def standing_state(scenario, cutoff: int):
    """fock.standing_basis(dv.build_input(scenario, cutoff)) in closed form, to
    rounding and up to BELL_PSI_MINUS's sign: a Bell kind's image
    (BELL_STANDING) relabelled onto (C, S) on each rail, else
    noon_standing_decomposition times the mix's phase e^{i delta/2}."""
    import cmath

    from cpa_sim import dv, fock
    from cpa_sim.modes import C, K, MINUS_K, S

    if scenario.kind in dv.BELL_KINDS:
        image = dv._bell_state(dv.DvKind[BELL_STANDING[scenario.kind.value]], cutoff)
        return fock.relabel(image, {travelling.with_rail(rail): standing.with_rail(rail)
                                    for travelling, standing in ((K, C), (MINUS_K, S))
                                    for rail in (dv.RAIL_A, dv.RAIL_B)})
    n, phase = scenario.total_photons, cmath.exp(0.5j * scenario.delta_theta)
    terms = noon_standing_decomposition(n, scenario.delta_theta)
    return fock.superposition([(c * phase, {C: n - m, S: m}) for m, c in terms], (C, S), cutoff)


def absorber_outputs(standing, absorber, counts):
    """The outputs at `counts` of fock.joint_readouts(travelling_basis(
    cpa_channel(standing, absorber)), floor) for a one-rail standing state
    Psi[n_a, n_o], a the absorbed mode, without the joint: the dense one-rail route.  m absorbed photons leave the pure
    light Psi[k+m, s] W[m, k], W[m, k] = b[k+m, k] (b = fock.loss_amplitudes:
    the Kraus form that absorber_environment uses).  With P, Q[n] = sum_s (1, s)
    |Psi[n, s]|^2 and X[n] = sum_s conj(Psi[n+1, s-1]) Psi[n, s] sqrt(s), a count
    costs O(dim): p_m = sum_k W^2 P[k+m], (<n_a> + <n_o>) p_m = sum_k W^2 (k P +
    Q)[k+m] and <a_a^dag a_o> p_m = sum_k W[m, k] W[m, k+1] sqrt(k+1) X[k+m].
    The mix back gives <n_K>, <n_-K> = (<n_a> + <n_o>) / 2 +- Re<a_a^dag a_o>."""
    import numpy as np

    from cpa_sim import fock
    from cpa_sim.modes import C, K, MINUS_K, S

    tau, dim, levels = absorber.tau_c, standing.dim, np.arange(standing.dim + 0.0)
    psi = standing.aligned_amplitudes((S, C) if absorber.swap_roles else (C, S))
    b = fock.loss_amplitudes(tau, math.sqrt(max(0.0, 1.0 - tau * tau)), dim)
    n = np.add.outer(np.arange(dim), np.arange(dim))  # [m, k]: the level k + m
    w = np.where(n < dim, b[np.minimum(n, dim - 1), np.arange(dim)], 0.0)
    weight, padded = np.abs(psi) ** 2, np.zeros((3, 2 * dim))  # P, Q, Re X past the top: 0
    padded[0, :dim], padded[1, :dim] = weight.sum(axis=1), weight @ levels
    padded[2, :dim - 1] = (psi[1:, :-1].conj() * psi[:-1, 1:]).real @ np.sqrt(levels[1:])
    p, q, x = padded[:, n]
    probs, totals = np.sum(w * w * p, axis=1), np.sum(w * w * (levels * p + q), axis=1)
    reals = np.sum(w[:, 1:] * w[:, :-1] * np.sqrt(levels[1:]) * x[:, :-1], axis=1)
    outputs = []
    for m in counts:
        prob = float(probs[m]) if 0 <= m < dim else 0.0
        if prob < fock.CONDITIONING_FLOOR:
            raise fock.FockError(f"conditioning on zero-probability absorbed count {m}")
        half, real = float(totals[m]) / 2.0, float(reals[m])
        outputs.append(fock.ConditionalOutput(m, prob, 1.0, {
            K: (half + real) / prob, MINUS_K: (half - real) / prob}))
    return outputs


def dense_one_rail_run(scenario, absorber, report_threshold: float = 1e-9):
    """(environment readout, conditional outputs) of a NOON or single-photon run
    by the dense one-rail route: the (n+1)^2 standing state (standing_state),
    fock.absorber_environment's loss map and eigen-solve, and absorber_outputs
    for each count above report_threshold and fock.CONDITIONING_FLOOR."""
    from cpa_sim import fock

    standing = standing_state(scenario, scenario.total_photons)
    environment = fock.absorber_environment(standing, absorber)
    floor = max(report_threshold, fock.CONDITIONING_FLOOR)
    counts = [m for m, p in enumerate(environment.distribution.tolist()) if p > floor]
    return environment, absorber_outputs(standing, absorber, counts)
