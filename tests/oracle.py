"""Brute-force oracle: symbolic creation-operator pipeline.

Independent of the tensor engine.  A state is a complex-weighted sum of
creation-operator monomials acting on vacuum, stored as
{((mode, power), ...): coeff}.  The absorber pipeline is three literal
substitutions on the creation operators:

    k-pair    ->  balanced mix onto the standing pair
    cosine    ->  tau * cosine + sqrt(1 - tau^2) * environment
    standing  ->  balanced mix back onto the k-pair

Ket amplitudes follow from (a^dag)^n |0> = sqrt(n!) |n>.

The engine's own joint route, fock.conditional_outputs of fock.full_pipeline
(the standing state mixed with its environment and back to K, MINUS_K), is
what the Bell kinds run.  It is the reference for the one-rail readout that
NOON and SINGLE_PHOTON runs use, fock.absorber_outputs, which never builds
that joint (tests/test_dv.py and tests/test_fock.py hold the two together).
"""
from __future__ import annotations

import math

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
    clipping as the engine, without its strided layout; every block comes from
    one _next_block chain, where the engine reads a vacuum partner's from
    loss_amplitudes."""
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
    from collections.abc import Mapping

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
    if isinstance(obj, (list, tuple)):
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
    coeff_int, coeff_coh = gaussian.absorption_coefficients(travelling, K, MINUS_K)
    numbers = {"mean_intensity_absorption": coeff_int, "coherence_absorption": coeff_coh,
               "duan_travelling": gaussian.duan_inseparability(travelling, K, MINUS_K),
               "duan_standing": gaussian.duan_inseparability(standing, C, S)}
    for mode in (K, MINUS_K):
        (mean_x1, mean_x2), block = output.mode_mean(mode), output.mode_block(mode)
        numbers.update({f"{mode}.mean_x1": mean_x1, f"{mode}.mean_x2": mean_x2,
                        f"{mode}.var_x1": block[0, 0], f"{mode}.var_x2": block[1, 1]})
    return numbers
