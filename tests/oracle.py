"""Brute-force oracle: symbolic creation-operator pipeline.

Independent of the tensor engine.  A state is a complex-weighted sum of
creation-operator monomials acting on vacuum, stored as
{((mode, power), ...): coeff}.  The absorber pipeline is three literal
substitutions on the creation operators:

    k-pair    ->  balanced mix onto the standing pair
    cosine    ->  tau * cosine + sqrt(1 - tau^2) * environment
    standing  ->  balanced mix back onto the k-pair

Ket amplitudes follow from (a^dag)^n |0> = sqrt(n!) |n>.
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


def exact_hadamard_block(total: int):
    """Sector `total` of the balanced beamsplitter from exact integers.

    Entry [p, m] is the amplitude of |p, total-p> in the image of
    |m, total-m> under a_1 -> (a_1 + a_2)/sqrt(2), a_2 -> (a_1 - a_2)/sqrt(2):
    the coefficient of x^p in (x+1)^m (x-1)^(total-m), expanded in Python
    integers, so every entry is correct to a few ulp at any total.
    """
    import numpy as np

    fact = [math.factorial(i) for i in range(total + 1)]
    scale = 2.0 ** (-total / 2.0)
    block = np.zeros((total + 1, total + 1))
    for m in range(total + 1):
        n = total - m
        coeffs = [math.comb(m, j) for j in range(m + 1)] + [0] * n
        for _ in range(n):  # multiply by (x - 1), exact integers
            for p in range(total, -1, -1):
                coeffs[p] = (coeffs[p - 1] if p > 0 else 0) - coeffs[p]
        for p, s in enumerate(coeffs):
            if s:
                ratio = (fact[p] * fact[total - p]) / (fact[m] * fact[n])
                block[p, m] = s * math.sqrt(ratio) * scale
    return block


def sector_loop_mix(state, a, b, c: float, s: float, weight: float = 1.0):
    """fock._mix as one loop over total-photon sectors: per sector a fancy-index
    gather of its columns, a vdot for the mass floor, a complex matmul with the
    real block and a fancy-index scatter.  The same blocks, windows, floor and
    row clipping as the engine, without its strided layout."""
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
    balanced = c == s == fock._INV_SQRT2
    block, first = np.ones((1, 1)), 0
    for total in range(top_a + top_b + 1):
        lo_m, hi_m = max(0, total - top_b), min(total, top_a)
        if total and not balanced:
            block, first = fock._next_block(block, first, c, s, lo_m, hi_m), lo_m
        ms = np.arange(lo_m, hi_m + 1)
        sector = arr[ms, total - ms]
        if float(np.vdot(sector, sector).real) < fock.SECTOR_MASS_FLOOR:
            continue
        if balanced:
            block = fock.hadamard_block(total)[:, lo_m:hi_m + 1]
        lo, hi = max(0, total - cutoff), min(total, cutoff)
        ps = np.arange(lo, hi + 1)
        image = block[lo:hi + 1] @ sector.reshape(len(ms), -1)
        out_ab[ps, total - ps] = image.reshape((len(ps),) + sector.shape[1:])
    return fock.PureState(modes, cutoff, fock._normalized(out, weight=weight))


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


def _rounded(obj):
    """The payload json.dumps is given: floats at 12 significant digits, None as
    "undefined", numpy scalars as Python ones, dict keys as str(key)."""
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
    if isinstance(obj, dict):
        return {str(k): _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def json_reference(payload) -> str:
    """The text `results.clean` must write: the payload rounded, then laid out
    by json.dumps(indent=2) (the pure-Python encoder)."""
    import json

    return json.dumps(_rounded(payload), indent=2)
