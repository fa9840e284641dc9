"""Subwavelength absorber description, and the two pipeline stages of both engines.

A thin symmetric absorber with amplitude reflection r and transmission t obeys
t = 1 + r (no interaction at a standing-wave node), so a single real parameter
r in [-1/2, 0] fixes the device.  In the standing basis it acts diagonally:
the cosine mode keeps amplitude tau_c = t + r = 1 + 2r while the sine mode
passes untouched (tau_s = t - r = 1).  The canonical coherent-perfect-absorber
point is r = -1/2, t = 1/2, where the cosine mode is fully absorbed.

``swap_roles`` selects the mirror device (t = r = 1/2 at the canonical point)
which couples the sine mode to the environment instead and lets the cosine
mode pass.

Both engines run the same two pipeline stages, written once below, each
engine passing in its own primitives: change_basis, the balanced beamsplitter
on each rail's (K, MINUS_K) pair, or its (C, S) pair on the way back, then the
relabel; and absorb, the two-mode mix of each rail's absorbed standing mode
with that rail's environment mode ENV_C, which the mix attaches in vacuum.

Both engines read the absorption coefficients by one rule, absorbed_share:
light in the standing mode with an antinode at the canonical absorber, C, is
absorbed, so a coefficient is C's share of the standing pair's <n> (intensity)
or |<a>|^2 (coherence).  Through the balanced mix this is the travelling form
1/2 + Re<a_K^dag a_-K> / (I_K + I_-K).  It describes the input: swap_roles
leaves it alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .modes import ENV_C, STANDING_KINDS, ModeError, ModeKind, ModeLabel, basis_rails


@dataclass(frozen=True)
class AbsorberSpec:
    reflection: float = -0.5
    swap_roles: bool = False

    def __post_init__(self) -> None:
        if not -0.5 <= self.reflection <= 0.0:
            raise ValueError(
                f"absorber reflection must lie in [-0.5, 0], got {self.reflection}"
            )

    @property
    def transmission(self) -> float:
        return 1.0 + self.reflection

    @property
    def tau_c(self) -> float:
        """Amplitude transmissivity of the absorbed standing mode (t + r)."""
        return self.transmission + self.reflection

    @property
    def absorbed_kind(self) -> ModeKind:
        return ModeKind.S if self.swap_roles else ModeKind.C

    def echo(self) -> dict:
        """The absorber as scenario results report it."""
        return {"r": self.reflection, "swap_roles": self.swap_roles}


CANONICAL = AbsorberSpec(reflection=-0.5)


def change_basis(state, kinds: Mapping[ModeKind, ModeKind], rotate: Callable,
                 relabel: Callable):
    """rotate(state, a, b) on each rail's pair of `kinds` (STANDING_OF:
    K, MINUS_K; TRAVELLING_OF: C, S), then each such mode relabelled to its
    partner kind on the same rail."""
    first, second = kinds
    result = state
    for rail in basis_rails(state.modes, (first, second)):
        result = rotate(result, ModeLabel(first, rail), ModeLabel(second, rail))
    return relabel(result, {m: ModeLabel(kinds[m.kind], m.rail)
                            for m in result.modes if m.kind in kinds})


def absorb(state, absorber: AbsorberSpec, mix: Callable):
    """mix(state, absorbed, env, tau_c, sqrt(1 - tau_c^2)) on each rail of a
    standing-basis state; at tau_c = 0 the absorbed mode swaps into ENV_C."""
    tau = absorber.tau_c
    s = math.sqrt(max(0.0, 1.0 - tau * tau))
    result = state
    for rail in basis_rails(state.modes, STANDING_KINDS):
        env = ENV_C.with_rail(rail)
        if env in result.modes:
            raise ModeError(f"environment mode {env} already attached")
        result = mix(result, ModeLabel(absorber.absorbed_kind, rail), env, tau, s)
    return result


def absorbed_share(absorbed, passed):
    """absorbed / (absorbed + passed), an absorption coefficient, undefined where
    the total is <= 1e-12: None for scalars, NaN within arrays.  A scalar total
    past double range, or NaN, gives inf, which results.clean refuses by name."""
    total = absorbed + passed
    if isinstance(total, np.ndarray):
        return np.divide(absorbed, total, out=np.full(total.shape, np.nan), where=total > 1e-12)
    if not math.isfinite(total):
        return math.inf
    return float(absorbed / total) if total > 1e-12 else None
