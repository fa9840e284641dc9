"""Subwavelength absorber description.

A thin symmetric absorber with amplitude reflection r and transmission t obeys
t = 1 + r (no interaction at a standing-wave node), so a single real parameter
r in [-1/2, 0] fixes the device.  In the standing basis it acts diagonally:
the cosine mode keeps amplitude tau_c = t + r = 1 + 2r while the sine mode
passes untouched (tau_s = t - r = 1).  The canonical coherent-perfect-absorber
point is r = -1/2, t = 1/2, where the cosine mode is fully absorbed.

``swap_roles`` selects the mirror device (t = r = 1/2 at the canonical point)
which couples the sine mode to the environment instead and lets the cosine
mode pass.
"""
from __future__ import annotations

from dataclasses import dataclass

from .modes import ModeKind


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

