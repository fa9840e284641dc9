"""Mode labels for the travelling/standing wave bases and the absorber environment.

Two counter-propagating travelling modes (K, MINUS_K) map onto a cosine/sine
standing-wave pair (C, S) under the balanced beamsplitter-like basis change.
ENV_C is the environment mode that soaks up whatever the absorber dissipates.

Dual-rail encodings (two photons carrying an internal label) use the same five
kinds with a ``rail`` tag, e.g. one (K, MINUS_K) pair per internal label.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ModeKind(Enum):
    K = "K"
    MINUS_K = "MINUS_K"
    C = "C"
    S = "S"
    ENV_C = "ENV_C"


TRAVELLING_KINDS = (ModeKind.K, ModeKind.MINUS_K)
STANDING_KINDS = (ModeKind.C, ModeKind.S)


@dataclass(frozen=True)
class ModeLabel:
    """A mode name: basis kind plus an optional dual-rail tag."""

    kind: ModeKind
    rail: str = ""

    def with_rail(self, rail: str) -> "ModeLabel":
        return ModeLabel(self.kind, rail)

    @property
    def is_env(self) -> bool:
        return self.kind is ModeKind.ENV_C

    def __str__(self) -> str:
        return f"{self.kind.value}[{self.rail}]" if self.rail else self.kind.value

    def __repr__(self) -> str:
        return str(self)


K = ModeLabel(ModeKind.K)
MINUS_K = ModeLabel(ModeKind.MINUS_K)
C = ModeLabel(ModeKind.C)
S = ModeLabel(ModeKind.S)
ENV_C = ModeLabel(ModeKind.ENV_C)

# Standing-basis label each travelling mode turns into (and back).
STANDING_OF = {ModeKind.K: ModeKind.C, ModeKind.MINUS_K: ModeKind.S}
TRAVELLING_OF = {v: k for k, v in STANDING_OF.items()}


class ModeError(ValueError):
    """Unknown, duplicate, or inconsistent mode labels."""


def check_mode_consistency(modes) -> None:
    """No duplicates; no rail carries travelling and standing labels at once."""
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ModeError(f"duplicate mode labels in {modes}")
    for rail in {m.rail for m in modes}:
        kinds = {m.kind for m in modes if m.rail == rail}
        travelling = kinds & set(TRAVELLING_KINDS)
        standing = kinds & set(STANDING_KINDS)
        if travelling and standing:
            raise ModeError(
                f"rail {rail!r} mixes travelling {travelling} and standing {standing} labels"
            )


def basis_rails(modes, kinds: tuple[ModeKind, ModeKind]) -> list[str]:
    """Sorted rails of `modes`; some rail, and every rail holding one kind of
    the basis pair `kinds`, must hold both (ModeError otherwise)."""
    first, second = ({m.rail for m in modes if m.kind is kind} for kind in kinds)
    if not first or first != second:
        names = ", ".join(kind.value for kind in kinds)
        raise ModeError(f"modes {tuple(modes)} are not in the ({names}) basis on every rail")
    return sorted(first)
