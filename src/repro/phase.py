"""Output phase assignments.

A *phase assignment* maps every primary output of a network to a phase:

* ``POSITIVE`` — no inverter at the domino block boundary; the block
  itself produces the output value.
* ``NEGATIVE`` — a static inverter sits at the boundary; the block
  produces the complement and the inverter restores the logical value.

As the paper stresses, a negative phase does **not** change the output's
logical polarity — only where (and whether) a boundary inverter appears.
"""

from __future__ import annotations

import enum
import random as _random
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import PhaseError


class Phase(enum.Enum):
    """Phase of a primary output at the domino boundary."""

    POSITIVE = "+"
    NEGATIVE = "-"

    @property
    def flipped(self) -> "Phase":
        return Phase.NEGATIVE if self is Phase.POSITIVE else Phase.POSITIVE

    def __invert__(self) -> "Phase":
        return self.flipped


class PhaseAssignment(Mapping[str, Phase]):
    """Immutable-ish mapping from primary-output name to :class:`Phase`."""

    def __init__(self, phases: Mapping[str, Phase]):
        for po, ph in phases.items():
            if not isinstance(ph, Phase):
                raise PhaseError(f"phase of {po!r} must be a Phase, got {ph!r}")
        self._phases: Dict[str, Phase] = dict(phases)

    # Mapping interface -------------------------------------------------
    def __getitem__(self, po: str) -> Phase:
        try:
            return self._phases[po]
        except KeyError:
            raise PhaseError(f"no phase assigned to output {po!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseAssignment):
            return NotImplemented
        return self._phases == other._phases

    def __hash__(self) -> int:
        return hash(tuple(sorted((po, ph.value) for po, ph in self._phases.items())))

    # Constructors -------------------------------------------------------
    @classmethod
    def all_positive(cls, outputs: Iterable[str]) -> "PhaseAssignment":
        return cls({po: Phase.POSITIVE for po in outputs})

    @classmethod
    def all_negative(cls, outputs: Iterable[str]) -> "PhaseAssignment":
        return cls({po: Phase.NEGATIVE for po in outputs})

    @classmethod
    def from_bits(cls, outputs: Sequence[str], bits: int) -> "PhaseAssignment":
        """Assignment from an integer bitmask; bit i set => output i negative."""
        return cls(
            {
                po: Phase.NEGATIVE if (bits >> i) & 1 else Phase.POSITIVE
                for i, po in enumerate(outputs)
            }
        )

    @classmethod
    def random(cls, outputs: Sequence[str], seed: int = 0) -> "PhaseAssignment":
        rng = _random.Random(seed)
        return cls(
            {po: rng.choice((Phase.POSITIVE, Phase.NEGATIVE)) for po in outputs}
        )

    # Derivation ----------------------------------------------------------
    def with_phase(self, po: str, phase: Phase) -> "PhaseAssignment":
        if po not in self._phases:
            raise PhaseError(f"unknown output {po!r}")
        new = dict(self._phases)
        new[po] = phase
        return PhaseAssignment(new)

    def flipped(self, *pos: str) -> "PhaseAssignment":
        """Return a copy with the listed outputs' phases inverted."""
        new = dict(self._phases)
        for po in pos:
            if po not in new:
                raise PhaseError(f"unknown output {po!r}")
            new[po] = new[po].flipped
        # every value is a Phase already: skip the constructor's check
        copy = PhaseAssignment.__new__(PhaseAssignment)
        copy._phases = new
        return copy

    # Introspection --------------------------------------------------------
    def negative_outputs(self) -> List[str]:
        return [po for po, ph in self._phases.items() if ph is Phase.NEGATIVE]

    def positive_outputs(self) -> List[str]:
        return [po for po, ph in self._phases.items() if ph is Phase.POSITIVE]

    def as_bits(self, outputs: Sequence[str]) -> int:
        """Encode to a bitmask over the given output ordering."""
        bits = 0
        for i, po in enumerate(outputs):
            if self[po] is Phase.NEGATIVE:
                bits |= 1 << i
        return bits

    def __repr__(self) -> str:
        items = ", ".join(f"{po}{ph.value}" for po, ph in sorted(self._phases.items()))
        return f"PhaseAssignment({items})"


def enumerate_assignments(outputs: Sequence[str]) -> Iterator[PhaseAssignment]:
    """Yield all 2^n phase assignments over ``outputs`` (careful: exponential)."""
    for bits in range(1 << len(outputs)):
        yield PhaseAssignment.from_bits(outputs, bits)
