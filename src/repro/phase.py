"""Output phase assignments.

A *phase assignment* maps every primary output of a network to a phase:

* ``POSITIVE`` — no inverter at the domino block boundary; the block
  itself produces the output value.
* ``NEGATIVE`` — a static inverter sits at the boundary; the block
  produces the complement and the inverter restores the logical value.

As the paper stresses, a negative phase does **not** change the output's
logical polarity — only where (and whether) a boundary inverter appears.

Representation: a :class:`PhaseAssignment` is a tuple of output names,
a name → position map over that tuple, and one int whose bit ``i`` is
set when output ``i`` is negative.  Every assignment derived from
another (:meth:`~PhaseAssignment.flipped`,
:meth:`~PhaseAssignment.with_phase`, :func:`enumerate_assignments`)
shares its tuple and map, so a search move is one int XOR and
:meth:`~PhaseAssignment.as_bits` in the assignment's own order hands
back that int as it is.
"""

from __future__ import annotations

import enum
import random as _random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

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
    """Immutable mapping from primary-output name to :class:`Phase`,
    iterated in output order and stored as a bitmask (bit set =
    negative) over that order."""

    __slots__ = ("_outputs", "_index", "_bits")

    _outputs: Tuple[str, ...]
    _index: Dict[str, int]
    _bits: int

    def __init__(self, phases: Mapping[str, Phase]):
        items = list(phases.items())
        bits = 0
        for i, (po, ph) in enumerate(items):
            if not isinstance(ph, Phase):
                raise PhaseError(f"phase of {po!r} must be a Phase, got {ph!r}")
            if ph is Phase.NEGATIVE:
                bits |= 1 << i
        self._outputs = tuple(po for po, _ in items)
        self._index = {po: i for i, po in enumerate(self._outputs)}
        self._bits = bits

    @classmethod
    def _over(cls, outputs: Iterable[str], bits: int) -> "PhaseAssignment":
        """Assignment over ``outputs`` (kept as is when already a tuple,
        so assignments built from one evaluator's outputs share it)."""
        order = outputs if type(outputs) is tuple else tuple(outputs)
        index = {po: i for i, po in enumerate(order)}
        if len(index) != len(order):
            raise PhaseError(f"repeated output names in {list(order)!r}")
        new = cls.__new__(cls)
        new._outputs = order
        new._index = index
        new._bits = bits & ((1 << len(order)) - 1)
        return new

    def _derive(self, bits: int) -> "PhaseAssignment":
        """Same outputs, tuple and map; ``bits`` already in range."""
        new = PhaseAssignment.__new__(PhaseAssignment)
        new._outputs = self._outputs
        new._index = self._index
        new._bits = bits
        return new

    def _position(self, po: str) -> int:
        try:
            return self._index[po]
        except KeyError:
            raise PhaseError(f"unknown output {po!r}") from None

    # Mapping interface -------------------------------------------------
    def __getitem__(self, po: str) -> Phase:
        try:
            i = self._index[po]
        except KeyError:
            raise PhaseError(f"no phase assigned to output {po!r}") from None
        return Phase.NEGATIVE if self._bits >> i & 1 else Phase.POSITIVE

    def __contains__(self, po: object) -> bool:
        return po in self._index

    def get(self, po: str, default: Optional[Phase] = None) -> Optional[Phase]:
        return self[po] if po in self._index else default

    def __iter__(self) -> Iterator[str]:
        return iter(self._outputs)

    def __len__(self) -> int:
        return len(self._outputs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseAssignment):
            return NotImplemented
        if self._outputs is other._outputs:
            return self._bits == other._bits
        return (
            self._index.keys() == other._index.keys()
            and other.as_bits(self._outputs) == self._bits
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._outputs), frozenset(self.negative_outputs())))

    def __reduce__(self):
        return (PhaseAssignment.from_bits, (self._outputs, self._bits))

    # Constructors -------------------------------------------------------
    @classmethod
    def all_positive(cls, outputs: Iterable[str]) -> "PhaseAssignment":
        return cls._over(outputs, 0)

    @classmethod
    def all_negative(cls, outputs: Iterable[str]) -> "PhaseAssignment":
        return cls._over(outputs, -1)

    @classmethod
    def from_bits(cls, outputs: Sequence[str], bits: int) -> "PhaseAssignment":
        """Assignment from an integer bitmask; bit i set => output i negative."""
        return cls._over(outputs, bits)

    @classmethod
    def random(cls, outputs: Sequence[str], seed: int = 0) -> "PhaseAssignment":
        rng = _random.Random(seed)
        bits = 0
        for i in range(len(outputs)):
            if rng.choice((Phase.POSITIVE, Phase.NEGATIVE)) is Phase.NEGATIVE:
                bits |= 1 << i
        return cls._over(outputs, bits)

    # Derivation ----------------------------------------------------------
    def with_phase(self, po: str, phase: Phase) -> "PhaseAssignment":
        i = self._position(po)
        if not isinstance(phase, Phase):
            raise PhaseError(f"phase of {po!r} must be a Phase, got {phase!r}")
        if phase is Phase.NEGATIVE:
            return self._derive(self._bits | 1 << i)
        return self._derive(self._bits & ~(1 << i))

    def flipped(self, *pos: str) -> "PhaseAssignment":
        """Return a copy with the listed outputs' phases inverted (an
        output listed twice is inverted twice)."""
        bits = self._bits
        for po in pos:
            bits ^= 1 << self._position(po)
        return self._derive(bits)

    # Introspection --------------------------------------------------------
    def negative_outputs(self) -> List[str]:
        bits = self._bits
        return [po for i, po in enumerate(self._outputs) if bits >> i & 1]

    def as_bits(self, outputs: Sequence[str]) -> int:
        """Encode to a bitmask over the given output ordering (the
        stored int itself when that is this assignment's own order)."""
        if outputs is self._outputs or tuple(outputs) == self._outputs:
            return self._bits
        bits = 0
        for i, po in enumerate(outputs):
            if self[po] is Phase.NEGATIVE:
                bits |= 1 << i
        return bits

    def __repr__(self) -> str:
        items = ", ".join(f"{po}{ph.value}" for po, ph in sorted(self.items()))
        return f"PhaseAssignment({items})"


def enumerate_assignments(outputs: Sequence[str]) -> Iterator[PhaseAssignment]:
    """Yield all 2^n phase assignments over ``outputs`` (careful: exponential)."""
    base = PhaseAssignment.all_positive(outputs)
    for bits in range(1 << len(base)):
        yield base._derive(bits)
