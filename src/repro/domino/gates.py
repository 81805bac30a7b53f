"""Parametric domino cell library.

The paper maps to a proprietary Intel cell library; we substitute a
parametric one.  A domino AND keeps its N-transistor pulldown in
series, so wide ANDs are slow (the paper's P_i penalty exists for this
reason) and the library caps AND fanin harder than OR fanin.  Every
domino cell also presents a clock load (precharge + evaluate devices)
that switches every single cycle — the main reason domino logic costs
up to 4x static power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.network.netlist import GateType


@dataclass(frozen=True)
class DominoCell:
    """One library cell."""

    name: str
    gate_type: GateType  # AND, OR for domino cells; NOT for the static inverter
    n_inputs: int
    output_cap: float  # dynamic-node + buffer output capacitance
    clock_cap: float  # per-cycle clock pin load (0 for static cells)
    intrinsic_delay: float
    series_delay: float  # extra delay per series transistor beyond the first
    load_delay: float  # delay per unit of fanout capacitance
    input_cap: float  # load presented to each driver

    @property
    def is_domino(self) -> bool:
        return self.clock_cap > 0.0

    def delay(self, fanout_cap: float, size_factor: float = 1.0) -> float:
        """Cell delay under a fanout load, with optional upsizing.

        Upsizing by ``size_factor`` strengthens drive: the external-load
        term divides by the size, and the intrinsic/stack term shrinks
        partially (parasitic self-load scales with the devices, so only
        ~60% of it is irreducible).
        """
        if size_factor <= 0:
            raise ReproError(f"size factor must be positive, got {size_factor}")
        stack = self.series_delay * max(self.n_inputs - 1, 0) if (
            self.gate_type is GateType.AND
        ) else 0.0
        self_delay = (self.intrinsic_delay + stack) * (0.6 + 0.4 / size_factor)
        return self_delay + self.load_delay * fanout_cap / size_factor


@dataclass
class DominoCellLibrary:
    """A generated family of domino AND/OR cells plus a static inverter.

    Parameters mirror a simplified transistor-level view:

    * ``max_and_fanin`` — series-stack limit for domino AND pulldowns;
    * ``max_or_fanin`` — parallel-stack limit for domino OR pulldowns;
    * capacitances and delays are per-unit numbers the mapper and timing
      engine consume.
    """

    max_and_fanin: int = 4
    max_or_fanin: int = 8
    gate_output_cap: float = 1.0
    cap_per_input: float = 0.15
    clock_cap: float = 0.25
    inverter_cap: float = 0.6
    intrinsic_delay: float = 1.0
    series_delay: float = 0.45
    load_delay: float = 0.35
    input_cap: float = 0.3
    inverter_delay: float = 0.55

    def __post_init__(self) -> None:
        if self.max_and_fanin < 2 or self.max_or_fanin < 2:
            raise ReproError("cell fanin limits must be at least 2")
        self._cache: Dict[Tuple[GateType, int], DominoCell] = {}

    def max_fanin(self, gate_type: GateType) -> int:
        if gate_type is GateType.AND:
            return self.max_and_fanin
        if gate_type is GateType.OR:
            return self.max_or_fanin
        raise ReproError(f"no domino cell family for gate type {gate_type.value}")

    def cell(self, gate_type: GateType, n_inputs: int) -> DominoCell:
        """Domino cell for a gate of the given type and fanin.

        ``n_inputs`` must not exceed the family limit; the mapper
        decomposes wider gates into trees first.
        """
        if gate_type not in (GateType.AND, GateType.OR):
            raise ReproError(f"no domino cell for gate type {gate_type.value}")
        if n_inputs < 1:
            raise ReproError("cell needs at least one input")
        if n_inputs > self.max_fanin(gate_type):
            raise ReproError(
                f"{gate_type.value}{n_inputs} exceeds library limit "
                f"{self.max_fanin(gate_type)}"
            )
        key = (gate_type, n_inputs)
        cell = self._cache.get(key)
        if cell is None:
            prefix = "DAND" if gate_type is GateType.AND else "DOR"
            # setdefault keeps the insert atomic (first writer wins), so
            # flows mapping on several threads of one process always see
            # one identity per cell (the library cannot carry a lock:
            # it is pickled into pool workers with its config)
            cell = self._cache.setdefault(
                key,
                DominoCell(
                    name=f"{prefix}{n_inputs}",
                    gate_type=gate_type,
                    n_inputs=n_inputs,
                    output_cap=self.gate_output_cap + self.cap_per_input * n_inputs,
                    clock_cap=self.clock_cap,
                    intrinsic_delay=self.intrinsic_delay,
                    series_delay=self.series_delay,
                    load_delay=self.load_delay,
                    input_cap=self.input_cap,
                ),
            )
        return cell

    @property
    def inverter(self) -> DominoCell:
        """The static boundary inverter cell."""
        key = (GateType.NOT, 1)
        cell = self._cache.get(key)
        if cell is None:
            cell = self._cache.setdefault(
                key,
                DominoCell(
                    name="SINV",
                    gate_type=GateType.NOT,
                    n_inputs=1,
                    output_cap=self.inverter_cap,
                    clock_cap=0.0,
                    intrinsic_delay=self.inverter_delay,
                    series_delay=0.0,
                    load_delay=self.load_delay,
                    input_cap=self.input_cap,
                ),
            )
        return cell

    def tree_arity_plan(self, gate_type: GateType, n_inputs: int) -> List[int]:
        """Fanin sizes of a balanced cell tree realising a wide gate.

        Returns the list of leaf-level group sizes for one reduction
        step; the mapper applies this recursively.
        """
        limit = self.max_fanin(gate_type)
        if n_inputs <= limit:
            return [n_inputs]
        groups: List[int] = []
        remaining = n_inputs
        while remaining > 0:
            take = min(limit, remaining)
            # Avoid a trailing 1-input group: rebalance the final pair.
            if remaining - take == 1 and take > 2:
                take -= 1
            groups.append(take)
            remaining -= take
        return groups


DEFAULT_LIBRARY = DominoCellLibrary()
