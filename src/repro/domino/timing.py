"""Static timing analysis and transistor-resizing emulation.

The Table 2 experiment reruns the synthesis flow "with an additional
step of transistor resizing (after technology mapping) in order to meet
realistic timing constraints", asking whether timing repair undoes the
power-oriented phase assignment.  We reproduce that with:

* a stack-and-load delay model per cell (series transistors in domino
  ANDs cost extra delay — the physical basis of the paper's P_i
  penalty);
* topological arrival-time analysis;
* an iterative upsizing loop: while the critical delay misses the
  target, upsize the cells on the critical path (drive strength up,
  input/clock/output capacitance up), which feeds directly back into
  the Monte-Carlo power measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import TimingError
from repro.network.netlist import GateType, LogicNetwork
from repro.domino.mapper import MappedDesign


@dataclass
class TimingReport:
    """Arrival-time analysis of a mapped design."""

    arrival: Dict[str, float]
    critical_delay: float
    critical_path: List[str]

    def slack(self, target: float) -> float:
        return target - self.critical_delay


def analyze_timing(design: MappedDesign) -> TimingReport:
    """Topological arrival-time computation over the mapped network."""
    net = design.network
    return _arrival_times(design, net.topological_order(), net.fanout_map())


def _arrival_times(
    design: MappedDesign, order: Sequence[str], fanouts: Mapping[str, List[str]]
) -> TimingReport:
    """:func:`analyze_timing` over a precomputed topological order and
    fanout map of ``design.network``."""
    net = design.network
    arrival: Dict[str, float] = {}
    best_pred: Dict[str, Optional[str]] = {}
    for name in order:
        node = net.nodes[name]
        t = node.gate_type
        if t.is_source or t is GateType.LATCH:
            arrival[name] = 0.0
            best_pred[name] = None
            continue
        cell = design.cells.get(name)
        if cell is None:  # BUF feedthrough
            arrival[name] = max((arrival[fi] for fi in node.fanins), default=0.0)
            best_pred[name] = max(
                node.fanins, key=lambda fi: arrival[fi], default=None
            )
            continue
        load = design.fanout_load(name, fanouts)
        delay = cell.delay(load, design.size_factors[name])
        worst_in = 0.0
        worst_fi: Optional[str] = None
        for fi in node.fanins:
            if arrival[fi] >= worst_in:
                worst_in = arrival[fi]
                worst_fi = fi
        arrival[name] = worst_in + delay
        best_pred[name] = worst_fi

    endpoints = [driver for _, driver in net.outputs]
    endpoints.extend(latch.fanins[0] for latch in net.latches)
    if not endpoints:
        return TimingReport(arrival=arrival, critical_delay=0.0, critical_path=[])
    end = max(endpoints, key=lambda e: arrival[e])
    path: List[str] = []
    cur: Optional[str] = end
    while cur is not None:
        path.append(cur)
        cur = best_pred.get(cur)
    path.reverse()
    return TimingReport(
        arrival=arrival, critical_delay=arrival[end], critical_path=path
    )


@dataclass
class ResizeResult:
    """Outcome of the timing-repair loop."""

    met_timing: bool
    target: float
    initial_delay: float
    final_delay: float
    iterations: int
    upsized_cells: int

    @property
    def improvement(self) -> float:
        return self.initial_delay - self.final_delay


def resize_to_meet_timing(
    design: MappedDesign,
    target_delay: float,
    step: float = 1.2,
    max_size: float = 4.0,
    max_iterations: int = 200,
) -> ResizeResult:
    """Upsize critical-path cells until the design meets ``target_delay``.

    Mutates ``design.size_factors`` in place.  Each iteration multiplies
    the size of every not-yet-maxed cell on the current critical path by
    ``step``; the loop stops when timing is met, every critical cell is
    at ``max_size``, or ``max_iterations`` is hit.
    """
    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    if step <= 1.0:
        raise TimingError(f"resize step must exceed 1.0, got {step}")

    # Resizing changes only size factors, never the network.
    order = design.network.topological_order()
    fanouts = design.network.fanout_map()
    report = _arrival_times(design, order, fanouts)
    initial = report.critical_delay
    iterations = 0
    touched: set = set()
    while report.critical_delay > target_delay and iterations < max_iterations:
        iterations += 1
        progressed = False
        for name in report.critical_path:
            if name not in design.cells:
                continue
            current = design.size_factors[name]
            if current >= max_size:
                continue
            design.size_factors[name] = min(current * step, max_size)
            touched.add(name)
            progressed = True
        if not progressed:
            break
        report = _arrival_times(design, order, fanouts)
    return ResizeResult(
        met_timing=report.critical_delay <= target_delay,
        target=target_delay,
        initial_delay=initial,
        final_delay=report.critical_delay,
        iterations=iterations,
        upsized_cells=len(touched),
    )


def default_timing_target(design: MappedDesign, slack_fraction: float = 0.85) -> float:
    """A "realistic timing constraint": a fraction of the unsized critical
    delay, forcing the resizer to actually work (as in Table 2)."""
    report = analyze_timing(design)
    if report.critical_delay == 0.0:
        return 1.0
    return report.critical_delay * slack_fraction
