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

Every arrival pass walks the design's :class:`CompiledNetlist`, built
once when the design is mapped: no pass re-derives the topological
order or the fanout map.  Only the size factors change between the
passes of one resize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.domino.mapper import CompiledNetlist, MappedDesign


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
    compiled = design.compiled
    arrival, pred = _arrivals(design)
    critical_delay, path = _critical_path(compiled, arrival, pred)
    names = compiled.names
    return TimingReport(
        arrival={names[i]: arrival[i] for i in compiled.order},
        critical_delay=critical_delay,
        critical_path=path,
    )


def _arrivals(design: MappedDesign) -> Tuple[List[float], List[Optional[int]]]:
    """Arrival time and worst fanin of every node, by compiled index.

    A cell's delay is ``cell.delay(load, size)``, its load the sized
    input caps of its sinks summed in fanout order; its worst fanin is
    the *last* one of the latest arrival (``>=``).  A node without a
    cell passes on its latest fanin, the first one on a tie, or 0.0
    when it has none (sources and latch outputs).
    """
    compiled = design.compiled
    sizes = design.size_factors
    names = compiled.names
    fanins = compiled.fanins
    cells = compiled.cells
    loads = compiled.loads
    arrival = [0.0] * len(names)
    pred: List[Optional[int]] = [None] * len(names)
    for i in compiled.order:
        cell = cells[i]
        if cell is None:  # source, latch output or BUF feedthrough
            best: Optional[int] = None
            for fi in fanins[i]:
                if best is None or arrival[fi] > arrival[best]:
                    best = fi
            if best is not None:
                arrival[i] = arrival[best]
                pred[i] = best
            continue
        load = 0.0
        for sink, input_cap in loads[i]:
            load += input_cap * sizes[sink]
        delay = cell.delay(load, sizes[names[i]])
        worst_in = 0.0
        worst_fi: Optional[int] = None
        for fi in fanins[i]:
            if arrival[fi] >= worst_in:
                worst_in = arrival[fi]
                worst_fi = fi
        arrival[i] = worst_in + delay
        pred[i] = worst_fi
    return arrival, pred


def _critical_path(
    compiled: CompiledNetlist, arrival: List[float], pred: List[Optional[int]]
) -> Tuple[float, List[str]]:
    """Critical delay and path: the first latest endpoint in output
    order, traced back through the worst fanins."""
    if not compiled.endpoints:
        return 0.0, []
    end = max(compiled.endpoints, key=arrival.__getitem__)
    path: List[str] = []
    cur: Optional[int] = end
    while cur is not None:
        path.append(compiled.names[cur])
        cur = pred[cur]
    path.reverse()
    return arrival[end], path


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

    critical_delay, path = _critical_path(design.compiled, *_arrivals(design))
    initial = critical_delay
    iterations = 0
    touched: set = set()
    while critical_delay > target_delay and iterations < max_iterations:
        iterations += 1
        progressed = False
        for name in path:
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
        critical_delay, path = _critical_path(design.compiled, *_arrivals(design))
    return ResizeResult(
        met_timing=critical_delay <= target_delay,
        target=target_delay,
        initial_delay=initial,
        final_delay=critical_delay,
        iterations=iterations,
        upsized_cells=len(touched),
    )


def default_timing_target(design: MappedDesign, slack_fraction: float = 0.85) -> float:
    """A "realistic timing constraint": a fraction of the unsized critical
    delay, forcing the resizer to actually work (as in Table 2)."""
    critical_delay, _ = _critical_path(design.compiled, *_arrivals(design))
    if critical_delay == 0.0:
        return 1.0
    return critical_delay * slack_fraction
