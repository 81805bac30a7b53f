"""Shared, importable test helpers.

Plain module (not a conftest) so test files can import it without
relying on pytest's rootdir-relative ``conftest`` module name, which
collides with ``benchmarks/conftest.py`` when both directories are
collected in one run.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.cost import COMBOS, CostModelData, Move
from repro.domino.gates import DEFAULT_LIBRARY
from repro.domino.mapper import CompiledNetlist, MappedDesign
from repro.domino.timing import ResizeResult, TimingReport
from repro.errors import NetworkError, PhaseError, PowerError, ReproError
from repro.network.blif import write_blif
from repro.network.duplication import (
    DominoGate,
    DominoImplementation,
    Polarity,
    PolaritySpace,
    Ref,
)
from repro.network.minimize import MinimizationResult
from repro.network.netlist import GateType, LogicNetwork, SopCover
from repro.network.ops import cleanup, to_aoi
from repro.network.topo import depth as network_depth
from repro.optimize.base import CommitRecord
from repro.phase import Phase, PhaseAssignment
from repro.power.estimator import DominoPowerModel
from repro.power.glitch import GlitchReport
from repro.power.probability import random_source_batch
from repro.power.simulator import SimulatedPower


def hang_prepare(monkeypatch, block) -> None:
    """Patch the flow so the circuit named ``"hang"`` calls ``block()``
    before its prepare stage.  Pool workers started afterwards fork with
    the patch in place."""
    from repro.core import pipeline as pipeline_mod

    real_prepare = pipeline_mod._stage_prepare

    def slow_prepare(ctx):
        if ctx.network.name == "hang":
            block()
        return real_prepare(ctx)

    monkeypatch.setattr(pipeline_mod, "_stage_prepare", slow_prepare)
    monkeypatch.setitem(pipeline_mod._STAGE_TABLE, "prepare", (slow_prepare, "aoi"))


def all_input_vectors(names):
    """All boolean assignments over the given input names."""
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def small_pool_blif(index: int) -> str:
    """BLIF text of a small generated circuit (2..8 outputs), built the
    way perfbench's small pool builds circuit ``index``."""
    rng = random.Random(index)
    n_outputs = rng.randint(2, 8)
    config = GeneratorConfig(
        n_inputs=rng.randint(8, 24),
        n_outputs=n_outputs,
        n_gates=rng.randint(4, 10) * n_outputs,
        seed=index,
    )
    return write_blif(random_control_network(f"S{index}", config))


def large_pool_network(seed: int) -> LogicNetwork:
    """A 56-output generated circuit, built the way perfbench's large
    pool builds circuit ``L<seed>`` and prepared (AOI, cleaned up)."""
    config = GeneratorConfig(
        n_inputs=92, n_outputs=56, n_gates=550, seed=seed,
        support_size=12, or_probability=0.45,
    )
    return cleanup(to_aoi(random_control_network(f"L{seed}", config)))


def ranked_pairs(data):
    """Row-major indices ``i * P + j`` of the pairs ``i < j`` in the order
    ``max_pairs`` keeps them: highest overlap-weighted cone size first,
    lowest index on a tie.  Each item is ``(-score, index)``."""
    n = len(data.outputs)
    return sorted(
        (-(data.overlap[i, j] * (data.sizes[i] + data.sizes[j])), i * n + j)
        for i in range(n)
        for j in range(i + 1, n)
    )


# ----------------------------------------------------------------------
# Reference two-level minimiser: the string-cube Quine–McCluskey that
# repro.network.minimize replaced.  Its results, order included, are
# what the bitmask minimiser must reproduce.


def bitset(minterms: Iterable[int]) -> int:
    """The on-set bitset of a set of minterm indices."""
    bits = 0
    for m in minterms:
        bits |= 1 << m
    return bits


def cube_minterms(cube: str) -> Iterable[int]:
    """All minterm indices covered by a cube (LSB = position 0)."""
    dash_positions = [i for i, c in enumerate(cube) if c == "-"]
    base = 0
    for i, c in enumerate(cube):
        if c == "1":
            base |= 1 << i
    for mask in range(1 << len(dash_positions)):
        m = base
        for k, pos in enumerate(dash_positions):
            if (mask >> k) & 1:
                m |= 1 << pos
        yield m


def merge_cubes(a: str, b: str) -> Optional[str]:
    """Merge two cubes differing in exactly one specified literal."""
    diff = -1
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            if ca == "-" or cb == "-" or diff >= 0:
                return None
            diff = i
    if diff < 0:
        return None
    return a[:diff] + "-" + a[diff + 1 :]


def reference_prime_implicants(minterms: Set[int], n_vars: int) -> List[str]:
    """Prime implicants of the on-set via iterative cube merging."""
    if not minterms:
        return []
    current: Set[str] = {
        "".join("1" if (m >> i) & 1 else "0" for i in range(n_vars))
        for m in minterms
    }
    primes: Set[str] = set()
    while current:
        merged: Set[str] = set()
        used: Set[str] = set()
        cubes = sorted(current)
        by_ones: Dict[int, List[str]] = {}
        for cube in cubes:
            by_ones.setdefault(cube.count("1"), []).append(cube)
        for ones, group in sorted(by_ones.items()):
            for other in by_ones.get(ones + 1, []):
                for cube in group:
                    m = merge_cubes(cube, other)
                    if m is not None:
                        merged.add(m)
                        used.add(cube)
                        used.add(other)
        primes |= current - used
        current = merged
    return sorted(primes)


def reference_minimum_cover(minterms: Set[int], primes: Sequence[str]) -> List[str]:
    """Greedy prime cover with essential-prime extraction."""
    if not minterms:
        return []
    coverage: Dict[str, Set[int]] = {
        p: set(cube_minterms(p)) & minterms for p in primes
    }
    remaining = set(minterms)
    chosen: List[str] = []

    # Essential primes: minterms covered by exactly one prime.
    for m in sorted(minterms):
        covering = [p for p in primes if m in coverage[p]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
            remaining -= coverage[covering[0]]

    # Greedy cover of the rest.
    while remaining:
        best = max(primes, key=lambda p: (len(coverage[p] & remaining), -p.count("-")))
        gain = coverage[best] & remaining
        if not gain:
            raise NetworkError("prime cover failed to make progress")
        chosen.append(best)
        remaining -= gain
    return chosen


def _literals(cubes: Iterable[str]) -> int:
    return sum(len(c) - c.count("-") for c in cubes)


def reference_minimize_cover(
    cover: SopCover, n_inputs: int, max_inputs: int = 12
) -> MinimizationResult:
    """``minimize_cover`` as the string implementation computed it."""
    original = MinimizationResult(
        cover=cover,
        original_cubes=len(cover.cubes),
        minimized_cubes=len(cover.cubes),
        original_literals=_literals(cover.cubes),
        minimized_literals=_literals(cover.cubes),
    )
    if n_inputs == 0 or n_inputs > max_inputs:
        return original

    minterms: Set[int] = set()
    for cube in cover.cubes:
        minterms |= set(cube_minterms(cube))
    if cover.output_value == "0":
        minterms = set(range(1 << n_inputs)) - minterms

    primes = reference_prime_implicants(minterms, n_vars=n_inputs)
    chosen = reference_minimum_cover(minterms, primes)
    new_cover = SopCover(cubes=chosen, output_value="1")

    if (len(chosen), _literals(chosen)) >= (
        original.original_cubes,
        original.original_literals,
    ) and cover.output_value == "1":
        return original
    return MinimizationResult(
        cover=new_cover,
        original_cubes=original.original_cubes,
        minimized_cubes=len(chosen),
        original_literals=original.original_literals,
        minimized_literals=_literals(chosen),
    )


# ----------------------------------------------------------------------
# Reference structural walk: the per-visit ``_comb_fanins`` DFS that
# LogicNetwork.topological_order and the cycle check of validate() used
# before they shared one post-order walk.

_COMB_SOURCES = (GateType.INPUT, GateType.CONST0, GateType.CONST1, GateType.LATCH)


def _reference_comb_fanins(network: LogicNetwork, name: str) -> List[str]:
    node = network.nodes[name]
    if node.gate_type in _COMB_SOURCES:
        return []
    return node.fanins


def reference_topological_order(network: LogicNetwork) -> List[str]:
    order: List[str] = []
    visited: Dict[str, int] = {}
    for root in network.nodes:
        if root in visited:
            continue
        stack: List[Tuple[str, Iterator[str]]] = [
            (root, iter(_reference_comb_fanins(network, root)))
        ]
        visited[root] = 1
        while stack:
            name, it = stack[-1]
            advanced = False
            for fi in it:
                if fi not in visited:
                    visited[fi] = 1
                    stack.append((fi, iter(_reference_comb_fanins(network, fi))))
                    advanced = True
                    break
            if not advanced:
                order.append(name)
                stack.pop()
    return order


def reference_check_acyclic(network: LogicNetwork) -> None:
    """The old three-colour cycle check; raises :class:`NetworkError`."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in network.nodes}
    for start in network.nodes:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[str, Iterator[str]]] = [
            (start, iter(_reference_comb_fanins(network, start)))
        ]
        color[start] = GRAY
        while stack:
            name, it = stack[-1]
            advanced = False
            for fi in it:
                if color[fi] == GRAY:
                    raise NetworkError(f"combinational cycle through node {fi!r}")
                if color[fi] == WHITE:
                    color[fi] = GRAY
                    stack.append((fi, iter(_reference_comb_fanins(network, fi))))
                    advanced = True
                    break
            if not advanced:
                color[name] = BLACK
                stack.pop()


# ----------------------------------------------------------------------
# Reference simulators: the numpy bool-array bodies that the packed-word
# simulator replaced.  Every rate they give is a float64 mean of 0/1
# values, which the bit counts must equal exactly.


def _reference_sop_batch(node, fanin_arrays: List[np.ndarray], batch: int) -> np.ndarray:
    cover = node.cover
    acc = np.zeros(batch, dtype=bool)
    for cube in cover.cubes:
        term = np.ones(batch, dtype=bool)
        for lit, arr in zip(cube, fanin_arrays):
            if lit == "1":
                term &= arr
            elif lit == "0":
                term &= ~arr
        acc |= term
    if cover.output_value == "0":
        acc = ~acc
    return acc


def reference_simulate_batch(
    network: LogicNetwork, source_values: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    values: Dict[str, np.ndarray] = {}
    batch = None
    for name, arr in source_values.items():
        arr = np.asarray(arr, dtype=bool)
        values[name] = arr
        batch = len(arr) if batch is None else batch
        if len(arr) != batch:
            raise PowerError("inconsistent batch sizes in source_values")
    if batch is None:
        raise PowerError("no source values supplied")

    for name in reference_topological_order(network):
        if name in values:
            continue
        node = network.nodes[name]
        t = node.gate_type
        if t is GateType.INPUT or t is GateType.LATCH:
            raise PowerError(f"missing batch values for source {name!r}")
        if t is GateType.CONST0:
            values[name] = np.zeros(batch, dtype=bool)
            continue
        if t is GateType.CONST1:
            values[name] = np.ones(batch, dtype=bool)
            continue
        fanin_arrays = [values[fi] for fi in node.fanins]
        if t is GateType.BUF:
            values[name] = fanin_arrays[0]
        elif t is GateType.NOT:
            values[name] = ~fanin_arrays[0]
        elif t is GateType.AND:
            values[name] = np.logical_and.reduce(fanin_arrays)
        elif t is GateType.OR:
            values[name] = np.logical_or.reduce(fanin_arrays)
        elif t is GateType.NAND:
            values[name] = ~np.logical_and.reduce(fanin_arrays)
        elif t is GateType.NOR:
            values[name] = ~np.logical_or.reduce(fanin_arrays)
        elif t is GateType.XOR:
            values[name] = np.logical_xor.reduce(fanin_arrays)
        elif t is GateType.XNOR:
            values[name] = ~np.logical_xor.reduce(fanin_arrays)
        elif t is GateType.MUX:
            sel, d0, d1 = fanin_arrays
            values[name] = np.where(sel, d1, d0)
        elif t is GateType.SOP:
            values[name] = _reference_sop_batch(node, fanin_arrays, batch)
        else:
            raise PowerError(f"cannot simulate node {name} of type {t.value}")
    return values


def reference_monte_carlo_probabilities(
    network: LogicNetwork, input_probs: Mapping[str, float], n_vectors: int, seed: int
) -> Dict[str, float]:
    batch = random_source_batch(network, input_probs, n_vectors, seed)
    values = reference_simulate_batch(network, batch)
    return {name: float(arr.mean()) for name, arr in values.items()}


def reference_simulate_mapped_power(
    design,
    input_probs: Optional[Mapping[str, float]] = None,
    n_vectors: int = 4096,
    seed: int = 0,
    current_scale: float = 1.0,
) -> Dict[str, float]:
    net = design.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in net.sources()}
    batch = random_source_batch(net, input_probs, n_vectors, seed)
    values = reference_simulate_batch(net, batch)

    domino_energy = 0.0
    clock_energy = 0.0
    static_energy = 0.0
    for node in net.gates:
        cell = design.cells.get(node.name)
        if cell is None:
            continue
        arr = values[node.name]
        cap = cell.output_cap * design.size_factors[node.name]
        if cell.is_domino:
            domino_energy += float(arr.mean()) * cap
            clock_energy += cell.clock_cap * design.size_factors[node.name]
        else:
            driver = net.nodes[node.fanins[0]]
            if driver.gate_type in (GateType.INPUT, GateType.LATCH):
                toggles = float(np.mean(arr[1:] != arr[:-1])) if len(arr) > 1 else 0.0
                static_energy += toggles * cap
            else:
                drv = values[node.fanins[0]]
                static_energy += float(drv.mean()) * cap
    total = domino_energy + clock_energy + static_energy
    return {
        "domino": domino_energy,
        "clock": clock_energy,
        "static": static_energy,
        "total": total,
        "current_ma": total * current_scale,
    }


def reference_sequential_power(
    simulator,
    input_probs: Optional[Mapping[str, float]] = None,
    n_cycles: int = 1024,
    n_streams: int = 32,
    seed: int = 0,
    warmup: int = 16,
) -> Dict[str, float]:
    """``SequentialPowerSimulator.run`` on bool arrays."""
    net = simulator.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in net.inputs}
    rng = np.random.default_rng(seed)
    state = {
        latch.name: np.full(n_streams, latch.init_value == 1, dtype=bool)
        for latch in net.latches
    }
    fire_sums: Dict[str, float] = {n.name: 0.0 for n in net.gates}
    counted = 0
    for cycle in range(n_cycles + warmup):
        sources: Dict[str, np.ndarray] = {}
        for name in net.inputs:
            p = input_probs.get(name, 0.5)
            sources[name] = rng.random(n_streams) < p
        sources.update(state)
        values = reference_simulate_batch(net, sources)
        if cycle >= warmup:
            counted += 1
            for gate in net.gates:
                fire_sums[gate.name] += float(values[gate.name].mean())
        state = {latch.name: values[latch.fanins[0]] for latch in net.latches}
    rates = {name: s / max(counted, 1) for name, s in fire_sums.items()}
    energy = 0.0
    for gate in net.gates:
        cap = simulator.model.gate_factor(gate.gate_type, len(gate.fanins))
        energy += rates[gate.name] * cap
    rates["__energy__"] = energy
    return rates


def unpack_word(word: int, n_vectors: int) -> np.ndarray:
    """The boolean array of ``n_vectors`` elements a word packs."""
    raw = np.frombuffer(word.to_bytes((n_vectors + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_vectors, bitorder="little").view(bool)


def _reference_ref_values(
    ref: Ref,
    source_arrays: Mapping[str, np.ndarray],
    gate_values: Mapping[Tuple[str, Polarity], np.ndarray],
    n: int,
) -> np.ndarray:
    if ref.kind == "const":
        return np.full(n, ref.value, dtype=bool)
    if ref.kind in ("input", "latch"):
        arr = source_arrays[ref.name]
        return ~arr if ref.polarity is Polarity.NEG else arr
    return gate_values[ref.key]


def reference_evaluate_implementation_batch(
    impl: DominoImplementation, source_arrays: Mapping[str, np.ndarray]
) -> Dict[Tuple[str, Polarity], np.ndarray]:
    """Every domino gate of ``impl`` over a vector batch, as bool arrays."""
    n = len(next(iter(source_arrays.values())))
    gate_values: Dict[Tuple[str, Polarity], np.ndarray] = {}
    for gate in impl.topological_gate_order():
        fanin_arrays = [
            _reference_ref_values(r, source_arrays, gate_values, n) for r in gate.fanins
        ]
        if gate.gate_type is GateType.AND:
            gate_values[gate.key] = np.logical_and.reduce(fanin_arrays)
        else:
            gate_values[gate.key] = np.logical_or.reduce(fanin_arrays)
    return gate_values


def reference_simulate_power(
    impl: DominoImplementation,
    input_probs: Optional[Mapping[str, float]] = None,
    model=None,
    n_vectors: int = 4096,
    seed: int = 0,
) -> SimulatedPower:
    """``simulate_power`` on bool arrays, input inverters summed in
    sorted name order."""
    model = model or DominoPowerModel()
    network = impl.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in network.sources()}
    source_arrays = random_source_batch(network, input_probs, n_vectors, seed)
    gate_values = reference_evaluate_implementation_batch(impl, source_arrays)

    domino_energy = 0.0
    for gate in impl.gates.values():
        cap = model.gate_factor(gate.gate_type, len(gate.fanins))
        domino_energy += float(gate_values[gate.key].mean()) * cap

    input_inv_energy = 0.0
    output_inv_energy = 0.0
    if model.include_boundary_inverters:
        for src in sorted(impl.input_inverters):
            arr = source_arrays[src]
            toggles = float(np.mean(arr[1:] != arr[:-1])) if len(arr) > 1 else 0.0
            input_inv_energy += toggles * model.inverter_cap
        for po in impl.output_inverters:
            arr = _reference_ref_values(
                impl.output_refs[po], source_arrays, gate_values, n_vectors
            )
            output_inv_energy += float(arr.mean()) * model.inverter_cap

    return SimulatedPower(
        domino_energy=domino_energy,
        input_inverter_energy=input_inv_energy,
        output_inverter_energy=output_inv_energy,
        clock_energy=model.clock_cap_per_gate * impl.n_gates,
        n_vectors=n_vectors,
        current_scale=model.current_scale,
    )


def reference_unit_delay_glitch_report(
    network: LogicNetwork,
    input_probs: Optional[Mapping[str, float]] = None,
    n_cycles: int = 1024,
    seed: int = 0,
) -> GlitchReport:
    """``unit_delay_glitch_report`` on bool arrays, one numpy operation
    per gate type, with constants held at their value in every frame."""
    if input_probs is None:
        input_probs = {pi: 0.5 for pi in network.inputs}
    batch = random_source_batch(network, input_probs, n_cycles, seed=seed)
    order = [
        name
        for name in network.topological_order()
        if not network.nodes[name].gate_type.is_source
    ]
    gates = [name for name in order if network.nodes[name].gate_type is not GateType.LATCH]

    settled = reference_simulate_batch(network, batch)
    zero_delay = 0.0
    for name in gates:
        arr = settled[name]
        zero_delay += float(np.sum(arr[1:] != arr[:-1]))

    n_pairs = n_cycles - 1
    current: Dict[str, np.ndarray] = {}
    for name in network.inputs:
        current[name] = batch[name][:-1].copy()
    for name in gates:
        current[name] = settled[name][:-1].copy()
    for node in network.nodes.values():
        if node.gate_type is GateType.CONST0 or node.gate_type is GateType.CONST1:
            current[node.name] = np.full(n_pairs, node.gate_type is GateType.CONST1)

    next_inputs = {name: batch[name][1:] for name in network.inputs}
    transitions: Dict[str, np.ndarray] = {
        name: np.zeros(n_pairs, dtype=np.int64) for name in gates
    }
    frames = network_depth(network) + 1
    for name in network.inputs:
        current[name] = next_inputs[name]
    for _frame in range(frames):
        new_values: Dict[str, np.ndarray] = {}
        for name in gates:
            node = network.nodes[name]
            fanin_arrays = [current[fi] for fi in node.fanins]
            t = node.gate_type
            if t is GateType.AND:
                val = np.logical_and.reduce(fanin_arrays)
            elif t is GateType.OR:
                val = np.logical_or.reduce(fanin_arrays)
            elif t is GateType.NOT:
                val = ~fanin_arrays[0]
            elif t is GateType.BUF:
                val = fanin_arrays[0]
            elif t is GateType.NAND:
                val = ~np.logical_and.reduce(fanin_arrays)
            elif t is GateType.NOR:
                val = ~np.logical_or.reduce(fanin_arrays)
            elif t is GateType.XOR:
                val = np.logical_xor.reduce(fanin_arrays)
            elif t is GateType.XNOR:
                val = ~np.logical_xor.reduce(fanin_arrays)
            elif t is GateType.MUX:
                sel, d0, d1 = fanin_arrays
                val = np.where(sel, d1, d0)
            elif t is GateType.SOP:
                val = _reference_sop_batch(node, fanin_arrays, n_pairs)
            else:
                raise PowerError(f"cannot glitch-simulate {t.value}")
            new_values[name] = val
        for name in gates:
            transitions[name] += (new_values[name] != current[name]).astype(np.int64)
            current[name] = new_values[name]

    unit_delay = float(sum(int(tr.sum()) for tr in transitions.values()))
    per_node = {}
    for name in gates:
        settled_changes = float(np.sum(settled[name][1:] != settled[name][:-1]))
        per_node[name] = (float(transitions[name].sum()) - settled_changes) / n_pairs
    return GlitchReport(
        zero_delay_transitions=zero_delay / n_pairs,
        unit_delay_transitions=unit_delay / n_pairs,
        per_node_glitches=per_node,
        n_cycles=n_cycles,
    )


def reference_domino_glitch_check(
    impl: DominoImplementation,
    input_probs: Optional[Mapping[str, float]] = None,
    n_cycles: int = 512,
    seed: int = 0,
) -> bool:
    """``domino_glitch_check`` on bool arrays: ``len(gates) + 1`` frames,
    each updating the gates in place in dependency order."""
    network = impl.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in network.sources()}
    batch = random_source_batch(network, input_probs, n_cycles, seed=seed)
    gate_order = impl.topological_gate_order()
    values = {gate.key: np.zeros(n_cycles, dtype=bool) for gate in gate_order}
    final = reference_evaluate_implementation_batch(impl, batch)
    for _frame in range(len(gate_order) + 1):
        for gate in gate_order:
            fanin_vals = [
                _reference_ref_values(ref, batch, values, n_cycles) for ref in gate.fanins
            ]
            if gate.gate_type is GateType.AND:
                new = np.logical_and.reduce(fanin_vals)
            else:
                new = np.logical_or.reduce(fanin_vals)
            if np.any(values[gate.key] & ~new):
                return False
            values[gate.key] = values[gate.key] | new
    return all(np.array_equal(values[key], arr) for key, arr in final.items())


# ----------------------------------------------------------------------
# Reference timing: the name-keyed arrival loop over a fresh topological
# order and fanout map, which the compiled netlist replaced.


def reference_analyze_timing(design) -> TimingReport:
    net = design.network
    fanouts = net.fanout_map()
    arrival: Dict[str, float] = {}
    best_pred: Dict[str, Optional[str]] = {}
    for name in reference_topological_order(net):
        node = net.nodes[name]
        t = node.gate_type
        if t in _COMB_SOURCES:
            arrival[name] = 0.0
            best_pred[name] = None
            continue
        cell = design.cells.get(name)
        if cell is None:  # BUF feedthrough
            arrival[name] = max((arrival[fi] for fi in node.fanins), default=0.0)
            best_pred[name] = max(node.fanins, key=lambda fi: arrival[fi], default=None)
            continue
        load = 0.0
        for sink in fanouts.get(name, []):
            sink_cell = design.cells.get(sink)
            if sink_cell is None:
                continue
            load += sink_cell.input_cap * design.size_factors[sink]
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
    return TimingReport(arrival=arrival, critical_delay=arrival[end], critical_path=path)


def reference_timing_target(design, slack_fraction: float = 0.85) -> float:
    report = reference_analyze_timing(design)
    if report.critical_delay == 0.0:
        return 1.0
    return report.critical_delay * slack_fraction


def reference_resize(
    design, target: float, step: float = 1.2, max_size: float = 4.0, max_iterations: int = 200
) -> ResizeResult:
    """The resize loop with a full reference analysis every iteration."""
    report = reference_analyze_timing(design)
    initial = report.critical_delay
    iterations = 0
    touched = set()
    while report.critical_delay > target and iterations < max_iterations:
        iterations += 1
        progressed = False
        for name in report.critical_path:
            if name in design.cells and design.size_factors[name] < max_size:
                design.size_factors[name] = min(design.size_factors[name] * step, max_size)
                touched.add(name)
                progressed = True
        if not progressed:
            break
        report = reference_analyze_timing(design)
    return ResizeResult(
        met_timing=report.critical_delay <= target,
        target=target,
        initial_delay=initial,
        final_delay=report.critical_delay,
        iterations=iterations,
        upsized_cells=len(touched),
    )


# ----------------------------------------------------------------------
# Reference phase transform: the private resolver phase_transform ran
# before it walked the PolaritySpace, and the DFS that
# topological_gate_order ran over the stored gates.


def reference_topological_gate_order(impl: DominoImplementation) -> List[DominoGate]:
    order: List[DominoGate] = []
    visited: Set[Tuple[str, Polarity]] = set()
    for start_key in impl.gates:
        if start_key in visited:
            continue
        stack: List[Tuple[Tuple[str, Polarity], int]] = [(start_key, 0)]
        visited.add(start_key)
        while stack:
            key, idx = stack[-1]
            gate = impl.gates[key]
            advanced = False
            while idx < len(gate.fanins):
                ref = gate.fanins[idx]
                idx += 1
                if ref.kind == "gate" and ref.key not in visited:
                    visited.add(ref.key)
                    stack[-1] = (key, idx)
                    stack.append((ref.key, 0))
                    advanced = True
                    break
            if advanced:
                continue
            order.append(gate)
            stack.pop()
    return order


class _ReferenceImplementation(DominoImplementation):
    """An implementation whose gate order is the old DFS, so that
    :func:`~repro.network.duplication.implementation_network` builds the
    block the old code built."""

    def topological_gate_order(self) -> List[DominoGate]:
        return reference_topological_gate_order(self)


def reference_phase_transform(
    network: LogicNetwork, assignment: PhaseAssignment
) -> DominoImplementation:
    """Resolve each output's polarity demand with a memoised stack
    machine of its own, storing a gate once its fanins are resolved."""
    impl = _ReferenceImplementation(network, assignment)
    memo: Dict[Tuple[str, Polarity], Ref] = {}

    def resolve(name: str, pol: Polarity) -> Ref:
        root = (name, pol)
        if root in memo:
            return memo[root]
        stack: List[Tuple[str, Polarity, int]] = [(name, pol, 0)]
        while stack:
            cur_name, cur_pol, idx = stack[-1]
            key = (cur_name, cur_pol)
            if key in memo:
                stack.pop()
                continue
            node = network.node(cur_name)
            t = node.gate_type
            if t is GateType.INPUT or t is GateType.LATCH:
                if cur_pol is Polarity.NEG:
                    impl.input_inverters.add(cur_name)
                memo[key] = Ref("latch" if t is GateType.LATCH else "input", cur_name, cur_pol)
                stack.pop()
                continue
            if t is GateType.CONST0 or t is GateType.CONST1:
                base = t is GateType.CONST1
                val = base if cur_pol is Polarity.POS else not base
                memo[key] = Ref("const", cur_name, cur_pol, value=val)
                stack.pop()
                continue
            if t is GateType.NOT or t is GateType.BUF:
                pol = cur_pol
                if t is GateType.NOT:
                    pol = Polarity.NEG if cur_pol is Polarity.POS else Polarity.POS
                child = (node.fanins[0], pol)
                if child in memo:
                    memo[key] = memo[child]
                    stack.pop()
                else:
                    stack.append((child[0], child[1], 0))
                continue
            # AND / OR gate: make sure all fanins are resolved first.
            if idx < len(node.fanins):
                child = (node.fanins[idx], cur_pol)
                stack[-1] = (cur_name, cur_pol, idx + 1)
                if child not in memo:
                    stack.append((child[0], child[1], 0))
                continue
            gate_type = node.gate_type if cur_pol is Polarity.POS else node.gate_type.dual
            impl.gates[key] = DominoGate(
                cur_name, cur_pol, gate_type, tuple(memo[(fi, cur_pol)] for fi in node.fanins)
            )
            memo[key] = Ref("gate", cur_name, cur_pol)
            stack.pop()
        return memo[root]

    for po, driver in network.outputs:
        impl.output_refs[po] = resolve(driver, Polarity.from_phase(assignment[po]))
    return impl


# ----------------------------------------------------------------------
# Reference cones: the per-(output, phase) DFS that PhaseEvaluator ran
# before it built every slot's cone in one pass.


def cone_masks(space: PolaritySpace, root_ref: Ref) -> Tuple[np.ndarray, np.ndarray]:
    """(gate mask over the space's slots, source-inverter mask) for the
    logic reachable from ``root_ref``."""
    gates = np.zeros(space.n_slots, dtype=bool)
    invs = np.zeros(len(space.sources), dtype=bool)
    stack = [root_ref]
    seen: Set[Tuple[str, Polarity]] = set()
    while stack:
        ref = stack.pop()
        if ref.kind == "const":
            continue
        if ref.kind in ("input", "latch"):
            if ref.polarity is Polarity.NEG:
                invs[space.source_index[ref.name]] = True
            continue
        key = ref.key
        if key in seen:
            continue
        seen.add(key)
        gates[space.gate_index[key]] = True
        stack.extend(space.gates[key].fanins)
    return gates, invs


def pack_mask(mask: np.ndarray) -> int:
    """A bool mask as an int: element ``i`` is bit ``i``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


# ----------------------------------------------------------------------
# Seeded networks for the differential tests.


def random_mixed_network(
    seed: int, n_inputs: int = 6, n_gates: int = 40, n_latches: int = 0
) -> LogicNetwork:
    """An acyclic network using every gate type: SOP on-set and off-set
    covers, MUX, XOR/XNOR, NAND/NOR, BUF, NOT and both constants, with
    ``n_latches`` latch outputs read as sources."""
    rng = random.Random(seed)
    net = LogicNetwork(f"mixed{seed}")
    pool: List[str] = []
    for i in range(n_inputs):
        net.add_input(f"x{i}")
        pool.append(f"x{i}")
    net.add_gate("c0", GateType.CONST0, [])
    net.add_gate("c1", GateType.CONST1, [])
    pool.extend(["c0", "c1"])
    latches = [f"l{i}" for i in range(n_latches)]
    for name in latches:
        net.add_latch(name, "x0", init_value=rng.choice((0, 1)))
    pool.extend(latches)
    kinds = (
        GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR,
        GateType.XNOR, GateType.NOT, GateType.BUF, GateType.MUX, GateType.SOP,
    )
    for g in range(n_gates):
        kind = kinds[g % len(kinds)] if g < len(kinds) else rng.choice(kinds)
        name = f"g{g}"
        if kind in (GateType.NOT, GateType.BUF):
            net.add_gate(name, kind, [rng.choice(pool)])
        elif kind is GateType.MUX:
            net.add_gate(name, kind, [rng.choice(pool) for _ in range(3)])
        elif kind is GateType.SOP:
            k = rng.randint(1, 4)
            fanins = rng.sample(pool, k)
            cubes = [
                "".join(rng.choice("01-") for _ in range(k))
                for _ in range(rng.randint(0, 4))
            ]
            cover = SopCover(cubes=cubes, output_value=rng.choice("01"))
            net.add_gate(name, kind, fanins, cover=cover)
        else:
            net.add_gate(name, kind, [rng.choice(pool) for _ in range(rng.randint(1, 4))])
        pool.append(name)
    gates = [f"g{g}" for g in range(n_gates)]
    for latch in net.latches:
        latch.fanins = [rng.choice(gates)]
    for i, name in enumerate(rng.sample(gates, min(4, n_gates))):
        net.add_output(f"o{i}", name)
    net.validate()
    return net


# ----------------------------------------------------------------------
# Reference technology mapping: the path map_implementation took before
# it built the block in one pass.  The block went through add_gate and
# was validated, decomposed through add_gate and validated again, and
# compiled from a third walk (topological_order) and a fanout map.


def reference_implementation_network(impl: DominoImplementation) -> LogicNetwork:
    """The block :func:`~repro.network.duplication.implementation_network`
    built through ``add_input``/``add_gate``, then validated."""
    net = LogicNetwork(f"{impl.network.name}_domino")
    for pi in impl.network.inputs:
        net.add_input(pi)
    for latch in impl.network.latches:
        net.add_input(latch.name)

    inv_names: Dict[str, str] = {}
    for src in sorted(impl.input_inverters):
        inv = net.fresh_name(f"{src}_inv")
        net.add_gate(inv, GateType.NOT, [src])
        inv_names[src] = inv

    def ref_name(ref: Ref) -> str:
        if ref.kind == "const":
            cname = net.fresh_name("const")
            net.add_gate(cname, GateType.CONST1 if ref.value else GateType.CONST0, [])
            return cname
        if ref.kind in ("input", "latch"):
            if ref.polarity is Polarity.NEG:
                return inv_names[ref.name]
            return ref.name
        return impl.gates[ref.key].instance_name

    for gate in impl.topological_gate_order():
        net.add_gate(gate.instance_name, gate.gate_type, [ref_name(r) for r in gate.fanins])

    for po, ref in impl.output_refs.items():
        inner = ref_name(ref)
        if impl.assignment[po] is Phase.NEGATIVE:
            out_inv = net.fresh_name(f"{po}_phase_inv")
            net.add_gate(out_inv, GateType.NOT, [inner])
            net.add_output(po, out_inv)
        else:
            net.add_output(po, inner)
    net.validate()
    return net


def reference_decompose(net: LogicNetwork, library) -> None:
    """Split wide AND/OR gates in place through ``add_gate``, then
    validate."""
    for node in list(net.nodes.values()):
        if node.gate_type not in (GateType.AND, GateType.OR):
            continue
        limit = library.max_fanin(node.gate_type)
        operands = list(node.fanins)
        layer = 0
        while len(operands) > limit:
            plan = library.tree_arity_plan(node.gate_type, len(operands))
            next_operands: List[str] = []
            pos = 0
            for gi, size in enumerate(plan):
                group = operands[pos : pos + size]
                pos += size
                if len(group) == 1:
                    next_operands.append(group[0])
                    continue
                sub = net.fresh_name(f"{node.name}#t{layer}_{gi}")
                net.add_gate(sub, node.gate_type, group)
                next_operands.append(sub)
            operands = next_operands
            layer += 1
        node.fanins = operands
    net.validate()


def reference_compile(network: LogicNetwork, cells) -> CompiledNetlist:
    """The compiled netlist from ``topological_order`` and ``fanout_map``."""
    names = tuple(network.nodes)
    index = {name: i for i, name in enumerate(names)}
    fanouts = network.fanout_map()
    fanins: List[Tuple[int, ...]] = []
    node_cells = []
    loads = []
    for name, node in network.nodes.items():
        if node.gate_type.is_comb_source:
            fanins.append(())
            node_cells.append(None)
            loads.append(())
            continue
        fanins.append(tuple([index[fi] for fi in node.fanins]))
        node_cells.append(cells.get(name))
        loads.append(
            tuple([(sink, cells[sink].input_cap) for sink in fanouts[name] if sink in cells])
        )
    endpoints = [index[driver] for _, driver in network.outputs]
    endpoints.extend(index[latch.fanins[0]] for latch in network.latches)
    return CompiledNetlist(
        names=names,
        order=tuple([index[name] for name in network.topological_order()]),
        fanins=tuple(fanins),
        cells=tuple(node_cells),
        loads=tuple(loads),
        endpoints=tuple(endpoints),
    )


def reference_map_implementation(impl: DominoImplementation, library=None) -> MappedDesign:
    """The mapped design of the old three-walk path, built field by field
    so that no part of it comes from the new mapper."""
    library = library or DEFAULT_LIBRARY
    net = reference_implementation_network(impl)
    net.name = f"{net.name}_mapped"
    reference_decompose(net, library)
    cells = {}
    for node in net.gates:
        t = node.gate_type
        if t in (GateType.AND, GateType.OR):
            cells[node.name] = library.cell(t, len(node.fanins))
        elif t is GateType.NOT:
            cells[node.name] = library.inverter
        elif t is not GateType.BUF:
            raise ReproError(f"mapped block contains non-domino gate {node.name} ({t.value})")
    design = object.__new__(MappedDesign)
    design.network, design.library, design.cells = net, library, cells
    design.size_factors = {name: 1.0 for name in cells}
    design.compiled = reference_compile(net, cells)
    return design


# ----------------------------------------------------------------------
# Reference pair pick: the flat argmin the Section 4.1 loop took over the
# whole cost stack on every step, before it walked a ranked order.


def reference_cost_stack(data, avg_probs, remaining):
    """The ``(4, P, P)`` stack of K in ``COMBOS`` order, one matrix per
    combination with its diagonal set to +inf, and +inf wherever
    ``remaining`` is False."""
    sizes = data.sizes
    a_ret, a_inv = avg_probs, 1.0 - avg_probs
    matrices = []
    for mi, mj in COMBOS:
        ai = a_ret if mi is Move.RETAIN else a_inv
        aj = a_ret if mj is Move.RETAIN else a_inv
        k = (
            (sizes * ai)[:, None]
            + (sizes * aj)[None, :]
            + 0.5 * data.overlap * (ai[:, None] + aj[None, :])
        )
        np.fill_diagonal(k, np.inf)
        matrices.append(k)
    return np.where(remaining, np.stack(matrices), np.inf)


def reference_best_pair(data, avg_probs, remaining, stack=None):
    """The first minimum of one flat ``argmin`` over the C-ordered
    ``(4, P, P)`` stack: least cost, then earliest combination, then
    lowest row-major pair."""
    if not remaining.any():
        raise PhaseError("candidate pair set is empty")
    if stack is None:
        stack = reference_cost_stack(data, avg_probs, remaining)
    n = stack.shape[2]
    combo, flat = divmod(int(np.argmin(stack)), n * n)
    i, j = divmod(flat, n)
    return i, j, COMBOS[combo], float(stack[combo, i, j])


def reference_pairwise_loop(evaluator, start, measure, meter, max_pairs=None):
    """``pairwise_loop`` picking by :func:`reference_best_pair` from one
    stack per commit, retiring each tried pair from it in place."""
    outputs = evaluator.outputs
    n = len(outputs)
    data = CostModelData.from_network(evaluator.network)
    current, (current_score, current_power) = start
    avg = np.array(
        [evaluator.average_cone_probability(current, po) for po in outputs]
    )
    remaining = np.triu(np.ones((n, n), dtype=bool), k=1)
    if max_pairs is not None and remaining.sum() > max_pairs:
        scores = data.overlap * (data.sizes[:, None] + data.sizes[None, :])
        flat = np.where(remaining, scores, -np.inf).ravel()
        keep = np.argsort(-flat, kind="stable")[:max_pairs]
        mask = np.zeros(n * n, dtype=bool)
        mask[keep] = True
        remaining &= mask.reshape(n, n)

    stack = reference_cost_stack(data, avg, remaining)
    history: List[CommitRecord] = []
    while remaining.any() and not meter.exhausted:
        i, j, combo, step_cost = reference_best_pair(data, avg, remaining, stack)
        inverted = [k for k, move in zip((i, j), combo) if move is Move.INVERT]
        candidate = (
            current.flipped(*(outputs[k] for k in inverted)) if inverted else current
        )
        candidate_score, candidate_power = measure(candidate)
        meter.spend()

        committed = meter.improves(candidate_score, current_score) and bool(inverted)
        if committed:
            current = candidate
            current_score, current_power = candidate_score, candidate_power
            for k in inverted:
                avg[k] = 1.0 - avg[k]
            stack = reference_cost_stack(data, avg, remaining)
        history.append(
            CommitRecord(
                pair=(outputs[i], outputs[j]),
                moves=combo,
                cost=step_cost,
                candidate_power=candidate_power,
                committed=committed,
            )
        )
        remaining[i, j] = False
        stack[:, i, j] = np.inf
    return current, (current_score, current_power), history
