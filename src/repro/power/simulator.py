"""Monte-Carlo power "measurement" — the EPIC PowerMill substitute.

The paper measures final power with the PowerMill circuit simulator on
statistically generated input vectors.  We cannot run PowerMill, but
Property 2.2 (domino logic never glitches) means a zero-delay switched
capacitance simulation counts exactly the same charge events a circuit
simulator would see in a domino block, up to a calibration constant.

:func:`simulate_power` therefore:

1. draws ``n_vectors`` random input vectors with the requested signal
   probabilities (the paper's "statistically generated input vectors");
2. evaluates the inverter-free block, as the plain network
   :func:`~repro.network.duplication.implementation_network` builds,
   over all vectors at once (:func:`~repro.power.probability.simulate_words`);
3. charges ``C_gate`` whenever a domino gate fires (discharge +
   precharge pair), ``C_inv`` whenever a static boundary inverter
   toggles, and the clock load every cycle;
4. reports a calibrated "mA" figure (``current_scale``).

This measures the unmapped block (Figure 5's switching counts use it).
The synthesis flow measures the mapped design, resized for Table 2 or
not, with :func:`repro.domino.mapper.simulate_mapped_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.network.duplication import DominoImplementation, implementation_network
from repro.network.netlist import LogicNetwork
from repro.power.estimator import DominoPowerModel
from repro.power.probability import pack_words, random_source_batch, simulate_words


@dataclass
class SimulatedPower:
    """Result of a Monte-Carlo power measurement."""

    domino_energy: float  # switched capacitance per cycle, domino gates
    input_inverter_energy: float
    output_inverter_energy: float
    clock_energy: float
    n_vectors: int
    current_scale: float

    @property
    def energy_per_cycle(self) -> float:
        return (
            self.domino_energy
            + self.input_inverter_energy
            + self.output_inverter_energy
            + self.clock_energy
        )

    @property
    def current_ma(self) -> float:
        """Calibrated report, mimicking the paper's mA power columns."""
        return self.energy_per_cycle * self.current_scale


def simulate_power(
    impl: DominoImplementation,
    input_probs: Optional[Mapping[str, float]] = None,
    model: Optional[DominoPowerModel] = None,
    n_vectors: int = 4096,
    seed: int = 0,
) -> SimulatedPower:
    """Measure power of a domino implementation by Monte-Carlo simulation.

    A rate is a bit count over the vector count, the same float as the
    mean of the 0/1 values.  Input inverters are summed in sorted name
    order, so the float does not depend on set iteration order.
    """
    model = model or DominoPowerModel()
    network = impl.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in network.sources()}
    block = implementation_network(impl)
    batch = random_source_batch(network, input_probs, n_vectors, seed)
    words = simulate_words(block, pack_words(batch), n_vectors)

    domino_energy = 0.0
    for gate in impl.gates.values():
        cap = model.gate_factor(gate.gate_type, len(gate.fanins))
        domino_energy += words[gate.instance_name].bit_count() / n_vectors * cap

    clock_energy = model.clock_cap_per_gate * impl.n_gates

    input_inv_energy = 0.0
    output_inv_energy = 0.0
    if model.include_boundary_inverters:
        # bits 0 .. n-2 of ``x ^ x >> 1`` flag a change between vectors k and k+1
        low_mask = (1 << (n_vectors - 1)) - 1 if n_vectors > 1 else 0
        for src in sorted(impl.input_inverters):
            word = words[src]
            # Static inverter: toggles whenever consecutive values differ.
            toggles = (
                ((word ^ (word >> 1)) & low_mask).bit_count() / (n_vectors - 1)
                if n_vectors > 1
                else 0.0
            )
            input_inv_energy += toggles * model.inverter_cap
        drivers = dict(block.outputs)
        for po in impl.output_inverters:
            # The boundary inverter on a domino output follows the
            # monotonic pulse: it toggles exactly in the cycles its
            # driver (the inverter's fanin) fires.
            inner = block.nodes[drivers[po]].fanins[0]
            output_inv_energy += words[inner].bit_count() / n_vectors * model.inverter_cap

    return SimulatedPower(
        domino_energy=domino_energy,
        input_inverter_energy=input_inv_energy,
        output_inverter_energy=output_inv_energy,
        clock_energy=clock_energy,
        n_vectors=n_vectors,
        current_scale=model.current_scale,
    )


def measure_switching_counts(
    impl: DominoImplementation,
    input_probs: Optional[Mapping[str, float]] = None,
    n_vectors: int = 4096,
    seed: int = 0,
) -> Dict[str, float]:
    """Raw per-category switching totals (unit capacitance).

    Used by the Figure 5 reproduction, which reports switching counts
    rather than calibrated power.
    """
    model = DominoPowerModel(
        gate_cap=1.0, inverter_cap=1.0, clock_cap_per_gate=0.0, current_scale=1.0
    )
    sim = simulate_power(
        impl, input_probs=input_probs, model=model, n_vectors=n_vectors, seed=seed
    )
    return {
        "domino_block": sim.domino_energy,
        "static_inverters_inputs": sim.input_inverter_energy,
        "static_inverters_outputs": sim.output_inverter_energy,
        "total": sim.energy_per_cycle,
    }


class SequentialPowerSimulator:
    """Cycle-accurate Monte-Carlo power for *sequential* domino designs.

    Simulates the full sequential network (latch state included) over
    ``n_cycles`` cycles with fresh random PI vectors each cycle, and
    accounts each combinational node under the domino model (fires =
    output high) — the reference answer the partition-based estimator
    approximates.
    """

    def __init__(
        self,
        network: LogicNetwork,
        model: Optional[DominoPowerModel] = None,
    ):
        self.network = network
        self.model = model or DominoPowerModel()

    def run(
        self,
        input_probs: Optional[Mapping[str, float]] = None,
        n_cycles: int = 1024,
        n_streams: int = 32,
        seed: int = 0,
        warmup: int = 16,
    ) -> Dict[str, float]:
        """Returns per-node average firing rate plus a ``__energy__`` total.

        ``n_streams`` independent trajectories are simulated at once, as
        the bits of one word per signal, to reduce variance; ``warmup``
        initial cycles are discarded so latch state reaches steady
        distribution.
        """
        net = self.network
        if input_probs is None:
            input_probs = {s: 0.5 for s in net.inputs}
        rng = np.random.default_rng(seed)
        order = net.topological_order()
        gates = [gate.name for gate in net.gates]
        latches = [(latch.name, latch.fanins[0]) for latch in net.latches]
        ones = (1 << n_streams) - 1
        state = {latch.name: ones if latch.init_value == 1 else 0 for latch in net.latches}
        fire_sums: Dict[str, float] = {name: 0.0 for name in gates}
        counted = 0
        for cycle in range(n_cycles + warmup):
            draws: Dict[str, np.ndarray] = {}
            for name in net.inputs:
                p = input_probs.get(name, 0.5)
                draws[name] = rng.random(n_streams) < p
            sources = pack_words(draws)
            sources.update(state)
            values = simulate_words(net, sources, n_streams, order=order)
            if cycle >= warmup:
                counted += 1
                for name in gates:
                    fire_sums[name] += values[name].bit_count() / n_streams
            state = {name: values[data] for name, data in latches}
        rates = {name: s / max(counted, 1) for name, s in fire_sums.items()}
        energy = 0.0
        for gate in net.gates:
            cap = self.model.gate_factor(gate.gate_type, len(gate.fanins))
            energy += rates[gate.name] * cap
        rates["__energy__"] = energy
        return rates
