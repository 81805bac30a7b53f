"""Sequential partitioning and steady-state probability estimation.

The paper's power estimator cannot run exact symbolic analysis over
sequential feedback, so it cuts the circuit into combinational blocks
at a (heuristically minimised) feedback vertex set, treating cut latch
outputs as new primary inputs (Figure 7).  Non-feedback latch outputs
are determined by upstream logic, so only the feedback latches need
iterated probabilities.

:func:`sequential_probabilities` combines the two: it computes node
signal probabilities by damped fixed-point iteration over the feedback
latch probabilities, propagating exactly through the acyclic remainder
each round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import SequentialError
from repro.network.netlist import GateType, LogicNetwork
from repro.network.topo import transitive_fanin
from repro.power.probability import node_probabilities
from repro.seq.mfvs import MfvsResult, mfvs, verify_feedback_set
from repro.seq.sgraph import SGraph, extract_sgraph


@dataclass
class CombinationalBlock:
    """One combinational block of the partition."""

    name: str
    outputs: List[str]  # roots: latch data inputs and/or PO drivers
    nodes: Set[str]
    pseudo_inputs: List[str]  # PIs + latch outputs feeding this block

    @property
    def n_inputs(self) -> int:
        return len(self.pseudo_inputs)


@dataclass
class PartitionResult:
    """Partition of a sequential circuit into combinational blocks."""

    sgraph: SGraph
    mfvs_result: MfvsResult
    feedback_latches: List[str]
    blocks: List[CombinationalBlock]

    @property
    def n_feedback(self) -> int:
        return len(self.feedback_latches)

    def max_block_inputs(self) -> int:
        return max((b.n_inputs for b in self.blocks), default=0)


def partition_sequential(
    network: LogicNetwork,
    method: str = "greedy",
    enhanced: bool = True,
) -> PartitionResult:
    """Cut latch feedback with (enhanced) MFVS and enumerate the blocks.

    Each latch data input and each PO driver roots a block; blocks whose
    cones overlap are merged, which mirrors the "disjoint combinational
    blocks" of the paper's Figure 6 pipeline.
    """
    graph = extract_sgraph(network)
    result = mfvs(graph, method=method, enhanced=enhanced)
    if not verify_feedback_set(graph, result.feedback):
        raise SequentialError("MFVS result failed verification")  # pragma: no cover

    # Roots: every latch data input and PO driver.
    roots: List[Tuple[str, str]] = []
    for latch in network.latches:
        roots.append((f"latch:{latch.name}", latch.fanins[0]))
    for po, driver in network.outputs:
        roots.append((f"po:{po}", driver))

    # Union-find over roots via cone overlap on logic nodes.
    cones: Dict[str, Set[str]] = {}
    for label, driver in roots:
        cones[label] = transitive_fanin(network, [driver], include_sources=False)

    parent: Dict[str, str] = {label: label for label, _ in roots}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    labels = [label for label, _ in roots]
    node_owner: Dict[str, str] = {}
    for label in labels:
        for n in cones[label]:
            if n in node_owner:
                union(label, node_owner[n])
            else:
                node_owner[n] = label

    groups: Dict[str, List[str]] = {}
    for label in labels:
        groups.setdefault(find(label), []).append(label)

    driver_of_label = dict(roots)
    blocks: List[CombinationalBlock] = []
    for gi, (rep, members) in enumerate(sorted(groups.items())):
        nodes: Set[str] = set()
        outputs: List[str] = []
        for label in members:
            nodes |= cones[label]
            outputs.append(driver_of_label[label])
        sources = transitive_fanin(
            network, [driver_of_label[m] for m in members], include_sources=True
        ) - nodes
        pseudo_inputs = sorted(
            s
            for s in sources
            if network.nodes[s].gate_type in (GateType.INPUT, GateType.LATCH)
        )
        blocks.append(
            CombinationalBlock(
                name=f"block{gi}",
                outputs=sorted(set(outputs)),
                nodes=nodes,
                pseudo_inputs=pseudo_inputs,
            )
        )

    return PartitionResult(
        sgraph=graph,
        mfvs_result=result,
        feedback_latches=list(result.feedback),
        blocks=blocks,
    )


@dataclass
class SequentialProbabilities:
    """Fixed-point solution of latch/node signal probabilities."""

    probabilities: Dict[str, float]
    latch_probabilities: Dict[str, float]
    iterations: int
    converged: bool
    partition: Optional[PartitionResult] = None


def sequential_probabilities(
    network: LogicNetwork,
    input_probs: Optional[Mapping[str, float]] = None,
    method: str = "auto",
    tolerance: float = 1e-4,
    max_iterations: int = 64,
    damping: float = 0.5,
    mfvs_method: str = "greedy",
    enhanced: bool = True,
    seed: int = 0,
) -> SequentialProbabilities:
    """Steady-state signal probabilities of a sequential network.

    Latch outputs start at their reset-value prior (init 1 -> 1.0,
    init 0 -> 0.0, unknown -> 0.5) and are updated toward the
    probability of their data input with ``damping`` until the largest
    change drops below ``tolerance``.
    """
    if input_probs is None:
        input_probs = {name: 0.5 for name in network.inputs}
    latches = network.latches
    if not latches:
        res = node_probabilities(network, input_probs, method=method, seed=seed)
        return SequentialProbabilities(
            probabilities=res.probabilities,
            latch_probabilities={},
            iterations=0,
            converged=True,
        )

    partition = partition_sequential(network, method=mfvs_method, enhanced=enhanced)

    latch_probs: Dict[str, float] = {}
    for latch in latches:
        if latch.init_value == 1:
            latch_probs[latch.name] = 1.0
        elif latch.init_value == 0:
            latch_probs[latch.name] = 0.0
        else:
            latch_probs[latch.name] = 0.5

    probs: Dict[str, float] = {}
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        combined = dict(input_probs)
        combined.update(latch_probs)
        res = node_probabilities(network, combined, method=method, seed=seed)
        probs = res.probabilities
        delta = 0.0
        for latch in latches:
            target = probs[latch.fanins[0]]
            current = latch_probs[latch.name]
            updated = current + damping * (target - current)
            delta = max(delta, abs(updated - current))
            latch_probs[latch.name] = updated
        if delta < tolerance:
            converged = True
            break
    probs.update(latch_probs)
    return SequentialProbabilities(
        probabilities=probs,
        latch_probabilities=latch_probs,
        iterations=iterations,
        converged=converged,
        partition=partition,
    )
