"""Signal-probability computation for logic networks.

Two engines:

* **Exact** — BDD evaluation with the paper's domino variable ordering
  (Section 4.2.2).  Exact under the independent-input model.
* **Monte-Carlo** — random simulation, used both as a cross-check and
  as the automatic fallback when a cone blows the BDD node budget.

Simulation is zero-delay over packed words (:func:`simulate_words`):
each signal is one Python int whose bit ``k`` is its value under vector
``k``, so a node costs one bitwise operation per fanin whatever the
vector count, and a signal probability is a bit count over the vector
count.  Its gate loop, :func:`_evaluate_words`, is the power layer's only
gate evaluator: the unit-delay frames of :mod:`repro.power.glitch` run
it too, reading each frame's fanins from the previous frame.  Source
vectors are drawn by :func:`random_source_batch` as boolean arrays and
packed.

Latch outputs are treated as additional inputs; sequential circuits
should be partitioned first (:mod:`repro.seq.partition`), which also
supplies latch-output probabilities via fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import BddError, PowerError
from repro.network.netlist import GateType, LogicNetwork, Node
from repro.bdd.builder import build_node_bdds


def uniform_input_probabilities(
    network: LogicNetwork, probability: float = 0.5
) -> Dict[str, float]:
    """Same probability for every PI and latch output (the paper uses 0.5)."""
    probs = {name: probability for name in network.inputs}
    for latch in network.latches:
        probs[latch.name] = probability
    return probs


# Module-level aliases: reading a member off the enum class costs an
# attribute lookup per comparison in the simulation loop.
_AND, _NAND, _OR, _NOR = GateType.AND, GateType.NAND, GateType.OR, GateType.NOR
_NOT, _BUF, _SOP, _MUX = GateType.NOT, GateType.BUF, GateType.SOP, GateType.MUX
_XOR, _XNOR, _CONST0, _CONST1 = GateType.XOR, GateType.XNOR, GateType.CONST0, GateType.CONST1
_INPUT, _LATCH = GateType.INPUT, GateType.LATCH


def simulate_words(
    network: LogicNetwork,
    source_words: Mapping[str, int],
    n_vectors: int,
    order: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Zero-delay evaluation of every node over ``n_vectors`` vectors at once.

    Each signal is one Python int of ``n_vectors`` bits, bit ``k`` being
    its value under vector ``k``.  ``source_words`` maps every PI (and
    latch output) name to its word; a name given there is taken as is,
    whatever its node type.  ``order`` is a precomputed topological
    order of ``network`` (default: :meth:`LogicNetwork.topological_order`).
    Returns the words of the given sources followed by every other node
    in topological order.
    """
    values: Dict[str, int] = dict(source_words)
    _evaluate_words(
        network.nodes,
        network.topological_order() if order is None else order,
        values,
        values,
        (1 << n_vectors) - 1,
    )
    return values


def _evaluate_words(
    nodes: Mapping[str, Node],
    order: Sequence[str],
    values: Dict[str, int],
    fanin_words: Mapping[str, int],
    mask: int,
) -> None:
    """Evaluate each node of ``order`` not yet in ``values`` into it,
    reading the fanin words from ``fanin_words``; ``mask`` has one bit
    per vector.

    :func:`simulate_words` passes ``values`` as ``fanin_words``, so a
    node reads the words its fanins got earlier in ``order`` (zero
    delay); a unit-delay frame passes the previous frame's words.
    """
    for name in order:
        if name in values:
            continue
        node = nodes[name]
        t = node.gate_type
        if t is _AND or t is _NAND:
            word = mask
            for fi in node.fanins:
                word &= fanin_words[fi]
            if t is _NAND:
                word ^= mask
        elif t is _OR or t is _NOR:
            word = 0
            for fi in node.fanins:
                word |= fanin_words[fi]
            if t is _NOR:
                word ^= mask
        elif t is _NOT:
            word = fanin_words[node.fanins[0]] ^ mask
        elif t is _BUF:
            word = fanin_words[node.fanins[0]]
        elif t is _SOP:
            word = _sop_word(node, [fanin_words[fi] for fi in node.fanins], mask)
        elif t is _XOR or t is _XNOR:
            word = 0 if t is _XOR else mask
            for fi in node.fanins:
                word ^= fanin_words[fi]
        elif t is _MUX:
            sel, d0, d1 = (fanin_words[fi] for fi in node.fanins)
            word = (sel & d1) | ((sel ^ mask) & d0)
        elif t is _CONST0:
            word = 0
        elif t is _CONST1:
            word = mask
        elif t is _INPUT or t is _LATCH:
            raise PowerError(f"missing batch values for source {name!r}")
        else:  # pragma: no cover - exhaustive over GateType
            raise PowerError(f"cannot simulate node {name} of type {t.value}")
        values[name] = word


def _sop_word(node, fanin_words: List[int], mask: int) -> int:
    cover = node.cover
    acc = 0
    for cube in cover.cubes:
        term = mask
        for lit, word in zip(cube, fanin_words):
            if lit == "1":
                term &= word
            elif lit == "0":
                term &= ~word
        acc |= term
    if cover.output_value == "0":
        acc ^= mask
    return acc


def pack_words(arrays: Mapping[str, np.ndarray]) -> Dict[str, int]:
    """Pack equal-length boolean arrays into words, element ``k`` at bit ``k``."""
    names = list(arrays)
    if not names:
        return {}
    packed = np.packbits(
        np.stack([np.asarray(arrays[name], dtype=bool) for name in names]),
        axis=1,
        bitorder="little",
    )
    width = packed.shape[1]
    raw = packed.tobytes()
    return {
        name: int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i, name in enumerate(names)
    }


def random_source_batch(
    network: LogicNetwork,
    input_probs: Mapping[str, float],
    n_vectors: int,
    seed: int = 0,
    correlation: float = 0.0,
) -> Dict[str, np.ndarray]:
    """Random boolean vectors distributed per the given probabilities.

    ``correlation`` adds lag-1 temporal correlation per input: each
    cycle the signal *holds* its previous value with probability
    ``correlation`` and redraws otherwise.  The stationary distribution
    keeps the requested signal probability, but transition rates drop
    by a factor of ``1 - correlation`` — which affects *static*
    boundary inverters while leaving domino switching untouched
    (domino gates pay per evaluation, not per change).
    """
    if not (0.0 <= correlation < 1.0):
        raise PowerError(f"correlation must be in [0, 1), got {correlation}")
    rng = np.random.default_rng(seed)
    batch: Dict[str, np.ndarray] = {}
    names = list(network.inputs) + [latch.name for latch in network.latches]
    for name in names:
        p = input_probs.get(name, 0.5)
        fresh = rng.random(n_vectors) < p
        if correlation == 0.0 or n_vectors <= 1:
            batch[name] = fresh
            continue
        hold = rng.random(n_vectors) < correlation
        hold[0] = False
        # A held position repeats the most recent redraw: index each
        # position by its latest non-hold predecessor.
        idx = np.arange(n_vectors)
        redraw_idx = np.where(~hold, idx, -1)
        last_redraw = np.maximum.accumulate(redraw_idx)
        batch[name] = fresh[last_redraw]
    return batch


def monte_carlo_probabilities(
    network: LogicNetwork,
    input_probs: Mapping[str, float],
    n_vectors: int = 4096,
    seed: int = 0,
) -> Dict[str, float]:
    """Signal probability of every node by random simulation."""
    batch = random_source_batch(network, input_probs, n_vectors, seed)
    words = simulate_words(network, pack_words(batch), n_vectors)
    return {name: word.bit_count() / n_vectors for name, word in words.items()}


def bdd_probabilities(
    network: LogicNetwork,
    input_probs: Mapping[str, float],
    ordering: str = "domino",
    max_nodes: int = 2_000_000,
) -> Dict[str, float]:
    """Exact signal probability of every node reachable from the POs
    (and from latch data inputs, for sequential networks).

    Builds BDDs for all nodes in those cones under the requested
    variable ordering and evaluates P(node=1) on the shared DAG.
    Raises :class:`~repro.errors.BddError` past the node budget.
    """
    bdds = build_node_bdds(
        network, roots=_probability_roots(network), ordering=ordering, max_nodes=max_nodes
    )
    return bdds.probabilities(input_probs)


def _probability_roots(network: LogicNetwork) -> List[str]:
    """PO drivers plus latch data inputs, deduplicated in order."""
    roots = list(network.output_drivers())
    roots.extend(latch.fanins[0] for latch in network.latches)
    return list(dict.fromkeys(roots))


@dataclass
class ProbabilityResult:
    """Node probabilities plus a record of how they were obtained."""

    probabilities: Dict[str, float]
    method: str  # "bdd" or "monte-carlo"
    bdd_nodes: int = 0
    n_vectors: int = 0


def node_probabilities(
    network: LogicNetwork,
    input_probs: Optional[Mapping[str, float]] = None,
    method: str = "auto",
    ordering: str = "domino",
    max_nodes: int = 500_000,
    n_vectors: int = 4096,
    seed: int = 0,
) -> ProbabilityResult:
    """Compute node signal probabilities with automatic fallback.

    ``method`` is ``"bdd"``, ``"monte-carlo"`` or ``"auto"`` (try BDD,
    fall back to Monte-Carlo if the node budget is exceeded).
    """
    if input_probs is None:
        input_probs = uniform_input_probabilities(network)
    if method not in ("auto", "bdd", "monte-carlo"):
        raise PowerError(f"unknown probability method {method!r}")
    if method in ("auto", "bdd"):
        try:
            bdds = build_node_bdds(
                network,
                roots=_probability_roots(network),
                ordering=ordering,
                max_nodes=max_nodes,
            )
            probs = bdds.probabilities(input_probs)
            # Sources not inside any cone still deserve a probability.
            for name, p in input_probs.items():
                probs.setdefault(name, p)
            return ProbabilityResult(
                probabilities=probs, method="bdd", bdd_nodes=bdds.manager.node_count
            )
        except BddError:
            if method == "bdd":
                raise
    probs = monte_carlo_probabilities(network, input_probs, n_vectors, seed)
    return ProbabilityResult(probabilities=probs, method="monte-carlo", n_vectors=n_vectors)
