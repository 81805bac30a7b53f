"""Build BDDs for logic-network nodes.

Bridges :class:`~repro.network.netlist.LogicNetwork` and
:class:`~repro.bdd.manager.BddManager`: constructs the BDD of every
requested node bottom-up in topological order, sharing intermediate
results across cones (the sharing the paper's ordering heuristic is
designed to maximise).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import BddError
from repro.network.netlist import GateType, LogicNetwork
from repro.network.topo import transitive_fanin
from repro.bdd.manager import ONE, ZERO, BddManager
from repro.bdd.ordering import order_variables


class NetworkBdds:
    """BDDs for a set of network nodes, plus the owning manager."""

    def __init__(self, manager: BddManager, node_bdds: Dict[str, int]):
        self.manager = manager
        self.node_bdds = node_bdds

    def bdd_of(self, name: str) -> int:
        try:
            return self.node_bdds[name]
        except KeyError:
            raise BddError(f"no BDD was built for node {name!r}") from None

    def probability(self, name: str, var_probs: Mapping[str, float]) -> float:
        return self.manager.probability(self.bdd_of(name), var_probs)

    def probabilities(
        self, var_probs: Mapping[str, float]
    ) -> Dict[str, float]:
        """Signal probability of every node with a BDD, in
        :attr:`node_bdds` order: :meth:`BddManager.probabilities` of
        every manager node in one pass, so a BDD node shared by many
        functions is evaluated once."""
        probs = self.manager.probabilities(var_probs)
        return {name: probs[f] for name, f in self.node_bdds.items()}

    def shared_size(self, names: Optional[Iterable[str]] = None) -> int:
        """Distinct BDD nodes used by the given node functions (Fig. 10 metric)."""
        if names is None:
            roots = list(self.node_bdds.values())
        else:
            roots = [self.bdd_of(n) for n in names]
        return self.manager.dag_size(roots)


def build_node_bdds(
    network: LogicNetwork,
    roots: Optional[Sequence[str]] = None,
    ordering: str = "domino",
    variable_order: Optional[Sequence[str]] = None,
    max_nodes: int = 2_000_000,
) -> NetworkBdds:
    """Construct BDDs for ``roots`` (default: all PO drivers).

    Latch outputs are treated as free variables, which matches the
    partitioned combinational blocks the paper's estimator works on.

    Parameters
    ----------
    ordering:
        One of ``domino`` (the paper's heuristic), ``topological``,
        ``disturbed``, ``declaration``.  Ignored when an explicit
        ``variable_order`` is supplied.
    max_nodes:
        Node budget; :class:`~repro.errors.BddError` is raised beyond it.
    """
    if roots is None:
        roots = list(dict.fromkeys(network.output_drivers()))
    if variable_order is None:
        variable_order = order_variables(network, ordering, roots)
    manager = BddManager(variable_order, max_nodes=max_nodes)

    cone = transitive_fanin(network, roots, include_sources=True)
    node_bdds: Dict[str, int] = {}
    for name in network.topological_order():
        if name not in cone:
            continue
        node = network.nodes[name]
        t = node.gate_type
        if t is GateType.INPUT or t is GateType.LATCH:
            node_bdds[name] = manager.var(name)
            continue
        if t is GateType.CONST0:
            node_bdds[name] = ZERO
            continue
        if t is GateType.CONST1:
            node_bdds[name] = ONE
            continue
        fanin_bdds = [node_bdds[fi] for fi in node.fanins]
        if t is GateType.BUF:
            node_bdds[name] = fanin_bdds[0]
        elif t is GateType.NOT:
            node_bdds[name] = manager.apply_not(fanin_bdds[0])
        elif t is GateType.AND:
            node_bdds[name] = manager.apply_many("and", fanin_bdds)
        elif t is GateType.OR:
            node_bdds[name] = manager.apply_many("or", fanin_bdds)
        elif t is GateType.NAND:
            node_bdds[name] = manager.apply_not(manager.apply_many("and", fanin_bdds))
        elif t is GateType.NOR:
            node_bdds[name] = manager.apply_not(manager.apply_many("or", fanin_bdds))
        elif t is GateType.XOR:
            node_bdds[name] = manager.apply_many("xor", fanin_bdds)
        elif t is GateType.XNOR:
            node_bdds[name] = manager.apply_not(manager.apply_many("xor", fanin_bdds))
        elif t is GateType.MUX:
            sel, d0, d1 = fanin_bdds
            node_bdds[name] = manager.ite(sel, d1, d0)
        elif t is GateType.SOP:
            node_bdds[name] = _sop_bdd(manager, node, fanin_bdds)
        else:  # pragma: no cover - exhaustive over GateType
            raise BddError(f"cannot build BDD for node {name} of type {t.value}")
    return NetworkBdds(manager, node_bdds)


def _sop_bdd(manager: BddManager, node, fanin_bdds: List[int]) -> int:
    """BDD of a generic SOP cover node."""
    cover = node.cover
    acc = ZERO
    for cube in cover.cubes:
        term = ONE
        for lit, f in zip(cube, fanin_bdds):
            if lit == "1":
                term = manager.apply_and(term, f)
            elif lit == "0":
                term = manager.apply_and(term, manager.apply_not(f))
            if term == ZERO:
                break
        acc = manager.apply_or(acc, term)
        if acc == ONE:
            break
    if cover.output_value == "0":
        acc = manager.apply_not(acc)
    return acc


def compare_orderings(
    network: LogicNetwork,
    roots: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = ("domino", "topological", "disturbed"),
    max_nodes: int = 2_000_000,
) -> Dict[str, int]:
    """Shared BDD node counts per ordering strategy (Fig. 10 experiment)."""
    if roots is None:
        roots = list(dict.fromkeys(network.output_drivers()))
    results: Dict[str, int] = {}
    for strategy in strategies:
        bdds = build_node_bdds(network, roots, ordering=strategy, max_nodes=max_nodes)
        results[strategy] = bdds.shared_size(roots)
    return results
