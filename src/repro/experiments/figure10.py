"""Figure 10 experiment: BDD variable ordering comparison.

The paper's sketch reports 7 BDD nodes for the reverse-topological
(domino) ordering, 11 for the plain topological ordering and 9 for an
ordering with "disturbed signal grouping".  We measure the same three
orderings on the figure's P/Q/R circuit and on suite circuits; the
expected *shape* is  domino <= disturbed <= topological.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd.builder import compare_orderings
from repro.bdd.ordering import order_variables
from repro.bench.figures import figure10_network
from repro.network.netlist import LogicNetwork
from repro.network.ops import cleanup, to_aoi


@dataclass
class OrderingComparison:
    circuit: str
    node_counts: Dict[str, int]
    orders: Dict[str, List[str]] = field(default_factory=dict)


def run_figure10(
    extra_circuits: Optional[Dict[str, LogicNetwork]] = None,
    max_nodes: int = 2_000_000,
) -> List[OrderingComparison]:
    """Ordering comparison on the figure circuit (+ optional extras)."""
    circuits: Dict[str, LogicNetwork] = {"figure10": figure10_network()}
    if extra_circuits:
        circuits.update(extra_circuits)
    results: List[OrderingComparison] = []
    for name, net in circuits.items():
        aoi = cleanup(to_aoi(net))
        counts = compare_orderings(
            aoi, strategies=("domino", "topological", "disturbed"), max_nodes=max_nodes
        )
        orders = {
            strategy: order_variables(aoi, strategy)
            for strategy in ("domino", "topological", "disturbed")
        }
        results.append(
            OrderingComparison(circuit=name, node_counts=counts, orders=orders)
        )
    return results


def format_figure10(results: List[OrderingComparison]) -> str:
    lines = [
        "Figure 10 — shared BDD node counts per variable ordering",
        "(paper example: domino 7, topological 11, disturbed 9)",
        f"{'circuit':<14} {'domino':>8} {'topological':>12} {'disturbed':>10}",
    ]
    for r in results:
        c = r.node_counts
        lines.append(
            f"{r.circuit:<14} {c['domino']:>8} {c['topological']:>12} "
            f"{c['disturbed']:>10}"
        )
        if r.circuit == "figure10":
            lines.append(
                f"  domino order (top..bottom): {', '.join(r.orders['domino'])}"
            )
    return "\n".join(lines)
