"""Rebuild-based variable-order refinement ("sifting lite").

The paper's static ordering heuristic (Section 4.2.2) is a construction
order; classic BDD packages additionally *sift* variables dynamically.
Our manager keeps nodes immutable, so instead of in-place level swaps
this module refines an ordering by **rebuilding**: each variable is
tentatively moved to a set of candidate positions, the shared BDD is
rebuilt, and the position with the smallest node count wins.  Quadratic
in rebuilds, perfectly adequate for the control-block cone sizes the
paper targets — and an honest ablation partner for the static
heuristic: it answers "how much is left on the table?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bdd.builder import build_node_bdds
from repro.bdd.ordering import domino_variable_order
from repro.errors import BddError
from repro.network.netlist import LogicNetwork


@dataclass
class SiftResult:
    """Outcome of order refinement."""

    order: List[str]
    initial_size: int
    final_size: int
    moves: int
    rebuilds: int



def _shared_size(
    network: LogicNetwork,
    roots: Optional[Sequence[str]],
    order: List[str],
    max_nodes: int,
) -> int:
    bdds = build_node_bdds(
        network, roots=roots, variable_order=order, max_nodes=max_nodes
    )
    if roots is None:
        roots = list(dict.fromkeys(network.output_drivers()))
    return bdds.shared_size(roots)


def sift_order(
    network: LogicNetwork,
    roots: Optional[Sequence[str]] = None,
    initial_order: Optional[Sequence[str]] = None,
    passes: int = 1,
    candidate_positions: int = 8,
    max_nodes: int = 500_000,
    max_variables: int = 40,
) -> SiftResult:
    """Refine a variable order by greedy position search.

    Starts from ``initial_order`` (default: the paper's domino
    ordering).  For every variable, up to ``candidate_positions``
    evenly spaced target positions are tried; the best placement is
    kept.  ``passes`` full sweeps are performed.
    """
    if initial_order is None:
        initial_order = domino_variable_order(network, roots)
    order = list(initial_order)
    if len(order) > max_variables:
        raise BddError(
            f"sift_order limited to {max_variables} variables; got {len(order)}"
        )
    rebuilds = 0
    initial_size = _shared_size(network, roots, order, max_nodes)
    rebuilds += 1
    best_size = initial_size
    moves = 0

    n = len(order)
    for _sweep in range(passes):
        improved_this_pass = False
        for var in list(order):
            current_pos = order.index(var)
            positions = sorted(
                {
                    round(k * (n - 1) / max(candidate_positions - 1, 1))
                    for k in range(candidate_positions)
                }
                | {0, n - 1}
            )
            best_pos = current_pos
            for pos in positions:
                if pos == current_pos:
                    continue
                trial = list(order)
                trial.pop(current_pos)
                trial.insert(pos, var)
                size = _shared_size(network, roots, trial, max_nodes)
                rebuilds += 1
                if size < best_size:
                    best_size = size
                    best_pos = pos
            if best_pos != current_pos:
                order.pop(current_pos)
                order.insert(best_pos, var)
                moves += 1
                improved_this_pass = True
        if not improved_this_pass:
            break

    return SiftResult(
        order=order,
        initial_size=initial_size,
        final_size=best_size,
        moves=moves,
        rebuilds=rebuilds,
    )
