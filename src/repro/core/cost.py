"""The Section 4.1 pairwise cost function.

For a pair of primary outputs (i, j) the paper scores the four
retain/invert combinations with

    K(i+, j+) = |Di| Ai + |Dj| Aj + 0.5 * O(i,j) * (Ai + Aj)
    K(i-, j-) = |Di| (1-Ai) + |Dj| (1-Aj) + 0.5 * O(i,j) * ((1-Ai) + (1-Aj))
    K(i+, j-) = |Di| Ai + |Dj| (1-Aj) + 0.5 * O(i,j) * (Ai + (1-Aj))
    K(i-, j+) = |Di| (1-Ai) + |Dj| Aj + 0.5 * O(i,j) * ((1-Ai) + Aj)

where ``+`` means *retain the current phase* and ``-`` means *invert
it* (not absolute polarity!), |D| is the transitive-fanin cone size,
A is the average signal probability over the cone under the current
assignment (flipping a phase complements cone probabilities, Property
4.1), and O(i,j) = |Di ∩ Dj| / (|Di| + |Dj|) penalises overlapping
cones whose phases might conflict and duplicate logic.

This module provides both a scalar implementation (readable, used in
tests) and vectorised numpy kernels used by the optimiser's inner loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PhaseError
from repro.network.netlist import LogicNetwork


class Move(enum.Enum):
    """Per-output action in a candidate: retain or invert the current phase."""

    RETAIN = "+"
    INVERT = "-"


#: The four combinations in the order the paper lists them.
COMBOS: Tuple[Tuple[Move, Move], ...] = (
    (Move.RETAIN, Move.RETAIN),
    (Move.INVERT, Move.INVERT),
    (Move.RETAIN, Move.INVERT),
    (Move.INVERT, Move.RETAIN),
)


def pair_cost(
    size_i: int,
    size_j: int,
    overlap: float,
    avg_i: float,
    avg_j: float,
    move_i: Move,
    move_j: Move,
) -> float:
    """Scalar K(i <move_i>, j <move_j>) exactly as printed in the paper."""
    ai = avg_i if move_i is Move.RETAIN else 1.0 - avg_i
    aj = avg_j if move_j is Move.RETAIN else 1.0 - avg_j
    return size_i * ai + size_j * aj + 0.5 * overlap * (ai + aj)


def all_pair_costs(
    size_i: int,
    size_j: int,
    overlap: float,
    avg_i: float,
    avg_j: float,
) -> Dict[Tuple[Move, Move], float]:
    """All four K values for one output pair."""
    return {
        (mi, mj): pair_cost(size_i, size_j, overlap, avg_i, avg_j, mi, mj)
        for mi, mj in COMBOS
    }


def group_cost(
    sizes: Sequence[float],
    overlaps: "np.ndarray",
    avgs: Sequence[float],
    moves: Sequence[Move],
) -> float:
    """The cost function K extended to an output *group* (Section 4.1).

    The paper notes the pairwise K "can be extended to capture a
    greater degree of interaction between phase assignments by
    extending the definition of the cost function K to more than a
    pair of outputs":

        K(moves) = sum_m |D_m| a_m'  +  0.5 * sum_{m<l} O(m,l) (a_m' + a_l')

    where ``a' = a`` for RETAIN and ``1 - a`` for INVERT.  ``overlaps``
    is the group's (k, k) overlap submatrix.
    """
    a_eff = [
        a if m is Move.RETAIN else 1.0 - a for a, m in zip(avgs, moves)
    ]
    k = len(a_eff)
    total = sum(s * a for s, a in zip(sizes, a_eff))
    for m in range(k):
        for l in range(m + 1, k):
            total += 0.5 * overlaps[m, l] * (a_eff[m] + a_eff[l])
    return total


@dataclass
class CostModelData:
    """Static per-circuit data feeding the cost function.

    ``sizes[k]`` is |D_k| for output k, ``overlap[k, l]`` is O(k, l),
    both independent of the phase assignment (flipping a phase leaves
    the cone's *node set* unchanged; only polarities flip).
    """

    outputs: List[str]
    sizes: np.ndarray  # (P,)
    overlap: np.ndarray  # (P, P)

    @classmethod
    def from_network(cls, network: LogicNetwork) -> "CostModelData":
        """Sizes and overlaps of the outputs' logic cones, each cone an
        int bitset from one topological pass: a gate's cone is its own
        bit ORed with its fanins' cones, and inputs, constants and latch
        outputs add nothing.  The counts are those of
        :func:`~repro.network.topo.output_cones` and
        :func:`~repro.network.topo.cone_overlap`."""
        cones: Dict[str, int] = {}
        nodes = network.nodes
        for bit, name in enumerate(network.topological_order()):
            node = nodes[name]
            if node.gate_type.is_comb_source:
                cones[name] = 0
                continue
            cone = 1 << bit
            for fanin in node.fanins:
                cone |= cones[fanin]
            cones[name] = cone
        outputs = network.output_names()
        cone_list = [cones[driver] for _po, driver in network.outputs]
        counts = [cone.bit_count() for cone in cone_list]
        sizes = np.array(counts, dtype=float)
        n = len(outputs)
        overlap = np.zeros((n, n))
        for a in range(n):
            cone_a, size_a = cone_list[a], counts[a]
            for b in range(a + 1, n):
                denom = size_a + counts[b]
                if denom:
                    o = (cone_a & cone_list[b]).bit_count() / denom
                    overlap[a, b] = o
                    overlap[b, a] = o
        return cls(outputs=outputs, sizes=sizes, overlap=overlap)



def cost_matrices(
    data: CostModelData, avg_probs: np.ndarray
) -> Dict[Tuple[Move, Move], np.ndarray]:
    """Vectorised K over all pairs, for the 4 combos.

    ``avg_probs[k]`` is A_k under the *current* assignment.  Entry
    ``[i, j]`` of each matrix is K(i <mi>, j <mj>); diagonals are
    meaningless and set to +inf.
    """
    sizes = data.sizes
    n = len(sizes)
    a_ret = avg_probs
    a_inv = 1.0 - avg_probs
    out: Dict[Tuple[Move, Move], np.ndarray] = {}
    for mi, mj in COMBOS:
        ai = a_ret if mi is Move.RETAIN else a_inv
        aj = a_ret if mj is Move.RETAIN else a_inv
        k = (
            (sizes * ai)[:, None]
            + (sizes * aj)[None, :]
            + 0.5 * data.overlap * (ai[:, None] + aj[None, :])
        )
        np.fill_diagonal(k, np.inf)
        out[(mi, mj)] = k
    return out


def masked_cost_stack(
    data: CostModelData, avg_probs: np.ndarray, remaining: np.ndarray
) -> np.ndarray:
    """The four :func:`cost_matrices` stacked in :data:`COMBOS` order
    into one ``(4, P, P)`` array, +inf wherever ``remaining`` is False."""
    matrices = cost_matrices(data, avg_probs)
    return np.where(remaining, np.stack([matrices[combo] for combo in COMBOS]), np.inf)


def best_pair_and_combo(
    data: CostModelData,
    avg_probs: np.ndarray,
    remaining: np.ndarray,
    stack: Optional[np.ndarray] = None,
) -> Tuple[int, int, Tuple[Move, Move], float]:
    """Minimum-cost (i, j, combo) over the remaining candidate pairs.

    ``remaining`` is a boolean (P, P) upper-triangular mask of pairs
    still in the candidate set.  ``stack`` is
    :func:`masked_cost_stack` of the same arguments, which a caller
    that picks many pairs between changes of ``avg_probs`` builds once
    and keeps in step with ``remaining``; without it one is built here.

    Ties go to the earliest combination in :data:`COMBOS` order, then
    to the lowest row-major pair: the first minimum of one flat
    ``argmin`` over the C-ordered stack.
    """
    if not remaining.any():
        raise PhaseError("candidate pair set is empty")
    if stack is None:
        stack = masked_cost_stack(data, avg_probs, remaining)
    n = stack.shape[2]
    combo, flat = divmod(int(np.argmin(stack)), n * n)
    i, j = divmod(flat, n)
    return i, j, COMBOS[combo], float(stack[combo, i, j])
