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
tests) and vectorised numpy kernels used by the optimiser's inner loop,
which walks the candidate pairs in the order of one ranking per commit
(:class:`PairWalk`).
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
    n = len(data.sizes)
    rows, cols = np.divmod(np.arange(n * n), n)
    stack = _pair_costs(data, avg_probs, rows, cols).reshape(len(COMBOS), n, n)
    diagonal = np.arange(n)
    stack[:, diagonal, diagonal] = np.inf
    return dict(zip(COMBOS, stack))


def _pair_costs(
    data: CostModelData, avg_probs: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """K of the pairs ``(rows[k], cols[k])`` under each combination, a
    ``(4, len(rows))`` array in :data:`COMBOS` order.  Each entry takes
    the float operations of the paper's formula in one fixed order, so
    it does not depend on which other pairs are asked for."""
    a = {Move.RETAIN: avg_probs, Move.INVERT: 1.0 - avg_probs}
    ai = np.stack([a[mi] for mi, _mj in COMBOS])[:, rows]
    aj = np.stack([a[mj] for _mi, mj in COMBOS])[:, cols]
    sizes = data.sizes
    return (sizes[rows] * ai + sizes[cols] * aj) + 0.5 * data.overlap[rows, cols] * (ai + aj)


#: Entries a :class:`PairWalk` ranks at a time.  A step retires one pair
#: and a commit starts a new walk, so a walk usually ends long before
#: its stack is fully ranked.
_RANK_CHUNK = 256


class PairWalk:
    """The candidate pairs of the Section 4.1 loop, walked cheapest first.

    K depends only on the current assignment, so between commits the
    loop's choices come from one ``(4, P, P)`` stack of the
    :func:`cost_matrices`: each step takes its minimum entry over the
    pairs not yet tried.  :meth:`rank` computes K for the remaining
    pairs only and ranks the finite entries by (cost, flat index in the
    stack), lazily, :data:`_RANK_CHUNK` entries at a time, so each
    :meth:`pick` is one pointer step past entries of retired pairs.
    That is exactly the choice of a flat ``argmin`` over the stack with
    the retired pairs set to +inf: least cost, then earliest combination
    in :data:`COMBOS` order, then lowest row-major pair.

    ``remaining`` is the (P, P) boolean candidate mask; the walk owns it
    and clears each pair it picks.
    """

    def __init__(
        self, data: CostModelData, avg_probs: np.ndarray, remaining: np.ndarray
    ) -> None:
        self.data = data
        # the caller's mask itself when it is a C-ordered bool array
        self.remaining = np.ascontiguousarray(remaining, dtype=bool)
        self._flat_remaining = self.remaining.reshape(-1)  # a view: picks clear it
        self.rank(avg_probs)

    def rank(self, avg_probs: np.ndarray) -> None:
        """Start a new walk over the remaining pairs, costed at ``avg_probs``."""
        rows, cols = np.nonzero(self.remaining)  # row-major: flat pairs ascending
        off_diagonal = rows != cols
        rows, cols = rows[off_diagonal], cols[off_diagonal]
        n = self.remaining.shape[1]
        cost = _pair_costs(self.data, avg_probs, rows, cols).ravel()
        index = (np.arange(len(COMBOS))[:, None] * (n * n) + (rows * n + cols)).ravel()
        finite = np.isfinite(cost)
        self._rest_index, self._rest_cost = index[finite], cost[finite]
        # the ranked chunk: combination, flat pair index and cost of each entry
        self._combo: List[int] = []
        self._pair: List[int] = []
        self._cost: List[float] = []
        self._pos = 0

    def _rank_chunk(self) -> bool:
        """Move the next cheapest unranked entries, every tie of the last
        one included, into the walk; False when none is left."""
        index, cost = self._rest_index, self._rest_cost
        if not cost.size:
            return False
        if cost.size > _RANK_CHUNK:
            take = cost <= np.partition(cost, _RANK_CHUNK - 1)[_RANK_CHUNK - 1]
            keep = ~take
            self._rest_index, self._rest_cost = index[keep], cost[keep]
            index, cost = index[take], cost[take]
        else:
            self._rest_index, self._rest_cost = index[:0], cost[:0]
        # ``index`` is ascending, so a stable sort by cost orders ties by it
        order = np.argsort(cost, kind="stable")
        n = self.remaining.shape[1]
        combos, pairs = np.divmod(index[order], n * n)
        self._combo, self._pair = combos.tolist(), pairs.tolist()
        self._cost = cost[order].tolist()
        self._pos = 0
        return True

    def pick(self) -> Tuple[int, int, Tuple[Move, Move], float]:
        """The cheapest (i, j, combo, cost) of a remaining pair, which is
        retired.  Raises :class:`PhaseError` when no pair remains."""
        remaining = self._flat_remaining
        while True:
            pairs = self._pair
            for pos in range(self._pos, len(pairs)):
                pair = pairs[pos]
                if remaining[pair]:
                    remaining[pair] = False
                    self._pos = pos + 1
                    i, j = divmod(pair, self.remaining.shape[1])
                    return i, j, COMBOS[self._combo[pos]], self._cost[pos]
            if not self._rank_chunk():
                raise PhaseError("candidate pair set is empty")


def best_pair_and_combo(
    data: CostModelData,
    avg_probs: np.ndarray,
    remaining: np.ndarray,
    walk: Optional[PairWalk] = None,
) -> Tuple[int, int, Tuple[Move, Move], float]:
    """Minimum-cost (i, j, combo) over the remaining candidate pairs.

    ``remaining`` is a boolean (P, P) upper-triangular mask of pairs
    still in the candidate set.  Ties go to the earliest combination in
    :data:`COMBOS` order, then to the lowest row-major pair.

    ``walk`` is a :class:`PairWalk` over the same arguments, which a
    caller that picks many pairs between changes of ``avg_probs`` keeps:
    the pick is its next step, and it retires the pair from
    ``remaining``.  Without one, a walk is built and ``remaining`` is
    left as it was.  Raises :class:`PhaseError` when no pair remains.
    """
    if walk is None:
        walk = PairWalk(data, avg_probs, remaining.copy())
    return walk.pick()
