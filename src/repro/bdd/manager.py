"""A from-scratch ROBDD package.

Reduced Ordered Binary Decision Diagrams (Bryant, 1986 — reference [1]
in the paper) with a unique table, an ITE-based apply with memoisation,
satisfying-probability evaluation, and node counting.  The manager is
deliberately small and dependency-free; it is the workhorse behind the
paper's exact signal-probability computation (Section 4.2.2).

Nodes are integers.  ``0`` and ``1`` are the terminal nodes; every
other node is a triple ``(level, low, high)`` interned in the unique
table.  Variables are identified by *level* (position in the current
ordering); the manager also keeps a name <-> level mapping so callers
can think in terms of variable names.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import BddError

ZERO = 0
ONE = 1


class BddManager:
    """ROBDD manager with a fixed variable ordering.

    Parameters
    ----------
    variables:
        Ordered variable names; index 0 is the *top* level of the BDD.
    max_nodes:
        Safety budget.  Exceeding it raises :class:`BddError` so callers
        can fall back to Monte-Carlo estimation instead of thrashing.
    """

    def __init__(self, variables: Sequence[str], max_nodes: int = 2_000_000):
        if len(set(variables)) != len(variables):
            raise BddError("duplicate variable names in ordering")
        self.variables: List[str] = list(variables)
        self.level_of: Dict[str, int] = {v: i for i, v in enumerate(variables)}
        self.max_nodes = max_nodes
        # node id -> (level, low, high); ids 0 and 1 are terminals.
        self._nodes: List[Tuple[int, int, int]] = [
            (len(variables), ZERO, ZERO),  # dummy record for terminal 0
            (len(variables), ONE, ONE),  # dummy record for terminal 1
        ]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._nodes) >= self.max_nodes:
            raise BddError(
                f"BDD node budget exceeded ({self.max_nodes} nodes); "
                "consider a different ordering or Monte-Carlo fallback"
            )
        node_id = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node_id
        return node_id

    def var(self, name: str) -> int:
        """BDD for a single variable."""
        try:
            level = self.level_of[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None
        return self._mk(level, ZERO, ONE)

    def nvar(self, name: str) -> int:
        """BDD for a negated variable."""
        try:
            level = self.level_of[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None
        return self._mk(level, ONE, ZERO)

    def level(self, f: int) -> int:
        if f <= ONE:
            return len(self.variables)
        return self._nodes[f][0]

    def cofactors(self, f: int, level: int) -> Tuple[int, int]:
        """(low, high) cofactors of ``f`` with respect to ``level``."""
        if f <= ONE or self._nodes[f][0] != level:
            return f, f
        _, lo, hi = self._nodes[f]
        return lo, hi

    @property
    def node_count(self) -> int:
        """Total interned non-terminal nodes in the manager."""
        return len(self._nodes) - 2

    # ------------------------------------------------------------------
    # Boolean operations (ITE core)
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h``."""
        if f == ONE:
            return g
        if f == ZERO:
            return h
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self.level(f), self.level(g), self.level(h))
        f0, f1 = self.cofactors(f, top)
        g0, g1 = self.cofactors(g, top)
        h0, h1 = self.cofactors(h, top)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        result = self._mk(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def apply_not(self, f: int) -> int:
        cached = self._not_cache.get(f)
        if cached is None:
            cached = self.ite(f, ZERO, ONE)
            self._not_cache[f] = cached
        return cached

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, ZERO)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, ONE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_many(self, op: str, operands: Sequence[int]) -> int:
        """Fold a variadic AND/OR/XOR over operands."""
        if not operands:
            raise BddError(f"apply_many({op!r}) with no operands")
        ops: Dict[str, Tuple[Callable[[int, int], int], Optional[int]]] = {
            "and": (self.apply_and, ONE),
            "or": (self.apply_or, ZERO),
            "xor": (self.apply_xor, ZERO),
        }
        if op not in ops:
            raise BddError(f"unknown operator {op!r}")
        fn, _ident = ops[op]
        acc = operands[0]
        for nxt in operands[1:]:
            acc = fn(acc, nxt)
        return acc

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def probability(self, f: int, var_probs: Mapping[str, float]) -> float:
        """Probability that ``f`` evaluates to 1 given independent
        per-variable probabilities.

        This is the signal-probability primitive of the paper's power
        estimator: P(node) computed bottom-up over the shared DAG.
        """
        memo: Dict[int, float] = {ZERO: 0.0, ONE: 1.0}
        stack = [f]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            level, lo, hi = self._nodes[node]
            missing = [c for c in (lo, hi) if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            p = var_probs.get(self.variables[level], 0.5)
            memo[node] = p * memo[hi] + (1.0 - p) * memo[lo]
            stack.pop()
        return memo[f]

    def probabilities(self, var_probs: Mapping[str, float]) -> List[float]:
        """:meth:`probability` of every node, indexed by node id.

        :meth:`_mk` appends, so a node's children have lower ids than
        the node: one pass in id order finds both children computed and
        gives each node the float :meth:`probability` gives it.
        """
        level_probs = [var_probs.get(v, 0.5) for v in self.variables]
        probs = [0.0, 1.0]
        for level, lo, hi in self._nodes[2:]:
            p = level_probs[level]
            probs.append(p * probs[hi] + (1.0 - p) * probs[lo])
        return probs

    def dag_size(self, roots: Iterable[int]) -> int:
        """Number of distinct non-terminal nodes reachable from ``roots``.

        This is the "number of BDD nodes" metric of Figure 10.
        """
        seen: Set[int] = set()
        stack = [r for r in roots]
        while stack:
            node = stack.pop()
            if node <= ONE or node in seen:
                continue
            seen.add(node)
            _, lo, hi = self._nodes[node]
            stack.append(lo)
            stack.append(hi)
        return len(seen)

    def evaluate(self, f: int, values: Mapping[str, bool]) -> bool:
        """Evaluate a BDD on a complete variable assignment."""
        node = f
        while node > ONE:
            level, lo, hi = self._nodes[node]
            node = hi if values.get(self.variables[level], False) else lo
        return node == ONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BddManager {len(self.variables)} vars, {self.node_count} nodes>"
