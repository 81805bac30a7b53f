"""Two-level logic minimisation (Quine–McCluskey with cube covering).

Step 1 of the paper's synthesis flow is "technology independent
minimization".  This module provides the two-level part: SOP covers
(e.g. straight from BLIF ``.names`` bodies) are minimised with the
Quine–McCluskey procedure — prime implicant generation by iterative
cube merging, then a greedy set cover after essential-prime extraction.

The cost follows the cover rather than 2^fanin where it can:

* **Early exit.**  An on-set cover of at most one cube, or of
  single-literal cubes on pairwise distinct variables, is returned
  unchanged before any expansion.  That is exact: a cube is the only
  one-cube form of its function, and an OR of k literals on distinct
  variables has exactly those k primes, each essential, so no cover is
  smaller in (cubes, literals).  Off-set covers never take it, since
  they always come back as on-set covers.
* **Bitmask QM** for every other cover.  A set of minterms is an int
  bitset of 2^n bits (bit m is minterm m; variable i is bit i of m and
  position i of a cube string).  A cube is a ``(care, value)`` pair of
  ints, and every implicant sharing one care mask is held as one bitset
  indexed by value, so the merges across variable i of a whole level
  are one shift-and: the partner of value v is ``v | 1 << i``.  The
  cover step gives each prime a coverage bitset, finds the essential
  primes from a once/twice accumulation and counts greedy gains with
  popcounts.

Primes are ordered as their cube strings sort (``'-' < '0' < '1'``,
position 0 first), essential primes in order of the lowest minterm each
one alone covers, and greedy ties go to the earliest prime, so every
cover comes back exactly as the string implementation the tests keep as
the reference returned it, order included.

The worst case is still exponential in the fanin k: the merges run on
bitsets of 2^k bits for up to 2^k care masks, and a k-input function
can have thousands of primes, which the greedy step scans once per
prime it picks (a random 12-input function with thousands of primes
takes about a second).  Covers over more than ``max_inputs`` variables
are therefore returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.errors import NetworkError
from repro.network.netlist import GateType, LogicNetwork, SopCover

Cube = str


def _cube_bits(cube: Cube) -> int:
    """Bitset of the minterms a cube covers (LSB = position 0)."""
    bits, width = 1, 1
    for c in cube:
        if c == "-":
            bits |= bits << width
        elif c == "1":
            bits <<= width
        width <<= 1
    return bits


def _members(bits: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _cube_string(care: int, value: int, n_vars: int) -> Cube:
    return "".join(
        ("1" if value >> i & 1 else "0") if care >> i & 1 else "-"
        for i in range(n_vars)
    )


def prime_implicants(onset: int, n_vars: int) -> List[Cube]:
    """Prime implicants of an on-set bitset via iterative cube merging,
    in cube-string order."""
    if not onset:
        return []
    # lacks[i]: the values (as a bitset over values) without variable i
    lacks = [_cube_bits("-" * i + "0" + "-" * (n_vars - i - 1)) for i in range(n_vars)]
    # One level: care mask -> bitset of the values of its implicants.
    level: Dict[int, int] = {(1 << n_vars) - 1: onset}
    primes: List[Cube] = []
    while level:
        merged: Dict[int, int] = {}
        for care, values in level.items():
            used = 0
            for i in _members(care):
                bit = 1 << i
                pairs = values & (values >> bit) & lacks[i]
                if pairs:
                    merged[care ^ bit] = merged.get(care ^ bit, 0) | pairs
                    used |= pairs | (pairs << bit)
            primes.extend(
                _cube_string(care, v, n_vars) for v in _members(values & ~used)
            )
        level = merged
    return sorted(primes)


def minimum_cover(onset: int, primes: Sequence[Cube]) -> List[Cube]:
    """Greedy prime cover of an on-set bitset after essential-prime
    extraction.

    Essential primes come first, in order of the lowest minterm each
    one alone covers.  Then, while minterms remain, the first prime in
    ``primes`` order that covers the most of them, fewer dashes first
    on a tie.
    """
    if not onset:
        return []
    coverage = [_cube_bits(p) & onset for p in primes]
    once = twice = 0
    for cov in coverage:
        twice |= once & cov
        once |= cov
    alone = once & ~twice
    # (lowest minterm only this prime covers, as a bit; prime index)
    essential = sorted(
        (lone & -lone, k)
        for k, lone in enumerate(cov & alone for cov in coverage)
        if lone
    )
    chosen = [primes[k] for _, k in essential]
    remaining = onset
    for _, k in essential:
        remaining &= ~coverage[k]

    dashes = [p.count("-") for p in primes]
    candidates = range(len(primes))
    while remaining:
        # A prime that gains nothing now never gains again.
        candidates = [k for k in candidates if coverage[k] & remaining]
        if not candidates:
            raise NetworkError("prime cover failed to make progress")  # pragma: no cover
        best = max(
            candidates,
            key=lambda k: ((coverage[k] & remaining).bit_count(), -dashes[k]),
        )
        chosen.append(primes[best])
        remaining &= ~coverage[best]
    return chosen


@dataclass
class MinimizationResult:
    """Outcome of cover minimisation."""

    cover: SopCover
    original_cubes: int
    minimized_cubes: int
    original_literals: int
    minimized_literals: int

    @property
    def improved(self) -> bool:
        return (self.minimized_cubes, self.minimized_literals) < (
            self.original_cubes,
            self.original_literals,
        )


def _literals(cubes: Iterable[Cube]) -> int:
    return sum(len(c) - c.count("-") for c in cubes)


def _provably_minimum(cubes: Sequence[Cube]) -> bool:
    """At most one cube, or single-literal cubes on pairwise distinct
    variables: no two-level cover of the function is smaller."""
    if len(cubes) <= 1:
        return True
    variables = set()
    for cube in cubes:
        if cube.count("-") != len(cube) - 1:
            return False
        variable = len(cube) - len(cube.lstrip("-"))
        if variable in variables:
            return False
        variables.add(variable)
    return True


def minimize_cover(cover: SopCover, n_inputs: int, max_inputs: int = 12) -> MinimizationResult:
    """Quine–McCluskey minimisation of one SOP cover.

    Covers over more than ``max_inputs`` variables are returned
    unchanged (minterm expansion would be exponential), and so are
    on-set covers that are already provably minimum.
    """
    literals = _literals(cover.cubes)
    original = MinimizationResult(
        cover=cover,
        original_cubes=len(cover.cubes),
        minimized_cubes=len(cover.cubes),
        original_literals=literals,
        minimized_literals=literals,
    )
    if n_inputs == 0 or n_inputs > max_inputs:
        return original
    if cover.output_value == "1" and _provably_minimum(cover.cubes):
        return original

    onset = 0
    for cube in cover.cubes:
        onset |= _cube_bits(cube)
    if cover.output_value == "0":
        onset = ((1 << (1 << n_inputs)) - 1) & ~onset

    primes = prime_implicants(onset, n_vars=n_inputs)
    chosen = minimum_cover(onset, primes)
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


def minimize_network(network: LogicNetwork, max_inputs: int = 12) -> LogicNetwork:
    """Minimise every SOP node of a network (returns a new network)."""
    net = network.copy()
    for node in net.nodes.values():
        if node.gate_type is not GateType.SOP or node.cover is None:
            continue
        result = minimize_cover(node.cover, len(node.fanins), max_inputs=max_inputs)
        cover = result.cover
        if not cover.cubes:
            # Empty on-set/off-set covers are constants.
            node.gate_type = (
                GateType.CONST0 if cover.output_value == "1" else GateType.CONST1
            )
            node.fanins = []
            node.cover = None
            continue
        # Drop fanins no cube mentions.
        used = [
            i for i in range(len(node.fanins))
            if any(cube[i] != "-" for cube in cover.cubes)
        ]
        if len(used) != len(node.fanins):
            node.fanins = [node.fanins[i] for i in used]
            cover = SopCover(
                cubes=["".join(c[i] for i in used) for c in cover.cubes],
                output_value=cover.output_value,
            )
        node.cover = cover
    net.validate()
    return net
