"""Shared, importable test helpers.

Plain module (not a conftest) so test files can import it without
relying on pytest's rootdir-relative ``conftest`` module name, which
collides with ``benchmarks/conftest.py`` when both directories are
collected in one run.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.errors import NetworkError
from repro.network.blif import write_blif
from repro.network.minimize import MinimizationResult
from repro.network.netlist import SopCover


def all_input_vectors(names):
    """All boolean assignments over the given input names."""
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def small_pool_blif(index: int) -> str:
    """BLIF text of a small generated circuit (2..8 outputs), built the
    way perfbench's small pool builds circuit ``index``."""
    rng = random.Random(index)
    n_outputs = rng.randint(2, 8)
    config = GeneratorConfig(
        n_inputs=rng.randint(8, 24),
        n_outputs=n_outputs,
        n_gates=rng.randint(4, 10) * n_outputs,
        seed=index,
    )
    return write_blif(random_control_network(f"S{index}", config))


def ranked_pairs(data):
    """Row-major indices ``i * P + j`` of the pairs ``i < j`` in the order
    ``max_pairs`` keeps them: highest overlap-weighted cone size first,
    lowest index on a tie.  Each item is ``(-score, index)``."""
    n = len(data.outputs)
    return sorted(
        (-(data.overlap[i, j] * (data.sizes[i] + data.sizes[j])), i * n + j)
        for i in range(n)
        for j in range(i + 1, n)
    )


# ----------------------------------------------------------------------
# Reference two-level minimiser: the string-cube Quine–McCluskey that
# repro.network.minimize replaced.  Its results, order included, are
# what the bitmask minimiser must reproduce.


def bitset(minterms: Iterable[int]) -> int:
    """The on-set bitset of a set of minterm indices."""
    bits = 0
    for m in minterms:
        bits |= 1 << m
    return bits


def cube_minterms(cube: str) -> Iterable[int]:
    """All minterm indices covered by a cube (LSB = position 0)."""
    dash_positions = [i for i, c in enumerate(cube) if c == "-"]
    base = 0
    for i, c in enumerate(cube):
        if c == "1":
            base |= 1 << i
    for mask in range(1 << len(dash_positions)):
        m = base
        for k, pos in enumerate(dash_positions):
            if (mask >> k) & 1:
                m |= 1 << pos
        yield m


def merge_cubes(a: str, b: str) -> Optional[str]:
    """Merge two cubes differing in exactly one specified literal."""
    diff = -1
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            if ca == "-" or cb == "-" or diff >= 0:
                return None
            diff = i
    if diff < 0:
        return None
    return a[:diff] + "-" + a[diff + 1 :]


def reference_prime_implicants(minterms: Set[int], n_vars: int) -> List[str]:
    """Prime implicants of the on-set via iterative cube merging."""
    if not minterms:
        return []
    current: Set[str] = {
        "".join("1" if (m >> i) & 1 else "0" for i in range(n_vars))
        for m in minterms
    }
    primes: Set[str] = set()
    while current:
        merged: Set[str] = set()
        used: Set[str] = set()
        cubes = sorted(current)
        by_ones: Dict[int, List[str]] = {}
        for cube in cubes:
            by_ones.setdefault(cube.count("1"), []).append(cube)
        for ones, group in sorted(by_ones.items()):
            for other in by_ones.get(ones + 1, []):
                for cube in group:
                    m = merge_cubes(cube, other)
                    if m is not None:
                        merged.add(m)
                        used.add(cube)
                        used.add(other)
        primes |= current - used
        current = merged
    return sorted(primes)


def reference_minimum_cover(minterms: Set[int], primes: Sequence[str]) -> List[str]:
    """Greedy prime cover with essential-prime extraction."""
    if not minterms:
        return []
    coverage: Dict[str, Set[int]] = {
        p: set(cube_minterms(p)) & minterms for p in primes
    }
    remaining = set(minterms)
    chosen: List[str] = []

    # Essential primes: minterms covered by exactly one prime.
    for m in sorted(minterms):
        covering = [p for p in primes if m in coverage[p]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
            remaining -= coverage[covering[0]]

    # Greedy cover of the rest.
    while remaining:
        best = max(primes, key=lambda p: (len(coverage[p] & remaining), -p.count("-")))
        gain = coverage[best] & remaining
        if not gain:
            raise NetworkError("prime cover failed to make progress")
        chosen.append(best)
        remaining -= gain
    return chosen


def _literals(cubes: Iterable[str]) -> int:
    return sum(len(c) - c.count("-") for c in cubes)


def reference_minimize_cover(
    cover: SopCover, n_inputs: int, max_inputs: int = 12
) -> MinimizationResult:
    """``minimize_cover`` as the string implementation computed it."""
    original = MinimizationResult(
        cover=cover,
        original_cubes=len(cover.cubes),
        minimized_cubes=len(cover.cubes),
        original_literals=_literals(cover.cubes),
        minimized_literals=_literals(cover.cubes),
    )
    if n_inputs == 0 or n_inputs > max_inputs:
        return original

    minterms: Set[int] = set()
    for cube in cover.cubes:
        minterms |= set(cube_minterms(cube))
    if cover.output_value == "0":
        minterms = set(range(1 << n_inputs)) - minterms

    primes = reference_prime_implicants(minterms, n_vars=n_inputs)
    chosen = reference_minimum_cover(minterms, primes)
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
