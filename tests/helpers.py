"""Shared, importable test helpers.

Plain module (not a conftest) so test files can import it without
relying on pytest's rootdir-relative ``conftest`` module name, which
collides with ``benchmarks/conftest.py`` when both directories are
collected in one run.
"""

from __future__ import annotations

import itertools


def all_input_vectors(names):
    """All boolean assignments over the given input names."""
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


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
