"""Figure 2 experiment: switching vs signal probability, analytic + MC.

Validates the two analytic curves (domino: S = p; static: S = 2p(1-p))
against Monte-Carlo measurements on a single AND gate whose input
probability is swept so its output probability covers [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.power.activity import domino_switching, static_switching


@dataclass
class Figure2Point:
    signal_probability: float
    domino_analytic: float
    static_analytic: float
    domino_measured: float
    static_measured: float


def run_figure2(
    probabilities: List[float] = None, n_vectors: int = 65536, seed: int = 0
) -> List[Figure2Point]:
    """Sweep signal probability; measure both switching models by MC."""
    if probabilities is None:
        probabilities = [i / 20 for i in range(21)]
    rng = np.random.default_rng(seed)
    points: List[Figure2Point] = []
    for p in probabilities:
        stream = rng.random(n_vectors) < p
        # Domino: one discharge/precharge pair whenever the output is 1.
        domino_measured = float(stream.mean())
        # Static: transitions between consecutive evaluations.
        if n_vectors > 1:
            static_measured = float(np.mean(stream[1:] != stream[:-1]))
        else:
            static_measured = 0.0
        points.append(
            Figure2Point(
                signal_probability=p,
                domino_analytic=domino_switching(p),
                static_analytic=static_switching(p),
                domino_measured=domino_measured,
                static_measured=static_measured,
            )
        )
    return points


def format_figure2(points: List[Figure2Point]) -> str:
    lines = [
        "Figure 2 — switching probability vs signal probability",
        f"{'p':>5} {'domino':>8} {'dom(MC)':>8} {'static':>8} {'sta(MC)':>8}",
    ]
    for pt in points:
        lines.append(
            f"{pt.signal_probability:>5.2f} {pt.domino_analytic:>8.4f} "
            f"{pt.domino_measured:>8.4f} {pt.static_analytic:>8.4f} "
            f"{pt.static_measured:>8.4f}"
        )
    return "\n".join(lines)
