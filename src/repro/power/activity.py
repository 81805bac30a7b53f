"""Switching-activity models (paper Section 2, Figure 2).

The paper's key observation (Property 2.1): for a domino gate the
switching probability *equals* the signal probability — every cycle in
which the gate evaluates to 1 costs a discharge plus a precharge.  A
static CMOS gate, by contrast, switches only when its output *changes*,
which under temporal independence happens with probability
``2 p (1 - p)``.

Property 2.2 (domino gates never glitch) is what makes zero-delay
switching counts exact for domino blocks; the Monte-Carlo simulator in
:mod:`repro.power.simulator` relies on it.

Boundary inverters need care (they are the static cells in Figure 5):

* A static inverter on a **block input** sees an ordinary static signal
  and switches ``2 p (1 - p)`` per cycle.
* A static inverter on a **domino output** sees a monotonic pulse: the
  domino gate rises with probability ``p`` and always resets during
  precharge, so the inverter toggles in exactly the cycles the gate
  fires — switching probability ``p`` of the driving gate.
"""

from __future__ import annotations

from typing import Callable, Dict, List


def domino_switching(signal_probability: float) -> float:
    """Switching probability of a domino gate (Property 2.1): S = p."""
    _check_probability(signal_probability)
    return signal_probability


def static_switching(signal_probability: float) -> float:
    """Per-cycle transition probability of a static gate output.

    Under temporal independence a static output toggles when two
    consecutive evaluations differ: ``2 p (1 - p)``.
    """
    _check_probability(signal_probability)
    return 2.0 * signal_probability * (1.0 - signal_probability)

def boundary_input_inverter_switching(input_probability: float) -> float:
    """Static inverter at a domino block input (static driver): 2p(1-p)."""
    return static_switching(input_probability)


def boundary_output_inverter_switching(gate_probability: float) -> float:
    """Static inverter driven by a domino gate: toggles iff the gate fires."""
    _check_probability(gate_probability)
    return gate_probability


def switching_curve(
    model: Callable[[float], float], points: int = 101
) -> List[Dict[str, float]]:
    """Sample a switching model over p in [0, 1] (Figure 2 series)."""
    rows = []
    for i in range(points):
        p = i / (points - 1)
        rows.append({"signal_probability": p, "switching_probability": model(p)})
    return rows


def figure2_series(points: int = 101) -> Dict[str, List[Dict[str, float]]]:
    """Both Figure 2 curves: domino (identity) and static (2p(1-p))."""
    return {
        "domino": switching_curve(domino_switching, points),
        "static": switching_curve(static_switching, points),
    }


def _check_probability(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
