"""Benchmark inputs, flow settings and the output check.

Every circuit a workload can receive comes from one of two finite
pools, so that ``expected.json`` can hold the correct row of each:

* the **large pool**: generated control circuits with 56 primary
  outputs.  The generator seeds in :data:`LARGE_GENERATOR_SEEDS` are
  the ones among 1..11 whose minimum-area hill climb makes 9,800 to
  9,972 area queries (every one makes 1,542 power queries), so that
  every pick of circuits costs about the same and seed-to-seed spread
  stays below the metric bounds.  A run of one takes about 1.1 s, of
  which the MA and MP searches are ~90%.  The suite circuits x3 and
  industry2 are of the same kind but take 5-6 s a run, too long to
  repeat often enough in a run to steady the figures on a shared host;
* the **small pool**: :data:`SMALL_POOL_SIZE` generated circuits with
  2 to 8 primary outputs, handed to the program as BLIF text (the
  serving workload posts exactly that text, so batch and serve see the
  same parsed networks).

A workload seed picks circuits from these pools; it never changes how
a circuit is built.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import FlowConfig
from repro.bench.generators import GeneratorConfig, random_control_network
from repro.network.blif import write_blif
from repro.network.minimize import minimize_network
from repro.network.netlist import LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.network.strash import structural_hash
from repro.power.estimator import estimate_power

from perfbench.tracing import FLOW_COUNTERS

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Table 1 untimed flow, one caller, sequential stages.
LARGE_CONFIG = FlowConfig(n_vectors=2048, stage_jobs=1)
#: Table 2 timed flow; ``stage_jobs`` stays auto, which resolves to
#: sequential stages inside pool workers.
SMALL_CONFIG = FlowConfig(n_vectors=2048, timed=True)

LARGE_GENERATOR_SEEDS: Tuple[int, ...] = (1, 3, 4, 5, 6, 7, 8, 9, 10, 11)
SMALL_POOL_SIZE = 1200

#: Relative tolerance for float row fields and the estimator
#: cross-check (the reference sums in a different order).
REL_TOL = 1e-9


def large_names() -> List[str]:
    return [f"L{seed}" for seed in LARGE_GENERATOR_SEEDS]


def build_large(name: str) -> LogicNetwork:
    seed = int(name[1:])
    config = GeneratorConfig(
        n_inputs=92,
        n_outputs=56,
        n_gates=550,
        seed=seed,
        support_size=12,
        or_probability=0.45,
    )
    return random_control_network(name, config)


def small_name(index: int) -> str:
    return f"S{index}"


def small_blif(index: int) -> str:
    """BLIF text of small-pool circuit ``index`` (2..8 POs)."""
    rng = random.Random(index)
    n_outputs = rng.randint(2, 8)
    config = GeneratorConfig(
        n_inputs=rng.randint(8, 24),
        n_outputs=n_outputs,
        n_gates=rng.randint(4, 10) * n_outputs,
        seed=index,
    )
    return write_blif(random_control_network(small_name(index), config))


# ----------------------------------------------------------------------
# expected rows and counters


#: ``FlowResult.row()`` columns; expected rows are stored as value lists.
ROW_COLUMNS: Tuple[str, ...] = (
    "ckt",
    "n_pis",
    "n_pos",
    "ma_size",
    "ma_pwr",
    "mp_size",
    "mp_pwr",
    "area_penalty_pct",
    "pwr_savings_pct",
)


def encode_pool(
    config: FlowConfig,
    rows: Mapping[str, Mapping[str, Any]],
    counters: Mapping[str, Mapping[str, int]],
) -> Dict[str, Any]:
    """The compact ``expected.json`` record of one pool."""
    return {
        "config": config_record(config),
        "rows": {name: [row[c] for c in ROW_COLUMNS] for name, row in rows.items()},
        "counters": {
            name: [counts.get(c, 0) for c in FLOW_COUNTERS]
            for name, counts in counters.items()
        },
    }


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    """``{pool: {"rows": {name: row}, "counters": {name: counts}}}`` plus
    the store profiles of one cold and one warm serving request."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    expected: Dict[str, Any] = {"store": raw["store"]}
    for pool, config in (("large", LARGE_CONFIG), ("small", SMALL_CONFIG)):
        record = raw[pool]
        if record["config"] != config_record(config):
            raise SystemExit(
                f"{path.name} was made with another {pool}-pool flow config; "
                "regenerate it with perfbench/make_expected.py"
            )
        expected[pool] = {
            "rows": {
                name: dict(zip(ROW_COLUMNS, values))
                for name, values in record["rows"].items()
            },
            "counters": {
                name: {c: v for c, v in zip(FLOW_COUNTERS, values) if v}
                for name, values in record["counters"].items()
            },
        }
    return expected


def config_record(config: FlowConfig) -> Dict[str, Any]:
    return json.loads(json.dumps(config.to_dict()))


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def row_mismatch(row: Optional[Mapping[str, Any]], expected: Mapping[str, Any]) -> Optional[str]:
    """Why ``row`` differs from its expected row, or ``None``."""
    if row is None:
        return "no row returned"
    row = json.loads(json.dumps(row))
    if set(row) != set(expected):
        return f"columns {sorted(row)} != {sorted(expected)}"
    for key, want in expected.items():
        if not _same(row[key], want):
            return f"{key}={row[key]!r}, expected {want!r}"
    return None


def estimator_mismatch(network: LogicNetwork, flow: Any, config: FlowConfig) -> Optional[str]:
    """Re-derive both variants' estimated power with the explicit
    transform reference :func:`estimate_power`; ``None`` if they agree."""
    prepared = network
    if config.minimize:
        prepared = minimize_network(prepared)
    if config.strash:
        prepared = structural_hash(prepared).network
    aoi = cleanup(to_aoi(prepared))
    probs = {name: config.input_probability for name in aoi.inputs}
    for variant in (flow.ma, flow.mp):
        reference = estimate_power(
            aoi,
            variant.assignment,
            input_probs=probs,
            model=config.resolved_model(),
            method=config.power_method,
            seed=config.seed,
        ).total
        if not _same(reference, variant.estimated_power):
            return (
                f"{variant.label} estimated power {variant.estimated_power!r} != "
                f"estimate_power reference {reference!r}"
            )
    return None


def counter_change(
    label: str, measured: Mapping[str, int], expected: Optional[Mapping[str, int]]
) -> Optional[str]:
    """How ``measured`` work counters differ from the committed ones."""
    if expected is None:
        return f"{label}: no expected counters"
    keys = sorted(set(measured) | set(expected))
    diff = {
        k: (measured.get(k, 0), expected.get(k, 0))
        for k in keys
        if measured.get(k, 0) != expected.get(k, 0)
    }
    return f"{label}: (measured, expected) {diff}" if diff else None

