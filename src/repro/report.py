"""Result persistence and rendering.

Serialises flow/table results to JSON and CSV and renders Markdown
tables, so benchmark runs can be archived and diffed across commits —
the workflow EXPERIMENTS.md documents.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.flow import FlowResult, SynthesisVariant
from repro.phase import Phase, PhaseAssignment

#: File extensions :func:`save_results` / :func:`save_batch` understand.
REPORT_EXTENSIONS = (".json", ".csv", ".md")

TABLE_COLUMNS = (
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


def flow_result_to_dict(result: FlowResult) -> Dict[str, object]:
    """Full serialisable record of one flow run (richer than .row())."""
    record: Dict[str, object] = dict(result.row())
    record.update(
        {
            "timed": result.timed,
            "probability_method": result.probability_method,
            "ma_assignment": {po: ph.value for po, ph in result.ma.assignment.items()},
            "mp_assignment": {po: ph.value for po, ph in result.mp.assignment.items()},
            "ma_estimated_power": result.ma.estimated_power,
            "mp_estimated_power": result.mp.estimated_power,
            "ma_critical_delay": result.ma.critical_delay,
            "mp_critical_delay": result.mp.critical_delay,
        }
    )
    for label, variant in (("ma", result.ma), ("mp", result.mp)):
        if variant.resize is not None:
            record[f"{label}_resize"] = {
                "met_timing": variant.resize.met_timing,
                "target": variant.resize.target,
                "initial_delay": variant.resize.initial_delay,
                "final_delay": variant.resize.final_delay,
                "iterations": variant.resize.iterations,
                "upsized_cells": variant.resize.upsized_cells,
            }
    return record


def flow_result_from_dict(record: Mapping[str, object]) -> FlowResult:
    """Rebuild a :class:`FlowResult` from :func:`flow_result_to_dict`.

    The exact inverse: a :class:`FlowResult` is the record, so
    ``flow_result_from_dict(flow_result_to_dict(r)) == r``, and JSON
    round-trips its floats exactly.  A record that does not decode
    raises :class:`ValueError`.
    """
    from repro.domino.timing import ResizeResult

    def variant(label: str) -> SynthesisVariant:
        resize = None
        resize_record = record.get(f"{label}_resize")
        if isinstance(resize_record, Mapping):
            resize = ResizeResult(
                met_timing=bool(resize_record["met_timing"]),
                target=float(resize_record["target"]),
                initial_delay=float(resize_record["initial_delay"]),
                final_delay=float(resize_record["final_delay"]),
                iterations=int(resize_record.get("iterations", 0)),
                upsized_cells=int(resize_record["upsized_cells"]),
            )
        assignment = PhaseAssignment(
            {
                po: Phase(value)
                for po, value in dict(record[f"{label}_assignment"]).items()
            }
        )
        return SynthesisVariant(
            label=label.upper(),
            assignment=assignment,
            size=int(record[f"{label}_size"]),
            power_ma=float(record[f"{label}_pwr"]),
            estimated_power=float(record[f"{label}_estimated_power"]),
            resize=resize,
            critical_delay=float(record.get(f"{label}_critical_delay", 0.0)),
        )

    try:
        return FlowResult(
            name=str(record["ckt"]),
            n_inputs=int(record["n_pis"]),
            n_outputs=int(record["n_pos"]),
            ma=variant("ma"),
            mp=variant("mp"),
            timed=bool(record["timed"]),
            probability_method=str(record["probability_method"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed flow record: {exc}") from exc


def results_to_json(results: Sequence[FlowResult], indent: int = 2) -> str:
    """JSON array of full flow records."""
    return json.dumps([flow_result_to_dict(r) for r in results], indent=indent)


def results_to_csv(results: Sequence[FlowResult]) -> str:
    """CSV with the paper's table columns."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(TABLE_COLUMNS))
    writer.writeheader()
    for result in results:
        row = result.row()
        writer.writerow({k: row[k] for k in TABLE_COLUMNS})
    return buf.getvalue()


def results_to_markdown(
    results: Sequence[FlowResult],
    paper_rows: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """GitHub-flavoured Markdown table, optionally with paper columns."""
    headers = [
        "Ckt",
        "#PI",
        "#PO",
        "MA size",
        "MA pwr",
        "MP size",
        "MP pwr",
        "%Area",
        "%Pwr",
    ]
    if paper_rows:
        headers += ["paper %Area", "paper %Pwr"]
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(["---"] * len(headers)) + "|")
    for result in results:
        row = result.row()
        cells = [
            str(row["ckt"]),
            str(row["n_pis"]),
            str(row["n_pos"]),
            str(row["ma_size"]),
            f"{row['ma_pwr']:.2f}",
            str(row["mp_size"]),
            f"{row['mp_pwr']:.2f}",
            f"{row['area_penalty_pct']:.1f}",
            f"{row['pwr_savings_pct']:.1f}",
        ]
        if paper_rows:
            paper = paper_rows.get(str(row["ckt"]))
            if paper:
                cells += [
                    f"{paper['area_penalty_pct']:.1f}",
                    f"{paper['power_savings_pct']:.1f}",
                ]
            else:
                cells += ["n/a", "n/a"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def save_results(results: Sequence[FlowResult], path: str) -> None:
    """Write results to ``path``; format chosen by extension
    (.json / .csv / .md)."""
    if path.endswith(".json"):
        text = results_to_json(results)
    elif path.endswith(".csv"):
        text = results_to_csv(results)
    elif path.endswith(".md"):
        text = results_to_markdown(results)
    else:
        raise ValueError(
            f"unknown report format for {path!r} (use {'/'.join(REPORT_EXTENSIONS)})"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_results(path: str) -> List[FlowResult]:
    """Read back a JSON report as :class:`FlowResult` objects — the
    symmetric inverse of :func:`save_results` for ``.json`` reports."""
    with open(path, "r", encoding="utf-8") as f:
        return [flow_result_from_dict(record) for record in json.load(f)]


# ----------------------------------------------------------------------
# batch reports


def batch_to_records(batch: "BatchResult") -> List[Dict[str, object]]:  # noqa: F821
    """One record per batch item — full flow record for successes, an
    ``error`` record (name + first traceback line + full traceback) for
    failures, so archived batch runs keep their failure provenance."""
    records: List[Dict[str, object]] = []
    for item in batch.items:
        if item.ok:
            record = flow_result_to_dict(item.result)
        else:
            error = item.error or "unknown error"
            record = {
                "ckt": item.name,
                "error": error.splitlines()[0],
                "traceback": error,
            }
        record["runtime_s"] = item.runtime_s
        record["seed"] = item.config.seed
        records.append(record)
    return records


def save_batch(batch: "BatchResult", path: str) -> None:  # noqa: F821
    """Write a batch run to ``path`` (.json keeps failures and per-item
    metadata; .csv/.md keep the successful table rows)."""
    if path.endswith(".json"):
        text = json.dumps(batch_to_records(batch), indent=2)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return
    save_results(batch.results, path)
