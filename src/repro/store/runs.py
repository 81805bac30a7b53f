"""Run registry: round-trippable records of flow/batch/sweep runs.

A :class:`RunRecord` stores the full per-circuit flow records *plus*
config provenance, and loads back to real :class:`FlowResult` objects
via :func:`repro.report.flow_result_from_dict`.

Records are one JSON file per run under the registry root (default
``<store root>/runs``), named by ``run_id``, so a registry survives
anything that can hold files and diffs cleanly in git or CI artefacts.
:meth:`RunStore.query` filters by circuit name, run kind, and creation
date without deserialising the flow payloads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ReproError
from repro.store.artifacts import default_store_dir, tmp_sibling

#: Run kinds the registry understands (free-form strings are allowed;
#: these are what the built-in recorders emit).
RUN_KINDS = ("flow", "batch", "table", "sweep")


class RunStoreError(ReproError):
    """A run record could not be stored, loaded, or parsed."""


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _parse_when(value: Union[str, datetime, None]) -> Optional[datetime]:
    if value is None:
        return None
    if isinstance(value, datetime):
        return value if value.tzinfo else value.replace(tzinfo=timezone.utc)
    text = str(value)
    for fmt in ("%Y-%m-%dT%H:%M:%S.%fZ", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
    raise RunStoreError(f"cannot parse date {value!r} (use ISO format)")


@dataclass
class RunRecord:
    """One archived run: config provenance + per-circuit flow records."""

    run_id: str
    kind: str
    created_at: str
    circuits: List[str]
    config: Dict[str, Any]
    records: List[Dict[str, Any]]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.records if "error" not in r)

    @property
    def n_failed(self) -> int:
        return len(self.records) - self.n_ok

    def flow_results(self) -> List["FlowResult"]:  # noqa: F821
        """The successful per-circuit results as :class:`FlowResult`
        objects, equal to the ones that were recorded."""
        from repro.report import flow_result_from_dict

        return [flow_result_from_dict(r) for r in self.records if "error" not in r]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "created_at": self.created_at,
            "circuits": list(self.circuits),
            "config": dict(self.config),
            "records": list(self.records),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        try:
            return cls(
                run_id=str(data["run_id"]),
                kind=str(data["kind"]),
                created_at=str(data["created_at"]),
                circuits=list(data["circuits"]),
                config=dict(data["config"]),
                records=list(data["records"]),
                meta=dict(data.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RunStoreError(f"malformed run record: {exc}") from exc


class RunStore:
    """Directory of :class:`RunRecord` JSON files, one per run."""

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.path.join(default_store_dir(), "runs")
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.root)!r})"

    # ------------------------------------------------------------------
    # recording

    def new_run_id(self, kind: str) -> str:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        return f"{kind}-{stamp}-{os.urandom(3).hex()}"

    def save(self, record: RunRecord) -> Path:
        path = self.root / f"{record.run_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        # same thread-unique suffix rule as ArtifactStore.put: run ids
        # are usually unique, but concurrent re-saves of one record must
        # not share a temp path
        tmp = tmp_sibling(path)
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(record.to_dict(), f, indent=2)
        os.replace(tmp, path)
        return path

    def record_flow(
        self,
        result: "FlowResult",  # noqa: F821
        config: "FlowConfig",  # noqa: F821
        meta: Optional[Dict[str, Any]] = None,
    ) -> RunRecord:
        """Archive one :class:`FlowResult` as a single-circuit run."""
        from repro.report import flow_result_to_dict

        record = RunRecord(
            run_id=self.new_run_id("flow"),
            kind="flow",
            created_at=_utc_now_iso(),
            circuits=[result.name],
            config=config.to_dict(),
            records=[flow_result_to_dict(result)],
            meta=dict(meta or {}),
        )
        self.save(record)
        return record

    def record_batch(
        self,
        batch: "BatchResult",  # noqa: F821
        config: Optional["FlowConfig"] = None,  # noqa: F821
        kind: str = "batch",
        meta: Optional[Dict[str, Any]] = None,
    ) -> RunRecord:
        """Archive a :class:`BatchResult` (successes and failures both)."""
        from repro.report import batch_to_records

        if config is None and batch.items:
            config = batch.items[0].config
        merged_meta = {"jobs": batch.jobs, "runtime_s": batch.runtime_s}
        merged_meta.update(meta or {})
        record = RunRecord(
            run_id=self.new_run_id(kind),
            kind=kind,
            created_at=_utc_now_iso(),
            circuits=[item.name for item in batch.items],
            config=config.to_dict() if config is not None else {},
            records=batch_to_records(batch),
            meta=merged_meta,
        )
        self.save(record)
        return record

    def record_sweep(self, sweep_result: "SweepResult") -> RunRecord:  # noqa: F821
        """Archive a :func:`repro.core.batch.sweep` run with its grid
        manifest (base config, parameter grid, per-point outcomes)."""
        from repro.report import batch_to_records

        records: List[Dict[str, Any]] = []
        for point in sweep_result.points:
            for item_record, item in zip(
                batch_to_records(point.as_batch()), point.items
            ):
                item_record["sweep_params"] = dict(point.params)
                records.append(item_record)
        record = RunRecord(
            run_id=self.new_run_id("sweep"),
            kind="sweep",
            created_at=_utc_now_iso(),
            circuits=list(sweep_result.circuits),
            config=sweep_result.base_config.to_dict(),
            records=records,
            meta=sweep_result.manifest(),
        )
        self.save(record)
        return record

    # ------------------------------------------------------------------
    # loading / querying

    def load(self, run_id: str) -> RunRecord:
        path = self.root / f"{run_id}.json"
        try:
            with open(path, "r", encoding="utf-8") as f:
                return RunRecord.from_dict(json.load(f))
        except FileNotFoundError:
            raise RunStoreError(f"no run {run_id!r} in {self.root}") from None
        except (OSError, ValueError) as exc:
            raise RunStoreError(f"cannot read run {run_id!r}: {exc}") from exc

    def list_ids(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def query(
        self,
        circuit: Optional[str] = None,
        kind: Optional[str] = None,
        since: Union[str, datetime, None] = None,
        until: Union[str, datetime, None] = None,
        config_match: Optional[Mapping[str, Any]] = None,
    ) -> List[RunRecord]:
        """Archived runs filtered by circuit name, kind, date window and
        config fields; unreadable files are skipped, newest first."""
        since_dt = _parse_when(since)
        until_dt = _parse_when(until)
        matches: List[RunRecord] = []
        for run_id in self.list_ids():
            try:
                record = self.load(run_id)
            except RunStoreError:
                continue
            if kind is not None and record.kind != kind:
                continue
            if circuit is not None and circuit not in record.circuits:
                continue
            if since_dt is not None or until_dt is not None:
                try:
                    created = _parse_when(record.created_at)
                except RunStoreError:
                    continue
                if since_dt is not None and created < since_dt:
                    continue
                if until_dt is not None and created > until_dt:
                    continue
            if config_match is not None and any(
                record.config.get(field_name) != expected
                for field_name, expected in config_match.items()
            ):
                continue
            matches.append(record)
        matches.sort(key=lambda r: r.created_at, reverse=True)
        return matches
