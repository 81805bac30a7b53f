"""Command-line interface.

``repro-domino`` (or ``python -m repro``) regenerates every table and
figure of the paper and runs the flow on arbitrary BLIF files::

    repro-domino figure2                 # switching curves
    repro-domino figure5                 # phase-assignment switching gap
    repro-domino figure9                 # enhanced MFVS demo
    repro-domino figure10                # BDD ordering comparison
    repro-domino table1 [--jobs N]       # MA vs MP, untimed
    repro-domino table2 [--jobs N]       # MA vs MP, timed (resizing)
    repro-domino synth design.blif       # run the flow on a BLIF file
    repro-domino batch dir/ --jobs 4     # parallel flow over many BLIFs
    repro-domino info design.blif        # network statistics
    repro-domino lint src/               # codebase-invariant linter

``synth`` and ``batch`` accept ``--config config.json``, a JSON dump
of :class:`repro.FlowConfig` (see ``FlowConfig.to_json``); explicit
command-line flags override fields from the file.  ``batch`` fans the
circuits across worker processes (``--jobs``) with per-circuit error
isolation: one bad BLIF is reported and the rest still complete.
``table1``/``table2`` parallelise the same way with ``--jobs``.

``--optimizer NAME`` (synth/batch/table1/table2/sweep/serve) picks the
MP phase-assignment strategy from the :mod:`repro.optimize` registry
(default ``pairwise``, the paper's Section 4.1 heuristic), and
``--optimizer-param KEY=VALUE`` (repeatable) sets strategy parameters
and budget keys (``max_evaluations`` / ``max_seconds`` /
``tolerance``)::

    repro-domino synth design.blif --optimizer anneal \
        --optimizer-param steps=512 --optimizer-param max_seconds=30
    repro-domino sweep designs/ --grid optimizer=pairwise,greedy-flip \
        --grid optimizer_params.max_evaluations=64,256 --store

Unknown strategy names and unknown params exit with a clean config
error (code 2), never a stack trace.

``--stage-jobs N`` (synth/batch/table1/table2/sweep/serve) additionally
threads the independent MA/MP work *inside* each flow (transform, map,
resize, measure, and the MP-search overlap) — useful when a single
large circuit should use more than one core.  Results are bit-identical
at any setting; the default (auto) turns stage threads off inside
``--jobs`` worker processes so the two levels compose without
oversubscription.

Persistent caching: ``synth``, ``batch``, ``table1`` and ``table2``
accept ``--store`` (and ``--store-dir DIR``) to run against a
disk-backed :class:`repro.store.ArtifactStore` — a second identical
invocation is served from disk without executing any synthesis stage::

    repro-domino table1 --quick --store      # cold: fills .repro-store
    repro-domino table1 --quick --store      # warm: store-served
    repro-domino sweep dir/ --grid n_vectors=1024,4096 --store
    repro-domino cache stats                 # inspect the store
    repro-domino cache gc --max-age-days 30  # prune stale entries

Async serving: ``repro-domino serve --port 8080 --store`` runs the
long-lived job-queue service (:mod:`repro.serve`) — submit circuits
with ``POST /jobs`` (``{"blif": ...}`` / ``{"path": ...}`` /
``{"spec": ...}``), poll ``GET /jobs/<id>``, stream
``GET /jobs/<id>/events``, check ``GET /healthz``.  With ``--store``,
repeated submissions are answered instantly from the artifact store.

Invariant linting: ``repro-domino lint [paths...]`` runs the
:mod:`repro.analysis` rule set (monotonic deadlines, tmp_sibling temp
files, seeded RNGs, no blocking calls in async code, …) over the given
files or directories.  Exit code 0 means clean, 1 means findings, 2
means a usage error (unknown rule id, missing path); ``--format json``
emits machine-readable findings and ``--select``/``--ignore`` narrow
the rule set by id.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.power.activity import figure2_series

    series = figure2_series(points=args.points)
    print("p\tdomino_S\tstatic_S")
    for dom, sta in zip(series["domino"], series["static"]):
        p = dom["signal_probability"]
        print(f"{p:.2f}\t{dom['switching_probability']:.4f}\t{sta['switching_probability']:.4f}")
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.experiments.figure5 import run_figure5, format_figure5

    result = run_figure5(n_vectors=args.vectors, seed=args.seed)
    print(format_figure5(result))
    return 0


def _cmd_figure9(args: argparse.Namespace) -> int:
    from repro.experiments.figure9 import run_figure9, format_figure9

    print(format_figure9(run_figure9()))
    return 0


def _cmd_figure10(args: argparse.Namespace) -> int:
    from repro.experiments.figure10 import run_figure10, format_figure10

    print(format_figure10(run_figure10()))
    return 0


def _check_output_format(path: Optional[str]) -> Optional[int]:
    """Fail fast on an unsupported --output extension, *before* hours
    of synthesis compute; returns an exit code or None if fine."""
    from repro.report import REPORT_EXTENSIONS

    if path and not path.endswith(tuple(REPORT_EXTENSIONS)):
        print(
            f"unknown report format for {path!r} "
            f"(use {'/'.join(REPORT_EXTENSIONS)})",
            file=sys.stderr,
        )
        return 2
    return None


def _backend_from_args(args: argparse.Namespace):
    """The configured :class:`repro.store.backends.StoreBackend` the
    backend flags describe (defaults to the local-disk layout)."""
    from repro.store import make_backend

    max_mb = getattr(args, "store_max_mb", None)
    return make_backend(
        getattr(args, "store_backend", None),
        store_dir=getattr(args, "store_dir", None),
        shared_path=getattr(args, "shared_store", None),
        max_bytes=None if max_mb is None else int(max_mb * 1024 * 1024),
    )


def _store_from_args(args: argparse.Namespace):
    """The :class:`ArtifactStore` the flags ask for, or ``None``.

    ``--store-dir``/``--store-backend``/``--shared-store`` each imply
    ``--store``; ``--no-store`` wins over everything (so scripts can
    force a cold run whatever the wrapper passes).
    """
    if getattr(args, "no_store", False):
        return None
    wants_store = (
        getattr(args, "store", False)
        or getattr(args, "store_dir", None)
        or getattr(args, "store_backend", None)
        or getattr(args, "shared_store", None)
    )
    if wants_store:
        from repro.store import ArtifactStore

        return ArtifactStore(backend=_backend_from_args(args))
    return None


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """Backend selection shared by the run commands and ``cache``."""
    parser.add_argument(
        "--store-backend",
        default=None,
        choices=("local", "sqlite", "tiered"),
        metavar="NAME",
        help="storage backend: local (one JSON file per entry, default), "
        "sqlite (single shared WAL-mode DB file), or tiered (local disk "
        "in front of a shared SQLite tier); implies --store",
    )
    parser.add_argument(
        "--shared-store",
        default=None,
        metavar="PATH",
        help="shared SQLite cache tier; alone it selects the tiered "
        "backend (local reads, async write-back), with --store-backend "
        "sqlite it is the DB file itself; implies --store",
    )
    parser.add_argument(
        "--store-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size cap: evict least-recently-hit entries beyond this "
        "(applies to the local tier of a tiered store)",
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        action="store_true",
        help="cache artefacts in a persistent store (default dir: "
        "$REPRO_STORE_DIR or .repro-store)",
    )
    parser.add_argument(
        "--no-store", action="store_true", help="force a cold run (overrides --store)"
    )
    parser.add_argument(
        "--store-dir", default=None, help="store directory (implies --store)"
    )
    _add_backend_flags(parser)


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimizer",
        default=None,
        metavar="NAME",
        help="MP phase-assignment strategy from the repro.optimize registry "
        "(pairwise/exhaustive/groupwise/greedy-flip/anneal/random; "
        "default: pairwise, the paper's heuristic)",
    )
    parser.add_argument(
        "--optimizer-param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        dest="optimizer_param",
        help="strategy parameter or budget key (repeatable), e.g. "
        "--optimizer-param restarts=8 --optimizer-param max_evaluations=256",
    )


def _parse_optimizer_params(specs):
    """``--optimizer-param KEY=VALUE`` occurrences into a params dict
    (``None`` when the flag was never given)."""
    from repro.errors import ConfigError

    if not specs:
        return None
    params = {}
    for spec in specs:
        key, sep, value = spec.partition("=")
        if not sep or not key or not value:
            raise ConfigError(
                f"bad --optimizer-param {spec!r} (expected KEY=VALUE)"
            )
        params[key] = _parse_grid_value(value)
    return params


def _add_log_level_flag(parser: argparse.ArgumentParser) -> None:
    from repro.log import add_log_level_flag

    add_log_level_flag(parser)


def _add_stage_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stage-jobs",
        type=int,
        default=None,
        metavar="N",
        help="threads for the MA/MP stage work inside each flow "
        "(0 = auto: threads on a multi-core host, sequential inside pool "
        "workers; results are bit-identical at any setting)",
    )


def _cmd_table(args: argparse.Namespace, timed: bool) -> int:
    from repro.experiments.tables import run_table, format_table_result

    bad_output = _check_output_format(args.output)
    if bad_output is not None:
        return bad_output
    store = _store_from_args(args)
    result = run_table(
        timed=timed,
        circuits=args.circuits,
        n_vectors=args.vectors,
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        store=store,
        stage_jobs=args.stage_jobs,
        optimizer=args.optimizer,
        optimizer_params=_parse_optimizer_params(args.optimizer_param),
    )
    print(format_table_result(result))
    if store is not None:
        store.flush()  # tiered write-backs land before the process exits
        print(f"\nstore-served {result.n_cached}/{len(result.rows)} circuits "
              f"from {store.root}")
    if args.output:
        from repro.report import save_results

        save_results([row.flow for row in result.rows], args.output)
        print(f"\nwrote {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.power.compare import compare_static_vs_domino

    net = _load_network(args.blif)
    report = compare_static_vs_domino(
        net, input_probs={pi: args.input_probability for pi in net.inputs}
    )
    print(f"static implementation power : {report.static_power:.3f}")
    print(
        f"domino implementation power : {report.domino_power:.3f} "
        f"(switching {report.domino_switching:.3f}, clock {report.domino_clock:.3f}, "
        f"boundary {report.domino_boundary:.3f})"
    )
    print(f"domino / static ratio       : {report.ratio:.2f}  (paper: up to ~4x)")
    print(f"duplication factor          : {report.duplication_factor:.2f}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.viz import network_to_dot

    net = _load_network(args.blif)
    probabilities = None
    if args.probabilities:
        from repro.power.probability import node_probabilities

        probabilities = node_probabilities(net).probabilities
    print(network_to_dot(net, probabilities=probabilities))
    return 0


def _load_network(path: str):
    from repro.network.blif import load_blif

    return load_blif(path)


def _effective_config(args: argparse.Namespace):
    """FlowConfig from ``--config`` (if given) with explicit CLI flags
    layered on top.  Flags use ``None`` defaults so "not given" and
    "given the default value" are distinguishable."""
    from repro.core.config import FlowConfig

    config = FlowConfig.from_file(args.config) if args.config else FlowConfig()
    overrides = {}
    for flag, field in (
        ("input_probability", "input_probability"),
        ("vectors", "n_vectors"),
        ("seed", "seed"),
        ("stage_jobs", "stage_jobs"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "timed", False):
        overrides["timed"] = True
    cli_optimizer = getattr(args, "optimizer", None)
    cli_params = _parse_optimizer_params(getattr(args, "optimizer_param", None))
    if cli_optimizer is not None:
        overrides["optimizer"] = cli_optimizer
    base_params = config.optimizer_params or {}
    if cli_optimizer is not None and cli_optimizer != config.optimizer:
        # switching strategy: only the shared budget keys carry over
        # from the config file — one strategy's knobs never leak into
        # another (give new ones via --optimizer-param)
        from repro.optimize import budget_only_params

        base_params = budget_only_params(base_params) or {}
        overrides["optimizer_params"] = base_params or None
    if cli_params is not None:
        # merge on top of the config file's params: a flag overrides one
        # key without flattening the rest
        overrides["optimizer_params"] = {**base_params, **cli_params}
    if overrides:
        config = config.replace(**overrides)
    return config


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.core.flow import format_table
    from repro.core.pipeline import Pipeline

    config = _effective_config(args)
    store = _store_from_args(args)
    net = _load_network(args.blif)
    run = Pipeline(config, store=store).run(net)
    result = run.flow
    print(format_table([result.row()], f"Flow result for {net.name}"))
    print(f"\nMA assignment: {result.ma.assignment}")
    print(f"MP assignment: {result.mp.assignment}")
    print(f"probability engine: {result.probability_method}")
    if store is not None:
        store.flush()  # tiered write-backs land before the process exits
        served = all(s.cached or s.skipped for s in run.stages)
        print(f"store: {'served from' if served else 'populated'} {store.root}")
    return 0


def _expand_blifs(paths: List[str]) -> List[str]:
    """Expand directory arguments into their sorted ``*.blif`` members."""
    from pathlib import Path

    blifs: List[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            blifs.extend(str(f) for f in sorted(p.glob("*.blif")))
        else:
            blifs.append(raw)
    return blifs


def _batch_progress(done: int, total: int, item) -> None:
    status = "cached" if item.cached else ("ok" if item.ok else "FAILED")
    print(
        f"[{done}/{total}] {item.name:<16} {status:<6} {item.runtime_s:6.1f}s",
        file=sys.stderr,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.batch import format_batch, run_many

    bad_output = _check_output_format(args.output)
    if bad_output is not None:
        return bad_output
    config = _effective_config(args)
    blifs = _expand_blifs(args.paths)
    if not blifs:
        print("no BLIF files found", file=sys.stderr)
        return 1

    store = _store_from_args(args)
    batch = run_many(
        blifs,
        config,
        jobs=args.jobs,
        per_circuit_seeds=args.per_circuit_seeds,
        progress=None if args.no_progress else _batch_progress,
        store=store,
        order=args.order,
        timeout_s=args.timeout_s,
    )
    if store is not None:
        store.flush()  # tiered write-backs land before the process exits
    print(format_batch(batch, title=f"Batch synthesis ({len(blifs)} circuits)"))
    if args.output:
        from repro.report import save_batch

        save_batch(batch, args.output)
        print(f"\nwrote {args.output}")
    return 0 if batch.n_ok > 0 else 1


def _parse_grid_value(text: str):
    """One grid literal: int, float, bool, or bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_grid(specs: List[str]):
    """``--grid name=v1,v2,...`` occurrences into a sweep grid dict."""
    from repro.errors import ConfigError

    grid = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep or not name or not values:
            raise ConfigError(
                f"bad --grid {spec!r} (expected name=value1,value2,...)"
            )
        grid[name] = [_parse_grid_value(v) for v in values.split(",")]
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.batch import format_sweep, sweep

    config = _effective_config(args)
    grid = _parse_grid(args.grid)
    blifs = _expand_blifs(args.paths)
    if not blifs:
        print("no BLIF files found", file=sys.stderr)
        return 1

    store = _store_from_args(args)
    result = sweep(
        blifs,
        grid,
        config,
        jobs=args.jobs,
        per_circuit_seeds=args.per_circuit_seeds,
        progress=None if args.no_progress else _batch_progress,
        store=store,
        order=args.order,
        timeout_s=args.timeout_s,
    )
    if store is not None:
        store.flush()  # tiered write-backs land before the process exits
    print(format_sweep(result))
    if args.record:
        import os

        from repro.store import RunStore

        runs_dir = args.runs_dir
        if runs_dir is None and store is not None:
            runs_dir = os.path.join(store.root, "runs")
        record = RunStore(runs_dir).record_sweep(result)
        print(f"\nrecorded run {record.run_id}")
    if args.output:
        import json

        manifest = result.manifest()
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
        print(f"\nwrote {args.output}")
    return 0 if result.n_ok > 0 else 1


def _serve_progress(done: int, total: int, item) -> None:
    status = "cached" if item.cached else ("ok" if item.ok else "FAILED")
    print(
        f"[{done} done] {item.name:<16} {status:<6} {item.runtime_s:6.1f}s",
        file=sys.stderr,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.log import configure_logging
    from repro.serve import Service, serve_forever

    configure_logging(args.log_level)
    config = _effective_config(args)
    store = _store_from_args(args)

    async def _run() -> None:
        service = Service(
            config,
            jobs=args.jobs,
            queue_size=args.queue_size,
            store=store,
            timeout_s=args.timeout_s,
            progress=None if args.no_progress else _serve_progress,
        )

        def ready(frontend) -> None:
            print(
                f"repro-domino service on http://{args.host}:{frontend.port} "
                f"({service.workers} worker(s), queue {args.queue_size}"
                + (f", store {store.root}" if store is not None else "")
                + ") — POST /jobs, GET /jobs/<id>[/events], GET /healthz",
                file=sys.stderr,
            )

        await serve_forever(
            service,
            host=args.host,
            port=args.port,
            drain=not args.abort_on_stop,
            ready=ready,
        )
        if store is not None:
            store.flush()  # tiered write-backs land before the process exits
        print("service stopped", file=sys.stderr)

    asyncio.run(_run())
    return 0


def _parse_hostport(spec: str, default_port: int) -> tuple:
    """``HOST[:PORT]`` into ``(host, port)``; bad input is a ConfigError."""
    from repro.errors import ConfigError

    host, sep, port_text = spec.rpartition(":")
    if not sep:
        return (spec, default_port)
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(
            f"bad address {spec!r} (expected HOST or HOST:PORT)"
        ) from None
    if not host:
        raise ConfigError(f"bad address {spec!r} (empty host)")
    return (host, port)


def _cmd_fleet_coordinator(args: argparse.Namespace) -> int:
    import asyncio

    from repro.fleet import Coordinator, FleetBackend
    from repro.log import configure_logging
    from repro.serve import Service, serve_forever

    configure_logging(args.log_level)
    config = _effective_config(args)
    store = _store_from_args(args)

    async def _run() -> None:
        coordinator = Coordinator(
            host=args.fleet_host,
            port=args.fleet_port,
            heartbeat_interval_s=args.heartbeat_interval,
            miss_limit=args.miss_limit,
            max_requeues=args.max_requeues,
            quarantine_after=args.quarantine_after,
        )
        service = Service(
            config,
            backend=FleetBackend(coordinator, max_inflight=args.max_inflight),
            queue_size=args.queue_size,
            store=store,
            timeout_s=args.timeout_s,
            progress=None if args.no_progress else _serve_progress,
        )

        def ready(frontend) -> None:
            print(
                f"repro-domino fleet coordinator on "
                f"http://{args.host}:{frontend.port} "
                f"(worker bus {coordinator.host}:{coordinator.port}, "
                f"queue {args.queue_size}"
                + (f", store {store.root}" if store is not None else "")
                + ") — start workers with: repro-domino fleet worker "
                f"--coordinator {coordinator.host}:{coordinator.port}",
                file=sys.stderr,
            )

        await serve_forever(
            service,
            host=args.host,
            port=args.port,
            drain=not args.abort_on_stop,
            ready=ready,
        )
        if store is not None:
            store.flush()  # tiered write-backs land before the process exits
        print("fleet coordinator stopped", file=sys.stderr)

    asyncio.run(_run())
    return 0


def _cmd_fleet_worker(args: argparse.Namespace) -> int:
    import asyncio

    from repro.fleet import DEFAULT_FLEET_PORT, Worker, run_worker_forever
    from repro.log import configure_logging

    configure_logging(args.log_level)
    host, port = _parse_hostport(args.coordinator, DEFAULT_FLEET_PORT)
    store = _store_from_args(args)
    worker = Worker(
        host, port, slots=args.slots, worker_id=args.worker_id, store=store
    )
    print(
        f"fleet worker {worker.worker_id} → {host}:{port} "
        f"({worker.slots} slot(s)"
        + (f", store {store.root}" if store is not None else "")
        + "); Ctrl-C drains",
        file=sys.stderr,
    )
    asyncio.run(run_worker_forever(worker))
    if store is not None:
        store.flush()  # tiered write-backs land before the process exits
    print(
        f"fleet worker {worker.worker_id} stopped "
        f"({worker.jobs_done} done, {worker.jobs_failed} failed)",
        file=sys.stderr,
    )
    return 0


def _print_backend_stats(record, indent: str = "  ") -> None:
    """One backend's per-kind entry/byte/hit/miss/eviction block, then
    (for the tiered backend) each tier nested below it."""
    kinds = sorted(
        set(record["entries"])
        | set(record["hits"])
        | set(record["misses"])
        | set(record["evictions"])
    )
    print(f"{indent}[{record['backend']}] {record['root']}")
    if not kinds:
        print(f"{indent}  (empty)")
    for kind in kinds:
        print(
            f"{indent}  {kind:<10}"
            f" {record['entries'].get(kind, 0):>6} entries"
            f" {record['bytes'].get(kind, 0):>10} bytes"
            f" {record['hits'].get(kind, 0):>6} hits"
            f" {record['misses'].get(kind, 0):>6} misses"
            f" {record['evictions'].get(kind, 0):>6} evicted"
        )
    if "write_back_errors" in record:
        print(f"{indent}  write-back errors: {record['write_back_errors']}")
    for tier in ("local", "shared"):
        if tier in record:
            _print_backend_stats(record[tier], indent + "  ")


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    store = ArtifactStore(backend=_backend_from_args(args))
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"store {store.root}")
        if not stats.total_entries:
            print("  (empty)")
        for kind in sorted(stats.entries):
            print(
                f"  {kind:<10} {stats.entries[kind]:>6} entr"
                f"{'y' if stats.entries[kind] == 1 else 'ies'} "
                f"{stats.bytes.get(kind, 0):>10} bytes"
            )
        if stats.total_entries:
            print(f"  {'total':<10} {stats.total_entries:>6} entries "
                  f"{stats.total_bytes:>10} bytes")
        print("per backend:")
        _print_backend_stats(stats.backend)
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {store.root}")
        return 0
    if args.cache_command == "gc":
        report = store.gc(
            max_age_days=args.max_age_days, dry_run=args.dry_run
        )
        verb = "would remove" if args.dry_run else "removed"
        print(f"gc {verb} {int(report)} entr{'y' if report == 1 else 'ies'} "
              f"from {store.root}")
        if args.dry_run:
            for entry in report.entries:
                print(
                    f"  {entry['kind']}/{entry['fingerprint']}-{entry['digest']}"
                    f" ({entry['bytes']} bytes): {entry['reason']}"
                )
        return 0
    raise AssertionError(f"unknown cache command {args.cache_command!r}")


def _split_rule_flags(values: Optional[List[str]]) -> Optional[List[str]]:
    """Flatten repeatable, comma-separated rule-id flags."""
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out or None


def _parse_explain_spec(spec: str) -> Tuple[str, str, int]:
    from repro.errors import ConfigError

    try:
        rule, rest = spec.split(":", 1)
        path, line_text = rest.rsplit(":", 1)
        line = int(line_text)
    except ValueError:
        raise ConfigError(
            f"--explain expects RULE:PATH:LINE, got {spec!r}"
        ) from None
    if not rule or not path:
        raise ConfigError(f"--explain expects RULE:PATH:LINE, got {spec!r}")
    return rule, path, line


def _explain_findings(findings, spec: str) -> int:
    """Print the inference chain behind the finding named by ``spec``."""
    rule, path, line = _parse_explain_spec(spec)
    matches = [
        f
        for f in findings
        if f.rule == rule
        and f.line == line
        and (f.path == path or f.path.endswith("/" + path))
    ]
    if not matches:
        print(f"no finding matches {spec}")
        candidates = [f for f in findings if f.rule == rule]
        for f in candidates[:5]:
            print(f"  candidate: {f.rule}:{f.path}:{f.line}")
        return 1
    for finding in matches:
        print(finding.format())
        if finding.chain:
            print("inference chain:")
            for step in finding.chain:
                print(f"  {step}")
        else:
            print(
                "no inference chain: this is a direct syntactic finding "
                "at the reported line"
            )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        all_rules,
        format_json,
        format_text,
        load_baseline,
        run_lint,
        split_findings,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.invariant}")
        return 0
    report = run_lint(
        args.paths or ["src"],
        select=_split_rule_flags(args.select),
        ignore=_split_rule_flags(args.ignore),
    )
    findings = report.findings
    if args.explain:
        return _explain_findings(findings, args.explain)
    if args.write_baseline:
        baseline = write_baseline(findings, args.write_baseline)
        print(
            f"wrote {len(baseline.entries)} baseline entr"
            f"{'y' if len(baseline.entries) == 1 else 'ies'} to "
            f"{args.write_baseline}"
        )
        return 0
    baselined = None
    if args.baseline:
        baseline = load_baseline(args.baseline)
        findings, baselined = split_findings(findings, baseline)
    render = format_json if args.format == "json" else format_text
    print(
        render(
            findings,
            n_files=report.n_files,
            baselined=baselined,
            show_baselined=not args.diff,
        )
    )
    return 1 if findings else 0


def _cmd_info(args: argparse.Namespace) -> int:
    net = _load_network(args.blif)
    stats = net.stats()
    print(f"model {net.name}")
    for key, value in stats.items():
        print(f"  {key:<10} {value}")
    from repro.network.topo import depth

    print(f"  depth      {depth(net)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-domino",
        description="Reproduction of 'Automated Phase Assignment for the "
        "Synthesis of Low Power Domino Circuits' (DAC 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure2", help="switching vs signal probability curves")
    p.add_argument("--points", type=int, default=21)
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("figure5", help="phase assignments vs switching example")
    p.add_argument("--vectors", type=int, default=65536)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_figure5)

    p = sub.add_parser("figure9", help="enhanced MFVS symmetry transformation demo")
    p.set_defaults(func=_cmd_figure9)

    p = sub.add_parser("figure10", help="BDD variable ordering comparison")
    p.set_defaults(func=_cmd_figure10)

    for table_name, timed in (("table1", False), ("table2", True)):
        p = sub.add_parser(table_name, help=f"reproduce {table_name}")
        p.add_argument("--circuits", nargs="*", default=None)
        p.add_argument("--vectors", type=int, default=4096)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--quick", action="store_true", help="small circuits only (fast sanity run)"
        )
        p.add_argument(
            "--jobs", type=int, default=1, help="parallel worker processes"
        )
        p.add_argument(
            "--output", default=None, help="write results to .json/.csv/.md"
        )
        _add_optimizer_flags(p)
        _add_stage_jobs_flag(p)
        _add_store_flags(p)
        p.set_defaults(func=lambda a, t=timed: _cmd_table(a, t))

    p = sub.add_parser("compare", help="static-CMOS vs domino power for a BLIF file")
    p.add_argument("blif")
    p.add_argument("--input-probability", type=float, default=0.5)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("dot", help="emit a Graphviz DOT drawing of a BLIF file")
    p.add_argument("blif")
    p.add_argument(
        "--probabilities", action="store_true", help="annotate signal probabilities"
    )
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("synth", help="run the MA/MP flow on a BLIF file")
    p.add_argument("blif")
    p.add_argument(
        "--config", default=None, help="JSON FlowConfig file (flags override it)"
    )
    p.add_argument("--input-probability", type=float, default=None)
    p.add_argument("--timed", action="store_true")
    p.add_argument("--vectors", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_optimizer_flags(p)
    _add_stage_jobs_flag(p)
    _add_store_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "batch",
        help="run the flow on many BLIF files / directories in parallel",
    )
    p.add_argument(
        "paths", nargs="+", help="BLIF files and/or directories of *.blif"
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument(
        "--config", default=None, help="JSON FlowConfig file (flags override it)"
    )
    p.add_argument("--input-probability", type=float, default=None)
    p.add_argument("--timed", action="store_true")
    p.add_argument("--vectors", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--per-circuit-seeds",
        action="store_true",
        help="derive a deterministic seed per circuit instead of sharing one",
    )
    p.add_argument(
        "--no-progress", action="store_true", help="suppress per-circuit progress lines"
    )
    p.add_argument(
        "--output", default=None, help="write results to .json/.csv/.md"
    )
    p.add_argument(
        "--order",
        choices=("cost", "fifo"),
        default="cost",
        help="dispatch order: predicted-cost descending (default) or input order",
    )
    p.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-circuit wall-clock budget; over-budget circuits fail instead "
        "of stalling the batch",
    )
    _add_optimizer_flags(p)
    _add_stage_jobs_flag(p)
    _add_store_flags(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "sweep",
        help="expand a FlowConfig parameter grid over BLIF files and run the batch",
    )
    p.add_argument(
        "paths", nargs="+", help="BLIF files and/or directories of *.blif"
    )
    p.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="NAME=V1,V2,...",
        help="FlowConfig field and values to sweep (repeatable; the grid is "
        "the cartesian product of all --grid flags). Strategies sweep too: "
        "--grid optimizer=pairwise,anneal, and optimizer_params.<param>=... "
        "sweeps one strategy knob or budget key",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument(
        "--config", default=None, help="JSON FlowConfig file (the sweep base)"
    )
    p.add_argument("--input-probability", type=float, default=None)
    p.add_argument("--timed", action="store_true")
    p.add_argument("--vectors", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--per-circuit-seeds",
        action="store_true",
        help="derive a deterministic seed per circuit instead of sharing one",
    )
    p.add_argument(
        "--no-progress", action="store_true", help="suppress per-run progress lines"
    )
    p.add_argument(
        "--order", choices=("cost", "fifo"), default="cost",
        help="dispatch order across the whole sweep",
    )
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument(
        "--output", default=None, help="write the sweep manifest to a JSON file"
    )
    p.add_argument(
        "--record",
        action="store_true",
        help="archive the sweep (manifest + per-run records) in the run registry",
    )
    p.add_argument(
        "--runs-dir",
        default=None,
        help="run registry directory (default: <store dir>/runs)",
    )
    _add_optimizer_flags(p)
    _add_stage_jobs_flag(p)
    _add_store_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the async synthesis service (JSON over HTTP)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 picks a free one)"
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: cores - 1)",
    )
    p.add_argument(
        "--queue-size", type=int, default=64,
        help="bound on queued jobs; a full queue answers HTTP 429",
    )
    p.add_argument(
        "--timeout-s", type=float, default=None,
        help="default per-job wall-clock budget (overridable per submission)",
    )
    p.add_argument(
        "--config", default=None,
        help="JSON FlowConfig file used for submissions without one",
    )
    p.add_argument("--input-probability", type=float, default=None)
    p.add_argument("--timed", action="store_true")
    p.add_argument("--vectors", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    p.add_argument(
        "--abort-on-stop", action="store_true",
        help="on shutdown, cancel queued jobs instead of draining them",
    )
    _add_optimizer_flags(p)
    _add_stage_jobs_flag(p)
    _add_store_flags(p)
    _add_log_level_flag(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="distributed serving: coordinator + worker fleet (repro.fleet)",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    fc = fleet_sub.add_parser(
        "coordinator",
        help="run the fleet coordinator: the serve HTTP surface backed by "
        "remote workers instead of a local process pool",
    )
    fc.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    fc.add_argument(
        "--port", type=int, default=8080,
        help="HTTP TCP port (0 picks a free one)",
    )
    fc.add_argument(
        "--fleet-host", default="127.0.0.1",
        help="worker-bus bind address (0.0.0.0 for off-host workers)",
    )
    fc.add_argument(
        "--fleet-port", type=int, default=7070,
        help="worker-bus TCP port (0 picks a free one)",
    )
    fc.add_argument(
        "--max-inflight", type=int, default=32,
        help="bound on jobs in flight toward the fleet at once",
    )
    fc.add_argument(
        "--queue-size", type=int, default=64,
        help="bound on queued jobs; a full queue answers HTTP 429",
    )
    fc.add_argument(
        "--timeout-s", type=float, default=None,
        help="default per-job wall-clock budget (overridable per submission)",
    )
    fc.add_argument(
        "--heartbeat-interval", type=float, default=2.0, metavar="S",
        help="worker heartbeat cadence in seconds",
    )
    fc.add_argument(
        "--miss-limit", type=int, default=3, metavar="N",
        help="consecutive missed heartbeats before a worker is declared "
        "dead and its jobs requeued",
    )
    fc.add_argument(
        "--max-requeues", type=int, default=2, metavar="N",
        help="times one job may be requeued off dead workers before it "
        "surfaces as a failure",
    )
    fc.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="consecutive job failures that quarantine a worker",
    )
    fc.add_argument(
        "--config", default=None,
        help="JSON FlowConfig file used for submissions without one",
    )
    fc.add_argument("--input-probability", type=float, default=None)
    fc.add_argument("--timed", action="store_true")
    fc.add_argument("--vectors", type=int, default=None)
    fc.add_argument("--seed", type=int, default=None)
    fc.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    fc.add_argument(
        "--abort-on-stop", action="store_true",
        help="on shutdown, cancel queued jobs instead of draining them",
    )
    _add_optimizer_flags(fc)
    _add_stage_jobs_flag(fc)
    _add_store_flags(fc)
    _add_log_level_flag(fc)
    fc.set_defaults(func=_cmd_fleet_coordinator)

    fw = fleet_sub.add_parser(
        "worker",
        help="run one fleet worker process (pull-based; reconnects until "
        "drained with Ctrl-C/SIGTERM)",
    )
    fw.add_argument(
        "--coordinator", default="127.0.0.1:7070", metavar="HOST[:PORT]",
        help="the coordinator's worker bus (default 127.0.0.1:7070)",
    )
    fw.add_argument(
        "--slots", type=int, default=None,
        help="concurrent jobs this worker runs (default: cores - 1)",
    )
    fw.add_argument(
        "--worker-id", default=None,
        help="stable worker identity across reconnects "
        "(default: <hostname>-<pid>-<hex>)",
    )
    _add_store_flags(fw)
    _add_log_level_flag(fw)
    fw.set_defaults(func=_cmd_fleet_worker)

    p = sub.add_parser("cache", help="inspect or prune the persistent artifact store")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry counts and sizes per artefact kind"),
        ("clear", "delete every entry"),
        ("gc", "drop corrupt, stale-format and (optionally) old entries"),
    ):
        cp = cache_sub.add_parser(name, help=help_text)
        cp.add_argument(
            "--store-dir",
            default=None,
            help="store directory (default: $REPRO_STORE_DIR or .repro-store)",
        )
        _add_backend_flags(cp)
        if name == "gc":
            cp.add_argument(
                "--max-age-days",
                type=float,
                default=None,
                help="also remove entries older than this many days",
            )
            cp.add_argument(
                "--dry-run",
                action="store_true",
                help="report what would be removed without deleting anything",
            )
        cp.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "lint",
        help="check sources against the codebase invariants (repro.analysis)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run exclusively (repeatable)",
    )
    p.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip (repeatable)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their invariants and exit",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="accepted-findings file; only findings not in it fail the run",
    )
    p.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="snapshot current findings to FILE and exit 0 (warn-first landing)",
    )
    p.add_argument(
        "--diff",
        action="store_true",
        help="with --baseline: list only new findings, hide baselined ones",
    )
    p.add_argument(
        "--explain",
        metavar="RULE:PATH:LINE",
        default=None,
        help="print the inference chain behind one finding and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("info", help="print network statistics for a BLIF file")
    p.add_argument("blif")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import BatchError, ConfigError, ServeError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BatchError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
