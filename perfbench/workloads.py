"""The three workloads.

Each takes ``(seed, seconds, trace, expected, workdir)`` and returns an
:class:`~perfbench.report.Outcome`.  With ``trace`` off a workload
measures its end-to-end metrics through the public entry points for
about ``seconds``; with ``trace`` on it runs a fixed amount of work
(so work counters are exact) once untraced and once with the layer
wrappers installed, and reports per-layer metrics plus the tracing
overhead.  All are closed loops driven from this one process.

An end-to-end run repeats the same seeded units (circuits, batches,
request windows) in a number of rounds fixed by ``seconds``, and
takes each unit's best time over the rounds (see :func:`_best`).

* ``search_large`` — one caller runs ``Pipeline.run`` on three seeded
  56-PO generated circuits per round (Table 1 untimed flow, no store).
  The MA and MP phase searches are ~90% of its time.
* ``batch_small`` — three batches of 40 small circuits per round, each
  batch one ``run_many(jobs=nproc)`` call (Table 2 timed flow, no
  store).  Pool start-up and the per-circuit fixed costs dominate;
  search is tiny.
* ``serve_mixed`` — nproc HTTP clients against ``Service(jobs=nproc)``
  behind ``HttpFrontend``, a fresh one with a fresh ``ArtifactStore``
  per round of 200 requests.  Every circuit
  is requested twice, as in the repository's serve-smoke and warm-cache
  CI flows: first-time requests (computed, written to the store)
  alternate with repeats (served from the store at submit).  The only
  workload that reaches the store and serve layers.

Pool worker processes are out of the tracer's reach, so the traced
runs of the pooled workloads take their layer spans from an inline
pass over the same circuits; the ``batch.*`` and ``serve.*`` splits
come from public records (``BatchItem.runtime_s``, job snapshots).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import random
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.batch as batch_module
from repro import ArtifactStore, FlowConfig, Pipeline, run_many
from repro.core.batch import execute_one
from repro.network.blif import parse_blif
from repro.serve import HttpFrontend, Service

from perfbench.circuits import (
    LARGE_CONFIG,
    SMALL_CONFIG,
    SMALL_POOL_SIZE,
    build_large,
    counter_change,
    estimator_mismatch,
    large_names,
    row_mismatch,
    small_blif,
    small_name,
)
from perfbench.report import Outcome, p50, p90, peak_rss_mb
from perfbench.tracing import FLOW_COUNTERS, STORE_COUNTERS, Tracer, counter_delta

#: Worker processes and HTTP clients: the CPUs this process may use.
JOBS = len(os.sched_getaffinity(0))
#: Set-ups before the measured rounds; one more follows each round.
SETUP_REPEATS = 4

#: Circuits per ``search_large`` run, and about how long one round of
#: them takes.
LARGE_CIRCUITS = 3
LARGE_ROUND_S = 3.5

BATCH_POOL_SIZE = 200
BATCH_SIZE = 40
#: Distinct batches per ``batch_small`` run (each round runs them all),
#: and about how long one round takes.
BATCHES = 3
BATCH_ROUND_S = 3.0
TRACE_BATCHES = 3
SERVE_TRACE_REQUESTS = 240
#: Stream positions between a circuit's first request and its repeat.
SERVE_REPEAT_LAG = 4 * JOBS + 1
#: Requests per ``serve_mixed`` round, and about how long one takes.
SERVE_ROUND_REQUESTS = 200
SERVE_ROUND_S = 3.0
#: Completed requests per throughput window on ``serve_mixed``.
SERVE_WINDOW = 50


def _timed(call: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    value = call()
    return value, time.perf_counter() - start


def _timed_setups(setup: Callable[[], Any], teardown: Callable[[Any], None], repeats: int):
    """Set up ``repeats`` times; keep the last state.  Workloads set up
    once more after each measured round too, so that one slow spell of
    the host cannot cover every set-up of a run."""
    times: List[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
        state, seconds = _timed(setup)
        times.append(seconds)
    return state, times


def _no_teardown(state: Any) -> None:
    pass


def _rounds(seconds: float, round_s: float) -> int:
    """Measured rounds for a run of about ``seconds``: fixed by the run
    length, never by how fast the host happens to be."""
    return max(2, round(seconds / round_s))


def _check(
    out: Outcome,
    name: str,
    row: Optional[Dict[str, Any]],
    expected_rows: Dict[str, Dict[str, Any]],
    extra: Optional[Callable[[], Optional[str]]] = None,
) -> None:
    """Count one result; compare its row (and ``extra``) with the truth."""
    out.attempted += 1
    want = expected_rows.get(name)
    why = "no expected row" if want is None else row_mismatch(row, want)
    if why is None and extra is not None:
        why = extra()
    if why is not None:
        out.fail(f"{name}: {why}")


def _estimator_check(network, flow, config: FlowConfig) -> Callable[[], Optional[str]]:
    return lambda: estimator_mismatch(network, flow, config)


def _best(runs_s: Dict[Any, List[float]]) -> List[float]:
    """The best time of each unit over the rounds.  A workload runs the
    same units (circuits, batches, request windows) in every round, so
    a unit's runs sit a round apart; the host's slow spells last
    seconds and only ever add time, so the best run is one they missed."""
    return [min(times) for times in runs_s.values()]


def _end_to_end(
    out: Outcome, setup_times, items_s: List[float], circuits: int, slices_s: List[float]
) -> None:
    """``items_s`` are best per-circuit times; ``slices_s`` the best
    times of the slices of a round (circuits, batches, request windows)
    that together complete ``circuits`` circuits."""
    out.add("setup_s", p50(setup_times), "s", len(setup_times))
    out.add("circuits_per_s", circuits / sum(slices_s), "1/s", len(slices_s))
    out.add("item_p50_s", p50(items_s), "s", len(items_s))
    out.add("item_p90_s", p90(items_s), "s", len(items_s))
    out.add("peak_rss_mb", peak_rss_mb(), "MB")


def _flow_counter_changes(
    out: Outcome, per_circuit: Dict[str, Dict[str, int]], expected: Dict[str, Dict[str, int]]
) -> int:
    changed = 0
    for name, counts in per_circuit.items():
        flow_counts = {k: v for k, v in counts.items() if k in FLOW_COUNTERS}
        change = counter_change(name, flow_counts, expected.get(name))
        if change is not None:
            changed += 1
            out.notes.append(f"BEHAVIOUR CHANGE {change}")
    return changed


def _interleaved(units, run: Callable[[Any, Optional[Tracer]], None], config: FlowConfig):
    """Run each unit untraced, then traced, so both sides see the same
    host conditions.  Returns (tracer, untraced s, traced s, (overhead,
    units)); the overhead is the median traced/untraced ratio minus 1."""
    tracer = Tracer()
    optimizer_class = type(config.resolved_optimizer()[0])
    untraced = traced = 0.0
    ratios = []
    for unit in units:
        start = time.perf_counter()
        run(unit, None)
        plain = time.perf_counter() - start
        tracer.install(optimizer_class)
        try:
            start = time.perf_counter()
            run(unit, tracer)
            wrapped = time.perf_counter() - start
        finally:
            tracer.restore()
        untraced += plain
        traced += wrapped
        ratios.append(wrapped / plain)
    return tracer, untraced, traced, (p50(ratios) - 1.0, len(ratios))


def _layer_metrics(
    out: Outcome,
    tracer: Tracer,
    untraced_s: float,
    traced_s: float,
    overhead: Tuple[float, int],
    changed: int,
) -> None:
    """Per-layer metrics of one traced pass (absent layers read 0)."""
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    queries = c["estimator.area_queries"] + c["estimator.power_queries"]
    out.add("network.prepare_s", s["network"], "s", calls["network"])
    out.add("power.evaluator_build_s", s["power.evaluator"], "s", calls["power.evaluator"])
    out.add("estimator.area_queries", c["estimator.area_queries"], "count")
    out.add("estimator.power_queries", c["estimator.power_queries"], "count")
    out.add("estimator.query_s", s["estimator"], "s", queries)
    out.add("estimator.query_us", 1e6 * s["estimator"] / max(queries, 1), "us", queries)
    out.add("min_area.s", s["min_area"], "s", calls["min_area"])
    out.add("min_area.evaluations", c["min_area.evaluations"], "count")
    out.add("optimize.s", s["optimize"], "s", calls["optimize"])
    out.add("optimize.evaluations", c["optimize.evaluations"], "count")
    out.add("optimize.steps", c["optimize.steps"], "count")
    out.add("optimize.commits", c["optimize.commits"], "count")
    out.add("cost.calls", c["cost.calls"], "count")
    out.add("cost.s", s["cost"], "s", calls["cost"])
    out.add("duplication.transform_s", s["duplication"], "s", calls["duplication"])
    out.add("mapper.map_s", s["mapper"], "s", calls["mapper"])
    out.add("mapper.cells", c["mapper.cells"], "count")
    out.add("timing.resize_s", s["timing"], "s", calls["timing"])
    out.add("timing.resize_iterations", c["timing.resize_iterations"], "count")
    out.add("simulator.measure_s", s["simulator"], "s", calls["simulator"])
    out.add("pipeline.glue_s", s["pipeline"], "s", calls["pipeline"])
    gets = c["store.gets"]
    out.add("store.gets", gets, "count")
    out.add("store.puts", c["store.puts"], "count")
    out.add("store.hits", c["store.hits"], "count")
    out.add("store.misses", c["store.misses"], "count")
    out.add("store.hit_ratio", c["store.hits"] / gets if gets else 0.0, "ratio", gets)
    out.add("store.get_s", s["store.get"], "s", calls["store.get"])
    out.add("store.put_s", s["store.put"], "s", calls["store.put"])
    out.add("trace.untraced_wall_s", untraced_s, "s")
    out.add("trace.wall_s", traced_s, "s")
    out.add("trace.overhead_frac", overhead[0], "ratio", overhead[1])
    out.add("trace.accounted_frac", tracer.named_self_s() / traced_s, "ratio")
    out.add("counters.changed", changed, "count")


def _absent(out: Outcome, names: Tuple[str, ...], unit: str) -> None:
    for name in names:
        out.add(name, 0.0, unit, 0)


_BATCH_TIMES = ("batch.pool_start_s", "batch.exec_s", "batch.overhead_s")
_SERVE_TIMES = (
    "serve.cold_latency_p50_ms",
    "serve.cold_latency_p90_ms",
    "serve.warm_latency_p50_ms",
    "serve.warm_latency_p90_ms",
    "serve.post_ms",
    "serve.queue_wait_ms",
    "serve.exec_ms",
    "serve.dispatch_ms",
    "serve.delivery_ms",
)
_SERVE_COUNTS = ("serve.dedup_hits", "serve.rejected")


def _absent_batch(out: Outcome) -> None:
    _absent(out, _BATCH_TIMES, "s")
    out.add("batch.busy_frac", 0.0, "ratio", 0)


def _absent_serve(out: Outcome) -> None:
    out.add("serve.requests_per_s", 0.0, "1/s", 0)
    _absent(out, _SERVE_TIMES, "ms")
    _absent(out, _SERVE_COUNTS, "count")


# ----------------------------------------------------------------------
# search_large


def search_large(seed: int, seconds: float, trace: bool, expected, workdir: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    names = rng.sample(large_names(), LARGE_CIRCUITS)
    warm_text = small_blif(SMALL_POOL_SIZE)  # outside every pool
    rows = expected["large"]["rows"]
    out.settings = {
        "circuits": names,
        "jobs": 1,
        "stage_jobs": LARGE_CONFIG.resolved_stage_jobs(),
        "n_vectors": LARGE_CONFIG.n_vectors,
        "timed": LARGE_CONFIG.timed,
        "store": None,
    }

    def setup():
        networks = [build_large(name) for name in names]
        Pipeline(LARGE_CONFIG).run(parse_blif(warm_text))
        return networks

    networks, setup_times = _timed_setups(setup, _no_teardown, SETUP_REPEATS)

    if not trace:
        rounds = _rounds(seconds, LARGE_ROUND_S)
        out.settings["rounds"] = rounds
        # the first large run in a process was 10-30% slower than later
        # ones on a 2-vCPU VM, so an untimed run goes before the timed ones
        Pipeline(LARGE_CONFIG).run(networks[-1])
        gc.collect()
        runs_s: Dict[str, List[float]] = {network.name: [] for network in networks}
        for round_index in range(rounds):
            for network in networks:
                start = time.perf_counter()
                flow = Pipeline(LARGE_CONFIG).run(network).flow
                runs_s[network.name].append(time.perf_counter() - start)
                extra = None
                if round_index == 0:  # re-derive estimates once per circuit
                    extra = _estimator_check(network, flow, LARGE_CONFIG)
                _check(out, network.name, flow.row(), rows, extra)
                # free this result (reference cycles included) before the next run
                del flow
                gc.collect()
            setup_times.append(_timed(setup)[1])
        for name, times in runs_s.items():
            out.notes.append(f"{name} runs_s {' '.join(f'{t:.3f}' for t in times)}")
        items_s = _best(runs_s)
        _end_to_end(out, setup_times, items_s, len(items_s), items_s)
        return out

    per_circuit: Dict[str, Dict[str, int]] = {}
    results = []

    def run(network, tracer: Optional[Tracer]) -> None:
        before = tracer.snapshot() if tracer else None
        flow = Pipeline(LARGE_CONFIG).run(network).flow
        if tracer:
            per_circuit[network.name] = counter_delta(before, tracer.snapshot())
        results.append((network, flow, tracer is None))

    tracer, untraced, traced, overhead = _interleaved(networks, run, LARGE_CONFIG)
    for network, flow, plain in results:
        extra = _estimator_check(network, flow, LARGE_CONFIG) if plain else None
        _check(out, network.name, flow.row(), rows, extra)
    changed = _flow_counter_changes(out, per_circuit, expected["large"]["counters"])
    _layer_metrics(out, tracer, untraced, traced, overhead, changed)
    _absent_batch(out)
    _absent_serve(out)
    return out


# ----------------------------------------------------------------------
# batch_small


def _timed_pool_class(starts: List[float]) -> type:
    """A ``ProcessPoolExecutor`` that records how long its first submit
    takes: with the fork start method that call starts every worker."""

    class TimedPool(ProcessPoolExecutor):
        _started = False

        def submit(self, fn, /, *args, **kwargs):
            if self._started:
                return super().submit(fn, *args, **kwargs)
            self._started = True
            start = time.perf_counter()
            try:
                return super().submit(fn, *args, **kwargs)
            finally:
                starts.append(time.perf_counter() - start)

    return TimedPool


def batch_small(seed: int, seconds: float, trace: bool, expected, workdir: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    rows = expected["small"]["rows"]
    out.settings = {
        "batch_size": BATCH_SIZE,
        "pool": f"{BATCH_POOL_SIZE} small circuits",
        "jobs": JOBS,
        "stage_jobs": 1,  # auto resolves to sequential in pool workers
        "n_vectors": SMALL_CONFIG.n_vectors,
        "timed": SMALL_CONFIG.timed,
        "store": None,
    }

    # the inputs are generated once; a set-up parses them and warms up
    texts = [small_blif(i) for i in range(BATCH_POOL_SIZE)]

    def setup():
        networks = [parse_blif(text) for text in texts]
        run_many(networks[:2], SMALL_CONFIG, jobs=1)
        return networks

    networks, setup_times = _timed_setups(setup, _no_teardown, SETUP_REPEATS)
    estimates_checked = set()

    def check_batch(batch, result) -> None:
        for network, item in zip(batch, result.items):
            extra = None
            if item.ok and item.name not in estimates_checked:
                estimates_checked.add(item.name)
                extra = _estimator_check(network, item.result, SMALL_CONFIG)
            _check(out, item.name, item.result.row() if item.ok else None, rows, extra)
            if not item.ok:
                out.notes.append(f"{item.name}: {(item.error or '').splitlines()[0]}")

    def one_pass(batch, **kwargs):
        start = time.perf_counter()
        result = run_many(batch, SMALL_CONFIG, **kwargs)
        return result, time.perf_counter() - start

    if not trace:
        rounds = _rounds(seconds, BATCH_ROUND_S)
        out.settings.update(batches=BATCHES, rounds=rounds)
        chosen = rng.sample(networks, BATCHES * BATCH_SIZE)
        batches = [chosen[i : i + BATCH_SIZE] for i in range(0, len(chosen), BATCH_SIZE)]
        walls_s: Dict[int, List[float]] = {i: [] for i in range(len(batches))}
        runtimes_s: Dict[str, List[float]] = {network.name: [] for network in chosen}
        for _ in range(rounds):
            for index, batch in enumerate(batches):
                result, wall = one_pass(batch, jobs=JOBS)
                walls_s[index].append(wall)
                for item in result.items:
                    runtimes_s[item.name].append(item.runtime_s)
                check_batch(batch, result)
            setup_times.append(_timed(setup)[1])
        _end_to_end(out, setup_times, _best(runtimes_s), len(chosen), _best(walls_s))
        return out

    batches = [rng.sample(networks, BATCH_SIZE) for _ in range(TRACE_BATCHES)]
    pool_starts: List[float] = []
    walls, execs = [], []
    original_pool = batch_module.ProcessPoolExecutor
    batch_module.ProcessPoolExecutor = _timed_pool_class(pool_starts)
    try:
        for batch in batches:
            result, wall = one_pass(batch, jobs=JOBS)
            walls.append(wall)
            execs.append(sum(item.runtime_s for item in result.items))
            check_batch(batch, result)
    finally:
        batch_module.ProcessPoolExecutor = original_pool

    per_circuit: Dict[str, Dict[str, int]] = {}
    inline_results = []

    def run(batch, tracer: Optional[Tracer]) -> None:
        progress = None
        if tracer:
            last = [tracer.snapshot()]

            def progress(done, total, item) -> None:
                # inline items finish one by one, so the counters that
                # moved since the last item belong to this one
                now = tracer.snapshot()
                per_circuit[item.name] = counter_delta(last[0], now)
                last[0] = now

        result = run_many(batch, SMALL_CONFIG, jobs=1, stage_jobs=1, progress=progress)
        inline_results.append((batch, result))

    tracer, untraced, traced, overhead = _interleaved(batches, run, SMALL_CONFIG)
    for batch, result in inline_results:
        check_batch(batch, result)
    changed = _flow_counter_changes(out, per_circuit, expected["small"]["counters"])
    _layer_metrics(out, tracer, untraced, traced, overhead, changed)
    # with one CPU run_many runs inline and starts no pool
    pool_start = p50(pool_starts) if pool_starts else 0.0
    out.add("batch.pool_start_s", pool_start, "s", len(pool_starts))
    out.add("batch.exec_s", p50(execs), "s", len(execs))
    out.add(
        "batch.overhead_s",
        p50([wall - exec_s / JOBS for wall, exec_s in zip(walls, execs)]),
        "s",
        len(walls),
    )
    out.add("batch.busy_frac", sum(execs) / (sum(walls) * JOBS), "ratio", len(walls))
    _absent_serve(out)
    return out


# ----------------------------------------------------------------------
# serve_mixed


def _serve_stream(rng: random.Random, length: int) -> List[Tuple[int, Optional[int]]]:
    """``(pool index, position of its first request or None)`` per
    request.  Every circuit is requested twice, as the repository's
    serve-smoke and warm-cache CI flows do: even positions (and the odd
    ones before the first repeat is due) are first-time circuits in
    seeded order, and odd position ``p`` repeats the circuit first
    requested at ``p - SERVE_REPEAT_LAG``.  The alternation gives every
    throughput window the same cold/warm mix.  The lag lets the first
    request finish before its repeat is due; the client still waits for
    it, so a repeat is always served from the store at submit."""
    order = list(range(SMALL_POOL_SIZE))
    rng.shuffle(order)
    stream: List[Tuple[int, Optional[int]]] = []
    firsts = 0
    for position in range(length):
        if position % 2 and position >= SERVE_REPEAT_LAG:
            first = position - SERVE_REPEAT_LAG  # even, so a first-time request
            stream.append((stream[first][0], first))
        else:
            stream.append((order[firsts], None))
            firsts += 1
    return stream


class _Server:
    """``Service`` + ``HttpFrontend`` on an event loop in a thread."""

    def __init__(self, workdir: Path) -> None:
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.store = ArtifactStore(self.store_dir)
        self.service = Service(
            # bounded history keeps memory flat over a run; the traced
            # run reads every job's snapshot, so it must fit
            SMALL_CONFIG, jobs=JOBS, store=self.store, max_history=SERVE_TRACE_REQUESTS
        )
        self.frontend = HttpFrontend(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self._call(self.service.start())
        self._call(self.frontend.start())
        self.port = self.frontend.port

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout=120)

    def close(self) -> None:
        try:
            self._call(self.frontend.stop())
            self._call(self.service.shutdown())
            self._call(self.loop.shutdown_default_executor())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            self.loop.close()
            shutil.rmtree(self.store_dir, ignore_errors=True)


def _http(port: int, method: str, path: str, body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        lines = [json.loads(line) for line in response if line.strip()]
        return response.status, lines
    finally:
        conn.close()


def _request(port: int, body: bytes) -> Dict[str, Any]:
    """POST one circuit, then read its event stream to EOF.  Wall-clock
    stamps use ``time.time()``, the clock of the job snapshots."""
    start = time.perf_counter()
    sent_at = time.time()
    status, (snapshot,) = _http(port, "POST", "/jobs", body)
    record: Dict[str, Any] = {"status": status, "sent_at": sent_at}
    if status not in (200, 202):
        record["error"] = snapshot.get("error")
        return record
    _, events = _http(port, "GET", f"/jobs/{snapshot['job_id']}/events")
    last = events[-1]
    record.update(
        job_id=snapshot["job_id"],
        cached=bool(last.get("cached")),
        state=last["state"],
        row=last.get("row"),
        error=last.get("error"),
        latency_s=time.perf_counter() - start,
        done=time.perf_counter(),
        received_at=time.time(),
    )
    return record


def _drive(port: int, bodies: List[bytes], after: List[Optional[int]]):
    """``JOBS`` closed-loop clients over ``bodies`` in order; request
    ``i`` is sent only once request ``after[i]`` has finished.  Returns
    (records by position, wall)."""
    records: List[Optional[Dict[str, Any]]] = [None] * len(bodies)
    finished = [threading.Event() for _ in bodies]
    cursor = [0]
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                position = cursor[0]
                if position >= len(bodies):
                    return
                cursor[0] += 1
            if after[position] is not None:
                finished[after[position]].wait()
            try:
                records[position] = _request(port, bodies[position])
            except Exception as exc:  # noqa: BLE001 — a client must not die: count it failed
                records[position] = {"status": 0, "error": f"{type(exc).__name__}: {exc}"}
            finally:
                # set even on failure, or a repeat waiting on it hangs
                finished[position].set()

    threads = [threading.Thread(target=client) for _ in range(JOBS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def _inline_serve(out: Outcome, networks: List[Any], workdir: Path, expected):
    """The service's work without HTTP or pool, traced: for each
    request the submit-time store probe, then ``execute_one`` on a miss.
    Untraced and traced chunks alternate, each side on its own fresh
    store.  Returns ``_interleaved``'s tuple and the counter changes."""
    config = SMALL_CONFIG.replace(stage_jobs=1)
    stores = {
        traced: ArtifactStore(tempfile.mkdtemp(prefix="inline-", dir=workdir))
        for traced in (False, True)
    }
    per_circuit: Dict[str, Dict[str, int]] = {}
    store_changes = []

    def run(chunk, tracer: Optional[Tracer]) -> None:
        store = stores[tracer is not None]
        for network in chunk:
            before = tracer.snapshot() if tracer else None
            warm = Pipeline(config, store=store).cached_flow(network) is not None
            if not warm:
                execute_one("network", network, config, store=store)
            if tracer is None:
                continue
            delta = counter_delta(before, tracer.snapshot())
            kind = "warm" if warm else "cold"
            store_counts = {k: v for k, v in delta.items() if k in STORE_COUNTERS}
            change = counter_change(f"{network.name} {kind}", store_counts, expected["store"][kind])
            if change is not None:
                store_changes.append(change)
            if not warm:
                per_circuit[network.name] = delta

    chunks = [
        networks[i : i + SERVE_WINDOW] for i in range(0, len(networks), SERVE_WINDOW)
    ]
    try:
        traced = _interleaved(chunks, run, SMALL_CONFIG)
    finally:
        for store in stores.values():
            shutil.rmtree(store.root, ignore_errors=True)
    changed = _flow_counter_changes(out, per_circuit, expected["small"]["counters"])
    out.notes.extend(f"BEHAVIOUR CHANGE store counters {change}" for change in store_changes)
    return traced, changed + len(store_changes)


def serve_mixed(seed: int, seconds: float, trace: bool, expected, workdir: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    rows = expected["small"]["rows"]
    length = SERVE_TRACE_REQUESTS if trace else SERVE_ROUND_REQUESTS
    stream = _serve_stream(rng, length)
    after = [first for _, first in stream]
    out.settings = {
        "clients": JOBS,
        "jobs": JOBS,
        "stage_jobs": 1,  # auto resolves to sequential in pool workers
        "n_vectors": SMALL_CONFIG.n_vectors,
        "timed": SMALL_CONFIG.timed,
        "store": "ArtifactStore(LocalDiskBackend), fresh per round",
        "repeat_lag": SERVE_REPEAT_LAG,
        "requests_per_round": length,
    }
    # the inputs are generated once; a set-up is the program's own:
    # start store, service and frontend, and warm the pool up
    texts = {index: small_blif(index) for index, _ in stream}
    bodies = [json.dumps({"blif": texts[index]}).encode() for index, _ in stream]
    warm_up = [
        json.dumps({"blif": small_blif(SMALL_POOL_SIZE + 1 + i)}).encode() for i in range(JOBS)
    ]

    def setup():
        server = _Server(workdir)
        for body in warm_up:
            _request(server.port, body)
        return server

    def teardown(server: _Server) -> None:
        server.close()

    def check(records) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """Check one round's records; split the completed ones into
        cold and warm, each record tagged with its circuit's name."""
        cold, warm = [], []
        for (index, first), record in zip(stream, records):
            name = record["name"] = small_name(index)
            ok = record.get("state") == "done"
            _check(out, name, record.get("row") if ok else None, rows)
            if not ok:
                out.notes.append(f"{name}: HTTP {record['status']} {record.get('error')}")
                continue
            (warm if record["cached"] else cold).append(record)
            if record["cached"] != (first is not None):
                out.notes.append(f"BEHAVIOUR CHANGE {name}: cached={record['cached']} at position "
                                 f"{len(cold) + len(warm) - 1}")
        return cold, warm

    server, setup_times = _timed_setups(setup, teardown, SETUP_REPEATS)
    if not trace:
        rounds = _rounds(seconds, SERVE_ROUND_S)
        out.settings["rounds"] = rounds
        windows_s: Dict[int, List[float]] = {}
        latencies_s: Dict[str, List[float]] = {}
        for _ in range(rounds):
            try:
                records, _ = _drive(server.port, bodies, after)
            finally:
                server.close()
            # a fresh server and store per round, so that every round's
            # first-time requests compute again
            server, setup_s = _timed(setup)
            setup_times.append(setup_s)
            cold, warm = check(records)
            # item times are the requests that run the flow; throughput
            # counts every completed request, warm ones too
            for record in cold:
                latencies_s.setdefault(record["name"], []).append(record["latency_s"])
            finishes = sorted(r["done"] for r in cold + warm)
            starts = range(0, len(finishes) - SERVE_WINDOW, SERVE_WINDOW)
            for window, i in enumerate(starts):
                windows_s.setdefault(window, []).append(finishes[i + SERVE_WINDOW] - finishes[i])
        server.close()
        windows = _best(windows_s)
        _end_to_end(out, setup_times, _best(latencies_s), SERVE_WINDOW * len(windows), windows)
        return out

    try:
        records, wall = _drive(server.port, bodies, after)
        _, (listing,) = _http(server.port, "GET", "/jobs")
    finally:
        server.close()
    snapshots = {job["job_id"]: job for job in listing["jobs"]}
    cold, warm = check(records)
    done = len(cold) + len(warm)

    def ms(values):
        return [1000.0 * v for v in values]

    # one cold request's latency = post + queue wait + dispatch + exec
    # + delivery, from the client's stamps and the job snapshot's
    posts, waits, execs, dispatches, deliveries = [], [], [], [], []
    for record in cold:
        snap = snapshots[record["job_id"]]
        posts.append(snap["submitted_at"] - record["sent_at"])
        waits.append(snap["started_at"] - snap["submitted_at"])
        execs.append(snap["runtime_s"])
        dispatches.append(snap["finished_at"] - snap["started_at"] - snap["runtime_s"])
        deliveries.append(record["received_at"] - snap["finished_at"])
    cold_latency = ms(r["latency_s"] for r in cold)
    warm_latency = ms(r["latency_s"] for r in warm)
    out.add("serve.requests_per_s", done / wall, "1/s", done)
    out.add("serve.cold_latency_p50_ms", p50(cold_latency), "ms", len(cold))
    out.add("serve.cold_latency_p90_ms", p90(cold_latency), "ms", len(cold))
    out.add("serve.warm_latency_p50_ms", p50(warm_latency), "ms", len(warm))
    out.add("serve.warm_latency_p90_ms", p90(warm_latency), "ms", len(warm))
    out.add("serve.post_ms", p50(ms(posts)), "ms", len(cold))
    out.add("serve.queue_wait_ms", p50(ms(waits)), "ms", len(cold))
    out.add("serve.exec_ms", p50(ms(execs)), "ms", len(cold))
    out.add("serve.dispatch_ms", p50(ms(dispatches)), "ms", len(cold))
    out.add("serve.delivery_ms", p50(ms(deliveries)), "ms", len(cold))
    out.add("serve.dedup_hits", len(warm), "count")
    out.add("serve.rejected", sum(1 for r in records if r["status"] in (429, 503)), "count")

    networks = [parse_blif(texts[index]) for index, _ in stream]
    (tracer, untraced, traced, overhead), changed = _inline_serve(out, networks, workdir, expected)
    _layer_metrics(out, tracer, untraced, traced, overhead, changed)
    _absent_batch(out)
    return out


WORKLOADS = {
    "search_large": search_large,
    "batch_small": batch_small,
    "serve_mixed": serve_mixed,
}
