"""Tests for the persistent store layer: network fingerprints, the
ArtifactStore (cold/warm equivalence, corruption tolerance, gc), the
store-backed Pipeline/run_many/run_table paths, and the RunStore
registry."""

import io
import json
import os

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.batch import run_many
from repro.core.config import FlowConfig
from repro.core.pipeline import Pipeline
from repro.network.blif import parse_blif, write_blif
from repro.network.netlist import GateType
from repro.report import flow_result_from_dict, flow_result_to_dict
from repro.store import (
    ARTIFACT_KINDS,
    ArtifactStore,
    RunStore,
    RunStoreError,
    default_store_dir,
    network_from_dict,
    network_to_dict,
)

FAST = FlowConfig(n_vectors=256)


def tiny_network(name="tiny", seed=3):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# ----------------------------------------------------------------------
# fingerprint


class TestFingerprint:
    def test_same_blif_parsed_twice_same_key(self):
        text = write_blif(tiny_network())
        assert parse_blif(text).fingerprint() == parse_blif(text).fingerprint()

    def test_copy_and_reserialized_copies_agree(self):
        net = tiny_network()
        assert net.copy().fingerprint() == net.fingerprint()
        assert network_from_dict(network_to_dict(net)).fingerprint() == net.fingerprint()

    def test_one_gate_edit_changes_key(self):
        net = tiny_network()
        edited = net.copy()
        gate = next(n for n in edited.gates if n.gate_type in (GateType.AND, GateType.OR))
        gate.gate_type = (
            GateType.OR if gate.gate_type is GateType.AND else GateType.AND
        )
        assert edited.fingerprint() != net.fingerprint()

    def test_fanin_swap_changes_key(self):
        net = tiny_network()
        edited = net.copy()
        gate = next(n for n in edited.gates if len(n.fanins) >= 2)
        gate.fanins = list(reversed(gate.fanins))
        assert edited.fingerprint() != net.fingerprint()

    def test_name_participates(self):
        net = tiny_network()
        assert net.copy(name="other").fingerprint() != net.fingerprint()

    def test_insertion_order_does_not_participate(self):
        net = tiny_network()
        reordered = net.copy()
        reordered.nodes = dict(sorted(reordered.nodes.items(), reverse=True))
        assert reordered.fingerprint() == net.fingerprint()

    def test_default_store_dir_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "/tmp/elsewhere")
        assert default_store_dir() == "/tmp/elsewhere"
        monkeypatch.delenv("REPRO_STORE_DIR")
        assert default_store_dir() == ".repro-store"


# ----------------------------------------------------------------------
# cold vs warm equivalence


class TestColdWarm:
    def test_warm_flow_bit_identical_to_cold(self, store):
        net = tiny_network()
        cold = Pipeline(FAST, store=store).run(net)
        # a *fresh* structurally-equal network: identity-keyed in-process
        # caching cannot help, only the persistent store can
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert all(s.cached or s.skipped for s in warm.stages)
        assert flow_result_to_dict(warm.flow) == flow_result_to_dict(cold.flow)

    def test_warm_run_executes_zero_optimizer_stages(self, store, monkeypatch):
        """A warm pipeline whose optimizer stages are swapped for
        counters never invokes them."""
        import repro.core.pipeline

        net = tiny_network()
        Pipeline(FAST, store=store).run(net)
        executions = {"optimize_ma": 0, "optimize_mp": 0, "measure": 0}

        def counting(name):
            def hook(ctx):
                executions[name] += 1
                raise AssertionError(f"stage {name} executed on a warm run")

            return hook

        for name in executions:
            _, slot = repro.core.pipeline._STAGE_TABLE[name]
            monkeypatch.setitem(
                repro.core.pipeline._STAGE_TABLE, name, (counting(name), slot)
            )
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert executions == {"optimize_ma": 0, "optimize_mp": 0, "measure": 0}
        assert warm.flow is not None

    def test_partial_warm_shares_prepare_and_probs(self, store):
        net = tiny_network()
        Pipeline(FAST, store=store).run(net)
        other = Pipeline(FAST.replace(n_vectors=512), store=store).run(tiny_network())
        assert other.stage("prepare").cached
        assert other.stage("sequential").cached
        assert not other.stage("optimize_ma").cached
        assert not other.stage("measure").cached

    def test_config_change_is_a_miss(self, store):
        net = tiny_network()
        Pipeline(FAST, store=store).run(net)
        warm = Pipeline(FAST.replace(seed=5), store=store).run(tiny_network())
        assert not warm.stage("measure").cached

    def test_sequential_circuit_round_trips(self, store):
        from repro.network.netlist import LogicNetwork

        def seq_net():
            net = LogicNetwork("seqtest")
            for pi in ("a", "b"):
                net.add_input(pi)
            net.add_gate("g1", GateType.AND, ["a", "q"])
            net.add_gate("g2", GateType.OR, ["g1", "b"])
            net.add_latch("q", "g2", init_value=0)
            net.add_output("g2")
            net.validate()
            return net

        round_tripped = network_from_dict(network_to_dict(seq_net()))
        assert round_tripped.fingerprint() == seq_net().fingerprint()
        assert [latch.name for latch in round_tripped.latches] == ["q"]
        assert round_tripped.latches[0].init_value == 0
        cold = Pipeline(FAST, store=store).run(seq_net())
        warm = Pipeline(FAST, store=store).run(seq_net())
        assert all(s.cached or s.skipped for s in warm.stages)
        assert warm.flow.row() == cold.flow.row()

    def test_network_edit_is_a_miss(self, store):
        Pipeline(FAST, store=store).run(tiny_network())
        warm = Pipeline(FAST, store=store).run(tiny_network(seed=4))
        assert not any(s.cached for s in warm.stages)

    def test_cached_means_the_whole_run_came_from_the_store(self, store):
        cold = Pipeline(FAST, store=store).run(tiny_network())
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert not cold.cached
        assert warm.cached
        # a wall-clock budget keeps the MP search and the flow record
        # out of the store, so a repeat is computed again
        budgeted = FAST.replace(optimizer_params={"max_seconds": 60.0})
        Pipeline(budgeted, store=store).run(tiny_network())
        repeat = Pipeline(budgeted, store=store).run(tiny_network())
        assert repeat.stage("prepare").cached
        assert not repeat.cached


#: key digest of each stored stage's artefact (kind → digest), per
#: config.  Pinned so that no change moves a store key silently: a moved
#: key turns every existing store cold.
PINNED_KEY_DIGESTS = {
    "default": (
        FlowConfig(),
        {
            "prepare": "5d5be987d596ffb74619",
            "probs": "f719d37281aba3140d76",
            "assign_ma": "b537573c9b9618d1cb7f",
            "assign_mp": "55ba7cca14150785d3c7",
            "flow": "9e06cc2c3b1242dbfa74",
        },
    ),
    "timed": (
        FlowConfig(timed=True, n_vectors=2048, seed=3),
        {
            "prepare": "5d5be987d596ffb74619",
            "probs": "ca309372a1cd248e448d",
            "assign_ma": "cff7d50c99bb96cf7b9f",
            "assign_mp": "5f581460cf01f10b3226",
            "flow": "5df6da5e27658e1a83d5",
        },
    ),
    "anneal": (
        FlowConfig(
            optimizer="anneal",
            optimizer_params={"steps": 64, "max_evaluations": 50},
        ),
        {
            "prepare": "5d5be987d596ffb74619",
            "probs": "f719d37281aba3140d76",
            "assign_ma": "b537573c9b9618d1cb7f",
            "assign_mp": "93f9175e4e9b1e080043",
            "flow": "6c044d3a0d1eb5f3e69c",
        },
    ),
    "input_probs": (
        FlowConfig(
            input_probs={"a": 0.3}, max_pairs=7, minimize=False, strash=True
        ),
        {
            "prepare": "d40be18e9798dd6290eb",
            "probs": "b24a2313d1163af76cf6",
            "assign_ma": "bb6ec472e35143587576",
            "assign_mp": "5a6eb9c5a582178e292a",
            "flow": "675f112745c2d03977f9",
        },
    ),
}


class TestStoreKeys:
    @pytest.mark.parametrize("label", sorted(PINNED_KEY_DIGESTS))
    def test_stored_stage_keys_are_pinned(self, store, label):
        config, expected = PINNED_KEY_DIGESTS[label]
        Pipeline(config, store=store).run(tiny_network())
        digests = {blob.kind: blob.digest for blob in store.backend.iter_keys()}
        assert digests == expected


# ----------------------------------------------------------------------
# corruption tolerance


class TestCorruption:
    def _populate(self, store):
        Pipeline(FAST, store=store).run(tiny_network())
        entries = [
            p
            for p in store.root.glob("*/*/*.json")
            if p.parent.parent.name in ("flow", "prepare")
        ]
        assert entries
        return entries

    def test_truncated_entry_is_discarded_not_crashed(self, store):
        for path in self._populate(store):
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert warm.flow is not None
        assert not warm.stage("prepare").cached

    def test_garbage_json_is_discarded(self, store):
        for path in self._populate(store):
            path.write_text("{not json at all")
        assert store.get("flow", "00" * 32, ("x",)) is None
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert warm.flow is not None

    def test_structurally_invalid_network_payload_is_a_miss(self, store):
        """A parseable prepare entry whose network fails validation
        (hand-edited fanin, duplicate node) reads as a miss, not a crash."""
        Pipeline(FAST, store=store).run(tiny_network())
        (entry,) = store.root.glob("prepare/*/*.json")
        data = json.loads(entry.read_text())
        data["payload"]["nodes"][-1]["fanins"] = ["does_not_exist"]
        entry.write_text(json.dumps(data))
        for flow_entry in store.root.glob("flow/*/*.json"):
            flow_entry.unlink()  # defeat the whole-run short circuit
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert warm.flow is not None
        assert not warm.stage("prepare").cached

    def test_valid_json_wrong_shape_is_discarded(self, store):
        for path in self._populate(store):
            path.write_text(json.dumps({"version": 999, "payload": []}))
        warm = Pipeline(FAST, store=store).run(tiny_network())
        assert warm.flow is not None
        # the bad entries were overwritten by the recompute
        warm2 = Pipeline(FAST, store=store).run(tiny_network())
        assert warm2.stage("measure").cached

    def test_gc_removes_corrupt_and_stale(self, store):
        entries = self._populate(store)
        total = store.stats().total_entries
        entries[0].write_text("garbage")
        assert store.gc() == 1
        assert store.stats().total_entries == total - 1

    def test_gc_max_age(self, store):
        self._populate(store)
        total = store.stats().total_entries
        assert store.gc(max_age_days=10000) == 0
        assert store.gc(max_age_days=0.0) == total
        assert store.stats().total_entries == 0

    def test_clear(self, store):
        self._populate(store)
        assert store.clear() > 0
        assert store.stats().total_entries == 0


# ----------------------------------------------------------------------
# entry encoding


class TestEntryEncoding:
    def test_entry_files_are_json_dump_bytes(self, store, monkeypatch):
        """Every artefact kind a flow writes lands as the bytes
        ``json.dump`` writes for its entry."""
        from repro.store.backends.disk import LocalDiskBackend

        written = []
        real_put = LocalDiskBackend.put

        def recording_put(backend, kind, fingerprint, digest, entry):
            path = real_put(backend, kind, fingerprint, digest, entry)
            written.append((kind, path, entry))
            return path

        monkeypatch.setattr(LocalDiskBackend, "put", recording_put)
        Pipeline(FAST, store=store).run(tiny_network())
        assert sorted(kind for kind, _, _ in written) == sorted(ARTIFACT_KINDS)
        for kind, path, entry in written:
            expected = io.StringIO()
            json.dump(entry, expected)
            assert path.read_bytes() == expected.getvalue().encode("utf-8"), kind

    def test_unencodable_entry_leaves_no_file(self, store):
        with pytest.raises(TypeError):
            store.put("probs", "ab" * 8, ("k",), {"v": object()})
        assert [p for p in store.root.rglob("*") if p.is_file()] == []


# ----------------------------------------------------------------------
# batch + table integration


class TestBatchStore:
    def test_run_many_skips_cached_pairs(self, store):
        nets = [tiny_network("a", 3), tiny_network("b", 5)]
        cold = run_many(nets, FAST, store=store)
        assert cold.n_cached == 0
        warm = run_many([tiny_network("a", 3), tiny_network("b", 5)], FAST, store=store)
        assert warm.n_cached == 2
        assert [i.result.row() for i in warm.items] == [
            i.result.row() for i in cold.items
        ]

    def test_run_many_parallel_store(self, store):
        nets = [tiny_network("a", 3), tiny_network("b", 5)]
        cold = run_many(nets, FAST, store=store, jobs=2)
        warm = run_many(nets, FAST, store=store, jobs=2)
        assert warm.n_cached == 2
        assert [i.result.row() for i in warm.items] == [
            i.result.row() for i in cold.items
        ]

    def test_second_table1_is_store_served_and_bit_identical(self, store):
        from repro.experiments.tables import run_table

        cold = run_table(circuits=["frg1"], n_vectors=256, store=store)
        assert cold.n_cached == 0
        warm = run_table(circuits=["frg1"], n_vectors=256, store=store)
        assert warm.n_cached == len(warm.rows) == 1
        assert [r.flow.row() for r in warm.rows] == [r.flow.row() for r in cold.rows]


# ----------------------------------------------------------------------
# run registry


class TestRunStore:
    def test_flow_record_round_trip(self, tmp_path):
        runs = RunStore(tmp_path / "runs")
        flow = Pipeline(FAST).run(tiny_network()).flow
        record = runs.record_flow(flow, FAST)
        loaded = runs.load(record.run_id)
        assert loaded.kind == "flow"
        assert loaded.circuits == ["tiny"]
        assert loaded.config == FAST.to_dict()
        (restored,) = loaded.flow_results()
        assert restored.row() == flow.row()
        assert dict(restored.mp.assignment) == dict(flow.mp.assignment)

    def test_batch_record_keeps_failures(self, tmp_path):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model broken\n.inputs a\n.outputs z\n")
        runs = RunStore(tmp_path / "runs")
        batch = run_many([tiny_network(), str(bad)], FAST)
        record = runs.record_batch(batch)
        loaded = runs.load(record.run_id)
        assert loaded.n_ok == 1 and loaded.n_failed == 1
        assert len(loaded.flow_results()) == 1

    def test_query_filters(self, tmp_path):
        runs = RunStore(tmp_path / "runs")
        flow = Pipeline(FAST).run(tiny_network()).flow
        runs.record_flow(flow, FAST)
        runs.record_flow(flow, FAST.replace(seed=9))
        assert len(runs.query()) == 2
        assert len(runs.query(circuit="tiny")) == 2
        assert runs.query(circuit="nope") == []
        assert runs.query(kind="sweep") == []
        assert len(runs.query(since="2000-01-01")) == 2
        assert runs.query(until="2000-01-01") == []
        assert len(runs.query(config_match={"seed": 9})) == 1

    def test_missing_run_raises(self, tmp_path):
        with pytest.raises(RunStoreError):
            RunStore(tmp_path / "runs").load("nope")

    def test_default_root_under_store_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "/tmp/somewhere")
        assert str(RunStore().root) == os.path.join("/tmp/somewhere", "runs")


# ----------------------------------------------------------------------
# thread safety (the serve path: many threads, one store object)


class TestStoreConcurrency:
    FP = "ab" * 32  # a plausible sha256-hex fingerprint

    def test_concurrent_put_get_same_entry(self, store):
        """Two threads writing the same entry must not race on a shared
        temp path, and readers must only ever observe complete entries."""
        import threading

        n_threads, n_rounds = 8, 25
        payloads = [{"value": i} for i in range(n_threads)]
        errors = []

        def hammer(i):
            try:
                for _ in range(n_rounds):
                    store.put("probs", self.FP, ("k",), payloads[i])
                    got = store.get("probs", self.FP, ("k",))
                    assert got in payloads, f"corrupt read: {got!r}"
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # last writer won cleanly and no temp files leaked
        assert store.get("probs", self.FP, ("k",)) in payloads
        assert list(store.root.glob("*/*/*.tmp.*")) == []

    def test_hit_miss_counters_exact_under_contention(self, store):
        """The locked counters must not drop increments: hits + misses
        equals the exact number of get() calls issued."""
        import threading

        store.put("flow", self.FP, ("warm",), {"ok": 1})
        n_threads, n_rounds = 8, 40

        def reader():
            for _ in range(n_rounds):
                store.get("flow", self.FP, ("warm",))   # hit
                store.get("flow", self.FP, ("cold",))   # miss

        threads = [threading.Thread(target=reader) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.stats()
        assert stats.hits["flow"] == n_threads * n_rounds
        assert stats.misses["flow"] == n_threads * n_rounds

    def test_concurrent_pipelines_keep_the_store_coherent(self, store):
        """Pipelines on several threads sharing one store all return the
        reference flow, and a fresh run is then served whole from it."""
        import threading

        net = tiny_network()
        reference = flow_result_to_dict(Pipeline(FAST).run(net).flow)
        results, errors = [], []

        def worker():
            try:
                run = Pipeline(FAST, store=store).run(net)
                results.append(flow_result_to_dict(run.flow))
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=240)
        assert errors == []
        assert results == [reference] * 3
        warm = Pipeline(FAST, store=store).run(net)
        assert all(s.cached or s.skipped for s in warm.stages)
        assert flow_result_to_dict(warm.flow) == reference

    def test_temp_suffixes_unique_across_threads(self, store, monkeypatch):
        """The temp-file name embeds thread id + a monotonic counter, so
        concurrent writers of one entry never collide."""
        import threading

        seen = []
        real_replace = os.replace

        def spying_replace(src, dst):
            seen.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)

        def writer():
            for _ in range(10):
                store.put("probs", self.FP, ("k",), {"v": 0})

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 40 and len(set(seen)) == 40
