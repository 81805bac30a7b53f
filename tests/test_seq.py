"""Unit tests for the sequential substrate: s-graphs, MFVS, partitioning."""

import pytest

from repro.errors import SequentialError
from repro.network.netlist import GateType, LogicNetwork
from repro.seq.sgraph import SGraph, extract_sgraph, sgraph_from_edges
from repro.seq.transforms import (
    apply_symmetry_grouping,
    apply_t0_sources_sinks,
    apply_t1_self_loops,
    apply_t2_bypass,
    figure9_graph,
    reduce_graph,
)
from repro.seq.mfvs import exact_mfvs, greedy_mfvs, mfvs, verify_feedback_set
from repro.seq.partition import partition_sequential, sequential_probabilities
from repro.bench.generators import random_sequential_network


class TestSGraph:
    def test_add_and_remove(self):
        g = sgraph_from_edges([("a", "b"), ("b", "a")])
        assert g.n_vertices == 2
        assert g.n_edges == 2
        g.remove_vertex("a")
        assert g.n_vertices == 1
        assert g.n_edges == 0

    def test_duplicate_vertex_rejected(self):
        g = SGraph()
        g.add_vertex("a")
        with pytest.raises(SequentialError):
            g.add_vertex("a")

    def test_edge_to_unknown_vertex_rejected(self):
        g = SGraph()
        g.add_vertex("a")
        with pytest.raises(SequentialError):
            g.add_edge("a", "ghost")

    def test_self_loop_detection(self):
        g = sgraph_from_edges([("a", "a")])
        assert g.has_self_loop("a")

    def test_acyclicity(self):
        assert sgraph_from_edges([("a", "b"), ("b", "c")]).is_acyclic()
        assert not sgraph_from_edges([("a", "b"), ("b", "a")]).is_acyclic()

    def test_subgraph_without(self):
        g = sgraph_from_edges([("a", "b"), ("b", "a"), ("b", "c")])
        sub = g.subgraph_without(["a"])
        assert sub.n_vertices == 2
        assert sub.is_acyclic()

    def test_copy_independent(self):
        g = sgraph_from_edges([("a", "b")])
        h = g.copy()
        h.remove_vertex("a")
        assert g.n_vertices == 2


class TestExtraction:
    def test_fig7_sgraph(self, fig7):
        g = extract_sgraph(fig7)
        assert set(g.vertices) == {"l0", "l1"}
        # l1 feeds g0 -> g1 -> d0 -> l0; l0 feeds g2 -> d1 -> l1.
        assert "l0" in g.succ["l1"]
        assert "l1" in g.succ["l0"]

    def test_combinational_network_has_empty_sgraph(self, simple_and_or):
        assert extract_sgraph(simple_and_or).n_vertices == 0

    def test_latch_to_latch_direct(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_latch("l0", "l1")
        net.add_latch("l1", "a")
        g = extract_sgraph(net)
        assert "l0" in g.succ["l1"]
        assert g.is_acyclic()


class TestTransformations:
    def test_t0_removes_sources_and_sinks(self):
        g = sgraph_from_edges([("a", "b"), ("b", "c"), ("b", "b")])
        removed = apply_t0_sources_sinks(g)
        # a (source) and c (sink) go; b has a self-loop and stays.
        assert removed == 2
        assert g.vertices == ["b"]

    def test_t1_forces_self_loops(self):
        g = sgraph_from_edges([("a", "a"), ("a", "b"), ("b", "a")])
        forced = []
        n = apply_t1_self_loops(g, forced)
        assert n == 1
        assert forced == ["a"]

    def test_t2_bypass_creates_self_loop(self):
        # u -> x -> u with x having single pred and succ.
        g = sgraph_from_edges([("u", "x"), ("x", "u")])
        n = apply_t2_bypass(g)
        assert n >= 1
        # Whichever vertex remains now has a self-loop.
        remaining = g.vertices
        assert len(remaining) == 1
        assert g.has_self_loop(remaining[0])

    def test_symmetry_groups_twins(self):
        g = figure9_graph()
        merged = apply_symmetry_grouping(g)
        assert merged == 2
        weights = sorted(g.weight.values())
        assert weights == [2, 3]
        assert g.n_vertices == 2
        # The two supervertices form a 2-cycle.
        assert not g.is_acyclic()

    def test_symmetry_preserves_members(self):
        g = figure9_graph()
        apply_symmetry_grouping(g)
        members = sorted(m for v in g.vertices for m in g.members[v])
        assert members == ["A", "B", "C", "D", "E"]

    def test_reduce_graph_full_pipeline(self):
        result = reduce_graph(figure9_graph(), use_symmetry=True)
        # Symmetry -> 2-cycle -> bypass -> self-loop -> forced FVS.
        assert result.graph.n_vertices == 0
        assert set(result.forced_fvs) in ({"A", "B", "E"}, {"C", "D"})

    def test_reduce_without_symmetry_is_stuck(self):
        result = reduce_graph(figure9_graph(), use_symmetry=False)
        assert result.graph.n_vertices == 5
        assert result.forced_fvs == []


class TestMfvs:
    def test_figure9_optimal(self):
        graph = figure9_graph()
        exact = exact_mfvs(graph)
        assert exact.size == 2
        assert set(exact.feedback) == {"C", "D"}

    def test_greedy_enhanced_matches_exact_on_figure9(self):
        graph = figure9_graph()
        enhanced = greedy_mfvs(graph, use_symmetry=True)
        assert enhanced.size == 2
        assert verify_feedback_set(graph, enhanced.feedback)

    def test_greedy_valid_on_random_graphs(self):
        import random

        rng = random.Random(1)
        for trial in range(10):
            edges = []
            n = rng.randint(4, 12)
            for _ in range(n * 2):
                u = f"v{rng.randrange(n)}"
                v = f"v{rng.randrange(n)}"
                edges.append((u, v))
            g = sgraph_from_edges(edges)
            for enhanced in (False, True):
                result = greedy_mfvs(g, use_symmetry=enhanced)
                assert verify_feedback_set(g, result.feedback), (trial, enhanced)

    def test_greedy_close_to_exact_on_small_graphs(self):
        import random

        rng = random.Random(7)
        for trial in range(8):
            n = rng.randint(4, 9)
            edges = [
                (f"v{rng.randrange(n)}", f"v{rng.randrange(n)}")
                for _ in range(n + rng.randrange(n))
            ]
            g = sgraph_from_edges(edges)
            exact = exact_mfvs(g)
            greedy = greedy_mfvs(g, use_symmetry=True)
            assert greedy.size <= exact.size + 2
            assert greedy.size >= exact.size

    def test_exact_size_limit(self):
        g = sgraph_from_edges(
            [(f"v{i}", f"v{(i + 1) % 30}") for i in range(30)]
        )
        with pytest.raises(SequentialError):
            exact_mfvs(g, max_vertices=24)

    def test_dispatcher(self):
        g = figure9_graph()
        assert mfvs(g, method="exact").size == 2
        assert mfvs(g, method="auto").size == 2
        assert verify_feedback_set(g, mfvs(g, method="greedy").feedback)
        with pytest.raises(SequentialError):
            mfvs(g, method="bogus")

    def test_acyclic_graph_needs_no_feedback(self):
        g = sgraph_from_edges([("a", "b"), ("b", "c")])
        assert greedy_mfvs(g).size == 0
        assert exact_mfvs(g).size == 0


class TestPartition:
    def test_fig7_partition(self, fig7):
        result = partition_sequential(fig7)
        assert result.n_feedback >= 1
        assert verify_feedback_set(result.sgraph, result.feedback_latches)
        assert result.blocks
        assert result.max_block_inputs() > 0

    def test_blocks_cover_all_logic(self, fig7):
        result = partition_sequential(fig7)
        covered = set()
        for block in result.blocks:
            covered |= block.nodes
        gate_names = {g.name for g in fig7.gates}
        assert gate_names <= covered

    def test_random_sequential_partition(self):
        net = random_sequential_network("seq", n_inputs=8, n_latches=6, n_gates=30, seed=3)
        result = partition_sequential(net)
        assert verify_feedback_set(result.sgraph, result.feedback_latches)

    def test_enhanced_no_worse_than_plain(self):
        for seed in range(5):
            net = random_sequential_network(
                "seq", n_inputs=8, n_latches=8, n_gates=40, seed=seed, twin_groups=2
            )
            plain = partition_sequential(net, enhanced=False)
            enhanced = partition_sequential(net, enhanced=True)
            assert enhanced.n_feedback <= plain.n_feedback + 1


class TestSequentialProbabilities:
    def test_combinational_shortcut(self, simple_and_or):
        result = sequential_probabilities(simple_and_or)
        assert result.converged
        assert result.iterations == 0
        assert result.latch_probabilities == {}

    def test_fixed_point_converges(self, fig7):
        result = sequential_probabilities(fig7)
        assert result.converged
        for p in result.latch_probabilities.values():
            assert 0.0 <= p <= 1.0

    def test_fixed_point_is_consistent(self, fig7):
        result = sequential_probabilities(fig7, tolerance=1e-7, max_iterations=200)
        # At the fixed point, each latch probability equals its data
        # input's probability.
        for latch in fig7.latches:
            data_p = result.probabilities[latch.fanins[0]]
            assert result.latch_probabilities[latch.name] == pytest.approx(
                data_p, abs=1e-4
            )

    def test_matches_cycle_accurate_simulation(self, fig7):
        analytic = sequential_probabilities(fig7, tolerance=1e-8, max_iterations=300)
        from repro.power.simulator import SequentialPowerSimulator

        sim = SequentialPowerSimulator(fig7)
        rates = sim.run(n_cycles=3000, n_streams=32, seed=5)
        # g1 is the observable output; analytic and simulated firing
        # rates should agree loosely (temporal correlation is ignored by
        # the analytic model).
        assert rates["g1"] == pytest.approx(analytic.probabilities["g1"], abs=0.08)
