"""Unit tests for the domino cell library, mapper and timing engine."""

import pytest

from repro.errors import ReproError, TimingError
from repro.network.blif import parse_blif
from repro.network.duplication import phase_transform, implementation_network
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, networks_equivalent, to_aoi
from repro.phase import Phase, PhaseAssignment
from repro.domino.gates import DEFAULT_LIBRARY, DominoCellLibrary
from repro.domino.mapper import (
    decompose_to_cells,
    map_implementation,
    map_network,
    simulate_mapped_power,
)
from repro.domino.timing import (
    ResizeResult,
    analyze_timing,
    default_timing_target,
    resize_to_meet_timing,
)

from helpers import small_pool_blif


@pytest.fixture
def lib():
    return DominoCellLibrary(max_and_fanin=3, max_or_fanin=4)


class TestLibrary:
    def test_cell_names(self, lib):
        assert lib.cell(GateType.AND, 2).name == "DAND2"
        assert lib.cell(GateType.OR, 4).name == "DOR4"
        assert lib.inverter.name == "SINV"

    def test_fanin_limit_enforced(self, lib):
        with pytest.raises(ReproError):
            lib.cell(GateType.AND, 4)

    def test_no_cell_for_not(self, lib):
        with pytest.raises(ReproError):
            lib.cell(GateType.NOT, 1)

    def test_inverter_is_static(self, lib):
        assert lib.inverter.clock_cap == 0.0
        assert lib.cell(GateType.AND, 2).is_domino
        assert not lib.inverter.is_domino

    def test_and_delay_grows_with_stack(self, lib):
        d2 = lib.cell(GateType.AND, 2).delay(1.0)
        d3 = lib.cell(GateType.AND, 3).delay(1.0)
        assert d3 > d2

    def test_or_has_no_stack_penalty(self, lib):
        d2 = lib.cell(GateType.OR, 2).delay(1.0)
        d4 = lib.cell(GateType.OR, 4).delay(1.0)
        assert d2 == pytest.approx(d4)

    def test_upsizing_reduces_delay(self, lib):
        cell = lib.cell(GateType.AND, 2)
        assert cell.delay(2.0, size_factor=2.0) < cell.delay(2.0, size_factor=1.0)

    def test_bad_size_factor(self, lib):
        with pytest.raises(ReproError):
            lib.cell(GateType.AND, 2).delay(1.0, size_factor=0.0)

    def test_arity_plan_within_limit(self, lib):
        assert lib.tree_arity_plan(GateType.AND, 3) == [3]

    def test_arity_plan_avoids_singleton_groups(self, lib):
        plan = lib.tree_arity_plan(GateType.AND, 4)
        assert sum(plan) == 4
        assert all(g >= 2 for g in plan)

    def test_bad_limits_rejected(self):
        with pytest.raises(ReproError):
            DominoCellLibrary(max_and_fanin=1)


class TestDecomposition:
    def _wide_gate_net(self, gate_type, n):
        net = LogicNetwork("wide")
        pis = [f"i{k}" for k in range(n)]
        for pi in pis:
            net.add_input(pi)
        net.add_gate("g", gate_type, pis)
        net.add_output("g")
        return net

    @pytest.mark.parametrize("gate_type,n", [(GateType.AND, 9), (GateType.OR, 13)])
    def test_decomposition_respects_limits(self, lib, gate_type, n):
        net = self._wide_gate_net(gate_type, n)
        out = decompose_to_cells(net, lib)
        limit = lib.max_fanin(gate_type)
        for node in out.gates:
            if node.gate_type is gate_type:
                assert len(node.fanins) <= limit

    @pytest.mark.parametrize("gate_type,n", [(GateType.AND, 9), (GateType.OR, 13)])
    def test_decomposition_preserves_function(self, lib, gate_type, n):
        net = self._wide_gate_net(gate_type, n)
        out = decompose_to_cells(net, lib)
        assert networks_equivalent(net, out, exhaustive_limit=13)

    def test_narrow_gates_untouched(self, lib, fig3_aoi):
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        block = implementation_network(phase_transform(fig3_aoi, a))
        out = decompose_to_cells(block, lib)
        assert len(out.gates) == len(block.gates)


class TestMapping:
    def test_cell_count_includes_inverters(self, fig3_aoi):
        a = PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.POSITIVE})
        impl = phase_transform(fig3_aoi, a)
        design = map_implementation(impl)
        # 6 domino gates + 4 input inverters.
        assert design.n_cells == 10
        assert design.standard_cell_count() == 10

    def test_counts_by_cell(self, fig3_aoi):
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        design = map_implementation(phase_transform(fig3_aoi, a))
        hist = design.counts_by_cell()
        assert hist.get("SINV") == 1
        assert sum(hist.values()) == design.n_cells

    def test_map_rejects_bad_gate(self):
        net = LogicNetwork("bad")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("x", GateType.XOR, ["a", "b"])
        net.add_output("x")
        with pytest.raises(ReproError):
            map_network(net)

    def test_mapped_size_grows_with_resize(self, fig3_aoi):
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        design = map_implementation(phase_transform(fig3_aoi, a))
        base = design.standard_cell_count()
        design.size_factors[next(iter(design.cells))] = 3.0
        assert design.standard_cell_count() == base + 2


class TestMappedPower:
    def test_power_breakdown_keys(self, fig3_aoi):
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        design = map_implementation(phase_transform(fig3_aoi, a))
        sim = simulate_mapped_power(design, n_vectors=1024, seed=0)
        assert set(sim) == {"domino", "clock", "static", "total", "current_ma"}
        assert sim["total"] == pytest.approx(
            sim["domino"] + sim["clock"] + sim["static"]
        )

    def test_clock_energy_counts_every_domino_cell(self, fig3_aoi):
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        design = map_implementation(phase_transform(fig3_aoi, a))
        sim = simulate_mapped_power(design, n_vectors=256, seed=0)
        n_domino = sum(1 for c in design.cells.values() if c.is_domino)
        assert sim["clock"] == pytest.approx(n_domino * design.library.clock_cap)

    def test_phase_choice_changes_mapped_power(self, fig3_aoi):
        probs = {pi: 0.9 for pi in fig3_aoi.inputs}
        lo = map_implementation(
            phase_transform(fig3_aoi, PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.NEGATIVE}))
        )
        hi = map_implementation(
            phase_transform(fig3_aoi, PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE}))
        )
        p_lo = simulate_mapped_power(lo, input_probs=probs, n_vectors=8192, seed=1)
        p_hi = simulate_mapped_power(hi, input_probs=probs, n_vectors=8192, seed=1)
        assert p_lo["domino"] < p_hi["domino"]


class TestTiming:
    def test_arrival_monotone(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        report = analyze_timing(design)
        net = design.network
        for node in net.gates:
            for fi in node.fanins:
                assert report.arrival[node.name] >= report.arrival[fi]

    def test_critical_path_is_connected(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        report = analyze_timing(design)
        net = design.network
        for prev, nxt in zip(report.critical_path, report.critical_path[1:]):
            assert prev in net.nodes[nxt].fanins

    def test_resize_meets_relaxed_target(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        report = analyze_timing(design)
        target = report.critical_delay * 0.9
        result = resize_to_meet_timing(design, target)
        assert result.met_timing
        assert result.final_delay <= target
        assert result.upsized_cells > 0

    def test_resize_increases_area(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        base_area = design.cell_area()
        resize_to_meet_timing(design, default_timing_target(design, 0.9))
        assert design.cell_area() > base_area

    def test_impossible_target_reported(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        result = resize_to_meet_timing(design, 1e-6, max_iterations=10)
        assert not result.met_timing
        assert result.final_delay <= result.initial_delay

    def test_bad_parameters_rejected(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        with pytest.raises(TimingError):
            resize_to_meet_timing(design, -1.0)
        with pytest.raises(TimingError):
            resize_to_meet_timing(design, 1.0, step=0.9)

    def test_resize_matches_a_full_analysis_every_iteration(self):
        iterations = 0
        for index in range(20):
            aoi = cleanup(to_aoi(parse_blif(small_pool_blif(index))))
            assignment = PhaseAssignment.all_positive(aoi.output_names())
            design = map_implementation(phase_transform(aoi, assignment))
            reference = map_implementation(phase_transform(aoi, assignment))
            target = default_timing_target(design)
            result = resize_to_meet_timing(design, target)
            assert result == _resize_by_full_analysis(reference, target)
            assert design.size_factors == reference.size_factors
            iterations += result.iterations
        assert iterations > 20

    def test_slack(self, small_random):
        a = PhaseAssignment.all_positive(small_random.output_names())
        design = map_implementation(phase_transform(small_random, a))
        report = analyze_timing(design)
        assert report.slack(report.critical_delay + 1.0) == pytest.approx(1.0)


def _resize_by_full_analysis(design, target, step=1.2, max_size=4.0, max_iterations=200):
    """The resize loop with a full ``analyze_timing`` every iteration."""
    report = analyze_timing(design)
    initial = report.critical_delay
    iterations = 0
    touched = set()
    while report.critical_delay > target and iterations < max_iterations:
        iterations += 1
        progressed = False
        for name in report.critical_path:
            if name in design.cells and design.size_factors[name] < max_size:
                design.size_factors[name] = min(design.size_factors[name] * step, max_size)
                touched.add(name)
                progressed = True
        if not progressed:
            break
        report = analyze_timing(design)
    return ResizeResult(
        met_timing=report.critical_delay <= target,
        target=target,
        initial_delay=initial,
        final_delay=report.critical_delay,
        iterations=iterations,
        upsized_cells=len(touched),
    )
