"""Timing and resizing on the compiled netlist against the name-keyed loop.

``analyze_timing``, ``default_timing_target`` and every
``resize_to_meet_timing`` iteration walk the ``CompiledNetlist`` a
``MappedDesign`` builds once.  The reference (``tests/helpers.py``) is
the loop they replaced, over a fresh topological order and fanout map;
reports, resize results and size factors must be equal with ``==``.
"""

import random

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.domino.mapper import map_implementation, map_network
from repro.domino.timing import (
    analyze_timing,
    default_timing_target,
    resize_to_meet_timing,
)
from repro.network.blif import parse_blif
from repro.network.duplication import phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment

from helpers import (
    reference_analyze_timing,
    reference_resize,
    reference_timing_target,
    small_pool_blif,
)


def _small_aoi(index):
    return cleanup(to_aoi(parse_blif(small_pool_blif(index))))


def _large_aoi(seed):
    """A 56-output circuit of the kind perfbench's large pool draws."""
    config = GeneratorConfig(
        n_inputs=92, n_outputs=56, n_gates=550, seed=seed, support_size=12, or_probability=0.45
    )
    return cleanup(to_aoi(random_control_network(f"L{seed}", config)))


def _assignments(aoi, seed):
    return [
        PhaseAssignment.all_positive(aoi.output_names()),
        PhaseAssignment.random(aoi.output_names(), seed=seed),
    ]


def _check_flow(build, slack=0.85, **resize_kwargs):
    """Timing target, resize and final analysis of two equal designs,
    one through the compiled netlist and one through the reference."""
    design, reference = build(), build()
    assert analyze_timing(design) == reference_analyze_timing(reference)
    target = default_timing_target(design, slack)
    assert target == reference_timing_target(reference, slack)
    result = resize_to_meet_timing(design, target, **resize_kwargs)
    assert result == reference_resize(reference, target, **resize_kwargs)
    assert design.size_factors == reference.size_factors
    assert analyze_timing(design) == reference_analyze_timing(reference)
    return result


class TestSmallPool:
    def test_flows_match_reference(self):
        iterations = 0
        for index in range(40):
            aoi = _small_aoi(index)
            for assignment in _assignments(aoi, index):
                result = _check_flow(lambda: map_implementation(phase_transform(aoi, assignment)))
                iterations += result.iterations
        assert iterations > 40

    def test_random_size_factors(self):
        """Unequal sizes make the load sum depend on its order."""
        rng = random.Random(0)
        for index in range(30):
            aoi = _small_aoi(index)
            design = map_implementation(phase_transform(aoi, _assignments(aoi, index)[1]))
            for name in sorted(design.size_factors):
                design.size_factors[name] = rng.uniform(0.5, 4.0)
            assert analyze_timing(design) == reference_analyze_timing(design)

    def test_tight_targets_hit_every_stop(self):
        aoi = _small_aoi(6)
        build = lambda: map_implementation(  # noqa: E731
            phase_transform(aoi, PhaseAssignment.all_positive(aoi.output_names()))
        )
        _check_flow(build, slack=0.01, max_iterations=7)
        _check_flow(build, slack=0.3, step=1.7, max_size=2.0)


class TestLargeDesigns:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_56_output_flows_match_reference(self, seed):
        aoi = _large_aoi(seed)
        assert len(aoi.outputs) == 56
        for assignment in _assignments(aoi, seed):
            _check_flow(lambda: map_implementation(phase_transform(aoi, assignment)))


def _balanced_block(n_outputs=3, depth=3):
    """Identical balanced AND/OR trees: every fanin of a gate arrives at
    the same time, and every endpoint ties."""
    net = LogicNetwork("ties")
    for o in range(n_outputs):
        layer = []
        for i in range(2 ** depth):
            name = f"x{o}_{i}"
            net.add_input(name)
            layer.append(name)
        level = 0
        while len(layer) > 1:
            kind = GateType.AND if level % 2 == 0 else GateType.OR
            nxt = []
            for i in range(0, len(layer), 2):
                name = f"t{o}_{level}_{i}"
                net.add_gate(name, kind, [layer[i], layer[i + 1]])
                nxt.append(name)
            layer = nxt
            level += 1
        net.add_output(f"o{o}", layer[0])
    return net


def _shared_fanin_block():
    """Shared inputs read by equal gates, so sinks and fanins tie."""
    net = LogicNetwork("shared")
    for name in "abcd":
        net.add_input(name)
    net.add_gate("n_a", GateType.NOT, ["a"])
    for i in range(4):
        net.add_gate(f"p{i}", GateType.AND, ["a", "b", "c"])
        net.add_gate(f"q{i}", GateType.OR, [f"p{i}", "n_a", "d"])
    net.add_gate("r", GateType.AND, ["q0", "q1", "q2", "q3"])
    net.add_gate("s", GateType.AND, ["q3", "q2", "q1", "q0"])
    net.add_output("r")
    net.add_output("s")
    net.add_output("q1")
    return net


class TestHandBuiltDesigns:
    def test_ties_keep_the_last_worst_fanin_and_first_endpoint(self):
        design = map_network(_balanced_block())
        report = analyze_timing(design)
        assert report == reference_analyze_timing(design)
        # every endpoint ties: the first one wins, through the last fanins
        assert report.critical_path == ["x0_7", "t0_0_6", "t0_1_2", "t0_2_0"]
        _check_flow(lambda: map_network(_balanced_block()))

    def test_shared_fanins(self):
        _check_flow(lambda: map_network(_shared_fanin_block()))
        _check_flow(lambda: map_network(_shared_fanin_block()), slack=0.2)

    def test_buf_feedthroughs(self):
        def build():
            net = _shared_fanin_block()
            net.add_gate("b0", GateType.BUF, ["r"])
            net.add_gate("b1", GateType.BUF, ["b0"])
            net.add_gate("u", GateType.OR, ["b1", "q0"])
            net.add_gate("b2", GateType.BUF, ["u"])
            net.add_output("bo", "b2")
            net.add_output("bb", "b1")
            return map_network(net)

        design = build()
        assert "b0" not in design.cells
        assert "b2" in analyze_timing(design).critical_path
        _check_flow(build)

    def test_no_endpoints(self):
        def build():
            net = _shared_fanin_block()
            net.outputs = []
            return map_network(net)

        design = build()
        report = analyze_timing(design)
        assert report == reference_analyze_timing(design)
        assert (report.critical_delay, report.critical_path) == (0.0, [])
        assert default_timing_target(design) == 1.0
        result = _check_flow(build)
        assert result.iterations == 0 and result.met_timing
