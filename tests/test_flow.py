"""Integration tests for the Figure 6 flow and the table experiments."""

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.config import FlowConfig
from repro.core.flow import format_table, run_flow
from repro.core.pipeline import Pipeline
from repro.network.ops import networks_equivalent
from repro.network.duplication import implementation_network


@pytest.fixture(scope="module")
def tiny():
    cfg = GeneratorConfig(n_inputs=12, n_outputs=4, n_gates=30, seed=21)
    return random_control_network("tiny", cfg)


@pytest.fixture(scope="module")
def tiny_flow(tiny):
    return run_flow(tiny, n_vectors=2048, seed=0)


@pytest.fixture(scope="module")
def tiny_run(tiny):
    """The same flow through Pipeline.run, which keeps the mapped artefacts."""
    return Pipeline(FlowConfig(n_vectors=2048, seed=0)).run(tiny)


class TestRunFlow:
    def test_row_fields(self, tiny_flow):
        row = tiny_flow.row()
        assert row["ckt"] == "tiny"
        assert row["n_pis"] == 12
        assert row["n_pos"] == 4
        assert row["ma_size"] > 0
        assert row["mp_size"] > 0

    def test_mp_estimated_power_not_worse(self, tiny_flow):
        assert tiny_flow.mp.estimated_power <= tiny_flow.ma.estimated_power + 1e-9

    def test_both_variants_functionally_correct(self, tiny, tiny_run):
        from repro.network.ops import cleanup, to_aoi

        aoi = cleanup(to_aoi(tiny))
        builds = tiny_run.context.builds
        for label in ("MA", "MP"):
            block = implementation_network(builds[label].implementation)
            assert networks_equivalent(aoi, block, n_vectors=128)

    def test_sizes_match_designs(self, tiny_flow, tiny_run):
        builds = tiny_run.context.builds
        assert tiny_run.flow == tiny_flow
        assert tiny_flow.ma.size == builds["MA"].design.standard_cell_count()
        assert tiny_flow.mp.size == builds["MP"].design.standard_cell_count()

    def test_percentages_consistent(self, tiny_flow):
        expected_pen = 100.0 * (tiny_flow.mp.size - tiny_flow.ma.size) / tiny_flow.ma.size
        assert tiny_flow.area_penalty_percent == pytest.approx(expected_pen)

    def test_untimed_has_no_resize(self, tiny_flow):
        assert tiny_flow.ma.resize is None
        assert not tiny_flow.timed

    def test_probability_method_recorded(self, tiny_flow):
        assert tiny_flow.probability_method in ("bdd", "monte-carlo")


class TestTimedFlow:
    def test_timed_flow_resizes(self, tiny):
        result = run_flow(tiny, timed=True, n_vectors=1024, seed=0)
        assert result.timed
        assert result.ma.resize is not None
        assert result.mp.resize is not None
        # Resizing only ever increases the cell area.
        assert result.ma.size >= 1

    def test_timed_critical_delay_positive(self, tiny):
        result = run_flow(tiny, timed=True, n_vectors=512, seed=0)
        assert result.ma.critical_delay > 0


class TestSequentialFlow:
    def test_flow_on_sequential_circuit(self, fig7):
        result = run_flow(fig7, n_vectors=1024, seed=0)
        assert result.ma.size > 0
        assert result.mp.power_ma <= result.ma.power_ma * 1.5


class TestFormatTable:
    def test_format_contains_rows_and_average(self, tiny_flow):
        text = format_table([tiny_flow.row()], "Demo")
        assert "Demo" in text
        assert "tiny" in text
        assert "Average" in text

    def test_format_empty(self):
        text = format_table([], "Empty")
        assert "Empty" in text


class TestTableExperiment:
    def test_run_table_quick_subset(self):
        from repro.experiments.tables import QUICK_CIRCUITS, format_table_result, run_table

        result = run_table(quick=True, circuits=["frg1"], n_vectors=512)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.spec.name == "frg1"
        assert row.paper is not None
        text = format_table_result(result)
        assert "frg1" in text
        assert "Average" in text

    def test_measured_averages(self):
        from repro.experiments.tables import run_table

        result = run_table(circuits=["frg1"], n_vectors=512)
        avg = result.measured_averages
        assert avg["power_savings_pct"] == pytest.approx(
            result.rows[0].flow.power_savings_percent
        )

    def test_paper_averages_by_table(self):
        from repro.experiments.tables import TableResult

        t1 = TableResult(timed=False, rows=[])
        t2 = TableResult(timed=True, rows=[])
        assert t1.paper_averages["power_savings_pct"] == pytest.approx(18.0)
        assert t2.paper_averages["power_savings_pct"] == pytest.approx(35.3)
