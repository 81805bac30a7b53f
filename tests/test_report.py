"""Tests for result serialisation, plus correlated input streams."""

import json

import numpy as np
import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.flow import run_flow
from repro.errors import PowerError
from repro.power.probability import random_source_batch
from repro.report import (
    flow_result_from_dict,
    flow_result_to_dict,
    load_results,
    results_to_csv,
    results_to_json,
    results_to_markdown,
    save_results,
)


@pytest.fixture(scope="module")
def flow_result():
    cfg = GeneratorConfig(n_inputs=10, n_outputs=3, n_gates=24, seed=33)
    net = random_control_network("rpt", cfg)
    return run_flow(net, n_vectors=512, seed=0)


@pytest.fixture(scope="module")
def timed_flow_result():
    cfg = GeneratorConfig(n_inputs=10, n_outputs=3, n_gates=24, seed=33)
    net = random_control_network("rpt_timed", cfg)
    return run_flow(net, timed=True, n_vectors=512, seed=0)


class TestSerialisation:
    def test_dict_fields(self, flow_result):
        record = flow_result_to_dict(flow_result)
        assert record["ckt"] == "rpt"
        assert set(record["ma_assignment"]) == set(record["mp_assignment"])
        assert record["probability_method"] in ("bdd", "monte-carlo")

    def test_resize_recorded_for_timed(self, timed_flow_result):
        record = flow_result_to_dict(timed_flow_result)
        assert "ma_resize" in record
        assert "final_delay" in record["ma_resize"]

    def test_json_roundtrip(self, flow_result):
        text = results_to_json([flow_result])
        data = json.loads(text)
        assert len(data) == 1
        assert data[0]["ma_size"] == flow_result.ma.size

    def test_csv_has_header_and_row(self, flow_result):
        text = results_to_csv([flow_result])
        lines = text.strip().splitlines()
        assert lines[0].startswith("ckt,")
        assert lines[1].startswith("rpt,")

    def test_markdown_table(self, flow_result):
        text = results_to_markdown([flow_result])
        assert text.startswith("| Ckt |")
        assert "| rpt |" in text

    def test_markdown_with_paper_columns(self, flow_result):
        paper = {"rpt": {"area_penalty_pct": 1.0, "power_savings_pct": 2.0}}
        text = results_to_markdown([flow_result], paper_rows=paper)
        assert "paper %Pwr" in text
        assert "2.0" in text

    def test_save_and_load(self, flow_result, tmp_path):
        path = str(tmp_path / "out.json")
        save_results([flow_result], path)
        (restored,) = load_results(path)
        assert restored.name == "rpt"

    def test_save_csv_and_md(self, flow_result, tmp_path):
        save_results([flow_result], str(tmp_path / "out.csv"))
        save_results([flow_result], str(tmp_path / "out.md"))
        assert (tmp_path / "out.csv").read_text().startswith("ckt,")

    def test_unknown_extension_rejected(self, flow_result, tmp_path):
        with pytest.raises(ValueError):
            save_results([flow_result], str(tmp_path / "out.xml"))


class TestRoundTrip:
    """flow_result_from_dict is the exact inverse of flow_result_to_dict:
    a FlowResult is its record, so the round trip gives an equal one."""

    def test_dict_round_trip_bit_identical(self, flow_result):
        restored = flow_result_from_dict(flow_result_to_dict(flow_result))
        assert restored.row() == flow_result.row()
        assert restored.name == flow_result.name
        assert restored.timed == flow_result.timed
        assert restored.probability_method == flow_result.probability_method
        assert dict(restored.ma.assignment) == dict(flow_result.ma.assignment)
        assert dict(restored.mp.assignment) == dict(flow_result.mp.assignment)
        assert restored.ma.estimated_power == flow_result.ma.estimated_power
        assert restored.mp.critical_delay == flow_result.mp.critical_delay
        assert restored == flow_result

    def test_timed_round_trip_keeps_resize(self, timed_flow_result):
        restored = flow_result_from_dict(flow_result_to_dict(timed_flow_result))
        original = timed_flow_result.ma.resize
        assert restored.ma.resize is not None
        assert restored.ma.resize.met_timing == original.met_timing
        assert restored.ma.resize.final_delay == original.final_delay
        assert restored.ma.resize.iterations == original.iterations
        assert restored.ma.resize.upsized_cells == original.upsized_cells
        assert restored == timed_flow_result

    def test_round_trip_through_json_file(self, flow_result, tmp_path):
        path = str(tmp_path / "out.json")
        save_results([flow_result], path)
        (restored,) = load_results(path)
        assert flow_result_to_dict(restored) == flow_result_to_dict(flow_result)
        assert restored == flow_result

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError):
            flow_result_from_dict({"ckt": "x"})


class TestCorrelatedStreams:
    def test_stationary_probability_preserved(self, simple_and_or):
        batch = random_source_batch(
            simple_and_or, {"a": 0.7}, 40000, seed=0, correlation=0.8
        )
        assert batch["a"].mean() == pytest.approx(0.7, abs=0.02)

    def test_transition_rate_reduced(self, simple_and_or):
        plain = random_source_batch(simple_and_or, {"a": 0.5}, 40000, seed=1)
        corr = random_source_batch(
            simple_and_or, {"a": 0.5}, 40000, seed=1, correlation=0.8
        )
        t_plain = np.mean(plain["a"][1:] != plain["a"][:-1])
        t_corr = np.mean(corr["a"][1:] != corr["a"][:-1])
        assert t_corr < t_plain * 0.5

    def test_zero_correlation_identical_to_plain(self, simple_and_or):
        a = random_source_batch(simple_and_or, {"a": 0.5}, 64, seed=2)
        b = random_source_batch(simple_and_or, {"a": 0.5}, 64, seed=2, correlation=0.0)
        assert (a["a"] == b["a"]).all()

    def test_invalid_correlation_rejected(self, simple_and_or):
        with pytest.raises(PowerError):
            random_source_batch(simple_and_or, {}, 8, correlation=1.0)
        with pytest.raises(PowerError):
            random_source_batch(simple_and_or, {}, 8, correlation=-0.1)

    def test_domino_insensitive_static_sensitive(self, fig3_aoi):
        """Key domino property: correlation changes static-inverter power
        but not domino switching (domino pays per evaluation)."""
        from repro.network.duplication import implementation_network, phase_transform
        from repro.phase import Phase, PhaseAssignment
        from repro.power.probability import pack_words, simulate_words

        a = PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.NEGATIVE})
        impl = phase_transform(fig3_aoi, a)
        block = implementation_network(impl)
        probs = {pi: 0.5 for pi in fig3_aoi.inputs}
        results = {}
        for corr in (0.0, 0.85):
            batch = random_source_batch(fig3_aoi, probs, 30000, seed=3, correlation=corr)
            words = simulate_words(block, pack_words(batch), 30000)
            fire = float(
                np.mean([words[g.instance_name].bit_count() / 30000 for g in impl.gates.values()])
            )
            toggles = float(
                np.mean(
                    [
                        np.mean(batch[s][1:] != batch[s][:-1])
                        for s in impl.input_inverters
                    ]
                )
            )
            results[corr] = (fire, toggles)
        fire0, tog0 = results[0.0]
        fire1, tog1 = results[0.85]
        assert fire1 == pytest.approx(fire0, abs=0.02)  # domino: unchanged
        assert tog1 < tog0 * 0.5  # static: collapses
