"""Tests for the staged Pipeline: ordering, options, and parity with the
legacy run_flow wrapper."""

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.config import FlowConfig
from repro.core.flow import run_flow
from repro.core.pipeline import (
    Pipeline,
    STAGE_NAMES,
    StageResult,
)
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def tiny():
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=3)
    return random_control_network("tiny", cfg)


@pytest.fixture(scope="module")
def fast_config():
    return FlowConfig(n_vectors=512)


class TestStageOrdering:
    def test_canonical_order(self):
        assert STAGE_NAMES == (
            "prepare",
            "sequential",
            "evaluator",
            "optimize_ma",
            "optimize_mp",
            "transform_map",
            "resize",
            "measure",
        )

    def test_run_produces_every_stage_in_order(self, tiny, fast_config):
        result = Pipeline(fast_config).run(tiny)
        assert result.stage_names == list(STAGE_NAMES)
        assert all(isinstance(s, StageResult) for s in result.stages)

    def test_untimed_auto_skips_resize(self, tiny, fast_config):
        result = Pipeline(fast_config).run(tiny)
        assert result.stage("resize").skipped
        assert not result.stage("measure").skipped
        assert result.flow.ma.resize is None

    def test_timed_runs_resize(self, tiny, fast_config):
        result = Pipeline(fast_config.replace(timed=True)).run(tiny)
        assert not result.stage("resize").skipped
        assert result.flow.ma.resize is not None

    def test_stage_outputs_inspectable(self, tiny, fast_config):
        result = Pipeline(fast_config).run(tiny)
        assert result.stage("prepare").output is result.context.aoi
        assert result.stage("evaluator").output is result.context.evaluator
        assert result.stage("measure").output is result.flow

    def test_unknown_stage_accessor(self, tiny, fast_config):
        result = Pipeline(fast_config).run(tiny)
        with pytest.raises(KeyError):
            result.stage("route")


class TestOptions:
    def test_only_config_and_store_are_accepted(self):
        import inspect

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(Pipeline.__init__) == ["self", "config", "store"]
        # the config is the pipeline's own: no per-call override
        assert params(Pipeline.run) == ["self", "network"]
        assert params(Pipeline.cached_flow) == ["self", "network"]


class TestParity:
    def test_pipeline_matches_run_flow(self, tiny):
        legacy = run_flow(tiny, n_vectors=512, seed=0)
        staged = Pipeline(FlowConfig(n_vectors=512, seed=0)).run(tiny).flow
        assert staged.row() == legacy.row()
        assert dict(staged.ma.assignment) == dict(legacy.ma.assignment)
        assert dict(staged.mp.assignment) == dict(legacy.mp.assignment)
        assert staged.ma.estimated_power == legacy.ma.estimated_power
        assert staged.mp.estimated_power == legacy.mp.estimated_power
        # run_flow's keywords are FlowConfig fields, nothing else
        with pytest.raises(ConfigError, match="n_vector"):
            run_flow(tiny, n_vector=512)

    def test_timed_parity(self, tiny):
        legacy = run_flow(tiny, timed=True, n_vectors=512, seed=2)
        staged = (
            Pipeline(FlowConfig(timed=True, n_vectors=512, seed=2)).run(tiny).flow
        )
        assert staged.row() == legacy.row()
        assert staged.ma.resize.final_delay == legacy.ma.resize.final_delay
